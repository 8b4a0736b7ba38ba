"""INI run configuration: every key reaches its dataclass field, the
defaults are the dataclass defaults, and README's INI block matches both."""

import configparser
import re
from pathlib import Path

import pytest

from momentloc import (
    DataConfig,
    GridConfig,
    SynthConfig,
    TrainConfig,
    default_run_config,
    load_run_config,
)
from momentloc.cli import main
from momentloc.config import SCHEMA

README = Path(__file__).resolve().parents[1] / "README.md"

# Every key of every section, each set away from its default.
EVERY_KEY_INI = """\
[data]
l_c = 24
pool_span = 2
max_sentence_len = 12

[model]
d = 12
depth_self = 2
depth_cross = 3
window_sizes = 4, 6,10
stride = 3

[train]
batch_videos = 5
epochs = 7
learning_rate = 0.003
beta1 = 0.8
beta2 = 0.95
adam_eps = 1e-6
tau = 0.4
max_concat_len = 30
seed = 11
loss = tmp, bce

[synth]
num_videos = 9
l_c = 20
d_v = 5
d_t = 7
num_event_types = 4
events_min = 1
events_max = 4
event_lengths = 2,12
ambiguity_rate = 0.75
noise_std = 0.3
tokens_min = 2
tokens_max = 4
tokens_per_type = 3
num_confusers = 8
test_fraction = 0.5
seed = 13
"""


def ini(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def ini_keys(text) -> dict:
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string(text)
    return {section: set(parser[section]) for section in parser.sections()}


def readme_ini_block() -> str:
    blocks = re.findall(r"```ini\n(.*?)```", README.read_text(encoding="utf-8"), re.DOTALL)
    assert len(blocks) == 1
    return blocks[0]


class TestEveryKey:
    def test_ini_covers_the_schema(self):
        assert ini_keys(EVERY_KEY_INI) == {s: set(keys) for s, keys in SCHEMA.items()}
        assert sum(len(keys) for keys in SCHEMA.values()) == 34

    def test_loads_into_the_dataclasses(self, tmp_path):
        run = load_run_config(ini(tmp_path, EVERY_KEY_INI))
        for section, keys in SCHEMA.items():
            for key, default in keys.items():
                assert run[section][key] != default, f"[{section}] {key}"
        assert run.data_config() == DataConfig(l_c=24, pool_span=2, max_sentence_len=12)
        assert run.train_config() == TrainConfig(
            d=12, depth_self=2, depth_cross=3, grid=GridConfig((4, 6, 10), 3),
            batch_videos=5, epochs=7, learning_rate=0.003, beta1=0.8, beta2=0.95,
            adam_eps=1e-6, tau=0.4, max_concat_len=30, seed=11,
            use_bce=True, use_tmp=True, use_smt=False,
        )
        assert run.synth_config() == SynthConfig(
            num_videos=9, l_c=20, d_v=5, d_t=7, num_event_types=4, events_min=1,
            events_max=4, event_lengths=(2, 12), ambiguity_rate=0.75, noise_std=0.3,
            tokens_per_sentence=(2, 4), tokens_per_type=3, num_confusers=8,
            test_fraction=0.5, seed=13,
        )


class TestDefaults:
    def test_empty_file_gives_the_dataclass_defaults(self, tmp_path):
        run = load_run_config(ini(tmp_path, ""))
        assert run.values == default_run_config().values
        assert run.data_config() == DataConfig()
        assert run.train_config() == TrainConfig()
        assert run.synth_config() == SynthConfig()

    def test_readme_block_is_the_defaults(self, tmp_path):
        # A key or default that is in only one of README and the code fails here.
        block = readme_ini_block()
        assert ini_keys(block) == {s: set(keys) for s, keys in SCHEMA.items()}
        assert load_run_config(ini(tmp_path, block)).values == default_run_config().values


class TestRejected:
    def test_eval_section_is_unknown(self, tmp_path, capsys):
        cfg = ini(tmp_path, "[eval]\nsplit = all\ntau_eval = 0.5\n")
        assert main(["synth", str(tmp_path / "out"), "--config", cfg]) == 2
        assert "unknown config section [eval]" in capsys.readouterr().err

    @pytest.mark.parametrize("text, message", [
        ("[data]\nl_c = 1.5\n", "[data] l_c: cannot parse '1.5' as int"),
        ("[train]\ntau = half\n", "[train] tau: cannot parse 'half' as float"),
        ("[synth]\nevent_lengths = 4,six\n",
         "[synth] event_lengths: cannot parse '4,six' as intlist"),
    ])
    def test_bad_value_names_key_and_type(self, tmp_path, capsys, text, message):
        assert main(["synth", str(tmp_path / "out"), "--config", ini(tmp_path, text)]) == 2
        assert message in capsys.readouterr().err
