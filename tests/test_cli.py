import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import momentloc

from momentloc import (
    Checkpoint,
    DataConfig,
    load_checkpoint,
    load_corpus,
    load_embeddings,
    read_features,
    save_checkpoint,
    write_annotations,
    write_features,
)
from momentloc.cli import main

from helpers import tiny_params, transpose_in_manifest

RUN_INI = """\
[data]
l_c = 16
pool_span = 1

[model]
d = 8
depth_self = 1
depth_cross = 1
window_sizes = 8,16
stride = 8

[train]
batch_videos = 2
epochs = 2
learning_rate = 0.001
seed = 0

[synth]
num_videos = 6
l_c = 16
d_v = 8
d_t = 8
num_event_types = 3
events_min = 2
events_max = 2
event_lengths = 4,6
ambiguity_rate = 0.25
noise_std = 0.1
tokens_min = 2
tokens_max = 3
seed = 0
"""


def run_cli(*argv):
    """``python -m momentloc.cli`` in a fresh interpreter, so a traceback shows."""
    env = dict(os.environ, PYTHONPATH=str(Path(momentloc.__file__).parents[1]))
    return subprocess.run([sys.executable, "-m", "momentloc.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=300)


def ini(tmp_path, text, name="cfg.ini"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Synth corpus plus a trained checkpoint, shared by the read-only tests."""
    root = tmp_path_factory.mktemp("cli")
    cfg = root / "run.ini"
    cfg.write_text(RUN_INI)
    data = root / "data"
    assert main(["synth", str(data), "--config", str(cfg)]) == 0
    ckpt = root / "model.ckpt"
    assert main(["train", str(data), str(ckpt), "--config", str(cfg)]) == 0
    return {"root": root, "cfg": str(cfg), "data": str(data), "ckpt": str(ckpt)}


class TestArgParsing:
    def test_no_command_is_a_usage_error(self, capsys):
        assert main([]) == 2
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "synth" in capsys.readouterr().out


class TestConfigFile:
    def test_unknown_section(self, tmp_path, capsys):
        code = main(["synth", str(tmp_path / "out"),
                     "--config", ini(tmp_path, "[widgets]\n")])
        assert code == 2
        assert "unknown config section [widgets]" in capsys.readouterr().err

    def test_unknown_key(self, tmp_path, capsys):
        code = main(["synth", str(tmp_path / "out"),
                     "--config", ini(tmp_path, "[train]\nbanana = 1\n")])
        assert code == 2
        assert "unknown config key [train] banana" in capsys.readouterr().err

    def test_untypable_value(self, tmp_path, capsys):
        code = main(["synth", str(tmp_path / "out"),
                     "--config", ini(tmp_path, "[train]\nepochs = ten\n")])
        assert code == 2
        err = capsys.readouterr().err
        assert "[train] epochs" in err and "'ten'" in err

    def test_bad_loss_selector_in_config(self, tmp_path, capsys):
        code = main(["synth", str(tmp_path / "out"),
                     "--config", ini(tmp_path, "[train]\nloss = bce,xyz\n")])
        assert code == 2
        assert "unknown loss component 'xyz'" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["synth", str(tmp_path / "out"),
                     "--config", str(tmp_path / "absent.ini")])
        assert code == 2
        assert "does not exist" in capsys.readouterr().err


class TestSynthCommand:
    def test_writes_corpus_layout(self, workdir, tmp_path, capsys):
        out = tmp_path / "corpus"
        assert main(["synth", str(out), "--config", workdir["cfg"]]) == 0
        stdout = capsys.readouterr().out
        assert "wrote 6 videos" in stdout and "digest " in stdout
        assert (out / "annotations.json").exists()
        assert (out / "embeddings.txt").exists()
        assert (out / "manifest.json").exists()
        features = sorted(p.name for p in (out / "features").iterdir())
        assert features == [f"synth{i:04d}.crmf" for i in range(6)]

    def test_same_config_same_digest(self, workdir, tmp_path, capsys):
        digests = []
        for name in ("one", "two"):
            assert main(["synth", str(tmp_path / name), "--config", workdir["cfg"]]) == 0
            manifest = json.loads((tmp_path / name / "manifest.json").read_text())
            digests.append(manifest["digest"])
            assert manifest["digest"] in capsys.readouterr().out
        assert digests[0] == digests[1]


class TestTrainCommand:
    def test_writes_checkpoint_and_metrics(self, workdir, capsys):
        ckpt = load_checkpoint(workdir["ckpt"])
        assert ckpt.epoch == 2
        assert ckpt.config["l_c"] == 16 and ckpt.config["pool_span"] == 1
        lines = open(workdir["ckpt"] + ".metrics.csv").read().splitlines()
        assert lines[0] == "epoch,loss,bce,tmp,smt"
        assert len(lines) == 3  # header + one row per epoch

    def test_loss_flag_disables_components(self, workdir, tmp_path, capsys):
        out = tmp_path / "bce.ckpt"
        metrics = tmp_path / "m.csv"
        code = main(["train", workdir["data"], str(out), "--config", workdir["cfg"],
                     "--loss", "bce", "--metrics", str(metrics)])
        assert code == 0
        rows = [l.split(",") for l in metrics.read_text().splitlines()[1:]]
        assert all(float(r[3]) == 0.0 and float(r[4]) == 0.0 for r in rows)
        assert all(float(r[1]) == float(r[2]) for r in rows)
        assert load_checkpoint(str(out)).config["use_tmp"] is False

    def test_seed_flag_changes_result(self, workdir, tmp_path, capsys):
        out = tmp_path / "seeded.ckpt"
        code = main(["train", workdir["data"], str(out), "--config", workdir["cfg"],
                     "--seed", "5"])
        assert code == 0
        capsys.readouterr()
        assert load_checkpoint(str(out)).config["seed"] == 5
        a = open(workdir["ckpt"], "rb").read()
        b = open(str(out), "rb").read()
        assert a != b

    def test_bad_loss_flag(self, workdir, tmp_path, capsys):
        code = main(["train", workdir["data"], str(tmp_path / "x.ckpt"),
                     "--config", workdir["cfg"], "--loss", "nope"])
        assert code == 2
        assert "unknown loss component 'nope'" in capsys.readouterr().err

    def test_missing_data_dir(self, workdir, tmp_path, capsys):
        code = main(["train", str(tmp_path / "nowhere"), str(tmp_path / "x.ckpt"),
                     "--config", workdir["cfg"]])
        assert code == 2
        assert "does not exist" in capsys.readouterr().err

    def test_divergence_exit_code(self, workdir, tmp_path, capsys):
        hot = RUN_INI.replace("learning_rate = 0.001", "learning_rate = 1e297") \
                     .replace("epochs = 2", "epochs = 1")
        cfg = ini(tmp_path, hot, "hot.ini")
        with np.errstate(all="ignore"):
            code = main(["train", workdir["data"], str(tmp_path / "x.ckpt"),
                         "--config", cfg])
        assert code == 3
        assert "non-finite loss or gradient at epoch" in capsys.readouterr().err

    def test_mixed_feature_widths_train(self, tmp_path):
        cfg = ini(tmp_path, RUN_INI.replace("num_videos = 6", "num_videos = 8"))
        data = tmp_path / "data"
        assert main(["synth", str(data), "--config", cfg]) == 0
        wide = data / "features" / "synth0003.crmf"
        frames = read_features(wide)
        write_features(wide, np.hstack([frames, np.zeros((len(frames), 3), np.float32)]))
        proc = run_cli("train", str(data), str(tmp_path / "m.ckpt"), "--config", cfg)
        assert proc.returncode == 0, proc.stderr
        assert "Traceback" not in proc.stderr
        skips = [line for line in proc.stderr.splitlines() if line.startswith("skipping")]
        assert skips == ["skipping synth0003: feature width 11 differs from the corpus's 8"]
        result = load_corpus(data / "annotations.json", data / "features",
                             load_embeddings(data / "embeddings.txt"), DataConfig(l_c=16))
        assert len(result.records) == 7 and result.skip_count == 1


# Grids whose proposals all start at clip 0 of the l_c = 16 corpus: the
# temporal and semantic losses then have no ordered proposal pair.
ONE_START_GRIDS = [("window_sizes = 8,16", "window_sizes = 16"), ("stride = 8", "stride = 16")]


class TestBadTrainSettings:
    """Settings that cannot train exit 2 before any forward: grids that
    admit no proposal, or only proposals with one start under the temporal
    and semantic losses, and out-of-range model, train and data integers."""

    @pytest.mark.parametrize("old, new, names", [
        ("stride = 8", "stride = 0", ("[model] stride",)),
        ("window_sizes = 8,16", "window_sizes = 0,8", ("[model] window_sizes",)),
        ("window_sizes = 8,16", "window_sizes = 500", ("[model] window_sizes", "[500]",
                                                       "l_c = 16")),
        ("batch_videos = 2", "batch_videos = 1", ("[train] batch_videos",)),
        ("\nd = 8", "\nd = 0", ("[model] d ",)),
        ("\nd = 8", "\nd = -2", ("[model] d ",)),
        ("depth_self = 1", "depth_self = -1", ("[model] depth_self",)),
        ("batch_videos = 2", "batch_videos = 2\nmax_concat_len = 0", ("[train] max_concat_len",)),
        *[(old, new, ("[model] window_sizes", "stride")) for old, new in ONE_START_GRIDS],
        ("[data]\nl_c = 16", "[data]\nl_c = 0", ("[data] l_c",)),
        ("pool_span = 1", "pool_span = 0", ("[data] pool_span",)),
        ("pool_span = 1", "pool_span = 1\nmax_sentence_len = 0", ("[data] max_sentence_len",)),
        ("pool_span = 1", "pool_span = 1\nmax_sentence_len = -1", ("[data] max_sentence_len",)),
        ("epochs = 2", "epochs = 0", ("[train] epochs",)),
        ("epochs = 2", "epochs = -1", ("[train] epochs",)),
    ])
    def test_exit_2_names_the_setting(self, workdir, tmp_path, old, new, names):
        cfg = ini(tmp_path, RUN_INI.replace(old, new), "bad.ini")
        proc = run_cli("train", workdir["data"], str(tmp_path / "x.ckpt"), "--config", cfg)
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        errors = [line for line in proc.stderr.splitlines() if line.startswith("error:")]
        assert len(errors) == 1 and all(name in errors[0] for name in names), proc.stderr
        assert not (tmp_path / "x.ckpt").exists()

    @pytest.mark.parametrize("old, new", ONE_START_GRIDS)
    def test_one_start_grid_trains_with_bce_alone(self, workdir, tmp_path, old, new):
        cfg = ini(tmp_path, RUN_INI.replace(old, new), "bce.ini")
        assert main(["train", workdir["data"], str(tmp_path / "x.ckpt"), "--config", cfg,
                     "--loss", "bce"]) == 0


class TestBadSynthSettings:
    """[synth] sizes and ranges that cannot make a loadable corpus, or
    would silently drop a split, exit 2 before writing."""

    @pytest.mark.parametrize("old, new, name", [
        ("tokens_max = 3", "tokens_max = 3\ntokens_per_type = 0", "[synth] tokens_per_type"),
        ("tokens_max = 3", "tokens_max = 3\nnum_confusers = 0", "[synth] num_confusers"),
        ("d_v = 8", "d_v = 0", "[synth] d_v"),
        ("d_t = 8", "d_t = 0", "[synth] d_t"),
        ("events_min = 2", "events_min = 3", "[synth] events_min"),
        ("tokens_min = 2", "tokens_min = 4", "[synth] tokens_min"),
        ("event_lengths = 4,6", "event_lengths =", "[synth] event_lengths"),
        ("events_min = 2", "events_min = 0", "[synth] events_min"),
        ("tokens_min = 2", "tokens_min = 0", "[synth] tokens_min"),
        ("tokens_max = 3", "tokens_max = 3\ntest_fraction = -1", "[synth] test_fraction"),
        ("tokens_max = 3", "tokens_max = 3\ntest_fraction = 2", "[synth] test_fraction"),
    ])
    def test_exit_2_names_the_setting(self, tmp_path, old, new, name):
        cfg = ini(tmp_path, RUN_INI.replace(old, new), "bad.ini")
        proc = run_cli("synth", str(tmp_path / "data"), "--config", cfg)
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        errors = [line for line in proc.stderr.splitlines() if line.startswith("error:")]
        assert len(errors) == 1 and name in errors[0], proc.stderr
        assert not (tmp_path / "data" / "manifest.json").exists()

    def test_no_confusers_without_ambiguity(self, tmp_path):
        text = RUN_INI.replace("ambiguity_rate = 0.25", "ambiguity_rate = 0.0\nnum_confusers = 0")
        assert main(["synth", str(tmp_path / "data"), "--config", ini(tmp_path, text)]) == 0


class TestEvalCommand:
    def test_report_table_and_json(self, workdir, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(["eval", workdir["ckpt"], workdir["data"],
                     "--thresholds", "0.1,0.3,0.5", "--out", str(out)])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "recall @ IoU>0.5" in stdout and "queries: 12" in stdout
        doc = json.loads(out.read_text())
        assert set(doc["recall_at"]) == {"0.1", "0.3", "0.5"}
        values = [doc["recall_at"][k] for k in ("0.1", "0.3", "0.5")]
        assert all(0.0 <= v <= 1.0 for v in values)
        assert values[0] >= values[1] >= values[2]
        assert doc["num_queries"] == 12 and doc["split"] is None

    def test_default_report_path(self, workdir, capsys):
        code = main(["eval", workdir["ckpt"], workdir["data"]])
        assert code == 0
        capsys.readouterr()
        doc = json.loads(open(workdir["ckpt"] + ".eval.json").read())
        assert doc["schema_version"] == 1

    def test_split_filter(self, workdir, tmp_path, capsys):
        out = tmp_path / "test-split.json"
        code = main(["eval", workdir["ckpt"], workdir["data"],
                     "--split", "test", "--out", str(out)])
        assert code == 0
        capsys.readouterr()
        doc = json.loads(out.read_text())
        assert doc["num_queries"] == 4 and doc["split"] == "test"

    def test_threshold_out_of_range(self, workdir, capsys):
        code = main(["eval", workdir["ckpt"], workdir["data"],
                     "--thresholds", "0.5,1.5"])
        assert code == 2
        assert "thresholds must lie in [0, 1)" in capsys.readouterr().err

    def test_threshold_not_a_number(self, workdir, capsys):
        code = main(["eval", workdir["ckpt"], workdir["data"], "--thresholds", "abc"])
        assert code == 2
        assert "cannot parse thresholds" in capsys.readouterr().err

    def test_checkpoint_data_mismatch(self, workdir, tmp_path, capsys):
        narrow = RUN_INI.replace("d_v = 8", "d_v = 4")
        cfg = ini(tmp_path, narrow, "narrow.ini")
        other = tmp_path / "narrow-data"
        assert main(["synth", str(other), "--config", cfg]) == 0
        code = main(["eval", workdir["ckpt"], str(other)])
        assert code == 4
        err = capsys.readouterr().err
        assert "mismatch on 'd_v'" in err

    def test_missing_checkpoint(self, workdir, tmp_path, capsys):
        code = main(["eval", str(tmp_path / "no.ckpt"), workdir["data"]])
        assert code == 2
        capsys.readouterr()

    def test_empty_split_exits_two(self, workdir):
        # the synthetic corpus has train and test records only
        proc = run_cli("eval", workdir["ckpt"], workdir["data"], "--split", "val")
        assert proc.returncode == 2
        assert "error:" in proc.stderr and "'val'" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_truncated_checkpoint_exits_two(self, workdir, tmp_path):
        raw = Path(workdir["ckpt"]).read_bytes()
        cut = tmp_path / "cut.ckpt"
        cut.write_bytes(raw[: len(raw) // 2])
        proc = run_cli("eval", str(cut), workdir["data"])
        assert proc.returncode == 2
        assert "error:" in proc.stderr
        assert "Traceback" not in proc.stderr


    def test_wrong_tensor_shape_exits_two(self, workdir, tmp_path):
        raw = Path(workdir["ckpt"]).read_bytes()
        bad = tmp_path / "transposed.ckpt"
        bad.write_bytes(transpose_in_manifest(raw, "fusion.w"))
        proc = run_cli("eval", str(bad), workdir["data"])
        assert proc.returncode == 2
        assert "error:" in proc.stderr and "'fusion.w'" in proc.stderr
        assert "Traceback" not in proc.stderr


def write_predictions(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# video_id position start_s end_s\n\n")
        for vid, pos, start, end in rows:
            fh.write(f"{vid}\t{pos}\t{start}\t{end}\n")


@pytest.fixture()
def pair_annotations(tmp_path):
    doc = {
        vid: {"duration": 30.0, "timestamps": [[0.0, 10.0], [10.0, 20.0]],
              "sentences": ["first act", "second act"], "split": "train"}
        for vid in ("v0", "v1", "v2", "v3")
    }
    path = tmp_path / "annotations.json"
    write_annotations(path, doc)
    return str(path)


class TestAnalyzeCommand:
    def test_ground_truth_copy_is_fully_consistent(self, pair_annotations, tmp_path, capsys):
        preds = tmp_path / "preds.tsv"
        rows = [(vid, p, 10.0 * p, 10.0 * (p + 1))
                for vid in ("v0", "v1", "v2", "v3") for p in (0, 1)]
        write_predictions(preds, rows)
        assert main(["analyze", str(preds), pair_annotations]) == 0
        out = capsys.readouterr().out
        assert "temporal consistency  1.0000" in out
        assert "semantic consistency  1.0000" in out
        assert "pairs scored 4 (skipped 0)" in out

    def test_reversed_predictions_break_order(self, pair_annotations, tmp_path, capsys):
        preds = tmp_path / "preds.tsv"
        rows = [(vid, p, 10.0 * (1 - p), 10.0 * (2 - p))
                for vid in ("v0", "v1", "v2", "v3") for p in (0, 1)]
        write_predictions(preds, rows)
        assert main(["analyze", str(preds), pair_annotations]) == 0
        assert "temporal consistency  0.0000" in capsys.readouterr().out

    def test_hull_overlap_fractions(self, pair_annotations, tmp_path, capsys):
        # pair hulls cover 18, 12, 8 and 4 of the 20-second truth hull
        spans = {"v0": (9.0, 18.0), "v1": (6.0, 12.0), "v2": (4.0, 8.0), "v3": (2.0, 4.0)}
        rows = []
        for vid, (mid, end) in spans.items():
            rows += [(vid, 0, 0.0, mid), (vid, 1, mid, end)]
        preds = tmp_path / "preds.tsv"
        write_predictions(preds, rows)
        assert main(["analyze", str(preds), pair_annotations]) == 0
        assert "semantic consistency  0.5000" in capsys.readouterr().out

    def test_partial_predictions_skip_pairs(self, pair_annotations, tmp_path, capsys):
        preds = tmp_path / "preds.tsv"
        write_predictions(preds, [("v0", 0, 0.0, 10.0), ("v0", 1, 10.0, 20.0),
                                  ("v1", 0, 0.0, 10.0)])
        assert main(["analyze", str(preds), pair_annotations]) == 0
        assert "pairs scored 1 (skipped 3)" in capsys.readouterr().out

    def test_unknown_video_exits_five(self, pair_annotations, tmp_path, capsys):
        preds = tmp_path / "preds.tsv"
        write_predictions(preds, [("zz", 0, 0.0, 1.0)])
        assert main(["analyze", str(preds), pair_annotations]) == 5
        err = capsys.readouterr().err
        assert "unmatched prediction zz:0" in err and "error:" in err

    def test_out_of_range_position_exits_five(self, pair_annotations, tmp_path, capsys):
        preds = tmp_path / "preds.tsv"
        write_predictions(preds, [("v0", 7, 0.0, 1.0)])
        assert main(["analyze", str(preds), pair_annotations]) == 5
        assert "unmatched prediction v0:7" in capsys.readouterr().err

    def test_malformed_row_exits_two(self, pair_annotations, tmp_path, capsys):
        preds = tmp_path / "preds.tsv"
        preds.write_text("v0\t0\t1.0\n")
        assert main(["analyze", str(preds), pair_annotations]) == 2
        assert "expected 4 tab-separated fields" in capsys.readouterr().err

    def test_backwards_segment_exits_two(self, pair_annotations, tmp_path, capsys):
        preds = tmp_path / "preds.tsv"
        preds.write_text("v0\t0\t5.0\t2.0\n")
        assert main(["analyze", str(preds), pair_annotations]) == 2
        capsys.readouterr()

    def test_missing_predictions_file(self, pair_annotations, tmp_path, capsys):
        assert main(["analyze", str(tmp_path / "no.tsv"), pair_annotations]) == 2
        capsys.readouterr()


def oracle_checkpoint_config():
    return {
        "d": 3, "d_v": 3, "d_t": 3, "l_c": 12,
        "depth_self": 0, "depth_cross": 0,
        "window_sizes": [4], "stride": 2,
        "pool_span": 1, "max_sentence_len": 20, "max_concat_len": 40,
        "batch_videos": 2, "epochs": 0, "learning_rate": 0.001,
        "beta1": 0.9, "beta2": 0.999, "adam_eps": 1e-8, "tau": 0.5,
        "grad_clip": 0.0, "seed": 0,
        "use_bce": True, "use_tmp": True, "use_smt": True,
    }


def build_oracle_checkpoint(path):
    """Hand-set weights that read the clip/word type channels directly.

    Clip features are one-hot event types with a third background channel;
    word vectors repeat the type one-hot and put -5 on the background
    channel. With identity projections and a pass-through proposal stage
    the classifier sees sum(S * Q): +1 for a pure same-type window, -4 or
    less for anything touching background, 0 for the other event type. The
    argmax is therefore exactly the annotated window.
    """
    params = tiny_params(3, 3, 3, depth_self=0, depth_cross=0)
    params["video_proj.w"] = np.eye(3)
    params["query_proj.w"] = np.eye(3)
    params["fusion.w"] = np.zeros((3, 6))
    params["proposal_attn.w_v"] = np.zeros((9, 9))
    params["proposal_attn.fc_w"] = np.eye(9)
    params["proposal_attn.fc_b"] = np.zeros(9)
    params["classifier.w"] = np.concatenate([np.zeros(3), np.ones(3), np.zeros(3)])
    params["classifier.b"] = np.zeros(())
    ckpt = Checkpoint(params, oracle_checkpoint_config(), epoch=0, rng_digest="",
                      metrics_csv="epoch,loss,bce,tmp,smt\n", order_consistency=[])
    save_checkpoint(ckpt, path)


def build_oracle_data(data_dir):
    e = np.eye(3, dtype=np.float32)
    features = data_dir / "features"
    features.mkdir(parents=True)
    rows = {"v0": [2, 2, 0, 0, 0, 0, 2, 2, 1, 1, 1, 1],
            "v1": [2, 2, 1, 1, 1, 1, 2, 2, 0, 0, 0, 0]}
    for vid, types in rows.items():
        write_features(features / f"{vid}.crmf", e[types])
    doc = {
        "v0": {"duration": 12.0, "timestamps": [[2.0, 6.0], [8.0, 12.0]],
               "sentences": ["w0", "w1"], "split": "test"},
        "v1": {"duration": 12.0, "timestamps": [[2.0, 6.0], [8.0, 12.0]],
               "sentences": ["w1", "w0"], "split": "test"},
    }
    write_annotations(data_dir / "annotations.json", doc)
    (data_dir / "embeddings.txt").write_text(
        "w0 1.0 0.0 -5.0\nw1 0.0 1.0 -5.0\n")


class TestOracleCheckpoint:
    def test_engineered_weights_recover_every_segment(self, tmp_path, capsys):
        data = tmp_path / "data"
        build_oracle_data(data)
        ckpt = tmp_path / "oracle.ckpt"
        build_oracle_checkpoint(str(ckpt))
        out = tmp_path / "report.json"
        code = main(["eval", str(ckpt), str(data),
                     "--thresholds", "0.3,0.5,0.7", "--out", str(out)])
        assert code == 0
        capsys.readouterr()
        doc = json.loads(out.read_text())
        assert doc["recall_at"] == {"0.3": 1.0, "0.5": 1.0, "0.7": 1.0}
        assert doc["temporal_consistency"] == 1.0
        assert doc["num_queries"] == 4 and doc["num_pairs"] == 2
