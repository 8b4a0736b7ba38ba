"""Input-mutation gate: a corrupted input ends in a documented exit code.

A fixed-seed stream of bit flips, truncations, duplicated or deleted byte
spans and swapped digits is applied to every kind of file the CLI reads:
the annotations, the embeddings and a feature file (``eval``), the
checkpoint (``eval``), the INI file (``train`` and ``synth``) and a
predictions TSV (``analyze``). A second stream replaces one JSON value,
which byte damage rarely turns into a value of another type, in the
annotations (``eval``, ``train`` and ``analyze``) and in the checkpoint's
manifest (``eval``). Each mutated run of the in-process ``main``
must return 0 (the damage was harmless), 2 (bad data or settings), 3
(divergence), 4 (a checkpoint that does not fit the data) or 5 (predictions
that do not match the annotations), and raise nothing.
"""

import contextlib
import io
import json
import random
import warnings

from helpers import edit_manifest
from momentloc.cli import main

EXIT_CODES = {0, 2, 3, 4, 5}
CASES_PER_MUTATOR = 6
JSON_CASES = 12

# Small numbers throughout, so that a duplicated digit keeps a run short.
GATE_INI = """\
[data]
l_c = 16
pool_span = 1

[model]
d = 4
depth_self = 1
depth_cross = 1
window_sizes = 8,16
stride = 8

[train]
batch_videos = 2
epochs = 1
learning_rate = 0.001
seed = 0

[synth]
num_videos = 4
l_c = 16
d_v = 4
d_t = 4
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


def flip_bit(rng, raw):
    i = rng.randrange(len(raw))
    return raw[:i] + bytes([raw[i] ^ (1 << rng.randrange(8))]) + raw[i + 1:]


def truncate(rng, raw):
    return raw[: rng.randrange(len(raw))]


def _span(rng, raw):
    i = rng.randrange(len(raw))
    return i, min(len(raw), i + rng.randint(1, 8))


def duplicate_span(rng, raw):
    i, j = _span(rng, raw)
    return raw[:j] + raw[i:j] + raw[j:]


def delete_span(rng, raw):
    i, j = _span(rng, raw)
    return raw[:i] + raw[j:]


def swap_digits(rng, raw):
    """Exchange two different ASCII digits; a bit flip if there are none."""
    digits = [i for i, b in enumerate(raw) if 0x30 <= b <= 0x39]
    pairs = [(i, j) for i in digits for j in digits if raw[i] < raw[j]]
    if not pairs:
        return flip_bit(rng, raw)
    i, j = rng.choice(pairs)
    out = bytearray(raw)
    out[i], out[j] = raw[j], raw[i]
    return bytes(out)


MUTATORS = (flip_bit, truncate, duplicate_span, delete_span, swap_digits)

# A value of each JSON type, and numbers out of range; inf is written as
# Infinity, which reads back as the float inf, as 1e400 does.
JSON_VALUES = (None, "a", "", [], {}, -1, 1.5, float("inf"), [-2, -2])


def _replace_value(rng, doc):
    """Replace one seeded value below the root of ``doc`` in place."""
    slots, stack = [], [doc]
    while stack:
        node = stack.pop()
        keys = sorted(node) if isinstance(node, dict) else range(len(node))
        for key in keys:
            slots.append((node, key))
            if isinstance(node[key], (dict, list)):
                stack.append(node[key])
    node, key = rng.choice(slots)
    node[key] = rng.choice(JSON_VALUES)


def replace_json_value(rng, raw):
    doc = json.loads(raw)
    _replace_value(rng, doc)
    return json.dumps(doc).encode()


def replace_manifest_value(rng, raw):
    return edit_manifest(raw, lambda manifest: _replace_value(rng, manifest))


def run(argv):
    """``main``'s exit code, or the exception it let escape. A numpy warning
    is printed at the command line, not raised, and so it is ignored here."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()), \
            warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            return main([str(a) for a in argv])
        except Exception as exc:  # at the command line, a traceback
            return repr(exc)


def test_mutated_inputs_end_in_documented_exit_codes(tmp_path):
    ini, data, ckpt = tmp_path / "run.ini", tmp_path / "data", tmp_path / "model.ckpt"
    ini.write_text(GATE_INI)
    assert run(["synth", data, "--config", ini]) == 0
    assert run(["train", data, ckpt, "--config", ini]) == 0
    annotations, preds = data / "annotations.json", tmp_path / "preds.tsv"
    preds.write_text("".join(f"synth{v:04d}\t{p}\t{2.0 + 6 * p}\t{6.0 + 6 * p}\n"
                             for v in range(4) for p in range(2)))
    evaluate = ["eval", ckpt, data, "--out", tmp_path / "report.json"]
    retrain = ["train", data, tmp_path / "trained.ckpt", "--config", ini]
    analyze = ["analyze", preds, annotations]
    targets = [
        (annotations, evaluate),
        (data / "embeddings.txt", evaluate),
        (data / "features" / "synth0000.crmf", evaluate),
        (ckpt, evaluate),
        (ini, retrain),
        (ini, ["synth", tmp_path / "corpus", "--config", ini]),
        (preds, analyze),
    ]
    for path, argv in targets:
        assert run(argv) == 0, (path.name, argv[0])
    streams = [(path, argv, MUTATORS, CASES_PER_MUTATOR) for path, argv in targets] + [
        (annotations, argv, (replace_json_value,), JSON_CASES)
        for argv in (evaluate, retrain, analyze)
    ] + [(ckpt, evaluate, (replace_manifest_value,), JSON_CASES)]

    rng = random.Random(11)
    failures = []
    for path, argv, mutators, cases in streams:
        original = path.read_bytes()
        for mutate in mutators:
            for case in range(cases):
                path.write_bytes(mutate(rng, original))
                outcome = run(argv)
                if outcome not in EXIT_CODES:
                    failures.append((path.name, argv[0], mutate.__name__, case, outcome))
        path.write_bytes(original)
    assert not failures, failures
