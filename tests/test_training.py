import dataclasses
import gc
import os

import numpy as np
import pytest
from scipy import stats

import momentloc.training as training

from helpers import edit_manifest, make_record, transpose_in_manifest
from momentloc import (
    GT_AUDIT,
    Adam,
    DataError,
    GridConfig,
    LossConfig,
    MomentlocError,
    SynthConfig,
    TrainConfig,
    TrainingDivergedError,
    default_gradient_check,
    generate_corpus,
    gradient_check,
    grid_from_snapshot,
    init_params,
    load_checkpoint,
    params_from_named,
    sample_batch,
    save_checkpoint,
    train,
)
from momentloc import autodiff as ad

TINY_GRID = GridConfig((8, 16), 8)


def tiny_corpus(num_videos=4, seed=0, **over):
    cfg = dict(num_videos=num_videos, l_c=16, d_v=8, d_t=8, num_event_types=3,
               events_min=2, events_max=2, event_lengths=(4, 6), ambiguity_rate=0.25,
               noise_std=0.1, tokens_per_sentence=(2, 3), seed=seed)
    cfg.update(over)
    return generate_corpus(SynthConfig(**cfg)).records


def tiny_train_config(**over):
    base = dict(d=8, grid=TINY_GRID, batch_videos=2, epochs=2, learning_rate=1e-3, seed=0)
    base.update(over)
    return TrainConfig(**base)


def solo_corpus(num_videos=4, seed=0):
    """Videos whose paragraphs hold a single sentence each."""
    rng = np.random.default_rng(seed)
    return [
        make_record(rng.normal(size=(16, 8)), [(rng.normal(size=(3, 8)), None)],
                    vid=f"solo{i}", duration=16.0)
        for i in range(num_videos)
    ]


class TestTrainConfig:
    def test_batch_too_small_rejected(self):
        with pytest.raises(MomentlocError):
            TrainConfig(batch_videos=1)

    def test_nonpositive_learning_rate_rejected(self):
        with pytest.raises(MomentlocError):
            TrainConfig(learning_rate=0.0)

    def test_loss_config_mirrors_switches(self):
        cfg = tiny_train_config(use_tmp=False, tau=0.4, max_concat_len=10)
        lc = cfg.loss_config()
        assert (lc.use_bce, lc.use_tmp, lc.use_smt) == (True, False, True)
        assert lc.tau == 0.4 and lc.max_concat_len == 10 and lc.grid == TINY_GRID


class TestSampleBatch:
    def test_without_replacement_when_corpus_suffices(self):
        recs = tiny_corpus(8)
        batch = sample_batch(recs, 8, np.random.default_rng(0))
        ids = [it.video.id for it in batch]
        assert len(set(ids)) == 8

    def test_with_replacement_when_corpus_small(self):
        recs = tiny_corpus(2)
        batch = sample_batch(recs, 6, np.random.default_rng(1))
        assert len(batch) == 6

    def test_fixed_seed_reproduces(self):
        recs = tiny_corpus(6)
        a = sample_batch(recs, 4, np.random.default_rng(7))
        b = sample_batch(recs, 4, np.random.default_rng(7))
        assert [it.video.id for it in a] == [it.video.id for it in b]
        assert [(it.query_a.position, it.query_b and it.query_b.position) for it in a] == \
               [(it.query_a.position, it.query_b and it.query_b.position) for it in b]

    def test_pair_positions_ordered_and_uniform(self):
        recs = tiny_corpus(4, events_min=3, events_max=3)
        rng = np.random.default_rng(3)
        counts = {}
        for _ in range(200):
            for item in sample_batch(recs, 4, rng):
                a, b = item.query_a.position, item.query_b.position
                assert a < b
                counts[(a, b)] = counts.get((a, b), 0) + 1
        # three-sentence videos admit pairs (0,1), (0,2), (1,2)
        assert set(counts) == {(0, 1), (0, 2), (1, 2)}
        _, p = stats.chisquare(list(counts.values()))
        assert p > 0.01

    def test_negatives_come_from_other_videos(self):
        recs = tiny_corpus(6)
        rng = np.random.default_rng(4)
        for item in sample_batch(recs, 6, rng):
            own = set(map(id, item.video.paragraph))
            for negs in (item.neg_a, item.neg_b):
                assert negs.neg_video.id != item.video.id
                assert id(negs.neg_query) not in own

    def test_single_sentence_videos_go_solo(self):
        batch = sample_batch(solo_corpus(), 4, np.random.default_rng(5))
        assert all(it.query_b is None and it.neg_b is None for it in batch)

    def test_tiny_corpus_rejected(self):
        with pytest.raises(DataError):
            sample_batch(tiny_corpus(4)[:1], 2, np.random.default_rng(0))


class TestAdam:
    def test_first_step_matches_formula(self):
        named = {"x": np.array([1.0])}
        opt = Adam(named, lr=0.1)
        g = np.array([0.5])
        opt.step(named, {"x": g})
        m_hat = (0.1 * 0.5) / (1 - 0.9)
        v_hat = (0.001 * 0.25) / (1 - 0.999)
        want = 1.0 - 0.1 * m_hat / (np.sqrt(v_hat) + 1e-8)
        assert named["x"][0] == pytest.approx(want, abs=1e-15)

    def test_float32_gradient_updates_float64_moments(self):
        named = {"x": np.array([1.0, -2.0])}
        opt = Adam(named, lr=0.1)
        g = np.array([0.3, -0.7], dtype=np.float32)
        opt.step(named, {"x": g})
        assert {a.dtype for a in (named["x"], opt.m["x"], opt.v["x"])} == {np.dtype(np.float64)}
        assert np.array_equal(opt.m["x"], (1.0 - 0.9) * g.astype(np.float64))

    def test_missing_gradient_means_no_move(self):
        named = {"x": np.array([2.0]), "y": np.array([3.0])}
        opt = Adam(named, lr=0.5)
        opt.step(named, {"x": np.array([1.0])})
        assert named["y"][0] == 3.0
        assert named["x"][0] != 2.0


class TestTrain:
    def test_all_losses_off_leaves_parameters_at_init(self):
        recs = tiny_corpus(4)
        cfg = tiny_train_config(use_bce=False, use_tmp=False, use_smt=False)
        ckpt = train(recs, cfg)
        rng = np.random.default_rng(cfg.seed)
        want = init_params(8, 8, 8, 1, 1, rng)
        got = ckpt.params.named_arrays()
        for name, arr in want.named_arrays().items():
            assert np.array_equal(got[name], arr.astype(np.float32)), name
        # every epoch reports a zero objective
        for line in ckpt.metrics_csv.strip().splitlines()[1:]:
            assert [float(v) for v in line.split(",")[1:]] == [0.0, 0.0, 0.0, 0.0]

    def test_batch_with_no_loss_term_takes_no_step(self, monkeypatch):
        # BCE off, and the second batch holds only single-sentence videos:
        # no loss term, so Adam's momentum must not move the weights.
        recs = tiny_corpus(4)
        cfg = tiny_train_config(d=4, batch_videos=4, learning_rate=1e-2, use_bce=False)
        real_sample, steps = training.sample_batch, []

        def sample(records, n, rng):
            batch = real_sample(records, n, rng)
            if sample.calls:
                batch = [dataclasses.replace(it, query_b=None, neg_b=None) for it in batch]
            sample.calls += 1
            return batch

        def counting_step(self, named, grads):
            steps.append(self.t)
            real_step(self, named, grads)

        sample.calls, real_step = 0, Adam.step
        monkeypatch.setattr(Adam, "step", counting_step)
        one = train(recs, dataclasses.replace(cfg, epochs=1))
        steps.clear()
        monkeypatch.setattr(training, "sample_batch", sample)
        two = train(recs, cfg)
        assert steps == [0]
        for name, arr in one.params.items():
            assert np.array_equal(two.params[name], arr), name
        assert two.metrics_csv.splitlines()[2] == "1,0.0,0.0,0.0,0.0"

    def test_same_seed_bit_identical(self, tmp_path):
        recs = tiny_corpus(4)
        cfg = tiny_train_config()
        paths = []
        for run in range(2):
            ckpt = train(recs, cfg)
            p = tmp_path / f"run{run}.crmc"
            save_checkpoint(ckpt, p)
            paths.append(p)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_different_seed_differs(self):
        recs = tiny_corpus(4)
        a = train(recs, tiny_train_config())
        b = train(recs, tiny_train_config(seed=1))
        assert a.rng_digest != b.rng_digest
        assert not np.array_equal(a.params["classifier.w"], b.params["classifier.w"])

    def test_bce_loss_descends(self):
        recs = tiny_corpus(8, seed=2)
        cfg = tiny_train_config(batch_videos=4, epochs=25, learning_rate=3e-3,
                                use_tmp=False, use_smt=False)
        ckpt = train(recs, cfg)
        rows = [line.split(",") for line in ckpt.metrics_csv.strip().splitlines()[1:]]
        losses = [float(r[1]) for r in rows]
        assert losses[-1] < losses[0]

    def test_gt_audit_untouched(self):
        recs = tiny_corpus(4)
        before = GT_AUDIT.count
        train(recs, tiny_train_config())
        assert GT_AUDIT.count == before

    def test_metrics_csv_shape(self):
        recs = tiny_corpus(4)
        ckpt = train(recs, tiny_train_config(epochs=3))
        lines = ckpt.metrics_csv.strip().splitlines()
        assert lines[0] == "epoch,loss,bce,tmp,smt"
        assert len(lines) == 4
        for i, line in enumerate(lines[1:]):
            cells = line.split(",")
            assert int(cells[0]) == i
            assert all(np.isfinite(float(c)) for c in cells[1:])
        assert len(ckpt.order_consistency) == 3
        assert all(0.0 <= f <= 1.0 for f in ckpt.order_consistency)

    def test_bce_only_metrics_zero_the_other_columns(self):
        recs = tiny_corpus(4)
        ckpt = train(recs, tiny_train_config(use_tmp=False, use_smt=False))
        for line in ckpt.metrics_csv.strip().splitlines()[1:]:
            cells = line.split(",")
            assert float(cells[3]) == 0.0 and float(cells[4]) == 0.0
            assert float(cells[2]) > 0.0

    def test_single_sentence_corpus_has_no_order_series(self):
        ckpt = train(solo_corpus(), tiny_train_config())
        assert ckpt.order_consistency == [None, None]

    def test_empty_corpus_rejected(self):
        with pytest.raises(DataError):
            train([], tiny_train_config())

    def test_divergence_reported_with_location(self):
        recs = tiny_corpus(4)
        cfg = tiny_train_config(epochs=3, learning_rate=1e297)
        with np.errstate(all="ignore"):
            with pytest.raises(TrainingDivergedError) as exc:
                train(recs, cfg)
        err = exc.value
        assert err.epoch == 0 and err.batch_index == 1
        assert set(err.video_ids) <= {r.id for r in recs}
        assert "epoch 0" in str(err)

    def test_non_finite_gradient_stops_before_adam(self, monkeypatch):
        lifted, initial = [], []
        real_lift, real_init, real_backward = training.lift, training.init_params, ad.backward

        def recording_init(*args):
            params = real_init(*args)
            initial.append((params, {k: v.copy() for k, v in params.items()}))
            return params

        def recording_lift(params):
            lifted.append(real_lift(params))
            return lifted[-1]

        def poisoned_backward(root):
            real_backward(root)
            leaf = lifted[-1]["fusion.w"]
            leaf.grad = leaf.grad.copy()
            leaf.grad.flat[3] = np.nan

        monkeypatch.setattr(training, "init_params", recording_init)
        monkeypatch.setattr(training, "lift", recording_lift)
        monkeypatch.setattr(training.ad, "backward", poisoned_backward)
        recs = tiny_corpus(4)
        with pytest.raises(TrainingDivergedError) as exc:
            train(recs, tiny_train_config())
        err = exc.value
        assert (err.epoch, err.batch_index) == (0, 0)
        assert "non-finite loss or gradient at epoch 0, batch 0" in str(err)
        assert err.video_ids and set(err.video_ids) <= {r.id for r in recs}
        (params, before), = initial
        assert all(np.array_equal(params[k], before[k]) for k in before)

    @pytest.mark.parametrize("change, named", [
        (dict(l_c=24), "l_c 24 differs from the first record's"),
        (dict(d_v=6), "feature width 6 differs from the first record's"),
        (dict(d_t=5), "token width 5 differs from the first record's"),
    ])
    def test_mixed_shapes_rejected(self, change, named):
        odd = tiny_corpus(2, seed=1, **change)
        for rec in odd:
            rec.id = f"odd_{rec.id}"
        with pytest.raises(DataError, match=f"odd_synth0000: {named} \\(synth0000\\)"):
            train(tiny_corpus(3) + odd, tiny_train_config())

    def test_extra_config_lands_in_snapshot(self):
        recs = tiny_corpus(4)
        ckpt = train(recs, tiny_train_config(), {"pool_span": 3})
        assert ckpt.config["pool_span"] == 3
        assert ckpt.config["d_v"] == 8 and ckpt.config["l_c"] == 16
        assert grid_from_snapshot(ckpt.config) == TINY_GRID

    def test_config_snapshot_pinned(self):
        cfg = tiny_train_config(use_smt=False)
        ckpt = train(tiny_corpus(4), cfg, {"pool_span": 3})
        assert ckpt.config == {
            "d": 8, "d_v": 8, "d_t": 8, "l_c": 16, "depth_self": 1, "depth_cross": 1,
            "window_sizes": [8, 16], "stride": 8, "batch_videos": 2, "epochs": 2,
            "learning_rate": 0.001, "beta1": 0.9, "beta2": 0.999, "adam_eps": 1e-08,
            "tau": 0.5, "max_concat_len": 40, "seed": 0,
            "use_bce": True, "use_tmp": True, "use_smt": False, "pool_span": 3,
        }

    def test_previous_tape_freed_before_next_forward(self, monkeypatch):
        def live_tape_nodes():
            return sum(1 for o in gc.get_objects()
                       if isinstance(o, ad.Tensor) and o._backward is not None)

        counts = []

        def counting_total_loss(*args, **kwargs):
            counts.append(live_tape_nodes())
            return total_loss(*args, **kwargs)

        total_loss = training.total_loss
        monkeypatch.setattr(training, "total_loss", counting_total_loss)
        gc.collect()
        before = live_tape_nodes()
        train(tiny_corpus(4), tiny_train_config(d=8, epochs=2))
        assert len(counts) == 4
        # the lifted products of each step: four units' qk and the head's fold
        assert counts == [before + 57] * 4

    def test_float64_master_weights_and_moments(self, monkeypatch):
        seen = []
        real_step = training.Adam.step

        def recording_step(self, named, grads):
            real_step(self, named, grads)
            seen.append(({g.dtype for g in grads.values()},
                         {a.dtype for a in (*named.values(), *self.m.values(),
                                            *self.v.values())}))

        monkeypatch.setattr(training.Adam, "step", recording_step)
        train(tiny_corpus(4), tiny_train_config(batch_videos=4, epochs=1))
        # one step: float32 gradients from the tape, float64 weights and moments
        assert seen == [({np.dtype(np.float32)}, {np.dtype(np.float64)})]

    def test_checkpoint_params_are_float32(self):
        recs = tiny_corpus(4)
        ckpt = train(recs, tiny_train_config())
        assert all(v.dtype == np.float32 for v in ckpt.params.named_arrays().values())


class TestCheckpointIO:
    def make(self):
        return train(tiny_corpus(4), tiny_train_config())

    def test_round_trip(self, tmp_path):
        ckpt = self.make()
        p = tmp_path / "model.crmc"
        save_checkpoint(ckpt, p)
        back = load_checkpoint(p)
        assert back.config == ckpt.config
        assert back.epoch == ckpt.epoch
        assert back.rng_digest == ckpt.rng_digest
        assert back.metrics_csv == ckpt.metrics_csv
        assert back.order_consistency == ckpt.order_consistency
        got, want = back.params.named_arrays(), ckpt.params.named_arrays()
        assert set(got) == set(want)
        for name in want:
            assert np.array_equal(got[name], want[name]), name

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "model.crmc"
        save_checkpoint(self.make(), p)
        raw = bytearray(p.read_bytes())
        raw[0] = ord("X")
        p.write_bytes(bytes(raw))
        with pytest.raises(DataError):
            load_checkpoint(p)

    def test_bad_version_rejected(self, tmp_path):
        p = tmp_path / "model.crmc"
        save_checkpoint(self.make(), p)
        raw = bytearray(p.read_bytes())
        raw[4] = 9
        p.write_bytes(bytes(raw))
        with pytest.raises(DataError):
            load_checkpoint(p)

    def test_trailing_bytes_rejected(self, tmp_path):
        p = tmp_path / "model.crmc"
        save_checkpoint(self.make(), p)
        p.write_bytes(p.read_bytes() + b"\x00\x00\x00\x00")
        with pytest.raises(DataError):
            load_checkpoint(p)

    def test_every_truncation_raises_data_error(self, tmp_path):
        p = tmp_path / "model.crmc"
        save_checkpoint(train(tiny_corpus(4), tiny_train_config(d=4, epochs=1)), p)
        raw = p.read_bytes()
        cut = tmp_path / "cut.crmc"
        for n in range(len(raw)):
            cut.write_bytes(raw[:n])
            with pytest.raises(DataError):
                load_checkpoint(cut)

    def test_failed_save_keeps_earlier_checkpoint(self, tmp_path):
        ckpt = self.make()
        p = tmp_path / "model.crmc"
        save_checkpoint(ckpt, p)
        before = p.read_bytes()
        params = dict(ckpt.params)
        last = sorted(params)[-1]
        params[last] = np.full(params[last].shape, "x")  # the last tensor write fails
        with pytest.raises(ValueError):
            save_checkpoint(dataclasses.replace(ckpt, params=params), p)
        assert p.read_bytes() == before
        assert os.listdir(tmp_path) == ["model.crmc"]
        assert load_checkpoint(p).epoch == ckpt.epoch

    def test_non_finite_tensor_named(self, tmp_path):
        ckpt = self.make()
        ckpt.params["classifier.w"][0] = np.nan
        p = tmp_path / "model.crmc"
        save_checkpoint(ckpt, p)
        with pytest.raises(DataError, match="'classifier.w' holds non-finite values"):
            load_checkpoint(p)

    def test_wrong_tensor_shape_named(self, tmp_path):
        p = tmp_path / "model.crmc"
        save_checkpoint(train(tiny_corpus(4), tiny_train_config(d=4, epochs=1)), p)
        p.write_bytes(transpose_in_manifest(p.read_bytes(), "fusion.w"))
        with pytest.raises(DataError, match="'fusion.w' has shape \\[8, 4\\]"):
            load_checkpoint(p)

    @pytest.mark.parametrize("key, value", [
        ("l_c", None), ("window_sizes", None), ("stride", None),
        ("l_c", 16.0), ("window_sizes", [8.16]), ("pool_span", "5"), ("max_concat_len", 4.5),
        ("depth_self", True),
    ])
    def test_unreadable_eval_setting_rejected(self, tmp_path, key, value):
        # None drops the key; the other values are sizes that are not ints
        def edit(manifest):
            manifest["config"].pop(key, None)
            if value is not None:
                manifest["config"][key] = value

        p = tmp_path / "model.crmc"
        save_checkpoint(self.make(), p)
        p.write_bytes(edit_manifest(p.read_bytes(), edit))
        with pytest.raises(DataError, match="malformed checkpoint manifest"):
            load_checkpoint(p)

    def test_manifest_of_another_depth_rejected(self, tmp_path):
        # the tensors of a depth_cross 1 model do not fit the depth 0 that the config now reads
        p = tmp_path / "model.crmc"
        save_checkpoint(self.make(), p)
        p.write_bytes(edit_manifest(p.read_bytes(),
                                    lambda manifest: manifest["config"].update(depth_cross=0)))
        with pytest.raises(DataError, match="manifest lists 33 tensors, the model has 23"):
            load_checkpoint(p)

    def test_huge_depth_rejected_before_table_is_built(self, tmp_path):
        p = tmp_path / "model.crmc"
        save_checkpoint(self.make(), p)
        p.write_bytes(edit_manifest(p.read_bytes(),
                                    lambda manifest: manifest["config"].update(depth_self=10**19)))
        with pytest.raises(DataError, match="manifest lists 33 tensors"):
            load_checkpoint(p)

    def test_renamed_tensor_rejected(self, tmp_path):
        def rename(manifest):
            manifest["tensors"][0]["name"] = "bogus"

        p = tmp_path / "model.crmc"
        save_checkpoint(self.make(), p)
        p.write_bytes(edit_manifest(p.read_bytes(), rename))
        with pytest.raises(DataError, match="differ from the model's at \\['bogus', "):
            load_checkpoint(p)

    @pytest.mark.parametrize("field, value", [
        ("name", ["fusion.w"]), ("name", {}), ("shape", [-2, -2]), ("shape", [float("inf"), 4]),
        ("shape", [8.0, 4]), ("shape", "8,4"),
    ])
    def test_malformed_tensor_entry_rejected(self, tmp_path, field, value):
        # inf is written as Infinity, which reads back as the float inf, as 1e400 does
        def edit(manifest):
            entry = next(e for e in manifest["tensors"] if e["name"] == "fusion.w")
            entry[field] = value

        p = tmp_path / "model.crmc"
        save_checkpoint(self.make(), p)
        p.write_bytes(edit_manifest(p.read_bytes(), edit))
        with pytest.raises(DataError, match="malformed checkpoint manifest"):
            load_checkpoint(p)

    def test_unknown_tensor_with_negative_shape_rejected(self, tmp_path):
        p = tmp_path / "model.crmc"
        save_checkpoint(self.make(), p)
        p.write_bytes(edit_manifest(p.read_bytes(), lambda manifest: manifest["tensors"].append(
            {"name": "bogus", "shape": [-2, -2]})))
        with pytest.raises(DataError, match="malformed checkpoint manifest"):
            load_checkpoint(p)

    def test_missing_tensor_named(self):
        named = self.make().params.named_arrays()
        named.pop("fusion.w")
        with pytest.raises(DataError, match="fusion.w"):
            params_from_named(named, 8, 1, 1)


class TestGradientCheck:
    def test_default_instance_is_accurate(self):
        report = default_gradient_check(num_coords=60)
        assert report.max_rel_error < 1e-3
        assert report.num_coords == 60
        assert report.offenders == []
        assert float(report) == report.max_rel_error

    def test_all_losses_off_gives_exact_zero(self):
        report = default_gradient_check(use_bce=False, use_tmp=False, use_smt=False,
                                        num_coords=20)
        assert report.max_rel_error == 0.0

    def test_huge_step_reports_offenders(self):
        recs = tiny_corpus(2)
        rng = np.random.default_rng(0)
        params = init_params(8, 8, 8, 1, 1, rng)
        batch = sample_batch(recs, 2, rng)
        cfg = LossConfig(TINY_GRID, 0.5, True, True, True, 40)
        report = gradient_check(batch, params, cfg, step=100.0, num_coords=8)
        assert report.offenders
        name, idx, analytic, fd, rel = report.offenders[0]
        assert isinstance(name, str) and rel >= report.tolerance
