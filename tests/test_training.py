"""SGD mechanics: batch averaging, seeding, clipping, freezing, gradcheck."""

import math

import numpy as np
import pytest

import recseq.cells
import recseq.training
from recseq.data import CaptionPair, LabeledSequence, SeqPair, SequenceBatch
from recseq.errors import NumericError
from recseq.features import make_extractor
from recseq.models import ModelGrads, Vocabulary, build_model, sequence_loss_and_grads
from recseq.training import (
    LossReport,
    TrainConfig,
    build_demo_batch,
    build_demo_model,
    fit,
    gradient_check,
    run_standard_gradcheck,
    sequence_nll,
    train_epoch,
)


def zeroed(m):
    m.params[:] = 0.0
    return m


def demo_examples(topology, m, seeds):
    """Raw dataclass examples matching the demo batch shapes."""
    out = []
    for s in seeds:
        x, y = build_demo_batch(topology, m, seed=s).example(0)
        if topology == "classify":
            out.append(LabeledSequence(x, y))
        elif topology.startswith("caption") or topology == "perstep_decode":
            out.append(CaptionPair(x, y))
        else:
            out.append(SeqPair(x, y))
    return out


def snapshot(m):
    return [(name, arr.copy()) for name, arr in m.blocks()]


def max_param_diff(m, snap):
    return max(np.max(np.abs(arr - old)) for (_, old), (_, arr) in zip(snap, m.blocks()))


class TestLossReport:
    def test_add_sequence_accumulates(self):
        r = LossReport()
        r.add_sequence(1.5, [0.5, 1.0])
        r.add_sequence(3.0, [1.0, 1.0, 1.0])
        assert r.n_sequences == 2
        assert r.n_targets == 5
        assert r.total_nll == 4.5
        assert r.mean_sequence_nll == 2.25
        assert r.mean_target_nll == 0.9
        assert r.per_step_means() == [0.75, 1.0, 1.0]

    def test_merge_matches_direct_accumulation(self):
        a, b, both = LossReport(), LossReport(), LossReport()
        a.add_sequence(1.0, [1.0])
        b.add_sequence(2.0, [0.5, 1.5])
        both.add_sequence(1.0, [1.0])
        both.add_sequence(2.0, [0.5, 1.5])
        a.merge(b)
        assert a.n_sequences == both.n_sequences
        assert a.total_nll == both.total_nll
        assert a.step_totals == both.step_totals
        assert a.step_counts == both.step_counts


class TestBatchObjective:
    def test_zero_params_give_uniform_nll(self):
        # All-zero logits make every step a uniform distribution, so the
        # sequence NLL is exactly len(tokens) * ln(vocab size).
        vocab = Vocabulary.from_words(["a", "b", "c", "d"])
        m = zeroed(build_model("encode_decode", rng=np.random.default_rng(0),
                               hidden=5, layers=1, cell="lstm",
                               vocab=vocab, embed_dim=3, input_dim=2))
        batch = build_demo_batch("encode_decode", m, seed=3)
        report = sequence_nll(m, batch)
        assert abs(report.mean_target_nll - math.log(vocab.size)) < 1e-12
        for b in range(len(batch)):
            _, targets = batch.example(b)
            n = len(targets)
            nll, per_step = sequence_loss_and_grads(m, batch.example(b))
            assert abs(nll - n * math.log(vocab.size)) < 1e-12
            assert len(per_step) == n

    def test_batch_gradient_is_mean_of_sequence_gradients(self):
        m = build_demo_model("caption_1u", seed=7)
        batch = build_demo_batch("caption_1u", m, seed=7, n_sequences=2)
        joint = ModelGrads(m)
        for b in range(2):
            sequence_loss_and_grads(m, batch.example(b), joint, scale=0.5)
        separate = []
        for b in range(2):
            g = ModelGrads(m)
            sequence_loss_and_grads(m, batch.example(b), g, scale=1.0)
            separate.append(dict(g.blocks()))
        for name, arr in joint.blocks():
            want = 0.5 * (separate[0][name] + separate[1][name])
            np.testing.assert_allclose(arr, want, rtol=0, atol=1e-12)


class TestFit:
    def test_zero_lr_leaves_parameters_unchanged(self):
        m = build_demo_model("encode_decode", seed=1)
        examples = demo_examples("encode_decode", m, range(4))
        snap = snapshot(m)
        fit(m, examples, TrainConfig(lr=0.0, epochs=3, batch_size=2, seed=0))
        assert max_param_diff(m, snap) == 0.0

    def test_seeded_runs_are_identical(self):
        cfg = TrainConfig(lr=0.2, epochs=3, batch_size=2, dropout=0.25, seed=11)
        results = []
        for _ in range(2):
            m = build_demo_model("caption_2f", seed=4)
            examples = demo_examples("caption_2f", m, range(6))
            m, reports = fit(m, examples, cfg)
            results.append((snapshot(m), [r.total_nll for r in reports]))
        for (name_a, arr_a), (name_b, arr_b) in zip(results[0][0], results[1][0]):
            assert name_a == name_b
            np.testing.assert_array_equal(arr_a, arr_b)
        assert results[0][1] == results[1][1]

    def test_dropout_changes_the_trajectory(self):
        outs = []
        for drop in (0.0, 0.5):
            m = build_demo_model("caption_1u", seed=4)
            examples = demo_examples("caption_1u", m, range(4))
            cfg = TrainConfig(lr=0.2, epochs=2, batch_size=2, dropout=drop, seed=9)
            m, _ = fit(m, examples, cfg)
            outs.append(dict(snapshot(m)))
        diffs = [np.max(np.abs(outs[0][n] - outs[1][n])) for n in outs[0]]
        assert max(diffs) > 1e-6

    def test_memorization_drives_loss_down(self):
        m = build_demo_model("caption_1u", seed=2)
        examples = demo_examples("caption_1u", m, range(3))
        m, reports = fit(m, examples, TrainConfig(lr=0.5, epochs=60, batch_size=3, seed=0, shuffle=False))
        first, last = reports[0].mean_sequence_nll, reports[-1].mean_sequence_nll
        assert last < 0.2 * first

    def test_stop_fn_halts_early(self):
        m = build_demo_model("encode_decode", seed=3)
        examples = demo_examples("encode_decode", m, range(4))
        m, reports = fit(m, examples, TrainConfig(lr=0.1, epochs=50, batch_size=2, seed=0),
                         stop_fn=lambda mm, e, r: e == 4)
        assert len(reports) == 5

    def test_log_lines_one_per_epoch(self):
        import io

        m = build_demo_model("encode_decode", seed=3)
        examples = demo_examples("encode_decode", m, range(4))
        buf = io.StringIO()
        fit(m, examples, TrainConfig(lr=0.1, epochs=3, batch_size=2, seed=0), log=buf)
        lines = [ln for ln in buf.getvalue().splitlines() if ln]
        assert len(lines) == 3
        assert all(ln.startswith("epoch ") and " loss " in ln for ln in lines)

    def test_non_finite_loss_raises_numeric_error(self):
        m = build_demo_model("caption_1u", seed=2)
        m.prediction.W_z[0, 0] = np.nan
        examples = demo_examples("caption_1u", m, [0])
        with pytest.raises(NumericError):
            fit(m, examples, TrainConfig(lr=0.1, epochs=1, batch_size=1, seed=0))


class TestConstraints:
    def test_frozen_blocks_never_move(self):
        m = build_demo_model("encode_decode", seed=5)
        examples = demo_examples("encode_decode", m, range(4))
        frozen = ("cell0.W_hi", "pred.b_z")
        before = {name: arr.copy() for name, arr in m.blocks()}
        m, _ = fit(m, examples, TrainConfig(lr=0.3, epochs=2, batch_size=2, seed=0, frozen=frozen))
        after = dict(m.blocks())
        for name in frozen:
            np.testing.assert_array_equal(after[name], before[name])
        moved = [name for name, arr in m.blocks()
                 if name not in frozen and np.max(np.abs(arr - before[name])) > 0]
        assert moved

    def test_unknown_frozen_names_are_rejected_before_any_update(self):
        m = build_demo_model("encode_decode", seed=5)
        examples = demo_examples("encode_decode", m, range(4))
        snap = snapshot(m)
        cfg = TrainConfig(lr=0.3, epochs=1, batch_size=2, seed=0, frozen=("cell0.W_hl", "pred.b_z", "nope"))
        with pytest.raises(ValueError, match=r"\['cell0\.W_hl', 'nope'\]"):
            fit(m, examples, cfg)
        assert max_param_diff(m, snap) == 0.0

    def test_non_finite_gradient_names_its_block_unless_frozen(self, monkeypatch):
        true_loss = recseq.training.sequence_loss_and_grads

        def poisoned(m, example, grads=None, scale=1.0, drop=None):
            out = true_loss(m, example, grads, scale=scale, drop=drop)
            if grads is not None:
                dict(grads.blocks())["cell0.W_hi"][0, 0] = np.nan
            return out

        monkeypatch.setattr(recseq.training, "sequence_loss_and_grads", poisoned)
        m = build_demo_model("encode_decode", seed=5)
        batch = build_demo_batch("encode_decode", m, seed=5)
        with pytest.raises(NumericError, match="'cell0.W_hi'"):
            train_epoch(m, [batch], TrainConfig(lr=0.3))
        before = dict(snapshot(m))
        train_epoch(m, [batch], TrainConfig(lr=0.3, frozen=("cell0.W_hi",)))
        after = dict(m.blocks())
        np.testing.assert_array_equal(after["cell0.W_hi"], before["cell0.W_hi"])
        assert np.max(np.abs(after["cell0.W_xi"] - before["cell0.W_xi"])) > 0

    def test_clip_norm_caps_the_update_norm(self):
        m = build_demo_model("caption_1u", seed=8)
        examples = demo_examples("caption_1u", m, [1])
        # One batch, one epoch: the parameter delta is exactly -lr times the
        # clipped gradient, whose norm equals clip_norm when clipping fires.
        grads = ModelGrads(m)
        from recseq.data import example_tuple

        sequence_loss_and_grads(m, example_tuple(examples[0]), grads, scale=1.0)
        raw_norm = grads.global_norm()
        clip = 0.25 * raw_norm
        snap = snapshot(m)
        lr = 0.5
        m, _ = fit(m, examples, TrainConfig(lr=lr, epochs=1, batch_size=1, seed=0, clip_norm=clip))
        delta_sq = sum(float(np.sum((arr - old) ** 2)) for (_, old), (_, arr) in zip(snap, m.blocks()))
        assert math.sqrt(delta_sq) == pytest.approx(lr * clip, rel=1e-9)

    def test_loose_clip_norm_is_inert(self):
        runs = []
        for clip in (None, 1e9):
            m = build_demo_model("caption_1u", seed=8)
            examples = demo_examples("caption_1u", m, [1])
            m, _ = fit(m, examples, TrainConfig(lr=0.5, epochs=1, batch_size=1, seed=0, clip_norm=clip))
            runs.append(snapshot(m))
        for (na, a), (nb, b) in zip(runs[0], runs[1]):
            assert na == nb
            np.testing.assert_array_equal(a, b)

    def test_clip_len_trains_on_windows(self):
        rng = np.random.default_rng(0)
        ext = make_extractor("identity", (3,))
        m = build_model("classify", rng=rng, hidden=4, layers=1, cell="lstm", extractor=ext, n_classes=2)
        examples = [LabeledSequence(rng.uniform(-1, 1, size=(8, 3)), int(rng.integers(0, 2))) for _ in range(4)]
        m, reports = fit(m, examples, TrainConfig(lr=0.1, epochs=2, batch_size=2, seed=0, clip_len=3))
        assert reports[-1].n_sequences == 4

    def test_clip_len_longer_than_frames_matches_unclipped(self):
        runs = []
        for clip_len in (None, 64):
            rng = np.random.default_rng(0)
            ext = make_extractor("identity", (3,))
            m = build_model("classify", rng=np.random.default_rng(1), hidden=4, layers=1,
                            cell="lstm", extractor=ext, n_classes=2)
            examples = [LabeledSequence(rng.uniform(-1, 1, size=(5, 3)), int(rng.integers(0, 2))) for _ in range(4)]
            m, _ = fit(m, examples, TrainConfig(lr=0.2, epochs=2, batch_size=2, seed=0, clip_len=clip_len))
            runs.append(snapshot(m))
        for (na, a), (nb, b) in zip(runs[0], runs[1]):
            assert na == nb
            np.testing.assert_array_equal(a, b)


class TestTrainEpoch:
    def test_matches_fit_without_shuffle(self):
        m1 = build_demo_model("encode_decode", seed=6)
        m2 = build_demo_model("encode_decode", seed=6)
        examples = demo_examples("encode_decode", m1, range(4))
        cfg = TrainConfig(lr=0.2, epochs=1, batch_size=2, seed=0, shuffle=False)
        fit(m1, examples, cfg)
        batches = [SequenceBatch.from_examples("encode_decode", examples[:2]),
                   SequenceBatch.from_examples("encode_decode", examples[2:])]
        train_epoch(m2, batches, cfg)
        for (na, a), (nb, b) in zip(m1.blocks(), m2.blocks()):
            assert na == nb
            np.testing.assert_array_equal(a, b)


class TestGradientCheck:
    def test_small_lstm_passes(self):
        report = run_standard_gradcheck("encode_decode", seed=0)
        assert report.passed
        assert all(b.max_rel_err < 1e-4 or b.max_abs_err < 1e-7 for b in report.blocks)

    def test_rnn_cell_passes(self):
        report = run_standard_gradcheck("classify", seed=0, cell="rnn")
        assert report.passed

    def test_detects_a_planted_backward_fault(self, monkeypatch):
        true_backward = recseq.cells.lstm_step_backward

        def faulty(p, cache, dh, dc, grad_acc=None):
            out = true_backward(p, cache, dh, dc, grad_acc)
            if grad_acc is not None:
                grad_acc.b[0] += 0.05
            return out

        monkeypatch.setattr(recseq.cells, "lstm_step_backward", faulty)
        m = build_demo_model("encode_decode", seed=0)
        batch = build_demo_batch("encode_decode", m, seed=0)
        report = gradient_check(m, batch)
        assert not report.passed
        worst = report.worst()
        assert worst is not None and not worst.ok
        assert "FAIL" in report.summary()

    def test_a_non_finite_analytic_gradient_fails_its_block(self, monkeypatch):
        true_loss = recseq.training.sequence_loss_and_grads

        def poisoned(m, example, grads=None, scale=1.0, drop=None):
            out = true_loss(m, example, grads, scale=scale, drop=drop)
            if grads is not None:
                dict(grads.blocks())["pred.b_z"][0] = np.nan
            return out

        monkeypatch.setattr(recseq.training, "sequence_loss_and_grads", poisoned)
        m = build_demo_model("encode_decode", seed=0)
        report = gradient_check(m, build_demo_batch("encode_decode", m, seed=0))
        assert not report.passed
        assert [b.name for b in report.blocks if not b.ok] == ["pred.b_z"]

    def test_a_non_finite_numeric_probe_raises_and_restores_the_block(self, monkeypatch):
        true_loss = recseq.training.sequence_loss_and_grads

        def poisoned(m, example, grads=None, scale=1.0, drop=None):
            nll, per_step = true_loss(m, example, grads, scale=scale, drop=drop)
            return (nll, per_step) if grads is not None else (float("nan"), per_step)

        monkeypatch.setattr(recseq.training, "sequence_loss_and_grads", poisoned)
        m = build_demo_model("encode_decode", seed=0)
        before = m.params.copy()
        with pytest.raises(NumericError):
            gradient_check(m, build_demo_batch("encode_decode", m, seed=0))
        np.testing.assert_array_equal(m.params, before)


class TestTrainConfigValidation:
    @pytest.mark.parametrize("bad", [
        dict(lr=float("nan")), dict(lr=float("inf")), dict(lr=-0.1),
        dict(epochs=0), dict(epochs=-1), dict(batch_size=0),
        dict(dropout=-0.1), dict(dropout=1.0),
        dict(clip_norm=0.0), dict(clip_norm=float("nan")), dict(clip_len=0),
    ], ids=lambda bad: "-".join(f"{k}={v}" for k, v in bad.items()))
    def test_rejected_when_built(self, bad):
        field = next(iter(bad))
        with pytest.raises(ValueError, match=field):
            TrainConfig(**bad)

    def test_boundary_values_are_legal(self):
        TrainConfig(lr=0.0, epochs=1, batch_size=1, dropout=0.0, clip_norm=1e-12, clip_len=1)
