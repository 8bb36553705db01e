"""The batched recurrence engine against per-example runs of the same loss.

A batch runs as one right-padded, time-major unroll. These tests pin what
that must not change: every example's loss and gradient contribution, the
independence of examples from the padding a longer neighbour adds, and the
order and count of dropout draws.
"""

import numpy as np
import pytest

from recseq.data import CaptionPair, LabeledSequence, SeqPair, SequenceBatch, example_tuple
import recseq.models
from recseq.features import make_extractor
from recseq.models import ModelGrads, Vocabulary, build_model, sequence_loss_and_grads
from recseq.training import GRADCHECK_TOPOLOGIES, TrainConfig, _sgd_step, build_demo_batch, build_demo_model

from conftest import assert_passes_keep_the_budget

CASES = [(topology, cell) for topology in GRADCHECK_TOPOLOGIES for cell in ("lstm", "rnn")]
TOL = 1e-12


def ragged_batch(topology, m, n_sequences=5):
    batch = build_demo_batch(topology, m, seed=4, n_sequences=n_sequences)
    lengths = batch.input_lengths if topology == "classify" else batch.target_lengths
    assert len(set(lengths.tolist())) > 1, "the batch must be ragged"
    return batch


def examples_of(batch):
    return [batch.example(b) for b in range(len(batch))]


def longer_example(topology, m, batch):
    """One example with more steps than any in ``batch``."""
    rng = np.random.default_rng(99)
    x, _ = batch.example(0)
    tokens = (0, 1, 2, 3, 2, 1, 0, m.vocab.eos) if m.vocab is not None else None
    if topology == "classify":
        return LabeledSequence(rng.uniform(-1, 1, (9,) + m.extractor.input_shape), 1)
    if topology == "encode_decode":
        return SeqPair(rng.uniform(-1, 1, (9, m.input_dim)), tokens)
    return CaptionPair(x, tokens)


def steps_of(topology, example):
    x, y = example
    if topology == "classify":
        return len(x)
    if topology == "encode_decode":
        return len(x) - 1 + len(y)
    return len(y)


def batch_grads(m, examples, drop=None):
    grads = ModelGrads(m)
    nll, per_step = sequence_loss_and_grads(m, SequenceBatch.from_examples(m.task, examples), grads, drop=drop)
    return nll, per_step, grads.params


def summed_example_grads(m, examples, drop=None):
    grads = ModelGrads(m)
    out = [sequence_loss_and_grads(m, ex, grads, drop=drop) for ex in examples]
    return [nll for nll, _ in out], [steps for _, steps in out], grads.params


def assert_batch_is_the_sum_of_examples(m, examples):
    nll, per_step, grads = batch_grads(m, examples)
    nlls, want_steps, want = summed_example_grads(m, examples)
    assert np.max(np.abs(grads - want)) <= TOL
    assert abs(nll - sum(nlls)) <= TOL
    for got, expected in zip(per_step, want_steps):
        assert len(got) == len(expected)
        assert np.max(np.abs(np.subtract(got, expected))) <= TOL


def smallconv_model(topology, cell):
    """A demo-sized classify or caption model over (1, 6, 6) frames through smallconv."""
    rng = np.random.default_rng(3)
    ext = make_extractor("smallconv", (1, 6, 6), out_dim=5, rng=rng, n_filters=2, kernel_size=3)
    if topology == "classify":
        return build_model("classify", rng=rng, hidden=8, layers=2, cell=cell, extractor=ext, n_classes=4)
    return build_model("caption", rng=rng, hidden=8, layers=1 if topology == "caption_1u" else 2, cell=cell,
                       extractor=ext, vocab=Vocabulary.from_words(["w0", "w1", "w2", "w3"]), embed_dim=5,
                       factored=topology == "caption_2f")


SMALLCONV_CASES = [(topology, cell) for topology in ("classify", "caption_1u", "caption_2u", "caption_2f")
                   for cell in ("lstm", "rnn")]


@pytest.mark.parametrize("topology,cell", CASES)
def test_batch_gradient_is_the_sum_of_example_gradients(topology, cell):
    m = build_demo_model(topology, seed=3, cell=cell)
    assert_batch_is_the_sum_of_examples(m, examples_of(ragged_batch(topology, m)))


@pytest.mark.parametrize("topology,cell", SMALLCONV_CASES)
def test_smallconv_batch_gradient_is_the_sum_of_example_gradients(topology, cell):
    # Eight sequences: the first five captions of this seed all have three tokens.
    m = smallconv_model(topology, cell)
    assert_batch_is_the_sum_of_examples(m, examples_of(ragged_batch(topology, m, n_sequences=8)))


@pytest.mark.parametrize("topology", ["classify", "caption_2u", "caption_2f"])
def test_one_extractor_call_each_way_per_group(topology, monkeypatch, unrolls):
    # 40 sequences run as three or more passes of at most 40 padded steps: one
    # stacked phi_forward and one phi_backward per pass, through the names
    # recseq.models binds.
    m = smallconv_model(topology, "lstm")
    batch = build_demo_batch(topology, m, seed=5, n_sequences=40)
    calls = {"forward": [], "backward": []}
    forward, backward = recseq.models.phi_forward, recseq.models.phi_backward

    def counted_forward(ext, x):
        calls["forward"].append(len(x))
        return forward(ext, x)

    def counted_backward(ext, cache, d_out):
        calls["backward"].append(len(d_out))
        return backward(ext, cache, d_out)

    monkeypatch.setattr(recseq.models, "phi_forward", counted_forward)
    monkeypatch.setattr(recseq.models, "phi_backward", counted_backward)
    monkeypatch.setattr(recseq.models, "_PASS_STEPS", 40)
    sequence_loss_and_grads(m, batch, ModelGrads(m))
    assert len(unrolls) >= 3
    assert_passes_keep_the_budget(unrolls, [steps_of(topology, ex) for ex in examples_of(batch)])
    # a classify pass extracts each of its real frames once, a caption pass each image once
    rows = [int(p.sum()) if topology == "classify" else len(p) for p in unrolls]
    assert calls == {"forward": rows, "backward": rows}
    if topology == "classify":
        calls["forward"].clear()
        recseq.models._late_fusion(m, [frames for frames, _ in examples_of(batch)])
        assert calls["forward"] == rows


@pytest.mark.parametrize("topology,cell", CASES)
def test_groups_and_logit_blocks_match_the_examples(topology, cell, monkeypatch, unrolls):
    # 40 sequences run as three or more passes of at most 40 padded steps; two
    # emitting steps per logit block split every pass's output layer into
    # many products.
    m = build_demo_model(topology, seed=3, cell=cell)
    examples = examples_of(build_demo_batch(topology, m, seed=5, n_sequences=40))
    nlls, want_steps, want = summed_example_grads(m, examples)
    monkeypatch.setattr(recseq.models, "_PASS_STEPS", 40)
    for block in (recseq.models._LOGIT_BLOCK, 2 * m.prediction.n_out):
        monkeypatch.setattr(recseq.models, "_LOGIT_BLOCK", block)
        unrolls.clear()
        nll, per_step, grads = batch_grads(m, examples)
        assert len(unrolls) >= 3
        assert np.max(np.abs(grads - want)) <= TOL
        assert abs(nll - sum(nlls)) <= TOL
        assert [len(steps) for steps in per_step] == [len(steps) for steps in want_steps]


def example_of_steps(topology, m, batch, n_steps):
    """An example like ``batch``'s first that runs ``n_steps`` steps."""
    x, _ = batch.example(0)
    if topology == "classify":
        return np.resize(x, (n_steps,) + x.shape[1:]), 1
    if topology == "encode_decode":
        x, n_steps = x[:2], n_steps - 1
    return x, tuple(k % 3 for k in range(n_steps - 1)) + (m.vocab.eos,)


@pytest.mark.parametrize("topology", GRADCHECK_TOPOLOGIES)
def test_a_sequence_longer_than_the_budget_runs_alone(topology, monkeypatch, unrolls):
    # The budget fits any two of the ragged sequences, but not the long one.
    m = build_demo_model(topology, seed=3)
    batch = ragged_batch(topology, m, n_sequences=12)
    examples = examples_of(batch)
    budget = 2 * max(steps_of(topology, ex) for ex in examples)
    long = example_of_steps(topology, m, batch, budget + 1)
    examples = examples[:6] + [long] + examples[6:]
    steps = [steps_of(topology, ex) for ex in examples]
    nlls, _, want = summed_example_grads(m, examples)
    monkeypatch.setattr(recseq.models, "_PASS_STEPS", budget)
    for grads in (ModelGrads(m), None):
        unrolls.clear()
        nll, _ = sequence_loss_and_grads(m, SequenceBatch.from_examples(m.task, examples), grads)
        assert_passes_keep_the_budget(unrolls, steps)
        assert [steps_of(topology, long)] in [p.tolist() for p in unrolls]
        assert any(len(p) > 1 for p in unrolls)
        assert abs(nll - sum(nlls)) <= TOL
        if grads is not None:
            assert np.max(np.abs(grads.params - want)) <= TOL


def test_a_captioning_benchmark_batch_runs_as_one_pass(unrolls):
    # The benchmark's caption model: factored two-layer LSTM, hidden 32,
    # embedding 16, linear extractor 32 -> 16, 1008 words plus markers, and
    # training batches of 16 captions of 5 to 9 words plus EOS.
    rng = np.random.default_rng(0)
    vocab = Vocabulary.from_words([f"w{i}" for i in range(1008)])
    ext = make_extractor("linear", (32,), out_dim=16, rng=rng)
    m = build_model("caption", rng=rng, hidden=32, layers=2, cell="lstm", extractor=ext,
                    vocab=vocab, embed_dim=16, factored=True)
    examples = [CaptionPair(rng.standard_normal(32), tuple(rng.integers(0, 1008, size=9).tolist()) + (vocab.eos,))
                for _ in range(16)]
    _sgd_step(m, SequenceBatch.from_examples("caption", examples), TrainConfig(lr=0.5, dropout=0.2, clip_norm=1.0),
              np.random.default_rng(1))
    assert [p.tolist() for p in unrolls] == [[10] * 16]


@pytest.mark.parametrize("topology,cell", CASES)
def test_a_longer_example_leaves_the_others_unchanged(topology, cell):
    m = build_demo_model(topology, seed=3, cell=cell)
    batch = ragged_batch(topology, m)
    examples = examples_of(batch)
    long = longer_example(topology, m, batch)
    assert steps_of(topology, example_tuple(long)) > max(steps_of(topology, ex) for ex in examples)
    _, alone_steps, alone = batch_grads(m, examples)
    _, with_steps, joined = batch_grads(m, examples + [long])
    _, long_steps, long_only = batch_grads(m, [long])
    assert np.max(np.abs((joined - long_only) - alone)) <= TOL
    for got, expected in zip(with_steps, alone_steps + long_steps):
        assert np.max(np.abs(np.subtract(got, expected))) <= TOL


@pytest.mark.parametrize("topology,cell", CASES)
def test_dropout_draws_run_example_then_step_then_layer(topology, cell):
    m = build_demo_model(topology, seed=3, cell=cell)
    examples = examples_of(ragged_batch(topology, m))
    # Each single example draws its steps in order, a step's layers in order,
    # so equal sums pin the example order of the batched draws.
    _, _, grads = batch_grads(m, examples, drop=(0.3, np.random.default_rng(7)))
    _, _, want = summed_example_grads(m, examples, drop=(0.3, np.random.default_rng(7)))
    assert np.max(np.abs(grads - want)) <= TOL

    rng = np.random.default_rng(11)
    _sgd_step(m, SequenceBatch.from_examples(m.task, examples), TrainConfig(lr=0.1, dropout=0.3), rng)
    reference = np.random.default_rng(11)
    width = sum(c.n_input for c in m.cells)
    reference.random(sum(steps_of(topology, ex) for ex in examples) * width)
    assert rng.bit_generator.state == reference.bit_generator.state
