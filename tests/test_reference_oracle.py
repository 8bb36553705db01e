"""The library's forward against the benchmark's independent reference.

``perfbench/reference.py`` evaluates the documented update equations and
wiring one sequence and one step at a time, from parameters read only by
block name; it shares no code with the batched engine. The gradient check
(criterion 1) compares the backward with the library's own forward, so a
wrong forward with a matching backward passes it; this module checks the
forward itself: per-example losses of a batch, retrieval grids, late
fusion and the decode stepper, with the pass budget lowered so that
batches split into several engine passes.
"""

import importlib.util
import sys
from pathlib import Path

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import recseq.cells
import recseq.models
from recseq.evaluation import clip_protocol_eval, score_pairs
from recseq.features import phi_forward
from recseq.models import make_stepper, sequence_loss_and_grads
from recseq.training import build_demo_batch, build_demo_model

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.py"
REL = 1e-10
# Every topology the reference covers, and every cell formula.
TOPOLOGIES = ("classify", "caption_1u", "caption_2u", "caption_2f", "encode_decode")
CELLS = (("lstm", "tanh"), ("rnn", "tanh"), ("rnn", "sigmoid"))


def load_reference():
    spec = importlib.util.spec_from_file_location("perfbench_reference", REFERENCE)
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up by name while they are built.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


ref = load_reference()


def demo(topology, cell, nonlinearity, seed, n_sequences=6):
    m = build_demo_model(topology, seed=seed, cell=cell)
    if cell == "rnn":
        for c in m.cells:
            c.nonlinearity = nonlinearity
    return m, build_demo_batch(topology, m, seed=seed, n_sequences=n_sequences)


def relative_errors(m, batch):
    """Relative errors of every checked output against the reference."""
    topo, P = ref.topology_of(m), ref.params_of(m)
    examples = [batch.example(b) for b in range(len(batch))]
    errors = []

    def check(got, want):
        errors.append(float(np.max(np.abs(np.asarray(got) - want) / np.abs(want))))

    _, per_step = sequence_loss_and_grads(m, batch)
    for (x, y), steps in zip(examples, per_step):
        if m.task == "classify":
            check(sum(steps), ref.classify_nll(topo, P, x, y))
        elif m.task == "caption":
            check(sum(steps), ref.caption_nll(topo, P, x, y))
        else:
            check(sum(steps), -ref.encode_decode_log_likelihood(topo, P, x, y))

    if m.task == "classify":
        for x, _ in examples[:2]:
            _, clips = clip_protocol_eval(m, x, clip_len=2, stride=1)
            for s, d in enumerate(clips):
                check(d, ref.classify_distribution(topo, P, x[s:s + 2]))
        return errors

    if m.task == "caption":
        images = [x for x, _ in examples[:3]]
        captions = [y for _, y in examples]
        grid = score_pairs(m, [phi_forward(m.extractor, im)[0] for im in images], captions)
        for i, im in enumerate(images):
            visual = ref.extract(topo, P, im)
            for j, y in enumerate(captions):
                check(grid[i, j], ref.caption_log_likelihood(topo, P, visual, y))

    for x, y in examples[:3]:
        state, step = make_stepper(m, x)
        logp, prev = 0.0, m.vocab.bos
        for t, token in enumerate(y):
            lp, state = step(state, prev, t)
            logp, prev = logp + lp[token], token
        want = (ref.encode_decode_log_likelihood(topo, P, x, y) if m.task == "encode_decode"
                else ref.caption_log_likelihood(topo, P, ref.extract(topo, P, x), y))
        check(logp, want)
    return errors


@pytest.mark.parametrize("cell, nonlinearity", CELLS, ids=["lstm", "rnn_tanh", "rnn_sigmoid"])
@pytest.mark.parametrize("topology", TOPOLOGIES)
def test_forward_matches_the_reference_across_split_passes(monkeypatch, topology, cell, nonlinearity):
    m, batch = demo(topology, cell, nonlinearity, seed=11)
    monkeypatch.setattr(recseq.models, "_PASS_STEPS", 12)
    assert len(list(recseq.models._passes(recseq.models._steps(batch)))) > 1
    assert ref.topology_of(m).nonlinearity == nonlinearity
    errors = relative_errors(m, batch)
    assert max(errors) <= REL


@given(st.sampled_from(TOPOLOGIES), st.sampled_from(CELLS), st.integers(0, 10_000),
       st.integers(1, 8), st.integers(1, 64))
@settings(max_examples=40, deadline=None)
def test_forward_matches_the_reference_on_drawn_batches_and_budgets(topology, cell, seed, n_sequences, budget):
    m, batch = demo(topology, *cell, seed, n_sequences)
    with mock.patch.object(recseq.models, "_PASS_STEPS", budget):
        assert max(relative_errors(m, batch)) <= REL


@pytest.mark.parametrize("topology", TOPOLOGIES)
def test_the_oracle_catches_a_planted_forward_fault(monkeypatch, topology):
    # Swapping the input and forget gate blocks is a forward bug that a
    # matching backward would hide from the gradient check.
    m, batch = demo(topology, "lstm", "tanh", seed=11)
    true_cell = recseq.cells._lstm_cell

    def swapped(p, act, h_prev, c_prev):
        n = p.n_hidden
        act[..., :2 * n] = np.roll(act[..., :2 * n], n, axis=-1)
        return true_cell(p, act, h_prev, c_prev)

    monkeypatch.setattr(recseq.cells, "_lstm_cell", swapped)
    errors = relative_errors(m, batch)
    assert min(errors) > 1e-6
