"""The benchmark's tracer (perfbench/spans.py) against the library it traces.

The tracer patches the module attributes it names; a hook that no longer
exists reads 0 and looks like a speed-up, and a hook whose arguments moved
counts the wrong work. This loads the tracer by path and runs one scoring
call, one gradient call and one retrieval grid under it.
"""

import importlib.util
from collections import defaultdict
from pathlib import Path

import numpy as np

import recseq.evaluation
import recseq.models
import recseq.training
from recseq.models import ModelGrads
from recseq.training import build_demo_batch, build_demo_model

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
# Late fusion no longer goes through classify_sequence; the benchmark's hook
# table still names it.
KNOWN_MISSING = {"recseq.evaluation.classify_sequence"}


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_hooks_resolve_and_the_backward_counts_the_forwards_layer_steps():
    m = build_demo_model("caption_2f", seed=0)
    batch = build_demo_batch("caption_2f", m, seed=0)
    steps = int(recseq.models._steps(batch).max())
    # A backward that counted layers x layers would agree at two steps.
    assert m.n_layers == 2 and steps != 2
    unroll = recseq.models._unroll
    tracer = load_spans().Tracer().install()
    try:
        recseq.training.sequence_nll(m, batch)
        recseq.training.sequence_loss_and_grads(m, batch, ModelGrads(m), scale=1.0 / len(batch))
    finally:
        tracer.remove()
    assert recseq.models._unroll is unroll
    assert set(tracer.missing) <= KNOWN_MISSING

    names = {span[0]: span[3] for span in tracer.spans}
    work = defaultdict(lambda: defaultdict(list))  # outermost call -> span name -> work
    for _, _, op, name, _, _, w in tracer.spans:
        work[names[op]][name].append(w)
    assert work["training.nll"]["cells.forward"] == [m.n_layers * steps]
    assert work["training.nll"]["cells.backward"] == []
    loss = work["models.loss"]
    assert loss["cells.forward"] == loss["cells.backward"] == [m.n_layers * steps]


def test_retrieval_counts_the_caption_passes_and_the_pair_passes(monkeypatch):
    # A factored model's first layer runs once per caption pass and its
    # second once per pair pass; under a lowered budget both sides split,
    # and the total differs from two layers over every pair pass.
    m = build_demo_model("caption_2f", seed=0)
    rng = np.random.default_rng(0)
    feats = list(rng.uniform(-1, 1, (5, m.extractor.out_dim)))
    eos = m.vocab.eos
    caps = [(eos,), (0, eos), (2, 1, 0, eos), (1, 1, eos), (0, 2, 2, 1, 0, 1, eos), (3, eos), (2, 0, eos)]
    monkeypatch.setattr(recseq.models, "_PASS_STEPS", 40)
    lengths = np.array([len(c) for c in caps])
    below = [int(lengths[p].max()) for p in recseq.models._passes(lengths)]
    steps = np.tile(lengths, len(feats))
    pairs = [int(steps[p].max()) for p in recseq.models._passes(steps)]
    assert len(below) > 1 and len(pairs) > 1 and sum(below) != sum(pairs)
    tracer = load_spans().Tracer().install()
    try:
        recseq.evaluation.score_pairs(m, feats, caps)
    finally:
        tracer.remove()
    assert set(tracer.missing) <= KNOWN_MISSING

    names = {span[0]: span[3] for span in tracer.spans}
    work = defaultdict(list)
    for _, _, op, name, _, _, w in tracer.spans:
        if names[op] == "evaluation.score_pairs":
            work[name].append(w)
    assert work["evaluation.score_pairs"] == [len(feats) * len(caps)]
    assert work["cells.forward"] == below + pairs
    assert len(work["tensor_ops.log_softmax"]) >= len(pairs)
