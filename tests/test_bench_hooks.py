"""The benchmark's tracer (perfbench/spans.py) against the library it traces.

The tracer patches the module attributes it names; a hook that no longer
exists reads 0 and looks like a speed-up, and a hook whose arguments moved
counts the wrong work. This loads the tracer by path and runs one scoring
call and one gradient call under it.
"""

import importlib.util
from collections import defaultdict
from pathlib import Path

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
