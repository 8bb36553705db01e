"""Shared helpers: engine passes observed through the names recseq.models binds."""

import numpy as np
import pytest

import recseq.models


@pytest.fixture
def unrolls(monkeypatch):
    """Each engine pass's per-sequence step counts, in call order.

    Every pass must be padded to its own longest sequence, no further.
    """
    passes = []
    unroll = recseq.models._unroll

    def recorded(cells, xs, *args, **kwargs):
        lengths = np.asarray(kwargs["lengths"])
        assert len(xs) == lengths.max()
        passes.append(lengths)
        return unroll(cells, xs, *args, **kwargs)

    monkeypatch.setattr(recseq.models, "_unroll", recorded)
    return passes


def assert_passes_keep_the_budget(passes, steps):
    """``passes`` run ``steps`` once each, in order. Each pass holds at most
    ``_PASS_STEPS`` padded steps or one sequence, and takes the next
    sequence whenever it fits."""
    budget = recseq.models._PASS_STEPS
    assert np.array_equal(np.concatenate(passes), steps)
    for p in passes:
        assert len(p) == 1 or len(p) * p.max() <= budget
    for p, following in zip(passes, passes[1:]):
        assert (len(p) + 1) * max(p.max(), following[0]) > budget
