"""Decoding strategies for token-emitting models.

All strategies run the model step by step through the incremental
interface in :mod:`recseq.models` and share the same conventions: emitted
sequences include the terminating EOS token when one was produced, the
cumulative log probability is the sum of per-step log probabilities of the
emitted tokens, and all tie-breaks prefer the lowest token index so runs
are reproducible.

Greedy decoding, sampling and :func:`recseq.models.encode_decode` walk one
sequence at a time through :func:`_walk`, differing only in the rule that
picks each token. Beam search scores every extension of every live
hypothesis in one array, stepping each live hypothesis by its own stepper
call. It picks the survivors by partial selection: ``np.partition`` finds
the width-th best score and only the extensions at least that good are
sorted, in the order a stable sort of every extension would give. It
builds a :class:`Hypothesis` only for the survivors.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .models import ModelSpec, make_stepper
from .tensor_ops import softmax

__all__ = ["Hypothesis", "greedy_decode", "beam_search", "sample_decode"]


@dataclass(frozen=True, eq=False)
class Hypothesis:
    """A (possibly finished) decoded sequence.

    tokens holds emitted token ids in order, including the final EOS when
    finished is True. logp is the cumulative log probability of exactly
    those tokens under the model.
    """

    tokens: tuple
    logp: float
    finished: bool
    state: object = field(repr=False, default=None)


def _rank_key(h: Hypothesis):
    # Higher probability first; equal scores fall back to the lexically
    # smallest token sequence so orderings are deterministic.
    return (-h.logp, h.tokens)


def _argmax(lp) -> int:
    return int(np.argmax(lp))


def _walk(m: ModelSpec, state, step, max_len: int, pick) -> Hypothesis:
    """Emit ``pick(log distribution)`` from ``state`` until EOS or max_len tokens."""
    tokens = []
    logp = 0.0
    prev = m.vocab.bos
    for t in range(max_len):
        lp, state = step(state, prev, t)
        prev = pick(lp)
        tokens.append(prev)
        logp += float(lp[prev])
        if prev == m.vocab.eos:
            return Hypothesis(tuple(tokens), logp, True, state)
    return Hypothesis(tuple(tokens), logp, False, state)


def greedy_decode(m: ModelSpec, features, max_len: int) -> Hypothesis:
    """Follow the argmax token at every step until EOS or max_len."""
    if max_len < 1:
        raise ValueError("max_len must be at least 1")
    state, step = make_stepper(m, features)
    return _walk(m, state, step, max_len, _argmax)


def _best(scores: np.ndarray, k: int) -> np.ndarray:
    """Flat indices of the ``k`` best scores, best first.

    Equals ``np.argsort(-scores, axis=None, kind="stable")[:k]``, ties and
    NaN included: ``np.partition`` finds the k-th best negated score, and
    only the scores at least that good (NaN too, which no comparison
    excludes) get the stable sort.
    """
    neg = -scores.ravel()
    k = min(k, neg.size)
    cand = np.flatnonzero(~(neg > np.partition(neg, k - 1)[k - 1]))
    return cand[np.argsort(neg[cand], kind="stable")[:k]]


def beam_search(m: ModelSpec, features, width: int, max_len: int) -> list:
    """Breadth-limited search over token sequences.

    Every live hypothesis is expanded over the whole vocabulary; the best
    ``width`` extensions by cumulative log probability survive, chosen by
    :func:`_best` without sorting every extension. Equal scores keep the
    lower flat (parent, token) index, with parents in token order.
    Extensions ending in EOS move to the finished pool and stop competing.
    The search ends once ``width`` hypotheses have finished or every live
    hypothesis has reached max_len. Returns at most ``width`` finished
    hypotheses, best first.
    """
    if width < 1:
        raise ValueError("beam width must be at least 1")
    if max_len < 1:
        raise ValueError("max_len must be at least 1")
    state, step = make_stepper(m, features)
    live = [Hypothesis((), 0.0, False, state)]
    done = []
    for t in range(max_len):
        if not live or len(done) >= width:
            break
        # Live hypotheses are distinct and equally long, so with parents in
        # token order a stable sort by score breaks ties by flat index
        # exactly as _rank_key does.
        live.sort(key=lambda h: h.tokens)
        stepped = [step(h.state, h.tokens[-1] if h.tokens else m.vocab.bos, t) for h in live]
        scores = np.array([h.logp for h in live])[:, None] + np.array([lp for lp, _ in stepped])
        parents, live = live, []
        for i in _best(scores, width).tolist():
            p, k = divmod(i, m.vocab.size)
            h = Hypothesis(parents[p].tokens + (k,), float(scores[p, k]), k == m.vocab.eos, stepped[p][1])
            (done if h.finished else live).append(h)
    done.sort(key=_rank_key)
    return done[:width]


def sample_decode(m: ModelSpec, features, n_samples: int, temperature: float, max_len: int, seed: int = 0) -> list:
    """Draw n_samples sequences token by token from tempered softmaxes.

    Each step samples from softmax(temperature * log-probabilities), which
    equals softmax(temperature * logits) up to the shared normalizer. The
    returned list is ranked by the untempered cumulative log probability,
    best first; a very large temperature makes every draw follow the
    argmax, reproducing greedy decoding.
    """
    if n_samples < 1:
        raise ValueError("need at least one sample")
    if not 0.0 < temperature < float("inf"):
        raise ValueError("temperature must be positive and finite")
    if max_len < 1:
        raise ValueError("max_len must be at least 1")
    rng = np.random.default_rng(seed)
    state, step = make_stepper(m, features)
    # Every sample starts with the same step; states are never mutated, so
    # one result serves them all.
    first = step(state, m.vocab.bos, 0)

    def shared_first(s, prev, t):
        return first if t == 0 else step(s, prev, t)

    def draw(lp) -> int:
        probs = softmax(temperature * lp)
        # Inverse-CDF draw; cumulative sums keep the pick reproducible.
        k = int(np.searchsorted(np.cumsum(probs), rng.random(), side="right"))
        return min(k, probs.size - 1)

    return sorted((_walk(m, state, shared_first, max_len, draw) for _ in range(n_samples)), key=_rank_key)
