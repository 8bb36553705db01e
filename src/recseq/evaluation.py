"""Evaluation: BLEU, retrieval ranking, stream fusion, clip protocols.

BLEU here is the classic corpus measure specialized to single sentences:
modified n-gram precision (candidate counts clipped by the best reference
count), an unweighted geometric mean over orders 1..max_n, and a brevity
penalty min(1, exp(1 - r/c)) where r is the reference length closest to
the candidate length. No smoothing is applied: any zero precision zeroes
the score.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .data import example_tuple
from .decoding import greedy_decode
from .models import ModelSpec, _late_fusion, _score_grid, caption_log_likelihood  # noqa: F401 (re-export)
from .tensor_ops import as_f64

__all__ = [
    "bleu",
    "corpus_bleu",
    "RetrievalReport",
    "ScoreMatrix",
    "retrieval_metrics",
    "score_pairs",
    "fuse_streams",
    "clip_windows",
    "clip_protocol_eval",
    "greedy_corpus",
    "exact_match_rate",
    "classification_accuracy",
]


def _ngram_counts(seq, n):
    return Counter(tuple(seq[i:i + n]) for i in range(len(seq) - n + 1))


def _clipped_counts(candidate, references, n):
    """(matched, total) candidate n-grams after per-reference clipping."""
    cand = _ngram_counts(candidate, n)
    total = sum(cand.values())
    if total == 0:
        return 0, 0
    best = Counter()
    for ref in references:
        for gram, count in _ngram_counts(ref, n).items():
            if count > best[gram]:
                best[gram] = count
    matched = sum(min(count, best[gram]) for gram, count in cand.items())
    return matched, total


def _closest_ref_len(references, c):
    # Nearest reference length; the shorter one wins a distance tie.
    return min((len(r) for r in references), key=lambda r: (abs(r - c), r))


def bleu(candidate, references, max_n: int = 4) -> float:
    """Sentence BLEU of one candidate against one or more references.

    An empty candidate scores zero (it matches nothing).
    """
    return corpus_bleu([candidate], [references], max_n)


def corpus_bleu(candidates, references_list, max_n: int = 4) -> float:
    """Corpus BLEU: counts are pooled across sentences before the ratios."""
    if len(candidates) != len(references_list):
        raise ValueError("one reference set per candidate is required")
    if not candidates:
        raise ValueError("empty corpus")
    if max_n < 1:
        raise ValueError(f"max_n must be at least 1, got {max_n}")
    matched = [0] * max_n
    totals = [0] * max_n
    c_sum = 0
    r_sum = 0
    for candidate, references in zip(candidates, references_list):
        candidate = list(candidate)
        references = [list(r) for r in references]
        if not references or any(len(r) == 0 for r in references):
            raise ValueError("need at least one non-empty reference")
        for n in range(1, max_n + 1):
            m_n, t_n = _clipped_counts(candidate, references, n)
            matched[n - 1] += m_n
            totals[n - 1] += t_n
        c_sum += len(candidate)
        r_sum += _closest_ref_len(references, len(candidate))
    if c_sum == 0:
        return 0.0
    log_sum = 0.0
    for m_n, t_n in zip(matched, totals):
        if m_n == 0 or t_n == 0:
            return 0.0
        log_sum += math.log(m_n / t_n)
    brevity = min(1.0, math.exp(1.0 - r_sum / c_sum))
    return brevity * math.exp(log_sum / max_n)


@dataclass
class ScoreMatrix:
    """Query-by-candidate scores plus the correct columns for each query."""

    scores: np.ndarray
    correct: tuple

    def __post_init__(self):
        self.scores = as_f64(self.scores)
        if self.scores.ndim != 2:
            raise ValueError(f"score matrix must be 2-D, got {self.scores.shape}")
        if len(self.correct) != self.scores.shape[0]:
            raise ValueError("one correct set per query row is required")
        n = self.scores.shape[1]
        fixed = []
        for q, cols in enumerate(self.correct):
            cols = frozenset(int(c) for c in cols)
            if not cols:
                raise ValueError(f"query {q} has no correct candidates")
            if any(not 0 <= c < n for c in cols):
                raise ValueError(f"query {q} has correct columns outside 0..{n - 1}")
            fixed.append(cols)
        self.correct = tuple(fixed)


@dataclass
class RetrievalReport:
    """Ranks of the best correct candidate per query plus summary numbers."""

    ranks: tuple
    recall_at: dict
    median_rank: float


def retrieval_metrics(matrix: ScoreMatrix, ks=(1, 5, 10)) -> RetrievalReport:
    """Rank candidates per query by descending score (ties: lower column
    index first) and report Recall@K and the median best-correct rank.

    The median of an even count is the mean of the two middle values.
    """
    scores = matrix.scores
    n_queries, n_candidates = scores.shape
    ranks = []
    for q in range(n_queries):
        order = sorted(range(n_candidates), key=lambda j: (-scores[q, j], j))
        position = next(i for i, j in enumerate(order) if j in matrix.correct[q])
        ranks.append(position + 1)
    ranks_sorted = sorted(ranks)
    mid = len(ranks_sorted) // 2
    if len(ranks_sorted) % 2:
        median = float(ranks_sorted[mid])
    else:
        median = (ranks_sorted[mid - 1] + ranks_sorted[mid]) / 2.0
    recall = {k: sum(r <= k for r in ranks) / len(ranks) for k in ks}
    return RetrievalReport(tuple(ranks), recall, median)


def score_pairs(m: ModelSpec, image_feats, captions) -> np.ndarray:
    """Log likelihood of every caption under every image feature.

    Rows follow image_feats, columns follow captions; entry (i, j) is the
    teacher-forced log likelihood of caption j conditioned on feature i.
    The layers below the image run once per caption, not once per pair.
    """
    return _score_grid(m, list(image_feats), [list(c) for c in captions])


def fuse_streams(dists_a, dists_b, w_a: float, w_b: float):
    """Weighted average of two aligned lists of class distributions."""
    if len(dists_a) != len(dists_b):
        raise ValueError(f"stream lengths differ: {len(dists_a)} vs {len(dists_b)}")
    if w_a < 0 or w_b < 0 or abs((w_a + w_b) - 1.0) > 1e-9:
        raise ValueError(f"weights must be nonnegative and sum to 1, got {w_a}, {w_b}")
    fused = []
    for a, b in zip(dists_a, dists_b):
        a = as_f64(a)
        b = as_f64(b)
        if a.shape != b.shape:
            raise ValueError(f"distribution shapes differ: {a.shape} vs {b.shape}")
        fused.append(w_a * a + w_b * b)
    return fused


def clip_windows(n_frames: int, clip_len: int = 16, stride: int = 8):
    """(start, length) windows of the clip protocol.

    Full-length windows advance by ``stride``; a video shorter than
    ``clip_len`` yields a single truncated window.
    """
    if n_frames < 1:
        raise ValueError("need at least one frame")
    if clip_len < 1 or stride < 1:
        raise ValueError("clip_len and stride must be positive")
    if n_frames < clip_len:
        return [(0, n_frames)]
    return [(s, clip_len) for s in range(0, n_frames - clip_len + 1, stride)]


def _clip_distributions(m: ModelSpec, videos, clip_len, stride):
    """The (clips, classes) distributions of each video, all from one late-fusion
    call over the whole videos; with ``clip_len`` None each video is one clip."""
    windows = [[(0, len(v))] if clip_len is None else clip_windows(len(v), clip_len, stride) for v in videos]
    dists = _late_fusion(m, videos, windows)
    return np.split(dists, np.cumsum([len(w) for w in windows])[:-1])


def clip_protocol_eval(m: ModelSpec, frames, clip_len: int = 16, stride: int = 8):
    """Classify fixed-length clips and average their distributions.

    Returns (video distribution, per-clip distributions).
    """
    dists = list(_clip_distributions(m, [as_f64(frames)], clip_len, stride)[0])
    return np.mean(dists, axis=0), dists


def greedy_corpus(m: ModelSpec, examples, max_len: int) -> list:
    """(greedy decode, gold tokens) of each example, as token tuples."""
    return [(greedy_decode(m, x, max_len).tokens, tuple(y)) for x, y in map(example_tuple, examples)]


def exact_match_rate(m: ModelSpec, examples, max_len: int) -> float:
    """Fraction of examples whose greedy decode equals the gold tokens."""
    if not examples:
        raise ValueError("no examples to evaluate")
    return sum(hyp == gold for hyp, gold in greedy_corpus(m, examples, max_len)) / len(examples)


def classification_accuracy(m: ModelSpec, examples, clip_len: int | None = None, stride: int = 8) -> float:
    """Argmax accuracy, optionally under the sliding-clip protocol."""
    if not examples:
        raise ValueError("no examples to evaluate")
    videos = _clip_distributions(m, [as_f64(ex.frames) for ex in examples], clip_len, stride)
    return sum(int(np.argmax(d.mean(axis=0))) == ex.label for d, ex in zip(videos, examples)) / len(examples)
