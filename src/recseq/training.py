"""Plain SGD training, batch losses, and the gradient-check harness.

The objective is the negative log likelihood summed over a sequence's
predicted positions, averaged over the sequences of a minibatch. Updates
are vanilla gradient descent: theta <- theta - lr * grad, one operation on
the model's parameter vector ``m.params`` and the gradient vector of the
same layout. Before it, frozen blocks of the gradient are set to zero, one
finiteness test covers the whole gradient (the offending block is looked
up only when it fails), and clipping rescales the whole gradient when its
global L2 norm, summed array by array in layout order, exceeds the bound.
Inverted dropout may be applied to the recurrent layer inputs during
training; evaluation never rescales. All randomness (shuffling, dropout
masks) flows from one generator seeded by the config, so a seeded run is
exactly repeatable.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .data import CaptionPair, LabeledSequence, SeqPair, SequenceBatch
from .errors import NumericError
from .features import make_extractor
from .models import ModelGrads, ModelSpec, Vocabulary, build_model, sequence_loss_and_grads
from .tensor_ops import apply_dropout, dropout_mask, finite_diff_grad  # dropout helpers are re-exported

__all__ = [
    "TrainConfig",
    "LossReport",
    "sequence_nll",
    "train_epoch",
    "fit",
    "gradient_check",
    "GradCheckReport",
    "BlockCheck",
    "GRADCHECK_TOPOLOGIES",
    "build_demo_model",
    "build_demo_batch",
    "run_standard_gradcheck",
    "apply_dropout",
    "dropout_mask",
]


@dataclass
class TrainConfig:
    """Hyperparameters for :func:`fit` and :func:`train_epoch`.

    clip_norm rescales the whole gradient when its global L2 norm exceeds
    the bound; None disables clipping. clip_len, when set for
    classification, trains on a random contiguous window of that many
    frames per example each epoch. frozen names parameter blocks whose
    gradients are zeroed before every update; a name that is not a block
    of the model raises ValueError.
    """

    lr: float = 0.1
    epochs: int = 1
    batch_size: int = 16
    dropout: float = 0.0
    seed: int = 0
    clip_norm: float | None = None
    clip_len: int | None = None
    frozen: tuple = ()
    shuffle: bool = True

    def __post_init__(self):
        rules = (
            ("lr", np.isfinite(self.lr) and self.lr >= 0.0, "finite and >= 0"),
            ("epochs", self.epochs >= 1, ">= 1"),
            ("batch_size", self.batch_size >= 1, ">= 1"),
            ("dropout", 0.0 <= self.dropout < 1.0, "in [0, 1)"),
            ("clip_norm", self.clip_norm is None or self.clip_norm > 0.0, "> 0 when set"),
            ("clip_len", self.clip_len is None or self.clip_len >= 1, ">= 1 when set"),
        )
        for name, ok, rule in rules:
            if not ok:
                raise ValueError(f"{name} must be {rule}, got {getattr(self, name)!r}")


@dataclass
class LossReport:
    """Aggregated NLL for a batch or an epoch."""

    n_sequences: int = 0
    n_targets: int = 0
    total_nll: float = 0.0
    step_totals: list = field(default_factory=list)
    step_counts: list = field(default_factory=list)

    @property
    def mean_sequence_nll(self) -> float:
        return self.total_nll / max(1, self.n_sequences)

    @property
    def mean_target_nll(self) -> float:
        return self.total_nll / max(1, self.n_targets)

    def per_step_means(self):
        return [t / max(1, c) for t, c in zip(self.step_totals, self.step_counts)]

    def add_sequence(self, nll: float, per_step):
        self.merge(LossReport(1, len(per_step), nll, list(per_step), [1] * len(per_step)))

    @classmethod
    def of_batch(cls, nll: float, per_step) -> "LossReport":
        """A batch's report from its total NLL and each sequence's per-step NLLs."""
        report = cls(total_nll=nll)
        for steps in per_step:
            report.add_sequence(0.0, steps)
        return report

    def merge(self, other: "LossReport"):
        self.n_sequences += other.n_sequences
        self.n_targets += other.n_targets
        self.total_nll += other.total_nll
        if len(self.step_totals) < len(other.step_totals):
            pad = len(other.step_totals) - len(self.step_totals)
            self.step_totals.extend([0.0] * pad)
            self.step_counts.extend([0] * pad)
        for idx in range(len(other.step_totals)):
            self.step_totals[idx] += other.step_totals[idx]
            self.step_counts[idx] += other.step_counts[idx]


def sequence_nll(m: ModelSpec, batch: SequenceBatch) -> LossReport:
    """Teacher-forced NLL of a batch, without gradients or dropout."""
    return LossReport.of_batch(*sequence_loss_and_grads(m, batch))


def _sgd_step(m: ModelSpec, batch: SequenceBatch, cfg: TrainConfig, rng) -> LossReport:
    if cfg.frozen:
        unknown = sorted(set(cfg.frozen) - {name for name, _ in m.blocks()})
        if unknown:
            raise ValueError(f"frozen names that are not parameter blocks of this model: {unknown}")
    grads = ModelGrads(m)
    drop = (cfg.dropout, rng) if cfg.dropout > 0.0 else None
    nll, per_step = sequence_loss_and_grads(m, batch, grads, scale=1.0 / len(batch), drop=drop)
    if not np.isfinite(nll):
        bad = [b for b, steps in enumerate(per_step) if not np.isfinite(sum(steps))]
        raise NumericError(f"non-finite loss on sequences {bad} of the batch")
    if cfg.frozen:
        # Assignment, not a multiplying mask: nan * 0.0 stays nan.
        frozen = set(cfg.frozen)
        for name, arr in grads.blocks():
            if name in frozen:
                arr[:] = 0.0
    if not np.isfinite(grads.params).all():
        bad = next(name for name, arr in grads.blocks() if not np.isfinite(arr).all())
        raise NumericError(f"non-finite gradient in parameter block {bad!r}")
    if cfg.clip_norm is not None:
        norm = grads.global_norm()
        if norm > cfg.clip_norm:
            grads.params *= cfg.clip_norm / norm
    with np.errstate(over="ignore", invalid="ignore"):
        update = cfg.lr * grads.params
    if not np.isfinite(update).all():
        raise NumericError(f"the update lr * gradient overflows at lr {cfg.lr!r}")
    m.params -= update
    return LossReport.of_batch(nll, per_step)


def train_epoch(m: ModelSpec, batches, cfg: TrainConfig, rng=None):
    """One pass of SGD over an iterable of SequenceBatch values.

    Returns (m, LossReport); the model is updated in place. The report
    reflects losses measured before each update.
    """
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    report = LossReport()
    for batch in batches:
        report.merge(_sgd_step(m, batch, cfg, rng))
    return m, report


def _clip_frames(ex_input, length, rng):
    if length is None or len(ex_input) <= length:
        return ex_input
    start = int(rng.integers(0, len(ex_input) - length + 1))
    return ex_input[start:start + length]


def fit(m: ModelSpec, examples, cfg: TrainConfig, log=None, stop_fn=None):
    """Run cfg.epochs of shuffled minibatch SGD over raw examples.

    log, when given, receives one text line per epoch (index, mean loss per
    sequence, wall seconds). stop_fn(m, epoch, report) may end training
    early by returning True. Returns (m, reports).
    """
    rng = np.random.default_rng(cfg.seed)
    reports = []
    n = len(examples)
    for epoch in range(cfg.epochs):
        start_time = time.perf_counter()
        order = rng.permutation(n) if cfg.shuffle else np.arange(n)
        epoch_report = LossReport()
        for lo in range(0, n, cfg.batch_size):
            chosen = [examples[i] for i in order[lo:lo + cfg.batch_size]]
            if m.task == "classify" and cfg.clip_len is not None:
                chosen = [LabeledSequence(_clip_frames(ex.frames, cfg.clip_len, rng), ex.label) for ex in chosen]
            batch = SequenceBatch.from_examples(m.task, chosen)
            epoch_report.merge(_sgd_step(m, batch, cfg, rng))
        reports.append(epoch_report)
        if log is not None:
            elapsed = time.perf_counter() - start_time
            log.write(f"epoch {epoch} loss {epoch_report.mean_sequence_nll:.6f} time {elapsed:.3f}s\n")
        if stop_fn is not None and stop_fn(m, epoch, epoch_report):
            break
    return m, reports


# ---------------------------------------------------------------------------
# Gradient checking


@dataclass
class BlockCheck:
    name: str
    max_abs_err: float
    max_rel_err: float
    ok: bool


@dataclass
class GradCheckReport:
    blocks: list
    eps: float
    tol: float
    abs_floor: float

    @property
    def passed(self) -> bool:
        return all(b.ok for b in self.blocks)

    def worst(self) -> BlockCheck | None:
        bad = [b for b in self.blocks if not b.ok]
        pool = bad if bad else list(self.blocks)
        return max(pool, key=lambda b: b.max_rel_err) if pool else None

    def summary(self) -> str:
        lines = []
        for b in self.blocks:
            status = "ok" if b.ok else "FAIL"
            lines.append(f"{status:4s} {b.name:16s} abs {b.max_abs_err:.3e} rel {b.max_rel_err:.3e}")
        return "\n".join(lines)


def gradient_check(m: ModelSpec, batch: SequenceBatch, eps: float = 1e-5, tol: float = 1e-4, abs_floor: float = 1e-7) -> GradCheckReport:
    """Compare analytic parameter gradients against central differences.

    Every element of every parameter block is perturbed by +/-eps. An
    element passes when |analytic - numeric| <= max(abs_floor, tol *
    max(|analytic|, |numeric|)); a block with a non-finite analytic entry
    fails, and a non-finite numeric probe raises NumericError.
    """
    grads = ModelGrads(m)
    sequence_loss_and_grads(m, batch, grads, scale=1.0 / len(batch))
    analytic = dict(grads.blocks())
    checks = []
    for name, arr in m.blocks():
        saved = arr.copy()

        def mean_nll(probe):
            arr[...] = probe
            return sequence_nll(m, batch).total_nll / len(batch)

        try:
            numeric = finite_diff_grad(mean_nll, saved, eps)
        finally:
            arr[...] = saved
        a = analytic[name]
        diff = np.abs(a - numeric)
        denom = np.maximum(np.abs(a), np.abs(numeric))
        ok = bool(np.isfinite(a).all() and np.all(diff <= np.maximum(abs_floor, tol * denom)))
        checks.append(BlockCheck(name, float(diff.max()), float((diff / np.maximum(denom, abs_floor)).max()), ok))
    return GradCheckReport(checks, eps, tol, abs_floor)


# ---------------------------------------------------------------------------
# Small standard configurations exercised by the gradient-check command


GRADCHECK_TOPOLOGIES = (
    "classify",
    "caption_1u",
    "caption_2u",
    "caption_2f",
    "encode_decode",
    "perstep_decode",
)


def build_demo_model(topology: str, seed: int = 0, cell: str = "lstm") -> ModelSpec:
    """A small model of the requested topology with seeded random weights."""
    rng = np.random.default_rng(seed)
    if topology == "classify":
        ext = make_extractor("mlp1", (6,), out_dim=5, rng=rng, hidden_dim=6)
        return build_model("classify", rng=rng, hidden=8, layers=2, cell=cell, extractor=ext, n_classes=4)
    if topology in ("caption_1u", "caption_2u", "caption_2f"):
        vocab = Vocabulary.from_words(["w0", "w1", "w2", "w3"])
        ext = make_extractor("linear", (7,), out_dim=6, rng=rng)
        factored = topology == "caption_2f"
        layers = 1 if topology == "caption_1u" else 2
        return build_model(
            "caption", rng=rng, hidden=8, layers=layers, cell=cell,
            extractor=ext, vocab=vocab, embed_dim=5, factored=factored,
        )
    if topology == "encode_decode":
        vocab = Vocabulary.from_words(["w0", "w1", "w2", "w3"])
        return build_model("encode_decode", rng=rng, hidden=8, layers=1, cell=cell, vocab=vocab, embed_dim=4, input_dim=5)
    if topology == "perstep_decode":
        vocab = Vocabulary.from_words(["w0", "w1", "w2", "w3"])
        return build_model(
            "perstep_decode", rng=rng, hidden=7, layers=2, cell=cell,
            vocab=vocab, embed_dim=4, input_dim=6,
            visual_mode="prob", visual_blocks=(3, 3),
        )
    raise ValueError(f"unknown gradient-check topology {topology!r}")


def build_demo_batch(topology: str, m: ModelSpec, seed: int = 0, n_sequences: int = 3) -> SequenceBatch:
    """Random examples matching :func:`build_demo_model` shapes."""
    rng = np.random.default_rng(seed + 1)

    def random_tokens():
        n = int(rng.integers(2, 5))
        words = [int(t) for t in rng.integers(0, m.vocab.size - 2, size=n)]
        return tuple(words) + (m.vocab.eos,)

    examples = []
    for _ in range(n_sequences):
        if topology == "classify":
            t = int(rng.integers(2, 6))
            frames = rng.uniform(-1.0, 1.0, size=(t,) + m.extractor.input_shape)
            examples.append(LabeledSequence(frames, int(rng.integers(0, m.prediction.n_out))))
        elif topology.startswith("caption"):
            image = rng.uniform(-1.0, 1.0, size=m.extractor.input_shape)
            examples.append(CaptionPair(image, random_tokens()))
        elif topology == "encode_decode":
            t = int(rng.integers(2, 6))
            examples.append(SeqPair(rng.uniform(-1.0, 1.0, size=(t, m.input_dim)), random_tokens()))
        else:
            blocks = []
            for width in m.visual_blocks:
                raw = rng.uniform(0.1, 1.0, size=width)
                blocks.append(raw / raw.sum())
            examples.append(CaptionPair(np.concatenate(blocks), random_tokens()))
    task = "caption" if topology.startswith("caption") else topology
    if topology == "perstep_decode":
        task = "perstep_decode"
    return SequenceBatch.from_examples(task, examples)


def run_standard_gradcheck(topology: str, seed: int = 0, eps: float = 1e-5, tol: float = 1e-4, cell: str = "lstm") -> GradCheckReport:
    """Gradient-check one of the standard small topologies."""
    m = build_demo_model(topology, seed=seed, cell=cell)
    batch = build_demo_batch(topology, m, seed=seed)
    return gradient_check(m, batch, eps=eps, tol=tol)
