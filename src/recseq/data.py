"""Synthetic task generators, on-disk formats, and batch assembly.

Text formats (all UTF-8, newline terminated lines):

  token corpus     one sequence per line, tokens separated by single spaces;
                   no token is empty, holds whitespace or is <bos>/<eos>
  feature file     header line "dims d", then one d-vector per line with
                   space-separated float literals (repr round-trip exact)
  pair manifest    lines "feature_row<TAB>caption_line" (0-based indices)
  window manifest  lines "feature_file<TAB>start<TAB>length<TAB>label"
                   describing a row range of a feature file plus an id

Parsers reject malformed content with the offending 1-based line number.

Synthetic datasets are written as a directory holding a meta.txt of
key=value pairs plus the files above; see :func:`save_task_dir`.
"""

from __future__ import annotations

import math
import os
import tempfile
from dataclasses import dataclass

import numpy as np

from .errors import DataFormatError
from .models import BOS_TOKEN, EOS_TOKEN, Vocabulary
from .tensor_ops import as_f64

__all__ = [
    "LabeledSequence",
    "CaptionPair",
    "SeqPair",
    "SequenceBatch",
    "flow_to_image",
    "gen_copy_task",
    "gen_toy_captioning",
    "gen_order_task",
    "gen_lag_recall",
    "save_tokens",
    "load_tokens",
    "save_features",
    "load_features",
    "save_pairs",
    "load_pairs",
    "save_windows",
    "load_windows",
    "load_dataset",
    "save_task_dir",
    "load_task_dir",
    "parse_kv",
    "load_kv",
    "atomic_write_text",
    "atomic_write_bytes",
]

COLOR_WORDS = ("red", "green", "blue", "yellow", "purple", "orange", "black", "white")
SHAPE_WORDS = ("circle", "square", "triangle", "star", "hexagon", "diamond", "cross", "ring")


@dataclass(frozen=True)
class LabeledSequence:
    """Frames of one classification example plus its class id."""

    frames: np.ndarray
    label: int


@dataclass(frozen=True)
class CaptionPair:
    """A static input with its gold token sequence (ending in EOS)."""

    image: np.ndarray
    tokens: tuple


@dataclass(frozen=True)
class SeqPair:
    """An input vector sequence with its gold output token sequence."""

    inputs: np.ndarray
    targets: tuple


def example_tuple(ex):
    """The (input, target) pair consumed by the loss functions."""
    if isinstance(ex, tuple):
        return ex
    if isinstance(ex, LabeledSequence):
        return ex.frames, ex.label
    if isinstance(ex, CaptionPair):
        return ex.image, ex.tokens
    return ex.inputs, ex.targets


# task -> (inputs are sequences, targets are sequences)
_BATCH_LAYOUT = {
    "classify": (True, False),
    "caption": (False, True),
    "perstep_decode": (False, True),
    "encode_decode": (True, True),
}


def _pad(rows, dtype):
    """Zero-padded (B, L, ...) array of variable-length rows plus the lengths."""
    lengths = np.array([len(r) for r in rows], dtype=np.int64)
    out = np.zeros((len(rows), int(lengths.max())) + np.shape(rows[0])[1:], dtype=dtype)
    for b, row in enumerate(rows):
        out[b, : len(row)] = row
    return out, lengths


class SequenceBatch:
    """A padded batch with explicit lengths.

    ``inputs`` is (B, T, d) for sequential tasks or (B, d) for static ones;
    ``targets`` is (B,) class ids or (B, L) padded token ids. Padded slots
    hold zeros and are excluded from loss and gradients by construction.
    """

    def __init__(self, task, inputs, targets, input_lengths=None, target_lengths=None):
        self.task = task
        self.inputs = as_f64(inputs)
        self.targets = np.asarray(targets)
        self.input_lengths = None if input_lengths is None else np.asarray(input_lengths, dtype=np.int64)
        self.target_lengths = None if target_lengths is None else np.asarray(target_lengths, dtype=np.int64)
        self.size = self.inputs.shape[0]

    @classmethod
    def from_examples(cls, task, examples):
        if not examples:
            raise ValueError("cannot batch zero examples")
        if task not in _BATCH_LAYOUT:
            raise ValueError(f"unknown task {task!r}")
        seq_in, seq_out = _BATCH_LAYOUT[task]
        xs, ys = zip(*(example_tuple(e) for e in examples))
        inputs, in_len = _pad(xs, np.float64) if seq_in else (np.stack([as_f64(x) for x in xs]), None)
        targets, out_len = _pad(ys, np.int64) if seq_out else (np.array(ys, dtype=np.int64), None)
        return cls(task, inputs, targets, input_lengths=in_len, target_lengths=out_len)

    def example(self, b):
        """The b-th example as the loss-function input tuple."""
        x = self.inputs[b] if self.input_lengths is None else self.inputs[b, : self.input_lengths[b]]
        if self.target_lengths is None:
            return x, int(self.targets[b])
        return x, tuple(int(t) for t in self.targets[b, : self.target_lengths[b]])

    def __getitem__(self, rows):
        """The examples ``rows`` (a slice) as a batch keeping this one's padding."""
        cut = [None if a is None else a[rows] for a in (self.input_lengths, self.target_lengths)]
        return SequenceBatch(self.task, self.inputs[rows], self.targets[rows], *cut)

    def __len__(self):
        return self.size


def flow_to_image(flow: np.ndarray, scale: float = 16.0) -> np.ndarray:
    """Render a 2-channel optical-flow field as a 3-channel flow image.

    Channels 1 and 2 are the flow components scaled by ``scale``, rounded,
    and saturated at +/-128. Channel 3 applies the same transform to the
    magnitude of the original (unscaled) flow.
    """
    flow = as_f64(flow)
    if flow.shape[0] != 2:
        raise ValueError(f"flow field must have 2 leading channels, got shape {flow.shape}")
    mag = np.sqrt(flow[0] ** 2 + flow[1] ** 2)
    stacked = np.stack([flow[0], flow[1], mag])
    return np.clip(np.round(scale * stacked), -128.0, 128.0)


def _at_least(minimum, **sizes):
    """Refuse a generator size below ``minimum``, naming the parameter."""
    for name, value in sizes.items():
        if value < minimum:
            raise ValueError(f"{name} must be at least {minimum}, got {value}")


def _one_hot(idx, width):
    v = np.zeros(width)
    v[idx] = 1.0
    return v


def gen_copy_task(seed: int, vocab_size: int, seq_len: int, count: int):
    """Symbol sequences to be reproduced verbatim, then terminated.

    Inputs are one-hot rows over the symbol alphabet; targets are the same
    symbols as token ids followed by EOS. Returns (examples, vocabulary).
    """
    _at_least(1, vocab_size=vocab_size, seq_len=seq_len)
    _at_least(0, count=count)
    rng = np.random.default_rng(seed)
    vocab = Vocabulary.from_words([f"s{i}" for i in range(vocab_size)])
    examples = []
    for _ in range(count):
        syms = rng.integers(0, vocab_size, size=seq_len)
        inputs = np.zeros((seq_len, vocab_size))
        inputs[np.arange(seq_len), syms] = 1.0
        targets = tuple(int(s) for s in syms) + (vocab.eos,)
        examples.append(SeqPair(inputs, targets))
    return examples, vocab


def _attribute_words(prefix, names, n):
    if n <= len(names):
        return list(names[:n])
    return list(names) + [f"{prefix}{i}" for i in range(len(names), n)]


def gen_toy_captioning(seed: int, count: int, n_colors: int = 8, n_shapes: int = 8, noise: float = 0.0):
    """Attribute-vector images described by "<color> <shape>" captions.

    Images are the concatenation of a color one-hot and a shape one-hot
    plus optional Gaussian noise. While count does not exceed the number of
    distinct attribute combinations, combinations are sampled without
    replacement so every caption in the set is unique.
    """
    _at_least(1, n_colors=n_colors, n_shapes=n_shapes)
    _at_least(0, count=count)
    if not (math.isfinite(noise) and noise >= 0.0):
        raise ValueError(f"noise must be finite and at least 0, got {noise!r}")
    rng = np.random.default_rng(seed)
    colors = _attribute_words("color", COLOR_WORDS, n_colors)
    shapes = _attribute_words("shape", SHAPE_WORDS, n_shapes)
    vocab = Vocabulary.from_words(colors + shapes)
    combos = [(c, s) for c in range(n_colors) for s in range(n_shapes)]
    if count <= len(combos):
        order = rng.permutation(len(combos))[:count]
        chosen = [combos[i] for i in order]
    else:
        chosen = [combos[i] for i in rng.integers(0, len(combos), size=count)]
    pairs = []
    for c, s in chosen:
        image = np.concatenate([_one_hot(c, n_colors), _one_hot(s, n_shapes)])
        if noise > 0.0:
            image = image + noise * rng.standard_normal(image.shape)
        tokens = (c, n_colors + s, vocab.eos)
        pairs.append(CaptionPair(image, tokens))
    return pairs, vocab


def gen_order_task(seed: int, count: int, seq_len: int = 8, n_fillers: int = 4):
    """Binary temporal-order task: does marker A appear before marker B?

    Each sequence contains the two markers exactly once at random distinct
    positions, with filler symbols elsewhere. Label 1 means A precedes B.
    Frame contents are one-hot vectors whose per-class marginal
    distributions are identical, so any model that ignores order cannot
    beat chance. Returns (examples, n_classes).
    """
    _at_least(2, seq_len=seq_len)  # two markers
    _at_least(1, n_fillers=n_fillers)
    _at_least(0, count=count)
    rng = np.random.default_rng(seed)
    width = 2 + n_fillers
    examples = []
    for _ in range(count):
        label = int(rng.integers(0, 2))
        pos = rng.choice(seq_len, size=2, replace=False)
        i, j = int(pos.min()), int(pos.max())
        frames = np.zeros((seq_len, width))
        for t in range(seq_len):
            if t == i:
                frames[t, 0 if label == 1 else 1] = 1.0
            elif t == j:
                frames[t, 1 if label == 1 else 0] = 1.0
            else:
                frames[t, 2 + int(rng.integers(0, n_fillers))] = 1.0
        examples.append(LabeledSequence(frames, label))
    return examples, 2


def gen_lag_recall(seed: int, count: int, vocab_size: int = 4, lag: int = 8, span: int = 8):
    """Recall the symbol observed ``lag`` steps before the prediction step.

    Each example is a one-hot symbol sequence whose length varies uniformly
    over [lag + 1, lag + 1 + span]; the target is the symbol seen exactly
    ``lag`` recurrent updates before the first prediction step, followed by
    EOS. Because the sequence end is unknown in advance, solving the task
    requires carrying a running lag-deep buffer of recent symbols rather
    than latching one fixed position. Returns (examples, vocabulary).
    """
    _at_least(1, vocab_size=vocab_size)
    _at_least(0, count=count, lag=lag, span=span)
    rng = np.random.default_rng(seed)
    vocab = Vocabulary.from_words([f"s{i}" for i in range(vocab_size)])
    examples = []
    for _ in range(count):
        extra = int(rng.integers(0, span + 1))
        seq_len = lag + 1 + extra
        syms = rng.integers(0, vocab_size, size=seq_len)
        inputs = np.zeros((seq_len, vocab_size))
        inputs[np.arange(seq_len), syms] = 1.0
        # The first emission happens while frame seq_len-1 is consumed, so
        # the symbol lag steps before it sits at index seq_len-1-lag.
        targets = (int(syms[seq_len - 1 - lag]), vocab.eos)
        examples.append(SeqPair(inputs, targets))
    return examples, vocab


# ---------------------------------------------------------------------------
# File formats


def atomic_write_text(path, text: str):
    """Write a file via a temp name and rename, so readers never see halves."""
    atomic_write_bytes(path, text.encode("utf-8"))


def atomic_write_bytes(path, data: bytes):
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=os.path.basename(path))
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_tokens(path, sequences):
    """Write a token corpus, one space-separated sequence per line.

    Refuses what :func:`load_tokens` refuses: an empty sequence, an empty
    token, a token holding whitespace and the reserved markers.
    """
    lines = []
    for i, seq in enumerate(sequences):
        seq = list(seq)
        if not seq:
            raise ValueError(f"token sequence {i} is empty")
        for t in seq:
            if not t or any(ch.isspace() for ch in t) or t in (BOS_TOKEN, EOS_TOKEN):
                raise ValueError(f"token sequence {i} holds {t!r}: a token is non-empty, has no whitespace"
                                 f" and is not {BOS_TOKEN!r} or {EOS_TOKEN!r}")
        lines.append(" ".join(seq))
    atomic_write_text(path, "\n".join(lines) + "\n")


def _lines(path):
    """(1-based number, line) of each line of a UTF-8 text file."""
    try:
        with open(path, encoding="utf-8") as fh:
            yield from enumerate(fh, start=1)
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"not UTF-8 text ({exc.reason})", path=path) from None


def load_tokens(path):
    """Read a token corpus. Returns a list of token-string lists.

    An empty token (two spaces in a row, or a space at either end), a token
    holding other whitespace, and the reserved markers are refused.
    """
    out = []
    for lineno, line in _lines(path):
        line = line.rstrip("\n")
        if not line.strip():
            raise DataFormatError("empty sequence", path=path, line=lineno)
        words = line.split(" ")
        if words != line.split():
            raise DataFormatError("empty token, or whitespace other than single spaces", path=path, line=lineno)
        for marker in (BOS_TOKEN, EOS_TOKEN):
            if marker in words:
                raise DataFormatError(f"token {marker!r} is a reserved marker", path=path, line=lineno)
        out.append(words)
    return out


def save_features(path, array):
    """Write a feature matrix with a "dims d" header.

    Values are written with repr so they reload bit-exactly.
    """
    array = as_f64(array)
    if array.ndim != 2:
        raise ValueError(f"feature files hold 2-D matrices, got shape {array.shape}")
    lines = [f"dims {array.shape[1]}"]
    for row in array:
        lines.append(" ".join(repr(float(v)) for v in row))
    atomic_write_text(path, "\n".join(lines) + "\n")


def load_features(path) -> np.ndarray:
    lines = _lines(path)
    header = next(lines, (1, ""))[1].rstrip("\n")
    parts = header.split()
    if len(parts) != 2 or parts[0] != "dims":
        raise DataFormatError(f"expected 'dims d' header, got {header!r}", path=path, line=1)
    try:
        dim = int(parts[1])
    except ValueError:
        raise DataFormatError(f"bad dimension {parts[1]!r}", path=path, line=1) from None
    if dim < 1:
        raise DataFormatError(f"bad dimension {dim}", path=path, line=1)
    rows = []
    for lineno, line in lines:
        fields = line.split()
        if len(fields) != dim:
            raise DataFormatError(f"expected {dim} values, found {len(fields)}", path=path, line=lineno)
        try:
            rows.append([float(v) for v in fields])
        except ValueError:
            raise DataFormatError("unparseable float", path=path, line=lineno) from None
    out = np.array(rows, dtype=np.float64).reshape(len(rows), dim)
    finite = np.isfinite(out).all(axis=1)
    if not finite.all():
        raise DataFormatError("non-finite value (nan or inf)", path=path, line=int(np.argmin(finite)) + 2)
    return out


def save_pairs(path, pairs):
    """Write a pairing manifest of (feature row, caption line) indices."""
    lines = [f"{int(a)}\t{int(b)}" for a, b in pairs]
    atomic_write_text(path, "\n".join(lines) + "\n")


def load_pairs(path):
    out = []
    for lineno, line in _lines(path):
        fields = line.rstrip("\n").split("\t")
        if len(fields) != 2:
            raise DataFormatError(f"expected 2 tab-separated fields, found {len(fields)}", path=path, line=lineno)
        try:
            out.append((int(fields[0]), int(fields[1])))
        except ValueError:
            raise DataFormatError("unparseable index", path=path, line=lineno) from None
    return out


def save_windows(path, rows):
    """Write a window manifest of (feature file, start, length, label)."""
    lines = [f"{name}\t{int(s)}\t{int(n)}\t{int(lab)}" for name, s, n, lab in rows]
    atomic_write_text(path, "\n".join(lines) + "\n")


def load_windows(path):
    out = []
    for lineno, line in _lines(path):
        fields = line.rstrip("\n").split("\t")
        if len(fields) != 4:
            raise DataFormatError(f"expected 4 tab-separated fields, found {len(fields)}", path=path, line=lineno)
        name = fields[0]
        try:
            start, length, label = int(fields[1]), int(fields[2]), int(fields[3])
        except ValueError:
            raise DataFormatError("unparseable integer field", path=path, line=lineno) from None
        if not name:
            raise DataFormatError("empty feature file name", path=path, line=lineno)
        if start < 0 or length < 1:
            raise DataFormatError(f"bad window [{start}, {start + length})", path=path, line=lineno)
        out.append((name, start, length, label))
    return out


_LOADERS = {
    "tokens": load_tokens,
    "features": load_features,
    "pairs": load_pairs,
    "windows": load_windows,
}


def load_dataset(path, kind):
    """Load one data file by format name.

    kind is one of "tokens", "features", "pairs", "windows".
    """
    try:
        loader = _LOADERS[kind]
    except KeyError:
        raise ValueError(f"unknown dataset kind {kind!r}") from None
    return loader(path)


def parse_kv(text, path=None):
    """Parse flat key=value lines; '#' starts a comment line."""
    out = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise DataFormatError(f"expected key=value, got {stripped!r}", path=path, line=lineno)
        key, value = stripped.split("=", 1)
        key = key.strip()
        if not key:
            raise DataFormatError("empty key", path=path, line=lineno)
        out[key] = value.strip()
    return out


def load_kv(path):
    return parse_kv("".join(line for _, line in _lines(path)), path=path)


# ---------------------------------------------------------------------------
# Task dataset directories


# task -> (feature file, token file or None) of the windowed layout: the
# rows of one feature file plus windows.tsv, whose id column holds the label
# or the line of the target in the token file.
_WINDOWED = {"classify": ("frames.txt", None), "encode_decode": ("inputs.txt", "targets.txt")}


def _save_frames(path, info, frames):
    """Write (rows, *frame_shape) frames as a feature matrix; a frame of
    more than one axis records its shape as ``frame_shape`` in ``info``."""
    if frames.ndim > 2:
        info["frame_shape"] = ",".join(str(d) for d in frames.shape[1:])
    save_features(path, np.reshape(frames, (len(frames), -1)))


def _load_frames(path, meta, meta_path) -> np.ndarray:
    """Rows of a feature file, reshaped to the meta file's ``frame_shape`` if it has one."""
    rows = load_features(path)
    if "frame_shape" in meta:
        try:
            frame_shape = tuple(int(d) for d in meta["frame_shape"].split(","))
        except ValueError:
            frame_shape = ()
        # At most 31 frame axes: numpy before 2.0 holds 32 axes, one of them the rows.
        if not 0 < len(frame_shape) < 32 or min(frame_shape) < 1 or math.prod(frame_shape) != rows.shape[1]:
            raise DataFormatError(f"frame_shape={meta['frame_shape']} does not fit rows of {rows.shape[1]} values",
                                  path=meta_path)
        rows = rows.reshape((len(rows),) + frame_shape)
    return rows


def save_task_dir(directory, task, examples, vocab: Vocabulary | None = None, meta=None):
    """Write a generated dataset as a directory of the standard formats."""
    if not examples:
        raise ValueError("no examples")
    os.makedirs(directory, exist_ok=True)
    info = {"task": task, "count": str(len(examples))}
    if meta:
        info.update({k: str(v) for k, v in meta.items()})
    if task == "caption":
        _save_frames(os.path.join(directory, "images.txt"), info, np.stack([ex.image for ex in examples]))
        captions = [vocab.decode(ex.tokens[:-1]) for ex in examples]
        save_tokens(os.path.join(directory, "captions.txt"), captions)
        save_pairs(os.path.join(directory, "pairs.tsv"), [(i, i) for i in range(len(examples))])
    elif task in _WINDOWED:
        feature_file, token_file = _WINDOWED[task]
        xs, ys = zip(*(example_tuple(ex) for ex in examples))
        _save_frames(os.path.join(directory, feature_file), info, np.concatenate(xs))
        if token_file is not None:
            save_tokens(os.path.join(directory, token_file), [vocab.decode(y[:-1]) for y in ys])
            ys = range(len(ys))
        starts = np.cumsum([0] + [len(x) for x in xs])
        save_windows(os.path.join(directory, "windows.tsv"), [
            (feature_file, start, len(x), y) for start, x, y in zip(starts, xs, ys)
        ])
    else:
        raise ValueError(f"cannot save datasets for task {task!r}")
    meta_lines = [f"{k}={v}" for k, v in sorted(info.items())]
    atomic_write_text(os.path.join(directory, "meta.txt"), "\n".join(meta_lines) + "\n")


def _corpus_vocab(sequences) -> Vocabulary:
    """Deterministic vocabulary from a corpus: sorted unique content words."""
    words = sorted({w for seq in sequences for w in seq})
    return Vocabulary.from_words(words)


def load_task_dir(directory):
    """Load a dataset directory. Returns (task, examples, vocab_or_classes).

    The third element is a Vocabulary for token tasks and the class count
    for classification.
    """
    meta_path = os.path.join(directory, "meta.txt")
    meta = load_kv(meta_path)
    task = meta.get("task")
    if task == "caption":
        images = _load_frames(os.path.join(directory, "images.txt"), meta, meta_path)
        captions = load_tokens(os.path.join(directory, "captions.txt"))
        pairs = load_pairs(os.path.join(directory, "pairs.tsv"))
        if not pairs:
            raise DataFormatError("no examples", path=os.path.join(directory, "pairs.tsv"))
        vocab = _corpus_vocab(captions)
        examples = []
        for row, line in pairs:
            if not 0 <= row < len(images):
                raise DataFormatError(f"feature row {row} out of range", path=os.path.join(directory, "pairs.tsv"))
            if not 0 <= line < len(captions):
                raise DataFormatError(f"caption line {line} out of range", path=os.path.join(directory, "pairs.tsv"))
            toks = tuple(vocab.encode(captions[line])) + (vocab.eos,)
            examples.append(CaptionPair(images[row], toks))
        return task, examples, vocab
    if task not in _WINDOWED:
        raise DataFormatError(f"unknown task {task!r} in meta.txt", path=meta_path)
    feature_file, token_file = _WINDOWED[task]
    rows = _load_frames(os.path.join(directory, feature_file), meta, meta_path)
    manifest_path = os.path.join(directory, "windows.tsv")
    windows = []
    for _, start, length, ident in load_windows(manifest_path):
        if start + length > len(rows):
            raise DataFormatError(f"window [{start}, {start + length}) exceeds {len(rows)} rows", path=manifest_path)
        windows.append((rows[start:start + length], ident))
    if not windows:
        raise DataFormatError("no examples", path=manifest_path)
    if token_file is None:
        try:
            n_classes = int(meta.get("classes", max(label for _, label in windows) + 1))
        except ValueError:
            raise DataFormatError(f"bad classes={meta['classes']!r}", path=meta_path) from None
        for _, label in windows:
            if not 0 <= label < n_classes:
                raise DataFormatError(f"label {label} outside [0, {n_classes})", path=manifest_path)
        return task, [LabeledSequence(x, label) for x, label in windows], n_classes
    targets = load_tokens(os.path.join(directory, token_file))
    vocab = _corpus_vocab(targets)
    examples = []
    for x, idx in windows:
        if not 0 <= idx < len(targets):
            raise DataFormatError(f"target line {idx} out of range", path=manifest_path)
        examples.append(SeqPair(x, tuple(vocab.encode(targets[idx])) + (vocab.eos,)))
    return task, examples, vocab
