"""Binary model checkpoints with bit-exact round trips.

Layout (all integers little endian):

    magic      8 bytes  b"RSEQCKPT"
    version    u32
    header_len u64
    header     header_len bytes of UTF-8 JSON (sorted keys)
    n_blocks   u64
    blocks     repeated: name_len u64, name bytes, ndim u64,
               ndim dims as u64, then the float64 payload in C order

The header describes how to rebuild the model (topology, vocabulary,
extractor configuration) plus a step counter and, optionally, the training
generator state, so a run can resume exactly. Nothing time or host
dependent is written: saving the same model twice produces identical
bytes.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass

import numpy as np

from .data import atomic_write_bytes
from .errors import DataFormatError, NumericError
from .features import make_extractor
from .models import ModelSpec, Vocabulary, build_model

__all__ = ["MAGIC", "VERSION", "CheckpointBundle", "save_checkpoint", "load_checkpoint"]

MAGIC = b"RSEQCKPT"
VERSION = 1


@dataclass
class CheckpointBundle:
    """What a checkpoint file restores."""

    model: ModelSpec
    step: int
    rng: np.random.Generator | None


def _describe_extractor(ext):
    if ext is None:
        return None
    d = {"variant": ext.variant, "input_shape": list(ext.input_shape)}
    if ext.variant != "identity":
        d["out_dim"] = ext.out_dim
    if ext.variant == "mlp1":
        d["hidden_dim"] = ext.hidden_dim
    elif ext.variant == "smallconv":
        d["n_filters"] = ext.n_filters
        d["kernel_size"] = ext.kernel_size
    return d


def _rng_state(rng):
    if rng is None:
        return None
    # A plain dict of ints and strings; JSON keeps the wide integers exact.
    return rng.bit_generator.state


def _describe_model(m: ModelSpec, step: int, rng) -> dict:
    return {
        "task": m.task,
        "cell": m.cell_kind,
        "rnn_nonlinearity": None if m.cell_kind == "lstm" else m.cells[0].nonlinearity,
        "hidden": m.hidden,
        "layer_input_dims": [c.n_input for c in m.cells],
        "factored": m.factored,
        "inject_layer": m.inject_layer,
        "input_dim": m.input_dim,
        "visual_mode": m.visual_mode,
        "visual_blocks": None if m.visual_blocks is None else list(m.visual_blocks),
        "n_out": m.prediction.n_out,
        "vocab": None if m.vocab is None else m.vocab.to_dict(),
        "embed_dim": None if m.embedding is None else m.embedding.dim,
        "extractor": _describe_extractor(m.extractor),
        "step": int(step),
        "rng_state": _rng_state(rng),
    }


# The JSON types each header field may hold; only step and rng_state may be absent.
_FIELD_TYPES = {
    "task": (str,), "cell": (str,), "rnn_nonlinearity": (str, type(None)), "hidden": (int,),
    "layer_input_dims": (list,), "factored": (bool,), "inject_layer": (int, type(None)),
    "input_dim": (int, type(None)), "visual_mode": (str, type(None)), "visual_blocks": (list, type(None)),
    "n_out": (int,), "vocab": (dict, type(None)), "embed_dim": (int, type(None)),
    "extractor": (dict, type(None)), "step": (int,), "rng_state": (dict, type(None)),
}


def _check_fields(header):
    """Every header field is present (or may be absent) and holds its JSON type."""
    if type(header) is not dict:
        raise ValueError("the header is not a JSON object")
    for name, types in _FIELD_TYPES.items():
        if name not in header:
            if name not in ("step", "rng_state"):
                raise ValueError(f"header field {name!r} is missing")
        elif type(header[name]) not in types:
            raise ValueError(f"header field {name!r} has the wrong type ({type(header[name]).__name__})")


def _parse(header, name, parse):
    """``parse(header[name])``, with a failure reported under the field's name."""
    try:
        return None if header.get(name) is None else parse(header[name])
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise ValueError(f"header field {name!r} is malformed ({type(exc).__name__}: {exc})") from None


def _make_extractor(d, rng):
    """The extractor a header's extractor field describes."""
    options = {k: v for k, v in d.items() if k in ("hidden_dim", "n_filters", "kernel_size")}
    return make_extractor(d["variant"], tuple(d["input_shape"]), out_dim=d.get("out_dim"), rng=rng, **options)


def _rebuild_model(header: dict) -> ModelSpec:
    """Build the described model; its placeholder weights are all overwritten."""
    _check_fields(header)
    rng = np.random.default_rng(0)
    m = build_model(
        header["task"], rng=rng, hidden=header["hidden"], layers=len(header["layer_input_dims"]),
        cell=header["cell"], rnn_nonlinearity=header["rnn_nonlinearity"], n_classes=header["n_out"],
        extractor=_parse(header, "extractor", lambda d: _make_extractor(d, rng)),
        vocab=_parse(header, "vocab", Vocabulary.from_dict),
        **{k: header[k] for k in ("embed_dim", "input_dim", "factored", "visual_mode", "visual_blocks")},
    )
    described = _describe_model(m, 0, None)
    wrong = sorted(k for k in described if k not in ("step", "rng_state") and described[k] != header[k])
    if wrong:
        raise ValueError(f"header fields {wrong} do not describe the model they build")
    return m


def _restore_rng(state):
    """The training generator a header's rng_state describes."""
    rng = np.random.default_rng()
    rng.bit_generator.state = {
        "bit_generator": state["bit_generator"],
        "state": {k: int(v) for k, v in state["state"].items()},
        "has_uint32": int(state["has_uint32"]),
        "uinteger": int(state["uinteger"]),
    }
    return rng


def save_checkpoint(path, m: ModelSpec, step: int = 0, rng: np.random.Generator | None = None):
    """Write the model (and optional training state) to ``path`` atomically."""
    if not np.isfinite(m.params).all():
        bad = next(name for name, arr in m.blocks() if not np.isfinite(arr).all())
        raise NumericError(f"refusing to save non-finite parameters (block {bad!r})")
    header = json.dumps(_describe_model(m, step, rng), sort_keys=True, separators=(",", ":")).encode("utf-8")
    blocks = m.blocks()
    parts = [MAGIC, struct.pack("<I", VERSION), struct.pack("<Q", len(header)), header]
    parts.append(struct.pack("<Q", len(blocks)))
    for name, arr in blocks:
        encoded = name.encode("utf-8")
        parts.append(struct.pack("<Q", len(encoded)))
        parts.append(encoded)
        parts.append(struct.pack("<Q", arr.ndim))
        parts.append(struct.pack(f"<{arr.ndim}Q", *arr.shape))
        parts.append(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    atomic_write_bytes(path, b"".join(parts))


class _Reader:
    def __init__(self, data: bytes, path):
        self.data = data
        self.path = path
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise DataFormatError("truncated checkpoint", path=self.path)
        out = self.data[self.pos:self.pos + n]
        self.pos += n
        return out

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def u64(self) -> int:
        return struct.unpack("<Q", self.take(8))[0]


def load_checkpoint(path) -> CheckpointBundle:
    """Read a checkpoint and rebuild the model it describes."""
    with open(path, "rb") as fh:
        data = fh.read()
    r = _Reader(data, path)
    if r.take(len(MAGIC)) != MAGIC:
        raise DataFormatError("not a checkpoint file (bad magic)", path=path)
    version = r.u32()
    if version != VERSION:
        raise DataFormatError(f"unsupported checkpoint version {version}", path=path)
    try:
        header = json.loads(r.take(r.u64()).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DataFormatError(f"bad checkpoint header: {exc}", path=path) from None
    try:
        m = _rebuild_model(header)
        step, rng = header.get("step", 0), _parse(header, "rng_state", _restore_rng)
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise DataFormatError(f"bad model description: {exc}", path=path) from None

    views = dict(m.blocks())
    seen = set()
    for _ in range(r.u64()):
        name = r.take(r.u64()).decode("utf-8", errors="replace")
        shape = tuple(r.u64() for _ in range(r.u64()))
        if name not in views:
            raise DataFormatError(f"unexpected parameter block {name!r}", path=path)
        if views[name].shape != shape:
            raise DataFormatError(
                f"block {name!r} has shape {shape}, model expects {views[name].shape}", path=path,
            )
        # The size comes from the model's own block, never from the file's
        # dimensions, and take() checks it against the bytes left.
        np.copyto(views[name], np.frombuffer(r.take(8 * views[name].size), dtype="<f8").reshape(shape))
        if not np.isfinite(views[name]).all():
            raise DataFormatError(f"block {name!r} holds non-finite values", path=path)
        seen.add(name)
    missing = [n for n in views if n not in seen]
    if missing:
        raise DataFormatError(f"missing parameter blocks: {missing}", path=path)
    if r.pos != len(data):
        raise DataFormatError("trailing bytes after checkpoint payload", path=path)
    return CheckpointBundle(m, step, rng)
