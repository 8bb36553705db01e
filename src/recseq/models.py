"""Task models wiring feature extractors, recurrent stacks and output layers.

Three families of sequence problems share one recurrent core:

  classify        sequential input, one label. Every frame is mapped by the
                  extractor, pushed through the stack, and scored; the
                  per-step class distributions are averaged (late fusion).
  caption         static input, sequential output. The image feature is
                  duplicated at every step and combined with the embedded
                  previous token. With ``factored=True`` (two layers) the
                  embedding feeds layer 1 alone and the image feature is
                  concatenated onto the input of layer 2, so the first
                  layer's state is conditionally independent of the image.
  encode_decode   sequential input, sequential output, run as one shared
                  stacked recurrence. The first T steps consume the input
                  vectors; from step T onward the embedded previous output
                  token takes over (begin-of-sequence at step T, where the
                  final input vector is still present), and predictions are
                  emitted until end-of-sequence. Emitting T' tokens costs
                  T + T' - 1 steps.
  perstep_decode  caption wiring where the static visual vector is a
                  precomputed per-class score block (hard one-hot blocks or
                  probability blocks that must each sum to one).

The slot of a token task (the visual vector, or the encoder-decoder's input
vector) enters the recurrence through the engine's ``inject``, joined after
the embedded token: at layer 2 of a factored model, else at layer 1, whose
input is then [embedded token, slot].

Training-time losses are teacher forced: the gold previous token is fed at
every step regardless of what the model would have predicted. Every task
compiles a minibatch into one time-major plan (layer-1 inputs padded on the
right, injected vectors, targets with -1 where nothing is emitted, previous
tokens, extractor scatter) that a single loss body runs through the
recurrence engine. Retrieval scores an images x captions grid: the layers
below the slot layer never see the visual vector, so they run once per
caption, and only the layers from the slot layer up run once per pair.
The loss and the scorer share one output-layer block loop. A model's
parameters are one float64 vector; the named blocks are views of it.
"""

from __future__ import annotations

import copy

import numpy as np

from .cells import LstmCellParams, RecurrentState, RnnCellParams, _unroll, _unroll_backward
from .features import phi_backward, phi_forward
from .tensor_ops import NamedParams, as_f64, log_softmax, softmax, uniform_fan_in

__all__ = [
    "BOS_TOKEN",
    "EOS_TOKEN",
    "UNK_TOKEN",
    "Vocabulary",
    "EmbeddingParams",
    "PredictionParams",
    "ModelSpec",
    "ModelGrads",
    "build_model",
    "embed",
    "initial_state",
    "classify_sequence",
    "caption_step",
    "caption_log_likelihood",
    "encode_decode",
    "perstep_decode_step",
    "make_stepper",
    "sequence_loss_and_grads",
]

BOS_TOKEN = "<bos>"
EOS_TOKEN = "<eos>"
UNK_TOKEN = "<unk>"

TASKS = ("classify", "caption", "encode_decode", "perstep_decode")
SIMPLEX_TOL = 1e-6
# Padded steps per engine pass (its sequences times the longest of them;
# a pass always holds at least one sequence) and logits per block of
# emitting steps in the batched loss: together they keep its working memory
# within a few MB whatever the batch size and vocabulary. Every training
# batch of at most 16 sequences of up to 32 steps runs as one pass.
_PASS_STEPS = 512
_LOGIT_BLOCK = 2 ** 15


class Vocabulary:
    """An ordered token inventory with begin/end markers.

    Token strings must be unique and contain no whitespace (corpora are
    stored one sequence per line, space separated).
    """

    def __init__(self, tokens, bos: int, eos: int, unk: int | None = None):
        tokens = tuple(str(t) for t in tokens)
        if len(set(tokens)) != len(tokens):
            raise ValueError("vocabulary tokens must be unique")
        for t in tokens:
            if not t or any(ch.isspace() for ch in t):
                raise ValueError(f"token {t!r} is empty or contains whitespace")
        for name, idx in (("bos", bos), ("eos", eos)):
            if not 0 <= idx < len(tokens):
                raise ValueError(f"{name} index {idx} out of range")
        if unk is not None and not 0 <= unk < len(tokens):
            raise ValueError(f"unk index {unk} out of range")
        self.tokens = tokens
        self._ids = {t: i for i, t in enumerate(tokens)}
        self.bos = int(bos)
        self.eos = int(eos)
        self.unk = None if unk is None else int(unk)

    @classmethod
    def from_words(cls, words, with_unk: bool = False) -> "Vocabulary":
        """Build from content words; markers are appended after them."""
        toks = list(words) + [BOS_TOKEN, EOS_TOKEN]
        unk = None
        if with_unk:
            toks.append(UNK_TOKEN)
            unk = len(toks) - 1
        return cls(toks, bos=len(words), eos=len(words) + 1, unk=unk)

    @property
    def size(self) -> int:
        return len(self.tokens)

    def index(self, word: str) -> int:
        try:
            return self._ids[word]
        except KeyError:
            if self.unk is not None:
                return self.unk
            raise ValueError(f"token {word!r} not in vocabulary and no UNK is defined") from None

    def encode(self, words) -> list[int]:
        return [self.index(w) for w in words]

    def decode(self, ids) -> list[str]:
        out = []
        for i in ids:
            if not 0 <= i < self.size:
                raise ValueError(f"token id {i} out of range for vocabulary of {self.size}")
            out.append(self.tokens[i])
        return out

    def to_dict(self) -> dict:
        return {"tokens": list(self.tokens), "bos": self.bos, "eos": self.eos, "unk": self.unk}

    @classmethod
    def from_dict(cls, d) -> "Vocabulary":
        return cls(d["tokens"], d["bos"], d["eos"], d.get("unk"))


class EmbeddingParams(NamedParams):
    """Token embedding W_e with one column per vocabulary entry."""

    PARAMS = ("W_e",)

    def __init__(self, W_e: np.ndarray):
        self.W_e = as_f64(W_e)
        if self.W_e.ndim != 2:
            raise ValueError(f"embedding must be 2-D, got {self.W_e.shape}")
        self.dim, self.vocab_size = self.W_e.shape

    @classmethod
    def init(cls, dim: int, vocab_size: int, rng: np.random.Generator) -> "EmbeddingParams":
        return cls(uniform_fan_in(rng, (dim, vocab_size), vocab_size))


class PredictionParams(NamedParams):
    """Affine output layer producing one logit per class or token."""

    PARAMS = ("W_z", "b_z")

    def __init__(self, W_z: np.ndarray, b_z: np.ndarray):
        self.W_z = as_f64(W_z)
        self.b_z = as_f64(b_z)
        if self.W_z.ndim != 2 or self.b_z.shape != (self.W_z.shape[0],):
            raise ValueError(f"prediction shapes {self.W_z.shape}, {self.b_z.shape} are inconsistent")
        self.n_out, self.in_dim = self.W_z.shape

    @classmethod
    def init(cls, n_out: int, in_dim: int, rng: np.random.Generator) -> "PredictionParams":
        return cls(uniform_fan_in(rng, (n_out, in_dim), in_dim), np.zeros(n_out))


def embed(e: EmbeddingParams, token: int) -> np.ndarray:
    """Embedding column for one token id (equals W_e times its one-hot)."""
    if not 0 <= token < e.vocab_size:
        raise ValueError(f"token id {token} out of range for embedding of {e.vocab_size}")
    return e.W_e[:, token].copy()


class _ParamLayout:
    """Model components whose parameter arrays are views of one vector.

    ``params`` holds the extractor, each cell, the embedding and the
    prediction layer in that order, each component's arrays in its
    ``PARAMS`` order.
    """

    def _bind(self, extractor, cells, embedding, prediction, params=None):
        """Rebind shallow copies of the components to views of ``params``.

        ``params=None`` builds the vector from the components' values. The
        components passed in stay untouched, so components shared with
        another model keep that model's vector.
        """
        self.extractor, self.embedding, self.prediction = (
            copy.copy(part) for part in (extractor, embedding, prediction)
        )
        self.cells = [copy.copy(cell) for cell in cells]
        arrays = self._arrays()
        if params is None:
            params = np.concatenate([a.ravel() for _, _, a in arrays])
        self.params = params
        offset = 0
        for part, name, a in arrays:
            setattr(part, name, params[offset:offset + a.size].reshape(a.shape))
            offset += a.size

    def _arrays(self):
        """(component, attribute, array) for every array of the vector, in order."""
        parts = [self.extractor, *self.cells, self.embedding, self.prediction]
        return [(part, name, getattr(part, name)) for part in parts if part is not None for name in part.PARAMS]

    def blocks(self):
        """All named parameter arrays, in a stable order."""
        out = []
        if self.extractor is not None:
            out.extend((f"phi.{n}", a) for n, a in self.extractor.blocks())
        for idx, cell in enumerate(self.cells):
            out.extend((f"cell{idx}.{n}", a) for n, a in cell.blocks())
        if self.embedding is not None:
            out.extend((f"embed.{n}", a) for n, a in self.embedding.blocks())
        out.extend((f"pred.{n}", a) for n, a in self.prediction.blocks())
        return out


class ModelSpec(_ParamLayout):
    """A complete model: topology description plus all parameters.

    The parameters live in one float64 vector, ``params``; the component
    objects' arrays are views of it, so an update of ``params`` is an
    update of every block. The components passed in are copied shallowly
    and keep their own arrays.
    """

    def __init__(
        self,
        task: str,
        cells: list,
        prediction: PredictionParams,
        extractor=None,
        vocab: Vocabulary | None = None,
        embedding: EmbeddingParams | None = None,
        factored: bool = False,
        input_dim: int | None = None,
        visual_mode: str | None = None,
        visual_blocks=None,
    ):
        if task not in TASKS:
            raise ValueError(f"unknown task {task!r}")
        if not cells:
            raise ValueError("a model needs at least one recurrent layer")
        kinds = {type(c) for c in cells}
        if len(kinds) != 1:
            raise ValueError("all layers must use the same cell type")
        self.task = task
        self._bind(extractor, cells, embedding, prediction)
        self.vocab = vocab
        self.factored = bool(factored)
        # 1-based layer that receives the image feature of a factored model.
        self.inject_layer = 2 if self.factored else None
        # 0-based layer whose input carries the slot of a token task.
        self.slot_layer = 1 if self.factored else 0
        self.input_dim = input_dim
        self.visual_mode = visual_mode
        self.visual_blocks = None if visual_blocks is None else tuple(int(b) for b in visual_blocks)
        self.n_layers = len(cells)
        self.hidden = cells[-1].n_hidden
        self._validate()

    def _validate(self):
        if self.task == "classify":
            if self.extractor is None:
                raise ValueError("classify models need a feature extractor")
            if self.factored:
                raise ValueError("factored wiring applies to caption models only")
            if self.prediction.n_out < 2:
                raise ValueError("classification needs at least two classes")
        else:
            if self.vocab is None or self.embedding is None:
                raise ValueError(f"{self.task} models need a vocabulary and an embedding")
            if self.embedding.vocab_size != self.vocab.size:
                raise ValueError("embedding width does not match vocabulary size")
            if self.prediction.n_out != self.vocab.size:
                raise ValueError("prediction layer must cover the whole vocabulary")
        if self.task == "caption":
            if self.extractor is None:
                raise ValueError("caption models need a feature extractor")
            if self.n_layers not in (1, 2):
                raise ValueError("caption models support one or two layers")
            if self.factored and self.n_layers != 2:
                raise ValueError("factored caption models need exactly two layers")
        elif self.factored:
            raise ValueError("factored wiring applies to caption models only")
        if self.task in ("encode_decode", "perstep_decode") and not self.input_dim:
            raise ValueError(f"{self.task} models need input_dim")
        if self.visual_blocks is not None and self.task == "perstep_decode":
            if sum(self.visual_blocks) != self.input_dim:
                raise ValueError("visual block sizes must sum to the visual vector length")
        if self.visual_mode not in (None, "max", "prob"):
            raise ValueError(f"unknown visual_mode {self.visual_mode!r}")

    @property
    def cell_kind(self) -> str:
        return "lstm" if isinstance(self.cells[0], LstmCellParams) else "rnn"

    @property
    def visual_dim(self) -> int | None:
        """Width of the static vector available to decode-style steps."""
        if self.task == "caption":
            return self.extractor.out_dim
        if self.task == "perstep_decode":
            return self.input_dim
        return None

    def param_count(self) -> int:
        return self.params.size


class ModelGrads(_ParamLayout):
    """Gradients in the layout of a model's parameters, over a zero vector."""

    def __init__(self, m: ModelSpec):
        self._bind(m.extractor, m.cells, m.embedding, m.prediction, np.zeros_like(m.params))

    def add_extractor(self, grad_dict):
        for name, a in self.extractor.blocks():
            a += grad_dict[name]

    def global_norm(self) -> float:
        # One sum per layout array, in vector order; a single dot over the
        # vector would round differently and move clipped trajectories.
        total = 0.0
        for _, _, a in self._arrays():
            total += float(np.sum(a * a))
        return float(np.sqrt(total))


def build_model(
    task: str,
    *,
    rng: np.random.Generator,
    hidden: int,
    layers: int = 1,
    cell: str = "lstm",
    rnn_nonlinearity: str = "tanh",
    extractor=None,
    n_classes: int | None = None,
    vocab: Vocabulary | None = None,
    embed_dim: int | None = None,
    input_dim: int | None = None,
    factored: bool = False,
    visual_mode: str | None = None,
    visual_blocks=None,
) -> ModelSpec:
    """Construct a freshly initialized model for one of the four tasks."""
    if task not in TASKS:
        raise ValueError(f"unknown task {task!r}")
    if cell not in ("lstm", "rnn"):
        raise ValueError(f"unknown cell kind {cell!r}")
    sizes = {"hidden": hidden, "embed_dim": embed_dim, "extractor out_dim": getattr(extractor, "out_dim", None)}
    for name, size in sizes.items():
        if size is not None and size < 1:
            raise ValueError(f"{name} must be at least 1, got {size}")

    embedding = None
    if task == "classify":
        if extractor is None:
            raise ValueError("classify needs an extractor")
        if n_classes is None:
            raise ValueError("classify needs n_classes")
        first_in = extractor.out_dim
        n_out = n_classes
    elif task == "caption":
        if extractor is None or vocab is None or embed_dim is None:
            raise ValueError("caption needs an extractor, a vocabulary and embed_dim")
        embedding = EmbeddingParams.init(embed_dim, vocab.size, rng)
        first_in = embed_dim if factored else embed_dim + extractor.out_dim
        n_out = vocab.size
    else:
        if vocab is None or embed_dim is None or input_dim is None:
            raise ValueError(f"{task} needs a vocabulary, embed_dim and input_dim")
        embedding = EmbeddingParams.init(embed_dim, vocab.size, rng)
        first_in = embed_dim + input_dim
        n_out = vocab.size

    visual = extractor.out_dim if task == "caption" else input_dim
    layer_cells = []
    for idx in range(layers):
        in_dim = first_in if idx == 0 else hidden
        if factored and idx == 1:
            in_dim += visual
        if cell == "lstm":
            layer_cells.append(LstmCellParams.init(hidden, in_dim, rng))
        else:
            layer_cells.append(RnnCellParams.init(hidden, in_dim, rng, rnn_nonlinearity))
    prediction = PredictionParams.init(n_out, hidden, rng)
    return ModelSpec(
        task,
        layer_cells,
        prediction,
        extractor=extractor,
        vocab=vocab,
        embedding=embedding,
        factored=factored,
        input_dim=input_dim,
        visual_mode=visual_mode,
        visual_blocks=visual_blocks,
    )


def initial_state(m: ModelSpec) -> RecurrentState:
    """All-zero hidden and cell vectors for every layer."""
    return RecurrentState.zeros(m.cells)


def _check_visual(m: ModelSpec, v: np.ndarray) -> np.ndarray:
    """The static visual vector, shape checked; per-step probability blocks
    must each be normalized."""
    v = as_f64(v)
    if v.shape != (m.visual_dim,):
        raise ValueError(f"visual vector has shape {v.shape}, model expects ({m.visual_dim},)")
    if m.task == "perstep_decode" and m.visual_mode == "prob" and m.visual_blocks:
        offset = 0
        for idx, width in enumerate(m.visual_blocks):
            total = float(np.sum(v[offset:offset + width]))
            if abs(total - 1.0) > SIMPLEX_TOL:
                raise ValueError(f"visual block {idx} sums to {total!r}, expected 1 within {SIMPLEX_TOL}")
            offset += width
    return v


def _check_encoder_inputs(m: ModelSpec, inputs) -> np.ndarray:
    inputs = as_f64(inputs)
    if inputs.ndim != 2 or inputs.shape[0] < 1:
        raise ValueError(f"encoder input must be a non-empty (T, d) array, got {inputs.shape}")
    if inputs.shape[1] != m.input_dim:
        raise ValueError(f"encoder input width {inputs.shape[1]}, model expects {m.input_dim}")
    return inputs


def _decode_step(m: ModelSpec, slot: np.ndarray, prev_token: int, state: RecurrentState):
    """One step of every token task: the embedded previous token, with
    ``slot`` injected at the model's slot layer. Returns (logits, new state)."""
    e = embed(m.embedding, prev_token)
    hs, new_state, _ = _unroll(m.cells, e[None], initial=state, inject=slot, inject_layer=m.slot_layer)
    return m.prediction.W_z @ hs[-1][0] + m.prediction.b_z, new_state


def _visual_step(m: ModelSpec, task: str, visual: np.ndarray, prev_token: int, state: RecurrentState):
    if m.task != task:
        raise ValueError(f"{task}_step called on a {m.task} model")
    logits, new_state = _decode_step(m, _check_visual(m, visual), prev_token, state)
    return softmax(logits), new_state


def caption_step(m: ModelSpec, img_feat: np.ndarray, prev_token: int, state: RecurrentState):
    """One decoding step of a caption model.

    img_feat is the extracted image feature (the same vector at every
    step). Returns (distribution over the vocabulary, new state).
    """
    return _visual_step(m, "caption", img_feat, prev_token, state)


def perstep_decode_step(m: ModelSpec, visual_vec: np.ndarray, prev_token: int, state: RecurrentState):
    """One decoding step driven by a precomputed per-class score vector."""
    return _visual_step(m, "perstep_decode", visual_vec, prev_token, state)


def caption_log_likelihood(m: ModelSpec, img_feat: np.ndarray, tokens) -> float:
    """Teacher-forced log likelihood of a caption (ending in EOS) under an extracted feature."""
    return float(_score_grid(m, [img_feat], [list(tokens)])[0, 0])


def classify_sequence(m: ModelSpec, frames) -> np.ndarray:
    """Late-fusion class distribution: the mean of per-step softmaxes."""
    return _late_fusion(m, [frames])[0]


def _passes(steps):
    """Slices of consecutive sequences, one per engine pass, from each
    sequence's step count: a pass holds at most ``_PASS_STEPS`` padded
    steps, or one sequence that runs longer alone."""
    lo = longest = 0
    for hi, n in enumerate(steps):
        longest = max(longest, int(n))
        if hi > lo and (hi + 1 - lo) * longest > _PASS_STEPS:
            yield slice(lo, hi)
            lo, longest = hi, int(n)
    if lo < len(steps):
        yield slice(lo, len(steps))


def _steps(batch) -> np.ndarray:
    """Steps each example of a SequenceBatch runs in its plan."""
    if batch.target_lengths is None:
        return batch.input_lengths
    if batch.input_lengths is None:
        return batch.target_lengths
    return batch.input_lengths - 1 + batch.target_lengths  # encode_decode


def _score_grid(m: ModelSpec, feats, caps) -> np.ndarray:
    """Teacher-forced log likelihood of every caption under every visual
    vector: an (images, captions) array.

    The layers below the slot layer never see the visual vector, so they run
    once per caption, in passes over the captions (below a slot at layer 1
    there are only the embedded tokens). The image-major pairs then run in
    passes that gather each pair's caption rows of those states and inject
    its visual vector at the slot layer.
    """
    from .data import _pad  # deferred: data imports this module

    if m.task not in ("caption", "perstep_decode"):
        raise ValueError(f"cannot score captions with a {m.task} model")
    if len(feats) == 0 or len(caps) == 0:
        return np.zeros((len(feats), len(caps)))
    visual = np.array([_check_visual(m, v) for v in feats])
    tokens, lengths = _pad(caps, np.int64)
    _check_tokens(m, tokens, lengths)
    # Time-major targets and embedded previous tokens; a padded step embeds
    # a padding token, which right padding keeps out of every real step.
    targets = tokens.T
    prev = np.concatenate([np.full((1, len(caps)), m.vocab.bos), targets[:-1]])
    below = m.embedding.W_e.T[prev]
    if m.slot_layer:
        states = np.zeros(below.shape[:2] + (m.cells[m.slot_layer - 1].n_hidden,))
        for p in _passes(lengths):
            n = lengths[p].max()
            hs, _, _ = _unroll(m.cells[:m.slot_layer], below[:n, p], lengths=lengths[p])
            states[:n, p] = hs[-1]
        below = states
    steps = np.tile(lengths, len(visual))
    out = np.empty(len(steps))
    for p in _passes(steps):
        img, cap = np.divmod(np.arange(p.start, p.stop), len(caps))
        n = steps[p]
        hs, _, _ = _unroll(m.cells[m.slot_layer:], below[:n.max(), cap], inject=visual[img], lengths=n)
        # Emitting steps pair by pair, each pair's in step order, summed in
        # that order as the loss sums an example's terms.
        b_idx, t_idx = np.nonzero(np.arange(n.max()) < n[:, None])
        nlls, _ = _emission_nlls(m, hs[-1][t_idx, b_idx], targets[t_idx, cap[b_idx]])
        out[p] = -np.bincount(b_idx, weights=nlls, minlength=len(n))
    return out.reshape(len(visual), len(caps))


def _late_fusion(m: ModelSpec, videos, windows=None) -> np.ndarray:
    """Late-fusion distribution of each clip: the mean over its own steps.

    ``windows[v]`` lists video v's clips as (start, length) pairs, by default
    the whole video; rows follow the clips video by video. A pass extracts
    every frame of its videos with one ``phi_forward`` call, and each clip
    gathers its layer-1 inputs from those rows.
    """
    if m.task != "classify":
        raise ValueError(f"cannot classify sequences with a {m.task} model")
    videos = [as_f64(v) for v in videos]
    if windows is None:
        windows = [[(0, len(v))] for v in videos]
    clips = np.array([(v, s, n) for v, w in enumerate(windows) for s, n in w], dtype=np.int64).reshape(-1, 3)
    if (clips[:, 2] < 1).any():
        raise ValueError("classification example has no frames")
    for v in videos:
        if v.shape[1:] != m.extractor.input_shape:
            raise ValueError(f"a video must be a stack of {m.extractor.input_shape} frames, got {v.shape[1:]} frames")
    first = np.cumsum([0] + [len(v) for v in videos])  # each video's first row of the stacked frames
    out = []
    for p in _passes(clips[:, 2]):
        owner, start, steps = clips[p].T
        lo, hi = owner[0], owner[-1] + 1  # the clips run video by video
        rows, _ = phi_forward(m.extractor, np.concatenate(videos[lo:hi]))
        real = np.arange(steps.max())[:, None] < steps
        t, b = np.nonzero(real)
        xs = np.zeros(real.shape + (m.extractor.out_dim,))
        xs[t, b] = rows[first[owner[b]] - first[lo] + start[b] + t]
        hs, _, _ = _unroll(m.cells, xs, lengths=steps)
        probs = softmax(hs[-1] @ m.prediction.W_z.T + m.prediction.b_z)
        probs[~real] = 0.0
        out.extend(probs.sum(axis=0) / steps[:, None])
    return np.array(out)


def encode_decode(m: ModelSpec, inputs, max_out_len: int):
    """Run the encoder over ``inputs`` then decode greedily.

    Returns the list of emitted distributions over the vocabulary, one per
    produced token, stopping after EOS or ``max_out_len`` emissions.
    """
    from .decoding import _argmax, _walk  # deferred: decoding imports this module

    if m.task != "encode_decode":
        raise ValueError(f"encode_decode called on a {m.task} model")
    dists = []

    def pick(lp) -> int:
        dists.append(np.exp(lp))
        return _argmax(lp)

    _walk(m, *make_stepper(m, inputs), max_out_len, pick)
    return dists


def make_stepper(m: ModelSpec, features):
    """Incremental decoding interface shared by all decoding strategies.

    ``features`` is the model-level conditioning input: the raw image for a
    caption model (the extractor is applied here), the visual score vector
    for per-step decoding, or the sequence of input vectors for an
    encoder-decoder.

    Returns (initial state, step) where step(state, prev_token, t) yields
    (log distribution over the vocabulary, new state). ``t`` counts emitted
    tokens starting at zero; states are never mutated, so hypotheses may
    branch freely.
    """
    state = initial_state(m)
    # first, rest: the slot injected at step 0 and at every later step.
    if m.task == "caption":
        first = rest = phi_forward(m.extractor, as_f64(features))[0]
    elif m.task == "perstep_decode":
        first = rest = _check_visual(m, features)
    elif m.task == "encode_decode":
        inputs = _check_encoder_inputs(m, features)
        # Encoder steps: no token, and every input but the last injected.
        enc = np.zeros((len(inputs) - 1, m.embedding.dim))
        _, state, _ = _unroll(m.cells, enc, inject=inputs[:-1], inject_layer=m.slot_layer)
        # The boundary step (t == 0) still carries the final input; the
        # input slot is zero after it.
        first, rest = inputs[-1], np.zeros(m.input_dim)
    else:
        raise ValueError(f"{m.task} models do not emit token sequences")

    def step(state, prev_token, t):
        logits, new_state = _decode_step(m, first if t == 0 else rest, prev_token, state)
        return log_softmax(logits), new_state

    return state, step


def _check_tokens(m: ModelSpec, tokens: np.ndarray, lengths: np.ndarray):
    """Each padded row of ``tokens`` is non-empty, in the vocabulary and ends with EOS."""
    if lengths.min() < 1:
        raise ValueError("token sequence is empty")
    used = tokens[np.arange(tokens.shape[1]) < lengths[:, None]]
    bad = (used < 0) | (used >= m.vocab.size)
    if bad.any():
        raise ValueError(f"token id {used[bad][0]} out of range for vocabulary of {m.vocab.size}")
    if (tokens[np.arange(len(tokens)), lengths - 1] != m.vocab.eos).any():
        raise ValueError("token sequence must end with the EOS token")


def _batch_plan(m: ModelSpec, batch):
    """Compile a SequenceBatch into one time-major teacher-forced unroll.

    Returns (xs, inject, targets, prev, phi, steps):
      xs       (T, B, d) layer-1 inputs: extracted frames, or embedded
               previous tokens (zero where there is none); example b runs
               ``steps[b]`` steps and is padded on the right after them;
      inject   the slot injected at the model's slot layer: (B, v) visual
               vectors, or (T, B, v) encoder inputs, zero after each
               example's last; None for classification;
      targets  (T, B) class or token ids, -1 where a step emits nothing;
      prev     (T, B) token embedded into a step's input, -1 for none
               (None for classification);
      phi      (cache, rows) of the pass's one extractor call, or None:
               for rows (t, b) index arrays, output row i was the whole input
               of step t[i] of example b[i]; for rows None, row b was example
               b's injected visual vector.
    """
    B = len(batch)
    if m.task == "classify":
        steps, labels = batch.input_lengths, batch.targets
        if steps.min() < 1:
            raise ValueError("classification example has no frames")
        bad = (labels < 0) | (labels >= m.prediction.n_out)
        if bad.any():
            raise ValueError(f"label {labels[bad][0]} out of range for {m.prediction.n_out} classes")
        xs = np.zeros((steps.max(), B, m.extractor.out_dim))
        real = np.arange(len(xs))[:, None] < steps
        t, b = np.nonzero(real)
        xs[t, b], cache = phi_forward(m.extractor, batch.inputs[b, t])
        return xs, None, np.where(real, labels, -1), None, (cache, (t, b)), steps

    tokens, lengths = batch.targets, batch.target_lengths
    _check_tokens(m, tokens, lengths)
    if m.task == "encode_decode" and (batch.input_lengths.min() < 1 or batch.inputs.shape[2] != m.input_dim):
        raise ValueError(f"encoder inputs must be non-empty (T, {m.input_dim}) arrays")
    steps = _steps(batch)
    first = steps - lengths  # encoder steps before the first emission, else 0
    b_idx, j_idx = np.nonzero(np.arange(tokens.shape[1]) < lengths[:, None])
    t_idx = first[b_idx] + j_idx
    targets = np.full((steps.max(), B), -1)
    targets[t_idx, b_idx] = tokens[b_idx, j_idx]
    prev = np.full_like(targets, -1)
    prev[t_idx, b_idx] = np.where(j_idx == 0, m.vocab.bos, tokens[b_idx, j_idx - 1])

    phi = None
    if m.task == "encode_decode":
        # Inputs are zero-padded: the slot is empty after each example's last input.
        inject = np.zeros((len(targets), B, m.input_dim))
        n_in = batch.input_lengths.max()
        inject[:n_in] = batch.inputs[:, :n_in].swapaxes(0, 1)
    elif m.task == "caption":
        inject, cache = phi_forward(m.extractor, batch.inputs)
        phi = (cache, None)
    else:
        inject = np.array([_check_visual(m, v) for v in batch.inputs])
    xs = np.zeros((len(targets), B, m.embedding.dim))
    t_e, b_e = np.nonzero(prev >= 0)
    xs[t_e, b_e] = m.embedding.W_e.T[prev[t_e, b_e]]
    return xs, inject, targets, prev, phi, steps


def _emission_nlls(m: ModelSpec, top: np.ndarray, tgt: np.ndarray, grads: ModelGrads | None = None, scale=1.0):
    """-log p of each target under its row of top-layer states, through the
    output layer and a log-softmax over blocks of ``_LOGIT_BLOCK`` logits.

    With ``grads``, the output layer's gradients scaled by ``scale`` are
    accumulated into it. Returns (nlls, gradients of the rows of ``top``,
    None without ``grads``).
    """
    nlls = np.empty(len(tgt))
    d_top = None if grads is None else np.empty_like(top)
    W_z, span = m.prediction.W_z, max(1, _LOGIT_BLOCK // m.prediction.n_out)
    for lo in range(0, len(tgt), span):
        rows = slice(lo, lo + span)
        lp = log_softmax(top[rows] @ W_z.T + m.prediction.b_z)
        picked = np.arange(len(lp)), tgt[rows]
        nlls[rows] = -lp[picked]
        if grads is not None:
            dl = np.exp(lp)
            dl[picked] -= 1.0
            dl *= scale
            grads.prediction.W_z += dl.T @ top[rows]
            grads.prediction.b_z += dl.sum(axis=0)
            d_top[rows] = dl @ W_z
    return nlls, d_top


def sequence_loss_and_grads(m: ModelSpec, example, grads: ModelGrads | None = None, scale: float = 1.0, drop=None):
    """Negative log likelihood of a batch or of one example, optionally with gradients.

    ``example`` is a SequenceBatch or one task-dependent example:
      classify:        (frames, label)
      caption:         (image, tokens)
      encode_decode:   (inputs, target tokens)
      perstep_decode:  (visual vector, tokens)

    A batch runs as one right-padded time-major unroll per pass of at most
    ``_PASS_STEPS`` padded steps, with the output layer and log-softmax over
    blocks of emitting steps, which bounds the working memory. When ``grads``
    is given, parameter gradients scaled by ``scale`` are accumulated into
    it. ``drop`` is an optional (p, rng) pair applied to every recurrent
    layer input during the forward pass.

    Returns (nll, per-step nlls). For one example: -log P summed over its
    predicted positions, and the list of per-position terms. For a batch:
    the sum over its examples, and one such list per example.
    """
    from .data import SequenceBatch  # deferred: data imports this module

    batch = example if isinstance(example, SequenceBatch) else SequenceBatch.from_examples(m.task, [example])
    if batch.task != m.task:
        raise ValueError(f"a {batch.task} batch does not fit a {m.task} model")
    passes = list(_passes(_steps(batch)))
    if len(passes) > 1:
        parts = [sequence_loss_and_grads(m, batch[p], grads, scale, drop) for p in passes]
        per_step = [steps for _, part in parts for steps in part]
        return sum(sum(steps) for steps in per_step), per_step
    xs, inject, targets, prev, phi, steps = _batch_plan(m, batch)
    hs, _, tapes = _unroll(m.cells, xs, inject=inject, inject_layer=m.slot_layer, drop=drop, lengths=steps)
    if grads is None:
        tapes = None  # scoring frees the tapes before the logit blocks
    # Emitting steps example by example, each example's in step order.
    b_idx, t_idx = np.nonzero(targets.T >= 0)
    nlls, d_rows = _emission_nlls(m, hs[-1][t_idx, b_idx], targets[t_idx, b_idx], grads, scale)
    ends = np.cumsum(np.bincount(b_idx, minlength=len(batch)))[:-1]
    per_step = [part.tolist() for part in np.split(nlls, ends)]
    nll = sum(sum(part) for part in per_step)
    if grads is not None:
        d_top = np.zeros_like(hs[-1])
        d_top[t_idx, b_idx] = d_rows
        # d_top stays the second argument: the benchmark counts this call's
        # work as len(cells) * len(d_top), layers times steps.
        d_xs, d_inject, _ = _unroll_backward(
            m.cells, d_top, tapes,
            inject_dim=0 if inject is None else inject.shape[-1],
            inject_layer=m.slot_layer,
            grad_accs=grads.cells,
        )
        if prev is not None:
            t_e, b_e = np.nonzero(prev >= 0)
            np.add.at(grads.embedding.W_e.T, prev[t_e, b_e], d_xs[t_e, b_e])
        if phi is not None:
            cache, rows = phi
            dv = d_inject.sum(axis=0) if rows is None else d_xs[rows]
            grads.add_extractor(phi_backward(m.extractor, cache, dv)[1])
    return (nll, per_step) if batch is example else (nll, per_step[0])
