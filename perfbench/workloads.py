"""The three LRCN workloads: inputs made from a seed, timed phases, checks.

Every workload makes all of its inputs from ``--seed`` and hands the
library only those inputs. Model initialisation and the training
generator use fixed seeds, so the seed changes the data alone.

A cycle is one training followed by rounds. Training builds fresh models
and runs ``fit`` for the workload's fixed budget; each epoch is one timed
sample, and every training ends at the same parameters. A round runs
every other phase once on the trained model; every round repeats the
same work, so each round is one sample of each phase.

The library is always called through its module attributes (for example
``training.fit``), so that a tracer that replaces them sees the calls.
"""

from __future__ import annotations

import hashlib
import os
import time

import numpy as np

import reference as ref
from recseq import checkpoint, data, decoding, evaluation, features, models, training

clock = time.perf_counter

# Timed phase -> end-to-end metric it feeds (work per second).
PHASE_METRICS = {
    "train": "train_seq_per_s",
    "eval": "eval_seq_per_s",
    "greedy": "greedy_steps_per_s",
    "beam": "beam_steps_per_s",
    "sample": "sample_steps_per_s",
    "retrieval": "retrieval_pairs_per_s",
}

NLL_REL_TOL = 1e-9
LOGP_TOL = 1e-12
# Central difference along a unit direction with step 1e-5: truncation and
# rounding errors stay near 1e-9 of a loss of order one.
FD_STEP = 1e-5
FD_REL_TOL = 1e-6
FD_ABS_TOL = 1e-9


class OperationFailed(Exception):
    """A library call raised; the rest of its round is not attempted."""


def _close(a, b, rel, floor=0.0):
    return abs(a - b) <= max(floor, rel * max(abs(a), abs(b)))


def count_step_calls(fn, m, *args):
    """How many times ``fn`` steps the model (make_stepper's closure)."""
    calls = 0
    original = decoding.make_stepper

    def counting(*a, **k):
        state, step = original(*a, **k)

        def counted(*s):
            nonlocal calls
            calls += 1
            return step(*s)

        return state, counted

    decoding.make_stepper = counting
    try:
        fn(m, *args)
    finally:
        decoding.make_stepper = original
    return calls


class Workload:
    name = ""

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.nll_after = None
        self.beam_steps = None
        self.digests = []

    def subseed(self, k):
        """A seed for input stream ``k``, derived from the run's seed."""
        return int(np.random.SeedSequence([self.seed, k]).generate_state(1)[0])

    def op(self, fn, *args, **kwargs):
        """One call into the library, counted as an attempted operation."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            self.failed += 1
            self.errors.append(f"{getattr(fn, '__name__', fn)}: {exc!r}")
            raise OperationFailed(self.errors[-1]) from exc

    def ops(self, fn, items):
        return [self.op(fn, *item) for item in items]

    def fit_epochs(self, m, examples, cfg):
        """``fit`` with the end of every epoch timed through ``stop_fn``."""
        marks = [clock()]

        def mark(model, epoch, report):
            marks.append(clock())
            return False

        self.op(training.fit, m, examples, cfg, stop_fn=mark)
        return [end - start for start, end in zip(marks, marks[1:])]

    @staticmethod
    def train_rate(samples):
        """Sequences per second of one epoch of every model, each model's
        epoch taken at its fastest: the samples are (model, work, seconds)."""
        best = {}
        for model, work, secs in samples:
            if model not in best or secs < best[model][1]:
                best[model] = (work, secs)
        return sum(w for w, _ in best.values()) / sum(s for _, s in best.values())

    def after_training(self, m, held):
        """Untimed: a digest of the trained gated model and, after the first
        training only, its held-out NLL."""
        digest = hashlib.sha256()
        for name, arr in m.blocks():
            digest.update(name.encode())
            digest.update(arr.tobytes())
        self.digests.append(digest.hexdigest())
        if self.nll_after is None:
            batch = data.SequenceBatch.from_examples(m.task, held)
            self.nll_after = training.sequence_nll(m, batch).mean_target_nll

    # -- phases of a round ---------------------------------------------

    def score(self, rec, m, examples):
        """Teacher-forced held-out NLL: the eval phase of token workloads."""
        start = clock()
        batch = self.op(data.SequenceBatch.from_examples, m.task, examples)
        self.op(training.sequence_nll, m, batch)
        rec["eval"] = (len(examples), clock() - start)

    def decode(self, rec, m, prefix_steps):
        """Greedy, beam-4 and sampling phases.

        A step is one token emitted by one live hypothesis, plus, for an
        encoder-decoder, the encoder frames consumed before emitting
        (``prefix_steps(x)``). Beam search does not report how many
        hypotheses it stepped; :meth:`count_beam_steps` counts them once.
        """
        start = clock()
        hyps = self.ops(decoding.greedy_decode, [(m, x, self.MAX_LEN) for x in self.greedy_inputs])
        steps = sum(prefix_steps(x) + len(h.tokens) for x, h in zip(self.greedy_inputs, hyps))
        rec["greedy"] = (steps, clock() - start)

        start = clock()
        self.last_beams = self.ops(decoding.beam_search, [(m, x, 4, self.MAX_LEN) for x in self.beam_inputs])
        rec["beam"] = (self.beam_steps, clock() - start)

        start = clock()
        draws = self.ops(
            decoding.sample_decode,
            [(m, x, 4, 1.0, self.MAX_LEN, i) for i, x in enumerate(self.sample_inputs)],
        )
        steps = sum(prefix_steps(x) + sum(len(h.tokens) for h in pool)
                    for x, pool in zip(self.sample_inputs, draws))
        rec["sample"] = (steps, clock() - start)

    def count_beam_steps(self, m, prefix_steps):
        """Untimed, first training only: steps of the beam phase."""
        if self.beam_steps is None:
            self.beam_steps = sum(
                prefix_steps(x) + count_step_calls(decoding.beam_search, m, x, 4, self.MAX_LEN)
                for x in self.beam_inputs
            )

    # -- shared checks -------------------------------------------------

    def check_nll_reference(self, m, examples, ref_nll):
        topo, P = ref.topology_of(m), ref.params_of(m)
        worst = 0.0
        for ex in examples:
            got = training.sequence_nll(m, data.SequenceBatch.from_examples(m.task, [ex])).total_nll
            want = ref_nll(topo, P, ex)
            worst = max(worst, abs(got - want) / abs(want))
        return (f"nll_matches_reference[{m.cell_kind}]", worst <= NLL_REL_TOL,
                f"{len(examples)} examples, worst relative error {worst:.2e}")

    def check_gradient(self, m, examples):
        """Analytic gradient . d against a central difference along d."""
        batch = data.SequenceBatch.from_examples(m.task, examples)
        grads = models.ModelGrads(m)
        for b in range(len(batch)):
            models.sequence_loss_and_grads(m, batch.example(b), grads, scale=1.0 / len(batch))
        rng = np.random.default_rng(self.subseed(99))
        blocks = m.blocks()
        direction = [rng.standard_normal(arr.shape) for _, arr in blocks]
        norm = np.sqrt(sum(float(np.sum(d * d)) for d in direction))
        direction = [d / norm for d in direction]
        g = dict(grads.blocks())
        analytic = sum(float(np.sum(g[name] * d)) for (name, _), d in zip(blocks, direction))
        saved = [arr.copy() for _, arr in blocks]

        def loss_at(h):
            for (_, arr), base, d in zip(blocks, saved, direction):
                np.copyto(arr, base + h * d)
            return training.sequence_nll(m, batch).total_nll / len(batch)

        try:
            numeric = (loss_at(FD_STEP) - loss_at(-FD_STEP)) / (2.0 * FD_STEP)
        finally:
            for (_, arr), base in zip(blocks, saved):
                np.copyto(arr, base)
        ok = _close(analytic, numeric, FD_REL_TOL, FD_ABS_TOL)
        return (f"gradient_directional[{m.cell_kind}]", ok,
                f"analytic {analytic:.12e} numeric {numeric:.12e}")

    def check_decoders(self, m, teacher_logp):
        """beam(1) == greedy; sampling at temperature 1e6 == greedy;
        every finished beam-4 hypothesis has the teacher-forced logp."""
        inputs = self.greedy_inputs[:8]
        same = 0
        for i, x in enumerate(inputs):
            greedy = decoding.greedy_decode(m, x, self.MAX_LEN)
            beam = decoding.beam_search(m, x, 1, self.MAX_LEN)
            sampled = decoding.sample_decode(m, x, 1, 1e6, self.MAX_LEN, seed=i)[0]
            if greedy.finished:
                beam_ok = (len(beam) == 1 and beam[0].tokens == greedy.tokens
                           and abs(beam[0].logp - greedy.logp) <= LOGP_TOL)
            else:
                beam_ok = beam == []
            same += beam_ok and sampled.tokens == greedy.tokens and abs(sampled.logp - greedy.logp) <= LOGP_TOL
        finished = [(x, h) for x, hyps in zip(self.beam_inputs, self.last_beams) for h in hyps]
        agree = sum(h.finished and _close(h.logp, teacher_logp(m, x, h.tokens), NLL_REL_TOL, 1e-12)
                    for x, h in finished)
        return [
            ("beam1_and_hot_sampling_equal_greedy", same == len(inputs), f"{same} of {len(inputs)} inputs agree"),
            ("beam_logp_is_teacher_forced_logp", agree == len(finished),
             f"{agree} of {len(finished)} finished hypotheses agree"),
        ]

    def check_checkpoint(self, m):
        first = os.path.join(self.workdir, "check-a.ckpt")
        second = os.path.join(self.workdir, "check-b.ckpt")
        checkpoint.save_checkpoint(first, m, step=3)
        bundle = checkpoint.load_checkpoint(first)
        checkpoint.save_checkpoint(second, bundle.model, step=bundle.step)
        with open(first, "rb") as fa, open(second, "rb") as fb:
            a, b = fa.read(), fb.read()
        return ("checkpoint_resave_identical", a == b, f"{len(a)} bytes")

    def check_trainings_identical(self):
        return ("trainings_identical", len(set(self.digests)) == 1,
                f"{len(self.digests)} trainings, {len(set(self.digests))} distinct parameter digests")

    def check_learning(self, fresh, held):
        before = training.sequence_nll(fresh, data.SequenceBatch.from_examples(fresh.task, held)).mean_target_nll
        return ("training_lowers_heldout_nll", self.nll_after < before,
                f"gated model {before:.6f} -> {self.nll_after:.6f} nats/token")


# ---------------------------------------------------------------------------


class LagRecall(Workload):
    """encode_decode models on gen_lag_recall data, gated against vanilla."""

    name = "lag-recall"
    TRAIN, HELD = 256, 128
    GREEDY, BEAM, SAMPLE, GRID = 64, 16, 16, 12
    MAX_LEN = 4
    CFG = training.TrainConfig(lr=0.3, epochs=4, batch_size=8, seed=0)
    CELLS = (("lstm", 32), ("rnn", 68))

    def build(self, cell, hidden):
        return models.build_model("encode_decode", rng=np.random.default_rng(0), hidden=hidden, layers=1,
                                  cell=cell, vocab=self.vocab, embed_dim=8, input_dim=4)

    def setup(self):
        gen = dict(vocab_size=4, lag=8, span=2)
        self.train_set, self.vocab = data.gen_lag_recall(seed=self.subseed(0), count=self.TRAIN, **gen)
        self.held, _ = data.gen_lag_recall(seed=self.subseed(1), count=self.HELD, **gen)
        inputs = [ex.inputs for ex in self.held]
        self.greedy_inputs = inputs[:self.GREEDY]
        self.beam_inputs = inputs[:self.BEAM]
        self.sample_inputs = inputs[self.BEAM:self.BEAM + self.SAMPLE]
        grid = self.held[:self.GRID]
        self.grid = [data.SeqPair(a.inputs, b.targets) for a in grid for b in grid]
        warm = self.build("lstm", 32)
        training.sequence_nll(warm, data.SequenceBatch.from_examples("encode_decode", self.held[:2]))
        decoding.greedy_decode(warm, inputs[0], self.MAX_LEN)

    @staticmethod
    def prefix_steps(x):
        return len(x) - 1

    def train(self):
        """Both cells for the same budget; a sample is one epoch of one cell.

        The two cells cost different amounts per epoch, so their samples
        are told apart by :meth:`train_rate`.
        """
        samples = []
        for cell, hidden in self.CELLS:
            m = self.build(cell, hidden)
            samples += [(cell, len(self.train_set), s) for s in self.fit_epochs(m, self.train_set, self.CFG)]
            setattr(self, cell, m)
        self.after_training(self.lstm, self.held)
        self.count_beam_steps(self.lstm, self.prefix_steps)
        return samples

    def round(self):
        rec = {}
        self.score(rec, self.lstm, self.held)
        self.decode(rec, self.lstm, self.prefix_steps)
        # Retrieval: every held-out target scored under every input sequence.
        start = clock()
        batch = self.op(data.SequenceBatch.from_examples, "encode_decode", self.grid)
        self.op(training.sequence_nll, self.lstm, batch)
        rec["retrieval"] = (len(self.grid), clock() - start)
        return rec

    def checks(self):
        def ref_nll(topo, P, ex):
            return -ref.encode_decode_log_likelihood(topo, P, ex.inputs, ex.targets)

        def teacher_logp(m, x, tokens):
            batch = data.SequenceBatch.from_examples("encode_decode", [data.SeqPair(x, tokens)])
            return -training.sequence_nll(m, batch).total_nll

        out = [self.check_nll_reference(self.lstm, self.held[::16], ref_nll),
               self.check_nll_reference(self.rnn, self.held[::16], ref_nll)]
        _, ok, detail = self.check_nll_reference(self.lstm, self.grid[::19], ref_nll)
        out.append(("retrieval_entries_match_reference", ok, detail))
        out.append(self.check_gradient(self.lstm, self.train_set[:8]))
        out.append(self.check_gradient(self.rnn, self.train_set[:8]))
        out.extend(self.check_decoders(self.lstm, teacher_logp))
        out.append(self.check_learning(self.build("lstm", 32), self.held))
        out.append(self.check_checkpoint(self.lstm))
        out.append(self.check_trainings_identical())
        return out


# ---------------------------------------------------------------------------

DIRECTIONS = ("up", "down", "left", "right")
_STEPS = ((-1, 0), (1, 0), (0, -1), (0, 1))


def gen_moving_object(seed, count, size=8, frames=(10, 12), noise=0.1):
    """(1, size, size) videos of a 2x2 object moving one pixel per frame.

    Horizontal motion runs along the middle rows and vertical motion along
    the middle columns, wrapping at the border. A single frame shows the
    axis of motion but not its sign, so no frame decides the label.
    """
    rng = np.random.default_rng(seed)
    mid = size // 2 - 1
    out = []
    for _ in range(count):
        n = int(rng.integers(frames[0], frames[1] + 1))
        label = int(rng.integers(0, 4))
        dr, dc = _STEPS[label]
        r, c = (int(v) for v in rng.integers(0, size, size=2))
        if dr == 0:
            r = mid
        else:
            c = mid
        video = np.zeros((n, 1, size, size))
        for t in range(n):
            rows = (r + dr * t + np.arange(2)) % size
            cols = (c + dc * t + np.arange(2)) % size
            video[t, 0][np.ix_(rows, cols)] = 1.0
        video += noise * rng.standard_normal(video.shape)
        out.append(data.LabeledSequence(video, label))
    return out


class Activity(Workload):
    """classify LRCN: smallconv per frame, an LSTM, late fusion.

    A classify model emits no tokens, so the decode and retrieval phases of
    this workload run an untrained companion caption model that reads one
    frame through the same smallconv extractor and emits a direction word
    (vocabulary of 6).
    """

    name = "activity"
    SIZE = 8
    TRAIN, HELD = 128, 48
    CLIP_LEN, STRIDE = 6, 3
    GREEDY, BEAM, SAMPLE, GRID = 16, 8, 8, 32
    MAX_LEN = 6
    CFG = training.TrainConfig(lr=0.1, epochs=4, batch_size=8, clip_len=6, clip_norm=1.0, seed=0)

    def build(self):
        rng = np.random.default_rng(0)
        ext = features.make_extractor("smallconv", (1, self.SIZE, self.SIZE), out_dim=16, rng=rng)
        return models.build_model("classify", rng=rng, hidden=16, layers=1, cell="lstm", extractor=ext, n_classes=4)

    def setup(self):
        self.train_set = gen_moving_object(self.subseed(0), self.TRAIN, self.SIZE)
        self.held = gen_moving_object(self.subseed(1), self.HELD, self.SIZE)
        rng = np.random.default_rng(1)
        ext = features.make_extractor("smallconv", (1, self.SIZE, self.SIZE), out_dim=16, rng=rng)
        self.captioner = models.build_model(
            "caption", rng=rng, hidden=16, layers=1, cell="lstm", extractor=ext,
            vocab=models.Vocabulary.from_words(DIRECTIONS), embed_dim=8)
        frames = [ex.frames[len(ex.frames) // 2] for ex in self.held]
        self.greedy_inputs = frames[:self.GREEDY]
        self.beam_inputs = frames[:self.BEAM]
        self.sample_inputs = frames[self.BEAM:self.BEAM + self.SAMPLE]
        self.grid_frames = frames[:self.GRID]
        eos = self.captioner.vocab.eos
        self.grid_captions = [(k, eos) for k in range(len(DIRECTIONS))]
        warm = self.build()
        evaluation.classification_accuracy(warm, self.held[:2], clip_len=self.CLIP_LEN, stride=self.STRIDE)
        decoding.greedy_decode(self.captioner, frames[0], self.MAX_LEN)

    @staticmethod
    def prefix_steps(x):
        return 0

    def train(self):
        self.model = self.build()
        epochs = self.fit_epochs(self.model, self.train_set, self.CFG)
        self.after_training(self.model, self.held)
        self.count_beam_steps(self.captioner, self.prefix_steps)
        return [("lstm", len(self.train_set), s) for s in epochs]

    def round(self):
        rec = {}
        start = clock()
        self.op(evaluation.classification_accuracy, self.model, self.held, clip_len=self.CLIP_LEN, stride=self.STRIDE)
        rec["eval"] = (len(self.held), clock() - start)
        m = self.captioner
        self.decode(rec, m, self.prefix_steps)
        start = clock()
        feats = [self.op(features.phi_forward, m.extractor, fr)[0] for fr in self.grid_frames]
        self.op(evaluation.score_pairs, m, feats, self.grid_captions)
        rec["retrieval"] = (len(feats) * len(self.grid_captions), clock() - start)
        return rec

    def checks(self):
        def ref_nll(topo, P, ex):
            return ref.classify_nll(topo, P, ex.frames, ex.label)

        m = self.model
        topo, P = ref.topology_of(m), ref.params_of(m)
        out = [self.check_nll_reference(m, self.held[::12], ref_nll)]
        sums = means = worst = 0.0
        n_clips = 0
        for ex in self.held[::12]:
            video, clips = evaluation.clip_protocol_eval(m, ex.frames, self.CLIP_LEN, self.STRIDE)
            sums = max(sums, max(abs(float(np.sum(d)) - 1.0) for d in clips))
            means = max(means, float(np.max(np.abs(video - np.mean(clips, axis=0)))))
            for (s, n), d in zip(evaluation.clip_windows(len(ex.frames), self.CLIP_LEN, self.STRIDE), clips):
                want = ref.classify_distribution(topo, P, ex.frames[s:s + n])
                worst = max(worst, float(np.max(np.abs(d - want) / want)))
                n_clips += 1
        out.append(("clip_distributions_sum_to_one", sums <= 1e-12, f"worst |sum - 1| {sums:.1e}"))
        out.append(("video_distribution_is_clip_mean", means <= 1e-15, f"worst deviation {means:.1e}"))
        out.append(("clip_distributions_match_reference", worst <= NLL_REL_TOL,
                    f"{n_clips} clips, worst relative {worst:.2e}"))
        out.append(self.check_gradient(m, self.train_set[:8]))

        cap = self.captioner
        ctopo, cP = ref.topology_of(cap), ref.params_of(cap)
        frames = self.grid_frames[:4]
        scores = evaluation.score_pairs(cap, [features.phi_forward(cap.extractor, fr)[0] for fr in frames],
                                        self.grid_captions)
        worst = max(abs(scores[i, j] - ref.caption_log_likelihood(ctopo, cP, ref.extract(ctopo, cP, fr), c))
                    / abs(scores[i, j])
                    for i, fr in enumerate(frames) for j, c in enumerate(self.grid_captions))
        out.append(("retrieval_entries_match_reference", worst <= NLL_REL_TOL,
                    f"{scores.size} pairs, worst relative {worst:.2e}"))

        def teacher_logp(model, frame, tokens):
            return evaluation.caption_log_likelihood(model, features.phi_forward(model.extractor, frame)[0], tokens)

        out.extend(self.check_decoders(cap, teacher_logp))
        out.append(self.check_learning(self.build(), self.held))
        out.append(self.check_checkpoint(m))
        out.append(self.check_trainings_identical())
        return out


# ---------------------------------------------------------------------------

# Word classes of the caption grammar: (prefix, number of words).
WORD_CLASSES = (("det", 6), ("adj", 350), ("noun", 400), ("verb", 250))
IMAGE_DIM = 32


def gen_grammar_captions(seed, count):
    """Captions "det adj{0,2} noun verb det adj{0,2} noun" (5 to 9 words).

    Within each word class, words follow a Zipf law (p ~ 1/rank). Each
    word has a random direction; an image is the normalised sum of the
    directions of its caption's content words plus a little noise.
    Returns (CaptionPair examples, Vocabulary of every possible word).
    """
    rng = np.random.default_rng(seed)
    words = {c: [f"{c}{i}" for i in range(n)] for c, n in WORD_CLASSES}
    probs = {}
    for c, n in WORD_CLASSES:
        p = 1.0 / np.arange(1, n + 1)
        probs[c] = p / p.sum()
    vocab = models.Vocabulary.from_words([w for c, _ in WORD_CLASSES for w in words[c]])
    vectors = rng.standard_normal((vocab.size, IMAGE_DIM))
    out = []
    for _ in range(count):
        a, b = (int(v) for v in rng.integers(0, 3, size=2))
        pattern = ["det"] + ["adj"] * a + ["noun", "verb", "det"] + ["adj"] * b + ["noun"]
        caption = [words[c][rng.choice(len(words[c]), p=probs[c])] for c in pattern]
        ids = vocab.encode(caption)
        content = [i for i, c in zip(ids, pattern) if c != "det"]
        image = vectors[content].sum(axis=0)
        image = image / np.linalg.norm(image) + 0.05 * rng.standard_normal(IMAGE_DIM)
        out.append(data.CaptionPair(image, tuple(ids) + (vocab.eos,)))
    return out, vocab


class Captioning(Workload):
    """Factored two-layer caption model (LRCN2f) over a ~1000-word vocabulary."""

    name = "captioning"
    CORPUS, TRAIN, HELD = 2048, 128, 64
    GREEDY, BEAM, SAMPLE, GRID = 128, 4, 16, 12
    MAX_LEN = 12
    CFG = training.TrainConfig(lr=0.5, epochs=8, batch_size=16, dropout=0.2, clip_norm=1.0, seed=0)

    def build(self):
        rng = np.random.default_rng(0)
        ext = features.make_extractor("linear", (IMAGE_DIM,), out_dim=16, rng=rng)
        return models.build_model("caption", rng=rng, hidden=32, layers=2, cell="lstm", extractor=ext,
                                  vocab=self.vocab, embed_dim=16, factored=True)

    def setup(self):
        generated, gen_vocab = gen_grammar_captions(self.subseed(0), self.CORPUS)
        directory = os.path.join(self.workdir, "captions")
        data.save_task_dir(directory, "caption", generated, vocab=gen_vocab)
        task, examples, self.vocab = data.load_task_dir(directory)
        self.generated, self.gen_vocab, self.loaded = generated, gen_vocab, examples
        self.train_set = examples[:self.TRAIN]
        self.held = examples[self.TRAIN:self.TRAIN + self.HELD]
        # Decoding needs images only; they come from the rest of the corpus.
        images = [ex.image for ex in examples[self.TRAIN + self.HELD:]]
        self.greedy_inputs = images[:self.GREEDY]
        self.beam_inputs = images[:self.BEAM]
        self.sample_inputs = images[self.BEAM:self.BEAM + self.SAMPLE]
        self.grid_images = [ex.image for ex in self.held[:self.GRID]]
        self.grid_captions = [ex.tokens for ex in self.held[:self.GRID]]
        self.ckpt = os.path.join(self.workdir, "captioning.ckpt")
        warm = self.build()
        training.sequence_nll(warm, data.SequenceBatch.from_examples("caption", self.held[:2]))
        decoding.greedy_decode(warm, images[0], 3)

    @staticmethod
    def prefix_steps(x):
        return 0

    def train(self):
        """Train, save with the checkpoint module, go on with the reloaded model."""
        m = self.build()
        epochs = self.fit_epochs(m, self.train_set, self.CFG)
        self.op(checkpoint.save_checkpoint, self.ckpt, m)
        self.model = self.op(checkpoint.load_checkpoint, self.ckpt).model
        self.after_training(self.model, self.held)
        self.count_beam_steps(self.model, self.prefix_steps)
        return [("lstm", len(self.train_set), s) for s in epochs]

    def round(self):
        rec = {}
        m = self.model
        self.score(rec, m, self.held)
        self.decode(rec, m, self.prefix_steps)
        start = clock()
        feats = [self.op(features.phi_forward, m.extractor, img)[0] for img in self.grid_images]
        self.op(evaluation.score_pairs, m, feats, self.grid_captions)
        rec["retrieval"] = (len(feats) * len(self.grid_captions), clock() - start)
        return rec

    def checks(self):
        m = self.model
        topo, P = ref.topology_of(m), ref.params_of(m)

        def ref_nll(t, p, ex):
            return ref.caption_nll(t, p, ex.image, ex.tokens)

        same = len(self.loaded) == len(self.generated) and all(
            np.array_equal(a.image, b.image)
            and self.vocab.decode(a.tokens[:-1]) == self.gen_vocab.decode(b.tokens[:-1])
            for a, b in zip(self.loaded, self.generated))
        out = [("dataset_round_trip", same, f"{len(self.loaded)} captions, vocabulary {self.vocab.size}")]
        out.append(self.check_nll_reference(m, self.held[::8], ref_nll))
        feats = [features.phi_forward(m.extractor, img)[0] for img in self.grid_images]
        scores = evaluation.score_pairs(m, feats, self.grid_captions)
        worst = 0.0
        for i in range(self.GRID):
            j = (5 * i + 3) % self.GRID
            want = ref.caption_log_likelihood(topo, P, ref.extract(topo, P, self.grid_images[i]), self.grid_captions[j])
            worst = max(worst, abs(scores[i, j] - want) / abs(want))
        out.append(("retrieval_entries_match_reference", worst <= NLL_REL_TOL,
                    f"{self.GRID} pairs, worst relative {worst:.2e}"))
        out.append(self.check_gradient(m, self.train_set[:16]))

        def teacher_logp(model, image, tokens):
            return evaluation.caption_log_likelihood(model, features.phi_forward(model.extractor, image)[0], tokens)

        out.extend(self.check_decoders(m, teacher_logp))
        out.append(self.check_learning(self.build(), self.held))
        out.append(self.check_checkpoint(m))
        out.append(self.check_trainings_identical())
        return out


WORKLOADS = {w.name: w for w in (LagRecall, Activity, Captioning)}
