"""Metric oracles: BLEU, retrieval ranking, fusion, and the clip protocol."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import recseq.models
from recseq.data import LabeledSequence
from recseq.evaluation import (
    RetrievalReport,
    ScoreMatrix,
    bleu,
    classification_accuracy,
    clip_protocol_eval,
    clip_windows,
    corpus_bleu,
    fuse_streams,
    retrieval_metrics,
    score_pairs,
)
from recseq.features import make_extractor, phi_forward
from recseq.models import (
    Vocabulary,
    build_model,
    caption_log_likelihood,
    caption_step,
    classify_sequence,
    initial_state,
    perstep_decode_step,
)
from recseq.training import build_demo_batch, build_demo_model

from conftest import assert_passes_keep_the_budget


def tokens(text):
    return text.split()


class TestBleu:
    def test_hand_counted_example(self):
        # p1 = 3/4, p2 = 2/3, no brevity penalty: geometric mean sqrt(1/2).
        score = bleu(tokens("a b c d"), [tokens("a b c e")], max_n=2)
        assert score == pytest.approx(math.sqrt(0.5), abs=1e-12)

    def test_identical_candidate_scores_one(self):
        ref = tokens("the cat sat on the mat")
        assert bleu(ref, [ref], max_n=4) == pytest.approx(1.0, abs=1e-12)

    def test_disjoint_candidate_scores_zero(self):
        assert bleu(tokens("x y z"), [tokens("a b c")], max_n=2) == 0.0

    def test_empty_candidate_scores_zero(self):
        assert bleu([], [tokens("a b")], max_n=2) == 0.0

    def test_zero_ngram_precision_zeroes_the_score(self):
        # All unigrams match but no bigram does.
        assert bleu(tokens("a b"), [tokens("a b a")], max_n=2) > 0.0
        assert bleu(tokens("b a"), [tokens("a x b")], max_n=2) == 0.0

    def test_clipping_limits_repeated_words(self):
        # "the the the" against a reference with two "the": p1 = 2/3.
        score = bleu(tokens("the the the"), [tokens("the cat the")], max_n=1)
        brevity = 1.0  # candidate length equals reference length
        assert score == pytest.approx(brevity * (2.0 / 3.0), abs=1e-12)

    def test_brevity_penalty_for_short_candidates(self):
        # Candidate length 2, reference length 4: BP = exp(1 - 4/2).
        score = bleu(tokens("a b"), [tokens("a b c d")], max_n=1)
        assert score == pytest.approx(math.exp(1.0 - 2.0), abs=1e-12)

    def test_closest_reference_length_ties_prefer_shorter(self):
        # c = 3 with reference lengths 2 and 4: both |r-c| = 1, r = 2 wins,
        # so no penalty applies (r < c).
        score = bleu(tokens("a b x"), [tokens("a b"), tokens("a b c d")], max_n=1)
        assert score == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            bleu(tokens("a"), [], max_n=1)
        with pytest.raises(ValueError):
            bleu(tokens("a"), [tokens("a")], max_n=0)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_extra_reference_of_equal_length_never_decreases(self, data):
        # With the brevity reference length held fixed, a new reference can
        # only raise the per-reference clipping maxima.
        alphabet = "abcd"
        cand = data.draw(st.lists(st.sampled_from(alphabet), min_size=1, max_size=6))
        refs = data.draw(st.lists(st.lists(st.sampled_from(alphabet), min_size=1, max_size=6),
                                  min_size=1, max_size=3))
        anchor_len = len(refs[0])
        extra = data.draw(st.lists(st.sampled_from(alphabet), min_size=anchor_len, max_size=anchor_len))
        base = bleu(cand, refs, max_n=2)
        grown = bleu(cand, refs + [extra], max_n=2)
        assert grown >= base - 1e-12

    @given(st.lists(st.sampled_from("abc"), min_size=1, max_size=8),
           st.lists(st.lists(st.sampled_from("abc"), min_size=1, max_size=8), min_size=1, max_size=3))
    @settings(max_examples=60, deadline=None)
    def test_score_is_bounded(self, cand, refs):
        assert 0.0 <= bleu(cand, refs, max_n=3) <= 1.0 + 1e-12


class TestCorpusBleu:
    def test_single_sentence_matches_sentence_bleu(self):
        cand = tokens("a b c d")
        refs = [tokens("a b c e")]
        assert corpus_bleu([cand], [refs], max_n=2) == pytest.approx(
            bleu(cand, refs, max_n=2), abs=1e-12)

    def test_replicated_pairs_leave_the_score_unchanged(self):
        cand = tokens("a b c d")
        refs = [tokens("a b c e")]
        one = corpus_bleu([cand], [refs], max_n=2)
        many = corpus_bleu([cand] * 5, [refs] * 5, max_n=2)
        assert many == pytest.approx(one, abs=1e-12)

    def test_pools_counts_rather_than_averaging_scores(self):
        # One perfect pair and one disjoint pair: averaging sentence scores
        # would give 0.5, pooling counts gives an intermediate precision.
        cands = [tokens("a b"), tokens("x y")]
        refs = [[tokens("a b")], [tokens("p q")]]
        pooled = corpus_bleu(cands, refs, max_n=1)
        assert pooled == pytest.approx(0.5, abs=1e-12)
        assert corpus_bleu([tokens("x")], [[tokens("y")]], max_n=1) == 0.0

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            corpus_bleu([tokens("a")], [], max_n=1)


def crafted_matrix():
    # Ranks by row: 1, 2, 3 with the correct candidate on the diagonal.
    scores = np.array([
        [5.0, 1.0, 0.0],
        [5.0, 3.0, 0.0],
        [5.0, 3.0, 1.0],
    ])
    return ScoreMatrix(scores, [{0}, {1}, {2}])


class TestRetrieval:
    def test_crafted_ranks_one_two_three(self):
        report = retrieval_metrics(crafted_matrix(), ks=(1, 5))
        assert report.ranks == (1, 2, 3)
        assert report.recall_at[1] == pytest.approx(1.0 / 3.0)
        assert report.recall_at[5] == 1.0
        assert report.median_rank == 2.0

    def test_identity_dominant_matrix(self):
        scores = np.full((4, 4), -1.0)
        np.fill_diagonal(scores, 3.0)
        report = retrieval_metrics(ScoreMatrix(scores, [{i} for i in range(4)]), ks=(1,))
        assert report.ranks == (1, 1, 1, 1)
        assert report.recall_at[1] == 1.0
        assert report.median_rank == 1.0

    def test_reversed_matrix_ranks_last(self):
        n = 5
        scores = np.tile(np.arange(n, 0, -1, dtype=float), (n, 1))
        correct = [{i} for i in range(n)]
        scores[np.arange(n), np.arange(n)] = -10.0
        report = retrieval_metrics(ScoreMatrix(scores, correct), ks=(1, n))
        assert report.ranks == (n,) * n
        assert report.recall_at[1] == 0.0
        assert report.recall_at[n] == 1.0
        assert report.median_rank == float(n)

    def test_even_count_median_averages_middles(self):
        scores = np.array([
            [9.0, 0.0, 0.0, 0.0],
            [9.0, 8.0, 0.0, 0.0],
            [9.0, 8.0, 7.0, 0.0],
            [9.0, 8.0, 7.0, 6.0],
        ])
        report = retrieval_metrics(ScoreMatrix(scores, [{0}, {1}, {2}, {3}]), ks=(1,))
        assert report.ranks == (1, 2, 3, 4)
        assert report.median_rank == 2.5

    def test_score_ties_break_by_candidate_index(self):
        scores = np.zeros((1, 3))
        report = retrieval_metrics(ScoreMatrix(scores, [{2}]), ks=(1,))
        assert report.ranks == (3,)

    def test_recall_non_decreasing_in_k(self):
        rng = np.random.default_rng(0)
        scores = rng.normal(size=(6, 6))
        m = ScoreMatrix(scores, [{i} for i in range(6)])
        report = retrieval_metrics(m, ks=(1, 2, 3, 4, 5, 6))
        values = [report.recall_at[k] for k in (1, 2, 3, 4, 5, 6)]
        assert values == sorted(values)
        assert values[-1] == 1.0

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_monotone_score_transform_is_invariant(self, seed):
        rng = np.random.default_rng(seed)
        scores = rng.normal(size=(4, 5))
        correct = [{int(rng.integers(0, 5))} for _ in range(4)]
        base = retrieval_metrics(ScoreMatrix(scores, correct), ks=(1, 3))
        moved = retrieval_metrics(ScoreMatrix(3.0 * scores + 7.0, correct), ks=(1, 3))
        assert base.ranks == moved.ranks
        assert base.recall_at == moved.recall_at
        assert base.median_rank == moved.median_rank

    def test_no_queries_is_refused(self):
        with pytest.raises(ValueError, match="no queries to rank"):
            retrieval_metrics(ScoreMatrix(np.zeros((0, 3)), ()))

    def test_matrix_validation(self):
        with pytest.raises(ValueError):
            ScoreMatrix(np.zeros(3), [{0}])
        with pytest.raises(ValueError):
            ScoreMatrix(np.zeros((2, 2)), [{0}])
        with pytest.raises(ValueError):
            ScoreMatrix(np.zeros((1, 2)), [{5}])
        with pytest.raises(ValueError):
            ScoreMatrix(np.zeros((1, 2)), [set()])


class TestScorePairs:
    def make_model(self):
        rng = np.random.default_rng(0)
        vocab = Vocabulary.from_words(["w0", "w1", "w2"])
        ext = make_extractor("identity", (4,))
        return build_model("caption", rng=rng, hidden=5, layers=1, cell="lstm",
                           extractor=ext, vocab=vocab, embed_dim=3)

    def test_single_pair_equals_caption_likelihood(self):
        m = self.make_model()
        rng = np.random.default_rng(1)
        image = rng.uniform(-1, 1, size=4)
        feat, _ = phi_forward(m.extractor, image)
        caption = (0, 1, m.vocab.eos)
        scores = score_pairs(m, [feat], [caption])
        assert scores.shape == (1, 1)
        assert scores[0, 0] == pytest.approx(
            caption_log_likelihood(m, feat, caption), abs=1e-12)

    def test_zero_params_make_rows_identical(self):
        m = self.make_model()
        m.params[:] = 0.0
        feats = [np.ones(4) * s for s in range(3)]
        caps = [(0, m.vocab.eos), (1, 2, m.vocab.eos), (2, m.vocab.eos)]
        scores = score_pairs(m, feats, caps)
        for j, cap in enumerate(caps):
            want = -len(cap) * math.log(m.vocab.size)
            for i in range(3):
                assert scores[i, j] == pytest.approx(want, abs=1e-12)


def stepwise_log_likelihood(m, visual, caption):
    step = caption_step if m.task == "caption" else perstep_decode_step
    state, prev, total = initial_state(m), m.vocab.bos, 0.0
    for tok in caption:
        dist, state = step(m, visual, prev, state)
        total += math.log(dist[tok])
        prev = tok
    return total


TOKEN_TOPOLOGIES = ["caption_1u", "caption_2u", "caption_2f", "perstep_decode"]


def record_layers(monkeypatch, m):
    """(first layer, layer count) of each engine pass of ``m``, in call order."""
    layers = []
    unroll = recseq.models._unroll

    def recorded(cells, *args, **kwargs):
        layers.append((next(k for k, c in enumerate(m.cells) if c is cells[0]), len(cells)))
        return unroll(cells, *args, **kwargs)

    monkeypatch.setattr(recseq.models, "_unroll", recorded)
    return layers


class TestBatchedScorePairs:
    def grid(self, topology):
        m = build_demo_model(topology, seed=2)
        batch = build_demo_batch(topology, m, seed=2, n_sequences=5)
        feats = [batch.example(b)[0] for b in range(len(batch))]
        if m.task == "caption":
            feats = [phi_forward(m.extractor, x)[0] for x in feats]
        eos = m.vocab.eos
        caps = [(eos,), (0, eos), (2, 1, 0, eos), (1, 1, eos), (0, 2, 2, 1, 0, 1, eos), (3, eos), (2, 0, eos)]
        return m, feats, caps

    @pytest.mark.parametrize("topology", ["caption_2f", "perstep_decode"])
    def test_entries_equal_stepwise_sums(self, topology):
        m, feats, caps = self.grid(topology)
        scores = score_pairs(m, feats, caps)
        assert scores.shape == (len(feats), len(caps))
        for i, feat in enumerate(feats):
            for j, cap in enumerate(caps):
                assert scores[i, j] == pytest.approx(stepwise_log_likelihood(m, feat, cap), rel=0, abs=1e-12)

    @pytest.mark.parametrize("topology", ["caption_2f", "perstep_decode"])
    def test_one_unroll_per_group_of_pairs(self, monkeypatch, unrolls, topology):
        # Passes of at most 40 padded steps: the 7 captions run through the
        # layers below the slot (none for perstep_decode) in two passes, then
        # the 35 pairs through the layers from the slot up in three or more.
        m, feats, caps = self.grid(topology)
        want = score_pairs(m, feats, caps)
        layers = record_layers(monkeypatch, m)
        monkeypatch.setattr(recseq.models, "_PASS_STEPS", 40)
        unrolls.clear()
        got = score_pairs(m, feats, caps)
        below = layers.count((0, m.slot_layer))
        assert below == (2 if m.slot_layer else 0)
        assert layers == [(0, m.slot_layer)] * below + [(m.slot_layer, m.n_layers - m.slot_layer)] * (len(layers) - below)
        if below:
            assert_passes_keep_the_budget(unrolls[:below], [len(c) for c in caps])
        assert len(unrolls) - below >= 3
        assert_passes_keep_the_budget(unrolls[below:], [len(c) for _ in feats for c in caps])
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_empty_sides_keep_their_shape(self):
        m, feats, caps = self.grid("caption_2f")
        assert score_pairs(m, [], caps).shape == (0, len(caps))
        assert score_pairs(m, feats, []).shape == (len(feats), 0)

    def assert_stepwise(self, m, feats, caps, request=None):
        """Scores equal the stepwise sums; with ``request``, returns the
        scoring's engine passes (the stepwise steps are not recorded)."""
        want = [[stepwise_log_likelihood(m, f, c) for c in caps] for f in feats]
        passes = None if request is None else request.getfixturevalue("unrolls")
        scores = score_pairs(m, feats, caps)
        assert scores.shape == (len(feats), len(caps))
        np.testing.assert_allclose(scores, want, rtol=0, atol=1e-12)
        return passes

    @pytest.mark.parametrize("topology", TOKEN_TOPOLOGIES)
    def test_duplicated_captions_equal_stepwise_sums(self, topology):
        m, feats, caps = self.grid(topology)
        self.assert_stepwise(m, feats, [caps[2], caps[0], caps[2], caps[4], caps[0], caps[4]])

    @pytest.mark.parametrize("topology", TOKEN_TOPOLOGIES)
    def test_one_image_many_captions_and_many_images_one_caption(self, topology):
        m, feats, caps = self.grid(topology)
        self.assert_stepwise(m, feats[:1], caps)
        self.assert_stepwise(m, feats, caps[4:5])

    @pytest.mark.parametrize("topology", TOKEN_TOPOLOGIES)
    def test_a_caption_longer_than_a_pass_runs_alone(self, monkeypatch, request, topology):
        m, feats, caps = self.grid(topology)
        monkeypatch.setattr(recseq.models, "_PASS_STEPS", 6)
        long = caps[4]
        assert len(long) > recseq.models._PASS_STEPS
        unrolls = self.assert_stepwise(m, feats[:2], caps[3:6], request)
        # Once on the caption side (below a slot at layer 2), once per image.
        with_long = [len(p) for p in unrolls if p.max() == len(long)]
        assert with_long == [1] * (2 + (m.slot_layer > 0))

    @pytest.mark.parametrize("topology", TOKEN_TOPOLOGIES)
    def test_split_caption_and_pair_passes_equal_stepwise_sums(self, monkeypatch, request, topology):
        m, feats, caps = self.grid(topology)
        monkeypatch.setattr(recseq.models, "_PASS_STEPS", 12)
        unrolls = self.assert_stepwise(m, feats, caps, request)
        ends = np.cumsum([len(p) for p in unrolls])
        below = int(np.flatnonzero(ends == len(caps))[0]) + 1 if m.slot_layer else 0
        assert below != 1 and len(unrolls) - below > 1
        if below:
            assert_passes_keep_the_budget(unrolls[:below], [len(c) for c in caps])
        assert_passes_keep_the_budget(unrolls[below:], [len(c) for _ in feats for c in caps])

    @pytest.mark.parametrize("topology", TOKEN_TOPOLOGIES)
    def test_each_caption_and_each_visual_vector_is_checked_once(self, monkeypatch, topology):
        m, feats, caps = self.grid(topology)
        calls = []

        def counting(name):
            check = getattr(recseq.models, name)

            def counted(m, x, *rest):
                calls.append((name, len(x)))
                return check(m, x, *rest)

            return counted

        for name in ("_check_visual", "_check_tokens"):
            monkeypatch.setattr(recseq.models, name, counting(name))
        score_pairs(m, feats, caps)
        assert calls == [("_check_visual", len(feats[0]))] * len(feats) + [("_check_tokens", len(caps))]

    @pytest.mark.parametrize("topology", TOKEN_TOPOLOGIES)
    def test_bad_inputs_raise_and_empty_sides_keep_their_shape(self, topology):
        m, feats, caps = self.grid(topology)
        eos = m.vocab.eos
        for bad in [(), (0, 1), (m.vocab.size, eos), (-1, eos)]:
            with pytest.raises(ValueError):
                score_pairs(m, feats, caps[:2] + [bad])
        bad_visual = [np.zeros(len(feats[0]) + 1)]
        if m.task == "perstep_decode":
            bad_visual.append(np.zeros(len(feats[0])))  # probability blocks that do not sum to one
        for bad in bad_visual:
            with pytest.raises(ValueError):
                score_pairs(m, feats[:2] + [bad], caps)
        assert score_pairs(m, [], caps).shape == (0, len(caps))
        assert score_pairs(m, feats, []).shape == (len(feats), 0)
        assert score_pairs(m, [], []).shape == (0, 0)

    def test_wrong_task_is_rejected(self):
        m = build_demo_model("classify", seed=0)
        with pytest.raises(ValueError):
            score_pairs(m, [np.zeros(6)], [(0, 1)])
        with pytest.raises(ValueError):
            caption_log_likelihood(m, np.zeros(6), (0, 1))


class TestBatchedClassification:
    LENGTHS = (3, 9, 14, 2, 20, 7, 11, 5, 16, 12, 4, 8, 6, 18, 19, 1, 10, 13)

    def videos(self):
        m = build_demo_model("classify", seed=4)
        rng = np.random.default_rng(4)
        shape = m.extractor.input_shape
        return m, [LabeledSequence(rng.uniform(-1, 1, (n,) + shape), k % 4) for k, n in enumerate(self.LENGTHS)]

    @pytest.mark.parametrize("clip_len", [None, 4, 6])
    def test_accuracy_equals_per_video_argmax(self, clip_len):
        m, videos = self.videos()
        assert min(len(v.frames) for v in videos) < 4
        hits = 0
        for v in videos:
            dist = classify_sequence(m, v.frames) if clip_len is None else clip_protocol_eval(m, v.frames, clip_len, 3)[0]
            hits += int(np.argmax(dist)) == v.label
        assert classification_accuracy(m, videos, clip_len=clip_len, stride=3) == hits / len(videos)

    def test_mixed_lengths_equal_one_sequence_calls(self):
        m, videos = self.videos()
        got = recseq.models._late_fusion(m, [v.frames for v in videos])
        want = np.array([classify_sequence(m, v.frames) for v in videos])
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)
        np.testing.assert_allclose(got.sum(axis=1), 1.0, rtol=0, atol=1e-12)

    def test_batched_clips_equal_single_clip_calls(self):
        m, videos = self.videos()
        for v in videos[:6]:
            got, per_clip = clip_protocol_eval(m, v.frames, 4, 3)
            want = [classify_sequence(m, v.frames[s:s + n]) for s, n in clip_windows(len(v.frames), 4, 3)]
            np.testing.assert_allclose(np.array(per_clip), np.array(want), rtol=0, atol=1e-14)
            np.testing.assert_array_equal(got, np.mean(per_clip, axis=0))

    def test_one_unroll_per_group_of_clips(self, monkeypatch, unrolls):
        # 51 clips run as three or more passes of at most 40 padded steps.
        m, videos = self.videos()
        monkeypatch.setattr(recseq.models, "_PASS_STEPS", 40)
        classification_accuracy(m, videos, clip_len=4, stride=3)
        assert len(unrolls) >= 3
        assert_passes_keep_the_budget(unrolls, [n for v in videos for _, n in clip_windows(len(v.frames), 4, 3)])

    def count_frames(self, monkeypatch):
        frames = []
        forward = recseq.models.phi_forward

        def counted(ext, x):
            frames.append(len(x))
            return forward(ext, x)

        monkeypatch.setattr(recseq.models, "phi_forward", counted)
        return frames

    def test_clip_protocol_extracts_each_frame_once(self, monkeypatch):
        m, videos = self.videos()
        frames = self.count_frames(monkeypatch)
        classification_accuracy(m, videos, clip_len=4, stride=3)
        assert frames == [sum(len(v.frames) for v in videos)]
        assert sum(n for v in videos for _, n in clip_windows(len(v.frames), 4, 3)) > frames[0]
        frames.clear()
        clip_protocol_eval(m, videos[4].frames, 4, 3)
        assert frames == [len(videos[4].frames)]

    def test_clips_straddling_a_pass_boundary_equal_single_clip_calls(self, monkeypatch, unrolls):
        # Passes of at most two 4-step clips split every video of three or
        # more clips; each pass extracts every frame of the videos it touches.
        m, videos = self.videos()
        windows = [clip_windows(len(v.frames), 4, 3) for v in videos]
        frames = self.count_frames(monkeypatch)
        monkeypatch.setattr(recseq.models, "_PASS_STEPS", 8)
        got = recseq.models._late_fusion(m, [v.frames for v in videos], windows)
        owners = [v for v, w in enumerate(windows) for _ in w]
        ends = np.cumsum([len(p) for p in unrolls])
        touched = [sorted(set(owners[end - len(p):end])) for p, end in zip(unrolls, ends)]
        assert sum(len(set(owners[:end]) & set(owners[end:])) for end in ends) >= 5
        assert frames == [sum(len(videos[v].frames) for v in vs) for vs in touched]
        want = [classify_sequence(m, v.frames[s:s + n]) for v, w in zip(videos, windows) for s, n in w]
        np.testing.assert_allclose(got, np.array(want), rtol=0, atol=1e-14)

    def test_a_bad_video_among_good_ones_is_named_before_stacking(self):
        m, videos = self.videos()
        bad = LabeledSequence(np.zeros((4, 5)), 0)
        with pytest.raises(ValueError, match=r"stack of \(6,\) frames, got \(5,\) frames"):
            classification_accuracy(m, [videos[0], bad])

    def test_wrong_task_is_rejected(self):
        m = build_demo_model("caption_1u", seed=0)
        frames = np.zeros((3, 7))
        with pytest.raises(ValueError):
            classify_sequence(m, frames)
        with pytest.raises(ValueError):
            clip_protocol_eval(m, frames, 2, 1)
        with pytest.raises(ValueError):
            classification_accuracy(m, [LabeledSequence(frames, 0)])


class TestFusion:
    def test_arithmetic_example_is_exact(self):
        fused = fuse_streams([[0.8, 0.2]], [[0.2, 0.8]], 1.0 / 3.0, 2.0 / 3.0)
        assert list(fused[0]) == [0.4, 0.6]

    def test_full_weight_on_one_stream(self):
        a = [np.array([0.1, 0.9]), np.array([0.5, 0.5])]
        b = [np.array([0.9, 0.1]), np.array([0.3, 0.7])]
        fused = fuse_streams(a, b, 1.0, 0.0)
        for got, want in zip(fused, a):
            np.testing.assert_array_equal(got, want)

    def test_equal_streams_pass_through(self):
        a = [np.array([0.25, 0.75])]
        fused = fuse_streams(a, [x.copy() for x in a], 0.3, 0.7)
        np.testing.assert_allclose(fused[0], a[0], rtol=0, atol=1e-15)

    @given(st.integers(min_value=0, max_value=10_000),
           st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=50, deadline=None)
    def test_simplex_preserved(self, seed, w_a):
        rng = np.random.default_rng(seed)
        raw_a = rng.uniform(0.05, 1.0, size=(3, 4))
        raw_b = rng.uniform(0.05, 1.0, size=(3, 4))
        a = [row / row.sum() for row in raw_a]
        b = [row / row.sum() for row in raw_b]
        fused = fuse_streams(a, b, w_a, 1.0 - w_a)
        for dist in fused:
            assert abs(float(np.sum(dist)) - 1.0) <= 1e-12
            assert np.all(dist >= -1e-15)

    def test_shared_argmax_survives_fusion(self):
        a = [np.array([0.7, 0.2, 0.1])]
        b = [np.array([0.5, 0.3, 0.2])]
        fused = fuse_streams(a, b, 0.4, 0.6)
        assert int(np.argmax(fused[0])) == 0

    def test_rejects_bad_weights_and_shapes(self):
        a = [np.array([0.5, 0.5])]
        b = [np.array([0.5, 0.5])]
        with pytest.raises(ValueError):
            fuse_streams(a, b, 0.6, 0.6)
        with pytest.raises(ValueError):
            fuse_streams(a, b, -0.2, 1.2)
        with pytest.raises(ValueError):
            fuse_streams(a, [np.array([0.2, 0.3, 0.5])], 0.5, 0.5)
        with pytest.raises(ValueError):
            fuse_streams(a, [], 0.5, 0.5)


class TestClipProtocol:
    def make_model(self, cell="lstm"):
        rng = np.random.default_rng(3)
        ext = make_extractor("identity", (3,))
        return build_model("classify", rng=rng, hidden=4, layers=1, cell=cell,
                           extractor=ext, n_classes=3)

    def test_24_frames_give_exactly_two_clips(self):
        assert clip_windows(24, clip_len=16, stride=8) == [(0, 16), (8, 16)]

    def test_short_video_gives_one_truncated_clip(self):
        assert clip_windows(10, clip_len=16, stride=8) == [(0, 10)]

    def test_exact_length_gives_one_clip(self):
        assert clip_windows(16, clip_len=16, stride=8) == [(0, 16)]

    def test_stride_arithmetic(self):
        assert clip_windows(40, clip_len=16, stride=8) == [(0, 16), (8, 16), (16, 16), (24, 16)]
        assert clip_windows(17, clip_len=16, stride=8) == [(0, 16)]
        # windows never run past the end
        for n in range(1, 60):
            for start, length in clip_windows(n):
                assert start + length <= n

    def test_matches_hand_rolled_loop(self):
        m = self.make_model()
        rng = np.random.default_rng(7)
        video = rng.uniform(-1, 1, size=(30, 3))
        got, per_clip = clip_protocol_eval(m, video, clip_len=16, stride=8)
        windows = clip_windows(30, 16, 8)
        dists = [classify_sequence(m, video[s:s + l]) for s, l in windows]
        assert len(per_clip) == len(windows)
        np.testing.assert_allclose(got, np.mean(dists, axis=0), rtol=0, atol=1e-14)

    def test_video_of_clip_length_equals_classify_sequence(self):
        m = self.make_model()
        rng = np.random.default_rng(8)
        video = rng.uniform(-1, 1, size=(16, 3))
        got, per_clip = clip_protocol_eval(m, video, 16, 8)
        assert len(per_clip) == 1
        np.testing.assert_allclose(got, classify_sequence(m, video), rtol=0, atol=1e-14)

    def test_stateless_model_on_identical_frames_is_single_frame_softmax(self):
        m = self.make_model(cell="rnn")
        m.cells[0].W_hh[:] = 0.0
        frame = np.array([0.3, -0.7, 0.5])
        video = np.tile(frame, (24, 1))
        got, _ = clip_protocol_eval(m, video, clip_len=16, stride=8)
        single = classify_sequence(m, frame[None, :])
        np.testing.assert_allclose(got, single, rtol=0, atol=1e-12)
