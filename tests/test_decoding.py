"""Search and sampling behavior, checked against exhaustive enumeration."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import recseq.decoding
from recseq.decoding import Hypothesis, _best, beam_search, greedy_decode, sample_decode
from recseq.models import Vocabulary, build_model, caption_log_likelihood, make_stepper
from recseq.tensor_ops import softmax
from recseq.training import build_demo_batch, build_demo_model


def demo_features(topology, m, seed=0):
    x, _ = build_demo_batch(topology, m, seed=seed).example(0)
    return x


def zero_caption_model(n_words=2, hidden=4):
    vocab = Vocabulary.from_words([f"w{i}" for i in range(n_words)])
    from recseq.features import make_extractor

    rng = np.random.default_rng(0)
    ext = make_extractor("identity", (3,))
    m = build_model("caption", rng=rng, hidden=hidden, layers=1, cell="lstm",
                    extractor=ext, vocab=vocab, embed_dim=3)
    m.params[:] = 0.0
    return m


def exhaustive_best(m, features, max_len):
    """Highest-probability EOS-terminated sequence by full enumeration.

    Ties break toward the lexically smallest token tuple, mirroring the
    contract of the search strategies.
    """
    state0, step = make_stepper(m, features)
    eos = m.vocab.eos
    best = None

    def consider(logp, tokens):
        nonlocal best
        if best is None or (-logp, tokens) < (-best[1], best[0]):
            best = (tokens, logp)

    def expand(prefix, logp, state, prev, t):
        if t == max_len:
            return
        lp, new_state = step(state, prev, t)
        for k in range(m.vocab.size):
            tokens = prefix + (k,)
            total = logp + float(lp[k])
            if k == eos:
                consider(total, tokens)
            else:
                expand(tokens, total, new_state, k, t + 1)

    expand((), 0.0, state0, m.vocab.bos, 0)
    return best


def reference_beam(m, features, width, max_len):
    """Beam search that scores and sorts every extension of every live
    hypothesis, as (tokens, logp, finished) triples."""
    state0, step = make_stepper(m, features)
    live = [((), 0.0, state0)]
    done = []
    for t in range(max_len):
        if not live or len(done) >= width:
            break
        candidates = []
        for tokens, logp, state in live:
            lp, new_state = step(state, tokens[-1] if tokens else m.vocab.bos, t)
            candidates += [(tokens + (k,), logp + float(lp[k]), new_state) for k in range(m.vocab.size)]
        candidates.sort(key=lambda c: (-c[1], c[0]))
        live = []
        for c in candidates[:width]:
            (done if c[0][-1] == m.vocab.eos else live).append(c)
    done.sort(key=lambda c: (-c[1], c[0]))
    return [(tokens, logp, True) for tokens, logp, _ in done[:width]]


def reference_samples(m, features, n_samples, temperature, max_len, seed):
    """One inverse-CDF draw per step from one generator, sample after sample."""
    rng = np.random.default_rng(seed)
    state0, step = make_stepper(m, features)
    pool = []
    for _ in range(n_samples):
        state, tokens, logp, prev = state0, (), 0.0, m.vocab.bos
        for t in range(max_len):
            lp, state = step(state, prev, t)
            cdf = np.cumsum(softmax(temperature * lp))
            prev = min(int(np.searchsorted(cdf, rng.random(), side="right")), m.vocab.size - 1)
            tokens += (prev,)
            logp += float(lp[prev])
            if prev == m.vocab.eos:
                break
        pool.append((tokens, logp, tokens[-1] == m.vocab.eos))
    return sorted(pool, key=lambda h: (-h[1], h[0]))


def triples(hyps):
    return [(h.tokens, h.logp, h.finished) for h in hyps]


class TestGreedy:
    def test_uniform_model_breaks_ties_toward_token_zero(self):
        m = zero_caption_model()
        hyp = greedy_decode(m, np.zeros(3), max_len=3)
        assert hyp.tokens == (0, 0, 0)
        assert not hyp.finished
        assert hyp.logp == pytest.approx(3 * math.log(1.0 / m.vocab.size), abs=1e-12)

    def test_biased_model_emits_eos_immediately(self):
        m = zero_caption_model()
        m.prediction.b_z[m.vocab.eos] = 5.0
        hyp = greedy_decode(m, np.zeros(3), max_len=6)
        assert hyp.tokens == (m.vocab.eos,)
        assert hyp.finished
        z = np.zeros(m.vocab.size)
        z[m.vocab.eos] = 5.0
        want = z[m.vocab.eos] - math.log(np.sum(np.exp(z)))
        assert hyp.logp == pytest.approx(want, abs=1e-12)

    def test_max_len_truncates_unfinished(self):
        m = zero_caption_model()
        m.prediction.b_z[1] = 8.0
        hyp = greedy_decode(m, np.zeros(3), max_len=4)
        assert hyp.tokens == (1, 1, 1, 1)
        assert not hyp.finished

    def test_rejects_nonpositive_max_len(self):
        m = zero_caption_model()
        with pytest.raises(ValueError):
            greedy_decode(m, np.zeros(3), max_len=0)


class TestBeam:
    @pytest.mark.parametrize("topology", ["caption_1u", "caption_2f", "encode_decode"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_saturating_width_matches_exhaustive(self, topology, seed):
        m = build_demo_model(topology, seed=seed)
        feats = demo_features(topology, m, seed=seed)
        max_len = 4
        want_tokens, want_logp = exhaustive_best(m, feats, max_len)
        results = beam_search(m, feats, width=m.vocab.size ** max_len, max_len=max_len)
        assert results, "saturating beam found no finished sequence"
        assert results[0].tokens == want_tokens
        assert results[0].logp == pytest.approx(want_logp, abs=1e-12)

    @pytest.mark.parametrize("topology", ["caption_1u", "encode_decode"])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_width_one_equals_greedy_when_it_finishes(self, topology, seed):
        m = build_demo_model(topology, seed=seed)
        feats = demo_features(topology, m, seed=seed)
        greedy = greedy_decode(m, feats, max_len=6)
        beam = beam_search(m, feats, width=1, max_len=6)
        if greedy.finished:
            assert len(beam) == 1
            assert beam[0].tokens == greedy.tokens
            assert beam[0].logp == pytest.approx(greedy.logp, abs=1e-12)
        else:
            assert beam == []

    def test_no_finished_hypotheses_returns_empty(self):
        m = zero_caption_model()
        m.prediction.b_z[1] = 10.0
        assert beam_search(m, np.zeros(3), width=2, max_len=3) == []

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_exhaustive_bounds_every_width(self, seed):
        m = build_demo_model("caption_1u", seed=seed)
        feats = demo_features("caption_1u", m, seed=seed)
        max_len = 4
        _, best_logp = exhaustive_best(m, feats, max_len)
        for width in (1, 2, 3, 8):
            results = beam_search(m, feats, width=width, max_len=max_len)
            for h in results:
                assert h.logp <= best_logp + 1e-12
            assert len(results) <= width
            assert all(h.finished for h in results)
            logps = [h.logp for h in results]
            assert logps == sorted(logps, reverse=True)

    def test_finished_logp_matches_caption_likelihood(self):
        from recseq.features import phi_forward

        m = build_demo_model("caption_2u", seed=5)
        image = demo_features("caption_2u", m, seed=5)
        visual, _ = phi_forward(m.extractor, image)
        hyps = beam_search(m, image, width=4, max_len=5)
        assert hyps
        for h in hyps:
            want = caption_log_likelihood(m, visual, h.tokens)
            assert h.logp == pytest.approx(want, abs=1e-10)

    @pytest.mark.parametrize("bias", [None, [1.0, 2.0, 3.0, 0.0, 2.5]])
    @pytest.mark.parametrize("width", [1, 2, 3, 4, 5, 6])
    def test_ties_across_parents_break_as_sorting_every_extension(self, width, bias):
        # With zero weights every step emits the same distribution: with no
        # bias every extension ties, with one every reordering of a prefix
        # ties while live parents are out of token order.
        m = zero_caption_model(n_words=3)
        if bias is not None:
            m.prediction.b_z[:] = bias
        assert triples(beam_search(m, np.zeros(3), width, 4)) == reference_beam(m, np.zeros(3), width, 4)

    @pytest.mark.parametrize("topology", ["caption_1u", "caption_2f", "encode_decode", "perstep_decode"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_every_width_equals_sorting_every_extension(self, topology, seed):
        m = build_demo_model(topology, seed=seed)
        feats = demo_features(topology, m, seed=seed)
        for width in range(1, 7):
            assert triples(beam_search(m, feats, width, 5)) == reference_beam(m, feats, width, 5)

    @pytest.mark.parametrize("width", [4, 8])
    def test_captioning_sized_beam_equals_sorting_every_extension(self, width):
        # A factored two-layer model over ~1000 words whose output bias falls
        # off with word rank, so that its distributions are peaked as after
        # training, and whose hypotheses finish at several lengths.
        from recseq.features import make_extractor

        rng = np.random.default_rng(width)
        vocab = Vocabulary.from_words([f"w{i}" for i in range(998)])
        m = build_model("caption", rng=rng, hidden=32, layers=2, cell="lstm", vocab=vocab, embed_dim=16,
                        extractor=make_extractor("linear", (24,), out_dim=16, rng=rng), factored=True)
        m.prediction.W_z *= 5.0
        m.prediction.b_z[:] = -2.0 * np.log1p(rng.permutation(vocab.size))
        m.prediction.b_z[vocab.eos] = -1.0
        image = rng.standard_normal(24)
        got = triples(beam_search(m, image, width, 8))
        assert len(got) == width and len({len(tokens) for tokens, _, _ in got}) > 2
        assert got == reference_beam(m, image, width, 8)

    def test_rejects_bad_width(self):
        m = zero_caption_model()
        with pytest.raises(ValueError):
            beam_search(m, np.zeros(3), width=0, max_len=3)


class TestSelection:
    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_equals_a_stable_sort_of_every_score(self, data):
        # Few distinct values make ties at the k-th score common.
        rows, cols = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 8))
        values = st.sampled_from([-3.0, -2.0, -1.0, 0.0, -np.inf, np.inf, np.nan])
        scores = np.array(data.draw(st.lists(values, min_size=rows * cols, max_size=rows * cols))).reshape(rows, cols)
        width = data.draw(st.integers(1, rows * cols + 3))
        want = np.argsort(-scores, axis=None, kind="stable")[:width]
        assert _best(scores, width).tolist() == want.tolist()


class TestSampling:
    @pytest.mark.parametrize("topology", ["caption_1u", "encode_decode"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_huge_temperature_reproduces_greedy(self, topology, seed):
        m = build_demo_model(topology, seed=seed)
        feats = demo_features(topology, m, seed=seed)
        greedy = greedy_decode(m, feats, max_len=6)
        sampled = sample_decode(m, feats, n_samples=1, temperature=1e6, max_len=6, seed=seed)
        assert len(sampled) == 1
        assert sampled[0].tokens == greedy.tokens
        assert sampled[0].logp == pytest.approx(greedy.logp, abs=1e-12)

    def test_same_seed_same_pool(self):
        m = build_demo_model("caption_1u", seed=1)
        feats = demo_features("caption_1u", m, seed=1)
        a = sample_decode(m, feats, n_samples=8, temperature=1.0, max_len=5, seed=3)
        b = sample_decode(m, feats, n_samples=8, temperature=1.0, max_len=5, seed=3)
        assert [(h.tokens, h.logp) for h in a] == [(h.tokens, h.logp) for h in b]

    def test_different_seeds_differ(self):
        m = build_demo_model("caption_1u", seed=1)
        feats = demo_features("caption_1u", m, seed=1)
        a = sample_decode(m, feats, n_samples=8, temperature=1.0, max_len=5, seed=3)
        b = sample_decode(m, feats, n_samples=8, temperature=1.0, max_len=5, seed=4)
        assert [h.tokens for h in a] != [h.tokens for h in b]

    def test_pool_is_ranked_best_first(self):
        m = build_demo_model("encode_decode", seed=2)
        feats = demo_features("encode_decode", m, seed=2)
        pool = sample_decode(m, feats, n_samples=16, temperature=1.0, max_len=5, seed=0)
        keys = [(-h.logp, h.tokens) for h in pool]
        assert keys == sorted(keys)

    @pytest.mark.parametrize("temperature", [1.0, 2.0])
    def test_first_step_frequencies_follow_tempered_softmax(self, temperature):
        m = build_demo_model("caption_1u", seed=9)
        feats = demo_features("caption_1u", m, seed=9)
        state0, step = make_stepper(m, feats)
        lp, _ = step(state0, m.vocab.bos, 0)
        expected = softmax(temperature * lp)
        n = 4000
        pool = sample_decode(m, feats, n_samples=n, temperature=temperature, max_len=1, seed=0)
        counts = np.zeros(m.vocab.size)
        for h in pool:
            counts[h.tokens[0]] += 1
        for k in range(m.vocab.size):
            sigma = math.sqrt(n * expected[k] * (1 - expected[k]))
            assert abs(counts[k] - n * expected[k]) <= 4 * sigma + 1

    @pytest.mark.parametrize("topology", ["caption_1u", "encode_decode"])
    @pytest.mark.parametrize("temperature", [1.0, 2.0])
    def test_pool_equals_a_per_sample_reference(self, topology, temperature):
        m = build_demo_model(topology, seed=4)
        feats = demo_features(topology, m, seed=4)
        got = sample_decode(m, feats, n_samples=8, temperature=temperature, max_len=5, seed=7)
        assert triples(got) == reference_samples(m, feats, 8, temperature, 5, seed=7)

    @pytest.mark.parametrize("topology", ["caption_1u", "encode_decode"])
    def test_first_step_runs_once_for_the_whole_pool(self, monkeypatch, topology):
        m = build_demo_model(topology, seed=4)
        feats = demo_features(topology, m, seed=4)
        calls = []

        def counting_stepper(model, features):
            state, step = make_stepper(model, features)

            def counted(s, prev, t):
                calls.append(t)
                return step(s, prev, t)

            return state, counted

        monkeypatch.setattr(recseq.decoding, "make_stepper", counting_stepper)
        got = sample_decode(m, feats, n_samples=8, temperature=1.0, max_len=5, seed=7)
        assert triples(got) == reference_samples(m, feats, 8, 1.0, 5, seed=7)
        assert calls.count(0) == 1
        assert len(calls) == sum(len(h.tokens) for h in got) - (8 - 1)

    def test_rejects_bad_arguments(self):
        m = zero_caption_model()
        with pytest.raises(ValueError):
            sample_decode(m, np.zeros(3), n_samples=0, temperature=1.0, max_len=3)
        for temperature in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                sample_decode(m, np.zeros(3), n_samples=1, temperature=temperature, max_len=3)
        with pytest.raises(ValueError):
            sample_decode(m, np.zeros(3), n_samples=1, temperature=1.0, max_len=0)


class TestHypothesis:
    def test_fields_round_trip(self):
        h = Hypothesis((1, 2, 5), -3.25, True)
        assert h.tokens == (1, 2, 5)
        assert h.logp == -3.25
        assert h.finished
        assert h.state is None
