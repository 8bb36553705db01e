"""Task model wiring: late fusion, caption steps, shared recurrence."""

import numpy as np
import pytest

from recseq.cells import LstmCellParams
from recseq.features import IdentityExtractor, make_extractor
from recseq.models import (
    EmbeddingParams,
    ModelGrads,
    ModelSpec,
    PredictionParams,
    Vocabulary,
    build_model,
    caption_log_likelihood,
    caption_step,
    classify_sequence,
    embed,
    encode_decode,
    initial_state,
    make_stepper,
    perstep_decode_step,
    sequence_loss_and_grads,
)
from recseq.tensor_ops import softmax
from recseq.training import (
    GRADCHECK_TOPOLOGIES,
    TrainConfig,
    build_demo_batch,
    build_demo_model,
    sequence_nll,
    train_epoch,
)


def small_vocab():
    return Vocabulary.from_words(["w0", "w1", "w2", "w3"])


def test_vocabulary_round_trip_and_markers():
    v = small_vocab()
    assert v.size == 6
    assert v.tokens[v.bos] == "<bos>" and v.tokens[v.eos] == "<eos>"
    ids = v.encode(["w2", "w0"])
    assert v.decode(ids) == ["w2", "w0"]
    assert v.from_dict(v.to_dict()).tokens == v.tokens


def test_vocabulary_rejects_duplicates_and_whitespace():
    with pytest.raises(ValueError):
        Vocabulary(["a", "a"], 0, 1)
    with pytest.raises(ValueError):
        Vocabulary(["a", "b c"], 0, 1)


def test_vocabulary_unknown_token_behaviour():
    v = small_vocab()
    with pytest.raises(ValueError):
        v.index("missing")
    vu = Vocabulary.from_words(["w0"], with_unk=True)
    assert vu.index("missing") == vu.unk


def test_embed_reads_columns():
    W = np.arange(12.0).reshape(3, 4)
    e = EmbeddingParams(W)
    assert np.array_equal(embed(e, 2), np.array([2.0, 6.0, 10.0]))
    ident = EmbeddingParams(np.eye(4))
    assert np.array_equal(embed(ident, 1), np.eye(4)[:, 1])
    with pytest.raises(ValueError):
        embed(e, 4)


def test_classify_late_fusion_is_mean_of_step_softmaxes():
    rng = np.random.default_rng(0)
    ext = make_extractor("linear", (3,), out_dim=4, rng=rng)
    m = build_model("classify", rng=rng, hidden=5, layers=1, extractor=ext, n_classes=3)
    frames = rng.uniform(-1, 1, (3, 3))
    dist = classify_sequence(m, frames)

    # independent recomputation: run the stack by hand and average
    from recseq.cells import _unroll
    from recseq.features import phi_forward

    feats = [phi_forward(m.extractor, fr)[0] for fr in frames]
    hs, _, _ = _unroll(m.cells, feats)
    manual = np.mean([softmax(m.prediction.W_z @ h + m.prediction.b_z) for h in hs[-1]], axis=0)
    assert np.max(np.abs(dist - manual)) < 1e-14
    assert abs(float(np.sum(dist)) - 1.0) < 1e-12


def test_classify_single_step_equals_step_softmax():
    rng = np.random.default_rng(1)
    ext = IdentityExtractor((4,))
    m = build_model("classify", rng=rng, hidden=6, layers=1, extractor=ext, n_classes=3)
    frame = rng.uniform(-1, 1, (1, 4))
    dist = classify_sequence(m, frame)
    from recseq.cells import lstm_step

    h, _, _ = lstm_step(m.cells[0], frame[0], np.zeros(6), np.zeros(6))
    assert np.allclose(dist, softmax(m.prediction.W_z @ h + m.prediction.b_z), atol=1e-14)


def test_classify_identical_frames_stateless_cell_collapses():
    # zero recurrent weights on a plain RNN: every step sees only its frame
    rng = np.random.default_rng(2)
    ext = IdentityExtractor((3,))
    m = build_model("classify", rng=rng, hidden=4, layers=1, cell="rnn", extractor=ext, n_classes=2)
    m.cells[0].W_hh[:] = 0.0
    frame = rng.uniform(-1, 1, 3)
    frames = np.stack([frame] * 5)
    dist = classify_sequence(m, frames)
    single = classify_sequence(m, frame[None, :])
    assert np.max(np.abs(dist - single)) < 1e-14


def test_classify_empty_rejected():
    rng = np.random.default_rng(3)
    m = build_model("classify", rng=rng, hidden=4, extractor=IdentityExtractor((2,)), n_classes=2)
    with pytest.raises(ValueError):
        classify_sequence(m, np.zeros((0, 2)))


@pytest.mark.parametrize("frame_shape", [(2,), (1, 6, 6)])
def test_classify_rejects_one_frame_in_place_of_a_video(frame_shape):
    rng = np.random.default_rng(3)
    variant = "identity" if len(frame_shape) == 1 else "smallconv"
    ext = make_extractor(variant, frame_shape, out_dim=None if variant == "identity" else 3, rng=rng)
    m = build_model("classify", rng=rng, hidden=4, extractor=ext, n_classes=2)
    with pytest.raises(ValueError, match="stack of"):
        classify_sequence(m, np.zeros(frame_shape))
    assert classify_sequence(m, np.zeros((1,) + frame_shape)).shape == (2,)


def test_caption_step_matches_manual_composition():
    rng = np.random.default_rng(4)
    vocab = small_vocab()
    ext = make_extractor("linear", (5,), out_dim=4, rng=rng)
    m = build_model("caption", rng=rng, hidden=6, layers=2, extractor=ext, vocab=vocab, embed_dim=3)
    from recseq.cells import lstm_step
    from recseq.features import phi_forward

    img = rng.uniform(-1, 1, 5)
    feat, _ = phi_forward(m.extractor, img)
    state = initial_state(m)
    dist, _ = caption_step(m, feat, vocab.bos, state)

    u = np.concatenate([m.embedding.W_e[:, vocab.bos], feat])
    h1, _, _ = lstm_step(m.cells[0], u, np.zeros(6), np.zeros(6))
    h2, _, _ = lstm_step(m.cells[1], h1, np.zeros(6), np.zeros(6))
    manual = softmax(m.prediction.W_z @ h2 + m.prediction.b_z)
    assert np.max(np.abs(dist - manual)) < 1e-14


def test_caption_zero_params_uniform():
    vocab = small_vocab()
    ext = IdentityExtractor((4,))
    cells = [LstmCellParams.zeros(5, 3 + 4)]
    m = ModelSpec(
        "caption", cells, PredictionParams(np.zeros((6, 5)), np.zeros(6)),
        extractor=ext, vocab=vocab, embedding=EmbeddingParams(np.zeros((3, 6))),
    )
    dist, _ = caption_step(m, np.ones(4), vocab.bos, initial_state(m))
    assert np.max(np.abs(dist - 1.0 / 6.0)) < 1e-14


def test_factored_first_layer_ignores_image():
    rng = np.random.default_rng(5)
    vocab = small_vocab()
    ext = IdentityExtractor((4,))
    m = build_model("caption", rng=rng, hidden=6, layers=2, extractor=ext,
                    vocab=vocab, embed_dim=3, factored=True)
    assert m.inject_layer == 2
    from recseq.cells import _unroll

    e = m.embedding.W_e[:, vocab.bos]
    img_a = np.array([1.0, -1.0, 0.5, 2.0])
    img_b = -img_a
    hs_a, _, _ = _unroll(m.cells, [e], inject=img_a, inject_layer=1)
    hs_b, _, _ = _unroll(m.cells, [e], inject=img_b, inject_layer=1)
    # layer 1 state identical bit for bit; layer 2 differs
    assert np.array_equal(hs_a[0][0], hs_b[0][0])
    assert not np.allclose(hs_a[1][0], hs_b[1][0])


def test_caption_log_likelihood_matches_stepwise_accumulation():
    rng = np.random.default_rng(6)
    vocab = small_vocab()
    ext = IdentityExtractor((4,))
    m = build_model("caption", rng=rng, hidden=5, layers=1, extractor=ext, vocab=vocab, embed_dim=3)
    img = rng.uniform(-1, 1, 4)
    tokens = [0, 2, 1, vocab.eos]
    total = caption_log_likelihood(m, img, tokens)

    state = initial_state(m)
    prev = vocab.bos
    manual = 0.0
    for tok in tokens:
        dist, state = caption_step(m, img, prev, state)
        manual += float(np.log(dist[tok]))
        prev = tok
    assert abs(total - manual) < 1e-12


def test_longer_caption_strictly_less_likely():
    rng = np.random.default_rng(7)
    vocab = small_vocab()
    m = build_model("caption", rng=rng, hidden=5, layers=1,
                    extractor=IdentityExtractor((4,)), vocab=vocab, embed_dim=3)
    img = rng.uniform(-1, 1, 4)
    short = caption_log_likelihood(m, img, [1, vocab.eos])
    longer = caption_log_likelihood(m, img, [1, 2, vocab.eos])
    # each extra step multiplies in a probability < 1
    assert longer < short


def test_caption_requires_eos():
    rng = np.random.default_rng(8)
    vocab = small_vocab()
    m = build_model("caption", rng=rng, hidden=5, layers=1,
                    extractor=IdentityExtractor((4,)), vocab=vocab, embed_dim=3)
    with pytest.raises(ValueError):
        caption_log_likelihood(m, np.zeros(4), [1, 2])


def test_encode_decode_zero_params_uniform():
    vocab = small_vocab()
    cells = [LstmCellParams.zeros(5, 3 + 2)]
    m = ModelSpec(
        "encode_decode", cells, PredictionParams(np.zeros((6, 5)), np.zeros(6)),
        vocab=vocab, embedding=EmbeddingParams(np.zeros((3, 6))), input_dim=2,
    )
    dists = encode_decode(m, np.ones((3, 2)), max_out_len=2)
    assert len(dists) == 2
    for d in dists:
        assert np.max(np.abs(d - 1.0 / 6.0)) < 1e-14
    assert encode_decode(m, np.ones((3, 2)), max_out_len=0) == []


def test_encode_decode_single_input_predicts_immediately():
    rng = np.random.default_rng(9)
    vocab = small_vocab()
    m = build_model("encode_decode", rng=rng, hidden=5, vocab=vocab, embed_dim=3, input_dim=2)
    from recseq.cells import lstm_step

    x = np.array([0.4, -0.7])
    state, step = make_stepper(m, x[None, :])
    logp, _ = step(state, vocab.bos, 0)
    # T=1: the first step already carries [embed(bos), x_0]
    u = np.concatenate([m.embedding.W_e[:, vocab.bos], x])
    h, _, _ = lstm_step(m.cells[0], u, np.zeros(5), np.zeros(5))
    manual = m.prediction.W_z @ h + m.prediction.b_z
    manual = manual - np.log(np.sum(np.exp(manual - np.max(manual)))) - np.max(manual)
    assert np.allclose(logp, manual, atol=1e-12)


def test_encode_decode_loss_counts_only_emissions():
    rng = np.random.default_rng(10)
    vocab = small_vocab()
    m = build_model("encode_decode", rng=rng, hidden=5, vocab=vocab, embed_dim=3, input_dim=2)
    inputs = rng.uniform(-1, 1, (4, 2))
    targets = (1, 0, vocab.eos)
    nll, per_step = sequence_loss_and_grads(m, (inputs, targets))
    assert len(per_step) == 3
    assert abs(nll - sum(per_step)) < 1e-12


def test_perstep_rejects_bad_simplex():
    rng = np.random.default_rng(11)
    vocab = small_vocab()
    m = build_model("perstep_decode", rng=rng, hidden=5, vocab=vocab, embed_dim=3,
                    input_dim=6, visual_mode="prob", visual_blocks=(3, 3))
    bad = np.array([0.5, 0.2, 0.2, 0.4, 0.3, 0.3])  # first block sums to 0.9
    with pytest.raises(ValueError):
        perstep_decode_step(m, bad, vocab.bos, initial_state(m))
    good = np.array([0.5, 0.3, 0.2, 0.4, 0.3, 0.3])
    dist, _ = perstep_decode_step(m, good, vocab.bos, initial_state(m))
    assert abs(float(np.sum(dist)) - 1.0) < 1e-12


def test_perstep_point_mass_prob_equals_hard_labels():
    # probability blocks concentrated on one label reproduce the one-hot path
    rng = np.random.default_rng(12)
    vocab = small_vocab()
    m = build_model("perstep_decode", rng=rng, hidden=5, vocab=vocab, embed_dim=3,
                    input_dim=6, visual_mode="prob", visual_blocks=(3, 3))
    onehot = np.array([0.0, 1.0, 0.0, 1.0, 0.0, 0.0])
    hard = ModelSpec(
        "perstep_decode", m.cells, m.prediction, vocab=m.vocab, embedding=m.embedding,
        input_dim=6, visual_mode="max", visual_blocks=(3, 3),
    )
    d_prob, _ = perstep_decode_step(m, onehot, vocab.bos, initial_state(m))
    d_hard, _ = perstep_decode_step(hard, onehot, vocab.bos, initial_state(hard))
    assert np.max(np.abs(d_prob - d_hard)) < 1e-12


def test_perstep_visual_blocks_must_cover_vector():
    rng = np.random.default_rng(13)
    vocab = small_vocab()
    with pytest.raises(ValueError):
        build_model("perstep_decode", rng=rng, hidden=5, vocab=vocab, embed_dim=3,
                    input_dim=6, visual_mode="prob", visual_blocks=(3, 4))


def test_visual_vector_duplicated_every_step():
    # unfactored caption: the image feature is part of each step's input
    rng = np.random.default_rng(14)
    vocab = small_vocab()
    m = build_model("caption", rng=rng, hidden=5, layers=1,
                    extractor=IdentityExtractor((4,)), vocab=vocab, embed_dim=3)
    img = rng.uniform(-1, 1, 4)
    state = initial_state(m)
    _, state1 = caption_step(m, img, vocab.bos, state)
    dist_a, _ = caption_step(m, img, 1, state1)
    dist_b, _ = caption_step(m, img * 2.0, 1, state1)
    assert not np.allclose(dist_a, dist_b)


def test_build_model_validation_errors():
    rng = np.random.default_rng(15)
    vocab = small_vocab()
    with pytest.raises(ValueError):
        build_model("caption", rng=rng, hidden=4, layers=3,
                    extractor=IdentityExtractor((4,)), vocab=vocab, embed_dim=3)
    with pytest.raises(ValueError):
        build_model("caption", rng=rng, hidden=4, layers=1,
                    extractor=IdentityExtractor((4,)), vocab=vocab, embed_dim=3, factored=True)
    with pytest.raises(ValueError):
        build_model("classify", rng=rng, hidden=4, extractor=IdentityExtractor((4,)), n_classes=1)
    with pytest.raises(ValueError):
        build_model("encode_decode", rng=rng, hidden=4, vocab=vocab, embed_dim=3)
    with pytest.raises(ValueError):
        build_model("unknown", rng=rng, hidden=4)


def test_model_blocks_names_are_stable():
    rng = np.random.default_rng(16)
    vocab = small_vocab()
    m = build_model("caption", rng=rng, hidden=4, layers=2,
                    extractor=make_extractor("linear", (3,), out_dim=2, rng=rng),
                    vocab=vocab, embed_dim=3)
    names = [n for n, _ in m.blocks()]
    assert names[0] == "phi.W"
    assert "cell0.W_xi" in names and "cell1.b_c" in names
    assert names[-2:] == ["pred.W_z", "pred.b_z"]
    assert m.param_count() == sum(a.size for _, a in m.blocks())


# Block names of the demo topologies: extractor, cells, embedding, prediction.
DEMO_LAYOUT = {
    "classify": (("W1", "b1", "W2", "b2"), 2, False),
    "caption_1u": (("W", "b"), 1, True),
    "caption_2u": (("W", "b"), 2, True),
    "caption_2f": (("W", "b"), 2, True),
    "encode_decode": ((), 1, True),
    "perstep_decode": ((), 2, True),
}
CELL_BLOCKS = {
    "lstm": [f"{w}{g}" for g in "ifoc" for w in ("W_x", "W_h", "b_")],
    "rnn": ["W_xh", "W_hh", "b_h"],
}


@pytest.mark.parametrize("cell", ["lstm", "rnn"])
@pytest.mark.parametrize("topology", GRADCHECK_TOPOLOGIES)
def test_blocks_are_named_views_of_one_vector(topology, cell):
    m = build_demo_model(topology, seed=0, cell=cell)
    phi, n_cells, has_embed = DEMO_LAYOUT[topology]
    want = [f"phi.{n}" for n in phi]
    want += [f"cell{i}.{n}" for i in range(n_cells) for n in CELL_BLOCKS[cell]]
    want += ["embed.W_e"] * has_embed + ["pred.W_z", "pred.b_z"]
    grads = ModelGrads(m)
    assert [n for n, _ in m.blocks()] == want
    assert [n for n, _ in grads.blocks()] == want
    assert all(np.shares_memory(a, m.params) for _, a in m.blocks())
    assert all(np.shares_memory(a, grads.params) for _, a in grads.blocks())
    assert m.param_count() == m.params.size == sum(a.size for _, a in m.blocks())


def test_models_built_over_shared_components_keep_separate_vectors():
    m = build_demo_model("perstep_decode", seed=2)
    twin = ModelSpec(
        m.task, m.cells, m.prediction, vocab=m.vocab, embedding=m.embedding,
        input_dim=m.input_dim, visual_mode=m.visual_mode, visual_blocks=m.visual_blocks,
    )
    assert not np.shares_memory(m.params, twin.params)
    np.testing.assert_array_equal(m.params, twin.params)
    before = [(n, a.copy()) for n, a in m.blocks()]
    train_epoch(twin, [build_demo_batch("perstep_decode", twin, seed=2)], TrainConfig(lr=0.5))
    assert np.max(np.abs(twin.params - m.params)) > 0
    for (name, old), (_, now) in zip(before, m.blocks()):
        np.testing.assert_array_equal(now, old, err_msg=name)


@pytest.mark.parametrize("bad", [
    dict(hidden=0),
    dict(embed_dim=0),
    dict(extractor=make_extractor("linear", (4,), out_dim=0, rng=np.random.default_rng(0))),
], ids=["hidden", "embed_dim", "extractor_out_dim"])
def test_build_model_rejects_empty_sizes(bad):
    kwargs = dict(rng=np.random.default_rng(0), hidden=4, extractor=IdentityExtractor((4,)),
                  vocab=small_vocab(), embed_dim=3)
    kwargs.update(bad)
    with pytest.raises(ValueError, match="at least 1"):
        build_model("caption", **kwargs)


def test_factored_caption_models_have_exactly_two_layers_and_inject_at_the_second():
    rng = np.random.default_rng(0)
    m = build_model("caption", rng=rng, hidden=4, layers=2, extractor=IdentityExtractor((3,)),
                    vocab=small_vocab(), embed_dim=5, factored=True)
    assert m.inject_layer == 2
    assert [c.n_input for c in m.cells] == [5, 4 + 3]
    unfactored = build_model("caption", rng=rng, hidden=4, layers=2, extractor=IdentityExtractor((3,)),
                             vocab=small_vocab(), embed_dim=5)
    assert unfactored.inject_layer is None
    with pytest.raises(TypeError):
        build_model("caption", rng=rng, hidden=4, layers=2, extractor=IdentityExtractor((3,)),
                    vocab=small_vocab(), embed_dim=5, factored=True, inject_layer=2)


TOKEN_TOPOLOGIES = [t for t in GRADCHECK_TOPOLOGIES if t != "classify"]


@pytest.mark.parametrize("cell", ["lstm", "rnn"])
@pytest.mark.parametrize("topology", TOKEN_TOPOLOGIES)
def test_stepper_agrees_with_teacher_forcing(topology, cell):
    """Stepping the decoder along a gold sequence gives the teacher-forced per-step NLLs.

    Every gold sequence has at least three tokens, so encode_decode steps past
    the boundary step; a one-vector encoder input is checked as well.
    """
    m = build_demo_model(topology, seed=1, cell=cell)
    batch = build_demo_batch(topology, m, seed=1, n_sequences=4)
    examples = [batch.example(b) for b in range(len(batch))]
    if topology == "encode_decode":
        examples.append((examples[0][0][:1], examples[0][1]))
    for features, tokens in examples:
        assert len(tokens) >= 3
        state, step = make_stepper(m, features)
        prev, stepped = m.vocab.bos, []
        for t, token in enumerate(tokens):
            lp, state = step(state, prev, t)
            stepped.append(-lp[token])
            prev = token
        _, per_step = sequence_loss_and_grads(m, (features, tokens))
        np.testing.assert_allclose(stepped, per_step, rtol=0, atol=1e-12)


@pytest.mark.parametrize("model_topology, batch_topology", [
    ("encode_decode", "caption_1u"),
    ("classify", "caption_1u"),
    ("caption_1u", "classify"),
    ("caption_1u", "perstep_decode"),
])
def test_a_batch_of_another_task_is_refused_naming_both(model_topology, batch_topology):
    m = build_demo_model(model_topology, seed=0)
    batch = build_demo_batch(batch_topology, build_demo_model(batch_topology, seed=0))
    for score in (sequence_loss_and_grads, sequence_nll):
        with pytest.raises(ValueError, match=f"a {batch.task} batch does not fit a {m.task} model"):
            score(m, batch)
