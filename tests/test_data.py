"""Task generators and the text file formats, including failure positions."""

import os
import re
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recseq.data import (
    CaptionPair,
    LabeledSequence,
    SeqPair,
    atomic_write_text,
    flow_to_image,
    gen_copy_task,
    gen_lag_recall,
    gen_order_task,
    gen_toy_captioning,
    load_dataset,
    load_features,
    load_kv,
    load_pairs,
    load_task_dir,
    load_tokens,
    load_windows,
    parse_kv,
    save_features,
    save_pairs,
    save_task_dir,
    save_tokens,
    save_windows,
)
from recseq.errors import DataFormatError


class TestFlowImage:
    def test_three_four_five_at_unit_scale(self):
        flow = np.array([[[3.0]], [[4.0]]])
        img = flow_to_image(flow, scale=1.0)
        np.testing.assert_array_equal(img, np.array([[[3.0]], [[4.0]], [[5.0]]]))

    def test_scaling_and_rounding(self):
        flow = np.array([[[0.1]], [[0.0]]])
        img = flow_to_image(flow, scale=16.0)
        # 0.1 * 16 = 1.6 rounds to 2; magnitude channel matches.
        np.testing.assert_array_equal(img[0], [[2.0]])
        np.testing.assert_array_equal(img[2], [[2.0]])

    def test_saturation_at_128(self):
        flow = np.array([[[100.0, -100.0]], [[0.0, 0.0]]])
        img = flow_to_image(flow, scale=16.0)
        assert img[0, 0, 0] == 128.0
        assert img[0, 0, 1] == -128.0
        assert img[2, 0, 0] == 128.0

    def test_rejects_wrong_channel_count(self):
        with pytest.raises(ValueError):
            flow_to_image(np.zeros((3, 2, 2)))


class TestCopyTask:
    def test_structure_and_seed_stability(self):
        a, vocab = gen_copy_task(seed=5, vocab_size=6, seq_len=3, count=4)
        b, _ = gen_copy_task(seed=5, vocab_size=6, seq_len=3, count=4)
        assert len(a) == 4
        for ex_a, ex_b in zip(a, b):
            np.testing.assert_array_equal(ex_a.inputs, ex_b.inputs)
            assert ex_a.targets == ex_b.targets
        for ex in a:
            assert ex.inputs.shape == (3, 6)
            np.testing.assert_array_equal(ex.inputs.sum(axis=1), np.ones(3))
            assert ex.targets[-1] == vocab.eos
            assert len(ex.targets) == 4
            # targets reproduce the one-hot input symbols in order
            assert ex.targets[:-1] == tuple(int(np.argmax(r)) for r in ex.inputs)

    def test_symbols_are_roughly_uniform(self):
        examples, _ = gen_copy_task(seed=0, vocab_size=4, seq_len=5, count=2000)
        counts = np.zeros(4)
        for ex in examples:
            for row in ex.inputs:
                counts[int(np.argmax(row))] += 1
        n = counts.sum()
        p = 1.0 / 4.0
        sigma = np.sqrt(n * p * (1 - p))
        assert np.all(np.abs(counts - n * p) <= 5 * sigma)


class TestToyCaptioning:
    def test_unique_combinations_without_replacement(self):
        pairs, vocab = gen_toy_captioning(seed=1, count=64, n_colors=8, n_shapes=8)
        assert len(pairs) == 64
        assert len({ex.tokens for ex in pairs}) == 64

    def test_noise_free_images_are_exact_one_hots(self):
        pairs, vocab = gen_toy_captioning(seed=2, count=10, n_colors=4, n_shapes=4)
        for ex in pairs:
            color, shape_word, eos = ex.tokens
            assert eos == vocab.eos
            shape = shape_word - 4
            want = np.zeros(8)
            want[color] = 1.0
            want[4 + shape] = 1.0
            np.testing.assert_array_equal(ex.image, want)

    def test_caption_words_name_the_attributes(self):
        pairs, vocab = gen_toy_captioning(seed=3, count=5, n_colors=8, n_shapes=8)
        for ex in pairs:
            words = vocab.decode(ex.tokens[:-1])
            assert len(words) == 2
            color_idx = int(np.argmax(ex.image[:8]))
            shape_idx = int(np.argmax(ex.image[8:]))
            assert words[0] == vocab.decode([color_idx])[0]
            assert words[1] == vocab.decode([8 + shape_idx])[0]

    def test_noise_perturbs_images_only(self):
        clean, _ = gen_toy_captioning(seed=4, count=6, n_colors=4, n_shapes=4, noise=0.0)
        noisy, _ = gen_toy_captioning(seed=4, count=6, n_colors=4, n_shapes=4, noise=0.1)
        assert [ex.tokens for ex in clean] == [ex.tokens for ex in noisy]
        assert any(np.max(np.abs(c.image - n.image)) > 0 for c, n in zip(clean, noisy))

    def test_oversampling_allowed_beyond_grid(self):
        pairs, _ = gen_toy_captioning(seed=5, count=25, n_colors=2, n_shapes=2)
        assert len(pairs) == 25


class TestOrderTask:
    def test_label_encodes_marker_order(self):
        examples, n_classes = gen_order_task(seed=0, count=200, seq_len=8, n_fillers=4)
        assert n_classes == 2
        for ex in examples:
            assert ex.frames.shape == (8, 6)
            np.testing.assert_array_equal(ex.frames.sum(axis=1), np.ones(8))
            a_pos = int(np.argmax(ex.frames[:, 0]))
            b_pos = int(np.argmax(ex.frames[:, 1]))
            assert ex.frames[:, 0].sum() == 1.0
            assert ex.frames[:, 1].sum() == 1.0
            assert ex.label == int(a_pos < b_pos)

    def test_marker_histogram_carries_no_label_signal(self):
        # Each class sees exactly one of each marker per sequence, so a
        # bag-of-frames model cannot separate the classes.
        examples, _ = gen_order_task(seed=1, count=500, seq_len=6, n_fillers=3)
        for label in (0, 1):
            subset = [ex for ex in examples if ex.label == label]
            for ex in subset:
                assert ex.frames[:, 0].sum() == 1.0
                assert ex.frames[:, 1].sum() == 1.0

    def test_labels_are_roughly_balanced(self):
        examples, _ = gen_order_task(seed=2, count=10_000, seq_len=8, n_fillers=4)
        ones = sum(ex.label for ex in examples)
        assert abs(ones / 10_000 - 0.5) < 0.03

    def test_rejects_too_short_sequences(self):
        with pytest.raises(ValueError):
            gen_order_task(seed=0, count=1, seq_len=1)


class TestLagRecall:
    def test_lengths_span_the_advertised_range(self):
        examples, vocab = gen_lag_recall(seed=0, count=500, vocab_size=4, lag=8, span=2)
        lengths = {len(ex.inputs) for ex in examples}
        assert lengths == {9, 10, 11}
        for ex in examples:
            assert ex.targets[-1] == vocab.eos
            assert len(ex.targets) == 2

    def test_target_is_the_lagged_symbol(self):
        examples, _ = gen_lag_recall(seed=1, count=100, vocab_size=4, lag=8, span=4)
        for ex in examples:
            syms = [int(np.argmax(row)) for row in ex.inputs]
            assert ex.targets[0] == syms[len(syms) - 1 - 8]

    def test_seed_stability(self):
        a, _ = gen_lag_recall(seed=7, count=20, span=3)
        b, _ = gen_lag_recall(seed=7, count=20, span=3)
        for ex_a, ex_b in zip(a, b):
            np.testing.assert_array_equal(ex_a.inputs, ex_b.inputs)
            assert ex_a.targets == ex_b.targets


class TestGeneratorSizes:
    @pytest.mark.parametrize("generate, message", [
        (lambda: gen_copy_task(0, vocab_size=0, seq_len=3, count=1), "vocab_size must be at least 1"),
        (lambda: gen_copy_task(0, vocab_size=3, seq_len=0, count=1), "seq_len must be at least 1"),
        (lambda: gen_copy_task(0, vocab_size=3, seq_len=3, count=-1), "count must be at least 0"),
        (lambda: gen_toy_captioning(0, count=1, noise=-0.5), "noise must be finite and at least 0"),
        (lambda: gen_toy_captioning(0, count=1, noise=float("nan")), "noise must be finite and at least 0"),
        (lambda: gen_toy_captioning(0, count=1, noise=float("inf")), "noise must be finite and at least 0"),
        (lambda: gen_toy_captioning(0, count=1, n_colors=0), "n_colors must be at least 1"),
        (lambda: gen_toy_captioning(0, count=-1), "count must be at least 0"),
        (lambda: gen_order_task(0, count=1, seq_len=1), "seq_len must be at least 2"),
        (lambda: gen_order_task(0, count=1, n_fillers=0), "n_fillers must be at least 1"),
        (lambda: gen_lag_recall(0, count=1, lag=-1), "lag must be at least 0"),
        (lambda: gen_lag_recall(0, count=1, span=-1), "span must be at least 0"),
        (lambda: gen_lag_recall(0, count=1, vocab_size=0), "vocab_size must be at least 1"),
    ], ids=["copy_vocab_size", "copy_seq_len", "copy_count", "noise_negative", "noise_nan", "noise_inf",
            "n_colors", "caption_count", "order_seq_len", "n_fillers", "lag", "span", "lag_vocab_size"])
    def test_out_of_range_size_names_the_parameter(self, generate, message):
        with pytest.raises(ValueError, match=message):
            generate()

    def test_zero_count_generates_nothing(self):
        assert gen_copy_task(0, vocab_size=3, seq_len=2, count=0)[0] == []
        assert gen_lag_recall(0, count=0)[0] == []

    def test_saving_no_examples_is_refused_before_the_directory_exists(self, tmp_path):
        d = tmp_path / "empty"
        with pytest.raises(ValueError, match="no examples"):
            save_task_dir(d, "encode_decode", [])
        assert not d.exists()


class TestTokensFormat:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "corpus.txt"
        seqs = [["red", "circle"], ["a"], ["x", "y", "z"]]
        save_tokens(path, seqs)
        assert load_tokens(path) == seqs

    def test_empty_sequence_rejected_on_save(self, tmp_path):
        with pytest.raises(ValueError):
            save_tokens(tmp_path / "bad.txt", [["a"], []])

    @pytest.mark.parametrize("token", ["", "red circle", "a\tb", "x\n", "\u2028", "<bos>", "<eos>"])
    def test_a_token_the_reader_refuses_is_refused_on_save(self, tmp_path, token):
        path = tmp_path / "bad.txt"
        with pytest.raises(ValueError, match=r"token sequence 1 holds " + re.escape(repr(token))):
            save_tokens(path, [["a"], ["red", token]])
        assert not path.exists()

    def test_blank_line_reports_its_position(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("a b\n\nc\n")
        with pytest.raises(DataFormatError) as err:
            load_tokens(path)
        assert err.value.line == 2

    @pytest.mark.parametrize("line,message", [
        ("red  circle", "empty"),
        (" red circle", "empty"),
        ("red circle ", "empty"),
        ("red\tcircle", "whitespace"),
        ("red\u2003circle", "whitespace"),
        ("red\x0bcircle", "whitespace"),
        ("red <eos>", "reserved"),
        ("<bos> red", "reserved"),
    ], ids=["double_space", "leading_space", "trailing_space", "tab", "em_space", "vertical_tab", "eos", "bos"])
    def test_malformed_token_reports_file_and_line(self, tmp_path, line, message):
        path = tmp_path / "corpus.txt"
        path.write_text(f"red circle\n{line}\nblue star\n", encoding="utf-8")
        with pytest.raises(DataFormatError, match=message) as err:
            load_tokens(path)
        assert (err.value.path, err.value.line) == (path, 2)

    def test_unk_marker_is_an_ordinary_word(self, tmp_path):
        path = tmp_path / "corpus.txt"
        path.write_text("red <unk>\n")
        assert load_tokens(path) == [["red", "<unk>"]]


class TestFeaturesFormat:
    def test_round_trip_is_bit_exact(self, tmp_path):
        path = tmp_path / "feats.txt"
        rng = np.random.default_rng(0)
        matrix = rng.standard_normal((5, 3)) * 1e3
        matrix[0, 0] = 1.0 / 3.0
        save_features(path, matrix)
        np.testing.assert_array_equal(load_features(path), matrix)

    def test_rejects_non_matrix(self, tmp_path):
        with pytest.raises(ValueError):
            save_features(tmp_path / "bad.txt", np.zeros(3))

    def test_missing_header(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1.0 2.0\n")
        with pytest.raises(DataFormatError) as err:
            load_features(path)
        assert err.value.line == 1

    def test_wrong_field_count_reports_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("dims 2\n1.0 2.0\n3.0\n")
        with pytest.raises(DataFormatError) as err:
            load_features(path)
        assert err.value.line == 3

    def test_unparseable_float_reports_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("dims 2\n1.0 fish\n")
        with pytest.raises(DataFormatError) as err:
            load_features(path)
        assert err.value.line == 2

    def test_bad_dims_value(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("dims zero\n")
        with pytest.raises(DataFormatError):
            load_features(path)
        path.write_text("dims 0\n")
        with pytest.raises(DataFormatError):
            load_features(path)


class TestPairsFormat:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "pairs.tsv"
        pairs = [(0, 0), (1, 3), (2, 1)]
        save_pairs(path, pairs)
        assert load_pairs(path) == pairs

    def test_wrong_arity_reports_line(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("0\t0\n1\t2\t3\n")
        with pytest.raises(DataFormatError) as err:
            load_pairs(path)
        assert err.value.line == 2

    def test_unparseable_index_reports_line(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("0\tx\n")
        with pytest.raises(DataFormatError) as err:
            load_pairs(path)
        assert err.value.line == 1


class TestWindowsFormat:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "win.tsv"
        rows = [("frames.txt", 0, 8, 1), ("frames.txt", 8, 4, 0)]
        save_windows(path, rows)
        assert load_windows(path) == rows

    def test_bad_rows_report_lines(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("frames.txt\t0\t8\n")
        with pytest.raises(DataFormatError) as err:
            load_windows(path)
        assert err.value.line == 1
        path.write_text("frames.txt\t0\teight\t1\n")
        with pytest.raises(DataFormatError):
            load_windows(path)
        path.write_text("\t0\t8\t1\n")
        with pytest.raises(DataFormatError):
            load_windows(path)
        path.write_text("frames.txt\t-1\t8\t1\n")
        with pytest.raises(DataFormatError):
            load_windows(path)
        path.write_text("frames.txt\t0\t0\t1\n")
        with pytest.raises(DataFormatError):
            load_windows(path)


class TestLoadDataset:
    def test_dispatch(self, tmp_path):
        path = tmp_path / "corpus.txt"
        save_tokens(path, [["a", "b"]])
        assert load_dataset(path, "tokens") == [["a", "b"]]

    def test_unknown_kind(self, tmp_path):
        with pytest.raises(ValueError):
            load_dataset(tmp_path / "x", "parquet")


class TestKvFormat:
    def test_parsing_rules(self):
        text = "# comment\n\nlr = 0.5\nname=copy task\nexpr=a=b\n"
        assert parse_kv(text) == {"lr": "0.5", "name": "copy task", "expr": "a=b"}

    def test_missing_equals_reports_line(self):
        with pytest.raises(DataFormatError) as err:
            parse_kv("ok=1\nnot a pair\n")
        assert err.value.line == 2

    def test_empty_key_rejected(self):
        with pytest.raises(DataFormatError):
            parse_kv("=value\n")

    def test_load_kv_reads_files(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("hidden=32\nlr=0.1\n")
        assert load_kv(path) == {"hidden": "32", "lr": "0.1"}


class TestAtomicWrite:
    def test_leaves_no_temp_files(self, tmp_path):
        path = tmp_path / "out.txt"
        atomic_write_text(path, "hello\n")
        assert path.read_text() == "hello\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


class TestTaskDirs:
    def test_caption_round_trip(self, tmp_path):
        pairs, vocab = gen_toy_captioning(seed=0, count=12, n_colors=4, n_shapes=4)
        d = tmp_path / "cap"
        save_task_dir(d, "caption", pairs, vocab=vocab)
        task, loaded, vocab2 = load_task_dir(d)
        assert task == "caption"
        assert len(loaded) == 12
        for before, after in zip(pairs, loaded):
            np.testing.assert_array_equal(before.image, after.image)
            assert vocab.decode(before.tokens[:-1]) == vocab2.decode(after.tokens[:-1])
            assert after.tokens[-1] == vocab2.eos

    def test_classify_round_trip(self, tmp_path):
        examples, n_classes = gen_order_task(seed=0, count=6, seq_len=5, n_fillers=2)
        d = tmp_path / "cls"
        save_task_dir(d, "classify", examples, meta={"classes": n_classes})
        task, loaded, classes = load_task_dir(d)
        assert task == "classify"
        assert classes == 2
        for before, after in zip(examples, loaded):
            np.testing.assert_array_equal(before.frames, after.frames)
            assert before.label == after.label

    def test_encode_decode_round_trip(self, tmp_path):
        examples, vocab = gen_copy_task(seed=0, vocab_size=5, seq_len=3, count=7)
        d = tmp_path / "seq"
        save_task_dir(d, "encode_decode", examples, vocab=vocab)
        task, loaded, vocab2 = load_task_dir(d)
        assert task == "encode_decode"
        for before, after in zip(examples, loaded):
            np.testing.assert_array_equal(before.inputs, after.inputs)
            assert vocab.decode(before.targets[:-1]) == vocab2.decode(after.targets[:-1])

    def test_out_of_range_pair_detected(self, tmp_path):
        pairs, vocab = gen_toy_captioning(seed=0, count=3, n_colors=4, n_shapes=4)
        d = tmp_path / "cap"
        save_task_dir(d, "caption", pairs, vocab=vocab)
        save_pairs(os.path.join(d, "pairs.tsv"), [(0, 0), (99, 1)])
        with pytest.raises(DataFormatError):
            load_task_dir(d)

    def test_unknown_task_is_refused_before_the_directory_is_made(self, tmp_path):
        examples, vocab = gen_copy_task(seed=0, vocab_size=5, seq_len=3, count=2)
        d = tmp_path / "bogus"
        with pytest.raises(ValueError, match="cannot save datasets for task 'bogus'"):
            save_task_dir(d, "bogus", examples, vocab=vocab)
        assert not d.exists()

    def test_unknown_task_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            save_task_dir(tmp_path / "x", "regress", [])
        d = tmp_path / "y"
        os.makedirs(d)
        (d / "meta.txt").write_text("task=regress\n")
        with pytest.raises(DataFormatError):
            load_task_dir(d)

    def test_out_of_range_label_detected(self, tmp_path):
        examples, n_classes = gen_order_task(seed=0, count=3, seq_len=4)
        d = tmp_path / "cls"
        save_task_dir(d, "classify", examples, meta={"classes": n_classes})
        save_windows(os.path.join(d, "windows.tsv"), [("frames.txt", 0, 4, 0), ("frames.txt", 4, 4, 2)])
        with pytest.raises(DataFormatError, match="windows.tsv"):
            load_task_dir(d)

    def test_multi_dimensional_frames_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        examples = [LabeledSequence(rng.standard_normal((t, 2, 3, 4)), t % 2) for t in (2, 3, 1)]
        d = tmp_path / "cls"
        save_task_dir(d, "classify", examples, meta={"classes": 2})
        assert load_kv(d / "meta.txt")["frame_shape"] == "2,3,4"
        assert (d / "frames.txt").read_text().startswith("dims 24\n")
        _, loaded, _ = load_task_dir(d)
        for before, after in zip(examples, loaded):
            np.testing.assert_array_equal(before.frames, after.frames)
            assert before.label == after.label

    def test_frame_shape_must_match_dims(self, tmp_path):
        examples, n_classes = gen_order_task(seed=0, count=3, seq_len=4)
        d = tmp_path / "cls"
        save_task_dir(d, "classify", examples, meta={"classes": n_classes, "frame_shape": "1,2,2"})
        with pytest.raises(DataFormatError, match="frame_shape"):
            load_task_dir(d)

    def test_frame_shape_with_more_axes_than_numpy_holds(self, tmp_path):
        examples, n_classes = gen_order_task(seed=0, count=3, seq_len=4)
        width = examples[0].frames.shape[1]
        d = tmp_path / "cls"
        save_task_dir(d, "classify", examples, meta={"classes": n_classes, "frame_shape": "1," * 70 + str(width)})
        with pytest.raises(DataFormatError, match="frame_shape"):
            load_task_dir(d)


class TestFeatureFinitePolicy:
    @pytest.mark.parametrize("literal", ["nan", "inf", "-inf", "NaN"])
    def test_non_finite_values_are_rejected_with_their_line(self, tmp_path, literal):
        path = tmp_path / "f.txt"
        path.write_text(f"dims 2\n0.5 1.0\n1.5 {literal}\n")
        with pytest.raises(DataFormatError, match="line 3"):
            load_features(path)


# Pieces the text formats give meaning to, mixed into arbitrary text so that
# the edited lines reach past each parser's first check.
FRAGMENTS = st.sampled_from([
    " ", "  ", "\t", "\u2003", "\x0b", "\n", "=", ",", "-", "0", "1", "3", "1e999", "nan", "dims", "task", "classes",
    "frame_shape", "caption", "classify", "encode_decode", "<bos>", "<eos>", "<unk>", "frames.txt", "red",
])
LINE_TEXT = st.lists(FRAGMENTS | st.text(max_size=3), max_size=6).map("".join)
# Tokens the writer accepts: non-empty, no whitespace, not a reserved marker.
TOKEN = st.lists(FRAGMENTS | st.text(min_size=1, max_size=3), min_size=1, max_size=3).map("".join).filter(
    lambda t: not any(ch.isspace() for ch in t) and t not in ("<bos>", "<eos>"))

# The files of each task directory whose lines the fuzz edits.
TASK_FILES = {
    "caption": ("meta.txt", "images.txt", "captions.txt", "pairs.tsv"),
    "classify": ("meta.txt", "frames.txt", "windows.tsv"),
    "encode_decode": ("meta.txt", "inputs.txt", "targets.txt", "windows.tsv"),
}


@pytest.fixture(scope="module")
def task_dirs(tmp_path_factory):
    """A small caption, classify and encode_decode directory."""
    root = tmp_path_factory.mktemp("task_dirs")
    pairs, vocab = gen_toy_captioning(seed=0, count=3, n_colors=2, n_shapes=2)
    save_task_dir(root / "caption", "caption", pairs, vocab=vocab)
    examples, n_classes = gen_order_task(seed=0, count=3, seq_len=4, n_fillers=2)
    save_task_dir(root / "classify", "classify", examples, meta={"classes": n_classes})
    examples, vocab = gen_copy_task(seed=0, vocab_size=4, seq_len=2, count=3)
    save_task_dir(root / "encode_decode", "encode_decode", examples, vocab=vocab)
    return root


class TestTextFormatFuzz:
    """Any one edited line loads or fails as malformed data (exit 2); any
    corpus the writer accepts reads back unchanged."""

    @given(seqs=st.lists(st.lists(TOKEN, min_size=1, max_size=6), min_size=1, max_size=6))
    @settings(max_examples=50, deadline=None)
    def test_saved_tokens_load_unchanged(self, seqs):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "tokens.txt"
            save_tokens(path, seqs)
            assert load_tokens(path) == seqs

    @pytest.mark.parametrize("task", sorted(TASK_FILES))
    @given(data=st.data(), text=LINE_TEXT)
    @settings(max_examples=50, deadline=None)
    def test_one_edited_line_loads_or_is_a_data_error(self, task_dirs, task, data, text):
        name = data.draw(st.sampled_from(TASK_FILES[task]), label="file")
        with tempfile.TemporaryDirectory() as tmp:
            d = Path(shutil.copytree(task_dirs / task, Path(tmp) / task))
            lines = (d / name).read_text(encoding="utf-8").split("\n")[:-1]
            k = data.draw(st.integers(0, len(lines) - 1), label="line")
            # Replace a slice of the line, up to all of it.
            lo = data.draw(st.integers(0, len(lines[k])), label="from")
            hi = data.draw(st.integers(lo, len(lines[k])), label="to")
            lines[k] = lines[k][:lo] + text + lines[k][hi:]
            (d / name).write_text("\n".join(lines) + "\n", encoding="utf-8")
            try:
                load_task_dir(d)
            except (DataFormatError, OSError):
                pass
