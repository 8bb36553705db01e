"""End-to-end command line flows on tiny synthetic datasets."""

import json
import struct

import numpy as np
import pytest

import recseq.training
from recseq.checkpoint import MAGIC, load_checkpoint
from recseq.cli import main
from recseq.data import CaptionPair, LabeledSequence, load_task_dir, save_task_dir
from recseq.models import Vocabulary


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def copy_dir(tmp_path, capsys):
    d = tmp_path / "copy_data"
    code, _, err = run(capsys, "synth", "--task", "copy", "--out", str(d),
                       "--count", "24", "--vocab-size", "5", "--seq-len", "2", "--seed", "1")
    assert code == 0, err
    return d


@pytest.fixture
def caption_dir(tmp_path, capsys):
    d = tmp_path / "cap_data"
    code, _, err = run(capsys, "synth", "--task", "caption", "--out", str(d),
                       "--count", "8", "--seed", "2")
    assert code == 0, err
    return d


def train_small(capsys, data_dir, out_path, *extra):
    return run(capsys, "train", "--data", str(data_dir), "--out", str(out_path),
               "--hidden", "6", "--embed-dim", "5", "--epochs", "2", "--lr", "0.3",
               "--batch-size", "8", *extra)


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self, capsys):
        code, _, err = run(capsys, "gradcheck", "--no-such-flag")
        assert code == 1
        assert "error:" in err

    def test_unknown_subcommand_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == 1

    def test_missing_dataset_is_a_data_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "train", "--data", str(tmp_path / "nope"),
                           "--out", str(tmp_path / "m.ckpt"))
        assert code == 2

    def test_corrupt_meta_is_a_data_error(self, capsys, tmp_path):
        d = tmp_path / "bad"
        d.mkdir()
        (d / "meta.txt").write_text("task=regress\n")
        code, _, err = run(capsys, "train", "--data", str(d), "--out", str(tmp_path / "m.ckpt"))
        assert code == 2

    def test_missing_checkpoint_is_a_data_error(self, capsys, copy_dir, tmp_path):
        code, _, _ = run(capsys, "eval", "--model", str(tmp_path / "missing.ckpt"),
                         "--data", str(copy_dir), "--metric", "nll")
        assert code == 2

    def test_gradcheck_single_topology_passes(self, capsys):
        code, out, _ = run(capsys, "gradcheck", "--task", "encode_decode")
        assert code == 0
        assert out.startswith("encode_decode ok worst ")

    def test_unknown_config_key_is_usage_error(self, capsys, copy_dir, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("hidden=4\nmomentum=0.9\n")
        code, _, err = run(capsys, "train", "--data", str(copy_dir),
                           "--out", str(tmp_path / "m.ckpt"), "--config", str(cfg))
        assert code == 1
        assert "momentum" in err


def _order_dir(tmp_path, capsys, name="order", *extra):
    d = tmp_path / name
    code, _, err = run(capsys, "synth", "--task", "order", "--out", str(d), "--count", "8", "--seq-len", "4", *extra)
    assert code == 0, err
    return d


def _train_order(tmp_path, capsys, *flags, edit=None):
    d = _order_dir(tmp_path, capsys)
    if edit is not None:
        edit(d)
    return ["train", "--data", str(d), "--out", str(tmp_path / "m.ckpt"), "--hidden", "3", "--epochs", "1", *flags]


def _edit_text(path, old, new):
    text = path.read_text()
    assert old in text
    path.write_text(text.replace(old, new, 1))


def _eval_edited_checkpoint(tmp_path, capsys, edit):
    argv = _train_order(tmp_path, capsys)
    code, _, err = run(capsys, *argv)
    assert code == 0, err
    ckpt = tmp_path / "m.ckpt"
    data = bytearray(ckpt.read_bytes())
    ckpt.write_bytes(edit(data))
    return ["eval", "--model", str(ckpt), "--data", argv[2], "--metric", "accuracy"]


def _header_field(name, value):
    def edit(data):
        offset = len(MAGIC) + 4
        (length,) = struct.unpack_from("<Q", data, offset)
        header = json.loads(data[offset + 8:offset + 8 + length])
        header[name] = value
        encoded = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
        return bytes(data[:offset]) + struct.pack("<Q", len(encoded)) + encoded + bytes(data[offset + 8 + length:])
    return edit


def _huge_first_dimension(data):
    offset = len(MAGIC) + 4
    offset += 8 + struct.unpack_from("<Q", data, offset)[0] + 8
    offset += 8 + struct.unpack_from("<Q", data, offset)[0] + 8
    struct.pack_into("<Q", data, offset, 2 ** 62)
    return bytes(data)


def _nan_last_payload_float(data):
    return bytes(data[:-8]) + struct.pack("<d", float("nan"))


def _overflowing_update(tmp_path, capsys):
    # One example of eight frames: the first update of lr 1e308 overflows.
    d = _order_dir(tmp_path, capsys, "one", "--count", "2", "--seq-len", "8")
    return ["train", "--data", str(d), "--out", str(tmp_path / "m.ckpt"), "--epochs", "1", "--lr", "1e308"]


def _small_copy_dir(tmp_path, capsys):
    d = tmp_path / "copy"
    code, _, err = run(capsys, "synth", "--task", "copy", "--out", str(d), "--count", "4", "--seq-len", "2")
    assert code == 0, err
    return d


def _copy_targets_not_utf8(tmp_path, capsys):
    d = _small_copy_dir(tmp_path, capsys)
    with open(d / "targets.txt", "ab") as fh:
        fh.write(b"\xff\xfe")
    return ["train", "--data", str(d), "--out", str(tmp_path / "m.ckpt"), "--hidden", "3", "--epochs", "1"]


def _sample_copy(tmp_path, capsys, *flags):
    d = _small_copy_dir(tmp_path, capsys)
    ckpt = tmp_path / "m.ckpt"
    code, _, err = run(capsys, "train", "--data", str(d), "--out", str(ckpt), "--hidden", "3", "--epochs", "1")
    assert code == 0, err
    return ["generate", "--model", str(ckpt), "--data", str(d), "--strategy", "sample", *flags]


def _smallconv_on_tiny_frames(tmp_path, capsys):
    # A 3x3 kernel leaves 1x1 maps of (1, 3, 3) frames: nothing to pool.
    rng = np.random.default_rng(0)
    d = tmp_path / "tiny"
    save_task_dir(d, "classify", [LabeledSequence(rng.standard_normal((3, 1, 3, 3)), k % 2) for k in range(4)],
                  meta={"classes": 2})
    return ["train", "--data", str(d), "--out", str(tmp_path / "m.ckpt"), "--extractor", "smallconv",
            "--extractor-dim", "4", "--hidden", "3", "--epochs", "1"]


def _train_synth(tmp_path, capsys, task, *flags, edit=None):
    d = tmp_path / task
    code, _, err = run(capsys, "synth", "--task", task, "--out", str(d), "--count", "4", "--seq-len", "2")
    assert code == 0, err
    if edit is not None:
        edit(d)
    return ["train", "--data", str(d), "--out", str(tmp_path / "m.ckpt"), "--hidden", "3", "--epochs", "1", *flags]


def _config(tmp_path, text):
    path = tmp_path / "cfg.txt"
    path.write_text(text)
    return str(path)


def _edit_line(path, lineno, edit):
    lines = path.read_text(encoding="utf-8").split("\n")
    lines[lineno] = edit(lines[lineno])
    path.write_text("\n".join(lines), encoding="utf-8")


_PCG64_STATE = {"state": 1, "inc": 1}


# (case, function returning the argv, documented exit code)
BAD_INVOCATIONS = [
    ("lr_nan", lambda t, c: _train_order(t, c, "--lr", "nan"), 1),
    ("lr_negative", lambda t, c: _train_order(t, c, "--lr", "-1"), 1),
    ("epochs_negative", lambda t, c: _train_order(t, c, "--epochs", "-1"), 1),
    ("batch_size_zero", lambda t, c: _train_order(t, c, "--batch-size", "0"), 1),
    ("dropout_one", lambda t, c: _train_order(t, c, "--dropout", "1"), 1),
    ("clip_norm_zero", lambda t, c: _train_order(t, c, "--clip-norm", "0"), 1),
    ("clip_len_zero", lambda t, c: _train_order(t, c, "--clip-len", "0"), 1),
    ("hidden_zero", lambda t, c: _train_order(t, c, "--hidden", "0"), 1),
    ("extractor_dim_zero", lambda t, c: _train_order(t, c, "--extractor", "linear", "--extractor-dim", "0"), 1),
    ("smallconv_on_flat_frames", lambda t, c: _train_order(t, c, "--extractor", "smallconv", "--extractor-dim", "4"), 1),
    ("smallconv_frames_too_small", _smallconv_on_tiny_frames, 1),
    ("inject_layer_flag_is_gone", lambda t, c: _train_order(t, c, "--inject-layer", "2"), 1),
    ("factored_on_copy", lambda t, c: _train_synth(t, c, "copy", "--factored"), 1),
    ("extractor_on_copy", lambda t, c: _train_synth(
        t, c, "copy", "--extractor", "smallconv", "--extractor-dim", "8", "--clip-len", "2"), 1),
    ("extractor_dim_on_copy", lambda t, c: _train_synth(t, c, "copy", "--extractor-dim", "8"), 1),
    ("clip_len_on_copy", lambda t, c: _train_synth(t, c, "copy", "--clip-len", "2"), 1),
    ("clip_len_on_caption", lambda t, c: _train_synth(t, c, "caption", "--clip-len", "2"), 1),
    ("factored_on_order", lambda t, c: _train_order(t, c, "--factored", "--embed-dim", "3"), 1),
    ("embed_dim_on_order", lambda t, c: _train_order(t, c, "--embed-dim", "3"), 1),
    ("embed_dim_config_key_on_order", lambda t, c: _train_order(t, c, "--config", _config(t, "embed_dim=3\n")), 1),
    ("extractor_dim_with_identity", lambda t, c: _train_order(t, c, "--extractor-dim", "4"), 1),
    ("rnn_nonlinearity_with_lstm", lambda t, c: _train_order(t, c, "--rnn-nonlinearity", "sigmoid"), 1),
    ("cell_config_value_not_a_choice", lambda t, c: _train_order(t, c, "--config", _config(t, "cell=gru\n")), 1),
    ("non_finite_parameters", _overflowing_update, 3),
    ("label_out_of_range", lambda t, c: _train_order(
        t, c, edit=lambda d: (d / "windows.tsv").write_text("frames.txt\t0\t4\t7\n")), 2),
    ("no_windows", lambda t, c: _train_order(t, c, edit=lambda d: (d / "windows.tsv").write_text("")), 2),
    ("classes_not_a_number", lambda t, c: _train_order(
        t, c, edit=lambda d: _edit_text(d / "meta.txt", "classes=2", "classes=two")), 2),
    ("targets_not_utf8", _copy_targets_not_utf8, 2),
    ("caption_double_space", lambda t, c: _train_synth(
        t, c, "caption", edit=lambda d: _edit_line(d / "captions.txt", 0, lambda x: x.replace(" ", "  "))), 2),
    ("caption_eos_word", lambda t, c: _train_synth(
        t, c, "caption", edit=lambda d: _edit_line(d / "captions.txt", 1, lambda x: x + " <eos>")), 2),
    ("targets_tab", lambda t, c: _train_synth(
        t, c, "copy", edit=lambda d: _edit_line(d / "targets.txt", 2, lambda x: x.replace(" ", "\t"))), 2),
    ("targets_em_space", lambda t, c: _train_synth(
        t, c, "copy", edit=lambda d: _edit_line(d / "targets.txt", 3, lambda x: x.replace(" ", "\u2003"))), 2),
    ("nan_in_feature_file", lambda t, c: _train_order(
        t, c, edit=lambda d: _edit_text(d / "frames.txt", "\n0.0 ", "\nnan ")), 2),
    ("frame_shape_mismatch", lambda t, c: _train_order(
        t, c, edit=lambda d: _edit_text(d / "meta.txt", "classes=2\n", "classes=2\nframe_shape=2,2\n")), 2),
    ("checkpoint_dimension_2_62", lambda t, c: _eval_edited_checkpoint(t, c, _huge_first_dimension), 2),
    ("checkpoint_inject_layer_3", lambda t, c: _eval_edited_checkpoint(t, c, _header_field("inject_layer", 3)), 2),
    ("sample_temperature_nan", lambda t, c: _sample_copy(t, c, "--temperature", "nan"), 1),
    ("checkpoint_step_list", lambda t, c: _eval_edited_checkpoint(t, c, _header_field("step", [1])), 2),
    ("checkpoint_step_not_a_number", lambda t, c: _eval_edited_checkpoint(t, c, _header_field("step", "abc")), 2),
    ("checkpoint_rng_state_string", lambda t, c: _eval_edited_checkpoint(t, c, _header_field("rng_state", "x")), 2),
    ("checkpoint_rng_state_without_state", lambda t, c: _eval_edited_checkpoint(t, c, _header_field(
        "rng_state", {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0})), 2),
    ("checkpoint_rng_unknown_bit_generator", lambda t, c: _eval_edited_checkpoint(t, c, _header_field(
        "rng_state", {"bit_generator": "NOPE", "state": _PCG64_STATE, "has_uint32": 0, "uinteger": 0})), 2),
    ("checkpoint_extractor_string", lambda t, c: _eval_edited_checkpoint(t, c, _header_field("extractor", "x")), 2),
    ("checkpoint_payload_nan", lambda t, c: _eval_edited_checkpoint(t, c, _nan_last_payload_float), 2),
]


class TestFailureContract:
    @pytest.mark.parametrize("build,expected", [case[1:] for case in BAD_INVOCATIONS],
                             ids=[case[0] for case in BAD_INVOCATIONS])
    def test_exit_code_without_traceback(self, capsys, tmp_path, build, expected):
        argv = build(tmp_path, capsys)
        code, out, err = run(capsys, *argv)
        assert code == expected, err
        assert "Traceback" not in out + err
        assert "error: " in err

    def test_gradcheck_with_a_non_finite_probe_exits_3(self, capsys, monkeypatch):
        true_loss = recseq.training.sequence_loss_and_grads

        def poisoned(m, example, grads=None, scale=1.0, drop=None):
            nll, per_step = true_loss(m, example, grads, scale=scale, drop=drop)
            return (nll, per_step) if grads is not None else (float("inf"), per_step)

        monkeypatch.setattr(recseq.training, "sequence_loss_and_grads", poisoned)
        code, out, err = run(capsys, "gradcheck", "--task", "encode_decode")
        assert code == 3
        assert "Traceback" not in out + err

    def test_smallconv_trains_on_image_frames(self, capsys, tmp_path):
        rng = np.random.default_rng(0)
        examples = [LabeledSequence(rng.standard_normal((3, 1, 8, 8)), k % 2) for k in range(4)]
        d = tmp_path / "frames"
        save_task_dir(d, "classify", examples, meta={"classes": 2})
        ckpt = tmp_path / "conv.ckpt"
        code, out, err = run(capsys, "train", "--data", str(d), "--out", str(ckpt), "--extractor", "smallconv",
                             "--extractor-dim", "4", "--hidden", "3", "--epochs", "1")
        assert code == 0, err
        assert load_checkpoint(ckpt).model.extractor.input_shape == (1, 8, 8)
        code, out, _ = run(capsys, "eval", "--model", str(ckpt), "--data", str(d), "--metric", "accuracy")
        assert code == 0
        assert out.startswith("accuracy ")

    def test_smallconv_trains_on_caption_images(self, capsys, tmp_path):
        rng = np.random.default_rng(0)
        vocab = Vocabulary.from_words(["a", "b"])
        examples = [CaptionPair(rng.standard_normal((1, 8, 8)), (k % 2, vocab.eos)) for k in range(4)]
        d = tmp_path / "images"
        save_task_dir(d, "caption", examples, vocab=vocab)
        _, loaded, _ = load_task_dir(d)
        assert all(np.array_equal(a.image, b.image) for a, b in zip(examples, loaded))
        ckpt = tmp_path / "conv.ckpt"
        code, out, err = run(capsys, "train", "--data", str(d), "--out", str(ckpt), "--extractor", "smallconv",
                             "--extractor-dim", "4", "--hidden", "3", "--epochs", "1")
        assert code == 0, err
        assert load_checkpoint(ckpt).model.extractor.input_shape == (1, 8, 8)
        code, out, _ = run(capsys, "generate", "--model", str(ckpt), "--data", str(d), "--strategy", "beam")
        assert code == 0
        assert out.startswith("0\t")


class TestSynth:
    def test_copy_dataset_round_trips(self, copy_dir):
        task, examples, vocab = load_task_dir(copy_dir)
        assert task == "encode_decode"
        assert len(examples) == 24
        assert all(len(ex.inputs) == 2 for ex in examples)

    def test_order_dataset(self, capsys, tmp_path):
        d = tmp_path / "order_data"
        code, out, _ = run(capsys, "synth", "--task", "order", "--out", str(d),
                           "--count", "16", "--seq-len", "4", "--seed", "0")
        assert code == 0
        assert "wrote 16 examples" in out
        task, examples, n_classes = load_task_dir(d)
        assert task == "classify"
        assert n_classes == 2

    def test_lag_dataset(self, capsys, tmp_path):
        d = tmp_path / "lag_data"
        code, _, _ = run(capsys, "synth", "--task", "lag", "--out", str(d),
                         "--count", "10", "--vocab-size", "4", "--lag", "3", "--seed", "0")
        assert code == 0
        task, examples, _ = load_task_dir(d)
        assert task == "encode_decode"
        assert all(len(ex.inputs) >= 4 for ex in examples)

    @pytest.mark.parametrize("flags, message", [
        (("--task", "lag", "--lag", "-1"), "lag must be at least 0"),
        (("--task", "copy", "--count", "0"), "no examples"),
        (("--task", "copy", "--count", "-1"), "count must be at least 0"),
        (("--task", "copy", "--seq-len", "0"), "seq_len must be at least 1"),
        (("--task", "copy", "--vocab-size", "0"), "vocab_size must be at least 1"),
        (("--task", "order", "--n-fillers", "0"), "n_fillers must be at least 1"),
        (("--task", "caption", "--noise", "-1"), "noise must be finite and at least 0"),
        (("--task", "caption", "--noise", "nan"), "noise must be finite and at least 0"),
        (("--task", "copy", "--seed", "-1"), "seed must be at least 0, got -1"),
    ], ids=["lag", "count_0", "count_negative", "seq_len", "vocab_size", "n_fillers", "noise_negative", "noise_nan",
            "seed_negative"])
    def test_out_of_range_size_is_refused_before_writing(self, capsys, tmp_path, flags, message):
        d = tmp_path / "data"
        code, _, err = run(capsys, "synth", *flags, "--out", str(d))
        assert code == 1
        assert message in err
        assert "Traceback" not in err
        assert not d.exists()


class TestTrainEvalGenerate:
    def test_copy_pipeline(self, capsys, copy_dir, tmp_path):
        ckpt = tmp_path / "copy.ckpt"
        code, out, err = train_small(capsys, copy_dir, ckpt)
        assert code == 0, err
        assert f"saved {ckpt}" in out
        assert out.count("epoch ") == 2
        assert ckpt.exists()

        code, out, _ = run(capsys, "eval", "--model", str(ckpt), "--data", str(copy_dir),
                           "--metric", "nll")
        assert code == 0
        lines = dict(line.split(" ", 1) for line in out.strip().splitlines())
        assert lines["sequences"] == "24"
        assert float(lines["mean_sequence_nll"]) > 0
        assert float(lines["mean_target_nll"]) > 0

        code, out, _ = run(capsys, "eval", "--model", str(ckpt), "--data", str(copy_dir),
                           "--metric", "exact")
        assert code == 0
        assert out.startswith("exact_match ")
        assert 0.0 <= float(out.split()[1]) <= 1.0

        code, out, _ = run(capsys, "generate", "--model", str(ckpt), "--data", str(copy_dir),
                           "--strategy", "greedy")
        assert code == 0
        rows = out.strip().splitlines()
        assert len(rows) == 24
        for idx, row in enumerate(rows):
            fields = row.split("\t")
            assert int(fields[0]) == idx
            float(fields[1])

    def test_caption_pipeline_with_bleu_and_retrieval(self, capsys, caption_dir, tmp_path):
        ckpt = tmp_path / "cap.ckpt"
        code, _, err = train_small(capsys, caption_dir, ckpt)
        assert code == 0, err

        code, out, _ = run(capsys, "eval", "--model", str(ckpt), "--data", str(caption_dir),
                           "--metric", "bleu", "--max-n", "2")
        assert code == 0
        assert out.startswith("bleu ")
        assert 0.0 <= float(out.split()[1]) <= 1.0

        code, out, _ = run(capsys, "eval", "--model", str(ckpt), "--data", str(caption_dir),
                           "--metric", "retrieval")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("recall_at_1 ")
        assert lines[-1].startswith("median_rank ")

    def test_order_accuracy(self, capsys, tmp_path):
        d = tmp_path / "order_data"
        run(capsys, "synth", "--task", "order", "--out", str(d),
            "--count", "12", "--seq-len", "4", "--seed", "0")
        ckpt = tmp_path / "order.ckpt"
        code, _, err = run(capsys, "train", "--data", str(d), "--out", str(ckpt),
                           "--hidden", "4", "--epochs", "1", "--lr", "0.1")
        assert code == 0, err
        code, out, _ = run(capsys, "eval", "--model", str(ckpt), "--data", str(d),
                           "--metric", "accuracy")
        assert code == 0
        assert out.startswith("accuracy ")

    def test_accuracy_rejected_for_token_tasks(self, capsys, copy_dir, tmp_path):
        ckpt = tmp_path / "copy.ckpt"
        train_small(capsys, copy_dir, ckpt)
        code, _, err = run(capsys, "eval", "--model", str(ckpt), "--data", str(copy_dir),
                           "--metric", "accuracy")
        assert code == 1

    def test_beam_width_one_matches_huge_temperature_sampling(self, capsys, copy_dir, tmp_path):
        ckpt = tmp_path / "copy.ckpt"
        train_small(capsys, copy_dir, ckpt)
        code, beam_out, _ = run(capsys, "generate", "--model", str(ckpt), "--data", str(copy_dir),
                                "--strategy", "beam", "--width", "1")
        assert code == 0
        code, sample_out, _ = run(capsys, "generate", "--model", str(ckpt), "--data", str(copy_dir),
                                  "--strategy", "sample", "--n-samples", "1",
                                  "--temperature", "1e6")
        assert code == 0
        assert beam_out == sample_out


class TestConfigMerging:
    def test_flags_override_file_values(self, capsys, copy_dir, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("hidden=4\nepochs=1\nembed_dim=5\nlr=0.2\n")
        ckpt = tmp_path / "m.ckpt"
        code, _, err = run(capsys, "train", "--data", str(copy_dir), "--out", str(ckpt),
                           "--config", str(cfg), "--hidden", "6")
        assert code == 0, err
        m = load_checkpoint(ckpt).model
        assert m.cells[0].n_hidden == 6
        assert m.embedding.dim == 5

    def test_file_values_override_defaults(self, capsys, copy_dir, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("hidden=4\nepochs=1\n")
        ckpt = tmp_path / "m.ckpt"
        code, _, err = run(capsys, "train", "--data", str(copy_dir), "--out", str(ckpt),
                           "--config", str(cfg))
        assert code == 0, err
        m = load_checkpoint(ckpt).model
        assert m.cells[0].n_hidden == 4

    @pytest.mark.parametrize("flags,message", [
        (("--factored",), "option factored is not read by encode_decode models"),
        (("--extractor-dim", "4"), "option extractor_dim is not read by encode_decode models"),
        (("--cell", "lstm", "--rnn-nonlinearity", "tanh"),
         "option rnn_nonlinearity is not read by encode_decode models with lstm cells"),
    ], ids=["factored", "extractor_dim", "rnn_nonlinearity"])
    def test_unread_option_names_option_and_task(self, capsys, copy_dir, tmp_path, flags, message):
        code, _, err = run(capsys, "train", "--data", str(copy_dir), "--out", str(tmp_path / "m.ckpt"), *flags)
        assert code == 1
        assert message in err
        assert not (tmp_path / "m.ckpt").exists()

    def test_options_the_task_reads_are_accepted(self, capsys, tmp_path):
        argv = _train_order(tmp_path, capsys, "--cell", "rnn", "--rnn-nonlinearity", "sigmoid", "--clip-len", "2",
                            "--extractor", "linear", "--extractor-dim", "3")
        code, _, err = run(capsys, *argv)
        assert code == 0, err

    def test_bad_config_value_is_usage_error(self, capsys, copy_dir, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("hidden=many\n")
        code, _, err = run(capsys, "train", "--data", str(copy_dir),
                           "--out", str(tmp_path / "m.ckpt"), "--config", str(cfg))
        assert code == 1
        assert "hidden" in err


class TestDeterminism:
    def test_identical_invocations_write_identical_checkpoints(self, capsys, copy_dir, tmp_path):
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        args = ["--hidden", "5", "--embed-dim", "4", "--epochs", "1", "--lr", "0.2", "--seed", "7"]
        code, _, _ = run(capsys, "train", "--data", str(copy_dir), "--out", str(a), *args)
        assert code == 0
        code, _, _ = run(capsys, "train", "--data", str(copy_dir), "--out", str(b), *args)
        assert code == 0
        assert a.read_bytes() == b.read_bytes()


class TestConsoleScript:
    def test_entry_point_runs(self):
        """The `recseq` script declared in pyproject.toml runs a subcommand.

        The declared `module:function` target is started in a child process the
        way an installed console wrapper starts it, so the check needs no
        installed package. An installed `recseq` script found on PATH is run too.
        """
        import os
        import shutil
        import subprocess
        import sys
        from pathlib import Path

        if sys.version_info >= (3, 11):
            import tomllib
        else:
            tomllib = pytest.importorskip("tomli")

        import recseq

        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        with pyproject.open("rb") as fh:
            target = tomllib.load(fh)["project"]["scripts"]["recseq"]
        module, _, func = target.partition(":")
        wrapper = (
            "import sys\n"
            f"from {module} import {func}\n"
            "sys.argv[0] = 'recseq'\n"
            f"sys.exit({func}())\n"
        )
        package_root = str(Path(recseq.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [package_root, os.environ.get("PYTHONPATH")]))}
        runs = [([sys.executable, "-c", wrapper], env)]
        installed = shutil.which("recseq")
        if installed is not None:
            runs.append(([installed], None))

        for command, run_env in runs:
            proc = subprocess.run(command + ["gradcheck", "--task", "classify"],
                                  capture_output=True, text=True, timeout=300, env=run_env)
            assert proc.returncode == 0, proc.stderr
            assert proc.stdout.startswith("classify ok"), proc.stdout
