"""Binary checkpoint format: exact round trips and corruption detection."""

import json
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recseq.checkpoint import _FIELD_TYPES, MAGIC, VERSION, load_checkpoint, save_checkpoint
from recseq.errors import DataFormatError, NumericError
from recseq.features import make_extractor
from recseq.models import Vocabulary, build_model
from recseq.training import build_demo_model


def assert_models_identical(a, b):
    blocks_a, blocks_b = a.blocks(), b.blocks()
    assert [n for n, _ in blocks_a] == [n for n, _ in blocks_b]
    for (name, arr_a), (_, arr_b) in zip(blocks_a, blocks_b):
        np.testing.assert_array_equal(arr_a, arr_b, err_msg=name)


HEADER_AT = len(MAGIC) + 4  # the header length, then the header


def read_header(raw):
    """(decoded header, offset of the first byte after it) of a checkpoint."""
    (length,) = struct.unpack_from("<Q", raw, HEADER_AT)
    return json.loads(raw[HEADER_AT + 8:HEADER_AT + 8 + length]), HEADER_AT + 8 + length


def with_header(raw, change):
    """A checkpoint's bytes with ``change`` applied to its decoded header."""
    header, end = read_header(raw)
    change(header)
    encoded = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    return raw[:HEADER_AT] + struct.pack("<Q", len(encoded)) + encoded + raw[end:]


TOPOLOGIES = ["classify", "caption_1u", "caption_2u", "caption_2f", "encode_decode", "perstep_decode"]


class TestRoundTrip:
    @pytest.mark.parametrize("topology", TOPOLOGIES)
    def test_every_topology_round_trips_bit_exactly(self, tmp_path, topology):
        m = build_demo_model(topology, seed=3)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, m, step=17)
        bundle = load_checkpoint(path)
        assert bundle.step == 17
        assert bundle.model.task == m.task
        assert_models_identical(m, bundle.model)

    def test_rnn_cell_round_trips(self, tmp_path):
        m = build_demo_model("classify", seed=0, cell="rnn")
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, m)
        assert_models_identical(m, load_checkpoint(path).model)

    def test_vocabulary_and_topology_metadata_survive(self, tmp_path):
        m = build_demo_model("caption_2f", seed=1)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, m)
        loaded = load_checkpoint(path).model
        assert loaded.vocab.tokens == m.vocab.tokens
        assert (loaded.vocab.bos, loaded.vocab.eos) == (m.vocab.bos, m.vocab.eos)
        assert loaded.factored == m.factored
        assert loaded.inject_layer == m.inject_layer
        assert loaded.extractor.input_shape == m.extractor.input_shape

    def test_double_save_is_byte_identical(self, tmp_path):
        m = build_demo_model("caption_1u", seed=9)
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(a, m, step=5)
        save_checkpoint(b, m, step=5)
        assert a.read_bytes() == b.read_bytes()

    def test_loaded_model_saves_to_identical_bytes(self, tmp_path):
        m = build_demo_model("perstep_decode", seed=2)
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(a, m, step=1)
        save_checkpoint(b, load_checkpoint(a).model, step=1)
        assert a.read_bytes() == b.read_bytes()

    def test_non_contiguous_parameter_views_serialize(self, tmp_path):
        # Gate views alias rows of the stacked arrays; writing through one
        # must land in the file.
        m = build_demo_model("encode_decode", seed=0)
        m.cells[0].W_xf[0, 0] = 123.456
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, m)
        loaded = load_checkpoint(path).model
        assert loaded.cells[0].W_xf[0, 0] == 123.456


class TestCorruption:
    def saved(self, tmp_path):
        m = build_demo_model("encode_decode", seed=0)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, m, step=3)
        return path

    def test_bad_magic(self, tmp_path):
        path = self.saved(tmp_path)
        data = bytearray(path.read_bytes())
        data[0] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(DataFormatError):
            load_checkpoint(path)

    def test_unsupported_version(self, tmp_path):
        path = self.saved(tmp_path)
        data = bytearray(path.read_bytes())
        data[len(MAGIC)] = 99
        path.write_bytes(bytes(data))
        with pytest.raises(DataFormatError):
            load_checkpoint(path)

    def test_version_1_file_is_refused(self, tmp_path):
        # The version 1 writer saved the same payload under version word 1
        # with "rng_state":null in the header.
        path = self.saved(tmp_path)
        data = bytearray(with_header(path.read_bytes(), lambda header: header.update(rng_state=None)))
        struct.pack_into("<I", data, len(MAGIC), 1)
        path.write_bytes(bytes(data))
        with pytest.raises(DataFormatError, match="unsupported checkpoint version 1"):
            load_checkpoint(path)

    def test_header_holds_exactly_the_known_fields(self, tmp_path):
        raw = self.saved(tmp_path).read_bytes()
        assert VERSION == 2
        assert struct.unpack_from("<I", raw, len(MAGIC)) == (VERSION,)
        assert sorted(read_header(raw)[0]) == sorted(_FIELD_TYPES)

    def test_truncated_payload(self, tmp_path):
        path = self.saved(tmp_path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 9])
        with pytest.raises(DataFormatError):
            load_checkpoint(path)

    def test_trailing_garbage(self, tmp_path):
        path = self.saved(tmp_path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(DataFormatError):
            load_checkpoint(path)

    def test_header_block_shape_mismatch(self, tmp_path):
        path = self.saved(tmp_path)
        data = path.read_bytes()
        assert data.count(b'"hidden":8') == 1
        path.write_bytes(data.replace(b'"hidden":8', b'"hidden":9'))
        with pytest.raises(DataFormatError):
            load_checkpoint(path)

    def test_header_not_json(self, tmp_path):
        path = self.saved(tmp_path)
        data = bytearray(path.read_bytes())
        # First header byte is '{' right after magic, version, and length.
        offset = len(MAGIC) + 4 + 8
        assert data[offset : offset + 1] == b"{"
        data[offset] = ord("?")
        path.write_bytes(bytes(data))
        with pytest.raises(DataFormatError):
            load_checkpoint(path)

    def test_header_that_disagrees_with_the_derived_inject_layer(self, tmp_path):
        m = build_demo_model("caption_2f", seed=0)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, m)
        data = path.read_bytes()
        assert data.count(b'"inject_layer":2') == 1
        path.write_bytes(data.replace(b'"inject_layer":2', b'"inject_layer":3'))
        with pytest.raises(DataFormatError, match="inject_layer"):
            load_checkpoint(path)

    def test_block_dimension_beyond_the_file_size(self, tmp_path):
        path = self.saved(tmp_path)
        data = bytearray(path.read_bytes())
        offset = len(MAGIC) + 4
        header_len = struct.unpack_from("<Q", data, offset)[0]
        offset += 8 + header_len + 8  # past the header and the block count
        name_len = struct.unpack_from("<Q", data, offset)[0]
        offset += 8 + name_len + 8  # past the first block's name and ndim
        assert struct.unpack_from("<2Q", data, offset) == (8, 9)
        # 8 * 2**62 wraps to 0 in 64-bit arithmetic.
        struct.pack_into("<Q", data, offset + 8, 2 ** 62)
        path.write_bytes(bytes(data))
        with pytest.raises(DataFormatError):
            load_checkpoint(path)


# Small JSON values: no replacement can describe a large model.
SMALL_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(min_value=-2, max_value=64) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3),
    max_leaves=6,
)


class TestHeaderFuzz:
    @given(st.sampled_from(TOPOLOGIES), st.data(), SMALL_JSON)
    @settings(max_examples=50, deadline=None)
    def test_one_replaced_field_loads_or_is_a_data_error(self, topology, data, value):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "model.ckpt"
            save_checkpoint(path, build_demo_model(topology, seed=0), step=4)
            field = data.draw(st.sampled_from(sorted(_FIELD_TYPES)), label="field")
            path.write_bytes(with_header(path.read_bytes(), lambda header: header.update({field: value})))
            try:
                load_checkpoint(path)
            except DataFormatError:
                pass


def _payload_offsets(raw):
    """Byte offset of every payload float of a checkpoint, in file order."""
    offset = len(MAGIC) + 4
    offset += 8 + struct.unpack_from("<Q", raw, offset)[0]
    (n_blocks,) = struct.unpack_from("<Q", raw, offset)
    offset += 8
    out = []
    for _ in range(n_blocks):
        offset += 8 + struct.unpack_from("<Q", raw, offset)[0]
        (ndim,) = struct.unpack_from("<Q", raw, offset)
        size = int(np.prod(struct.unpack_from(f"<{ndim}Q", raw, offset + 8)))
        offset += 8 + 8 * ndim
        out.extend(range(offset, offset + 8 * size, 8))
        offset += 8 * size
    assert offset == len(raw)
    return out


def _payload(m):
    return np.concatenate([a.ravel() for _, a in m.blocks()])


class TestPayloadFuzz:
    @given(st.sampled_from(TOPOLOGIES), st.data(), st.floats(allow_nan=True, allow_infinity=True))
    @settings(max_examples=50, deadline=None)
    def test_one_replaced_float_loads_exactly_or_is_a_data_error(self, topology, data, value):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "model.ckpt"
            m = build_demo_model(topology, seed=0)
            save_checkpoint(path, m)
            raw = bytearray(path.read_bytes())
            offsets = _payload_offsets(raw)
            k = data.draw(st.integers(0, len(offsets) - 1), label="float")
            struct.pack_into("<d", raw, offsets[k], value)
            path.write_bytes(bytes(raw))
            if not np.isfinite(value):
                with pytest.raises(DataFormatError, match="non-finite"):
                    load_checkpoint(path)
                return
            want = _payload(m)
            want[k] = value
            assert _payload(load_checkpoint(path).model).tobytes() == want.tobytes()


# (header field, replacement value; None deletes the field)
HEADER_FAULTS = [
    ("extractor", "x"),
    ("extractor", {"input_shape": [4]}),
    ("vocab", [1, 2]),
    ("vocab", {"bos": 0}),
    ("hidden", "big"),
    ("task", None),
    ("step", "abc"),
    ("step", None),
    ("resume_from", 0),
]


class TestHeaderErrorsNameTheField:
    @pytest.mark.parametrize("field,value", HEADER_FAULTS, ids=[f"{f}-{v!r}" for f, v in HEADER_FAULTS])
    def test_message_names_the_field(self, tmp_path, field, value):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, build_demo_model("caption_1u", seed=0), step=2)
        path.write_bytes(with_header(
            path.read_bytes(), lambda header: header.pop(field) if value is None else header.update({field: value})))
        with pytest.raises(DataFormatError, match=f"header field '{field}'"):
            load_checkpoint(path)


class TestExtractorVariants:
    @pytest.mark.parametrize("variant,shape,options", [
        ("identity", (5,), {}),
        ("linear", (5,), {"out_dim": 3}),
        ("mlp1", (5,), {"out_dim": 3, "hidden_dim": 4}),
        ("smallconv", (1, 6, 6), {"out_dim": 3, "n_filters": 2, "kernel_size": 3}),
    ])
    def test_classify_model_round_trips(self, tmp_path, variant, shape, options):
        rng = np.random.default_rng(5)
        ext = make_extractor(variant, shape, rng=rng, **options)
        m = build_model("classify", rng=rng, hidden=4, layers=1, extractor=ext, n_classes=3)
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(a, m, step=2)
        loaded = load_checkpoint(a).model
        assert_models_identical(m, loaded)
        assert loaded.extractor.variant == variant
        assert loaded.extractor.input_shape == shape
        save_checkpoint(b, loaded, step=2)
        assert a.read_bytes() == b.read_bytes()


class TestNonFiniteParameters:
    def test_save_refuses_and_writes_nothing(self, tmp_path):
        m = build_demo_model("caption_1u", seed=0)
        m.prediction.b_z[1] = np.inf
        path = tmp_path / "model.ckpt"
        with pytest.raises(NumericError, match="pred.b_z"):
            save_checkpoint(path, m)
        assert not path.exists()
