"""Byte-exact raster formats, the mask PGM export, and the scene text format."""

import os

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from geoalign.formats import (
    DEPTH_MAGIC,
    FORMAT_VERSION,
    LABEL_MAGIC,
    RasterFormatError,
    SpecFormatError,
    atomic_write_bytes,
    decode_f64_raster,
    decode_u8_raster,
    encode_f64_raster,
    encode_mask_pgm,
    encode_u8_raster,
    parse_scene_spec,
    read_f64_raster,
    read_u8_raster,
    write_f64_raster,
    write_mask_pgm,
    write_u8_raster,
)
from geoalign.scenes import Box, SceneSpec


def serialize_scene_spec(spec):
    """Canonical spec text naming every field; the round-trip oracle for
    ``parse_scene_spec``."""
    lines = [
        f"ground {spec.ground_depth!r}",
        f"slope {spec.oblique_slope[0]!r} {spec.oblique_slope[1]!r}",
        f"raster {spec.raster[0]} {spec.raster[1]}",
        f"noise {spec.noise_sigma!r}",
        f"seed {spec.rng_seed}",
        f"edge-band {spec.edge_band}",
    ]
    lines.extend(f"box {b.x} {b.y} {b.w} {b.h} {b.height!r}" for b in spec.boxes)
    return "\n".join(lines) + "\n"


class TestF64Raster:
    def test_round_trip_is_bit_exact(self):
        rng = np.random.default_rng(0)
        values = rng.normal(size=(5, 7))
        decoded = decode_f64_raster(encode_f64_raster(values))
        assert decoded.dtype == np.float64
        assert np.array_equal(decoded, values)

    def test_header_layout(self):
        data = encode_f64_raster(np.zeros((5, 7)))
        assert data.startswith(b"GEOD 1 5 7\n")
        assert DEPTH_MAGIC == b"GEOD" and FORMAT_VERSION == 1
        assert len(data) == len(b"GEOD 1 5 7\n") + 5 * 7 * 8

    def test_payload_is_little_endian_row_major(self):
        values = np.array([[1.0, 2.0], [3.0, 4.0]])
        payload = encode_f64_raster(values).split(b"\n", 1)[1]
        assert payload == values.astype("<f8").tobytes()

    def test_non_2d_rejected(self):
        with pytest.raises(ValueError, match="2-d"):
            encode_f64_raster(np.zeros(4))

    def test_bad_magic_rejected(self):
        data = b"GEOX 1 1 1\n" + b"\x00" * 8
        with pytest.raises(RasterFormatError, match="bad header"):
            decode_f64_raster(data)

    def test_bad_version_rejected(self):
        data = b"GEOD 9 1 1\n" + b"\x00" * 8
        with pytest.raises(RasterFormatError, match="version"):
            decode_f64_raster(data)

    def test_non_integer_header_rejected(self):
        data = b"GEOD 1 a 1\n" + b"\x00" * 8
        with pytest.raises(RasterFormatError, match="non-integer"):
            decode_f64_raster(data)

    def test_missing_newline_rejected(self):
        with pytest.raises(RasterFormatError, match="missing header"):
            decode_f64_raster(b"GEOD 1 1 1 " + b"\x00" * 64)

    def test_zero_dimension_rejected(self):
        with pytest.raises(RasterFormatError, match="invalid dimensions"):
            decode_f64_raster(b"GEOD 1 0 4\n")

    def test_short_payload_rejected(self):
        data = encode_f64_raster(np.zeros((2, 2)))
        with pytest.raises(RasterFormatError, match="payload holds"):
            decode_f64_raster(data[:-1])

    def test_trailing_bytes_rejected(self):
        data = encode_f64_raster(np.zeros((2, 2)))
        with pytest.raises(RasterFormatError, match="payload holds"):
            decode_f64_raster(data + b"\x00")


class TestU8Raster:
    def test_round_trip(self):
        values = np.arange(12).reshape(3, 4) % 4
        decoded = decode_u8_raster(encode_u8_raster(values))
        assert decoded.dtype == np.uint8
        assert np.array_equal(decoded, values)
        assert encode_u8_raster(values).startswith(b"GEOL 1 3 4\n")
        assert LABEL_MAGIC == b"GEOL"

    def test_values_above_three_rejected_on_encode(self):
        with pytest.raises(ValueError, match="0..3"):
            encode_u8_raster(np.full((2, 2), 4))

    def test_negative_values_rejected_on_encode(self):
        with pytest.raises(ValueError, match="0..3"):
            encode_u8_raster(np.full((2, 2), -1))

    def test_values_above_three_rejected_on_decode(self):
        data = b"GEOL 1 1 2\n" + bytes([1, 7])
        with pytest.raises(RasterFormatError, match="0..3"):
            decode_u8_raster(data)

    def test_wrong_payload_length_rejected(self):
        with pytest.raises(RasterFormatError, match="payload holds"):
            decode_u8_raster(b"GEOL 1 2 2\n" + bytes([0, 1, 2]))

    def test_depth_magic_not_accepted_for_labels(self):
        data = encode_f64_raster(np.zeros((1, 1)))
        with pytest.raises(RasterFormatError, match="bad header"):
            decode_u8_raster(data)


class TestFileHelpers:
    def test_f64_file_round_trip(self, tmp_path):
        path = tmp_path / "depth.geod"
        values = np.linspace(0.0, 1.0, 12).reshape(3, 4)
        write_f64_raster(path, values)
        assert np.array_equal(read_f64_raster(path), values)

    def test_u8_file_round_trip(self, tmp_path):
        path = tmp_path / "labels.geol"
        values = np.arange(9).reshape(3, 3) % 4
        write_u8_raster(path, values)
        assert np.array_equal(read_u8_raster(path), values)

    def test_atomic_write_leaves_no_temp_files(self, tmp_path):
        path = tmp_path / "out.bin"
        atomic_write_bytes(path, b"payload")
        assert path.read_bytes() == b"payload"
        assert os.listdir(tmp_path) == ["out.bin"]

    def test_atomic_write_replaces_existing_content(self, tmp_path):
        path = tmp_path / "out.bin"
        path.write_bytes(b"old")
        atomic_write_bytes(path, b"new")
        assert path.read_bytes() == b"new"


class TestMaskPgm:
    def test_header_and_payload(self):
        values = np.array([[0.0, 0.5, 1.0]])
        data = encode_mask_pgm(values)
        assert data.startswith(b"P5\n3 1\n255\n")
        assert data[len(b"P5\n3 1\n255\n"):] == bytes([0, 128, 255])

    def test_quantization_error_bounded(self, tmp_path):
        rng = np.random.default_rng(1)
        values = rng.uniform(size=(8, 8))
        path = tmp_path / "m.pgm"
        write_mask_pgm(path, values)
        payload = path.read_bytes().split(b"255\n", 1)[1]
        recovered = np.frombuffer(payload, dtype=np.uint8).reshape(8, 8) / 255.0
        assert np.max(np.abs(recovered - values)) <= 1.0 / 510.0 + 1e-12

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            encode_mask_pgm(np.array([[1.5]]))
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            encode_mask_pgm(np.array([[-0.1]]))

    def test_non_2d_rejected(self):
        with pytest.raises(ValueError, match="2-d"):
            encode_mask_pgm(np.zeros(3))


class TestSceneSpecText:
    def test_canonical_round_trip(self):
        spec = SceneSpec(40.0, (Box(6, 6, 20, 20, 32.0), Box(36, 10, 18, 14, 25.0)),
                         (-0.03, 0.025), (64, 64), 0.02, 2, edge_band=3)
        assert parse_scene_spec(serialize_scene_spec(spec)) == spec

    def test_defaults_from_minimal_spec(self):
        spec = parse_scene_spec("ground 40.0\n")
        assert spec == SceneSpec(40.0, (), (0.0, 0.0), (64, 64), 0.0, 0, edge_band=2)

    def test_comments_and_blank_lines_ignored(self):
        text = "# a city\n\nground 40.0  # base plane\n\n  # done\n"
        assert parse_scene_spec(text).ground_depth == 40.0

    def test_duplicate_scalar_rejected_with_line_number(self):
        with pytest.raises(SpecFormatError, match="line 3: duplicate `ground`"):
            parse_scene_spec("ground 40.0\nslope 0 0\nground 41.0\n")
        try:
            parse_scene_spec("ground 40.0\nground 41.0\n")
        except SpecFormatError as exc:
            assert exc.line == 2

    def test_unknown_directive_rejected(self):
        with pytest.raises(SpecFormatError, match="unknown directive 'tower'"):
            parse_scene_spec("ground 40.0\ntower 1 2\n")

    def test_missing_ground_rejected(self):
        with pytest.raises(SpecFormatError, match="missing required `ground`") as info:
            parse_scene_spec("slope 0.1 0.2\n")
        assert info.value.line is None

    def test_box_arity_enforced(self):
        with pytest.raises(SpecFormatError, match="`box` takes 5 values"):
            parse_scene_spec("ground 40.0\nbox 1 2 3 4\n")

    def test_degenerate_box_reported_with_line(self):
        with pytest.raises(SpecFormatError, match="line 2:"):
            parse_scene_spec("ground 40.0\nbox 1 2 0 4 10.0\n")

    def test_non_numeric_value_rejected(self):
        with pytest.raises(SpecFormatError, match="not a number"):
            parse_scene_spec("ground tall\n")
        with pytest.raises(SpecFormatError, match="not an integer"):
            parse_scene_spec("ground 40.0\nseed 1.5\n")
        with pytest.raises(SpecFormatError, match="not finite"):
            parse_scene_spec("ground inf\n")

    def test_overlapping_boxes_rejected(self):
        text = "ground 40.0\nbox 4 4 10 10 20.0\nbox 8 8 10 10 20.0\n"
        with pytest.raises(ValueError, match="overlap"):
            parse_scene_spec(text)

    def test_serialized_floats_preserve_precision(self):
        spec = SceneSpec(40.123456789012345, (), (0.1, 0.2), (32, 48), 0.07, 5)
        round_tripped = parse_scene_spec(serialize_scene_spec(spec))
        assert round_tripped.ground_depth == spec.ground_depth
        assert round_tripped.oblique_slope == spec.oblique_slope


FUZZ = settings(derandomize=True, database=None, max_examples=150, deadline=None)
RASTER_SHAPES = hnp.array_shapes(min_dims=2, max_dims=2, max_side=6)
# Header-like prefixes, so the fuzz reaches past the header into the payload.
HEADERS = st.builds(
    lambda magic, fields: magic + b" " + b" ".join(fields) + b"\n",
    st.sampled_from([DEPTH_MAGIC, LABEL_MAGIC, b"", b"GEO"]),
    st.lists(st.one_of(st.integers(-2, 4).map(lambda n: b"%d" % n),
                       st.binary(max_size=3)), max_size=5),
)
RASTER_BYTES = st.one_of(st.binary(max_size=96),
                         st.builds(bytes.__add__, HEADERS, st.binary(max_size=64)))
SPEC_INTS = st.integers(-4, 80).map(str)
SPEC_FLOATS = st.one_of(SPEC_INTS, st.floats(width=64).map(repr),
                        st.sampled_from(["1e308", "-1e308", "1e400", "1_0"]))
# Each directive with its arity and value kinds, so that generated specs get
# past the per-line rules to the rules that compare fields.
SPEC_DIRECTIVES = {
    "ground": [SPEC_FLOATS], "slope": [SPEC_FLOATS] * 2, "raster": [SPEC_INTS] * 2,
    "noise": [SPEC_FLOATS], "seed": [SPEC_INTS], "edge-band": [SPEC_INTS],
    "box": [SPEC_INTS] * 4 + [SPEC_FLOATS],
}
SPEC_LINES = st.sampled_from(sorted(SPEC_DIRECTIVES)).flatmap(
    lambda key: st.tuples(*SPEC_DIRECTIVES[key]).map(lambda vs: " ".join([key, *vs])))
SPEC_TEXTS = st.one_of(
    st.text(max_size=64),
    st.lists(st.one_of(SPEC_LINES, st.text(max_size=24)), max_size=8).map("\n".join),
    # A leading ground line and box lines reach the rules that compare fields.
    st.builds(lambda lines, boxes: "\n".join(["ground 40", *lines, *boxes]),
              st.lists(SPEC_LINES, max_size=3),
              st.lists(st.tuples(*SPEC_DIRECTIVES["box"]).map(
                  lambda vs: " ".join(["box", *vs])), max_size=3)),
)


def decodes_or_rejects(decode, data):
    """``decode(data)`` returns or raises ``RasterFormatError``, nothing else."""
    try:
        decode(data)
    except RasterFormatError:
        pass


def assert_truncations_rejected(decode, data):
    for end in range(len(data)):
        with pytest.raises(RasterFormatError):
            decode(data[:end])


class TestFormatFuzz:
    """The format boundary on generated input: valid files round-trip bit for
    bit, and malformed input ends in the format's own error."""

    @FUZZ
    @given(values=hnp.arrays(np.float64, RASTER_SHAPES,
                             elements=st.floats(width=64, allow_nan=True)))
    def test_f64_round_trip_is_bit_exact_and_truncations_fail(self, values):
        data = encode_f64_raster(values)
        decoded = decode_f64_raster(data)
        assert decoded.shape == values.shape
        assert decoded.tobytes() == values.tobytes()
        assert_truncations_rejected(decode_f64_raster, data)

    @FUZZ
    @given(values=hnp.arrays(np.uint8, RASTER_SHAPES, elements=st.integers(0, 3)))
    def test_u8_round_trip_is_bit_exact_and_truncations_fail(self, values):
        data = encode_u8_raster(values)
        decoded = decode_u8_raster(data)
        assert decoded.dtype == np.uint8 and decoded.shape == values.shape
        assert decoded.tobytes() == values.tobytes()
        assert_truncations_rejected(decode_u8_raster, data)

    @FUZZ
    @given(data=RASTER_BYTES)
    def test_arbitrary_bytes_decode_or_raise_format_error(self, data):
        decodes_or_rejects(decode_f64_raster, data)
        decodes_or_rejects(decode_u8_raster, data)

    @FUZZ
    @given(text=SPEC_TEXTS)
    @example(text="ground 40\nbox 60 60 10 10 5.0\n")  # the box leaves the raster
    @example(text="ground 40\nbox 4 4 10 10 5.0\nbox 8 8 10 10 5.0\n")  # overlap
    @example(text="ground 1\nslope 1e308 1e308\n")  # the tilt passes float64
    def test_arbitrary_text_parses_or_raises_spec_format_error(self, text):
        try:
            parse_scene_spec(text)
        except SpecFormatError:
            pass

    @pytest.mark.parametrize("text, message", [
        ("ground 40\nbox 60 60 10 10 5.0\n", "box 0 leaves the 64x64 raster"),
        ("ground 40\nbox 4 4 10 10 5.0\nbox 8 8 10 10 5.0\n", "boxes 0 and 1 overlap"),
        ("ground 1\nslope 1e308 1e308\n", "tilts the ground plane past the float64"),
        ("ground -1e308\nbox 1 1 4 4 1e308\n",
         "box 0 of height 1e\\+308 puts depth past the float64 range on the 64x64 raster"),
    ])
    def test_cross_field_rules_have_no_line_number(self, text, message):
        with pytest.raises(SpecFormatError, match=message) as info:
            parse_scene_spec(text)
        assert info.value.line is None
