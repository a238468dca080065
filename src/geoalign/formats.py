"""On-disk formats: binary rasters, PGM previews and scene-spec text.

Raster files are a four-field ASCII header line followed by a raw payload:

``GEOD 1 <H> <W>\\n`` + H*W little-endian IEEE-754 doubles, row-major
    depth maps and masks.
``GEOL 1 <H> <W>\\n`` + H*W bytes (0=GROUND, 1=ROOF, 2=FACADE, 3=EDGE)
    surface labels.

The declared dimensions must match the payload length exactly; trailing
bytes are an error. Masks are additionally exported as binary PGM (P5,
maxval 255, values quantized from [0, 1] by rounding, so the round-trip
error is at most 1/510) because any image viewer can open them.

Scene specs are line-oriented text: ``ground`` is required, ``slope``,
``raster``, ``noise``, ``seed`` and ``edge-band`` are optional singletons,
and each ``box x y w h height`` line adds one box. ``#`` comments and blank
lines are ignored. Parse errors carry 1-based line numbers, except where a rule
compares fields (box bounds and overlap, the slope's tilt on the raster).

All writes go through a temp-file-then-rename so readers never observe a
partial file.
"""

from __future__ import annotations

import math
import os
import tempfile

import numpy as np

from .autodiff import Array
from .scenes import Box, Label, SceneSpec, check_spec_field

DEPTH_MAGIC = b"GEOD"
LABEL_MAGIC = b"GEOL"
FORMAT_VERSION = 1
_MAX_HEADER = 64


class RasterFormatError(ValueError):
    """A raster file does not follow the documented byte layout."""


class SpecFormatError(ValueError):
    """A scene-spec file is malformed; ``line`` is 1-based (None if global)."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


def atomic_write_bytes(path, data: bytes) -> None:
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def atomic_write_text(path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def _encode_header(magic: bytes, arr: Array) -> bytes:
    """The header line of the raster ``arr``, which must be 2-d."""
    if arr.ndim != 2:
        raise ValueError(f"raster must be 2-d, got shape {arr.shape}")
    return b"%s %d %d %d\n" % (magic, FORMAT_VERSION, *arr.shape)


def _split_raster(data: bytes, magic: bytes, itemsize: int,
                  unit: str) -> tuple[int, int, bytes]:
    """``(H, W, payload)`` of a raster file whose payload holds H*W items of
    ``itemsize`` bytes each (``unit`` names them in the length error)."""
    newline = data.find(b"\n", 0, _MAX_HEADER)
    if newline < 0:
        raise RasterFormatError("missing header line")
    fields = data[:newline].split()
    if len(fields) != 4 or fields[0] != magic:
        raise RasterFormatError(
            f"bad header {data[:newline]!r}; expected "
            f"{magic.decode()} {FORMAT_VERSION} <H> <W>"
        )
    try:
        version, h, w = (int(f) for f in fields[1:])
    except ValueError:
        raise RasterFormatError(f"non-integer header fields in {data[:newline]!r}") from None
    if version != FORMAT_VERSION:
        raise RasterFormatError(f"unsupported version {version}")
    if h < 1 or w < 1:
        raise RasterFormatError(f"invalid dimensions {h} x {w}")
    payload = data[newline + 1:]
    if len(payload) != h * w * itemsize:
        raise RasterFormatError(f"payload holds {len(payload)} bytes but {h} x {w} "
                                f"{unit} need {h * w * itemsize}")
    return h, w, payload


def encode_f64_raster(values: Array) -> bytes:
    arr = np.asarray(values, dtype=np.float64)
    return _encode_header(DEPTH_MAGIC, arr) + arr.astype("<f8").tobytes()


def decode_f64_raster(data: bytes) -> Array:
    h, w, payload = _split_raster(data, DEPTH_MAGIC, 8, "doubles")
    return np.frombuffer(payload, dtype="<f8").astype(np.float64).reshape(h, w)


def encode_u8_raster(values: Array) -> bytes:
    arr = np.asarray(values)
    header = _encode_header(LABEL_MAGIC, arr)
    if arr.min(initial=0) < 0 or arr.max(initial=0) > max(Label):
        raise ValueError("label values must be in 0..3")
    return header + arr.astype(np.uint8).tobytes()


def decode_u8_raster(data: bytes) -> Array:
    h, w, payload = _split_raster(data, LABEL_MAGIC, 1, "labels")
    arr = np.frombuffer(payload, dtype=np.uint8).copy().reshape(h, w)
    if arr.max(initial=0) > max(Label):
        raise RasterFormatError("label payload contains values outside 0..3")
    return arr


def write_f64_raster(path, values: Array) -> None:
    atomic_write_bytes(path, encode_f64_raster(values))


def read_f64_raster(path) -> Array:
    with open(path, "rb") as handle:
        return decode_f64_raster(handle.read())


def write_u8_raster(path, values: Array) -> None:
    atomic_write_bytes(path, encode_u8_raster(values))


def read_u8_raster(path) -> Array:
    with open(path, "rb") as handle:
        return decode_u8_raster(handle.read())


def encode_mask_pgm(values: Array) -> bytes:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"mask must be 2-d, got shape {arr.shape}")
    if arr.min() < 0.0 or arr.max() > 1.0:
        raise ValueError("mask values must lie in [0, 1]")
    h, w = arr.shape
    header = b"P5\n%d %d\n255\n" % (w, h)
    return header + np.rint(arr * 255.0).astype(np.uint8).tobytes()


def write_mask_pgm(path, values: Array) -> None:
    atomic_write_bytes(path, encode_mask_pgm(values))


def _parse_numbers(parts: list[str], n: int, line: int, key: str, kind: type) -> list:
    """``n`` values of ``kind`` (``float`` or ``int``), each finite as a float64."""
    if len(parts) != n:
        raise SpecFormatError(f"`{key}` takes {n} value(s), got {len(parts)}", line)
    out = []
    for p in parts:
        try:
            v = kind(p)
        except ValueError:
            noun = "a number" if kind is float else "an integer"
            raise SpecFormatError(f"`{key}`: {p!r} is not {noun}", line) from None
        if not math.isfinite(float(p)):  # an int past the float64 range reads inf
            raise SpecFormatError(f"`{key}`: {p!r} is not finite", line)
        out.append(v)
    return out


# Singleton spec directives: name -> (SceneSpec field, value type, count).
# An absent directive leaves the field at its SceneSpec default.
_DIRECTIVES = {
    "ground": ("ground_depth", float, 1),
    "slope": ("oblique_slope", float, 2),
    "raster": ("raster", int, 2),
    "noise": ("noise_sigma", float, 1),
    "seed": ("rng_seed", int, 1),
    "edge-band": ("edge_band", int, 1),
}


def parse_scene_spec(text: str) -> SceneSpec:
    """Parse the line-oriented scene format; see the module docstring."""
    fields: dict[str, object] = {}
    boxes: list[Box] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, *parts = line.split()
        key = key.lower()
        if key == "box":
            if len(parts) != 5:
                raise SpecFormatError(
                    f"`box` takes 5 values (x y w h height), got {len(parts)}", line_no
                )
            ints = _parse_numbers(parts[:4], 4, line_no, "box", int)
            (height,) = _parse_numbers(parts[4:], 1, line_no, "box", float)
            try:
                boxes.append(Box(*ints, height))
            except ValueError as exc:
                raise SpecFormatError(str(exc), line_no) from None
            continue
        if key not in _DIRECTIVES:
            raise SpecFormatError(f"unknown directive {key!r}", line_no)
        field, kind, count = _DIRECTIVES[key]
        if field in fields:
            raise SpecFormatError(f"duplicate `{key}` line", line_no)
        values = _parse_numbers(parts, count, line_no, key, kind)
        fields[field] = values[0] if count == 1 else tuple(values)
        try:
            check_spec_field(field, fields[field])
        except ValueError as exc:
            raise SpecFormatError(str(exc), line_no) from None
    if "ground_depth" not in fields:
        raise SpecFormatError("missing required `ground` line")
    try:  # each field passed its own rules above; these compare fields
        return SceneSpec(boxes=tuple(boxes), **fields)
    except ValueError as exc:
        raise SpecFormatError(str(exc)) from None
