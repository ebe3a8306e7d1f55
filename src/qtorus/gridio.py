"""File formats: CoeffGrid JSON, PGM images, atomic output, run manifests.

Grid JSON: {"n": N, "tag": "fourier-real"|"hermitian"|"general",
"entries": [[re, im], ...]} with (2N+1)^2 pairs in row-major order,
k outer from -N to N, l inner from -N to N.  Files are written with
compact separators and shortest round-trip floats (orjson), so every
value reads back bitwise; non-finite values are never written.  The
reader accepts any JSON whitespace and number spelling and rejects
anything that is not a finite JSON number.

PGM: both ASCII (P2) and binary (P5), maxval up to 65535; pixel v maps
to f = v / maxval in [0, 1].  The header fields (width, height, maxval)
are separated by whitespace and by '#' comments that run to the end of
the line.

Outputs are written to a temp file in the target directory and renamed
into place (`atomic_writer`, which also streams), so interrupted runs
never leave partial files.
"""

from __future__ import annotations

import json
import math
import numbers
import os
import re
import tempfile
import time
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain

import numpy as np
import orjson

from . import __version__
from .errors import DimensionError, DomainError, FormatError
from .grids import TAGS, CoeffGrid, SampleGrid
from .spectral import analyze


def _grid_bytes(grid: CoeffGrid) -> bytes:
    pairs = grid.data.view(np.float64).reshape(-1, 2)  # data is C-contiguous complex128
    finite = np.isfinite(pairs).all(axis=1)
    if not finite.all():
        i = int(np.flatnonzero(~finite)[0])
        side = 2 * grid.n + 1
        raise FormatError("cannot write grid JSON: entry %d (k=%d, l=%d) is not finite"
                          % (i, i // side - grid.n, i % side - grid.n))
    return orjson.dumps({"n": grid.n, "tag": grid.tag, "entries": pairs},
                        option=orjson.OPT_SERIALIZE_NUMPY)


def grid_to_json(grid: CoeffGrid) -> str:
    return _grid_bytes(grid).decode()


# A grid nests 3 deep.  orjson converts a parsed document to Python objects
# recursively and overflows the C stack near 10^5 levels, so deeper text is
# refused before it reaches the parser.
_MAX_DEPTH = 64
_NOT_STRUCTURE = bytes(range(256)).translate(None, b'[]{}"')
_STRING = re.compile(rb'"[^"]*"')
_DEPTH_STEP = np.zeros(256, dtype=np.int64)
_DEPTH_STEP[list(b"[{")] = 1
_DEPTH_STEP[list(b"]}")] = -1
# a literal or number token, to word the error at orjson's failure position
_TOKEN = re.compile(r"-?(?:NaN|Infinity|[0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?)")
_NUMBER_TYPES = frozenset((float, int))
_JSON_KIND = {type(None): "null", bool: "a boolean", str: "a string", dict: "an object",
              list: "an array"}


def _nesting_depth(blob: bytes) -> int:
    """Deepest bracket nesting of a JSON text; exact when the text is valid JSON.

    Escaped backslashes and quotes go first, so every remaining quote opens or
    closes a string; the brackets inside strings then go with the strings.
    """
    if b"\\" in blob:
        blob = blob.replace(b"\\\\", b"").replace(b'\\"', b"")
    skeleton = _STRING.sub(b"", blob.translate(None, _NOT_STRUCTURE))
    steps = _DEPTH_STEP[np.frombuffer(skeleton, dtype=np.uint8)]
    return int(np.cumsum(steps).max(initial=0))


def _parse(blob: bytes):
    if _nesting_depth(blob) > _MAX_DEPTH:
        raise FormatError("invalid grid JSON: nested deeper than %d levels" % _MAX_DEPTH)
    try:
        return orjson.loads(blob)
    except orjson.JSONDecodeError as exc:
        token = _TOKEN.match(exc.doc, exc.pos)
        if token and not math.isfinite(float(token.group())):
            raise FormatError("grid JSON: %s at char %d is not finite" % (token.group(), exc.pos))
        raise FormatError("invalid grid JSON: %s" % exc)


def grid_from_json(text) -> CoeffGrid:
    """Parse grid JSON given as str or UTF-8 bytes."""
    if isinstance(text, str):
        text = text.encode("utf-8", "surrogatepass")
    obj = _parse(text)
    if not isinstance(obj, dict):
        raise FormatError("grid JSON must be an object")
    for key in ("n", "tag", "entries"):
        if key not in obj:
            raise FormatError("grid JSON missing key %r" % key)
    n = obj["n"]
    tag = obj["tag"]
    if type(n) is not int or n < 0:
        raise FormatError("grid JSON: n must be a non-negative integer")
    if tag not in TAGS:
        raise FormatError("grid JSON: unknown tag %r" % (tag,))
    side = 2 * n + 1
    entries = obj["entries"]
    if not isinstance(entries, list) or len(entries) != side * side:
        raise FormatError(
            "grid JSON: expected %d entries, got %s"
            % (side * side, len(entries) if isinstance(entries, list) else "non-list")
        )
    # whole-list passes in C; only a failing check looks for the entry to name
    if set(map(type, entries)) != {list} or set(map(len, entries)) != {2}:
        i = next(i for i, p in enumerate(entries) if type(p) is not list or len(p) != 2)
        raise FormatError("grid JSON: entry %d is not a [re, im] pair" % i)
    values = list(chain.from_iterable(entries))
    if not set(map(type, values)) <= _NUMBER_TYPES:
        i = next(i for i, v in enumerate(values) if type(v) not in _NUMBER_TYPES)
        raise FormatError("grid JSON: entry %d holds %s, not a number"
                          % (i // 2, _JSON_KIND[type(values[i])]))
    # one float64 array viewed as complex: re + 1j*im could flip the sign of a zero
    data = np.array(values, dtype=np.float64).view(np.complex128)
    # orjson refuses NaN, Infinity and overflowing numbers; this keeps the
    # finite-entry promise whatever the parser lets through
    bad = np.flatnonzero(~np.isfinite(data))
    if bad.size:
        raise FormatError("grid JSON: entry %d is not finite" % bad[0])
    return CoeffGrid(n, data.reshape(side, side), tag)


def read_grid(path) -> CoeffGrid:
    with open(path, "rb") as fh:
        return grid_from_json(fh.read())


@contextmanager
def atomic_writer(path):
    """Binary handle on a temp file beside `path`, renamed into place when the
    block ends and deleted if it raises, so `path` is either untouched or whole."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".qtorus-", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_bytes(path, payload: bytes):
    with atomic_writer(path) as fh:
        fh.write(payload)


def write_grid(path, grid: CoeffGrid):
    atomic_write_bytes(path, _grid_bytes(grid) + b"\n")


@dataclass
class RunManifest:
    """JSON sidecar describing how an output file was produced."""

    inputs: list
    params: dict

    def __post_init__(self):
        self.started = time.monotonic()  # a wall-clock step cannot make duration_s negative

    def write_for(self, out_path):
        payload = {
            "inputs": [str(p) for p in self.inputs],
            "params": self.params,
            "tool_version": __version__,
            "duration_s": time.monotonic() - self.started,
        }
        atomic_write_bytes(str(out_path) + ".manifest.json",
                           (json.dumps(payload, sort_keys=True, default=str) + "\n").encode())


# One header field after any whitespace and '#' comments.  A comment ends at its
# newline or at the end of the file: unanchored, a failed match would backtrack
# into the comment and read a field out of it.
_PGM_FIELD = re.compile(rb"(?:\s|#[^\n]*(?:\n|\Z))*([^\s#]+)")


def read_pgm(path):
    """Read P2/P5 into (float array in [0,1], maxval)."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:2] not in (b"P2", b"P5"):
        raise FormatError("not a PGM file (magic %r)" % blob[:2])
    binary = blob[:2] == b"P5"
    tokens, pos = [], 2
    for _ in range(3):
        field = _PGM_FIELD.match(blob, pos)
        if field is None:
            raise FormatError("truncated PGM header")
        tokens.append(field.group(1))
        pos = field.end()
    if not all(t.isdigit() for t in tokens):  # bytes.isdigit is ASCII; int() takes "1_0"
        raise FormatError("malformed PGM header fields %r" % tokens)
    width, height, maxval = (int(t) for t in tokens)
    if width <= 0 or height <= 0 or not (0 < maxval < 65536):
        raise FormatError("invalid PGM dimensions or maxval")
    npix = width * height
    if binary:
        pos += 1  # single whitespace byte after maxval
        dtype = np.dtype(">u2") if maxval > 255 else np.dtype("u1")
        raster = blob[pos:pos + npix * dtype.itemsize]
        if len(raster) < npix * dtype.itemsize:
            raise FormatError("truncated PGM raster")
        pix = np.frombuffer(raster, dtype=dtype).astype(np.float64)
    else:
        tokens = blob[pos:].split()[:npix]
        if len(tokens) < npix:
            raise FormatError("truncated PGM raster")
        # PGM pixels are decimal integers; float parsing would let 1.5, 2e2 and nan in
        bad = next((t for t in tokens if not t.isdigit()), None)
        if bad is not None:
            raise FormatError("PGM pixel %r is not a finite number written as a decimal "
                              "integer" % bad.decode("ascii", "replace"))
        pix = np.array(tokens, dtype=np.float64)
    if pix.max() > maxval or pix.min() < 0:
        raise FormatError("PGM pixel outside [0, maxval]")
    img = pix.reshape(height, width) / float(maxval)
    return img, maxval


def write_pgm(path, values: np.ndarray, maxval: int = 255, binary: bool = False):
    """Quantize values in [0,1] to a PGM file (row-major, P2 or P5).

    Only files `read_pgm` takes back are written: values that are not a
    non-empty 2D array (DimensionError), not finite, or a maxval that is not
    an integer in 1..65535 (DomainError) are refused before anything is written.
    """
    if not (isinstance(maxval, numbers.Integral) and 0 < maxval < 65536):
        raise DomainError("PGM maxval must be an integer in 1..65535, got %r" % (maxval,))
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 2 or arr.size == 0:
        raise DimensionError("PGM values must be a non-empty 2D array, got shape %r"
                             % (arr.shape,))
    if not np.isfinite(arr).all():
        raise DomainError("PGM values must be finite")
    pix = np.clip(np.rint(arr * maxval), 0, maxval).astype(np.uint16)
    h, w = pix.shape
    header = "%s\n%d %d\n%d\n" % ("P5" if binary else "P2", w, h, maxval)
    if binary:
        dtype = np.dtype(">u2") if maxval > 255 else np.dtype("u1")
        atomic_write_bytes(path, header.encode() + pix.astype(dtype).tobytes())
    else:
        body = "\n".join(" ".join(str(int(v)) for v in row) for row in pix)
        atomic_write_bytes(path, (header + body + "\n").encode())


def center_fit(img: np.ndarray, side: int) -> np.ndarray:
    """Center-crop or zero-pad a 2D array to side x side."""
    top, left = (max(size - side, 0) // 2 for size in img.shape)
    out = img[top:top + side, left:left + side]
    return np.pad(out, [((side - size) // 2, side - size - (side - size) // 2)
                        for size in out.shape])


def ingest_pgm(path, n: int) -> CoeffGrid:
    """PGM to Fourier coefficients at band limit n (crop/pad to 2n+1)."""
    if n < 0:
        raise DomainError("band limit must be >= 0, got %d" % n)
    img, _ = read_pgm(path)
    if img.shape[0] != img.shape[1]:
        warnings.warn(
            "PGM is %dx%d, not square; center-cropping" % (img.shape[1], img.shape[0]),
            RuntimeWarning,
        )
        side = min(img.shape)
        img = center_fit(img, side)
    m = 2 * n + 1
    img = center_fit(img, m)
    return analyze(SampleGrid(m, img))
