"""File formats: CoeffGrid JSON, PGM images, atomic output, run manifests.

Grid JSON: {"n": N, "tag": "fourier-real"|"hermitian"|"general",
"entries": [[re, im], ...]} with (2N+1)^2 pairs in row-major order,
k outer from -N to N, l inner from -N to N.  Files are written with
compact separators and shortest round-trip floats (orjson), so every
value reads back bitwise; non-finite values are never written.  The
reader accepts any JSON whitespace and number spelling and rejects
anything that is not a finite JSON number.  Each list of numbers orjson
parses becomes float64 through _json_floats, one np.fromiter pass that
rounds every int as float() does; no intermediate array of objects is
built.

The reader has two paths with one result.  The flat read (_flat_read)
takes the layout write_grid and json.dump write: the three keys in that
order, any JSON whitespace around the keys and inside the pairs, none
before the first pair or after the last, and pairs joined by "],[" or
"], [" throughout.  It checks the entries' bracket skeleton,
joins the pairs into one flat array of numbers and parses that, so orjson
builds no list per pair.  It refuses nothing: any other text, and any text
orjson refuses, goes to the general reader (_general_read), which parses
the whole document and words every refusal.  Only the general reader runs
the nesting-depth guard: the skeleton the flat read checks fixes the depth
at 3, while orjson would overflow the C stack on deeply nested text.

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
from .errors import DimensionError, DomainError, FormatError, _require_finite, _require_integer
from .grids import TAGS, CoeffGrid, SampleGrid, _require_band_limit
from .spectral import analyze


def _grid_bytes(grid: CoeffGrid) -> bytes:
    pairs = grid.data.view(np.float64).reshape(-1, 2)  # data is C-contiguous complex128
    if not np.isfinite(pairs).all():  # the bad entry is sought only when there is one
        i = int(np.flatnonzero(~np.isfinite(pairs))[0]) // 2  # its first float's pair
        side = 2 * grid.n + 1
        raise FormatError("cannot write grid JSON: entry %d (k=%d, l=%d) is not finite"
                          % (i, i // side - grid.n, i % side - grid.n))
    return orjson.dumps({"n": grid.n, "tag": grid.tag, "entries": pairs},
                        option=orjson.OPT_SERIALIZE_NUMPY)


def _json_floats(values: list) -> np.ndarray:
    """A list of the numbers orjson parses (floats and ints) as float64, each
    rounded as float() rounds it, in one pass sized by the list."""
    return np.fromiter(values, np.float64, len(values))


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


def _general_read(blob: bytes):
    """(n, tag, values) of any grid JSON text; FormatError naming the fault
    of any other text."""
    obj = _parse(blob)
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
    return n, tag, values


# The canonical layout up to the entries' opening bracket, and from their
# closing bracket to the end; each space stands for JSON whitespace, never \s,
# which also takes \f and \v.
_JSON_SPACE = rb"[ \t\n\r]*"
_FLAT_HEAD = re.compile((
    rb' \{ "n" : (0|[1-9][0-9]{0,8}) , "tag" : "(%s)" , "entries" : \['
    % b"|".join(re.escape(t.encode()) for t in TAGS)).replace(b" ", _JSON_SPACE))
_FLAT_TAIL = re.compile(rb"\] \} ".replace(b" ", _JSON_SPACE))
_NUMBER_OR_SPACE = b"0123456789.eE+- \t\n\r"


def _flat_read(blob: bytes):
    """(n, tag, values) of a grid in the canonical layout, or None to leave it
    to _general_read.  It refuses nothing: any other layout, and any text
    orjson refuses, goes to the general reader, which words the error.

    The entries, deleted of number bytes and whitespace, must leave the
    skeleton [,],[,],...,[,] of side^2 pairs, which fixes the nesting depth
    at 3, so no depth scan is needed.  The side^2 - 1 separators between
    pairs must all be "],[" (as write_grid writes them) or all "], [" (as
    json.dump does): each becomes ",", which leaves one flat array of the
    numbers that orjson parses without building a list per pair.  Counting
    the separators replaced proves that no number byte sits outside a pair,
    and an empty or split number is left for orjson to refuse.
    """
    head = _FLAT_HEAD.match(blob)
    if head is None:
        return None
    start, close = head.end(), blob.rfind(b"]")  # the pairs are blob[start:close]
    if close < start or not _FLAT_TAIL.fullmatch(blob, close):
        return None
    n = int(head.group(1))
    pairs = (2 * n + 1) ** 2
    # the skeleton of the whole text is the head's, the pairs', then "]}"
    lead = head.group(0).translate(None, _NUMBER_OR_SPACE)
    skeleton = blob.translate(None, _NUMBER_OR_SPACE)
    # lengths first: a huge n with a short body builds no huge skeleton
    if len(skeleton) != len(lead) + 4 * pairs + 1 or skeleton != (
            lead + b"[,]," * (pairs - 1) + b"[,]]}"):
        return None
    separator = b"], [" if blob.find(b" ", start, close) >= 0 else b"],["
    flat = blob.replace(separator, b",")  # the head and the tail hold none
    removed = len(blob) - len(flat)
    if removed != (len(separator) - 1) * (pairs - 1):
        return None
    close -= removed
    if not (flat.startswith(b"[", start) and flat.endswith(b"]", start, close)):
        return None
    try:
        values = orjson.loads(memoryview(flat)[start:close])
    except orjson.JSONDecodeError:
        return None
    return n, head.group(2).decode(), values


def grid_from_json(text) -> CoeffGrid:
    """Parse grid JSON given as str or UTF-8 bytes."""
    if isinstance(text, str):
        text = text.encode("utf-8", "surrogatepass")
    n, tag, values = _flat_read(text) or _general_read(text)
    flat = _json_floats(values)
    # orjson refuses NaN, Infinity and overflowing numbers; this keeps the
    # finite-entry promise whatever the parser lets through, in one pass, and
    # looks for the bad entry only when there is one
    if not np.isfinite(flat).all():
        raise FormatError("grid JSON: entry %d is not finite"
                          % (np.flatnonzero(~np.isfinite(flat))[0] // 2))
    side = 2 * n + 1
    # one float64 array viewed as complex: re + 1j*im could flip the sign of a zero
    return CoeffGrid(n, flat.view(np.complex128).reshape(side, side), tag)


def read_grid(path) -> CoeffGrid:
    with open(path, "rb") as fh:
        return grid_from_json(fh.read())


@contextmanager
def atomic_writer(path):
    """Binary handle on a temp file beside `path`, renamed into place when the
    block ends and deleted if it raises, so `path` is either untouched or whole.
    A temp file that cannot be made or renamed is refused with the error of `path`."""
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)),
                                   prefix=".qtorus-", suffix=".tmp")
    except OSError as exc:  # say, a missing directory: name the user's path, not the temp's
        raise type(exc)(exc.errno, exc.strerror, path) from None
    try:
        with os.fdopen(fd, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException as exc:
        if os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError) and exc.filename == tmp:  # say, path is a directory
            raise type(exc)(exc.errno, exc.strerror, path) from None
        raise


def atomic_write_bytes(path, payload: bytes):
    with atomic_writer(path) as fh:
        fh.write(payload)


def write_grid(path, grid: CoeffGrid):
    payload = _grid_bytes(grid)  # a refused grid opens no file
    with atomic_writer(path) as fh:  # two writes: no copy of the payload with its \n
        fh.write(payload)
        fh.write(b"\n")


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
    non-empty 2D array (DimensionError), not finite reals, or a maxval that is not
    an integer in 1..65535 (DomainError) are refused before anything is written.
    """
    _require_integer(maxval=maxval)
    if not 0 < maxval < 65536:
        raise DomainError("PGM maxval must be an integer in 1..65535, got %r" % (maxval,))
    _require_finite(values=values)  # before the cast, which would drop an imaginary part
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 2 or arr.size == 0:
        raise DimensionError("PGM values must be a non-empty 2D array, got shape %r"
                             % (arr.shape,))
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
    _require_integer(0, side=side)
    top, left = (max(size - side, 0) // 2 for size in img.shape)
    out = img[top:top + side, left:left + side]
    return np.pad(out, [((side - size) // 2, side - size - (side - size) // 2)
                        for size in out.shape])


def ingest_pgm(path, n: int) -> CoeffGrid:
    """PGM to Fourier coefficients at band limit n (crop/pad to 2n+1)."""
    _require_band_limit(n)
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
