"""CSV/JSON serialization for profiles, states, and traces.

All numeric output uses 17 significant digits so that round-tripping through
text is bit-exact for doubles.  Table rows are the bytes of ``"%.17g" %``,
formed in numpy a block at a time: each value's 17 digits come from an
exact product with a power of ten (:func:`_rows_text`).
"""

from __future__ import annotations

import functools
import io
import json
import os
import zlib
from itertools import chain

import numpy as np

from .errors import GridError
from .grids import KERNEL_SHAPES, Grid, build_grid

WRITE_ROWS = 4096    # rows of a profile or state file per write
FORMAT_ROWS = 1024   # rows formatted at once, a divisor of WRITE_ROWS
STAMP_BYTES = 1 << 16


def fmt(x) -> str:
    return f"{float(x):.17g}"


def save_profile(path, grid: Grid, values):
    """Write ``x,value`` rows and the grid's sidecar descriptor."""
    save_table(path, "x,value", grid.points, values)
    _save_sidecar(path, grid)


def save_state(path, state, j=None):
    """Write the state's ``x,h,m`` rows, their ``.npy`` copy (one float64
    array, written row by row) and a sidecar: the grid's descriptor, beta,
    kernel shape, the current j it was solved at when given, and the byte
    length and CRC-32 of both files, taken from the bytes as written."""
    rows = [np.ascontiguousarray(r, dtype="<f8")
            for r in (state.grid.points, state.h, state.m)]
    csv = save_table(path, "x,h,m", *rows)
    head = io.BytesIO()
    np.lib.format.write_array_header_1_0(head, {
        "descr": "<f8", "fortran_order": False, "shape": (3, state.m.size)})
    size, crc = head.tell(), zlib.crc32(head.getbuffer())
    with open(_copy(path), "wb") as fh:
        fh.write(head.getbuffer())
        for row in rows:
            row.tofile(fh)
            size, crc = size + row.nbytes, zlib.crc32(row, crc)
    current = {} if j is None else {"j": float(j)}
    _save_sidecar(path, state.grid, beta=state.params.beta,
                  kernel=state.kernel.shape, **current, csv=csv,
                  npy={"bytes": size, "crc32": crc})


def _save_sidecar(path, grid: Grid, **extra):
    with open(_sidecar(path), "w") as fh:
        fh.write(grid.descriptor(**extra) + "\n")


def save_table(path, header, *columns) -> dict:
    """The header line, then rows of the columns' ``fmt`` values, written
    WRITE_ROWS at a time: the text of a whole table is never held at once.
    Columns of different lengths raise ValueError before the file opens.
    Returns the byte length and CRC-32 of what was written, as
    :func:`_stamp` reads them from the file."""
    if len({len(c) for c in columns}) > 1:
        raise ValueError(f"columns of {header!r} differ in length: "
                         f"{[len(c) for c in columns]}")
    columns = [np.asarray(c, dtype=float) for c in columns]
    size = crc = 0
    with open(path, "wb") as fh:
        for block in chain([(header + "\n").encode()], _blocks(columns)):
            fh.write(block)
            size, crc = size + len(block), zlib.crc32(block, crc)
    return {"bytes": size, "crc32": crc}


def _blocks(columns):
    """The text of each WRITE_ROWS rows, formatted FORMAT_ROWS at a time,
    which keeps numpy's temporaries small."""
    rows = len(columns[0]) if columns else 0
    for lo in range(0, rows, WRITE_ROWS):
        yield b"".join(
            _rows_text(np.stack([c[i:i + FORMAT_ROWS] for c in columns],
                                axis=1))
            for i in range(lo, min(lo + WRITE_ROWS, rows), FORMAT_ROWS))


# A value's text is laid out in a slot of six 8-byte words, NUL where it has
# no character, and a block's slots are joined by deleting the NULs:
#   sign, "0.000" (for 1e-4 <= |v| < 1), d0, point
#   d1 . d2 . d3 . d4 .   ...   d13 . d14 . d15 . d16 .
#   "e-250" (for the exponent form), separator, two NULs
# where d0..d16 are the 17 significant digits.  Only the "." slot after the
# integer part (after d0 in the exponent form) holds the point, and only
# when a nonzero digit follows it; trailing zeros right of it are NULs.
_SLOT = 48


def _rows_text(values: np.ndarray) -> bytearray:
    """The bytes of ``"%.17g"`` of each value, comma-separated, a row per
    line."""
    v = values.ravel()
    k, digits, slow = _decimal(v)
    buffer = bytearray(v.size * _SLOT)
    words = np.frombuffer(buffer, np.uint64).reshape(v.size, _SLOT // 8)
    quads, last_of, keep, prefixes, exponents = _layout()
    last = np.zeros(v.size, np.int8)     # index of the last nonzero digit
    for j in (4, 3, 2, 1):               # d1..d4 to d13..d16, four a word
        rest = digits // 10000
        quad = digits - 10000 * rest
        digits = rest
        words[:, j] = quads[quad]
        np.maximum(last, last_of[j - 1][quad], out=last)
    fixed = (k >= -4) & (k < 17)
    lead = fixed & (k < 0)               # 0.000ddd
    point = np.where(fixed, k, 0)        # index of the digit left of it
    kept = np.maximum(last, point)       # trailing zeros right of it go
    for j in (1, 2, 3, 4):
        words[:, j] &= keep[j - 1][kept]
    words[:, 0] = prefixes[np.where(lead, -k, 0)]
    big = np.flatnonzero(~fixed)
    words[big, 5] = exponents[k[big] + 260]
    text = words.view(np.uint8)
    text[:, 0] = np.signbit(v) * np.uint8(ord("-"))
    text[:, 6] = ord("0") + digits
    dot = np.flatnonzero((last > point) & ~lead)
    text.reshape(-1)[dot * _SLOT + 7 + 2 * point[dot]] = ord(".")
    for i in slow:
        words[i] = 0
        fallback = b"%.17g" % v[i]
        text[i, :len(fallback)] = np.frombuffer(fallback, np.uint8)
    text.reshape(values.shape + (_SLOT,))[:, :, 45] = np.frombuffer(
        b"," * (values.shape[1] - 1) + b"\n", np.uint8)
    return buffer.translate(None, b"\0")


def _decimal(v: np.ndarray) -> tuple:
    """(k, D, slow): D is the 17-digit integer nearest |v| 10**(16 - k),
    which sets the decimal exponent k (both 0 for a zero), and ``slow`` the
    indices of the values whose D is not decided here: non-finite ones,
    |v| outside [1e-250, 1e250], and those within 1e-7 of a tie between
    two 17-digit decimals, whose product is exact to about 1e-14."""
    a = np.abs(v)
    zero = a == 0
    inside = (a >= 1e-250) & (a <= 1e250)
    a[~inside] = 1.0
    k = np.floor(np.log10(a)).astype(np.int64)
    p, e = _times_power(a, 16 - k)
    # log10 may round across a power of ten: move k where a 10**(16 - k)
    # falls outside [10**16, 10**17)
    move = ((p > 1e17) | ((p == 1e17) & (e >= 0))).astype(np.int64) \
        - ((p < 1e16) | ((p == 1e16) & (e < 0)))
    at = np.flatnonzero(move)
    if at.size:
        k[at] += move[at]
        p[at], e[at] = _times_power(a[at], 16 - k[at])
    floor = np.floor(e)
    e -= floor                           # the fractional part
    digits = p.astype(np.int64)
    digits += floor.astype(np.int64)
    digits += e > 0.5
    carry = digits == 10 ** 17           # rounded up to the next power
    digits[carry] = 10 ** 16
    k += carry
    digits[zero] = k[zero] = 0
    slow = np.flatnonzero(~(inside | zero) | (np.abs(e - 0.5) < 1e-7))
    return k, digits, slow


def _times_power(a: np.ndarray, s: np.ndarray) -> tuple:
    """(p, e), p = fl(a 10**s) and e = a 10**s - p to about 1e-15 where the
    product is below 1e17: Dekker's two-product against 10**s held as the
    double-double hi + lo (T. J. Dekker, Numer. Math. 18, 1971),
    e = (((a1 h1 - p) + a1 h2) + a2 h1) + a2 h2 + a lo, where a = a1 + a2 and
    hi = h1 + h2 are split so that each partial product is exact."""
    low = int(s.min())
    hi, lo, h1, h2 = np.array(
        [_power(t) for t in range(low, int(s.max()) + 1)]).T
    s = s - low
    a1 = a * 134217729.0                 # 2**27 + 1
    a1 -= a1 - a
    a2 = a - a1
    p = a * hi[s]
    e = a1 * h1[s]
    e -= p
    e += a1 * h2[s]
    e += a2 * h1[s]
    e += a2 * h2[s]
    e += a * lo[s]
    return p, e


@functools.cache
def _power(s: int) -> tuple:
    """(hi, lo, h1, h2): 10**s = hi + lo, hi its nearest double, and hi's
    Dekker halves h1 + h2; from Python ints, whose true division rounds
    correctly."""
    num, den = (10 ** s, 1) if s >= 0 else (1, 10 ** -s)
    hi = num / den
    hi_num, hi_den = hi.as_integer_ratio()
    lo = (num * hi_den - hi_num * den) / (den * hi_den)
    h1 = hi * 134217729.0
    h1 -= h1 - hi
    return hi, lo, h1, hi - h1


@functools.cache
def _layout() -> tuple:
    """Read-only tables of :func:`_rows_text`: a 4-digit group g's digits as
    one slot word; per digit word j = 1..4, the index (1 to 16) of the last
    nonzero digit of g there, 0 for g = 0, and the masks that keep its
    digits of index up to t = 0..16; the "0.000" prefix words by count of
    leading zeros; and the exponent words "e-260" to "e+260"."""
    quads = np.zeros((10, 10, 10, 10, 8), np.uint8)     # g's 4 digits
    last = np.zeros((10, 10, 10, 10), np.int8)
    for i in range(4):
        digit = np.arange(10, dtype=np.int8).reshape((10,) + (1,) * (3 - i))
        quads[..., 2 * i] = ord("0") + digit
        np.maximum(last, np.int8(i + 1) * (digit > 0), out=last)
    last = last.ravel()
    last_of = (4 * np.arange(4, dtype=np.int8)[:, None] + last) * (last > 0)
    index = 1 + np.arange(16).reshape(4, 1, 4)           # digits d1..d16
    keep = np.zeros((4, 17, 8), np.uint8)
    keep[:, :, ::2] = np.where(index <= np.arange(17)[:, None], 255, 0)
    prefixes = np.zeros((5, 8), np.uint8)                # "0.000" at 1..5
    for lead in range(1, 5):
        prefixes[lead, 1:2 + lead] = np.frombuffer(b"0.000"[:1 + lead],
                                                   np.uint8)
    k = np.arange(-260, 261)
    exponents = np.zeros((k.size, 8), np.uint8)          # e-250, e+05
    exponents[:, 0] = ord("e")
    exponents[:, 1] = np.where(k < 0, ord("-"), ord("+"))
    exponents[:, 2] = np.where(abs(k) >= 100, ord("0") + abs(k) // 100, 0)
    exponents[:, 3] = ord("0") + abs(k) // 10 % 10
    exponents[:, 4] = ord("0") + abs(k) % 10
    tables = (quads.view(np.uint64).ravel(), last_of,
              keep.view(np.uint64)[:, :, 0], prefixes.view(np.uint64)[:, 0],
              exponents.view(np.uint64)[:, 0])
    for table in tables:
        table.setflags(write=False)
    return tables


def _sidecar(path) -> str:
    root, _ = os.path.splitext(path)
    return root + ".grid.json"


def _copy(path) -> str:
    root, _ = os.path.splitext(path)
    return root + ".npy"


def _stamp(path) -> dict:
    """Byte length and CRC-32 of a file, read STAMP_BYTES at a time."""
    size = crc = 0
    with open(path, "rb") as fh:
        while chunk := fh.read(STAMP_BYTES):
            size, crc = size + len(chunk), zlib.crc32(chunk, crc)
    return {"bytes": size, "crc32": crc}


def load_state(path):
    """(grid, h, m, beta, kernel shape, j) of a state file, j None when the
    sidecar records no current.

    x, h and m are read from the binary copy of :func:`save_state`; the
    CSV's text is not parsed.  The sidecar must exist and hold the epsilon,
    left, right and spacing of ``Grid.descriptor``, a numeric beta, a known
    kernel shape and the byte lengths and CRC-32s of the CSV and the copy.
    Both files must match them, which refuses a missing, stale or edited
    file, not a forged one.  The grid's points must match the x column, and
    x, h and m must be finite.  GridError naming the file otherwise; a
    sidecar or copy that does not hold or match the state asks for a new
    solve.  Each of the three files is opened once.
    """
    try:
        csv = _stamp(path)
    except OSError as exc:
        raise GridError(f"cannot read {path}: {exc.strerror or exc}") \
            from None
    side = _sidecar(path)
    if not os.path.exists(side):
        raise GridError(f"{path} has no grid descriptor {side}")
    try:
        with open(side) as fh:
            d = json.load(fh)
        grid = build_grid(d["epsilon"], d["left"], d["right"], d["spacing"])
        beta, shape = float(d["beta"]), d["kernel"]
        j = None if d.get("j") is None else float(d["j"])
        if shape not in KERNEL_SHAPES:
            raise ValueError(f"unknown kernel shape {shape!r}")
        stamps = d["csv"], d["npy"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise GridError(f"malformed grid descriptor {side}: "
                        f"{type(exc).__name__}: {exc}; solve the state "
                        "again") from None
    copy = _copy(path)
    try:
        with open(copy, "rb") as fh:
            raw = bytearray(os.fstat(fh.fileno()).st_size)
            fh.readinto(raw)
            found = csv, {"bytes": len(raw), "crc32": zlib.crc32(raw)}
            for name, stamp, got in zip((path, copy), stamps, found):
                if got != stamp:
                    raise GridError(f"{name} is not the file that {side} "
                                    "stamps; solve the state again")
            fh.seek(0)      # a damaged copy was refused by its stamp above
            np.lib.format.read_magic(fh)
            dims, _, dtype = np.lib.format.read_array_header_1_0(fh)
            x, h, m = np.frombuffer(raw, dtype,
                                    offset=fh.tell()).reshape(dims)
    except OSError as exc:
        raise GridError(f"cannot read {copy}: {exc.strerror or exc}; solve "
                        "the state again") from None
    if not all(np.isfinite(c).all() for c in (x, h, m)):
        raise GridError(f"{path} holds a non-finite x, h or m")
    if grid.n != x.size or np.max(np.abs(grid.points - x)) \
            > 1e-9 * max(1.0, grid.b):
        raise GridError(f"x column of {path} does not match its grid "
                        f"descriptor {side}")
    return grid, h, m, beta, shape, j


def grid_from_points(x: np.ndarray, spacing) -> Grid:
    """Grid whose points are the equispaced ``x`` at the given spacing.

    Bare points carry no scale, so epsilon is recorded as 1: ``left`` and
    ``right`` are then the window's own half-widths, -x[0] and x[-1].
    """
    pts = np.asarray(x, dtype=float)
    pts.setflags(write=False)
    return Grid(1.0, float(-pts[0]), float(pts[-1]), float(spacing), pts)


def dump_json(path, payload: dict):
    """Strict JSON: a NaN raises ValueError before the file opens."""
    text = json.dumps(payload, indent=2, sort_keys=True, default=_coerce,
                      allow_nan=False)
    with open(path, "w") as fh:
        fh.write(text + "\n")


def _coerce(obj):
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    raise TypeError(f"cannot serialize {type(obj)}")
