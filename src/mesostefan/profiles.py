"""CSV/JSON serialization for profiles, states, and traces.

All numeric output uses 17 significant digits so that round-tripping through
text is bit-exact for doubles.
"""

from __future__ import annotations

import json
import os
import warnings
import zlib
from itertools import islice

import numpy as np

from .errors import GridError
from .grids import KERNEL_SHAPES, Grid, build_grid

WRITE_ROWS = 4096    # rows of a profile or state file per write
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
    length and CRC-32 of both files."""
    rows = (state.grid.points, state.h, state.m)
    save_table(path, "x,h,m", *rows)
    with open(_copy(path), "wb") as fh:
        np.lib.format.write_array_header_1_0(fh, {
            "descr": "<f8", "fortran_order": False, "shape": (3, state.m.size)})
        for row in rows:
            np.asarray(row, dtype="<f8").tofile(fh)
    current = {} if j is None else {"j": float(j)}
    _save_sidecar(path, state.grid, beta=state.params.beta,
                  kernel=state.kernel.shape, **current, csv=_stamp(path),
                  npy=_stamp(_copy(path)))


def _save_sidecar(path, grid: Grid, **extra):
    with open(_sidecar(path), "w") as fh:
        fh.write(grid.descriptor(**extra) + "\n")


def save_table(path, header, *columns):
    """The header line, then rows of the columns' ``fmt`` values, written
    WRITE_ROWS at a time: the text of a whole table is never held at once.
    Columns of different lengths raise ValueError before the file opens."""
    if len({len(c) for c in columns}) > 1:
        raise ValueError(f"columns of {header!r} differ in length: "
                         f"{[len(c) for c in columns]}")
    row = ",".join(["%.17g"] * len(columns)) + "\n"
    rows = zip(*columns)
    with open(path, "w") as fh:
        fh.write(header + "\n")
        while block := "".join(row % values
                               for values in islice(rows, WRITE_ROWS)):
            fh.write(block)


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

    x, h and m are the bits the CSV parses to, read from the binary copy
    of :func:`save_state` when both files match the sidecar's byte lengths
    and CRC-32s, else parsed.  The sidecar must exist, hold the epsilon,
    left, right and spacing of ``Grid.descriptor``, a numeric beta and a
    known kernel shape, and give points that match the x column, and x, h
    and m must be finite; GridError naming it otherwise.  Read from the
    copy, each of the three files is opened once.
    """
    copy = _load_copy(path)
    x, h, m = copy[1:] if copy else load_columns(path, ("x", "h", "m"))
    if not all(np.isfinite(c).all() for c in (x, h, m)):
        raise GridError(f"{path} holds a non-finite x, h or m")
    side = _sidecar(path)
    if not os.path.exists(side):
        raise GridError(f"{path} has no grid descriptor {side}")
    try:
        d = copy[0] if copy else _read_json(side)
        grid = build_grid(d["epsilon"], d["left"], d["right"], d["spacing"])
        beta, shape = float(d["beta"]), d["kernel"]
        j = None if d.get("j") is None else float(d["j"])
        if shape not in KERNEL_SHAPES:
            raise ValueError(f"unknown kernel shape {shape!r}")
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise GridError(f"malformed grid descriptor {side}: "
                        f"{type(exc).__name__}: {exc}; solve the state "
                        "again") from None
    if grid.n != x.size or np.max(np.abs(grid.points - x)) \
            > 1e-9 * max(1.0, grid.b):
        raise GridError(f"x column of {path} does not match its grid "
                        f"descriptor {side}")
    return grid, h, m, beta, shape, j


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def _load_copy(path):
    """(sidecar, x, h, m) of the state's binary copy, or None unless it and
    the CSV match the sidecar's byte lengths and CRC-32s, which catch stale
    and edited files, not forged ones.  The copy is read once: its stamp
    and its arrays, views of one buffer, come from the same bytes."""
    try:
        side = _read_json(_sidecar(path))
        if side["csv"] != _stamp(path):
            return None
        with open(_copy(path), "rb") as fh:
            np.lib.format.read_magic(fh)
            shape, _, dtype = np.lib.format.read_array_header_1_0(fh)
            offset = fh.tell()
            raw = bytearray(os.fstat(fh.fileno()).st_size)
            fh.seek(0)
            fh.readinto(raw)
        if side["npy"] != {"bytes": len(raw), "crc32": zlib.crc32(raw)}:
            return None
        x, h, m = np.frombuffer(raw, dtype, offset=offset).reshape(shape)
    except (OSError, ValueError, KeyError, TypeError):
        return None
    return side, x, h, m


def grid_from_points(x: np.ndarray, spacing) -> Grid:
    """Grid whose points are the equispaced ``x`` at the given spacing.

    Bare points carry no scale, so epsilon is recorded as 1: ``left`` and
    ``right`` are then the window's own half-widths, -x[0] and x[-1].
    """
    pts = np.asarray(x, dtype=float)
    if np.max(np.abs(np.diff(pts) - spacing)) > 1e-9 * max(1.0, spacing):
        raise GridError("points are not equispaced")
    pts.setflags(write=False)
    return Grid(1.0, float(-pts[0]), float(pts[-1]), float(spacing), pts)


def load_columns(path, names) -> tuple[np.ndarray, ...]:
    """The named columns of a headed CSV file.

    A file that cannot be read, a bad token, a ragged row, no rows or rows
    whose length differs from the header raise GridError naming the file.
    """
    try:
        with open(path) as fh:
            header = fh.readline().strip().split(",")
            with warnings.catch_warnings():   # no rows: reported below
                warnings.simplefilter("ignore", UserWarning)
                data = np.loadtxt(fh, delimiter=",", ndmin=2)
    except OSError as exc:
        raise GridError(f"cannot read {path}: {exc.strerror or exc}") \
            from None
    except ValueError as exc:
        raise GridError(f"cannot parse {path}: {exc}") from None
    if data.shape[0] == 0 or data.shape[1] != len(header):
        raise GridError(f"{path} needs rows of {len(header)} values "
                        f"({','.join(header)})")
    missing = [n for n in names if n not in header]
    if missing:
        raise GridError(f"columns {missing} missing from {path}")
    return tuple(data[:, header.index(n)].copy() for n in names)


def dump_json(path, payload: dict):
    """Strict JSON: a NaN raises ValueError before the file opens."""
    text = json.dumps(payload, indent=2, sort_keys=True, default=_coerce,
                      allow_nan=False)
    with open(path, "w") as fh:
        fh.write(text + "\n")


def _coerce(obj):
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"cannot serialize {type(obj)}")
