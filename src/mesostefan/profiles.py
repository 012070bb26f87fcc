"""CSV/JSON serialization for profiles, states, and traces.

All numeric output uses 17 significant digits so that round-tripping through
text is bit-exact for doubles.
"""

from __future__ import annotations

import json
import os
import warnings

import numpy as np

from .errors import GridError
from .grids import Grid, build_grid


def fmt(x) -> str:
    return f"{float(x):.17g}"


def save_profile(path, grid: Grid, values):
    """Write ``x,value`` rows and the grid's sidecar descriptor."""
    _save_columns(path, "x,value", grid, values)


def save_state(path, grid: Grid, h, m):
    """Write ``x,h,m`` rows and the grid's sidecar descriptor."""
    _save_columns(path, "x,h,m", grid, h, m)


def _save_columns(path, header, grid: Grid, *columns):
    row = ",".join(["%.17g"] * (1 + len(columns)))   # fmt, one row at a time
    lines = [header]
    lines += [row % values
              for values in zip(grid.points, *columns, strict=True)]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    with open(_sidecar(path), "w") as fh:
        fh.write(grid.descriptor() + "\n")


def _sidecar(path) -> str:
    root, _ = os.path.splitext(path)
    return root + ".grid.json"


def load_state(path):
    """(grid, h, m) of a state file.

    The grid comes from the sidecar descriptor, which must exist (bare
    points do not give eps), be a JSON object holding the epsilon, left,
    right and spacing of ``Grid.descriptor``, and give points that match the
    x column; GridError naming it otherwise.
    """
    x, h, m = load_columns(path, ("x", "h", "m"))
    side = _sidecar(path)
    if not os.path.exists(side):
        raise GridError(f"{path} has no grid descriptor {side}")
    try:
        with open(side) as fh:
            d = json.load(fh)
        grid = build_grid(d["epsilon"], d["left"], d["right"], d["spacing"])
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise GridError(f"malformed grid descriptor {side}: "
                        f"{type(exc).__name__}: {exc}") from None
    if grid.n != x.size or np.max(np.abs(grid.points - x)) \
            > 1e-9 * max(1.0, grid.b):
        raise GridError(f"x column of {path} does not match its grid "
                        f"descriptor {side}")
    return grid, h, m


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
    with open(path, "w") as fh:     # strict JSON: a NaN raises ValueError
        json.dump(payload, fh, indent=2, sort_keys=True, default=_coerce,
                  allow_nan=False)
        fh.write("\n")


def _coerce(obj):
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"cannot serialize {type(obj)}")
