"""The shipped sweeps against their committed outputs.

``results/`` is not tracked, so rerunning ``scripts/run_sweep.py`` and
diffing ``results/`` checks nothing.  Each ``scripts/configs/<name>.txt``
runs in-process through ``cli.run`` instead, and its ``sweep.csv`` text is
compared with ``tests/golden/<name>.sweep.csv``: eps, mode and iters
exactly, the numeric columns to 1e-9 relative, which allows for ``tanh``
differing in its last bits between numpy builds and SIMD paths.
"""

import glob
import math
import os

import pytest

from mesostefan import cli
from mesostefan.config import load_config

HERE = os.path.dirname(__file__)
CONFIGS = sorted(glob.glob(os.path.join(HERE, "..", "scripts", "configs",
                                        "*.txt")))
EXACT = ("eps", "mode", "iters")


def _rows(text):
    header, *lines = text.splitlines()
    return header, [dict(zip(header.split(","), line.split(",")))
                    for line in lines]


def _close(got, want):
    a, b = float(got), float(want)
    both_nan = math.isnan(a) and math.isnan(b)
    return both_nan or math.isclose(a, b, rel_tol=1e-9)


@pytest.mark.parametrize("config", CONFIGS, ids=lambda p: os.path.basename(
    p)[:-len(".txt")])
def test_shipped_sweep_matches_its_golden_file(config):
    name = os.path.basename(config)[:-len(".txt")]
    with open(os.path.join(HERE, "golden", f"{name}.sweep.csv")) as fh:
        want_header, want = _rows(fh.read())
    got_header, got = _rows(cli.run(load_config(config)).to_csv())
    assert got_header == want_header == cli.SWEEP_HEADER
    assert len(got) == len(want) == 3
    for g, w in zip(got, want):
        assert {k: g[k] for k in EXACT} == {k: w[k] for k in EXACT}
        off = [k for k in g if k not in EXACT and not _close(g[k], w[k])]
        assert off == [], (g, w)


def test_every_shipped_config_has_a_golden_file():
    names = {os.path.basename(p)[:-len(".txt")] for p in CONFIGS}
    golden = {os.path.basename(p)[:-len(".sweep.csv")] for p in glob.glob(
        os.path.join(HERE, "golden", "*.sweep.csv"))}
    assert names == golden and len(names) == 3
