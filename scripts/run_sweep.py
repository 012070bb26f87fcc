#!/usr/bin/env python3
"""Run every shipped sweep config (scripts/configs/*.txt) through the CLI.

Each config runs as ``mesostefan sweep --config <file>`` with the repository
root as the working directory, so the results land in the config's
``outdir`` (results/<mode>/): ``sweep.csv`` plus ``eps_<eps>/row.json`` per
scale.  The exit code is the largest one of the runs.
"""

import glob
import os
import sys

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
sys.path.insert(0, os.path.join(ROOT, "src"))

from mesostefan.cli import main as cli_main  # noqa: E402


def main() -> int:
    os.chdir(ROOT)
    codes = []
    for path in sorted(glob.glob(os.path.join("scripts", "configs", "*.txt"))):
        print(f"== {path} ==")
        codes.append(cli_main(["sweep", "--config", path]))
    return max(codes, default=0)


if __name__ == "__main__":
    sys.exit(main())
