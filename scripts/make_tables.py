#!/usr/bin/env python3
"""Regenerate every barrier table in one run.

Usage:
    python scripts/make_tables.py [--precision N]

Prints the small-CW, big-CW, reduced-polynomial-multiplication, laser
(certified and conjectured rank) and conjectured-rank basic barrier tables,
each with the tensor family parameter and the barrier value, through
`irrev table` at its default ranges.  Runs from a checkout without
installing the package.
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from irrev import cli  # noqa: E402

TABLES = [
    ("small Coppersmith-Winograd barrier (2 log2(q+1) / entropy bound)", ["cw"]),
    ("big Coppersmith-Winograd barrier (2 log2(q+2) / entropy peak)", ["CW"]),
    ("reduced polynomial multiplication barrier (2 log2(m) / entropy max)", ["tn"]),
    ("laser-method barrier on cw_q, certified flattening rank", ["laser"]),
    ("laser-method barrier on cw_q, conjectured rank log2(q+2)",
     ["laser", "--assume-rank", "conjectured"]),
    ("basic barrier on cw_q with conjectured rank (minimum at q = 6)", ["better"]),
]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--precision", type=int, default=6)
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    for title, spec in TABLES:
        print(f"== {title} ==")
        code = cli.main(["table", *spec, "--precision", str(args.precision)])
        if code:
            return code
        print()
    print(f"all tables regenerated in {time.perf_counter() - t0:.2f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
