#!/usr/bin/env python3
"""Recompute the oracle answers that are too slow for benchmark set-up.

Usage, from the repository root::

    python3 perfbench/offline.py

Prints ``CAP3_TOP_CLASSES``, the number of dihomotopy classes from 0 to
top of the 3-process program ``workloads.PV3["cap3"]``, by
``tests/oracles.py:flip_class_count`` over all its dipaths.  Takes 5 s
on the 2-CPU machine where the benchmark bounds were set.  Copy the
value into ``workloads.py`` if it ever differs.
"""
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests"),
                os.path.dirname(os.path.abspath(__file__))]

from ditop.cubecore import build_grid_complex  # noqa: E402
from ditop.pvlang import compile_pv, parse_pv  # noqa: E402
from oracles import flip_class_count  # noqa: E402
from workloads import PV3  # noqa: E402


def main():
    x = build_grid_complex(*compile_pv(parse_pv(PV3["cap3"])))
    started = time.perf_counter()
    count = flip_class_count(x, 0, x.n_vertices - 1)
    print(f"CAP3_TOP_CLASSES = {count}  "
          f"# {time.perf_counter() - started:.1f}s")


if __name__ == "__main__":
    main()
