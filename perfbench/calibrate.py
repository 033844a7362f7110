"""Machine speed reference for the timings of a run.

A shared machine runs the same Python code at speeds that differ by up to
about 1.5x for tens of seconds at a time: on the 2-CPU virtual machine
where the bounds were set, one flip-class count of a fixed grid took
1.6 ms in some 10-second windows and 2.3 ms in most others, and a medium
ditop query 52 ms and 80 ms in the same windows.
Raw timings of one commit then differ by more than any useful bound from
one run to the next.  So every end-to-end timing is reported scaled by
``REFERENCE_S / k``, where ``k`` is the median time of ``kernel()``, run
once before each query: over the queries next to it for one query's
latency (run.py; a pass time is the sum of the scaled latencies), over
the set-ups for the set-up time.  ``REFERENCE_S`` is the kernel's usual time on that
machine.  A change to ditop moves the scaled timings as it moves the raw
ones, since the kernel does not call ditop; the raw timings and the
kernel times are kept in the result file.
"""
from time import perf_counter

REFERENCE_S = 0.0019
SIDE = 5


def kernel():
    """Enumerate the monotone paths of a SIDE x SIDE lattice as step
    tuples, index them, and look up every elementary flip: the tuple and
    dict work of ditop's class computations, without ditop."""
    index = {}
    acc = []

    def walk(x, y):
        if x == SIDE and y == SIDE:
            index[tuple(acc)] = len(index)
            return
        for step, nx, ny in ((0, x + 1, y), (1, x, y + 1)):
            if nx <= SIDE and ny <= SIDE:
                acc.append(step)
                walk(nx, ny)
                acc.pop()

    walk(0, 0)
    flips = 0
    for path in index:
        for i in range(len(path) - 1):
            if path[i] != path[i + 1]:
                flips += index[path[:i] + (path[i + 1], path[i]) + path[i + 2:]] >= 0
    return flips


def timed_kernel():
    t0 = perf_counter()
    kernel()
    return perf_counter() - t0
