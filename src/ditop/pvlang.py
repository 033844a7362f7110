"""A minimal PV process language and its grid semantics.

Programs are parallel processes acquiring (``P``) and releasing (``V``)
mutexes.  ``compile_pv`` turns a program into an integer grid with one
forbidden box per resource per conflicting pair of critical sections.

Grammar::

    program := proc ("|" proc)*
    proc    := action*
    action  := ("P" | "V") ident
    ident   := [a-z][a-z0-9]*

Tokens are whitespace-separated.
"""
from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import ModelError

DEFAULT_DIM_CAP = 3

_TOKEN = re.compile(r"([PV])([a-z][a-z0-9]*)\Z")


class PVSyntaxError(ModelError):
    def __init__(self, message, line, col):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


@dataclass(frozen=True)
class Action:
    kind: str  # "P" or "V"
    resource: str
    line: int = 0
    col: int = 0


@dataclass(frozen=True)
class PVProgram:
    """Validated PV program: mutexes only, matched P/V per process."""

    processes: tuple[tuple[Action, ...], ...]

    @property
    def resources(self):
        return sorted({a.resource for proc in self.processes for a in proc})

    def critical_intervals(self, pid):
        """Per-resource critical intervals of one process, in cell units.

        A P at action index k with matching V at index m gives [k+1, m+1).
        """
        out = {}
        open_at = {}
        for i, act in enumerate(self.processes[pid]):
            if act.kind == "P":
                open_at[act.resource] = i
            else:
                k = open_at.pop(act.resource)
                out.setdefault(act.resource, []).append((k + 1, i + 1))
        return out


def parse_pv(text: str) -> PVProgram:
    """Parse PV source; raises PVSyntaxError / ModelError on bad input."""
    procs = [[]]
    positions = [[]]
    line = 1
    col = 1
    for raw in re.split(r"(\s+|\|)", text):
        if raw == "":
            continue
        if raw == "|":
            procs.append([])
            positions.append([])
            col += 1
            continue
        if raw.strip() == "":
            newlines = raw.count("\n")
            if newlines:
                line += newlines
                col = len(raw) - raw.rfind("\n")
            else:
                col += len(raw)
            continue
        m = _TOKEN.match(raw)
        if not m:
            raise PVSyntaxError(f"bad token {raw!r}", line, col)
        procs[-1].append(Action(m.group(1), m.group(2), line, col))
        col += len(raw)
    if all(not p for p in procs) and "|" not in text:
        raise ModelError("empty program")

    # lock discipline per process
    for pid, proc in enumerate(procs):
        held = set()
        for act in proc:
            if act.kind == "P":
                if act.resource in held:
                    raise ModelError(
                        f"process {pid + 1}: re-lock of held resource "
                        f"'{act.resource}' (line {act.line}, col {act.col})"
                    )
                held.add(act.resource)
            else:
                if act.resource not in held:
                    raise ModelError(
                        f"process {pid + 1}: unmatched unlock of "
                        f"'{act.resource}' (line {act.line}, col {act.col})"
                    )
                held.discard(act.resource)
        if held:
            raise ModelError(
                f"process {pid + 1}: resource(s) {sorted(held)} never released"
            )
    return PVProgram(tuple(tuple(p) for p in procs))


def pretty_print(program: PVProgram) -> str:
    return " | ".join(
        " ".join(f"{a.kind}{a.resource}" for a in proc) for proc in program.processes
    )


def compile_pv(program: PVProgram):
    """Grid semantics: ambient cell counts and forbidden boxes.

    Each process contributes one axis with one cell per action plus an
    extra trailing cell, so a single ``P``/``V`` pair yields critical
    interval [1, 2) inside a 3-cell line.  Every pair of overlapping
    critical sections on the same mutex, across two distinct processes,
    contributes one forbidden box: the product of the two critical
    intervals, full extent on the remaining axes.  More processes than
    ``DEFAULT_DIM_CAP``, read at call time, are refused.
    """
    n = len(program.processes)
    if n > DEFAULT_DIM_CAP:
        raise ModelError(f"{n} processes exceed the dimension cap {DEFAULT_DIM_CAP}")
    dims = tuple(len(proc) + 1 for proc in program.processes)
    crits = [program.critical_intervals(pid) for pid in range(n)]
    boxes = []
    for i in range(n):
        for j in range(i + 1, n):
            for res, ivs_i in sorted(crits[i].items()):
                for lo_i, hi_i in ivs_i:
                    for lo_j, hi_j in crits[j].get(res, ()):
                        box = [(0, dims[k]) for k in range(n)]
                        box[i] = (lo_i, hi_i)
                        box[j] = (lo_j, hi_j)
                        boxes.append(tuple(box))
    return dims, boxes
