"""Per-stage split of a `both` solve on `ex5_bosons` grid states.

Prints microseconds per state spent in each private stage of
``entropy._solve``, at chunks of 1, 4, 16 and 32 states. The stages are
timed by wrapping them from outside, in every ``gnsentropy`` module that
looks them up, with exclusive timers (a wrapped stage called from another
is not counted twice). The states are the 121 of ``grid --resolution 11``,
solved chunk by chunk; each figure is the least over ``--rounds`` passes,
which is the steadiest on a shared machine.

Run from the root of the repository, with one BLAS thread:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/stage_split.py

The name does not match ``test_*``, so pytest does not collect it, and it
asserts nothing.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from gnsentropy import entropy, star_algebra
from gnsentropy.cli import plane_to_angles
from gnsentropy.fock import example_generators
from gnsentropy.linalg import DEFAULT_RTOL, ORACLE_TOL

#: Stages in pipeline order; each is the first of its names that a module defines.
STAGES = [
    ("_build_gns", ["_build_gns"]),
    ("_commutant_and_center", ["_commutant_and_center"]),
    ("read_blocks", ["read_blocks"]),
    ("_components", ["_components"]),
    ("gns_density", ["_gns_spectra", "gns_density"]),
    ("_density_elements", ["_density_elements"]),
    ("_report", ["_reports", "_report"]),
]


class Timers:
    """Exclusive wall-clock time per stage label."""

    def __init__(self):
        self.spent = {label: 0.0 for label, _ in STAGES}
        self.open = []  # [label, start, time spent in nested stages]

    def wrap(self, label, func):
        def timed(*args, **kw):
            self.open.append([label, time.perf_counter(), 0.0])
            try:
                return func(*args, **kw)
            finally:
                _, start, nested = self.open.pop()
                elapsed = time.perf_counter() - start
                self.spent[label] += elapsed - nested
                if self.open:
                    self.open[-1][2] += elapsed
        return timed


def install(timers: Timers) -> list:
    """Wrap every stage where a gnsentropy module looks it up; returns the undo list."""
    undo = []
    modules = [m for name, m in sys.modules.items() if name.startswith("gnsentropy")]
    for label, names in STAGES:
        name = next((n for n in names if any(hasattr(m, n) for m in modules)), None)
        if name is None:
            continue
        original = next(getattr(m, name) for m in modules if hasattr(m, name))
        wrapped = timers.wrap(label, original)
        for m in modules:
            if getattr(m, name, None) is original:
                undo.append((m, name, original))
                setattr(m, name, wrapped)
    return undo


def grid_states(resolution: int = 11, extent: float = 2.0):
    span, family = example_generators("ex5_bosons")
    axis = np.linspace(-extent, extent, resolution)
    angles = [plane_to_angles(float(x), float(y)) for x in axis for y in axis]
    return span, [family.state(theta=t, phi=p) for t, p in angles]


def split(span, states, blocks, chunk: int, rounds: int) -> dict:
    """Least microseconds per state of each stage, and of the whole solve."""
    runs = {label: [] for label, _ in STAGES}
    runs["total"] = []
    for _ in range(rounds):
        timers = Timers()
        undo = install(timers)
        try:
            start = time.perf_counter()
            for i in range(0, len(states), chunk):
                entropy._solve(span, states[i:i + chunk], "both", 0, DEFAULT_RTOL,
                               ORACLE_TOL, blocks)
            total = time.perf_counter() - start
        finally:
            for m, name, original in undo:
                setattr(m, name, original)
        for label, spent in timers.spent.items():
            runs[label].append(1e6 * spent / len(states))
        runs["total"].append(1e6 * total / len(states))
    return {label: min(v) for label, v in runs.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--chunks", type=int, nargs="+", default=[1, 4, 16, 32])
    parser.add_argument("--rounds", type=int, default=20)
    args = parser.parse_args(argv)
    span, states = grid_states()
    blocks = star_algebra.wedderburn(span)
    for c in args.chunks:  # warm-up
        split(span, states, blocks, c, 1)
    labels = ["total"] + [label for label, _ in STAGES] + ["tail"]
    print("us per state, least of", args.rounds, "passes over", len(states), "states")
    print("| chunk | " + " | ".join(labels) + " |")
    print("|---" * (len(labels) + 1) + "|")
    for c in args.chunks:
        row = split(span, states, blocks, c, args.rounds)
        row["tail"] = sum(row[k] for k in ("read_blocks", "_components", "gns_density", "_report"))
        print(f"| {c} | " + " | ".join(f"{row[k]:.0f}" for k in labels) + " |")


if __name__ == "__main__":
    main()
