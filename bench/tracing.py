"""Spans around calls into gnsentropy's public functions, taken from outside the library.

:meth:`Tracer.install` replaces each function in ``STAGES`` by a timing
wrapper in every loaded ``gnsentropy`` module that holds it, so calls made
inside the library (``gns`` calling ``commutant``, ``cli`` calling
``restriction_entropy``) are caught too. :meth:`Tracer.uninstall` puts the
originals back. Spans stay in memory until :meth:`Tracer.write`.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from pathlib import Path

#: Traced public functions, as ``<module>.<function>`` under ``gnsentropy``.
STAGES = (
    "cli.main",
    "fock.example_generators",
    "entropy.restriction_entropy",
    "entropy.density_element",
    "star_algebra.span_closure",
    "star_algebra.wedderburn",
    "star_algebra.center",
    "star_algebra.commutant",
    "gns.build_gns",
    "gns.isotypic_decompose",
    "linalg.orthonormalize_rows",
)

#: Sizes of work counted at the stage boundaries, summed over a run.
COUNTERS = (
    "linalg.rows_in",
    "linalg.rows_kept",
    "gns.isotypic_decompose_failed",
    "gns.gns_dim",
    "gns.commutant_dim",
)


class Tracer:
    def __init__(self):
        #: (stage, start, end, index of the parent span or -1, operation id)
        self.spans: list[tuple | None] = []
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.op = -1
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def install(self):
        modules = {
            name: module for name, module in sys.modules.items()
            if name == "gnsentropy" or name.startswith("gnsentropy.")
        }
        for stage in STAGES:
            module_name, func_name = stage.split(".")
            module = importlib.import_module(f"gnsentropy.{module_name}")
            modules[module.__name__] = module
            original = getattr(module, func_name)
            wrapper = self._wrap(stage, original)
            for holder in modules.values():
                for attr, value in list(vars(holder).items()):
                    if value is original:
                        self._patched.append((holder, attr, original))
                        setattr(holder, attr, wrapper)

    def uninstall(self):
        for holder, attr, original in reversed(self._patched):
            setattr(holder, attr, original)
        self._patched.clear()

    def _wrap(self, stage, func):
        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            except Exception:
                if stage == "gns.isotypic_decompose":
                    self.counts["gns.isotypic_decompose_failed"] += 1
                raise
            finally:
                self.spans[index] = (stage, start, time.perf_counter(), parent, self.op)
                self._stack.pop()
            self._count(stage, args, kwargs, result)
            return result

        return traced

    def _count(self, stage, args, kwargs, result):
        if stage == "linalg.orthonormalize_rows":
            rows = args[0] if args else kwargs["rows"]
            self.counts["linalg.rows_in"] += len(rows)
            self.counts["linalg.rows_kept"] += result.shape[0]
        elif stage == "gns.build_gns":
            self.counts["gns.gns_dim"] += result.gns_dim
        elif stage == "gns.isotypic_decompose":
            self.counts["gns.commutant_dim"] += result.commutant_dim

    def layer_metrics(self, n_ops: int) -> dict[str, tuple[float, str]]:
        """Per-operation self time and calls of each stage, plus the counters.

        Self time is a span's duration minus the durations of its child
        spans. ``gns_dim`` and ``commutant_dim`` are means per call that
        returned one.
        """
        child = [0.0] * len(self.spans)
        for stage, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_time = dict.fromkeys(STAGES, 0.0)
        calls = dict.fromkeys(STAGES, 0)
        for (stage, start, end, _, _), inner in zip(self.spans, child):
            self_time[stage] += end - start - inner
            calls[stage] += 1
        out = {}
        for stage in STAGES:
            out[f"{stage}_s"] = (self_time[stage] / n_ops, "s")
            out[f"{stage}_calls"] = (calls[stage] / n_ops, "count")
        c = self.counts
        out["linalg.rows_in"] = (c["linalg.rows_in"] / n_ops, "count")
        out["linalg.rows_kept"] = (c["linalg.rows_kept"] / n_ops, "count")
        out["linalg.rows_kept_ratio"] = (
            c["linalg.rows_kept"] / c["linalg.rows_in"] if c["linalg.rows_in"] else 0.0, "ratio")
        out["gns.isotypic_decompose_failed"] = (c["gns.isotypic_decompose_failed"] / n_ops, "count")
        gns_calls = calls["gns.build_gns"]
        iso_done = calls["gns.isotypic_decompose"] - c["gns.isotypic_decompose_failed"]
        out["gns.gns_dim"] = (c["gns.gns_dim"] / gns_calls if gns_calls else 0.0, "dim")
        out["gns.commutant_dim"] = (c["gns.commutant_dim"] / iso_done if iso_done else 0.0, "dim")
        return out

    def write(self, path: Path, meta: dict):
        """Write every span, with times relative to the first, as one JSON file."""
        t0 = self.spans[0][1] if self.spans else 0.0
        spans = [[s, start - t0, end - t0, parent, op] for s, start, end, parent, op in self.spans]
        path.write_text(json.dumps({**meta, "fields": ["stage", "start_s", "end_s", "parent", "op"],
                                    "spans": spans}))
