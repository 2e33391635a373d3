"""The benchmark's three workloads: inputs, one operation each, and its checks.

Every check is computed here with numpy alone, never with gnsentropy, so a
wrong answer from either of the library's two routes shows as a failed check.

``gnsentropy`` is imported inside ``setup`` and nowhere else, because the
import is part of what ``setup_s`` measures.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from pathlib import Path

import numpy as np

#: Largest allowed gap between a computed and an expected weight or entropy.
TOL = 1e-8


class CheckFailed(Exception):
    """A result of the library disagrees with the benchmark's own computation."""


def _require(ok: bool, what: str):
    if not ok:
        raise CheckFailed(what)


def _same_spectrum(got, want, what: str):
    got = np.sort(np.asarray(got, dtype=float))[::-1]
    want = np.sort(np.asarray(want, dtype=float))[::-1]
    _require(got.shape == want.shape, f"{what}: {got.size} weights, expected {want.size}")
    gap = float(np.abs(got - want).max()) if got.size else 0.0
    _require(gap <= TOL, f"{what}: weights differ by {gap:.3e}")


def _entropy(weights) -> float:
    w = np.asarray(weights, dtype=float)
    w = w[w > 0.0]
    return float(-(w * np.log(w)).sum())


def _check_report(report, want_spectrum, want_gns_dim: int, want_null_dim: int | None = None):
    """Checks shared by the workloads that call ``restriction_entropy`` directly."""
    _same_spectrum(report.spectrum, want_spectrum, "GNS spectrum")
    _same_spectrum(report.density.spectrum(), want_spectrum, "block spectrum")
    _require(report.methods_agree is True, "the two routes were not both run and agreed")
    total = float(np.sum(report.spectrum))
    _require(abs(total - 1.0) <= TOL, f"spectrum sums to {total!r}")
    gap = abs(report.entropy_nats - _entropy(want_spectrum))
    _require(gap <= TOL, f"entropy off by {gap:.3e}")
    _require(report.gns_dim == want_gns_dim,
             f"gns_dim {report.gns_dim}, expected {want_gns_dim}")
    if want_null_dim is not None:
        _require(report.null_dim == want_null_dim,
                 f"null_dim {report.null_dim}, expected {want_null_dim}")


def _complex_gaussian(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(_complex_gaussian(rng, (dim, dim)))
    d = np.diagonal(r)
    return q * (d / np.abs(d))


class Workload:
    """One workload. ``operate`` is the timed call; the rest is the benchmark's own work.

    A run repeats whole rounds of ``round_size`` operations over ``inputs(seed)``,
    so the share of failed operations is the same in every run.
    """

    name = ""
    round_size = 1

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir

    def setup(self):
        """Import gnsentropy and build the library objects that operations reuse."""
        raise NotImplementedError

    def inputs(self, seed: int) -> list:
        raise NotImplementedError

    def smoke_input(self):
        raise NotImplementedError

    def operate(self, x):
        raise NotImplementedError

    def check(self, x, out) -> int:
        """Raise :class:`CheckFailed` on a wrong result; return the solves it made."""
        raise NotImplementedError

    def final_check(self):
        """Checks that need the whole run, done after the timed phase."""


@dataclass(frozen=True)
class FrameInput:
    seed: int
    frame: np.ndarray
    generator: np.ndarray
    vector: np.ndarray


class TensorFrame(Workload):
    """``span_closure`` of ``U (G x 1_m) U^dag``, then both routes on a random pure state.

    The operation seeds are the contiguous range ``SEEDS``, each drawn from
    ``default_rng(100 + s)``; ``--seed`` only orders them inside a round.
    With one BLAS thread, seeds 1 and 8 hit the Hermitian-basis fault and
    count as failed.
    """

    name = "tensor_frame"
    K, M = 4, 6
    SEEDS = range(20)
    round_size = len(SEEDS)

    def setup(self):
        import gnsentropy

        self.g = gnsentropy

    def _draw(self, s: int) -> FrameInput:
        rng = np.random.default_rng(100 + s)
        dim = self.K * self.M
        frame = _random_unitary(dim, rng)
        g = _complex_gaussian(rng, (self.K, self.K))
        generator = frame @ np.kron(g, np.eye(self.M)) @ frame.conj().T
        psi = _complex_gaussian(rng, dim)
        return FrameInput(s, frame, generator, psi / np.linalg.norm(psi))

    def inputs(self, seed):
        order = np.random.default_rng(seed).permutation(len(self.SEEDS))
        return [self._draw(self.SEEDS[i]) for i in order]

    def smoke_input(self):
        return self._draw(self.SEEDS[0])

    def operate(self, x):
        g = self.g
        span = g.span_closure([x.generator], include_unit=True)
        report = g.restriction_entropy(
            span, g.AlgebraState(vector=x.vector), method="both", seed=x.seed
        )
        return span, report

    def check(self, x, out):
        span, report = out
        _require(span.dim == self.K ** 2, f"span dim {span.dim}, expected {self.K ** 2}")
        # In the frame the algebra acts on the first factor of C^k x C^m, so the
        # restricted state is the reduced density of U^dag psi on that factor.
        schmidt = np.linalg.svd((x.frame.conj().T @ x.vector).reshape(self.K, self.M),
                                compute_uv=False) ** 2
        schmidt = schmidt[schmidt > TOL]
        _check_report(report, schmidt, self.K * schmidt.size)
        return 1


class Faithful(Workload):
    """Both routes on ``full_matrix_algebra(5)`` with a random full-rank density.

    The density for operation seed ``s`` is ``X X^dag / tr`` with X a complex
    Gaussian from ``default_rng(s)``; the seeds are the contiguous range
    ``SEEDS`` and ``--seed`` only orders them inside a round.
    """

    name = "faithful"
    D = 5
    SEEDS = range(10)
    round_size = len(SEEDS)

    def setup(self):
        import gnsentropy

        self.g = gnsentropy
        self.span = gnsentropy.full_matrix_algebra(self.D)
        self.span.structure_constants()

    def _draw(self, s: int):
        x = _complex_gaussian(np.random.default_rng(s), (self.D, self.D))
        rho = x @ x.conj().T
        return s, rho / np.trace(rho).real

    def inputs(self, seed):
        order = np.random.default_rng(seed).permutation(len(self.SEEDS))
        return [self._draw(self.SEEDS[i]) for i in order]

    def smoke_input(self):
        return self._draw(self.SEEDS[0])

    def operate(self, x):
        s, rho = x
        g = self.g
        return g.restriction_entropy(
            self.span, g.AlgebraState(density=rho), method="both", seed=s
        )

    def check(self, x, report):
        _, rho = x
        _check_report(report, np.linalg.eigvalsh(rho), self.D ** 2, want_null_dim=0)
        return 1


def _boson_entropy(x: float, y: float) -> float:
    """Closed-form entropy of the ``ex5_bosons`` state at plane point (x, y).

    Inverse stereographic projection: with r2 = x^2 + y^2 the state has
    amplitudes (2x, 2y, r2 - 1) / (r2 + 1) on the sites 1, 2 and 5. The
    algebra is block diagonal over the sites (0, 1, 3), (2, 4) and (5,), so
    each amplitude lies in its own block and the restricted state has one
    weight per block: the squared amplitude.
    """
    r2 = x * x + y * y
    return _entropy((np.array([2 * x, 2 * y, r2 - 1.0]) / (r2 + 1.0)) ** 2)


class Landscape(Workload):
    """``gnsentropy grid --resolution 11 --extent e`` on the ``ex5_bosons`` preset.

    ``--seed`` orders the fixed list ``EXTENTS``; each call solves 121 new
    points. No input of this workload fails, so a round is one call.
    """

    name = "landscape"
    RESOLUTION = 11
    EXTENTS = tuple(0.5 + i / 48 for i in range(120))

    def __init__(self, out_dir: Path):
        super().__init__(out_dir)
        self.csv_path = out_dir / "grid.csv"
        self.first = None

    def setup(self):
        import gnsentropy.cli

        self.cli = gnsentropy.cli

    def inputs(self, seed):
        order = np.random.default_rng(seed).permutation(len(self.EXTENTS))
        return [self.EXTENTS[i] for i in order]

    def smoke_input(self):
        return self.EXTENTS[0]

    def operate(self, extent):
        return self.cli.main([
            "grid", "--resolution", str(self.RESOLUTION),
            "--extent", repr(extent), "--out", str(self.csv_path),
        ])

    def check(self, extent, code):
        _require(code == 0, f"grid exited with code {code}")
        data = self.csv_path.read_bytes()
        if self.first is None:
            self.first = (extent, data)
        rows = list(csv.reader(io.StringIO(data.decode())))
        _require(rows[:1] == [["x", "y", "entropy"]], f"CSV header {rows[:1]}")
        try:
            points = np.array(rows[1:], dtype=float)
        except ValueError as exc:
            raise CheckFailed(f"CSV rows do not parse as numbers: {exc}") from None
        n = self.RESOLUTION
        _require(points.shape == (n * n, 3), f"CSV has {len(rows) - 1} rows, expected {n * n}")
        axis = extent * (2.0 * np.arange(n) / (n - 1) - 1.0)
        grid = np.array([(x, y) for x in axis for y in axis])
        gap = float(np.abs(points[:, :2] - grid).max())
        _require(gap <= 1e-12 * extent, f"grid coordinates off by {gap:.3e}")
        want = np.array([_boson_entropy(x, y) for x, y in points[:, :2]])
        gap = float(np.abs(points[:, 2] - want).max())
        _require(gap <= TOL, f"entropy off the closed form by {gap:.3e}")
        return n * n

    def final_check(self):
        """Repeat the first checked call and require the same CSV, byte for byte."""
        if self.first is None:
            return
        extent, data = self.first
        code = self.operate(extent)
        _require(code == 0, f"repeated grid exited with code {code}")
        again = self.csv_path.read_bytes()
        _require(again == data, f"repeating --extent {extent!r} changed the CSV")


WORKLOADS = {w.name: w for w in (TensorFrame, Faithful, Landscape)}
