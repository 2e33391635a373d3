"""Command-line front end.

Subcommands: ``run`` a scenario file or preset once, ``sweep`` one state
parameter over a grid (CSV), emit the two-boson entropy landscape
``grid`` over a stereographic plane (CSV), and replay a built-in worked
``example`` against golden values.

Scenario files are JSON. Complex scalars serialize as ``[re, im]`` pairs;
a vector is a list of pairs and a matrix either a row-major nested list
of pairs or a flat row-major pair list. Exit codes: 0 success, 1 golden
mismatch, 2 validation error, 3 numerical/oracle failure (a LAPACK
``LinAlgError`` too, although it subclasses ``ValueError``).

``sweep`` and ``grid`` solve their states together, with
:func:`gnsentropy.entropy.restriction_entropies` on one budget-sized chunk
of states at a time, and print the same rows a loop of single solves
would; the first state that fails ends the run with its error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .entropy import (
    LN2,
    RestrictionReport,
    partial_trace,
    restriction_entropies,
    restriction_entropy,
    state_chunks,
    von_neumann_entropy,
)
from .errors import AlgebraError
from .fock import PAULI, example_generators, f_basis_embedding
from .gns import AlgebraState, gram_matrix
from .star_algebra import span_closure, wedderburn

EXIT_OK = 0
EXIT_GOLDEN = 1
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3

METHODS = ("gns", "wedderburn", "both")


# ---------------------------------------------------------------------------
# serialization


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def parse_complex_pairs(data, name: str) -> np.ndarray:
    arr = np.asarray(data, dtype=float)
    if arr.ndim < 1 or arr.shape[-1] != 2:
        raise ValueError(f"{name}: expected [re, im] pairs, got shape {arr.shape}")
    return arr[..., 0] + 1j * arr[..., 1]


def parse_vector(data, dim: int | None, name: str) -> np.ndarray:
    v = parse_complex_pairs(data, name)
    if v.ndim != 1:
        raise ValueError(f"{name}: expected a flat list of pairs, got shape {v.shape}")
    if dim is not None and v.size != dim:
        raise ValueError(f"{name}: has length {v.size}, expected {dim}")
    return v


def parse_matrix(data, dim: int | None, name: str) -> np.ndarray:
    m = parse_complex_pairs(data, name)
    if m.ndim == 1:
        side = int(round(np.sqrt(m.size)))
        if side * side != m.size:
            raise ValueError(f"{name}: flat length {m.size} is not a square")
        m = m.reshape(side, side)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{name}: expected a square matrix, got shape {m.shape}")
    if dim is not None and m.shape[0] != dim:
        raise ValueError(f"{name}: is {m.shape[0]}x{m.shape[0]}, expected {dim}x{dim}")
    return m


# ---------------------------------------------------------------------------
# scenarios


def load_scenario(path) -> dict:
    text = Path(path).read_text()
    try:
        spec = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(spec, dict):
        raise ValueError(f"{path}: scenario must be a JSON object")
    return spec


def _tolerance(value) -> float:
    """A relative tolerance, which must be finite and non-negative."""
    tol = float(value)
    if not (np.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"tolerance must be finite and non-negative, got {tol!r}")
    return tol


def build_scenario(spec: dict):
    """Resolve a scenario dict into (span, state, meta)."""
    algebra = spec.get("algebra")
    if not isinstance(algebra, dict):
        raise ValueError("scenario needs an 'algebra' object")
    has_gens = "generators" in algebra
    has_preset = "preset" in algebra
    if has_gens == has_preset:
        raise ValueError("algebra must have exactly one of 'generators' or 'preset'")
    state_spec = spec.get("state")
    if not isinstance(state_spec, dict):
        raise ValueError("scenario needs a 'state' object")
    given = [k for k in ("vector", "density", "parameters") if k in state_spec]
    if len(given) != 1:
        raise ValueError("state must have exactly one of 'vector', 'density', 'parameters'")
    rtol = spec.get("tolerance")
    if rtol is not None:
        rtol = _tolerance(rtol)

    if has_preset:
        name = algebra["preset"]
        span, family = example_generators(name)
        dim = family.ambient_dim
        declared = spec.get("ambient_dim")
        if declared is not None and int(declared) != dim:
            raise ValueError(
                f"preset {name} lives on dimension {dim}, not {declared}"
            )
        params = {}
        if given[0] == "parameters":
            params = dict(state_spec["parameters"])
            state = family.state(params)
        meta = {"preset": name, "parameters": params, "family": family}
    else:
        dim = spec.get("ambient_dim")
        if dim is None:
            raise ValueError("scenario with explicit generators needs 'ambient_dim'")
        dim = int(dim)
        gens = [
            parse_matrix(g, dim, f"algebra.generators[{i}]")
            for i, g in enumerate(algebra["generators"])
        ]
        span = span_closure(gens, include_unit=True, ambient_dim=dim, rtol=rtol)
        if given[0] == "parameters":
            raise ValueError("'parameters' requires a preset algebra")
        meta = {"preset": None, "parameters": {}, "family": None}
    if given[0] == "vector":
        state = AlgebraState(vector=parse_vector(state_spec["vector"], dim, "state.vector"),
                             normalize=True)
    elif given[0] == "density":
        state = AlgebraState(density=parse_matrix(state_spec["density"], dim, "state.density"),
                             normalize=True)

    method = spec.get("method", "both")
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; choose one of {METHODS}")
    meta.update(
        method=method,
        seed=int(spec.get("seed", 0)),
        rtol=rtol,
        log_base=str(spec.get("log_base", "e")),
    )
    if meta["log_base"] not in ("e", "2"):
        raise ValueError("log_base must be 'e' or '2'")
    return span, state, meta


def report_to_dict(report: RestrictionReport, meta: dict) -> dict:
    entropy = report.entropy_nats if meta["log_base"] == "e" else report.entropy_bits
    out = {
        "preset": meta.get("preset"),
        "parameters": meta.get("parameters") or {},
        "method": report.method,
        "seed": report.seed,
        "log_base": meta["log_base"],
        "entropy": entropy,
        "entropy_nats": report.entropy_nats,
        "entropy_bits": report.entropy_bits,
        "spectrum": [float(w) for w in report.spectrum],
        "gns_dim": report.gns_dim,
        "null_dim": report.null_dim,
        "pure": report.pure,
        "commutant_dim": report.commutant_dim,
        "methods_agree": report.methods_agree,
        "components": [
            {"n": n, "m": m, "weight": float(w)} for n, m, w in report.components
        ] if report.components is not None else None,
        "blocks": [
            {"n": n, "m": m, "spectrum": [float(v) for v in spec]}
            for n, m, spec in report.blocks
        ] if report.blocks is not None else None,
    }
    return out


def run_scenario(spec: dict) -> dict:
    span, state, meta = build_scenario(spec)
    report = restriction_entropy(
        span, state, method=meta["method"], seed=meta["seed"], rtol=meta["rtol"]
    )
    return report_to_dict(report, meta)


def sweep_scenario(spec: dict, param: str, start: float, stop: float, steps: int):
    """CSV rows for one named state parameter swept over an inclusive grid."""
    span, _, meta = build_scenario(spec)
    family = meta["family"]
    if family is None:
        raise ValueError("sweep requires a preset algebra with a state family")
    if param not in family.names:
        raise ValueError(
            f"unknown parameter {param!r}; preset takes {list(family.names)}"
        )
    if steps < 1:
        raise ValueError("steps must be at least 1")
    if start == stop:
        grid = np.array([start])
    else:
        grid = np.linspace(start, stop, steps)
    base = dict(meta["parameters"])
    header = [param, "entropy_nats", "entropy_bits", "gns_dim", "null_dim"]
    states, error = [], None
    for value in grid:
        try:
            states.append(family.state({**base, param: float(value)}))
        except ValueError as exc:
            error = exc
            break
    rows = _report_rows(span, states, lambda i, report: [
        _fmt(grid[i]),
        _fmt(report.entropy_nats),
        _fmt(report.entropy_bits),
        "" if report.gns_dim is None else str(report.gns_dim),
        "" if report.null_dim is None else str(report.null_dim),
    ], method=meta["method"], seed=meta["seed"], rtol=meta["rtol"])
    if error is not None:
        raise error
    return header, rows


def _report_rows(span, states, row, **kw) -> list:
    """``row(i, report)`` for each state i, from :func:`restriction_entropies`
    on one chunk of :func:`state_chunks` at a time, so that only one chunk's
    reports are alive at once."""
    return [row(c.start + j, report) for c in state_chunks(span, len(states))
            for j, report in enumerate(restriction_entropies(span, states[c], **kw))]


def plane_to_angles(x: float, y: float) -> tuple[float, float]:
    """Invert the stereographic projection used by the landscape grid.

    The plane coordinates are ``(x, y) = (sin(t)cos(p), sin(t)sin(p)) /
    (1 - cos(t))``; the projection point t = 0 maps to infinity and the
    opposite pole to the origin. A point too far out for x^2 + y^2 to be
    finite is the projection point itself.
    """
    rho_sq = x * x + y * y
    cos_t = 1.0 if rho_sq == np.inf else (rho_sq - 1.0) / (rho_sq + 1.0)
    theta = float(np.arccos(np.clip(cos_t, -1.0, 1.0)))
    phi = float(np.arctan2(y, x))
    return theta, phi


def grid_rows(resolution: int, extent: float = 2.0, method: str = "both",
              seed: int = 0, rtol: float | None = None):
    """Entropy of the two-boson preset over a square stereographic grid."""
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    if not np.isfinite(extent):
        raise ValueError(f"extent must be finite, got {extent!r}")
    if rtol is not None:
        rtol = _tolerance(rtol)
    span, family = example_generators("ex5_bosons")
    axis = np.linspace(-extent, extent, resolution)
    points = [(float(x), float(y)) for x in axis for y in axis]
    states = []
    for x, y in points:
        theta, phi = plane_to_angles(x, y)
        states.append(family.state(theta=theta, phi=phi))
    return ["x", "y", "entropy"], _report_rows(
        span, states, lambda i, report: [_fmt(points[i][0]), _fmt(points[i][1]),
                                         _fmt(report.entropy_nats)],
        method=method, seed=seed, rtol=rtol)


# ---------------------------------------------------------------------------
# golden examples


def _entropy_of_weights(weights) -> float:
    w = np.asarray(weights, dtype=float)
    return von_neumann_entropy(w / w.sum())


def _binary_entropy(theta: float) -> float:
    return _entropy_of_weights([np.cos(theta) ** 2, np.sin(theta) ** 2])


def _ex5_entropy(theta: float, phi: float) -> float:
    return _entropy_of_weights([
        (np.sin(theta) * np.cos(phi)) ** 2,
        (np.sin(theta) * np.sin(phi)) ** 2,
        np.cos(theta) ** 2,
    ])


class _Golden:
    def __init__(self):
        self.lines: list[str] = []
        self.ok = True

    def check(self, desc: str, passed: bool, detail: str = ""):
        if passed:
            self.lines.append(f"PASS: {desc}")
        else:
            self.ok = False
            suffix = f" ({detail})" if detail else ""
            self.lines.append(f"FAIL: {desc}{suffix}")

    def close(self, desc: str, got: float, want: float, tol: float):
        self.check(desc, abs(got - want) <= tol, f"got {got!r}, want {want!r}")


def run_example(number: int, seed: int = 0) -> tuple[list[str], bool]:
    """Replay one worked scenario and compare against golden values."""
    if number not in (1, 2, 3, 4, 5):
        raise ValueError("example number must be in 1..5")
    g = _Golden()
    if number == 1:
        span, family = example_generators("ex1_m2")
        for lam in (0.0, 0.25, 0.5, 0.75, 1.0):
            rep = restriction_entropy(span, family.state(**{"lambda": lam}), seed=seed)
            g.close(f"qubit family entropy at lambda={lam}", rep.entropy_nats,
                    _entropy_of_weights([lam, 1.0 - lam]), 1e-9)
            want_null, want_dim = (2, 2) if lam in (0.0, 1.0) else (0, 4)
            g.check(
                f"qubit family dimensions at lambda={lam}",
                (rep.null_dim, rep.gns_dim) == (want_null, want_dim),
                f"null={rep.null_dim}, dim={rep.gns_dim}",
            )
    elif number == 2:
        span, family = example_generators("ex2_bell")
        state = family.state()
        basis = np.array([np.kron(s, np.eye(2)) for s in PAULI])
        G = gram_matrix(basis, state)
        g.check("singlet Gram matrix is the identity",
                bool(np.abs(G - np.eye(4)).max() <= 1e-12),
                f"max deviation {np.abs(G - np.eye(4)).max():.3e}")
        rep = restriction_entropy(span, state, seed=seed)
        g.close("singlet one-sided entropy", rep.entropy_nats, LN2, 1e-9)
        g.check("singlet weights are (1/2, 1/2)",
                rep.spectrum.size == 2 and bool(np.abs(rep.spectrum - 0.5).max() <= 1e-9),
                f"spectrum {rep.spectrum!r}")
    elif number == 3:
        span_full, _ = example_generators("ex3_choice1")
        rng = np.random.default_rng(seed)
        embed = f_basis_embedding()
        for trial in range(3):
            psi = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            psi /= np.linalg.norm(psi)
            rep = restriction_entropy(span_full, AlgebraState(vector=psi), seed=seed)
            g.check(f"full one-particle algebra gives a pure restriction (draw {trial})",
                    rep.pure and rep.entropy_nats < 1e-9,
                    f"entropy {rep.entropy_nats:.3e}")
            rho = partial_trace(embed @ psi, (3, 3), keep="A")
            s_pt = von_neumann_entropy(np.linalg.eigvalsh(rho))
            g.close(f"tensor partial trace still sees one bit (draw {trial})",
                    s_pt, LN2, 1e-9)
        span2, family = example_generators("ex3_choice2")
        for theta, want_dim in ((0.0, 2), (0.6, 3), (np.pi / 2, 1)):
            rep = restriction_entropy(span2, family.state(theta=theta), seed=seed)
            g.check(f"pair subalgebra quotient dimension at theta={theta:.3g}",
                    rep.gns_dim == want_dim, f"dim {rep.gns_dim}")
        rep = restriction_entropy(span2, family.state(theta=0.6), seed=seed)
        g.close("pair subalgebra entropy at theta=0.6",
                rep.entropy_nats, _binary_entropy(0.6), 1e-9)
    elif number == 4:
        span, family = example_generators("ex4_left")
        for theta in (0.0, np.pi / 2):
            rep = restriction_entropy(span, family.state(theta=theta), seed=seed)
            g.check(f"one-location observables at theta={theta:.3g}: dims",
                    (rep.null_dim, rep.gns_dim) == (4, 2),
                    f"null={rep.null_dim}, dim={rep.gns_dim}")
            g.check(f"one-location observables at theta={theta:.3g}: pure",
                    rep.pure, f"entropy {rep.entropy_nats:.3e}")
        rep = restriction_entropy(span, family.state(theta=0.7), seed=seed)
        g.close("one-location entropy at theta=0.7",
                rep.entropy_nats, _binary_entropy(0.7), 1e-9)
        blocks = wedderburn(span, seed=seed)
        g.check("block table contains a rank-2 block of multiplicity 2",
                (2, 2) in blocks.block_table(), f"table {blocks.block_table()}")
    else:
        span, family = example_generators("ex5_bosons")
        g.check("block-diagonal subalgebra has dimension 14",
                span.dim == 14, f"dim {span.dim}")
        axis_points = [
            (0.0, 0.0), (np.pi, 0.0),
            (np.pi / 2, 0.0), (np.pi / 2, np.pi / 2),
            (np.pi / 2, np.pi), (np.pi / 2, 3 * np.pi / 2),
        ]
        for theta, phi in axis_points:
            rep = restriction_entropy(span, family.state(theta=theta, phi=phi), seed=seed)
            g.check(f"entropy vanishes at axis point (theta={theta:.3g}, phi={phi:.3g})",
                    rep.entropy_nats < 1e-9, f"entropy {rep.entropy_nats:.3e}")
        rep = restriction_entropy(span, family.state(theta=1.0, phi=0.8), seed=seed)
        g.close("two-boson entropy at (theta, phi)=(1.0, 0.8)",
                rep.entropy_nats, _ex5_entropy(1.0, 0.8), 1e-9)
        theta_sym = float(np.arccos(1.0 / np.sqrt(3.0)))
        rep = restriction_entropy(span, family.state(theta=theta_sym, phi=np.pi / 4),
                                  seed=seed)
        g.close("maximal mixing at the symmetric point",
                rep.entropy_nats, float(np.log(3.0)), 1e-9)
    return g.lines, g.ok


# ---------------------------------------------------------------------------
# argument parsing and dispatch


def _write(text: str, out: str | None):
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _emit_csv(header, rows, out):
    lines = [",".join(header)] + [",".join(row) for row in rows]
    _write("\n".join(lines) + "\n", out)


def _apply_overrides(spec: dict, args) -> dict:
    spec = dict(spec)
    if args.method is not None:
        spec["method"] = args.method
    if args.seed is not None:
        spec["seed"] = args.seed
    if args.tol is not None:
        spec["tolerance"] = args.tol
    if getattr(args, "log_base", None) is not None:
        spec["log_base"] = args.log_base
    return spec


def make_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="gnsentropy",
        description="Entropy of states restricted to observable subalgebras.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add_shared(sp, log_base=True):
        sp.add_argument("--method", choices=METHODS, default=None,
                        help="computation route (default: both)")
        sp.add_argument("--seed", type=int, default=None,
                        help="recorded in run JSON; no step is random, so it has no effect")
        sp.add_argument("--tol", type=float, default=None,
                        help="relative rank/null tolerance override")
        if log_base:
            sp.add_argument("--log-base", choices=("e", "2"), dest="log_base",
                            default=None, help="log base for the headline entropy")
        sp.add_argument("--out", default=None, help="write output to this path")

    rp = sub.add_parser("run", help="run one scenario file")
    rp.add_argument("scenario", help="path to a scenario JSON file")
    add_shared(rp)

    sp_ = sub.add_parser("sweep", help="sweep a state parameter, emit CSV")
    sp_.add_argument("scenario", help="path to a scenario JSON file")
    sp_.add_argument("--param", required=True, help="state parameter to sweep")
    sp_.add_argument("--from", dest="from_", type=float, required=True)
    sp_.add_argument("--to", dest="to", type=float, required=True)
    sp_.add_argument("--steps", type=int, required=True)
    add_shared(sp_, log_base=False)

    gp = sub.add_parser("grid", help="two-boson entropy landscape, emit CSV")
    gp.add_argument("--resolution", type=int, required=True,
                    help="grid points per axis (>= 2)")
    gp.add_argument("--extent", type=float, default=2.0,
                    help="half-width of the square plane window")
    add_shared(gp, log_base=False)

    ep = sub.add_parser("example", help="replay a worked scenario against goldens")
    ep.add_argument("number", type=int, choices=(1, 2, 3, 4, 5))
    ep.add_argument("--seed", type=int, default=0)
    ep.add_argument("--out", default=None)
    return p


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            spec = _apply_overrides(load_scenario(args.scenario), args)
            result = run_scenario(spec)
            _write(json.dumps(result, indent=2) + "\n", args.out)
        elif args.command == "sweep":
            spec = _apply_overrides(load_scenario(args.scenario), args)
            header, rows = sweep_scenario(spec, args.param, args.from_, args.to, args.steps)
            _emit_csv(header, rows, args.out)
        elif args.command == "grid":
            header, rows = grid_rows(
                args.resolution, extent=args.extent,
                method=args.method or "both",
                seed=args.seed or 0, rtol=args.tol,
            )
            _emit_csv(header, rows, args.out)
        elif args.command == "example":
            lines, ok = run_example(args.number, seed=args.seed)
            _write("\n".join(lines) + "\n", args.out)
            if not ok:
                return EXIT_GOLDEN
    except (AlgebraError, np.linalg.LinAlgError) as exc:
        # LinAlgError subclasses ValueError, but it is a LAPACK breakdown
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
