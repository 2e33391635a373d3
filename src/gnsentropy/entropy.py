"""Entropy of restricted states, plus the independent block-trace oracle.

Two routes lead to the spectrum of a state restricted to a subalgebra:

* the GNS route (quotient space, isotypic decomposition, refined weights),
* the block route: the Hermitian density element ``Drho`` inside the span
  with ``Tr_W(Drho B_a) = omega(B_a)``, where ``Tr_W`` counts each
  irreducible block once with ambient multiplicities divided out, is the
  Hilbert-Schmidt projection of the state onto the span times ``m_k`` on
  block k; the spectrum is read off the blocks.

``restriction_entropies`` runs either or both for many states on one span
and, when both, enforces that the two spectra of each state agree as
multisets. Each stage runs stacked over the states of one shape, in
chunks of at most ``STACK_BUDGET`` numbers, and raises on its first
failed check; a chunk that fails is solved again one state at a time.
``restriction_entropy`` and ``density_element`` are batches of one.

The block trace is the right normalization: with ambient multiplicities
m > 1 the naive ambient trace would inflate every block eigenvalue by m
and shift the entropy by ``sum_k lambda_k log m_k``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AlgebraError, DecompositionError, OracleMismatchError, StateError
from .gns import (
    AlgebraState,
    GnsSpace,
    IsotypicDecomposition,
    _build_gns,
    _isotypic,
    _matrix_stack,
    gns_density,
)
from .linalg import (
    CLUSTER_TOL,
    DEFAULT_RTOL,
    ORACLE_TOL,
    PSD_TOL,
    PURITY_TOL,
    RESULT_TOL,
    STACK_BUDGET,
    above_cut,
    chunks,
    dagger,
    hermitize,
    stack,
)
from .star_algebra import OperatorSpan, WedderburnData, check_algebra, wedderburn

LN2 = float(np.log(2.0))


@dataclass(frozen=True)
class SpectralState:
    """A spectrum of positive weights summing to one, with a log convention."""

    weights: np.ndarray
    log_base: str = "e"

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "weights", w)
        if w.size and w.min() <= 0.0:
            raise ValueError(f"spectral weights must be positive, got min {w.min()!r}")
        if abs(w.sum() - 1.0) > RESULT_TOL:
            raise ValueError(f"spectral weights sum to {w.sum()!r}, not 1")
        if self.log_base not in ("e", "2"):
            raise ValueError(f"log_base must be 'e' or '2', got {self.log_base!r}")


def von_neumann_entropy(spectrum, base: str | None = None) -> float:
    """Entropy ``-sum(w log w)`` with the ``0 log 0 = 0`` convention.

    Accepts a :class:`SpectralState` (whose ``log_base`` applies unless
    ``base`` overrides it) or any array of finite nonnegative weights.
    ``base`` is ``"e"`` or ``"2"``; anything else raises ``ValueError``.
    """
    if isinstance(spectrum, SpectralState):
        w = spectrum.weights
        base = spectrum.log_base if base is None else base
    else:
        w = np.asarray(spectrum, dtype=float)
        base = "e" if base is None else base
    base = str(base)
    if base not in ("e", "2"):
        raise ValueError(f"base must be 'e' or '2', got {base!r}")
    if not np.isfinite(w).all():
        raise ValueError("entropy weights must be finite")
    w = w[w > 0.0]
    s = float(-(w * np.log(w)).sum()) if w.size else 0.0
    if s <= 0.0:
        s = 0.0
    return s / LN2 if base == "2" else s


def partial_trace(state, dims: tuple[int, int], keep: str = "A") -> np.ndarray:
    """Reduced density matrix of one tensor factor.

    ``state`` is a vector of length dA*dB or a density matrix on the
    product space; ``keep`` selects which factor survives.
    """
    dA, dB = dims
    if keep not in ("A", "B"):
        raise ValueError(f"keep must be 'A' or 'B', got {keep!r}")
    arr = np.asarray(state, dtype=complex)
    if arr.ndim == 1:
        if arr.size != dA * dB:
            raise ValueError(f"vector of length {arr.size} does not factor as {dA}x{dB}")
        M = arr.reshape(dA, dB)
        if keep == "A":
            return M @ dagger(M)
        return M.T @ M.conj()
    if arr.shape != (dA * dB, dA * dB):
        raise ValueError(
            f"density matrix of shape {arr.shape} does not factor as {dA}x{dB}"
        )
    rho = arr.reshape(dA, dB, dA, dB)
    if keep == "A":
        return np.einsum("abcb->ac", rho)
    return np.einsum("abad->bd", rho)


@dataclass(frozen=True)
class DensityElement:
    """The Hermitian element of the span representing a restricted state.

    ``block_spectra[k]`` lists the eigenvalues of the element on block k,
    each ambient eigenvalue family divided down by the block multiplicity,
    so the concatenation is the spectrum of the abstract restricted state.
    """

    matrix: np.ndarray
    block_spectra: tuple[np.ndarray, ...]
    blocks: WedderburnData

    def spectrum(self, tol: float = DEFAULT_RTOL) -> np.ndarray:
        """Block eigenvalues above the cut at ``tol`` (scale 1), descending."""
        if not self.block_spectra:
            return np.zeros(0)
        w = np.concatenate(self.block_spectra)
        return np.sort(w[above_cut(w, 1.0, tol, w.size, "square")])[::-1]


def density_element(
    span: OperatorSpan,
    blocks: WedderburnData,
    state: AlgebraState,
    rtol: float | None = None,
) -> DensityElement:
    """The Hermitian ``Drho`` in the span with ``Tr_W(Drho B_a) = omega(B_a)``.

    ``Tr_W(X) = sum_k trace(z_k X) / m_k`` weighs block k by 1/m_k, i.e.
    ``Tr_W(X) = trace(W X)`` with ``W = sum_k z_k / m_k``, so ``Drho`` is
    the closed form ``W^-1 P(rho) = sum_k m_k z_k P(rho)``, with
    ``P(rho) = sum_a conj(omega(B_a)) B_a`` the Hilbert-Schmidt projection
    onto the span (``tr_B rho (x) 1_m`` for ``M_k (x) 1_m``). Hermiticity
    is checked. Block spectra are read off the compression of ``Drho`` to
    each block range ``blocks.ranges[k]``: eigenvalues come in groups of
    size m_k, and one representative per group is kept. The span must be a
    unital *-algebra at ``rtol`` (:func:`gnsentropy.star_algebra.check_algebra`),
    and ``blocks`` from another span raises ``ValueError``. This is the
    batch of one of what :func:`restriction_entropies` runs over many states.
    """
    return _density_elements(span, blocks, [state], span.rtol if rtol is None else rtol)[0]


def _density_elements(span: OperatorSpan, blocks: WedderburnData, states: list,
                      rtol: float) -> list:
    """:func:`density_element` for a list of states: the moments, the
    density elements and their Hermiticity check stacked, and one stacked
    ``eigvalsh`` per block."""
    check_algebra(span, rtol, "density element")
    B, n, D = span.basis, span.dim, span.ambient_dim
    dims = (sum(blocks.block_dims), {V.shape[0] for V in blocks.ranges})
    if dims != (n, {D}):
        raise ValueError(f"Wedderburn data of dimension {dims[0]} on ambient dimension "
                         f"{sorted(dims[1])} does not belong to a span of dimension {n} "
                         f"on ambient dimension {D}")
    Y = stack([st.values(_matrix_stack(span, st)) for st in states])
    inverse_weights = sum(m * z for z, m in zip(blocks.projections, blocks.multiplicities))
    # P(rho) = sum_a conj(omega(B_a)) B_a, and Drho = W^-1 P(rho)
    D_mat = inverse_weights @ (Y.conj() @ B.reshape(n, D * D)).reshape(-1, D, D)
    scale = np.maximum(np.linalg.norm(D_mat, axis=(1, 2)), 1.0)
    # in this form a NaN defect fails
    if not (np.linalg.norm(D_mat - dagger(D_mat), axis=(1, 2)) <= RESULT_TOL * scale).all():
        raise StateError(
            "density element came out non-Hermitian; state is not real-valued on the span")
    D_mat, spectra = hermitize(D_mat), []
    for V, n_k, m_k in zip(blocks.ranges, blocks.block_ranks, blocks.multiplicities):
        vals = np.linalg.eigvalsh(hermitize(dagger(V) @ D_mat @ V))
        groups = vals.reshape(-1, n_k, m_k)
        spread = (groups.max(axis=2) - groups.min(axis=2)).max(axis=1)
        block_vals = groups.mean(axis=2)
        bad = spread > RESULT_TOL * np.maximum(1.0, np.abs(vals).max(axis=1))
        if bad.any():
            raise DecompositionError(
                f"block eigenvalues do not come in multiplicity-{m_k} groups "
                f"(spread {spread[bad.argmax()]:.3e})"
            )
        bad = block_vals.min(axis=1) < -PSD_TOL
        if bad.any():
            raise StateError(
                f"restricted state has negative block eigenvalue {block_vals[bad.argmax()].min()!r}"
            )
        spectra.append(np.clip(block_vals, 0.0, None))
    return [DensityElement(matrix=D_mat[j], block_spectra=tuple(spec[j] for spec in spectra),
                           blocks=blocks) for j in range(len(states))]


@dataclass(frozen=True)
class RestrictionReport:
    """Everything one run of the restriction pipeline produced.

    ``spectrum`` (and the entropies) come from the GNS route when it ran,
    otherwise from the block route. ``methods_agree`` is set only when both
    ran; disagreement raises :class:`OracleMismatchError` instead of
    producing a report.
    """

    method: str
    entropy_nats: float
    entropy_bits: float
    spectrum: np.ndarray
    pure: bool
    gns_dim: int | None = None
    null_dim: int | None = None
    commutant_dim: int | None = None
    components: tuple | None = None
    blocks: tuple | None = None
    entropy_nats_gns: float | None = None
    entropy_nats_blocks: float | None = None
    methods_agree: bool | None = None
    seed: int = 0
    gns: GnsSpace | None = None
    isotypic: IsotypicDecomposition | None = None
    density: DensityElement | None = None


def spectra_agree(a: np.ndarray, b: np.ndarray, tol: float = ORACLE_TOL) -> bool:
    """Multiset comparison of two spectra, padding the shorter with zeros."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    size = max(a.size, b.size)
    padded = np.zeros((2, size))
    padded[0, : a.size] = np.sort(a)[::-1]
    padded[1, : b.size] = np.sort(b)[::-1]
    return bool(size == 0 or np.abs(padded[0] - padded[1]).max() <= tol)


def restriction_entropy(
    span: OperatorSpan,
    state: AlgebraState,
    method: str = "both",
    seed: int = 0,
    rtol: float | None = None,
    oracle_tol: float = ORACLE_TOL,
    blocks: WedderburnData | None = None,
) -> RestrictionReport:
    """Entropy of a state restricted to a unital subalgebra span.

    Parameters
    ----------
    method : {"gns", "wedderburn", "both"}
        Which route(s) to run. With ``"both"`` the two spectra must agree
        as multisets within ``oracle_tol`` or :class:`OracleMismatchError`
        is raised.
    blocks : WedderburnData, optional
        Block decomposition of ``span``. When omitted it comes from
        :func:`gnsentropy.star_algebra.wedderburn`, which caches it on the
        span, so a loop over states on one span computes it once either way.
    seed : int
        Recorded on the report; no step is random, so it has no effect.

    This is :func:`restriction_entropies` on a batch of one.
    """
    return restriction_entropies(span, [state], method, seed, rtol, oracle_tol, blocks)[0]


def state_chunks(span: OperatorSpan, count: int) -> list[slice]:
    """Consecutive slices of ``count`` states on ``span`` that are stacked
    at once: at most ``STACK_BUDGET`` numbers at n*D^2 per state, one state
    at least."""
    return chunks(count, span.dim * span.ambient_dim**2, STACK_BUDGET)


def restriction_entropies(
    span: OperatorSpan,
    states,
    method: str = "both",
    seed: int = 0,
    rtol: float | None = None,
    oracle_tol: float = ORACLE_TOL,
    blocks: WedderburnData | None = None,
) -> tuple[RestrictionReport, ...]:
    """:func:`restriction_entropy` for many states on one span, one report each.

    The states are solved in the consecutive chunks of :func:`state_chunks`.
    Inside a chunk every per-state stage runs stacked over the states that
    share a shape: factor width, then GNS dimension and each later rank.
    A state's report does not depend on which other states share its batch.
    A chunk that fails, a stacked LAPACK call included, is solved again one
    state at a time, so the error raised is that of its first failing state
    in input order, as a loop of :func:`restriction_entropy` would raise it.

    Every report keeps its state's GNS space, isotypic decomposition and
    density element, about 20 KB per ``ex5_bosons`` state, so a call holds
    all of its batch's at once. A caller with a large batch should go
    chunk by chunk with :func:`state_chunks`, as ``grid`` and ``sweep`` do.
    """
    if method not in ("gns", "wedderburn", "both"):
        raise ValueError(f"unknown method {method!r}")
    rtol = span.rtol if rtol is None else rtol
    states, reports = list(states), []
    for c in state_chunks(span, len(states)):
        try:
            reports += _solve(span, states[c], method, seed, rtol, oracle_tol, blocks)
        except (ValueError, AlgebraError):
            if len(states[c]) == 1:
                raise
            for state in states[c]:
                reports += _solve(span, [state], method, seed, rtol, oracle_tol, blocks)
    return tuple(reports)


def _solve(span, states, method, seed, rtol, oracle_tol, blocks) -> list:
    """The reports of one chunk of states; the first failed check raises."""
    spaces = isos = spectra_gns = dens = [None] * len(states)
    if method in ("gns", "both"):
        spaces = _build_gns(span, states, rtol)
        isos = _isotypic(spaces, seed, rtol, CLUSTER_TOL)
        spectra_gns = [gns_density(iso, rtol).weights for iso in isos]
    if method in ("wedderburn", "both"):
        if blocks is None:
            blocks = wedderburn(span, seed=seed, rtol=rtol)
        dens = _density_elements(span, blocks, states, rtol)
    return [_report(method, seed, rtol, oracle_tol, *item)
            for item in zip(spaces, isos, spectra_gns, dens)]


def _report(method, seed, rtol, oracle_tol, gns_space, iso, spectrum_gns,
            dens) -> RestrictionReport:
    spectrum_blocks = dens.spectrum(rtol) if dens is not None else None
    agree = None
    if method == "both":
        agree = spectra_agree(spectrum_gns, spectrum_blocks, tol=oracle_tol)
        if not agree:
            raise OracleMismatchError(
                "GNS and block spectra disagree: "
                f"{spectrum_gns!r} vs {spectrum_blocks!r}"
            )

    s_gns = von_neumann_entropy(spectrum_gns) if spectrum_gns is not None else None
    s_blocks = von_neumann_entropy(spectrum_blocks) if spectrum_blocks is not None else None
    spectrum = spectrum_gns if spectrum_gns is not None else spectrum_blocks
    s_nats = s_gns if s_gns is not None else s_blocks
    return RestrictionReport(
        method=method,
        entropy_nats=s_nats,
        entropy_bits=s_nats / LN2,
        spectrum=spectrum,
        pure=bool(s_nats < PURITY_TOL),
        gns_dim=gns_space.gns_dim if gns_space is not None else None,
        null_dim=gns_space.null_dim if gns_space is not None else None,
        commutant_dim=iso.commutant_dim if iso is not None else None,
        components=tuple(
            (c.irrep_dim, c.multiplicity, c.weight) for c in iso.components
        ) if iso is not None else None,
        blocks=tuple(
            (n, m, tuple(spec))
            for n, m, spec in zip(
                dens.blocks.block_ranks, dens.blocks.multiplicities, dens.block_spectra
            )
        ) if dens is not None else None,
        entropy_nats_gns=s_gns,
        entropy_nats_blocks=s_blocks,
        methods_agree=agree,
        seed=seed,
        gns=gns_space,
        isotypic=iso,
        density=dens,
    )
