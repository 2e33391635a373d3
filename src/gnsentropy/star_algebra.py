"""Finite-dimensional *-algebras as concrete spans of complex matrices.

An :class:`OperatorSpan` stores an orthonormal basis (under the
Hilbert-Schmidt pairing) of a subspace of D x D matrices, plus, when it
came from :func:`span_closure`, the factors it was closed by (its seeds,
and its unit row when that is needed) and the cut it closed at, a bound on
its closure residual. The operations here close spans under products and
adjoints, tell every stage whether a span is a unital *-algebra
(:func:`check_algebra`), compute centers (commuting with the seeds, else
with the basis) and commutants as null spaces of commutator maps, and
split a unital *-algebra into its irreducible matrix blocks by jointly
refining the eigenspaces of a Hermitian basis of its center, reading each
block's dimension off a trace.

Every function is pure and deterministic and makes no random draws; basis
ordering is fixed by input order plus a deterministic enumeration of
products.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ClosureError, DecompositionError
from .linalg import (
    CLUSTER_TOL,
    DEFAULT_RTOL,
    above_cut,
    as_square,
    check_int,
    check_square,
    chunks,
    dagger,
    eig_clusters,
    eigh_null_split,
    hermitian_span_basis,
    hs_norm,
    orthonormalize_rows,
    regroup,
    stack,
)


class OperatorSpan:
    """A linear span of D x D complex matrices with an orthonormal basis.

    Instances are immutable after construction and safe to share between
    threads. The basis is orthonormal under ``<X, Y> = trace(X^dag Y)``;
    coefficient vectors therefore carry the same inner product as the
    matrices they represent.

    Data that depends on the span alone is computed on first use and cached
    on the instance, so it lives as long as the span does: the unit check
    (:attr:`unit_coords`, :attr:`has_unit`), :meth:`structure_constants`,
    :meth:`closure_residual`, :meth:`adjoint_coords` and :func:`wedderburn`
    per tolerance pair.

    Parameters
    ----------
    basis : ndarray, shape (n, D, D)
        Orthonormal basis matrices. Orthonormality is trusted, not
        re-checked; use :meth:`validate` in tests.
    rtol : float, optional
        Relative tolerance used by membership queries.
    generators : ndarray, shape (s, D, D), optional
        Elements generating the span as a unital algebra (together with the
        identity, which need not be among them), trusted like the basis; s
        may be 0. :func:`center` commutes with these instead of with the
        basis, and :meth:`closure_residual` multiplies the basis by these
        alone. A set that generates less than the span defeats both: the
        center comes out too large and a span that is not closed can pass
        as closed. Any other shape raises ``ValueError``.
    """

    def __init__(self, basis: np.ndarray, rtol: float | None = None,
                 generators: np.ndarray | None = None):
        basis = np.array(basis, dtype=complex)
        if basis.ndim != 3 or basis.shape[1] != basis.shape[2]:
            raise ValueError(f"basis must have shape (n, D, D), got {basis.shape}")
        self.basis = basis
        self.basis.setflags(write=False)
        if generators is not None:
            generators = np.array(generators, dtype=complex)
            if generators.ndim != 3 or generators.shape[1:] != basis.shape[1:]:
                D = basis.shape[1]
                raise ValueError(f"generators must have shape (s, {D}, {D}) to match the "
                                 f"basis {basis.shape}, got {generators.shape}")
            generators.setflags(write=False)
        self.generators = generators
        self._closure_cut: float | None = None
        self.rtol = DEFAULT_RTOL if rtol is None else rtol
        self._structure: tuple[np.ndarray, float] | None = None
        self._closure: float | None = None
        self._adjoint: tuple[np.ndarray, float] | None = None
        self._wedderburn: dict[tuple[float, float], WedderburnData] = {}

    @cached_property
    def unit_coords(self) -> np.ndarray | None:
        """Coefficients of the ambient identity, or None when the span misses
        it; computed on first read of this, :attr:`has_unit` or :meth:`unit`."""
        eye = np.eye(self.ambient_dim)
        return self.coords(eye) if self.contains(eye) else None

    @property
    def closure_cut(self) -> float | None:
        """A bound on :meth:`closure_residual` that :func:`span_closure`
        certified, so :func:`check_algebra` forms no product; None for a span built by hand."""
        return self._closure_cut

    @property
    def has_unit(self) -> bool:
        return self.unit_coords is not None

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    @property
    def ambient_dim(self) -> int:
        return self.basis.shape[1]

    def __repr__(self) -> str:
        unital = "unital" if self.has_unit else "non-unital"
        return f"OperatorSpan(dim={self.dim}, ambient={self.ambient_dim}, {unital})"

    def coords(self, X: np.ndarray) -> np.ndarray:
        """Coefficients of X against the basis (its HS-orthogonal projection)."""
        return np.einsum("aij,ij->a", self.basis.conj(), np.asarray(X, dtype=complex))

    def reconstruct(self, coeffs: np.ndarray) -> np.ndarray:
        return np.tensordot(np.asarray(coeffs, dtype=complex), self.basis, axes=(0, 0))

    def corner_dims(self, ranges) -> np.ndarray:
        """``Re trace(V^dag K V)``, ``K = sum_a B_a B_a^dag``: dim zA for each
        ``z = V V^dag`` central in this *-closed span A (V orthonormal columns),
        as X -> zX is the HS-orthogonal projection onto zA (Murota, Kanno,
        Kojima and Kojima, Japan J. Indust. Appl. Math. 27, 2010)."""
        stacked = np.concatenate(self.basis, axis=1)  # [B_0 | B_1 | ...], D x nD
        K = stacked @ stacked.conj().T
        return np.array([np.vdot(V, K @ V).real for V in ranges])

    def project(self, X: np.ndarray) -> np.ndarray:
        return self.reconstruct(self.coords(X))

    def residual(self, X: np.ndarray) -> float:
        """HS distance from X to the span."""
        return hs_norm(np.asarray(X, dtype=complex) - self.project(X))

    def contains(self, X: np.ndarray, rtol: float | None = None) -> bool:
        rtol = self.rtol if rtol is None else rtol
        return not above_cut(self.residual(X), hs_norm(X), rtol, self.ambient_dim**2)

    def unit(self) -> np.ndarray:
        if not self.has_unit:
            raise ValueError("span does not contain the ambient identity")
        return self.reconstruct(self.unit_coords)

    def _expand_products(self, factors: np.ndarray) -> tuple[np.ndarray, float]:
        """Expand every product ``B_a S`` (S over ``factors``) in the basis.

        Returns ``(coeff, residual)``: ``B_a S_j = sum_c coeff[a,j,c] B_c``
        up to ``residual``, the largest HS norm left unexpanded. Left
        factors are streamed in chunks, one GEMM of ``[B_a; ...]`` against
        ``[S_0|...|S_(s-1)]`` each, whose products hold at most n*D^2 numbers.
        """
        B = self.basis
        n, D, s = self.dim, self.ambient_dim, factors.shape[0]
        if s == 0:
            return np.zeros((n, 0, n), dtype=complex), 0.0
        flat = B.reshape(n, D * D)
        row, dual = factors.transpose(1, 0, 2).reshape(D, s * D), flat.conj().T
        coeff, resid = np.empty((n, s, n), dtype=complex), 0.0
        for c in chunks(n, s * D * D, n * D * D):
            prod = (B[c].reshape(-1, D) @ row).reshape(-1, D, s, D)
            prod = prod.transpose(0, 2, 1, 3).reshape(-1, D * D)
            expanded = prod @ dual
            resid = max(resid, float(np.linalg.norm(prod - expanded @ flat, axis=1).max()))
            coeff[c] = expanded.reshape(-1, s, n)
        return coeff, resid

    def structure_constants(self) -> tuple[np.ndarray, float]:
        """Expansion of all basis products back in the basis.

        Returns ``(coeff, residual)`` where ``B_a B_b = sum_c coeff[a,b,c] B_c``
        up to ``residual``, the largest HS norm left unexpanded. A residual
        above tolerance means the span is not multiplicatively closed. The
        products are streamed one left factor at a time, one GEMM of ``B_a``
        against ``[B_0|...|B_(n-1)]``, so memory peaks at n*D^2 + n^3.
        """
        if self._structure is None:
            self._structure = self._expand_products(self.basis)
        return self._structure

    def closure_residual(self) -> float:
        """Largest HS norm left unexpanded by the products ``B_a S``.

        S runs over the span's ``generators`` (n*s products, none when s is
        0): for a unital span they generate with the identity, ``span S``
        inside the span gives ``span S^j``, hence ``span span``, inside it.
        Without generators S runs over the basis, and this is (and shares
        the cache of) :meth:`structure_constants`' residual. Cached, and
        always measured: :func:`check_algebra` reads :attr:`closure_cut` first.
        """
        if self.generators is None:
            return self.structure_constants()[1]
        if self._closure is None:
            self._closure = self._expand_products(self.generators)[1]
        return self._closure

    def adjoint_coords(self) -> tuple[np.ndarray, float]:
        """Matrix S with ``B_a^dag = sum_b S[a,b] B_b`` and the worst residual.

        Cached on the span; ``S`` is read-only.
        """
        if self._adjoint is None:
            B = self.basis
            n, D = self.dim, self.ambient_dim
            adj = dagger(B).reshape(n, D * D)
            S = adj @ B.conj().reshape(n, D * D).T
            resid = float(np.linalg.norm(adj - S @ B.reshape(n, D * D), axis=1).max()) if n else 0.0
            S.setflags(write=False)
            self._adjoint = (S, resid)
        return self._adjoint

    def hermitian_basis(self) -> np.ndarray:
        """Orthonormal Hermitian matrices spanning the Hermitian part.

        For a *-closed span of complex dimension n the Hermitian part has
        real dimension n, and exactly n matrices come back. For a span that
        is not *-closed they span the Hermitian part of the span plus its
        adjoint.
        """
        herm, rank = hermitian_span_basis(self.basis, rtol=self.rtol)
        return herm[:rank]

    def validate(self) -> dict[str, float]:
        """Residuals of the span invariants, for tests and diagnostics."""
        n, D = self.dim, self.ambient_dim
        flat = self.basis.reshape(n, D * D)
        gram = flat.conj() @ flat.T
        _, mul_resid = self.structure_constants()
        _, adj_resid = self.adjoint_coords()
        out = {
            "gram": float(np.abs(gram - np.eye(n)).max()),
            "product_closure": mul_resid,
            "adjoint_closure": adj_resid,
        }
        if self.has_unit:
            out["unit"] = self.residual(np.eye(D))
        return out


@dataclass(frozen=True)
class WedderburnData:
    """Minimal central projections of a unital *-closed span.

    Block ``k`` is a full matrix algebra of rank ``block_ranks[k]`` acting on
    the range of ``projections[k]`` with ambient multiplicity
    ``multiplicities[k]``; ``ranges[k]`` holds orthonormal columns V_k
    spanning that range, ``projections[k] = V_k V_k^dag``, the rank
    ``V_k.shape[1]`` is ``n_k * m_k`` and the block dimensions ``n_k**2`` add
    up to the span dimension. Both are read-only.
    """

    projections: np.ndarray
    block_ranks: tuple[int, ...]
    multiplicities: tuple[int, ...]
    center_dim: int
    ranges: tuple[np.ndarray, ...]

    @property
    def n_blocks(self) -> int:
        return len(self.block_ranks)

    @property
    def block_dims(self) -> tuple[int, ...]:
        return tuple(n * n for n in self.block_ranks)

    def block_table(self) -> list[tuple[int, int]]:
        return list(zip(self.block_ranks, self.multiplicities))


def span_closure(
    generators,
    include_unit: bool = False,
    ambient_dim: int | None = None,
    rtol: float | None = None,
    max_rounds: int | None = None,
) -> OperatorSpan:
    """Smallest *-closed (optionally unital) span containing the generators.

    The seeds (the generators in input order, then their adjoints) are
    orthonormalized into a basis S0, listed first; the identity, when
    requested, is orthonormalized against S0, at the same cut, into the
    next basis row ``U = (1 - sum_i c_i S_i) / nu``. Every word in S0 is a
    shorter word times one element of S0, so the factors are S0, kept as
    the span's ``generators``: each round multiplies the previous round's
    new directions (the seed rows and U in the first) by the factors on the
    right, in (new direction, factor) order, and appends what is new; a
    round that adds nothing ends the closure. A product ``N U`` is left up
    to ``|c|_1 / nu`` times the residuals of the ``N S_i``, so when
    ``|c|_1 > nu`` U is a factor (and a generator) as well. With s factors,
    a span of dimension n costs n * s products, reproducibly for a fixed
    input order.

    Every product of a basis row with a factor is formed in exactly one
    round, and kept or dropped at the round's cut (:func:`above_cut` at its
    largest candidate, whose norm is at most 1). The basis only grows, so
    the largest cut bounds :meth:`OperatorSpan.closure_residual`, and the
    ``N U`` residuals too when U is no factor; it is the ``closure_cut``.

    Raises
    ------
    ValueError
        Generators of mismatched dimension, or an empty non-unital span.
    ClosureError
        The span kept growing after ``D*D`` enlargement rounds (numerical
        breakdown rather than a real algebra), or is not adjoint-stable.
    """
    rtol = DEFAULT_RTOL if rtol is None else rtol
    mats = [as_square(g, name=f"generators[{i}]") for i, g in enumerate(generators)]
    dims = {m.shape[0] for m in mats}
    if len(dims) > 1:
        raise ValueError(f"generators have mixed dimensions {sorted(dims)}")
    if mats:
        D = dims.pop()
        if ambient_dim is not None and ambient_dim != D:
            raise ValueError(f"generators are {D}x{D}, expected ambient_dim={ambient_dim}")
    elif ambient_dim is not None:
        D = ambient_dim
    else:
        raise ValueError("ambient_dim is required when no generators are given")

    seeds = [m.ravel() for m in mats] + [dagger(m).ravel() for m in mats]
    # the seeds and the unit share one cut: rtol times the largest of them
    top = max((np.linalg.norm(v) for v in seeds), default=0.0)
    peak = max(top, np.sqrt(D)) if include_unit else top
    basis = factors = orthonormalize_rows(
        seeds, rtol=rtol * peak / top if top else rtol).reshape(-1, D * D)
    if include_unit:
        eye = np.eye(D, dtype=complex).ravel()
        unit = orthonormalize_rows([eye], against=basis, rtol=rtol * peak / np.sqrt(D))
        basis = np.vstack([basis, unit])
        # c = <S_i, 1> and nu = <U, 1>
        if unit.shape[0] and np.abs(factors.conj() @ eye).sum() > (unit[0] @ eye).real:
            factors = basis
    factors, new = factors.reshape(-1, D, D), basis
    if basis.shape[0] == 0:
        raise ValueError("empty span: no generators and include_unit=False")

    max_rounds = D * D if max_rounds is None else max_rounds
    closure_cut = cut = 0.0
    for _ in range(max_rounds):
        prods = np.matmul(new.reshape(-1, 1, D, D), factors).reshape(-1, D * D)
        # the cut orthonormalize_rows applies to this round's candidates
        top = np.linalg.norm(prods, axis=1).max(initial=0.0)
        cut = float(above_cut(None, top, rtol, max(prods.shape))) if len(prods) else 0.0
        closure_cut = max(closure_cut, cut)
        new = orthonormalize_rows(prods, against=basis, rtol=rtol)
        if new.shape[0] == 0:
            span = OperatorSpan(basis.reshape(-1, D, D), rtol=rtol, generators=factors)
            check_residual(span, span.adjoint_coords()[1], rtol,
                           "closure is not adjoint-stable: the adjoints of its basis")
            span._closure_cut = closure_cut
            return span
        basis = np.vstack([basis, new])
    raise ClosureError(
        f"span did not stabilize within {max_rounds} enlargement rounds: the last "
        f"round kept {new.shape[0]} rows above its cut {cut:.3e}"
    )


def check_residual(span: OperatorSpan, resid: float, rtol: float, what: str) -> None:
    """ClosureError, led by ``what``, unless a residual of the span is within the cut."""
    if above_cut(resid, 1.0, rtol, span.dim, "residual"):
        cut = above_cut(None, 1.0, rtol, span.dim, "residual")
        raise ClosureError(f"{what} leave residual {resid:.3e} above the cut {cut:.3e}")


def check_algebra(span: OperatorSpan, rtol: float, what: str) -> None:
    """Raise, led by ``what``, unless the span is a unital *-algebra: ValueError
    without the unit, else ClosureError for the adjoints of its basis, then for
    its products with its generators (its basis without), which pass unformed
    when :attr:`OperatorSpan.closure_cut` lies within the cut."""
    if not span.has_unit:
        raise ValueError(f"{what} requires a unital span")
    check_residual(span, span.adjoint_coords()[1], rtol,
                   f"{what} requires a *-closed span: the adjoints of its basis")
    certified = span.closure_cut
    if certified is None or above_cut(certified, 1.0, rtol, span.dim, "residual"):
        factors = (f"its {len(span.generators)} generators" if span.generators is not None
                   else f"its {span.dim} basis elements")
        check_residual(span, span.closure_residual(), rtol, f"{what} requires a multiplicatively "
                       f"closed span: the products of its basis with {factors}")


def full_matrix_algebra(D: int, rtol: float | None = None) -> OperatorSpan:
    """The full algebra of D x D matrices, basis = matrix units in row order."""
    return OperatorSpan(np.eye(D * D, dtype=complex).reshape(D * D, D, D), rtol=rtol)


def center(span: OperatorSpan, rtol: float | None = None) -> OperatorSpan:
    """Elements of the span commuting with the whole span.

    An element commutes with the span once it commutes with a generating
    set: ``span.generators`` when the span has them (the factors of
    :func:`span_closure`; everything commutes with the identity), else the
    basis. Solved on coefficient space: the null space of the positive
    semidefinite Gram matrix of the commutator map ``x -> [x, S]``,
    accumulated one generator S at a time; with no generators the map is
    zero and the center is the whole span.
    """
    rtol = span.rtol if rtol is None else rtol
    B = span.basis
    n, D = span.dim, span.ambient_dim
    M = np.zeros((n, n), dtype=complex)
    for S in (B if span.generators is None else span.generators):
        K = (B @ S - S @ B).reshape(n, D * D)
        M += K.conj() @ K.T
    _, vecs, n_null = eigh_null_split(M, rtol=rtol)
    coeffs = vecs[:, :n_null].T
    mats = np.tensordot(coeffs, B, axes=(1, 0))
    return OperatorSpan(mats.reshape(-1, D, D), rtol=rtol)


def commutant(rep_matrices, rtol: float | None = None) -> OperatorSpan:
    """All matrices commuting with every given matrix.

    The generic route, for any set of matrices: accumulates the normal
    equations of the commutator map ``X -> [X, R]`` (a PSD matrix on
    C^(r*r), assembled from Kronecker products) and takes its null space,
    so the result is exact for the full input set with no random choices.
    Always contains the identity. It costs O(r^6); a GNS representation
    gets its commutant from the GNS triple instead (see
    :func:`gnsentropy.gns.isotypic_decompose`), and this function is the
    oracle that route is tested against.
    """
    rtol = DEFAULT_RTOL if rtol is None else rtol
    mats = [as_square(m, name=f"rep_matrices[{i}]") for i, m in enumerate(rep_matrices)]
    if not mats:
        raise ValueError("commutant needs at least one matrix")
    r = mats[0].shape[0]
    for m in mats:
        as_square(m, ambient_dim=r, name="rep_matrices")
    eye = np.eye(r)
    M = np.zeros((r * r, r * r), dtype=complex)
    for R in mats:
        Rd = dagger(R)
        M += np.kron(eye, (R @ Rd).conj())
        M += np.kron(Rd @ R, eye)
        M -= np.kron(R, R.conj())
        M -= np.kron(Rd, R.T)
    _, vecs, n_null = eigh_null_split(M, rtol=rtol)
    basis = vecs[:, :n_null].T.reshape(-1, r, r)
    return OperatorSpan(basis, rtol=rtol)


def minimal_projections(commutatives: list, cluster_tol: float | None = None) -> list:
    """Ranges of the minimal projections of each commutative unital
    *-closed span in a list: one list of ranges per span.

    Joint refinement (Maehara and Murota, SIAM J. Matrix Anal. Appl. 32,
    2011): from the identity, each Hermitian basis element in turn is
    compressed to every current range and splits it at its eigenvalue
    clusters, until there are as many ranges as the span dimension. The
    span is commutative, so each compression is exact; a dim-1 span returns
    the identity untouched. Each range comes back as orthonormal columns V
    (D x rank), the projection being ``V V^dag``. Two minimal projections
    differ by at least sqrt(2)/D in some basis coordinate, so for D up to
    about 1e4 the basis separates them at the default ``cluster_tol``.
    Every step takes one stacked Hermitian basis cut per span shape and one
    stacked ``eigh`` per range width, across all spans still being split.
    :class:`DecompositionError` is raised for the first span whose refinement
    falls short.
    """
    cluster_tol = CLUSTER_TOL if cluster_tol is None else cluster_tol
    if any(Z.dim == 0 for Z in commutatives):
        raise DecompositionError("a center of dimension 0: the rank cut dropped its unit")
    out = [[np.eye(Z.ambient_dim, dtype=complex)] for Z in commutatives]
    herm = {}
    for (n, D, rtol), pos in regroup(
            [None if Z.dim == 1 else (Z.dim, Z.ambient_dim, Z.rtol) for Z in commutatives]):
        h, rank = hermitian_span_basis(stack([commutatives[i].basis for i in pos]), rtol)
        herm.update((i, h[j, : rank[j]]) for j, i in enumerate(pos))
    gap = dict.fromkeys(herm, np.inf)
    for step in range(max((len(h) for h in herm.values()), default=0)):
        pairs = [(i, V) for i, h in herm.items()
                 if step < len(h) and len(out[i]) < commutatives[i].dim for V in out[i]]
        if not pairs:
            break
        split = [None] * len(pairs)
        for _, pos in regroup([V.shape for _, V in pairs]):
            V = stack([pairs[p][1] for p in pos])
            h = stack([herm[pairs[p][0]][step] for p in pos])
            vals, vecs = np.linalg.eigh(dagger(V) @ h @ V)
            clusters, gaps = eig_clusters(vals, cluster_tol)
            for j, p in enumerate(pos):
                i = pairs[p][0]
                gap[i] = min(gap[i], gaps[j])
                split[p] = [V[j] @ vecs[j][:, cl] for cl in clusters[j]]
        for i in {i for i, _ in pairs}:
            out[i] = []
        for (i, _), ranges in zip(pairs, split):
            out[i] += ranges
    for i in sorted(herm):
        if len(out[i]) != commutatives[i].dim:
            raise DecompositionError(
                f"joint refinement found {len(out[i])} of {commutatives[i].dim} minimal "
                f"projections (smallest separating gap {gap[i]:.3e}, cluster_tol {cluster_tol:.1e})"
            )
    return out


def read_blocks(algebras: list, centers: list, cluster_tol: float, what: str) -> list:
    """The block table of each unital *-closed span in ``algebras`` from its
    center in ``centers``: ``(root, rank / root, V)`` for each range V of the
    minimal projections of the center. root^2 = dim zA (``z = V V^dag``) is
    read off a trace and must be a perfect square, and rank = ``V.shape[1]``
    a multiple of root. That is (block rank, multiplicity) on a block algebra
    and (multiplicity, irrep dimension) on a commutant; ``what`` names the
    reading in errors, and the first table that fails raises."""
    tables = []
    for A, ranges in zip(algebras, minimal_projections(centers, cluster_tol=cluster_tol)):
        tables.append([])
        for V, reading in zip(ranges, A.corner_dims(ranges)):
            root, rank = check_square(reading, f"{what} dimension"), V.shape[1]
            quotient = check_int(rank / root, f"rank {rank} / sqrt({what} dimension) {root}")
            V.setflags(write=False)
            tables[-1].append((root, quotient, V))
    return tables


def wedderburn(
    span: OperatorSpan,
    seed: int = 0,
    rtol: float | None = None,
    cluster_tol: float | None = None,
) -> WedderburnData:
    """Block decomposition of a unital *-algebra span into matrix algebras.

    :func:`check_algebra` asks whether the span is one. The minimal central
    projections are those of :func:`center`, and :func:`read_blocks` reads
    each block's rank n_k off a trace and its multiplicity as the
    projection's rank over n_k. Blocks are sorted by descending rank, then
    multiplicity, then refinement order. ``seed`` is accepted and has no
    effect: no step is random.

    The result depends on the span and the resolved ``rtol`` and
    ``cluster_tol`` alone, so it is cached on the span under that pair:
    repeated calls return the same object, unchecked, with read-only
    ``projections`` and ``ranges``; a call that raises caches nothing.
    """
    rtol = span.rtol if rtol is None else rtol
    cluster_tol = CLUSTER_TOL if cluster_tol is None else cluster_tol
    cached = span._wedderburn.get((rtol, cluster_tol))
    if cached is not None:
        return cached
    check_algebra(span, rtol, "wedderburn")
    Z = center(span, rtol=rtol)
    (blocks,) = read_blocks([span], [Z], cluster_tol, "block")
    blocks.sort(key=lambda b: (-b[0], -b[1]))
    projections = np.array([V @ dagger(V) for *_, V in blocks])
    projections.setflags(write=False)
    data = WedderburnData(
        projections=projections,
        block_ranks=tuple(b[0] for b in blocks),
        multiplicities=tuple(b[1] for b in blocks),
        center_dim=Z.dim,
        ranges=tuple(b[2] for b in blocks),
    )
    if sum(data.block_dims) != span.dim:
        raise DecompositionError(
            f"block dimensions {data.block_dims} do not add up to span dim {span.dim}"
        )
    span._wedderburn[rtol, cluster_tol] = data
    return data
