"""GNS construction for a state on an operator span.

Given a unital span ``A0`` and a state ``omega`` on the ambient space, the
pipeline is: the Gram matrix ``G[a,b] = omega(B_a^dag B_b)``, its null
space (the left ideal quotiented away), an orthonormal quotient basis from
the retained Gram eigenvectors, the left-multiplication representation
projected onto the quotient, and the class of the unit as cyclic vector.
Matrix elements of the representation against the cyclic vector recover
the state. For ``omega = trace(L L^dag .)`` the class of ``X`` is ``X L``,
so the quotient is the cyclic subspace spanned by the ``B_a L`` in
C^(D x k) and ``pi(B_a)`` is ``B_a (x) 1_k`` restricted to it: the
representation comes from products with the state's factor, and the span's
structure constants are never expanded. The span must be a unital
*-algebra, which :func:`gnsentropy.star_algebra.check_algebra` checks.

The quotient representation is then split into isotypic components: the
ranges of the minimal projections of the center of the commutant of the
representation, each carried as orthonormal columns. The GNS triple fixes
that commutant: T commuting with the representation is determined by
u = T xi (xi the cyclic vector), since T pi(Y) xi = pi(Y) u, and u gives
such a T exactly when pi(X) u = 0 for every null X. So the commutant is
read off inside the r-dimensional quotient, with no Kronecker solve, no
products with the span's basis and no data from the block route; its
center is the kernel of a map on the commutant that is bounded below on
the rest (no basis of the representation's span), found in the same
pass, which stacks the triple once per shape. Multiplicities and irrep
dimensions are read off traces by the same
:func:`gnsentropy.star_algebra.read_blocks` as the block route's, and a
component's weight |V^dag xi|^2 (V its range) spreads over its m Schmidt
directions as the spectrum of the cyclic vector's state on the
commutant's corner, with no random draws.

Every stage takes a list of states or spaces and runs stacked: one SVD,
eigensolve or matrix product per group of items of one shape. A rank cut
counts per item and regroups the stack by that count, and a stage raises
on the first check that fails; a build checks its span once.
:func:`build_gns` and :func:`isotypic_decompose` are batches of one. The
representation's products are formed in chunks of the span's basis, which
caps their scratch at n*D^2 + n^3 numbers per state where a full-rank
density would take n*D^2*r at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DecompositionError, StateError
from .linalg import (
    CLUSTER_TOL,
    DEFAULT_RTOL,
    INPUT_TOL,
    PSD_TOL,
    RESULT_TOL,
    above_cut,
    chunks,
    dagger,
    eigh_null_split,
    hermitize,
    hs_norm,
    regroup,
    right_singular,
    row_basis,
    stack,
    take,
)
from .star_algebra import OperatorSpan, check_algebra, read_blocks


class AlgebraState:
    """A normalized positive linear functional on D x D matrices.

    Backed either by a unit vector (``omega(X) = <psi|X|psi>``) or by a
    density matrix (``omega(X) = trace(rho X)``). Construction validates
    normalization, Hermiticity and positivity; pass ``normalize=True`` to
    rescale an almost-normalized input instead of rejecting it.
    """

    def __init__(self, vector=None, density=None, normalize: bool = False,
                 rtol: float | None = None):
        if (vector is None) == (density is None):
            raise StateError("provide exactly one of vector= or density=")
        self.rtol = DEFAULT_RTOL if rtol is None else rtol
        if vector is not None:
            psi = np.asarray(vector, dtype=complex).ravel()
            if not np.isfinite(psi).all():
                raise StateError("state vector has non-finite entries")
            nrm = np.linalg.norm(psi)
            if nrm == 0.0:
                raise StateError("state vector is zero")
            if abs(nrm - 1.0) > INPUT_TOL and not normalize:
                raise StateError(f"state vector has norm {nrm!r}, not 1")
            self.vector = psi / nrm
            self.density = None
        else:
            rho = np.asarray(density, dtype=complex)
            if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
                raise StateError(f"density matrix must be square, got {rho.shape}")
            if not np.isfinite(rho).all():
                raise StateError("density matrix has non-finite entries")
            scale = max(hs_norm(rho), 1.0)
            if hs_norm(rho - dagger(rho)) > INPUT_TOL * scale:
                raise StateError("density matrix is not Hermitian")
            rho = hermitize(rho)
            tr = float(np.trace(rho).real)
            if abs(tr - 1.0) > INPUT_TOL and not normalize:
                raise StateError(f"density matrix has trace {tr!r}, not 1")
            if tr <= 0.0:
                raise StateError("density matrix has non-positive trace")
            self.vector = None
            self.density = rho / tr

    @classmethod
    def from_vector(cls, psi, **kw) -> "AlgebraState":
        return cls(vector=psi, **kw)

    @classmethod
    def from_density(cls, rho, **kw) -> "AlgebraState":
        return cls(density=rho, **kw)

    @property
    def is_vector(self) -> bool:
        return self.vector is not None

    @property
    def dim(self) -> int:
        return len(self.vector) if self.is_vector else self.density.shape[0]

    @cached_property
    def factor(self) -> np.ndarray:
        """Low-rank factor L with backing = L L^dag (a column for vectors)."""
        return self._cut_factor(self.rtol)

    def _cut_factor(self, rtol: float) -> np.ndarray:
        if self.is_vector:
            return self.vector.reshape(-1, 1)
        vals, vecs, n_null = eigh_null_split(self.density, rtol=rtol)
        floor = -PSD_TOL * max(float(vals[-1]), 0.0)
        if float(vals[0]) < floor:
            raise StateError(f"density matrix has negative eigenvalue {vals[0]!r}")
        return vecs[:, n_null:] * np.sqrt(vals[n_null:])

    def value(self, X: np.ndarray) -> complex:
        """Evaluate the functional on one matrix."""
        X = np.asarray(X, dtype=complex)
        if self.is_vector:
            return complex(np.vdot(self.vector, X @ self.vector))
        return complex(np.trace(self.density @ X))

    def values(self, mats: np.ndarray) -> np.ndarray:
        """Evaluate on a stack of matrices, shape (n, D, D) -> (n,)."""
        mats = np.asarray(mats, dtype=complex)
        if self.is_vector:
            v = mats @ self.vector
            return v @ self.vector.conj()
        return np.einsum("ij,aji->a", self.density, mats)

    def gram(self, mats: np.ndarray) -> np.ndarray:
        """Gram matrix ``G[a,b] = omega(M_a^dag M_b)`` over a matrix stack.

        Assembled as an explicit Gramian of the vectors ``M_a L``, so the
        result is Hermitian positive semidefinite by construction.
        """
        mats = np.asarray(mats, dtype=complex)
        L = self.factor
        V = (mats @ L).reshape(mats.shape[0], -1)
        return V.conj() @ V.T


def gram_matrix(algebra, state: AlgebraState, validate: bool = True) -> np.ndarray:
    """Gram matrix of a span's basis (or of an explicit matrix list) under a state."""
    G = state.gram(_matrix_stack(algebra, state))
    if validate and G.size:
        vals = np.linalg.eigvalsh(hermitize(G))
        if float(vals[0]) < -PSD_TOL * max(float(vals[-1]), 1.0):
            raise StateError(f"Gram matrix not PSD: min eigenvalue {vals[0]!r}")
    return G


def _matrix_stack(algebra, state: AlgebraState) -> np.ndarray:
    """A span's basis or an explicit matrix list, checked against the state."""
    mats = algebra.basis if isinstance(algebra, OperatorSpan) else np.asarray(algebra, dtype=complex)
    if mats.ndim != 3:
        raise ValueError(f"expected a stack of matrices, got shape {mats.shape}")
    if mats.shape[1] != state.dim:
        raise ValueError(
            f"algebra acts on dimension {mats.shape[1]}, state lives on {state.dim}"
        )
    return mats


@dataclass(frozen=True)
class GnsSpace:
    """Quotient Hilbert-space data for one (span, state) pair.

    ``quotient_coords`` holds the retained Gram eigenvectors scaled to unit
    quotient norm, as columns of coefficients in the algebra basis;
    ``null_coords`` the discarded directions. ``cyclic_basis`` holds the
    same quotient basis as orthonormal columns ``vec(X L)`` in C^(D*k)
    (``L`` the state's D x k factor): the class of X is X L, so the
    quotient is the cyclic subspace spanned by the ``B_a L``.
    ``rep_matrices[a]`` is the action of basis element ``a`` on the
    quotient, and ``cyclic_vector`` the class of the ambient identity.
    """

    span: OperatorSpan
    state: AlgebraState
    gram: np.ndarray
    null_coords: np.ndarray
    quotient_coords: np.ndarray
    rep_matrices: np.ndarray
    cyclic_vector: np.ndarray
    rtol: float
    cyclic_basis: np.ndarray

    @property
    def gns_dim(self) -> int:
        return self.quotient_coords.shape[1]

    @property
    def null_dim(self) -> int:
        return self.null_coords.shape[1]

    def quotient_norm(self, algebra_coords: np.ndarray) -> float:
        """Norm of the class of an algebra element given by coefficients."""
        v = np.asarray(algebra_coords, dtype=complex)
        return float(np.sqrt(max(np.vdot(v, self.gram @ v).real, 0.0)))

    def state_values(self) -> np.ndarray:
        """Matrix elements ``<cyclic| pi(B_a) |cyclic>``, which recover the state."""
        c = self.cyclic_vector
        return np.einsum("i,aij,j->a", c.conj(), self.rep_matrices, c)


def build_gns(span: OperatorSpan, state: AlgebraState, rtol: float | None = None) -> GnsSpace:
    """Run the GNS construction for a state restricted to a unital span.

    The Gram matrix is the Gramian ``M^dag M``, PSD by construction, of the
    columns ``vec(B_a L)`` (``L`` the state's factor, its density cut at
    the lower of its own rtol and ``rtol``). Right singular vectors of
    ``M`` with squared singular value at or below the relative cut span the
    null space, to about eps / s rather than an eigensolve's eps / s^2; the
    rest, scaled by 1 / s, form an orthonormal quotient basis, and the
    matching left singular vectors E are its images ``vec(X L)``. The class
    of ``X`` is ``X L``, so ``pi(B_a)`` is ``B_a (x) 1_k`` on the range of
    E: ``rep_matrices[a] = E^dag (B_a (x) 1_k) E`` and the cyclic vector is
    ``E^dag vec(L)``, with no structure constants. The span must be a
    unital *-algebra: :func:`gnsentropy.star_algebra.check_algebra` asks,
    at ``rtol``, after the factor is cut. This is the batch of one of the
    stacked construction that
    :func:`gnsentropy.entropy.restriction_entropies` runs over many states.
    """
    rtol = span.rtol if rtol is None else rtol
    return _build_gns(span, [state], rtol)[0]


def _build_gns(span: OperatorSpan, states: list, rtol: float) -> list:
    """:func:`build_gns` for a list of states on one span, a GnsSpace per
    state. States are stacked by the width k of their factor for the Gramian
    and the SVD split, and then by GNS dimension r for the representation.
    The span is checked once, after every factor is taken."""
    B, n, D = span.basis, span.dim, span.ambient_dim
    for st in states:
        _matrix_stack(span, st)
    out = [st._cut_factor(rtol) if rtol < st.rtol else st.factor for st in states]
    check_algebra(span, rtol, "GNS construction")
    for k, pos in regroup([L.shape[1] for L in out]):
        L = stack([out[i] for i in pos])
        V = (B @ L[:, None]).reshape(len(pos), n, D * k)
        G = V.conj() @ V.swapaxes(1, 2)
        u, s, vh = right_singular(V.swapaxes(1, 2), left=True)
        # cut as the Gram eigenvalues s^2
        n_keep = above_cut(s**2, s[:, :1] ** 2, rtol, max(n, D * k), "square").sum(axis=1)
        for r, sub in regroup(n_keep):
            m = len(sub)
            vh_sub = take(vh, sub)
            null_coords = dagger(vh_sub[:, r:])
            # ascending in s, as an eigensolve of G orders them: the weights do not
            # depend on this order, but their roundoff does (4 grid rows move without it)
            Q = (dagger(vh_sub[:, :r]) / take(s, sub)[:, None, :r])[..., ::-1]
            E = take(u, sub)[:, :, :r][..., ::-1].copy()
            En, Eh = E.reshape(m, D, k * r), dagger(E)
            rep = np.empty((m, n, r, r), dtype=complex)
            # chunks cap the scratch per state (n*D*k*r numbers unchunked)
            for c in chunks(n, D * k * r, n * D**2 + n**3):
                # columns vec(B_a E_j): B_a times E_j reshaped D x k, one GEMM per chunk
                rep[:, c] = Eh[:, None] @ (B[c].reshape(-1, D) @ En).reshape(m, -1, D * k, r)
            cyclic = (Eh @ take(L, sub).reshape(m, D * k, 1))[..., 0]
            for j, i in enumerate(pos[sub]):
                out[i] = GnsSpace(span=span, state=states[i], gram=G[sub[j]],
                                  null_coords=null_coords[j], quotient_coords=Q[j],
                                  rep_matrices=rep[j], cyclic_vector=cyclic[j], rtol=rtol,
                                  cyclic_basis=E[j])
    return out


@dataclass(frozen=True)
class IsotypicComponent:
    """One isotypic block of the quotient representation."""

    projection: np.ndarray
    irrep_dim: int
    multiplicity: int
    weight: float
    refined_weights: np.ndarray

    @property
    def dim(self) -> int:
        return self.irrep_dim * self.multiplicity


@dataclass(frozen=True)
class IsotypicDecomposition:
    """Isotypic components of a GNS representation plus the state weights.

    ``components[k].weight`` is the squared norm of the cyclic vector's
    component; the refined weights per component sum to it and flatten to
    the spectrum of the restricted state.
    """

    components: tuple[IsotypicComponent, ...]
    commutant_dim: int
    seed: int

    @property
    def weights(self) -> np.ndarray:
        return np.array([c.weight for c in self.components])

    def flattened_weights(self) -> np.ndarray:
        if not self.components:
            return np.zeros(0)
        return np.concatenate([c.refined_weights for c in self.components])


def _commutant_and_center(spaces: list, rtol: float) -> tuple[list, list]:
    """Commutant of each GNS representation in a list and its center, from
    the GNS triple alone: ``(commutants, centers)``.

    With xi the cyclic vector, every T in the commutant is fixed by
    ``u = T xi``: ``T [Y] = T pi(Y) xi = pi(Y) u``. Conversely ``u`` gives
    the operator ``T_u: [Y] -> pi(Y) u``, which commutes with the
    representation, whenever that is well defined on the quotient, i.e.
    ``pi(X_nu) u = 0`` for every null class ``X_nu`` (the columns of
    ``null_coords``). The allowed ``u`` are the right null vectors of the
    stacked ``pi(X_nu)``, and the images ``T_u e_j = pi(X_j) u`` of the
    quotient basis (the columns of ``quotient_coords``) span the commutant.
    Since ``T_u xi = u`` with ``|xi| = 1``, ``|sum_i a_i T_{u_i}|_HS >= |a|``
    for orthonormal ``u_i``: every singular value of the stacked ``T_u`` is
    at least 1, so one QR ``T = Q R`` gives the orthonormal basis C (the
    columns of Q) and no rank is cut but that of the allowed ``u``.

    The center Z is the kernel of ``Psi(T) = (1 - P)(T - pi(X_u))`` on C,
    with ``u = T xi``, ``X_u`` the element of class u and P the projector
    onto ``pi(N) = span pi(X_nu)``. A central T is ``pi(Y)`` with
    ``[Y] = u``, so ``T - pi(X_u) = pi(Y - X_u)`` lies in ``pi(N)``. The
    rest of C is orthogonal to all of ``pi(A)`` (on each component the
    traceless parts ``1 (x) X`` and ``Y (x) 1`` are), so there
    ``Psi(T) = T - a`` with a in ``pi(A)`` and ``|P_C Psi(T)| >= |T|``.
    Hence ``M[k, w] = <C_k, Psi(T_{u_w})>`` has kernel Z in the coordinates
    of the ``T_u`` and, as R has singular values at least 1, every other
    singular value at least 1: the cut sits at 1/2. M is
    ``R - (C^dag Pt) U^T``, Pt the columns ``vec pi(X_j)`` and U the rows u
    (U = 1 with no null class), less ``(C^dag N^T) conj(N) (T - Pt U^T)``
    over orthonormal rows N spanning ``pi(N)``; a c x z QR orthonormalizes
    the ``R x`` of its kernel vectors x. Only ``rep_matrices``,
    ``null_coords`` and ``quotient_coords`` are read, with no basis of
    ``pi(A)``: O(n r^3) work, and the QR of the ``T_u`` is the only
    factorization with r^2 rows. Spaces of one shape share one stack.
    """
    commutants, centers = list(spaces), list(spaces)
    for (n, n_null, r), pos in regroup([sp.null_coords.shape + (sp.gns_dim,) for sp in spaces]):
        coords = np.concatenate([stack([spaces[i].quotient_coords for i in pos]),
                                 stack([spaces[i].null_coords for i in pos])], axis=2)
        # pt[j] = vec pi(X_j), and T_u[i, j] = (pi(X_j) u)_i; the rep stack is not kept
        pi = coords.swapaxes(1, 2) @ stack([spaces[i].rep_matrices for i in pos]).reshape(-1, n, r * r)
        pt, pi_null, keys = pi[:, :r], pi[:, r:], [(0, 0)] * len(pos)
        if n_null:
            s, vh = right_singular(pi_null.reshape(len(pos), n_null * r, r))
            # T_u xi = u, so u -> T_u has norm at least 1: cut against max(1, s0)
            cut = above_cut(s, np.maximum(1.0, s[:, :1]), rtol, n_null * r).sum(axis=1)
            null_basis, rank = row_basis(pi_null, rtol)
            keys = zip(cut.tolist(), rank.tolist())
        for (a, b), sub in regroup(keys):
            pi_x, Pt = take(pt, sub).reshape(-1, r, r, r), take(pt, sub).swapaxes(1, 2)
            if n_null:  # one column T_u per allowed u; else T_{e_w} e_j = pi(X_j) e_w
                Ut = take(vh, sub)[:, a:].conj().swapaxes(1, 2)
                pi_x = pi_x @ Ut[:, None]
            T = pi_x.swapaxes(1, 2).reshape(len(sub), r * r, -1)
            Q, R = np.linalg.qr(T)
            # M = R - QP: <C_k, T_{u_w}> = R[k, w], less what pi(X_u) and P take
            QP = dagger(Q) @ Pt
            if n_null:
                N = take(null_basis, sub)[:, :b]
                QP = QP @ Ut + (dagger(Q) @ N.swapaxes(1, 2)) @ (N.conj() @ (T - Pt @ Ut))
            _, sigma, wh = np.linalg.svd(R - QP)
            for z, at in regroup(np.count_nonzero(sigma <= 0.5, axis=1)):
                x = dagger(take(wh, at)[:, wh.shape[-1] - z:])
                Z = take(Q, at) @ np.linalg.qr(take(R, at) @ x)[0]
                for j, i in enumerate(pos[sub[at]]):
                    commutants[i] = OperatorSpan(Q[at[j]].T.reshape(-1, r, r), rtol=rtol)
                    centers[i] = OperatorSpan(Z[j].T.reshape(-1, r, r), rtol=rtol)
    return commutants, centers


def _components(spaces: list, commutants: list, tables: list, seed: int) -> list:
    """The isotypic decomposition of each space from its commutant's block table.

    A component's weight is ``|V^dag xi|^2`` for its range V (orthonormal
    columns) and the cyclic vector xi, and its projection ``P = V V^dag``
    is formed for the report alone; one stack of V and xi per shape (for
    m > 1 also per commutant dimension) gives both and the refined weights.
    A component of multiplicity m > 1 spreads its weight over m Schmidt
    directions. On the range of ``P`` the representation acts as
    ``M_n (x) 1_m`` and the commutant's corner as ``1_n (x) M_m``. The
    Hilbert-Schmidt projection of ``|v><v|`` (``v = P xi``) onto that
    corner is the trace-preserving conditional expectation
    ``1_n (x) sigma / n``, with ``sigma`` the state of ``v`` on the corner:
    its eigenvalues come in m groups of n equal values, and n times each
    group value is a weight. ``P`` is central in the commutant, so that is
    the projection onto the whole commutant, compressed to ``V``.
    """
    pairs = [(i, m, n, V) for i, table in enumerate(tables) for m, n, V in table]
    weight, proj, refined = {}, {}, {}
    for (r, _, *refine), pos in regroup(
            [V.shape + ((commutants[i].dim, n, m) if m > 1 else ()) for i, m, n, V in pairs]):
        V = stack([pairs[p][3] for p in pos])
        xi = stack([spaces[pairs[p][0]].cyclic_vector for p in pos])
        y = (dagger(V) @ xi[..., None])[..., 0]
        weight.update(zip(pos, (y.conj() * y).real.sum(axis=1).tolist()))
        proj.update(zip(pos, V @ dagger(V)))
        if not refine:
            continue
        c, n, m = refine
        C = stack([commutants[pairs[p][0]].basis for p in pos])
        # <C_j, |xi><xi|> = conj(<xi| C_j |xi>)
        coeffs = ((C @ xi[:, None, :, None])[..., 0] @ xi.conj()[..., None]).conj()
        Y = (coeffs.swapaxes(1, 2) @ C.reshape(-1, c, r * r)).reshape(-1, r, r)
        vals = np.linalg.eigvalsh(hermitize(dagger(V) @ Y @ V))[:, ::-1]
        groups = vals.reshape(-1, m, n)
        spread = (groups.max(axis=2) - groups.min(axis=2)).max(axis=1)
        scale = np.maximum(1.0, np.abs(vals).max(axis=1))
        refined.update(zip(pos, zip(np.clip(n * groups.mean(axis=2), 0.0, None), spread, scale)))
    # checked in table order, so a space raises its first failing component
    components = [[] for _ in tables]
    for p, (i, m, n, _) in enumerate(pairs):
        weights, spread, scale = refined.get(p, (np.array([weight[p]]), 0.0, 1.0))
        total, w_k = weights.sum(), weight[p]
        if spread > RESULT_TOL * scale:
            raise DecompositionError(
                f"corner expectation eigenvalues do not come in {m} groups of "
                f"{n} (spread {spread:.3e})"
            )
        if abs(total - w_k) > RESULT_TOL * max(w_k, 1.0):
            raise DecompositionError(f"refined weights sum to {total!r}, expected {w_k!r}")
        components[i].append(IsotypicComponent(projection=proj[p], irrep_dim=n, multiplicity=m,
                                               weight=w_k, refined_weights=weights))
    out = []
    for found, C in zip(components, commutants):
        found.sort(key=lambda c: (-c.irrep_dim, -c.multiplicity, -c.weight))
        total = sum(c.weight for c in found)
        if abs(total - 1.0) > RESULT_TOL:
            raise DecompositionError(f"component weights sum to {total!r}, not 1")
        out.append(IsotypicDecomposition(components=tuple(found), commutant_dim=C.dim, seed=seed))
    return out


def _isotypic(spaces: list, seed: int, rtol: float, cluster_tol: float) -> list:
    """:func:`isotypic_decompose` for a list of spaces, a decomposition per
    space. Each stage runs stacked over all of them."""
    if not all(sp.gns_dim for sp in spaces):
        raise ValueError("GNS space is zero-dimensional")
    commutants, centers = _commutant_and_center(spaces, rtol)
    tables = read_blocks(commutants, centers, cluster_tol, "commutant corner")
    return _components(spaces, commutants, tables, seed)


def isotypic_decompose(
    space: GnsSpace,
    seed: int = 0,
    rtol: float | None = None,
    cluster_tol: float | None = None,
) -> IsotypicDecomposition:
    """Split a GNS representation into isotypic components with weights.

    The component projections are the minimal projections of the center of
    the representation's commutant (equivalently, the minimal central
    projections of the algebra generated by the representation together
    with its commutant). The commutant is read off the GNS triple: each of
    its elements is fixed by its value u on the cyclic vector, the allowed
    u are those annihilated by the null classes, and its center is its
    intersection with the representation's span; the generic
    :func:`gnsentropy.star_algebra.commutant` and ``center`` are their test
    oracles. :func:`gnsentropy.star_algebra.read_blocks` reads each
    multiplicity off a trace, as the square root of the dimension of the
    commutant's corner at the component, and the irrep dimension as the
    component's rank over it. Components come back sorted by descending
    irrep dimension, then multiplicity. No step is random: ``seed`` is
    accepted for compatibility, recorded on the result and has no effect.
    This is the batch of one of the stacked decomposition.
    """
    rtol = space.rtol if rtol is None else rtol
    cluster_tol = CLUSTER_TOL if cluster_tol is None else cluster_tol
    return _isotypic([space], seed, rtol, cluster_tol)[0]


def gns_density(iso: IsotypicDecomposition, tol: float = DEFAULT_RTOL):
    """Spectrum of the restricted state: refined weights above the cut at ``tol``.

    Zero-weight entries are kept in the decomposition report but dropped
    here; what remains sums to 1 within tolerance.
    """
    from .entropy import SpectralState

    w = iso.flattened_weights()
    w = np.sort(w[above_cut(w, 1.0, tol, w.size, "square")])[::-1]
    return SpectralState(weights=w)
