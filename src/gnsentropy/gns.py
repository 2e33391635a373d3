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
structure constants are never expanded.

The quotient representation is then split into isotypic components: the
ranges of the minimal projections of the center of the commutant of the
representation, each carried as orthonormal columns. The GNS triple fixes
that commutant: an operator T commuting with the representation is
determined by u = T xi (xi the cyclic vector), since T pi(Y) xi = pi(Y) u,
and a vector u gives such an operator exactly when pi(X) u = 0 for every
null X. So the commutant is read off the representation matrices and the
null and quotient coordinates, inside the r-dimensional quotient, with no
Kronecker solve, no products with the span's basis and no data from the
block route. Its center is its intersection with the span of the
representation (its own bicommutant), found from principal angles with no
commutators. A component's multiplicity m is read off a trace, as the
square root of the dimension of the commutant's corner, and its irrep
dimension is its rank over m: the block route reads its blocks with the
same :func:`gnsentropy.star_algebra.read_blocks`, applied to its own
algebra. Its weight spreads over m Schmidt directions: the refined weights
are the spectrum of the cyclic vector's state on that corner, its rank-one
projector projected onto the commutant and compressed to the component,
with no random draws.

The representation's products are streamed in chunks of the span's
basis, so no intermediate holds more than the n*D^2 + n^3 numbers of the
streamed structure constants.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ClosureError, DecompositionError, StateError
from .linalg import (
    CLOSURE_SLACK,
    CLUSTER_TOL,
    DEFAULT_RTOL,
    INPUT_TOL,
    NULL_FLOOR,
    PSD_TOL,
    RESULT_TOL,
    chunks,
    dagger,
    eigh_null_split,
    hermitize,
    hs_norm,
    right_singular,
    row_basis,
)
from .star_algebra import OperatorSpan, read_blocks


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
        if self.is_vector:
            return self.vector.reshape(-1, 1)
        vals, vecs, n_null = eigh_null_split(self.density, rtol=self.rtol)
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
    return _check_gram_psd(G) if validate and G.size else G


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


def _check_gram_psd(G: np.ndarray) -> np.ndarray:
    """Return a Gram matrix, rejecting it if its eigenvalues dip below roundoff."""
    vals = np.linalg.eigvalsh(hermitize(G))
    if float(vals[0]) < -PSD_TOL * max(float(vals[-1]), 1.0):
        raise StateError(f"Gram matrix not PSD: min eigenvalue {vals[0]!r}")
    return G


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

    The Gram matrix is ``M^dag M`` for the stack ``M`` of columns
    ``vec(B_a L)`` (``L`` the state's factor). Right singular vectors of
    ``M`` with squared singular value at or below the relative cut span the
    null space, to about eps / s rather than an eigensolve's eps / s^2; the
    rest, scaled by 1 / s, form an orthonormal quotient basis, and the
    matching left singular vectors E are its images ``vec(X L)``. The class
    of ``X`` is ``X L``, so ``pi(B_a)`` is ``B_a (x) 1_k`` on the range of
    E: ``rep_matrices[a] = E^dag (B_a (x) 1_k) E`` and the cyclic vector is
    ``E^dag vec(L)``, with no structure constants. The span must be
    multiplicatively closed; :meth:`OperatorSpan.closure_residual` checks
    that from the products of the basis with the generators.
    """
    rtol = span.rtol if rtol is None else rtol
    if not span.has_unit:
        raise ValueError("GNS construction requires a unital span")
    B, L = _matrix_stack(span, state), state.factor
    V = (B @ L).reshape(span.dim, -1)
    G = _check_gram_psd(V.conj() @ V.T)
    u, s, vh = right_singular(V.T, left=True)
    n_keep = int(np.count_nonzero(s**2 > max(rtol * s[0] ** 2, NULL_FLOOR)))
    null_coords = vh[n_keep:].conj().T
    # ascending in s, as an eigensolve of G orders them: the weights do not
    # depend on this order, but their roundoff does (4 grid rows move without it)
    Q = (vh[:n_keep].conj().T / s[:n_keep])[:, ::-1]
    E = u[:, :n_keep][:, ::-1].copy()

    resid, cut = span.closure_residual(), CLOSURE_SLACK * rtol
    if resid > cut:
        factors = (f"its {len(span.generators)} generators" if span.generators is not None
                   else f"its {span.dim} basis elements")
        raise ClosureError(
            f"span is not multiplicatively closed: the products of its basis with "
            f"{factors} leave residual {resid:.3e} above the cut {cut:.3e} "
            "(CLOSURE_SLACK * rtol); GNS needs an algebra"
        )
    n, D, r = span.dim, span.ambient_dim, n_keep
    En, Eh = E.reshape(D, -1), E.conj().T
    rep = np.empty((n, r, r), dtype=complex)
    # the chunks hold no more numbers than the streamed structure constants'
    # products and coefficients, n*D^2 + n^3
    for c in chunks(n, E.size, n * D**2 + n**3):
        # columns vec(B_a E_j): B_a times E_j reshaped D x k, one GEMM per chunk
        rep[c] = Eh @ (B[c].reshape(-1, D) @ En).reshape(-1, E.shape[0], r)
    return GnsSpace(
        span=span,
        state=state,
        gram=G,
        null_coords=null_coords,
        quotient_coords=Q,
        rep_matrices=rep,
        cyclic_vector=Eh @ L.ravel(),
        rtol=rtol,
        cyclic_basis=E,
    )


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


def _quotient_commutant(space: GnsSpace, rtol: float) -> OperatorSpan:
    """Commutant of the GNS representation, from the GNS triple alone.

    With xi the cyclic vector, every T in the commutant is fixed by
    ``u = T xi``: ``T [Y] = T pi(Y) xi = pi(Y) u``. Conversely ``u`` gives
    the operator ``T_u: [Y] -> pi(Y) u``, which commutes with the
    representation, whenever that is well defined on the quotient, i.e.
    ``pi(X_nu) u = 0`` for every null class ``X_nu`` (the columns of
    ``null_coords``). The allowed ``u`` are the right null vectors of the
    stacked ``pi(X_nu)``, and the images ``T_u e_j = pi(X_j) u`` of the
    quotient basis (the columns of ``quotient_coords``) span the commutant.
    Only ``rep_matrices``, ``null_coords`` and ``quotient_coords`` are
    read: O(n r^3) work, with no products in the ambient space.
    """
    rep, r = space.rep_matrices, space.gns_dim
    cond = np.tensordot(space.null_coords, rep, axes=(0, 0)).reshape(-1, r)
    # T_u xi = u, so u -> T_u has norm at least 1 and the cut is relative
    # to 1 where the condition is smaller, e.g. pure roundoff or no rows
    s, vh = right_singular(cond)
    allowed = vh[np.count_nonzero(s > rtol * max(1.0, s[0])):].conj()
    # pi_x[j] = pi(X_j), and T_u[i, j] = (pi(X_j) u)_i
    pi_x = np.tensordot(space.quotient_coords, rep, axes=(0, 0))
    images = (pi_x @ allowed.T).transpose(2, 1, 0)
    return OperatorSpan(row_basis(images.reshape(-1, r * r), rtol).reshape(-1, r, r), rtol=rtol)


def _commutant_center(space: GnsSpace, C: OperatorSpan, rtol: float) -> OperatorSpan:
    """Center of the commutant ``C``: its intersection with ``pi(A)``.

    ``pi(A)`` is a unital *-algebra, hence its own bicommutant, so ``C``
    meets ``C'`` exactly where it meets ``pi(A)``. Over orthonormal bases of
    both (``pi(A)``'s cut by one SVD), the singular values of the overlap
    are the cosines of the principal angles: exactly 1 on the center and 0
    elsewhere, since the rest of ``C`` and of ``pi(A)`` are the traceless
    parts ``1 (x) X`` and ``Y (x) 1`` of each component, which are
    orthogonal. The cut sits at 1/2.
    """
    r = space.gns_dim
    Cb, Ab = C.basis.reshape(C.dim, r * r), row_basis(space.rep_matrices.reshape(-1, r * r), rtol)
    u, cosines, _ = np.linalg.svd(Cb.conj() @ Ab.T, full_matrices=False)
    return OperatorSpan((u[:, cosines > 0.5].T @ Cb).reshape(-1, r, r), rtol=rtol)


def _refined_weights(
    V: np.ndarray, commutant: np.ndarray, cyclic: np.ndarray, n_k: int, m_k: int
) -> np.ndarray:
    """Schmidt weights of the cyclic vector inside one isotypic component.

    ``V`` holds orthonormal columns spanning the component, ``P = V V^dag``.
    On the range of ``P`` the representation acts as ``M_n (x) 1_m`` and
    the commutant's corner as ``1_n (x) M_m``. The Hilbert-Schmidt
    projection of ``|v><v|`` (``v = P cyclic``) onto that corner is the
    trace-preserving conditional expectation ``1_n (x) sigma / n``, with
    ``sigma`` the state of ``v`` on the corner: its eigenvalues come in m
    groups of n equal values, and n times each group value is a weight.
    ``P`` is central in the commutant (orthonormal basis ``commutant``), so
    that is the projection onto the whole commutant, compressed to ``V``.
    """
    # <C_j, |xi><xi|> = conj(<xi| C_j |xi>)
    Y = np.tensordot(((commutant @ cyclic) @ cyclic.conj()).conj(), commutant, axes=(0, 0))
    vals = np.linalg.eigvalsh(hermitize(dagger(V) @ Y @ V))[::-1]
    groups = vals.reshape(m_k, n_k)
    spread = float((groups.max(axis=1) - groups.min(axis=1)).max())
    if spread > RESULT_TOL * max(1.0, float(np.abs(vals).max())):
        raise DecompositionError(
            f"corner expectation eigenvalues do not come in {m_k} groups of "
            f"{n_k} (spread {spread:.3e})"
        )
    return np.clip(n_k * groups.mean(axis=1), 0.0, None)


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
    """
    rtol = space.rtol if rtol is None else rtol
    cluster_tol = CLUSTER_TOL if cluster_tol is None else cluster_tol
    if space.gns_dim == 0:
        raise ValueError("GNS space is zero-dimensional")
    C = _quotient_commutant(space, rtol)
    Z = _commutant_center(space, C, rtol)
    cyclic = space.cyclic_vector
    components = []
    for m_k, n_k, V in read_blocks(C, Z, cluster_tol, "commutant corner"):
        P = V @ dagger(V)
        w_k = float(np.vdot(cyclic, P @ cyclic).real)
        if m_k == 1:
            refined = np.array([w_k])
        else:
            refined = _refined_weights(V, C.basis, cyclic, n_k, m_k)
            if abs(refined.sum() - w_k) > RESULT_TOL * max(w_k, 1.0):
                raise DecompositionError(
                    f"refined weights sum to {refined.sum()!r}, expected {w_k!r}"
                )
        components.append(
            IsotypicComponent(
                projection=P,
                irrep_dim=n_k,
                multiplicity=m_k,
                weight=w_k,
                refined_weights=refined,
            )
        )
    components.sort(key=lambda c: (-c.irrep_dim, -c.multiplicity, -c.weight))
    total = sum(c.weight for c in components)
    if abs(total - 1.0) > RESULT_TOL:
        raise DecompositionError(f"component weights sum to {total!r}, not 1")
    return IsotypicDecomposition(
        components=tuple(components), commutant_dim=C.dim, seed=seed
    )


def gns_density(iso: IsotypicDecomposition, tol: float = DEFAULT_RTOL):
    """Spectrum of the restricted state: all refined weights above ``tol``.

    Zero-weight entries are kept in the decomposition report but dropped
    here; what remains sums to 1 within tolerance.
    """
    from .entropy import SpectralState

    w = iso.flattened_weights()
    w = np.sort(w[w > tol])[::-1]
    return SpectralState(weights=w)
