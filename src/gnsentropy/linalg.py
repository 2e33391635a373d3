"""Dense complex linear-algebra helpers shared across the package.

All operators are plain ``numpy`` arrays of ``complex128``. Matrices pair
through the Hilbert-Schmidt inner product ``<X, Y> = trace(X^dag Y)``, so a
matrix flattened row-major is just a vector in C^(D*D) and span arithmetic
reduces to ordinary vector algebra.

Rank and null-space decisions use a relative threshold: ``DEFAULT_RTOL``
times the largest eigenvalue or singular value of the matrix being cut.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DecompositionError

#: Relative threshold for rank / null-space decisions.
DEFAULT_RTOL = 1e-10

#: Eigenvalues of a unit-HS-norm Hermitian element closer than this are
#: grouped into one cluster (absolute gap).
CLUSTER_TOL = 1e-8

#: Agreement tolerance between independently computed spectra.
ORACLE_TOL = 1e-8

#: Input state checks: norm or trace against 1, relative Hermitian defect.
INPUT_TOL = 1e-9

#: Largest HS defect ``|U^dag U - 1|`` of a unitary input, per sqrt of its
#: dimension.
UNITARY_TOL = 1e-8

#: How far below zero a Gram, density or block eigenvalue may dip.
PSD_TOL = 1e-9

#: Checks on computed results: weight sums, the spread of eigenvalue groups
#: that must be degenerate, the Hermitian defect of the density element.
RESULT_TOL = 1e-8

#: Absolute floor under the relative cut, so that identically-zero positive
#: semidefinite matrices (scale ~ roundoff) classify as all-null.
NULL_FLOOR = 1e-24

#: A product or adjoint closure residual may exceed the rank cut by this
#: factor before a span counts as not closed.
CLOSURE_SLACK = 1e3

#: How far a dimension or multiplicity reading may sit from an integer.
INTEGER_TOL = 1e-6

#: Numbers a batch of states on one span may stack at once, at n*D^2 per
#: state (n the span's dimension, D its ambient one): larger batches are
#: solved in consecutive chunks, of one state at least.
STACK_BUDGET = 1 << 14


def dagger(x: np.ndarray) -> np.ndarray:
    """Conjugate transpose, broadcasting over leading axes."""
    return x.conj().swapaxes(-1, -2)


def hermitize(x: np.ndarray) -> np.ndarray:
    return 0.5 * (x + dagger(x))


def hs_norm(x: np.ndarray) -> float:
    return float(np.linalg.norm(x))


def as_square(x, ambient_dim: int | None = None, name: str = "matrix") -> np.ndarray:
    """Validate and convert to a finite square complex matrix."""
    a = np.asarray(x, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be square, got shape {a.shape}")
    if ambient_dim is not None and a.shape[0] != ambient_dim:
        raise ValueError(
            f"{name} has dimension {a.shape[0]}, expected {ambient_dim}"
        )
    if not np.isfinite(a).all():
        raise ValueError(f"{name} has non-finite entries")
    return a


def orthonormalize_rows(
    rows, against: np.ndarray | None = None, rtol: float | None = None
) -> np.ndarray:
    """Block Gram-Schmidt over row vectors, every projection applied twice.

    The whole block is first projected off ``against`` (an orthonormal row
    block that is fixed but not returned) by two matmul passes. Then, in
    input order, the first remaining row is normalized and kept, and every
    later row is projected off it twice ("twice is enough": Giraud, Langou
    and Rozloznik, 2005). Rows whose residual falls to ``rtol`` times the
    largest input norm or below are dropped.
    """
    rtol = DEFAULT_RTOL if rtol is None else rtol
    rows = list(rows)
    width = np.size(rows[0]) if rows else (0 if against is None else against.shape[1])
    W = np.array(rows, dtype=complex).reshape(len(rows), width)
    # relative cut against the largest candidate, so roundoff-sized rows
    # never masquerade as new directions
    cut = rtol * np.linalg.norm(W, axis=1).max(initial=0.0)
    if against is not None:
        for _ in range(2):
            W -= (W @ against.conj().T) @ against
    W = W[np.linalg.norm(W, axis=1) > cut]
    kept = []
    while W.shape[0]:
        q = W[0] / np.linalg.norm(W[0])
        kept.append(q)
        W = W[1:]
        for _ in range(2):
            W -= np.outer(W @ q.conj(), q)
        W = W[np.linalg.norm(W, axis=1) > cut]
    return np.array(kept, dtype=complex).reshape(len(kept), width)


def hermitian_span_basis(mats: np.ndarray, rtol: float | None = None):
    """Orthonormal Hermitian matrices spanning the Hermitian parts of a stack,
    or of each stack in a batch (..., n, D, D).

    The 2n candidates ``(X + X^dag)/2`` and ``(X - X^dag)/2i`` span a real
    vector space, so they are cut as real vectors (real and imaginary parts
    side by side) by one SVD: exactly the right singular vectors whose
    singular value exceeds ``rtol`` times the largest are kept. For a
    *-closed span of complex dimension n that gives n matrices. Returns
    ``(herm, rank)``: the first ``rank`` matrices of ``herm`` are kept.
    """
    rtol = DEFAULT_RTOL if rtol is None else rtol
    mats = np.asarray(mats, dtype=complex)
    D = mats.shape[-1]
    adj = dagger(mats)
    cands = np.concatenate([0.5 * (mats + adj), -0.5j * (mats - adj)], axis=-3)
    cands = cands.reshape(cands.shape[:-2] + (D * D,))
    real, rank = row_basis(np.concatenate([cands.real, cands.imag], axis=-1), rtol)
    rows = real[..., : D * D] + 1j * real[..., D * D :]
    return hermitize(rows.reshape(rows.shape[:-1] + (D, D))), rank


def eigh_null_split(M: np.ndarray, rtol: float | None = None):
    """Eigendecompose a Hermitian PSD matrix and locate its null part.

    Returns ``(vals, vecs, n_null)`` with eigenvalues ascending; the first
    ``n_null`` eigenpairs fall at or below the relative cut.
    """
    rtol = DEFAULT_RTOL if rtol is None else rtol
    vals, vecs = np.linalg.eigh(hermitize(M))
    scale = max(float(vals[-1]), 0.0) if vals.size else 0.0
    cut = max(rtol * scale, NULL_FLOOR)
    n_null = int(np.count_nonzero(vals <= cut))
    return vals, vecs, n_null


def right_singular(A: np.ndarray, left: bool = False):
    """Singular values and all right singular vectors (rows of ``vh``) of A,
    or of each matrix in a stack A (..., rows, cols).

    A tall A takes the thin SVD, which already gives a square ``vh``, so no
    rows x rows left factor is ever formed. The values are descending and
    zero-padded to the column count; ``vh`` is square. Returns ``(s, vh)``,
    or ``(u, s, vh)`` with ``left=True``: ``u`` holds the min(rows, cols)
    left singular vectors as columns, paired with the leading rows of ``vh``.
    """
    u, s, vh = np.linalg.svd(A, full_matrices=A.shape[-2] < A.shape[-1])
    padded = np.zeros(A.shape[:-2] + A.shape[-1:])
    padded[..., : s.shape[-1]] = s
    return (u, padded, vh) if left else (padded, vh)


def row_basis(A: np.ndarray, rtol: float) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal rows spanning the numerical row space of A, or of each
    matrix in a stack A (..., rows, cols): returns ``(vh, rank)``, the right
    singular vectors and how many lead rows of ``vh`` to keep, those whose
    singular value exceeds ``rtol`` times the largest."""
    _, s, vh = np.linalg.svd(A, full_matrices=False)
    return vh, np.count_nonzero(s > rtol * s.max(axis=-1, initial=0.0, keepdims=True), axis=-1)


def chunks(n: int, item_size: int, budget: int) -> list[slice]:
    """Consecutive slices covering range(n), as many items each as fit in
    ``budget`` numbers at ``item_size`` numbers per item (at least one)."""
    step = max(1, budget // max(item_size, 1))
    return [slice(i, i + step) for i in range(0, n, step)]


def regroup(keys) -> list[tuple[object, np.ndarray]]:
    """``(key, positions)`` for each distinct key, in order of first
    appearance, ``None`` keys skipped: one stacked call per key. A rank cut
    on a stack counts per item, and regrouping by that count gives the next
    stacked call one shape."""
    groups: dict = {}
    for i, key in enumerate(keys.tolist() if isinstance(keys, np.ndarray) else keys):
        if key is not None:
            groups.setdefault(key, []).append(i)
    return [(key, np.array(pos)) for key, pos in groups.items()]


def stack(arrays: list) -> np.ndarray:
    """Same-shape arrays as one C-ordered stack; a batch of one is a view of
    its array when that is C-ordered already, and a copy otherwise."""
    return np.ascontiguousarray(arrays[0])[None] if len(arrays) == 1 else np.array(arrays)


def take(a: np.ndarray, sub: np.ndarray) -> np.ndarray:
    """``a[sub]`` for the sorted positions ``sub`` of a C-ordered stack, as
    ``a`` itself when ``sub`` holds every item: the same values and layout,
    with no copy."""
    return a if len(sub) == len(a) else a[sub]


def eig_clusters(vals: np.ndarray, tol: float) -> tuple[list[list[slice]], np.ndarray]:
    """Group each row of a stack of ascending real values (N, t) into
    clusters separated by gaps > tol: the slices of each row, and its
    smallest separating gap (inf when there is none)."""
    steps = np.diff(vals, axis=-1)
    apart = steps > tol
    cuts: list[list[int]] = [[0] for _ in apart]
    rows, cols = np.nonzero(apart)
    for row, col in zip(rows.tolist(), cols.tolist()):
        cuts[row].append(col + 1)
    clusters = [[slice(a, b) for a, b in zip(c, c[1:] + [vals.shape[-1]])] for c in cuts]
    return clusters, np.where(apart, steps, np.inf).min(axis=-1, initial=np.inf)


def check_int(value: float, what: str) -> int:
    """A reading rounded to a positive integer; DecompositionError if it is not one."""
    value = float(value)
    if not math.isfinite(value) or abs(value - round(value)) > INTEGER_TOL or round(value) <= 0:
        raise DecompositionError(f"{what} = {value!r} is not a positive integer")
    return round(value)


def check_square(value: float, what: str) -> int:
    """The square root of a reading that :func:`check_int` rounds to a perfect square."""
    root = math.isqrt(check_int(value, what))
    if root * root != round(value):
        raise DecompositionError(f"{what} = {float(value)!r} is not a perfect square")
    return root
