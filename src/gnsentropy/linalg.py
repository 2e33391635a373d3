"""Dense complex linear-algebra helpers shared across the package.

All operators are plain ``numpy`` arrays of ``complex128``. Matrices pair
through the Hilbert-Schmidt inner product ``<X, Y> = trace(X^dag Y)``, so a
matrix flattened row-major is just a vector in C^(D*D) and span arithmetic
reduces to ordinary vector algebra.

Every rank, null-space and closure decision is :func:`above_cut`'s: a value
counts above ``max(rtol, size * eps)`` times its caller's scale (by default
``DEFAULT_RTOL`` times the largest eigenvalue, singular value or row norm)
and above an absolute floor, so roundoff is no rank even at ``rtol = 0``.
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

#: Absolute floor under the rank cut of squared values (its square root
#: under other values), so that identically-zero matrices classify as
#: all-null. Read by :func:`above_cut` alone.
NULL_FLOOR = 1e-24

#: A product or adjoint closure residual may exceed the rank cut by this
#: factor before a span counts as not closed. Read by :func:`above_cut` alone.
CLOSURE_SLACK = 1e3

#: How far a dimension or multiplicity reading may sit from an integer.
INTEGER_TOL = 1e-6

#: A state counts as pure when its restriction entropy falls below this.
PURITY_TOL = 1e-9

#: Numbers a batch of states on one span may stack at once, at n*D^2 per
#: state (n the span's dimension, D its ambient one): larger batches are
#: solved in consecutive chunks, of one state at least.
STACK_BUDGET = 1 << 14

# Allocate and free one untouched 16 MiB block at import. Freeing it raises
# glibc malloc's dynamic mmap threshold to 16 MiB and its heap trim
# threshold to twice that, so the megabyte or two of temporaries a solve
# allocates stay on the heap between solves instead of being handed back to
# the OS and faulted in again on the next one. The block stays under
# glibc's 32 MiB cap on that adaptation; being untouched, it adds no
# resident memory, and other C libraries are unaffected.
np.empty(1 << 20, dtype=complex)


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


def above_cut(values, scale, rtol: float, size: int, kind: str = "norm"):
    """Which ``values`` lie above the rank cut, as a mask of their shape (a
    value on the cut does not count); the cut itself when ``values`` is None.

    The cut is ``max(rtol, size * eps) * scale``, never below the roundoff
    of a factorization ``size`` wide (numpy's ``matrix_rank`` rule), and at
    least ``NULL_FLOOR`` on squares, its square root on other values.
    ``scale`` is the caller's, in the unit of the values, and broadcasts
    against them, as ``size`` does. ``kind`` names that unit: ``"norm"``
    (singular values, row norms, residuals), ``"square"`` (eigenvalues of a
    Gram or density matrix) or ``"residual"`` (closure and adjoint
    residuals, which may exceed the norm cut by ``CLOSURE_SLACK``).
    """
    cut = np.maximum(rtol, size * math.ulp(1.0)) * scale
    cut = np.maximum(CLOSURE_SLACK * cut if kind == "residual" else cut,
                     NULL_FLOOR if kind == "square" else math.sqrt(NULL_FLOOR))
    return cut if values is None else values > cut


def as_int(value, name: str) -> int:
    """An integer input; a bool, a float or any other type raises ValueError."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def orthonormalize_rows(
    rows, against: np.ndarray | None = None, rtol: float | None = None
) -> np.ndarray:
    """Block Gram-Schmidt over row vectors, every projection applied twice.

    The whole block is first projected off ``against`` (an orthonormal row
    block that is fixed but not returned) by two matmul passes. Then, in
    input order, the first remaining row is normalized and kept, and every
    later row is projected off it twice ("twice is enough": Giraud, Langou
    and Rozloznik, 2005). Rows whose residual falls to the cut (against the
    largest input norm, at the size of the input block) are dropped.
    """
    rtol = DEFAULT_RTOL if rtol is None else rtol
    rows = list(rows)
    width = np.size(rows[0]) if rows else (0 if against is None else against.shape[1])
    W = np.array(rows, dtype=complex).reshape(len(rows), width)
    top, size = np.linalg.norm(W, axis=1).max(initial=0.0), max(W.shape)
    if against is not None:
        for _ in range(2):
            W -= (W @ against.conj().T) @ against
    W = W[above_cut(np.linalg.norm(W, axis=1), top, rtol, size)]
    kept = []
    while W.shape[0]:
        q = W[0] / np.linalg.norm(W[0])
        kept.append(q)
        W = W[1:]
        for _ in range(2):
            W -= np.outer(W @ q.conj(), q)
        W = W[above_cut(np.linalg.norm(W, axis=1), top, rtol, size)]
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
    ``n_null`` eigenpairs fall at or below the cut against the largest.
    """
    rtol = DEFAULT_RTOL if rtol is None else rtol
    vals, vecs = np.linalg.eigh(hermitize(M))
    keep = above_cut(vals, vals.max(initial=0.0), rtol, vals.size, "square")
    return vals, vecs, vals.size - int(np.count_nonzero(keep))


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
    singular value lies above the cut against the largest. A wide A is
    factored through its tall transpose (Chan's R-SVD): the same singular
    values, and LAPACK's QR-first path."""
    wide = A.shape[-2] < A.shape[-1]
    u, s, vh = np.linalg.svd(dagger(A) if wide else A, full_matrices=False)
    vh = dagger(u) if wide else vh
    top = s.max(axis=-1, initial=0.0, keepdims=True)
    return vh, np.count_nonzero(above_cut(s, top, rtol, max(A.shape[-2:])), axis=-1)


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


def eig_clusters(vals: np.ndarray, tol: float) -> tuple[np.ndarray, ...]:
    """The clusters of each row of a stack of ascending real values (N, t),
    separated by gaps > tol, one entry per cluster in row order and then in
    ascending order: ``(row, start, size)``, its row, first column and size."""
    first = np.ones(vals.shape, dtype=bool)
    first[:, 1:] = vals[:, 1:] - vals[:, :-1] > tol
    # every row starts a cluster, so a cluster ends where the next one starts
    flat = first.ravel().nonzero()[0]
    row, start = np.divmod(flat, vals.shape[1])
    return row, start, np.concatenate((flat[1:], [first.size])) - flat


def integer_readings(values) -> tuple[np.ndarray, np.ndarray]:
    """Readings rounded to the nearest integer, as floats, and which of
    them lie within ``INTEGER_TOL`` of a positive integer (a non-finite
    reading does not): the rule of :func:`check_int`, as an array test."""
    values = np.asarray(values, dtype=float)
    rounded = np.rint(np.where(np.isfinite(values), values, 0.0))
    return rounded, (np.abs(values - rounded) <= INTEGER_TOL) & (rounded > 0)


def square_readings(values) -> tuple[np.ndarray, np.ndarray]:
    """The integer square roots of readings that :func:`integer_readings`
    rounds, and which of them round to the square of a positive integer:
    the rule of :func:`check_square`, as an array test."""
    rounded, whole = integer_readings(values)
    root = np.floor(np.sqrt(np.maximum(rounded, 0.0)))
    return root, whole & (root * root == rounded)


def check_int(value: float, what: str) -> int:
    """A reading rounded to a positive integer; DecompositionError if it is not one."""
    rounded, ok = integer_readings(value)
    if not ok:
        raise DecompositionError(f"{what} = {float(value)!r} is not a positive integer")
    return int(rounded)


def check_square(value: float, what: str) -> int:
    """The square root of a reading that :func:`check_int` rounds to a perfect square."""
    root, ok = square_readings(value)
    if not ok:
        check_int(value, what)
        raise DecompositionError(f"{what} = {float(value)!r} is not a perfect square")
    return int(root)
