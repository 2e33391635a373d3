"""Independent brute-force constructions used as oracles by the tests.

Nothing here calls into the library's decomposition machinery: null
spaces come from stacked dense SVDs, sector operators from explicit
tensor products on the wedge basis, and entropies from closed-form
weight lists.
"""

import itertools

import numpy as np


def _rank_of(s, rtol):
    """Count of singular values (descending) above the cut."""
    if s.size == 0 or s[0] == 0.0:
        return 0
    # absolute floor keeps roundoff-scale matrices from faking full rank
    return int(np.count_nonzero(s > max(rtol * s[0], 1e-13)))


def _rank(A, rtol=1e-10):
    return _rank_of(np.linalg.svd(A, compute_uv=False), rtol)


def commutant_dim(mats, rtol=1e-10):
    """dim{X : XR = RX for all R} from one stacked dense SVD."""
    mats = [np.asarray(m, dtype=complex) for m in mats]
    r = mats[0].shape[0]
    eye = np.eye(r)
    A = np.vstack([np.kron(eye, R.T) - np.kron(R, eye) for R in mats])
    return r * r - _rank(A, rtol)


def center_dim(basis, rtol=1e-10):
    """Dimension of the commuting subspace of a span, stacked-SVD route."""
    basis = np.asarray(basis, dtype=complex)
    n = basis.shape[0]
    cols = [
        np.concatenate([(basis[i] @ b - b @ basis[i]).ravel() for b in basis])
        for i in range(n)
    ]
    A = np.array(cols).T
    return n - _rank(A, rtol)


def corner_dim(z, basis, rtol=1e-10):
    """Dimension of the corner z A z of the span A of ``basis``: the rank of
    the stacked compressions z B_a z, from one dense SVD."""
    B = np.asarray(basis, dtype=complex)
    return _rank((z @ B @ z).reshape(len(B), -1), rtol)


def wedge_labels(d):
    return [(i, j) for i in range(d) for j in range(i + 1, d)]


def wedge_embedding(d):
    """Columns = unit two-fermion wedge vectors over lex labels, in C^d x C^d."""
    labels = wedge_labels(d)
    E = np.zeros((d * d, len(labels)), dtype=complex)
    for col, (i, j) in enumerate(labels):
        E[i * d + j, col] = 1.0 / np.sqrt(2.0)
        E[j * d + i, col] = -1.0 / np.sqrt(2.0)
    return E


def sector_embedding_by_permutations(d, k, statistics):
    """Sector basis as columns in (C^d)^(x k): each label's k! permuted
    words, signed by the permutation's parity for fermions, summed and
    normalized. The per-label loop that the one-pass symmetrizer replaced."""
    if statistics == "fermionic":
        labels = list(itertools.combinations(range(d), k))
    else:
        labels = list(itertools.combinations_with_replacement(range(d), k))
    E = np.zeros((d**k, len(labels)), dtype=complex)
    for col, label in enumerate(labels):
        for perm in itertools.permutations(range(k)):
            inversions = sum(perm[a] > perm[b] for a in range(k) for b in range(a + 1, k))
            sign = (-1) ** inversions if statistics == "fermionic" else 1
            E[np.ravel_multi_index([label[p] for p in perm], (d,) * k), col] += sign
    return E / np.linalg.norm(E, axis=0)


def coproduct_by_kron(A, ctx):
    """Sum over tensor slots of A, built as the full d^k x d^k Kronecker
    operator and compressed to the sector of ``ctx``."""
    d, k = ctx.single_particle_dim, ctx.particles
    total = np.zeros((d**k, d**k), dtype=complex)
    for slot in range(k):
        term = np.eye(1, dtype=complex)
        for j in range(k):
            term = np.kron(term, A if j == slot else np.eye(d))
        total += term
    E = ctx.embedding
    return E.conj().T @ total @ E


def group_power_by_kron(U, ctx):
    """k-fold Kronecker power of U, built in full and compressed to the
    sector of ``ctx``."""
    total = np.eye(1, dtype=complex)
    for _ in range(ctx.particles):
        total = np.kron(total, U)
    E = ctx.embedding
    return E.conj().T @ total @ E


def one_particle_on_pair(t, d):
    """t (x) 1 + 1 (x) t compressed to the two-fermion wedge sector."""
    E = wedge_embedding(d)
    eye = np.eye(d)
    full = np.kron(np.asarray(t, dtype=complex), eye) + np.kron(eye, np.asarray(t, dtype=complex))
    return E.conj().T @ full @ E


def pair_occupation(i, j, d):
    """Occupation of mode i times occupation of mode j, on the pair sector."""
    E = wedge_embedding(d)
    ni = np.zeros((d, d), dtype=complex)
    ni[i, i] = 1.0
    nj = np.zeros((d, d), dtype=complex)
    nj[j, j] = 1.0
    full = np.kron(ni, nj) + np.kron(nj, ni)
    return E.conj().T @ full @ E


def _unit(d, i, j):
    m = np.zeros((d, d), dtype=complex)
    m[i, j] = 1.0
    return m


def left_location_generators():
    """One-location observables for two fermions on four modes, built on
    the wedge basis directly (independent of any ladder-operator code)."""
    d = 4
    t1 = one_particle_on_pair(0.5 * (_unit(d, 0, 1) + _unit(d, 1, 0)), d)
    t2 = one_particle_on_pair(-0.5j * (_unit(d, 0, 1) - _unit(d, 1, 0)), d)
    t3 = one_particle_on_pair(0.5 * (_unit(d, 0, 0) - _unit(d, 1, 1)), d)
    n12 = pair_occupation(0, 1, d)
    na = one_particle_on_pair(_unit(d, 0, 0) + _unit(d, 1, 1), d)
    return [t1, t2, t3, n12, na]


def entropy_of(weights):
    w = np.asarray(weights, dtype=float)
    w = w[w > 0.0]
    return float(-(w * np.log(w)).sum()) if w.size else 0.0


def binary_weights(theta):
    return [np.cos(theta) ** 2, np.sin(theta) ** 2]


def boson_weights(theta, phi):
    return [
        (np.sin(theta) * np.cos(phi)) ** 2,
        (np.sin(theta) * np.sin(phi)) ** 2,
        np.cos(theta) ** 2,
    ]


def span_projector(basis):
    """Orthogonal projector onto a span of matrices, for span comparisons."""
    flat = np.asarray(basis, dtype=complex).reshape(len(basis), -1)
    q, _ = np.linalg.qr(flat.conj().T)
    return q @ q.conj().T


def random_frame(rng, D):
    """Random unitary from the QR of a complex Gaussian, phases fixed."""
    z = rng.standard_normal((D, D)) + 1j * rng.standard_normal((D, D))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_tensor_factor(rng, k, m):
    """A generator of ``U (M_k (x) 1_m) U^dag``, a pure state and its weights.

    Draws, in this order, the frame U, a complex Gaussian k x k matrix G
    and a Gaussian unit vector psi. Returns ``(U (G (x) 1_m) U^dag, psi,
    weights)``, where the weights are the squared singular values of
    ``U^dag psi`` reshaped to (k, m): the spectrum of psi restricted to the
    algebra, which a generic G generates.
    """
    D = k * m
    U = random_frame(rng, D)
    G = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
    psi = rng.standard_normal(D) + 1j * rng.standard_normal(D)
    psi /= np.linalg.norm(psi)
    gen = U @ np.kron(G, np.eye(m)) @ U.conj().T
    weights = np.linalg.svd((U.conj().T @ psi).reshape(k, m), compute_uv=False) ** 2
    return gen, psi, weights


def random_block_span(rng, D, max_rank=None):
    """A planted block *-algebra on C^D in a random orthonormal frame.

    Returns ``(basis, blocks)`` where ``blocks`` is the list of (rank,
    multiplicity) pairs whose sizes tile D. The basis consists of scaled
    matrix units of each block, so it is orthonormal, *-closed, closed
    under products, and contains the identity.
    """
    blocks = []
    remaining = D
    while remaining:
        size = int(rng.integers(1, remaining + 1))
        divisors = [k for k in range(1, size + 1) if size % k == 0]
        n = int(rng.choice(divisors))
        if max_rank is not None and n > max_rank:
            n = max_rank if size % max_rank == 0 else 1
        blocks.append((n, size // n))
        remaining -= size
    frame = random_frame(rng, D)
    basis = []
    offset = 0
    for n, m in blocks:
        for i in range(n):
            for j in range(n):
                mat = np.zeros((D, D), dtype=complex)
                for s in range(m):
                    mat[offset + i * m + s, offset + j * m + s] = 1.0 / np.sqrt(m)
                basis.append(frame @ mat @ frame.conj().T)
        offset += n * m
    return np.array(basis), blocks


def planted_block_weights(basis, blocks, state):
    """Spectrum of a state restricted to a planted block algebra.

    ``basis`` and ``blocks`` come from :func:`random_block_span`; ``state``
    is a unit vector or a density matrix on C^D. Block k owns n_k^2
    consecutive basis elements, its matrix units tensored with 1_(m_k) and
    scaled by 1/sqrt(m_k), so ``sqrt(m_k) omega(B_kij)`` is the transposed
    reduced density of block k and its eigenvalues are the block's weights.
    """
    state = np.asarray(state, dtype=complex)
    rho = np.outer(state, state.conj()) if state.ndim == 1 else state
    values = np.einsum("ij,aji->a", rho, np.asarray(basis, dtype=complex))
    weights = []
    offset = 0
    for n, m in blocks:
        W = np.sqrt(m) * values[offset:offset + n * n].reshape(n, n)
        weights.append(np.linalg.eigvalsh(W))
        offset += n * n
    return np.sort(np.concatenate(weights))[::-1]


def _row_range(rows, rtol=1e-10):
    """Orthonormal rows spanning the row space of a stack, from one SVD."""
    _, s, vh = np.linalg.svd(rows, full_matrices=False)
    return vh[: _rank_of(s, rtol)]


def naive_closure(generators, include_unit=True, rtol=1e-10):
    """Basis of the *-algebra generated by the matrices, by brute force.

    Starts from the generators, their adjoints and optionally the identity;
    each round stacks the current basis with all pairwise products of its
    elements and cuts the stack to its row space by one SVD, until the
    dimension stops growing.
    """
    gens = [np.asarray(g, dtype=complex) for g in generators]
    D = gens[0].shape[0]
    mats = gens + [g.conj().T for g in gens] + ([np.eye(D)] if include_unit else [])
    basis = _row_range(np.array(mats).reshape(len(mats), D * D), rtol)
    while True:
        B = basis.reshape(-1, D, D)
        prods = (B[:, None] @ B[None]).reshape(-1, D * D)
        grown = _row_range(np.vstack([basis, prods]), rtol)
        if grown.shape[0] == basis.shape[0]:
            return grown.reshape(-1, D, D)
        basis = grown


def structure_constants(basis):
    """``(coeff, residual)`` of a span basis from all n^2 products at once.

    ``B_a B_b = sum_c coeff[a,b,c] B_c`` up to ``residual``, the largest HS
    norm left unexpanded; the products are one einsum stack of n^2 D^2
    entries, expanded against the conjugate basis by one matmul.
    """
    B = np.asarray(basis, dtype=complex)
    n, D = B.shape[0], B.shape[1]
    flat = np.einsum("aij,bjk->abik", B, B).reshape(n * n, D * D)
    coeff = (flat @ B.conj().reshape(n, D * D).T).reshape(n, n, n)
    recon = np.tensordot(coeff, B.reshape(n, D * D), axes=(2, 0)).reshape(n * n, D * D)
    return coeff, float(np.linalg.norm(flat - recon, axis=1).max())


def center_basis(basis, rtol=1e-10):
    """Central elements of a span, from its commutators with every basis element.

    The n^2 commutators form one stack; the null space of their Gram
    matrix on coefficient space, cut at ``rtol`` times its largest
    eigenvalue by ``eigh``, gives the center's basis.
    """
    B = np.asarray(basis, dtype=complex)
    n, D = B.shape[0], B.shape[1]
    K = (np.matmul(B[:, None], B[None]) - np.matmul(B[None], B[:, None])).reshape(n, n * D * D)
    vals, vecs = np.linalg.eigh(K.conj() @ K.T)
    null = vals <= max(rtol * vals[-1], 1e-24)
    return np.tensordot(vecs[:, null].T, B, axes=(1, 0))


def hecke_generators(N, q):
    """Braid generators R_1 .. R_(N-1) of the Hecke algebra on (C^2)^(x)N.

    R = q on |00> and |11> and [[0, 1], [1, q - 1/q]] on {|01>, |10>}, so
    (R - q)(R + 1/q) = 0; R_i acts on sites i and i+1. For generic real q
    they generate the sum over two-row partitions lambda of N of
    M_(f_lambda) (x) 1_(lambda_1 - lambda_2 + 1) (Jimbo 1986).
    """
    R = np.zeros((4, 4), dtype=complex)
    R[0, 0] = R[3, 3] = q
    R[1, 2] = R[2, 1] = 1.0
    R[2, 2] = q - 1.0 / q
    return [np.kron(np.kron(np.eye(2 ** i), R), np.eye(2 ** (N - i - 2))) for i in range(N - 1)]
