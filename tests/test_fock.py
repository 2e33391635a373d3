import itertools
import math
import tracemalloc

import numpy as np
import pytest

from gnsentropy import (
    EX5_BLOCKS,
    FockContext,
    car_ladders,
    coproduct_embed,
    example_generators,
    f_basis_embedding,
    group_embed,
    span_closure,
)

import bruteforce as bf


def herm_exp(H):
    """exp(iH) for Hermitian H via its eigendecomposition."""
    vals, vecs = np.linalg.eigh(H)
    return (vecs * np.exp(1j * vals)) @ vecs.conj().T


# ---------------------------------------------------------------------------
# ladder operators


@pytest.mark.parametrize("d", [1, 2, 3, 5, 8])
def test_anticommutation_relations(d):
    ladders = car_ladders(d)
    dim = ladders.dim
    eye = np.eye(dim)
    worst = 0.0
    for i in range(d):
        for j in range(d):
            a_i = ladders.annihilation[i].toarray()
            c_j = ladders.creation[j].toarray()
            a_j = ladders.annihilation[j].toarray()
            mixed = a_i @ c_j + c_j @ a_i - (eye if i == j else 0.0)
            same = a_i @ a_j + a_j @ a_i
            worst = max(worst, np.abs(mixed).max(), np.abs(same).max())
    assert worst < 1e-12


@pytest.mark.parametrize("d", [1, 3, 6, 8])
def test_number_operator_counts_occupation(d):
    ladders = car_ladders(d)
    num = ladders.number_operator().toarray()
    want = np.diag([float(bin(s).count("1")) for s in range(ladders.dim)])
    assert np.abs(num - want).max() < 1e-12


def test_single_mode_matrices():
    ladders = car_ladders(1)
    assert np.array_equal(ladders.creation[0].toarray(), [[0, 0], [1, 0]])
    assert np.array_equal(ladders.annihilation[0].toarray(), [[0, 1], [0, 0]])


def test_mode_count_bounds():
    for bad in (0, 13, -1, 2.5):
        with pytest.raises(ValueError):
            car_ladders(bad)


def test_increasing_creation_order_gives_plus_sign():
    ladders = car_ladders(4)
    vac = np.zeros(16)
    vac[0] = 1.0
    V = ladders.sector_isometry(2)
    labels = ladders.sector_labels(2)
    for col, (i, j) in enumerate(labels):
        built = ladders.creation[i] @ (ladders.creation[j] @ vac)
        assert np.abs(built - V[:, col]).max() < 1e-12


def test_two_particle_sector_dimensions():
    assert len(car_ladders(3).sector_labels(2)) == 3
    assert len(car_ladders(4).sector_labels(2)) == 6


# ---------------------------------------------------------------------------
# sector contexts and embeddings


def test_context_dimensions():
    assert FockContext(3, "fermionic", 2).dim == 3
    assert FockContext(4, "fermionic", 2).dim == 6
    assert FockContext(3, "bosonic", 2).dim == 6
    assert FockContext(5, "bosonic", 1).dim == 5


def test_context_validation():
    with pytest.raises(ValueError):
        FockContext(3, "anyonic", 2)
    with pytest.raises(ValueError):
        FockContext(3, "fermionic", 4)
    assert FockContext(3, "bosonic", 3).dim == 10
    # 2^16 tensor words exceed MAX_TENSOR_DIM
    with pytest.raises(ValueError, match="too large"):
        FockContext(2, "bosonic", 16)


@pytest.mark.parametrize("bad", [2.7, 2.0, True, np.bool_(True), "3", None])
def test_context_rejects_non_integer_inputs(bad):
    with pytest.raises(ValueError, match="single_particle_dim must be an integer"):
        FockContext(bad, "bosonic", 2)
    with pytest.raises(ValueError, match="particles must be an integer"):
        FockContext(3, "bosonic", bad)


def test_context_accepts_numpy_integers():
    ctx = FockContext(np.int64(3), "fermionic", np.int32(2))
    assert (ctx.single_particle_dim, ctx.particles, ctx.dim) == (3, 2, 3)


@pytest.mark.parametrize("d, k", [(1, 4), (2, 3), (2, 5), (3, 3), (3, 4), (4, 3)])
def test_n_boson_sectors_are_the_symmetric_tensors(d, k):
    ctx = FockContext(d, "bosonic", k)
    assert ctx.dim == math.comb(d + k - 1, k)
    E = ctx.embedding
    assert np.abs(E.conj().T @ E - np.eye(ctx.dim)).max() < 1e-12
    tensors = E.T.reshape((ctx.dim,) + (d,) * k)
    for a, b in itertools.combinations(range(1, k + 1), 2):
        assert np.array_equal(tensors, tensors.swapaxes(a, b))


@pytest.mark.parametrize("statistics, d, k", [
    ("fermionic", 3, 2), ("fermionic", 4, 3), ("fermionic", 5, 4),
    ("bosonic", 3, 1), ("bosonic", 4, 2), ("bosonic", 2, 4), ("bosonic", 3, 3),
])
def test_symmetrizer_matches_the_permutation_sum(statistics, d, k):
    got = FockContext(d, statistics, k).embedding
    want = bf.sector_embedding_by_permutations(d, k, statistics)
    assert np.abs(got - want).max() <= 4 * np.finfo(float).eps


def test_three_boson_coproduct_is_a_lie_homomorphism():
    ctx = FockContext(3, "bosonic", 3)
    rng = np.random.default_rng(12)
    A, B = (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)) for _ in range(2))
    eA, eB = coproduct_embed(A, ctx), coproduct_embed(B, ctx)
    assert np.abs(coproduct_embed(A @ B - B @ A, ctx) - (eA @ eB - eB @ eA)).max() < 1e-12


@pytest.mark.parametrize("statistics,d,k", [
    ("fermionic", 3, 2), ("fermionic", 4, 2), ("fermionic", 4, 3),
    ("bosonic", 3, 2), ("bosonic", 2, 2),
    ("bosonic", 2, 3), ("bosonic", 3, 3), ("bosonic", 2, 4),
])
def test_sector_basis_is_orthonormal(statistics, d, k):
    ctx = FockContext(d, statistics, k)
    E = ctx.embedding
    assert np.abs(E.conj().T @ E - np.eye(ctx.dim)).max() < 1e-12


def test_identity_embeds_to_particle_count():
    ctx = FockContext(3, "fermionic", 2)
    assert np.abs(coproduct_embed(np.eye(3), ctx) - 2 * np.eye(3)).max() < 1e-12


def test_mode_projector_embeds_to_diagonal_count():
    ctx = FockContext(3, "fermionic", 2)
    got = coproduct_embed(np.diag([1.0, 0.0, 0.0]), ctx)
    assert np.abs(got - np.diag([1.0, 1.0, 0.0])).max() < 1e-12
    oracle = bf.one_particle_on_pair(np.diag([1.0, 0.0, 0.0]), 3)
    assert np.abs(got - oracle).max() < 1e-12


@pytest.mark.parametrize("seed", range(4))
def test_embedding_preserves_commutators(seed):
    rng = np.random.default_rng(seed)
    ctx = FockContext(4, "fermionic", 2)
    A = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    B = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    lhs = coproduct_embed(A @ B - B @ A, ctx)
    ea, eb = coproduct_embed(A, ctx), coproduct_embed(B, ctx)
    assert np.abs(lhs - (ea @ eb - eb @ ea)).max() < 1e-10


@pytest.mark.parametrize("d,k", [(3, 2), (4, 2), (4, 3), (5, 2)])
def test_embedding_matches_quadratic_ladder_form(d, k):
    rng = np.random.default_rng(10 * d + k)
    A = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    ctx = FockContext(d, "fermionic", k)
    ladders = car_ladders(d)
    quad = sum(
        A[i, j] * (ladders.creation[i] @ ladders.annihilation[j])
        for i in range(d)
        for j in range(d)
    )
    V = ladders.sector_isometry(k)
    compressed = V.conj().T @ (quad @ V)
    assert np.abs(coproduct_embed(A, ctx) - compressed).max() < 1e-10


def test_group_embedding_of_identity():
    ctx = FockContext(3, "bosonic", 2)
    assert np.abs(group_embed(np.eye(3), ctx) - np.eye(6)).max() < 1e-12


@pytest.mark.parametrize("seed", range(3))
def test_group_embedding_is_multiplicative_and_unitary(seed):
    rng = np.random.default_rng(30 + seed)
    ctx = FockContext(3, "fermionic", 2)
    U = herm_exp(bf_random_hermitian(rng, 3))
    V = herm_exp(bf_random_hermitian(rng, 3))
    gu, gv, guv = group_embed(U, ctx), group_embed(V, ctx), group_embed(U @ V, ctx)
    assert np.abs(gu @ gv - guv).max() < 1e-10
    assert np.abs(gu.conj().T @ gu - np.eye(ctx.dim)).max() < 1e-10


def bf_random_hermitian(rng, d):
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return 0.5 * (z + z.conj().T)


@pytest.mark.parametrize("statistics,d,k", [("fermionic", 3, 2), ("fermionic", 4, 2), ("bosonic", 3, 2)])
def test_group_and_lie_embeddings_are_consistent(statistics, d, k):
    rng = np.random.default_rng(5 * d + k)
    H = bf_random_hermitian(rng, d)
    ctx = FockContext(d, statistics, k)
    lhs = group_embed(herm_exp(H), ctx)
    rhs = herm_exp(coproduct_embed(H, ctx))
    assert np.abs(lhs - rhs).max() < 1e-8


EMBED_CASES = [
    ("fermionic", 3, 2), ("fermionic", 4, 3), ("fermionic", 5, 4), ("fermionic", 6, 3),
    ("bosonic", 1, 3), ("bosonic", 2, 5), ("bosonic", 3, 3), ("bosonic", 4, 2),
]


@pytest.mark.parametrize("statistics,d,k", EMBED_CASES)
def test_slotwise_embeddings_match_the_kronecker_operator(statistics, d, k):
    rng = np.random.default_rng(100 * d + k)
    ctx = FockContext(d, statistics, k)
    A = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    assert np.abs(coproduct_embed(A, ctx) - bf.coproduct_by_kron(A, ctx)).max() < 1e-13
    U = herm_exp(bf_random_hermitian(rng, d))
    assert np.abs(group_embed(U, ctx) - bf.group_power_by_kron(U, ctx)).max() < 1e-13


def test_embeddings_form_no_tensor_power_operator():
    # the 2^10 x 2^10 Kronecker operator alone would take 16 MiB
    ctx = FockContext(2, "bosonic", 10)
    rng = np.random.default_rng(3)
    A = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    U = herm_exp(bf_random_hermitian(rng, 2))
    tracemalloc.start()
    try:
        got_a, got_u = coproduct_embed(A, ctx), group_embed(U, ctx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    assert np.abs(got_a - bf.coproduct_by_kron(A, ctx)).max() < 1e-13
    assert np.abs(got_u - bf.group_power_by_kron(U, ctx)).max() < 1e-13


def test_non_unitary_group_embedding_rejected():
    ctx = FockContext(3, "fermionic", 2)
    with pytest.raises(ValueError):
        group_embed(np.diag([1.0, 2.0, 1.0]), ctx)


def test_pair_sector_carries_the_conjugate_action():
    # on three modes the two-fermion sector of a determinant-one unitary
    # acts as the complex conjugate in the cyclic pair basis
    rng = np.random.default_rng(8)
    U = herm_exp(bf_random_hermitian(rng, 3))
    U = U / np.linalg.det(U) ** (1.0 / 3.0)
    F = f_basis_embedding()
    got = F.conj().T @ np.kron(U, U) @ F
    assert np.abs(got - U.conj()).max() < 1e-9


def test_f_basis_is_orthonormal_and_antisymmetric():
    F = f_basis_embedding()
    assert np.abs(F.conj().T @ F - np.eye(3)).max() < 1e-12
    swap = np.zeros((9, 9))
    for i in range(3):
        for j in range(3):
            swap[i * 3 + j, j * 3 + i] = 1.0
    assert np.abs(swap @ F + F).max() < 1e-12


# ---------------------------------------------------------------------------
# preset scenarios


def test_preset_span_dimensions(presets):
    dims = {name: span.dim for name, (span, _) in presets.items()}
    assert dims == {
        "ex1_m2": 4,
        "ex2_bell": 4,
        "ex3_choice1": 9,
        "ex3_choice2": 5,
        "ex4_left": 6,
        "ex5_bosons": 14,
    }
    for span, _ in presets.values():
        assert span.has_unit


def test_unknown_preset_rejected():
    with pytest.raises(ValueError):
        example_generators("ex9_unknown")


def test_family_rejects_unknown_parameters(presets):
    _, family = presets["ex3_choice2"]
    with pytest.raises(ValueError):
        family.state(gamma=1.0)


def test_qubit_family_parameter_range(presets):
    _, family = presets["ex1_m2"]
    with pytest.raises(ValueError):
        family.state(**{"lambda": 1.5})


def test_left_location_generators_match_tensor_construction():
    ladders = car_ladders(4)
    ad, a = ladders.creation, ladders.annihilation
    V = ladders.sector_isometry(2)
    built = [
        V.conj().T @ (op @ V)
        for op in (
            0.5 * (ad[0] @ a[1] + ad[1] @ a[0]),
            -0.5j * (ad[0] @ a[1] - ad[1] @ a[0]),
            0.5 * (ad[0] @ a[0] - ad[1] @ a[1]),
            ad[0] @ a[0] @ ad[1] @ a[1],
            ad[0] @ a[0] + ad[1] @ a[1],
        )
    ]
    oracle = bf.left_location_generators()
    for got, want in zip(built, oracle):
        assert np.abs(got - want).max() < 1e-12


def test_left_location_span_matches_tensor_span(presets):
    span, _ = presets["ex4_left"]
    oracle = span_closure(bf.left_location_generators(), include_unit=True)
    assert oracle.dim == span.dim == 6
    P1 = bf.span_projector(span.basis)
    P2 = bf.span_projector(oracle.basis)
    assert np.abs(P1 - P2).max() < 1e-9


def test_left_location_state_coordinates(presets):
    _, family = presets["ex4_left"]
    theta = 0.3
    psi = family.state(theta=theta).vector
    want = np.zeros(6)
    want[2] = np.cos(theta)
    want[3] = np.sin(theta)
    assert np.abs(psi - want).max() < 1e-12


def test_boson_blocks_commute_across_and_contain_double_occupation(presets):
    span, _ = presets["ex5_bosons"]
    mats = {}
    for block in EX5_BLOCKS:
        for u, v in itertools.product(block, repeat=2):
            m = np.zeros((6, 6), dtype=complex)
            m[u, v] = 1.0
            mats.setdefault(block, []).append(m)
    blocks = list(mats.values())
    for i, b1 in enumerate(blocks):
        for b2 in blocks[i + 1:]:
            for x in b1:
                for y in b2:
                    assert np.abs(x @ y - y @ x).max() == 0.0
    double = np.zeros((6, 6), dtype=complex)
    double[5, 5] = 1.0
    assert span.contains(double)


def test_boson_state_coordinates(presets):
    _, family = presets["ex5_bosons"]
    psi = family.state(theta=1.0, phi=0.5).vector
    assert abs(psi[1] - np.sin(1.0) * np.cos(0.5)) < 1e-12
    assert abs(psi[2] - np.sin(1.0) * np.sin(0.5)) < 1e-12
    assert abs(psi[5] - np.cos(1.0)) < 1e-12
    assert np.abs(psi[[0, 3, 4]]).max() == 0.0
