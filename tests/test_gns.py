import dataclasses
import inspect
import tracemalloc

import numpy as np
import pytest

from gnsentropy import (
    AlgebraState,
    DecompositionError,
    OperatorSpan,
    StateError,
    build_gns,
    center,
    commutant,
    full_matrix_algebra,
    gns_density,
    gram_matrix,
    isotypic_decompose,
    restriction_entropy,
    span_closure,
)
from gnsentropy import gns, linalg, star_algebra
from gnsentropy.fock import PAULI
from gnsentropy.gns import _commutant_and_center
from gnsentropy.linalg import DEFAULT_RTOL, NULL_FLOOR
from gnsentropy.star_algebra import minimal_projections

import bruteforce as bf


def unit(d, i, j):
    m = np.zeros((d, d), dtype=complex)
    m[i, j] = 1.0
    return m


# ---------------------------------------------------------------------------
# states


def test_vector_state_must_be_normalized():
    with pytest.raises(StateError):
        AlgebraState(vector=[1.0, 1.0])
    st = AlgebraState(vector=[1.0, 1.0], normalize=True)
    assert abs(np.linalg.norm(st.vector) - 1.0) < 1e-12


def test_density_state_must_be_hermitian_trace_one():
    with pytest.raises(StateError):
        AlgebraState(density=[[0.5, 1.0], [0.0, 0.5]])
    with pytest.raises(StateError):
        AlgebraState(density=np.eye(2))
    st = AlgebraState(density=np.eye(2), normalize=True)
    assert abs(st.value(np.eye(2)) - 1.0) < 1e-12


def test_negative_density_rejected_on_factorization():
    st = AlgebraState(density=np.diag([1.5, -0.5]).astype(complex))
    with pytest.raises(StateError):
        _ = st.factor


def test_exactly_one_backing_required():
    with pytest.raises(StateError):
        AlgebraState()
    with pytest.raises(StateError):
        AlgebraState(vector=[1, 0], density=np.eye(2))


def test_vector_and_density_backings_agree():
    rng = np.random.default_rng(5)
    psi = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    psi /= np.linalg.norm(psi)
    sv = AlgebraState(vector=psi)
    sd = AlgebraState(density=np.outer(psi, psi.conj()))
    X = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    assert abs(sv.value(X) - sd.value(X)) < 1e-12


# ---------------------------------------------------------------------------
# gram matrices


def test_singlet_gram_on_one_sided_paulis_is_identity():
    psi = np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2)
    basis = np.array([np.kron(s, np.eye(2)) for s in PAULI])
    G = gram_matrix(basis, AlgebraState(vector=psi))
    assert np.abs(G - np.eye(4)).max() < 1e-12


@pytest.mark.parametrize("lam", [0.0, 0.3, 0.5, 0.9, 1.0])
def test_qubit_family_gram_is_diagonal(lam):
    basis = np.array([unit(2, 0, 0), unit(2, 0, 1), unit(2, 1, 0), unit(2, 1, 1)])
    st = AlgebraState(density=np.diag([lam, 1 - lam]).astype(complex))
    G = gram_matrix(basis, st)
    want = np.diag([lam, 1 - lam, lam, 1 - lam])
    assert np.abs(G - want).max() < 1e-12


def test_gram_of_unit_alone_is_one():
    rng = np.random.default_rng(0)
    psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    st = AlgebraState(vector=psi, normalize=True)
    G = gram_matrix(np.array([np.eye(4)]), st)
    assert np.abs(G - np.array([[1.0]])).max() < 1e-12


def test_gram_dimension_mismatch_rejected():
    st = AlgebraState(vector=[1.0, 0.0])
    with pytest.raises(ValueError):
        gram_matrix(np.array([np.eye(3)]), st)


# ---------------------------------------------------------------------------
# quotient construction


def test_qubit_family_boundary_quotient(presets):
    span, family = presets["ex1_m2"]
    space = build_gns(span, family.state(**{"lambda": 0.0}))
    assert space.null_dim == 2
    assert space.gns_dim == 2
    # the null directions are the matrices annihilating the support,
    # spanned by coordinates 0 and 2 in the matrix-unit basis
    P = space.null_coords @ space.null_coords.conj().T
    assert np.abs(P - np.diag([1.0, 0, 1.0, 0])).max() < 1e-9


def test_qubit_family_interior_quotient(presets):
    span, family = presets["ex1_m2"]
    space = build_gns(span, family.state(**{"lambda": 0.5}))
    assert space.null_dim == 0
    assert space.gns_dim == 4


def test_left_location_null_space_at_boundary(presets):
    span, family = presets["ex4_left"]
    space = build_gns(span, family.state(theta=0.0))
    assert space.null_dim == 4
    assert space.gns_dim == 2


@pytest.mark.parametrize("theta", [0.2, 0.9, 1.4])
def test_pair_subalgebra_null_directions_are_theta_independent(presets, theta):
    # the two matrix units annihilating the state stay null for every angle;
    # in basis order (unit_00, unit_01, unit_10, unit_11, complement) those
    # are coordinates 1 and 3
    span, family = presets["ex3_choice2"]
    space = build_gns(span, family.state(theta=theta))
    assert space.null_dim == 2
    P = space.null_coords @ space.null_coords.conj().T
    assert np.abs(P - np.diag([0, 1.0, 0, 1.0, 0])).max() < 1e-9


def test_pair_subalgebra_quotient_collapses_at_right_angle(presets):
    span, family = presets["ex3_choice2"]
    space = build_gns(span, family.state(theta=np.pi / 2))
    assert space.gns_dim == 1
    # the surviving class is the complementary projection, the fifth
    # basis element produced by the closure
    assert abs(abs(space.quotient_coords[4, 0]) - 1.0) < 1e-9


def test_non_unital_span_rejected():
    from gnsentropy import OperatorSpan

    span = OperatorSpan(np.array([unit(2, 0, 1)]))
    with pytest.raises(ValueError):
        build_gns(span, AlgebraState(vector=[1.0, 0.0]))


def test_cyclic_vector_is_normalized(preset_cases):
    for _, span, state in preset_cases:
        space = build_gns(span, state)
        assert abs(np.linalg.norm(space.cyclic_vector) - 1.0) < 1e-9


def test_null_space_is_a_left_ideal(preset_cases):
    for _, span, state in preset_cases:
        space = build_gns(span, state)
        if space.null_dim == 0:
            continue
        coeff, _ = span.structure_constants()
        L = coeff.transpose(0, 2, 1)
        for a in range(span.dim):
            moved = L[a] @ space.null_coords
            for col in range(moved.shape[1]):
                assert space.quotient_norm(moved[:, col]) < 1e-9


def test_representation_is_a_star_homomorphism(preset_cases):
    for _, span, state in preset_cases:
        space = build_gns(span, state)
        rep = space.rep_matrices
        coeff, _ = span.structure_constants()
        S, _ = span.adjoint_coords()
        prod = np.einsum("aij,bjk->abik", rep, rep)
        expanded = np.tensordot(coeff, rep, axes=(2, 0))
        assert np.abs(prod - expanded).max() < 1e-9
        adj = rep.conj().swapaxes(-1, -2)
        mapped = np.tensordot(S, rep, axes=(1, 0))
        assert np.abs(adj - mapped).max() < 1e-9


def test_state_recovery_from_cyclic_vector(preset_cases):
    for _, span, state in preset_cases:
        space = build_gns(span, state)
        want = state.values(span.basis)
        got = space.state_values()
        assert np.abs(want - got).max() < 1e-9


def test_cyclic_basis_is_the_orthonormal_image_of_the_quotient_basis(preset_cases):
    for _, span, state in preset_cases:
        space = build_gns(span, state)
        E = space.cyclic_basis
        assert np.abs(E.conj().T @ E - np.eye(space.gns_dim)).max() < 1e-12
        # column j is vec(X_j L) for the quotient element X_j = sum_a Q[a, j] B_a
        V = (span.basis @ state.factor).reshape(span.dim, -1)
        assert np.abs(V.T @ space.quotient_coords - E).max() < 1e-9


def test_representation_equals_compressed_structure_constants(presets):
    # the same matrices as (Q^dag G) L_a Q from the all-at-once structure
    # constants, so the quotient basis and its phases are unchanged
    for name, grid in FAMILY_GRIDS.items():
        span, family = presets[name]
        coeff, _ = bf.structure_constants(span.basis)
        for params in grid:
            space = build_gns(span, family.state(params))
            Q, G = space.quotient_coords, space.gram
            want = (Q.conj().T @ G) @ coeff.transpose(0, 2, 1) @ Q
            assert np.abs(space.rep_matrices - want).max() <= 1e-12, (name, params)
            cyclic = Q.conj().T @ (G @ span.unit_coords)
            assert np.abs(space.cyclic_vector - cyclic).max() <= 1e-12, (name, params)


def test_gns_stages_stay_small_on_hecke_n5_with_a_full_rank_density():
    # D k = 1024 against n = 42: one n D k r stack of products would be 29 MB,
    # so the products are streamed within n D^2 + n^3 numbers
    span = span_closure(bf.hecke_generators(5, 1.7), include_unit=True)
    rng = np.random.default_rng(795)
    X = rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))
    state = AlgebraState(density=X @ X.conj().T, normalize=True)
    tracemalloc.start()
    try:
        iso = isotypic_decompose(build_gns(span, state))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert iso.commutant_dim == span.dim
    assert peak < 12e6


# ---------------------------------------------------------------------------
# isotypic decomposition


def test_singlet_restriction_has_one_doubled_component(presets):
    span, family = presets["ex2_bell"]
    space = build_gns(span, family.state())
    iso = isotypic_decompose(space, seed=0)
    assert len(iso.components) == 1
    comp = iso.components[0]
    assert (comp.irrep_dim, comp.multiplicity) == (2, 2)
    assert abs(comp.weight - 1.0) < 1e-9
    refined = np.sort(comp.refined_weights)
    assert np.abs(refined - 0.5).max() < 1e-9
    assert iso.commutant_dim == 4


@pytest.mark.parametrize("theta", [0.3, 0.7, 1.2])
def test_pair_subalgebra_interior_weights(presets, theta):
    span, family = presets["ex3_choice2"]
    space = build_gns(span, family.state(theta=theta))
    iso = isotypic_decompose(space, seed=0)
    table = sorted(
        ((c.irrep_dim, c.multiplicity, c.weight) for c in iso.components),
        reverse=True,
    )
    assert [(n, m) for n, m, _ in table] == [(2, 1), (1, 1)]
    assert abs(table[0][2] - np.cos(theta) ** 2) < 1e-9
    assert abs(table[1][2] - np.sin(theta) ** 2) < 1e-9
    assert iso.commutant_dim == 2


@pytest.mark.parametrize("lam", [0.2, 0.5, 0.85])
def test_qubit_family_refined_weights(presets, lam):
    span, family = presets["ex1_m2"]
    space = build_gns(span, family.state(**{"lambda": lam}))
    iso = isotypic_decompose(space, seed=0)
    assert len(iso.components) == 1
    assert iso.components[0].multiplicity == 2
    refined = np.sort(iso.components[0].refined_weights)
    assert np.abs(refined - np.sort([lam, 1 - lam])).max() < 1e-9


def test_pure_state_on_full_algebra_is_irreducible():
    rng = np.random.default_rng(2)
    psi = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    span = full_matrix_algebra(3)
    space = build_gns(span, AlgebraState(vector=psi, normalize=True))
    iso = isotypic_decompose(space, seed=0)
    assert iso.commutant_dim == 1
    assert len(iso.components) == 1
    comp = iso.components[0]
    assert (comp.irrep_dim, comp.multiplicity) == (3, 1)
    assert abs(comp.weight - 1.0) < 1e-9


def test_component_weights_sum_to_one(preset_cases):
    for _, span, state in preset_cases:
        space = build_gns(span, state)
        iso = isotypic_decompose(space, seed=3)
        assert abs(iso.weights.sum() - 1.0) < 1e-9
        for comp in iso.components:
            assert abs(comp.refined_weights.sum() - comp.weight) < 1e-8
            comm = comp.projection @ space.rep_matrices - space.rep_matrices @ comp.projection
            assert np.abs(comm).max() < 1e-9


def test_isotypic_is_deterministic_for_fixed_seed(presets):
    span, family = presets["ex4_left"]
    space = build_gns(span, family.state(theta=0.5))
    a = isotypic_decompose(space, seed=11)
    b = isotypic_decompose(space, seed=11)
    assert np.array_equal(a.flattened_weights(), b.flattened_weights())


@pytest.mark.parametrize("name, params", [
    ("ex4_left", {"theta": 0.5}), ("ex5_bosons", {"theta": 1.0, "phi": 0.8}),
    ("ex1_m2", {"lambda": 0.3}),
])
def test_isotypic_components_do_not_depend_on_seed(presets, name, params):
    span, family = presets[name]
    space = build_gns(span, family.state(params))
    a = isotypic_decompose(space, seed=0)
    b = isotypic_decompose(space, seed=12345)
    assert len(a.components) == len(b.components)
    for ca, cb in zip(a.components, b.components):
        assert np.array_equal(ca.projection, cb.projection)
        assert (ca.irrep_dim, ca.multiplicity, ca.weight) == (cb.irrep_dim, cb.multiplicity, cb.weight)
        assert np.array_equal(ca.refined_weights, cb.refined_weights)


# ---------------------------------------------------------------------------
# spectra


def test_singlet_spectrum_is_half_half(presets):
    span, family = presets["ex2_bell"]
    space = build_gns(span, family.state())
    spec = gns_density(isotypic_decompose(space, seed=0))
    assert np.abs(np.sort(spec.weights) - 0.5).max() < 1e-9


def test_left_location_spectrum_at_diagonal_angle(presets):
    span, family = presets["ex4_left"]
    space = build_gns(span, family.state(theta=np.pi / 4))
    spec = gns_density(isotypic_decompose(space, seed=0))
    assert spec.weights.size == 2
    assert np.abs(spec.weights - 0.5).max() < 1e-9


def test_pure_spectrum_is_singleton(presets):
    span, family = presets["ex3_choice1"]
    space = build_gns(span, family.state(theta=0.4))
    spec = gns_density(isotypic_decompose(space, seed=0))
    assert spec.weights.size == 1
    assert abs(spec.weights[0] - 1.0) < 1e-9


def test_purity_iff_trivial_commutant(presets):
    cases = [
        ("ex1_m2", {"lambda": 0.0}, True),
        ("ex1_m2", {"lambda": 0.4}, False),
        ("ex2_bell", {}, False),
        ("ex3_choice1", {"theta": 0.8}, True),
        ("ex3_choice2", {"theta": 0.0}, True),
        ("ex3_choice2", {"theta": 0.9}, False),
        ("ex4_left", {"theta": np.pi / 2}, True),
        ("ex4_left", {"theta": 0.4}, False),
        ("ex5_bosons", {"theta": 0.0, "phi": 0.0}, True),
        ("ex5_bosons", {"theta": 1.0, "phi": 0.8}, False),
    ]
    for name, params, want_pure in cases:
        span, family = presets[name]
        space = build_gns(span, family.state(params))
        iso = isotypic_decompose(space, seed=0)
        entropy = -sum(
            w * np.log(w) for w in gns_density(iso).weights if w > 0
        )
        assert (entropy < 1e-9) == want_pure
        assert (commutant(list(space.rep_matrices)).dim == 1) == want_pure


# ---------------------------------------------------------------------------
# commutant from the GNS triple, against the Kronecker oracle


def assert_commutant_matches_oracle(space):
    # the GNS triple fixes the commutant: no span, state or ambient basis
    triple = dataclasses.replace(space, span=None, state=None, cyclic_basis=None)
    (got,), _ = _commutant_and_center([triple], space.rtol)
    want = commutant(list(space.rep_matrices))
    assert got.dim == want.dim
    gap = np.linalg.norm(bf.span_projector(got.basis) - bf.span_projector(want.basis), 2)
    assert gap <= 1e-10
    reps = space.rep_matrices[None]
    C = got.basis[:, None]
    assert np.abs(C @ reps - reps @ C).max() < 1e-9
    # one element per allowed u, orthonormal: the u annihilated by the null
    # classes, cut as the stage cuts them
    r, flat = space.gns_dim, got.basis.reshape(got.dim, -1)
    assert np.abs(flat @ flat.conj().T - np.eye(got.dim)).max() <= 1e-12
    pi_null = np.einsum("av,aij->vij", space.null_coords, space.rep_matrices).reshape(-1, r)
    _, s, vh = np.linalg.svd(pi_null, full_matrices=True)
    s_max = max(s.max(initial=0.0), 1.0)
    cut = np.count_nonzero(s**2 > max((space.rtol * s_max) ** 2, NULL_FLOOR))
    assert got.dim == r - cut
    # T_u e_j = pi(X_j) u on the quotient basis, and T_u xi = u
    u = vh[cut:].conj()
    T = np.einsum("aj,aik,uk->uij", space.quotient_coords, space.rep_matrices, u)
    assert np.abs(T @ space.cyclic_vector - u).max(initial=0.0) <= 1e-12
    T = T.reshape(len(u), -1)
    assert np.linalg.norm(T - (T @ flat.conj().T) @ flat, 2) <= 1e-12 * max(1.0, np.abs(T).max())


FAMILY_GRIDS = {
    "ex1_m2": [{"lambda": lam} for lam in np.linspace(0.0, 1.0, 50)],
    "ex2_bell": [{}],
    "ex3_choice1": [{"theta": th} for th in np.linspace(0.0, np.pi / 2, 50)],
    "ex3_choice2": [{"theta": th} for th in np.linspace(0.0, np.pi / 2, 50)],
    "ex4_left": [{"theta": th} for th in np.linspace(0.0, np.pi / 2, 50)],
    "ex5_bosons": [
        {"theta": th, "phi": ph}
        for th in np.linspace(0.0, np.pi, 7)
        for ph in np.linspace(0.0, 2 * np.pi, 7)
    ],
}


@pytest.mark.parametrize("name", sorted(FAMILY_GRIDS))
def test_quotient_commutant_matches_oracle_across_preset_families(presets, name):
    span, family = presets[name]
    for params in FAMILY_GRIDS[name]:
        assert_commutant_matches_oracle(build_gns(span, family.state(params)))


@pytest.mark.parametrize("D", [2, 3, 4, 5])
def test_quotient_commutant_of_faithful_state_is_right_regular(D):
    rng = np.random.default_rng(610 + D)
    X = rng.standard_normal((D, D)) + 1j * rng.standard_normal((D, D))
    rho = X @ X.conj().T
    space = build_gns(full_matrix_algebra(D), AlgebraState(density=rho, normalize=True))
    assert space.null_dim == 0
    assert_commutant_matches_oracle(space)
    assert _commutant_and_center([space], space.rtol)[0][0].dim == D * D


@pytest.mark.parametrize("k, m, rng_seed", [(3, 3, 103), (4, 6, 101), (2, 5, 620), (4, 2, 621)])
def test_quotient_commutant_matches_oracle_on_tensor_frames(k, m, rng_seed):
    gen, psi, _ = bf.random_tensor_factor(np.random.default_rng(rng_seed), k, m)
    span = span_closure([gen], include_unit=True)
    assert_commutant_matches_oracle(build_gns(span, AlgebraState(vector=psi)))


def test_quotient_commutant_matches_oracle_on_hecke_n4_with_a_full_rank_density():
    span = span_closure(bf.hecke_generators(4, 1.7), include_unit=True)
    rng = np.random.default_rng(796)
    X = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    space = build_gns(span, AlgebraState(density=X @ X.conj().T, normalize=True))
    assert space.null_dim == 0
    assert_commutant_matches_oracle(space)


def test_quotient_commutant_matches_oracle_on_ten_decades_of_weights(presets):
    span, family = presets["ex4_left"]
    space = build_gns(span, family.state({"theta": float(np.arcsin(np.sqrt(1.6e-10)))}))
    assert_commutant_matches_oracle(space)


@pytest.mark.parametrize("D", [6, 8, 12])
def test_quotient_commutant_matches_oracle_on_a_graded_spectrum(D):
    # the first twelve-decade density of test_entropy's graded-spectrum cases
    rng = np.random.default_rng(900 + 100 * 12 + 10 * D)
    basis, _ = bf.random_block_span(rng, D, max_rank=4)
    U = bf.random_frame(rng, D)
    rho = U @ np.diag(np.logspace(0, -12, D)) @ U.conj().T
    assert_commutant_matches_oracle(build_gns(OperatorSpan(basis), AlgebraState(density=rho, normalize=True)))


def test_isotypic_weights_do_not_depend_on_the_quotient_basis_order(presets):
    # sin^2 theta = 1.6e-10: the weights span ten decades, and a commutant
    # whose roundoff follows the quotient basis order misplaces the small one
    span, family = presets["ex4_left"]
    s2 = 1.6e-10
    space = build_gns(span, family.state({"theta": float(np.arcsin(np.sqrt(s2)))}))
    flipped = dataclasses.replace(
        space,
        quotient_coords=space.quotient_coords[:, ::-1],
        cyclic_basis=space.cyclic_basis[:, ::-1],
        rep_matrices=space.rep_matrices[:, ::-1, ::-1],
        cyclic_vector=space.cyclic_vector[::-1],
    )
    for sp in (space, flipped):
        weights = isotypic_decompose(sp).flattened_weights()
        assert abs(weights.min() - s2) <= 1e-14
        assert abs(weights.sum() - 1.0) <= 1e-14


# ---------------------------------------------------------------------------
# center of the commutant as the kernel of Psi, against the commutator route


def assert_gns_center_matches_oracle(space):
    # the triple alone: rep_matrices, null_coords and quotient_coords
    blank = dataclasses.replace(space, span=None, state=None, cyclic_basis=None,
                                cyclic_vector=None, gram=None)
    (C,), (got,) = _commutant_and_center([blank], space.rtol)
    want = center(C)  # C comes from a bare basis: commutators with all of it
    assert got.dim == want.dim
    # for orthonormal bases of equal dimension the projector gap is the
    # spectral norm of what the second projector leaves of the first basis
    G, W = got.basis.reshape(got.dim, -1), want.basis.reshape(want.dim, -1)
    assert np.linalg.norm(G - (G @ W.conj().T) @ W, 2) <= 1e-10


@pytest.mark.parametrize("name", sorted(FAMILY_GRIDS))
def test_gns_center_matches_commutator_center_across_preset_families(presets, name):
    span, family = presets[name]
    for params in FAMILY_GRIDS[name]:
        assert_gns_center_matches_oracle(build_gns(span, family.state(params)))


@pytest.mark.parametrize("D", [2, 3, 4, 5, 6])
def test_gns_center_of_faithful_full_matrix_algebra_is_scalars(D):
    rng = np.random.default_rng(750 + D)
    X = rng.standard_normal((D, D)) + 1j * rng.standard_normal((D, D))
    space = build_gns(full_matrix_algebra(D), AlgebraState(density=X @ X.conj().T, normalize=True))
    assert_gns_center_matches_oracle(space)
    assert _commutant_and_center([space], space.rtol)[1][0].dim == 1


@pytest.mark.parametrize("rank", [1, 2, "full"])
def test_gns_center_matches_commutator_center_on_planted_blocks(rank):
    for s in range(6):
        rng = np.random.default_rng(760 + s)
        D = int(rng.integers(4, 11))
        basis, _ = bf.random_block_span(rng, D, max_rank=4)
        k = D if rank == "full" else rank
        X = rng.standard_normal((D, k)) + 1j * rng.standard_normal((D, k))
        state = AlgebraState(vector=X[:, 0], normalize=True) if k == 1 else \
            AlgebraState(density=X @ X.conj().T, normalize=True)
        assert_gns_center_matches_oracle(build_gns(OperatorSpan(basis), state))


@pytest.mark.parametrize("decades", [4, 8, 12])
def test_gns_center_matches_commutator_center_on_graded_spectra(decades):
    # the densities of test_entropy's graded-spectrum cases, first 4 seeds
    for D in (6, 8, 12):
        for s in range(4):
            rng = np.random.default_rng(900 + 100 * decades + 10 * D + s)
            basis, _ = bf.random_block_span(rng, D, max_rank=4)
            U = bf.random_frame(rng, D)
            rho = U @ np.diag(np.logspace(0, -decades, D)) @ U.conj().T
            space = build_gns(OperatorSpan(basis), AlgebraState(density=rho, normalize=True))
            assert_gns_center_matches_oracle(space)


def psi_overlaps(space, C):
    """<C_k, Psi(C_l)> over the commutant's orthonormal basis, numpy only:
    Psi(T) = (1 - P)(T - pi(X_u)) with u = T xi, X_u the element of class u
    (u_j X_j over the quotient basis) and P the projector onto the span of
    the pi(X_nu) of the null classes."""
    r = space.gns_dim
    pi_x = np.einsum("aj,aik->jik", space.quotient_coords, space.rep_matrices).reshape(r, -1)
    pi_null = np.einsum("av,aik->vik", space.null_coords, space.rep_matrices).reshape(-1, r * r)
    _, s, vh = np.linalg.svd(pi_null, full_matrices=False)
    # |pi(X_nu)|_HS <= sqrt(r) for a unit coefficient vector: roundoff lies below rtol
    N = vh[s > space.rtol * max(1.0, s.max(initial=0.0))]
    B = C.basis.reshape(C.dim, -1)
    psi = B - (C.basis @ space.cyclic_vector) @ pi_x
    psi -= (psi @ N.conj().T) @ N
    return B.conj() @ psi.T


def assert_psi_splits_the_commutant(space):
    """The Psi overlaps vanish on the center and have every other singular
    value at least 1."""
    (C,), (Z,) = _commutant_and_center([space], space.rtol)
    s = np.linalg.svd(psi_overlaps(space, C), compute_uv=False)
    assert np.count_nonzero(s <= 1e-8) == Z.dim >= 1
    assert s[: C.dim - Z.dim].min(initial=np.inf) >= 1.0 - 1e-10


@pytest.mark.parametrize("name", sorted(FAMILY_GRIDS))
def test_psi_vanishes_on_the_center_alone_across_preset_families(presets, name):
    span, family = presets[name]
    for params in FAMILY_GRIDS[name]:
        assert_psi_splits_the_commutant(build_gns(span, family.state(params)))


@pytest.mark.parametrize("decades", [4, 8, 12])
def test_psi_vanishes_on_the_center_alone_on_graded_spectra(decades):
    for D in (6, 8, 12):
        for s in range(4):
            rng = np.random.default_rng(900 + 100 * decades + 10 * D + s)
            basis, _ = bf.random_block_span(rng, D, max_rank=4)
            U = bf.random_frame(rng, D)
            rho = U @ np.diag(np.logspace(0, -decades, D)) @ U.conj().T
            assert_psi_splits_the_commutant(
                build_gns(OperatorSpan(basis), AlgebraState(density=rho, normalize=True)))


def test_psi_vanishes_on_the_center_alone_on_hecke_n4_with_a_full_rank_density():
    assert_psi_splits_the_commutant(_corner_oracle_space("hecke-n4"))


@pytest.mark.parametrize("case", ["faithful-m5", "frame-4x6"])
def test_the_commutant_qr_is_the_only_factorization_with_r_squared_rows(monkeypatch, case):
    # the input shapes of every np.linalg.svd and qr call that gns makes,
    # directly or through a linalg helper
    seen = {"svd": [], "qr": []}
    for name in seen:
        def wrapped(a, *args, _name=name, _plain=getattr(np.linalg, name), **kwargs):
            frame = inspect.currentframe().f_back
            while frame.f_code.co_filename == linalg.__file__:
                frame = frame.f_back
            if frame.f_code.co_filename == gns.__file__:
                seen[_name].append(np.shape(a))
            return _plain(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, wrapped)
    if case == "faithful-m5":
        rng = np.random.default_rng(5)
        X = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        span, state = full_matrix_algebra(5), AlgebraState(density=X @ X.conj().T, normalize=True)
    else:
        gen, psi, _ = bf.random_tensor_factor(np.random.default_rng(101), 4, 6)
        span, state = span_closure([gen], include_unit=True), AlgebraState(vector=psi)
    rep = restriction_entropy(span, state, method="both")
    assert rep.methods_agree
    r2 = rep.gns_dim**2
    assert [shape[-2] for shape in seen["qr"]].count(r2) == 1
    assert not [shape for shape in seen["svd"] if r2 in shape[-2:]]


# The inputs on which a Gram-Schmidt Hermitian basis kept one roundoff
# direction too many (10 for dim 9, 17 for dim 16), so no random element
# of the commutant split its multiplicity clusters.
HERMITIAN_REPROS = [(3, 3, 3), (4, 6, 1), (4, 6, 8), (4, 6, 19)]


@pytest.mark.parametrize("k, m, s", HERMITIAN_REPROS)
def test_hermitian_basis_count_equals_span_dim(k, m, s):
    gen, psi, _ = bf.random_tensor_factor(np.random.default_rng(100 + s), k, m)
    space = build_gns(span_closure([gen], include_unit=True), AlgebraState(vector=psi))
    C = commutant(list(space.rep_matrices))
    assert C.dim == k * k
    herm = C.hermitian_basis()
    assert len(herm) == C.dim
    assert np.abs(herm - herm.conj().swapaxes(-1, -2)).max() < 1e-12
    flat = herm.reshape(len(herm), -1)
    assert np.abs(flat.conj() @ flat.T - np.eye(len(herm))).max() < 1e-12


@pytest.mark.parametrize("k, m, s", HERMITIAN_REPROS)
def test_hermitian_basis_repros_pass_both_routes(k, m, s):
    gen, psi, weights = bf.random_tensor_factor(np.random.default_rng(100 + s), k, m)
    span = span_closure([gen], include_unit=True)
    rep = restriction_entropy(span, AlgebraState(vector=psi), method="both", seed=s)
    assert rep.methods_agree
    assert np.abs(np.sort(rep.spectrum) - np.sort(weights)).max() < 1e-8


def test_multiplicities_above_one_give_their_schmidt_weights():
    rho = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
    rep = restriction_entropy(full_matrix_algebra(4), AlgebraState(density=rho), method="gns")
    assert rep.components == ((4, 4, pytest.approx(1.0)),)
    gen, psi, weights = bf.random_tensor_factor(np.random.default_rng(3), 3, 2)
    rep = restriction_entropy(span_closure([gen], include_unit=True), AlgebraState(vector=psi),
                              method="gns")
    assert rep.components[0][1] == 2
    assert np.abs(np.sort(rep.spectrum) - np.sort(weights)).max() < 1e-8


def assert_corner_traces_match_oracle(space):
    """Each commutant corner dimension read off a trace rounds to the rank
    of the corner P C P cut by SVD and sits within 1e-12 of it."""
    (C,), centers = _commutant_and_center([space], space.rtol)
    (ranges,) = minimal_projections(centers)
    got = C.corner_dims(ranges)
    want = np.array([bf.corner_dim(V @ V.conj().T, C.basis) for V in ranges])
    assert np.array_equal(np.round(got), want)
    assert np.abs(got - want).max() <= 1e-12


@pytest.mark.parametrize("name", sorted(FAMILY_GRIDS))
def test_commutant_corner_traces_match_the_svd_oracle_across_preset_families(presets, name):
    span, family = presets[name]
    for params in FAMILY_GRIDS[name]:
        assert_corner_traces_match_oracle(build_gns(span, family.state(params)))


def _corner_oracle_space(case):
    if case == "faithful-m4":
        rho = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
        return build_gns(full_matrix_algebra(4), AlgebraState(density=rho))
    if case == "hecke-n4":
        span = span_closure(bf.hecke_generators(4, 1.7), include_unit=True)
        rng = np.random.default_rng(796)
        X = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        return build_gns(span, AlgebraState(density=X @ X.conj().T, normalize=True))
    k, m, rng_seed = {"frame-3x2": (3, 2, 3), "frame-4x6": (4, 6, 101)}[case]
    gen, psi, _ = bf.random_tensor_factor(np.random.default_rng(rng_seed), k, m)
    return build_gns(span_closure([gen], include_unit=True), AlgebraState(vector=psi))


@pytest.mark.parametrize("case", ["faithful-m4", "frame-3x2", "frame-4x6", "hecke-n4"])
def test_commutant_corner_traces_match_the_svd_oracle(case):
    assert_corner_traces_match_oracle(_corner_oracle_space(case))


@pytest.mark.parametrize("decades", [4, 8, 12])
def test_commutant_corner_traces_match_the_svd_oracle_on_graded_spectra(decades):
    # the densities of test_entropy's graded-spectrum cases
    for D in (6, 8, 12):
        for s in range(20):
            rng = np.random.default_rng(900 + 100 * decades + 10 * D + s)
            basis, _ = bf.random_block_span(rng, D, max_rank=4)
            U = bf.random_frame(rng, D)
            rho = U @ np.diag(np.logspace(0, -decades, D)) @ U.conj().T
            space = build_gns(OperatorSpan(basis), AlgebraState(density=rho, normalize=True))
            assert_corner_traces_match_oracle(space)


def test_non_central_projections_fail_the_multiplicity_reading(non_central_projections):
    # the commutant of M_2 under a faithful state is 1_2 (x) M_2, so
    # K_C = 1 and the corner reading at diag(0, 1, 1, 1) is its trace, 3
    space = build_gns(full_matrix_algebra(2), AlgebraState(density=np.diag([0.7, 0.3])))
    with pytest.raises(DecompositionError,
                       match=r"commutant corner dimension = (3\.0|2\.99)\d* is not a perfect square"):
        isotypic_decompose(space)


def test_a_non_finite_component_trace_is_a_decomposition_error(monkeypatch):
    monkeypatch.setattr(star_algebra, "minimal_projections",
                        lambda Zs, cluster_tol=None: [[np.full((4, 4), np.nan)] for _ in Zs])
    space = build_gns(full_matrix_algebra(2), AlgebraState(density=np.diag([0.7, 0.3])))
    with pytest.raises(DecompositionError,
                       match="commutant corner dimension = nan is not a positive integer"):
        isotypic_decompose(space)


def test_a_batch_checks_its_span_closed_once(monkeypatch):
    calls = []
    check = gns.check_algebra
    monkeypatch.setattr(gns, "check_algebra", lambda *a: calls.append(a) or check(*a))
    rng = np.random.default_rng(11)
    X = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    states = [AlgebraState(vector=[1.0, 0.0, 0.0]),
              AlgebraState(density=X @ X.conj().T, normalize=True)]
    spaces = gns._build_gns(full_matrix_algebra(3), states, DEFAULT_RTOL)
    assert [sp.gns_dim for sp in spaces] == [3, 9]
    assert len(calls) == 1
