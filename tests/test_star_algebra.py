import ast
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from gnsentropy import (
    PRESET_NAMES,
    AlgebraError,
    AlgebraState,
    ClosureError,
    OperatorSpan,
    StateError,
    build_gns,
    center,
    commutant,
    density_element,
    full_matrix_algebra,
    restriction_entropy,
    span_closure,
    wedderburn,
)
from gnsentropy import DecompositionError, star_algebra
from gnsentropy.fock import EX5_BLOCKS, PAULI, example_generators
from gnsentropy.linalg import CLOSURE_SLACK, CLUSTER_TOL, orthonormalize_rows
from gnsentropy.star_algebra import minimal_projections

import bruteforce as bf


def unit(d, i, j):
    m = np.zeros((d, d), dtype=complex)
    m[i, j] = 1.0
    return m


# ---------------------------------------------------------------------------
# span_closure


def test_pair_subalgebra_closes_to_dimension_five():
    gens = [unit(3, i, j) for i in range(2) for j in range(2)]
    span = span_closure(gens, include_unit=True)
    assert span.dim == 5
    assert span.has_unit


def test_unit_alone_spans_scalars():
    span = span_closure([], include_unit=True, ambient_dim=2)
    assert span.dim == 1
    assert np.allclose(span.basis[0], np.eye(2) / np.sqrt(2))


def test_all_matrix_units_close_to_full_algebra():
    gens = [unit(2, i, j) for i in range(2) for j in range(2)]
    assert span_closure(gens).dim == 4


def test_mismatched_generator_dimensions_rejected():
    with pytest.raises(ValueError):
        span_closure([np.eye(2), np.eye(3)])


def test_empty_non_unital_span_rejected():
    with pytest.raises(ValueError):
        span_closure([], ambient_dim=3)


def test_closure_is_deterministic():
    rng = np.random.default_rng(11)
    gens = [rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))]
    a = span_closure(gens, include_unit=True)
    b = span_closure([g.copy() for g in gens], include_unit=True)
    assert np.array_equal(a.basis, b.basis)


@pytest.mark.parametrize("seed", range(6))
def test_closure_invariants_for_random_generators(seed):
    rng = np.random.default_rng(seed)
    D = int(rng.integers(2, 5))
    k = int(rng.integers(1, 3))
    gens = [rng.standard_normal((D, D)) + 1j * rng.standard_normal((D, D)) for _ in range(k)]
    span = span_closure(gens, include_unit=True)
    checks = span.validate()
    assert checks["gram"] < 1e-10
    assert checks["product_closure"] < 1e-10
    assert checks["adjoint_closure"] < 1e-10
    assert checks["unit"] < 1e-10
    for g in gens:
        assert span.contains(g)


def test_single_projection_with_unit():
    span = span_closure([unit(2, 0, 0)], include_unit=True)
    assert span.dim == 2


def assert_same_span(got, want):
    assert len(got) == len(want)
    gap = np.abs(bf.span_projector(got) - bf.span_projector(want)).max()
    assert gap <= 1e-10


PRESET_GENERATORS = {
    "ex2_bell": lambda: [np.kron(s, np.eye(2)) for s in PAULI],
    "ex3_choice2": lambda: [unit(3, i, j) for i in range(2) for j in range(2)],
    "ex4_left": bf.left_location_generators,
    "ex5_bosons": lambda: [unit(6, u, v) for b in EX5_BLOCKS for u in b for v in b],
}


@pytest.mark.parametrize("name", sorted(PRESET_GENERATORS))
def test_closure_matches_naive_closure_on_presets(name, presets):
    gens = PRESET_GENERATORS[name]()
    want = bf.naive_closure(gens)
    assert_same_span(span_closure(gens, include_unit=True).basis, want)
    assert_same_span(presets[name][0].basis, want)


@pytest.mark.parametrize("k, m", [(2, 3), (3, 5), (4, 6), (5, 5), (6, 6)])
def test_closure_matches_naive_closure_on_tensor_factors(k, m):
    gen, _, _ = bf.random_tensor_factor(np.random.default_rng(660 + k * m), k, m)
    span = span_closure([gen], include_unit=True)
    assert span.dim == k * k
    assert_same_span(span.basis, bf.naive_closure([gen]))


@pytest.mark.parametrize("seed", range(8))
def test_closure_matches_naive_closure_on_planted_blocks(seed):
    rng = np.random.default_rng(400 + seed)
    D = int(rng.integers(3, 13))
    basis, _ = bf.random_block_span(rng, D, max_rank=4)
    n = len(basis)
    gens = [np.tensordot(rng.standard_normal(n) + 1j * rng.standard_normal(n), basis, axes=(0, 0))
            for _ in range(2)]
    span = span_closure(gens, include_unit=True)
    assert_same_span(span.basis, bf.naive_closure(gens))
    assert_same_span(span.basis, basis)


# ---------------------------------------------------------------------------
# center


def test_center_of_full_matrix_algebra_is_scalars():
    Z = center(full_matrix_algebra(2))
    assert Z.dim == 1
    assert Z.has_unit


def test_center_of_pair_subalgebra_is_two_dimensional():
    gens = [unit(3, i, j) for i in range(2) for j in range(2)]
    span = span_closure(gens, include_unit=True)
    Z = center(span)
    assert Z.dim == 2
    assert bf.center_dim(span.basis) == 2


def test_center_of_block_diagonal_boson_algebra(presets):
    span, _ = presets["ex5_bosons"]
    Z = center(span)
    assert Z.dim == 3
    assert bf.center_dim(span.basis) == 3


def test_center_of_commutative_span_is_itself():
    span = span_closure([np.diag([1.0, 2.0, 3.0]).astype(complex)], include_unit=True)
    assert center(span).dim == span.dim


def test_center_is_commutative_and_star_closed():
    gens = [unit(3, i, j) for i in range(2) for j in range(2)]
    Z = center(span_closure(gens, include_unit=True))
    checks = Z.validate()
    assert checks["adjoint_closure"] < 1e-10
    for x in Z.basis:
        for y in Z.basis:
            assert np.abs(x @ y - y @ x).max() < 1e-10


@pytest.mark.parametrize("seed", range(8))
def test_center_matches_bruteforce_on_random_block_algebras(seed):
    rng = np.random.default_rng(100 + seed)
    D = int(rng.integers(2, 7))
    basis, blocks = bf.random_block_span(rng, D)
    span = OperatorSpan(basis)
    assert center(span).dim == len(blocks)
    assert bf.center_dim(basis) == len(blocks)


# ---------------------------------------------------------------------------
# streamed structure constants and the seeds center, against all-at-once oracles


def tensor_frame_span(k, m):
    gen, _, _ = bf.random_tensor_factor(np.random.default_rng(680 + k * m), k, m)
    return span_closure([gen], include_unit=True)


def planted_closure_span(seed):
    rng = np.random.default_rng(720 + seed)
    basis, _ = bf.random_block_span(rng, int(rng.integers(3, 13)), max_rank=4)
    n = len(basis)
    gens = [np.tensordot(rng.standard_normal(n) + 1j * rng.standard_normal(n), basis, axes=(0, 0))
            for _ in range(2)]
    return span_closure(gens, include_unit=True)


def planted_basis_span(seed):
    rng = np.random.default_rng(740 + seed)
    basis, _ = bf.random_block_span(rng, int(rng.integers(3, 13)), max_rank=4)
    return OperatorSpan(basis)


ORACLE_SPANS = (
    [("preset", name) for name in PRESET_NAMES]
    + [("frame", km) for km in [(2, 3), (3, 4), (4, 6), (5, 7), (6, 6)]]
    + [("planted_closure", s) for s in range(6)]
    + [("planted_basis", s) for s in range(6)]
    + [("hecke", N) for N in (3, 4, 5)]
)


def oracle_span(presets, kind, arg):
    if kind == "preset":
        return presets[arg][0]
    if kind == "frame":
        return tensor_frame_span(*arg)
    if kind == "hecke":
        return span_closure(bf.hecke_generators(arg, 1.7), include_unit=True)
    return {"planted_closure": planted_closure_span, "planted_basis": planted_basis_span}[kind](arg)


def span_ids(spans):
    return [f"{kind}-{'x'.join(map(str, arg)) if isinstance(arg, tuple) else arg}"
            for kind, arg in spans]


ORACLE_IDS = span_ids(ORACLE_SPANS)


@pytest.mark.parametrize("kind, arg", ORACLE_SPANS, ids=ORACLE_IDS)
def test_structure_constants_match_einsum_oracle(presets, kind, arg):
    span = oracle_span(presets, kind, arg)
    coeff, resid = OperatorSpan(span.basis).structure_constants()
    want_coeff, want_resid = bf.structure_constants(span.basis)
    assert np.abs(coeff - want_coeff).max() <= 1e-13
    assert abs(resid - want_resid) <= 1e-14
    assert resid < 1e-12


@pytest.mark.parametrize("kind, arg", ORACLE_SPANS, ids=ORACLE_IDS)
def test_closure_residual_is_roundoff_and_falls_back_to_the_structure_constants(presets, kind, arg):
    span = oracle_span(presets, kind, arg)
    assert span.closure_residual() <= 1e-13
    bare = OperatorSpan(span.basis)
    assert abs(bare.closure_residual() - bf.structure_constants(span.basis)[1]) <= 1e-14


def test_span_that_is_not_closed_keeps_its_residual_and_raises():
    # I and diag(1, 2, 4) span no algebra: diag(1, 4, 16) is not in their span
    span = span_closure([np.diag([1.0, 2.0, 4.0]).astype(complex)], include_unit=True)
    span = OperatorSpan(span.basis[:2])
    assert span.dim == 2
    _, resid = span.structure_constants()
    _, want = bf.structure_constants(span.basis)
    assert resid > 0.1
    assert abs(resid - want) <= 1e-14
    state = AlgebraState(vector=[1.0, 0.0, 0.0])
    with pytest.raises(ClosureError, match=r"its 2 basis elements leave residual .* above the cut 1\.000e-07"):
        build_gns(span, state)
    # the same span trusting its generators: their products leave the same kind of residual
    with_gens = OperatorSpan(span.basis, generators=span.basis)
    assert with_gens.closure_residual() > 0.1
    with pytest.raises(ClosureError, match=r"its 2 generators leave residual"):
        build_gns(with_gens, state)


def test_a_bad_density_on_a_span_that_is_not_closed_raises_its_state_error_first():
    span = span_closure([np.diag([1.0, 2.0, 4.0]).astype(complex)], include_unit=True)
    span = OperatorSpan(span.basis[:2])
    state = AlgebraState(density=np.diag([1.5, -0.25, -0.25]).astype(complex))
    with pytest.raises(StateError, match="negative eigenvalue"):
        build_gns(span, state)
    with pytest.raises(ClosureError):
        build_gns(span, AlgebraState(vector=[1.0, 0.0, 0.0]))


def test_closure_residual_is_cached_and_reads_cached_structure_constants(monkeypatch):
    span, bare = tensor_frame_span(3, 4), full_matrix_algebra(3)
    first = span.closure_residual()
    _, resid = bare.structure_constants()
    monkeypatch.setattr(OperatorSpan, "_expand_products",
                        lambda self, factors: pytest.fail("products expanded again"))
    assert span.closure_residual() == first
    assert bare.closure_residual() == resid


def test_adjoint_coords_are_cached_and_read_only():
    span = tensor_frame_span(3, 4)
    S, resid = span.adjoint_coords()
    assert span.adjoint_coords()[0] is S
    assert not S.flags.writeable
    assert resid < 1e-12
    # B_a^dag = sum_b S[a, b] B_b
    adj = span.basis.conj().swapaxes(-1, -2)
    assert np.abs(adj - np.tensordot(S, span.basis, axes=(1, 0))).max() < 1e-12


@pytest.mark.parametrize("kind, arg", ORACLE_SPANS, ids=ORACLE_IDS)
def test_center_matches_all_basis_oracle_with_and_without_generators(presets, kind, arg):
    span = oracle_span(presets, kind, arg)
    if kind in ("frame", "planted_closure", "hecke"):
        assert span.generators is not None
    want = bf.center_basis(span.basis)
    for s in (span, OperatorSpan(span.basis)):
        assert_same_span(center(s).basis, want)


def assert_block_traces_match_oracle(span):
    """Each block dimension read off a trace rounds to the rank of the
    corner z B z cut by SVD and sits within 1e-12 of it."""
    data = wedderburn(span)
    got = span.corner_dims(data.ranges)
    want = np.array([bf.corner_dim(V @ V.conj().T, span.basis) for V in data.ranges])
    assert np.array_equal(np.round(got), want)
    assert np.abs(got - want).max() <= 1e-12


@pytest.mark.parametrize("kind, arg", ORACLE_SPANS, ids=ORACLE_IDS)
def test_block_dimension_traces_match_the_svd_oracle(presets, kind, arg):
    assert_block_traces_match_oracle(oracle_span(presets, kind, arg))


def test_non_central_projections_fail_the_block_dimension_reading(non_central_projections):
    # on M_2, z = diag(1, 0) gives trace(z K) = 2 with K = 2 * 1
    with pytest.raises(DecompositionError, match=r"block dimension = 2\.0 is not a perfect square"):
        wedderburn(full_matrix_algebra(2))


def test_a_rank_off_a_multiple_of_the_block_rank_fails_the_multiplicity_reading(
        non_central_projections):
    # on M_4, K = 4 * 1, so the rank-one range e_0 reads block dimension 4
    with pytest.raises(DecompositionError,
                       match=r"rank 1 / sqrt\(block dimension\) 2 = 0\.5 is not a positive integer"):
        wedderburn(full_matrix_algebra(4))


def test_wedderburn_ranges_are_read_only_isometries_onto_the_projections(preset_blocks):
    for data in preset_blocks.values():
        for V, z, n, m in zip(data.ranges, data.projections, data.block_ranks,
                              data.multiplicities):
            assert V.shape[1] == n * m
            assert np.array_equal(V @ V.conj().T, z)
            assert np.abs(V.conj().T @ V - np.eye(n * m)).max() < 1e-12
            assert not V.flags.writeable


def test_closure_keeps_its_orthonormal_seeds_as_generators():
    gens = bf.hecke_generators(4, 1.7)
    span = span_closure(gens, include_unit=True)
    # three symmetric generators (their adjoints add nothing) and the unit
    S = span.generators
    assert S.shape == (4, 16, 16)
    assert np.abs(S.reshape(4, -1).conj() @ S.reshape(4, -1).T - np.eye(4)).max() < 1e-12
    assert np.array_equal(S, span.basis[:4])
    assert not S.flags.writeable
    assert OperatorSpan(span.basis).generators is None


def unit_row(S):
    """(1 - sum_i c_i S_i) / nu for orthonormal S, with c_i = <S_i, 1>, and |c|_1 / nu."""
    c = np.trace(S, axis1=1, axis2=2).conj()
    rest = np.eye(S.shape[1]) - np.tensordot(c, S, axes=(0, 0))
    nu = np.linalg.norm(rest)
    return rest / nu, np.abs(c).sum() / nu


def test_the_unit_row_is_a_factor_only_when_its_seed_part_outweighs_it():
    # a tensor frame's seeds carry little trace: the unit row follows them
    # in the basis but is no generator
    span = tensor_frame_span(3, 4)
    S = span.generators
    U, lever = unit_row(S)
    assert S.shape == (2, 12, 12) and lever < 1
    assert np.array_equal(S, span.basis[:2])
    assert np.abs(span.basis[2] - U).max() < 1e-12
    # the Hecke seeds carry a large one: the unit row is the last generator
    span = span_closure(bf.hecke_generators(4, 1.7), include_unit=True)
    U, lever = unit_row(span.generators[:3])
    assert lever > 1
    assert np.abs(span.generators[3] - U).max() < 1e-12


def test_span_rejects_generators_of_another_shape():
    basis = span_closure([unit(3, 0, 1)], include_unit=True).basis
    for bad in (np.zeros((2, 2, 2)), np.zeros((3, 3)), np.zeros((1, 3, 4))):
        with pytest.raises(ValueError, match=re.escape(
                f"(s, 3, 3) to match the basis (5, 3, 3), got {bad.shape}")):
            OperatorSpan(basis, generators=bad)
    assert OperatorSpan(basis, generators=np.zeros((0, 3, 3))).generators.shape == (0, 3, 3)


def test_scalars_have_no_generators_and_are_their_own_center():
    span = span_closure([], include_unit=True, ambient_dim=3)
    assert span.generators.shape == (0, 3, 3)
    assert span.closure_cut == 0.0
    coeff, resid = span._expand_products(span.generators)
    assert coeff.shape == (1, 0, 1) and resid == 0.0
    for s in (span, OperatorSpan(span.basis, generators=span.generators)):
        assert s.closure_residual() == 0.0
        Z = center(s)
        assert Z.dim == 1
        assert abs(abs(np.vdot(Z.basis[0], span.basis[0])) - 1.0) < 1e-12


CERTIFIED_SPANS = (
    [("hecke", N) for N in (3, 4, 5, 6)]
    + [("frame", km) for km in [(2, 3), (3, 4), (4, 6), (5, 7)]]
    + [("planted_closure", s) for s in range(6)]
    + [("preset", name) for name in ("ex2_bell", "ex3_choice2", "ex4_left", "ex5_bosons")]
)


@pytest.mark.parametrize("kind, arg", CERTIFIED_SPANS, ids=span_ids(CERTIFIED_SPANS))
def test_closure_certificate_bounds_the_measured_residual(presets, kind, arg):
    span = oracle_span(presets, kind, arg)
    assert span.closure_cut is not None
    assert span.closure_residual() <= span.closure_cut
    # commuting with the factors alone finds the center of the whole span
    oracle = OperatorSpan(span.basis)
    got, want = center(span), center(oracle)
    assert got.dim == want.dim
    flat = span.basis.reshape(span.dim, -1).conj().T
    P, Q = (Z.basis.reshape(Z.dim, -1) @ flat for Z in (got, want))
    assert np.abs(P.conj().T @ P - Q.conj().T @ Q).max() <= 1e-12
    assert sorted(wedderburn(span).block_table()) == sorted(wedderburn(oracle).block_table())


def test_the_closure_multiplies_by_the_unit_row_when_g_nearly_is_the_unit():
    # at rtol 0.01 g^2 is dropped at residual 0.0037, under the cut, but the
    # unit row (1 - c S_0) / nu leaves its product with S_0 |c| / nu = 10
    # times that: the closure forms U S_0 and keeps it, and closes to the
    # diagonal algebra
    g = np.diag([1.0, 1.1, 1.2, 1.3]).astype(complex)
    span = span_closure([g], include_unit=True, rtol=0.01)
    assert span.dim == 4
    assert len(span.generators) == 2
    assert span.closure_residual() <= span.closure_cut <= 0.01
    assert OperatorSpan(span.basis).closure_residual() <= 1e-12


def near_identity_generators(seed):
    rng = np.random.default_rng(seed)
    D, k = int(rng.integers(2, 6)), int(rng.integers(1, 3))
    rtol, eps = 10 ** rng.uniform(-5, -2), 10 ** rng.uniform(-4, 0)
    return [np.eye(D) + eps * (rng.standard_normal((D, D)) + 1j * rng.standard_normal((D, D)))
            for _ in range(k)], rtol


@pytest.mark.parametrize("seed, dim", [(54, 9), (675, 16), (966, 25), (2568, 9)])
def test_near_identity_closures_are_closed_under_every_product(seed, dim):
    # left without the unit row's products these gave a span a product
    # of two basis elements left hundreds of rtol outside, or no span
    gens, rtol = near_identity_generators(seed)
    span = span_closure(gens, include_unit=True, rtol=rtol)
    assert span.dim == dim
    assert unit_row(span.generators[:-1])[1] > 1
    assert span.closure_residual() <= span.closure_cut <= rtol
    assert OperatorSpan(span.basis).closure_residual() <= rtol


ZERO_TOL_FRAMES = [(3, 2)] + [(680 + 3 * k, k) for k in (2, 3, 4)]


@pytest.mark.parametrize("rtol", [0.0, 1e-16])
@pytest.mark.parametrize("seed, k", ZERO_TOL_FRAMES)
def test_a_zero_tolerance_closes_explicit_generators(seed, k, rtol):
    # the closure cuts its products at the roundoff of their block, so an
    # rtol of 0 no longer keeps roundoff rows until the rounds run out
    gen, psi, weights = bf.random_tensor_factor(np.random.default_rng(seed), k, 3)
    state = AlgebraState(vector=psi)
    want = restriction_entropy(span_closure([gen], include_unit=True), state, method="both")
    span = span_closure([gen], include_unit=True, rtol=rtol)
    assert span.dim == k * k
    assert span.closure_residual() <= span.closure_cut
    got = restriction_entropy(span, state, method="both", rtol=rtol)
    assert got.methods_agree
    assert abs(got.entropy_nats - want.entropy_nats) <= 1e-12
    assert abs(got.entropy_nats - bf.entropy_of(weights)) <= 1e-12
    assert np.abs(got.spectrum - want.spectrum).max() <= 1e-12


def test_a_hand_built_span_carries_no_certificate():
    span = span_closure(bf.hecke_generators(4, 1.7), include_unit=True)
    again = OperatorSpan(span.basis, generators=span.generators)
    assert again.closure_cut is None
    assert again.closure_residual() == span.closure_residual()


@pytest.mark.parametrize("kind, arg", [("frame", (4, 6)), ("hecke", 4)])
def test_restriction_entropy_on_a_closure_forms_no_products(monkeypatch, kind, arg):
    span = oracle_span(None, kind, arg)
    psi = np.random.default_rng(902).standard_normal(span.ambient_dim) + 0j
    monkeypatch.setattr(OperatorSpan, "_expand_products",
                        lambda self, factors: pytest.fail("products formed"))
    report = restriction_entropy(span, AlgebraState(vector=psi, normalize=True), method="both")
    assert report.methods_agree


@pytest.mark.parametrize("kind, arg, n, s", [("frame", (4, 6), 16, 2), ("hecke", 4, 14, 4)])
def test_closure_forms_one_product_per_factor_and_basis_row(monkeypatch, kind, arg, n, s):
    calls = []

    def counted(rows, against=None, rtol=None):
        calls.append(len(rows))
        return orthonormalize_rows(rows, against=against, rtol=rtol)

    monkeypatch.setattr(star_algebra, "orthonormalize_rows", counted)
    span = oracle_span(None, kind, arg)
    assert (span.dim, len(span.generators)) == (n, s)
    # the seeds and their adjoints, the unit, then one call per round, the
    # first on the seed rows and the unit row
    seeds, unit_rows, *rounds = calls
    assert (seeds, unit_rows) == (2 if kind == "frame" else 6, 1)
    assert rounds[0] == ((s + 1) * s if kind == "frame" else s * s)
    assert sum(rounds) == n * s


def test_a_closure_coarser_than_the_solve_runs_the_product_check(monkeypatch):
    span = tensor_frame_span(4, 6)
    assert 1e-14 * CLOSURE_SLACK < span.closure_cut <= 1e-10
    psi = np.random.default_rng(903).standard_normal(24) + 0j
    state = AlgebraState(vector=psi, normalize=True)
    want = restriction_entropy(span, state, method="both")
    calls = []
    expand = OperatorSpan._expand_products
    monkeypatch.setattr(OperatorSpan, "_expand_products",
                        lambda self, factors: calls.append(len(factors)) or expand(self, factors))
    got = restriction_entropy(span, state, method="both", rtol=1e-14)
    assert calls == [len(span.generators)]
    assert got.gns_dim == want.gns_dim and got.null_dim == want.null_dim
    assert np.abs(got.spectrum - want.spectrum).max() <= 1e-12


@pytest.mark.parametrize("N, table", [(4, [(1, 5), (3, 3), (2, 1)]), (5, [(1, 6), (4, 4), (5, 2)])])
def test_hecke_block_tables_match_quantum_schur_weyl(N, table):
    span = span_closure(bf.hecke_generators(N, 1.7), include_unit=True)
    assert span.dim == sum(n * n for n, _ in table)
    assert len(span.generators) == N
    data = wedderburn(span)
    assert sorted(data.block_table()) == sorted(table)
    assert center(span).dim == len(table)


def test_hecke_n6_block_table_and_both_routes():
    # quantum Schur-Weyl at N = 6: n = 132 on D = 64, every GNS stage from
    # products with the state rather than from the n^3 structure constants
    span = span_closure(bf.hecke_generators(6, 1.7), include_unit=True)
    assert (span.dim, span.ambient_dim) == (132, 64)
    blocks = wedderburn(span)
    assert sorted(blocks.block_table()) == sorted([(1, 7), (5, 5), (9, 3), (5, 1)])
    assert_block_traces_match_oracle(span)
    rng = np.random.default_rng(786)
    psi = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    rep = restriction_entropy(span, AlgebraState(vector=psi, normalize=True), method="both",
                              blocks=blocks)
    assert rep.methods_agree
    assert abs(rep.spectrum.sum() - 1.0) < 1e-12
    assert rep.gns_dim == span.dim - rep.null_dim


def test_streamed_kernels_stay_small_on_a_d36_tensor_frame():
    # one n^2 D^2 complex stack at n = D = 36 is 26 MB on its own
    span = tensor_frame_span(6, 6)
    assert (span.dim, span.ambient_dim) == (36, 36)
    for kernel in (span.structure_constants, lambda: center(span)):
        tracemalloc.start()
        try:
            kernel()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6


# ---------------------------------------------------------------------------
# commutant


def test_commutant_of_irreducible_action_is_scalars():
    reps = [unit(2, i, j) for i in range(2) for j in range(2)]
    C = commutant(reps)
    assert C.dim == 1
    assert C.has_unit


def test_commutant_of_doubled_qubit_action():
    # left-multiplication matrices of the 2x2 matrix units on the basis
    # (e00, e01, e10, e11), a reducible action with two equivalent parts
    pi = {}
    for (i, j) in [(0, 0), (0, 1), (1, 0), (1, 1)]:
        mat = np.zeros((4, 4), dtype=complex)
        for (k, l) in [(0, 0), (0, 1), (1, 0), (1, 1)]:
            if j == k:
                mat[2 * i + l, 2 * k + l] = 1.0
        pi[(i, j)] = mat
    mats = list(pi.values())
    assert commutant(mats).dim == 4
    assert bf.commutant_dim(mats) == 4


def test_commutant_of_quotient_action_with_inequivalent_parts():
    e01 = unit(3, 0, 1)
    mats = [np.diag([1.0, 0, 0]).astype(complex), e01, e01.conj().T,
            np.diag([0, 1.0, 0]).astype(complex), np.diag([0, 0, 1.0]).astype(complex)]
    assert commutant(mats).dim == 2
    assert bf.commutant_dim(mats) == 2


@pytest.mark.parametrize("n", [2, 3, 4])
def test_commutant_duality_for_full_algebra(n):
    full = [unit(n, i, j) for i in range(n) for j in range(n)]
    C = commutant(full)
    assert C.dim == 1
    CC = commutant(list(C.basis))
    assert CC.dim == n * n


@pytest.mark.parametrize("seed", range(8))
def test_commutant_matches_bruteforce_on_random_block_algebras(seed):
    rng = np.random.default_rng(200 + seed)
    D = int(rng.integers(2, 7))
    basis, blocks = bf.random_block_span(rng, D)
    want = sum(m * m for _, m in blocks)
    assert commutant(list(basis)).dim == want
    assert bf.commutant_dim(list(basis)) == want


def test_commutant_always_contains_identity():
    rng = np.random.default_rng(3)
    mats = [rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))]
    C = commutant(mats)
    assert C.has_unit
    assert C.contains(np.eye(4))


# ---------------------------------------------------------------------------
# wedderburn


def test_boson_block_algebra_decomposes_as_3_2_1(presets):
    span, _ = presets["ex5_bosons"]
    data = wedderburn(span, seed=0)
    assert sorted(zip(data.block_ranks, data.multiplicities), reverse=True) == [
        (3, 1), (2, 1), (1, 1),
    ]
    assert sum(data.block_dims) == 14


def test_scalars_have_one_block_with_full_multiplicity():
    span = span_closure([], include_unit=True, ambient_dim=5)
    data = wedderburn(span, seed=0)
    assert data.block_ranks == (1,)
    assert data.multiplicities == (5,)


def test_left_location_algebra_contains_a_2_2_block():
    gens = bf.left_location_generators()
    span = span_closure(gens, include_unit=True)
    assert span.dim == 6
    data = wedderburn(span, seed=0)
    assert (2, 2) in data.block_table()


def test_projection_invariants_on_preset_spans(presets, preset_blocks):
    for name, (span, _) in presets.items():
        data = preset_blocks[name]
        D = span.ambient_dim
        total = np.zeros((D, D), dtype=complex)
        for k, z in enumerate(data.projections):
            assert np.abs(z - z.conj().T).max() < 1e-9
            assert np.abs(z @ z - z).max() < 1e-9
            n, m = data.block_ranks[k], data.multiplicities[k]
            assert abs(np.trace(z).real - n * m) < 1e-8
            for l, z2 in enumerate(data.projections):
                if l != k:
                    assert np.abs(z @ z2).max() < 1e-9
            # central: the projection belongs to the span and commutes with it
            assert span.contains(z)
            assert np.abs(z @ span.basis - span.basis @ z).max() < 1e-9
            total += z
        assert np.abs(total - np.eye(D)).max() < 1e-9
        assert sum(data.block_dims) == span.dim


@pytest.mark.parametrize("seed", range(10))
def test_wedderburn_recovers_planted_blocks(seed):
    rng = np.random.default_rng(300 + seed)
    D = int(rng.integers(2, 7))
    basis, blocks = bf.random_block_span(rng, D)
    data = wedderburn(OperatorSpan(basis), seed=seed)
    assert sorted(data.block_table()) == sorted(blocks)


def test_wedderburn_is_seed_independent_up_to_ordering(presets):
    span, _ = presets["ex4_left"]
    a = wedderburn(span, seed=1)
    b = wedderburn(span, seed=99)
    key = lambda d: sorted(
        (n, m, round(np.trace(z).real, 6))
        for n, m, z in zip(d.block_ranks, d.multiplicities, d.projections)
    )
    assert key(a) == key(b)


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_wedderburn_projections_do_not_depend_on_seed(name):
    # a fresh span per seed, so the per-span cache cannot answer the repeats
    a = wedderburn(example_generators(name)[0], seed=0)
    for seed in (7, 12345):
        b = wedderburn(example_generators(name)[0], seed=seed)
        assert b is not a
        assert np.array_equal(a.projections, b.projections)
        assert a.block_table() == b.block_table()


def test_unit_check_runs_on_first_read():
    span = full_matrix_algebra(3)
    assert "unit_coords" not in vars(span)
    assert span.has_unit
    assert "unit_coords" in vars(span)
    corner = OperatorSpan(span.basis[:1])
    assert not corner.has_unit and corner.unit_coords is None
    with pytest.raises(ValueError):
        corner.unit()


def test_wedderburn_is_cached_per_tolerance_pair():
    span, _ = example_generators("ex4_left")
    a = wedderburn(span)
    assert wedderburn(span, seed=7) is a
    assert wedderburn(span, rtol=span.rtol, cluster_tol=CLUSTER_TOL) is a
    b = wedderburn(span, rtol=1e-11)
    c = wedderburn(span, cluster_tol=1e-9)
    assert b is not a and c is not a and b is not c
    assert wedderburn(span, rtol=1e-11) is b
    assert np.array_equal(a.projections, b.projections)
    assert not a.projections.flags.writeable
    with pytest.raises(ValueError):
        a.projections[0, 0, 0] = 1.0


def test_failed_wedderburn_is_not_cached(monkeypatch):
    span, _ = example_generators("ex5_bosons")
    calls = []
    real_center = star_algebra.center
    monkeypatch.setattr(star_algebra, "center", lambda *a, **k: calls.append(1) or real_center(*a, **k))
    for attempt in (1, 2):
        # no two center eigenvalues are 10 apart, so the refinement never splits
        with pytest.raises(DecompositionError):
            wedderburn(span, cluster_tol=10.0)
        assert len(calls) == attempt
    wedderburn(span)
    wedderburn(span)
    assert len(calls) == 3


def test_minimal_projection_of_scalars_is_the_identity(monkeypatch):
    span = span_closure([], include_unit=True, ambient_dim=4)

    def no_basis(*args, **kw):
        raise AssertionError("a dim-1 span needs no Hermitian basis")

    monkeypatch.setattr(star_algebra, "hermitian_span_basis", no_basis)
    ((V,),) = minimal_projections([span])
    assert np.array_equal(V, np.eye(4))


def test_minimal_projections_of_a_diagonal_algebra_are_its_blocks():
    diag = np.diag([1.0, 1.0, 2.0, 3.0, 3.0, 3.0]).astype(complex)
    span = span_closure([diag], include_unit=True)
    assert span.dim == 3
    (ranges,) = minimal_projections([span])
    assert sorted(V.shape[1] for V in ranges) == [1, 2, 3]
    projs = [V @ V.conj().T for V in ranges]
    for V, P in zip(ranges, projs):
        assert np.abs(V.conj().T @ V - np.eye(V.shape[1])).max() < 1e-12
        assert np.abs(P @ diag - diag @ P).max() < 1e-12
    assert np.abs(sum(projs) - np.eye(6)).max() < 1e-12


def test_wedderburn_requires_a_unit():
    span = OperatorSpan(np.array([unit(2, 0, 1)]))
    with pytest.raises(ValueError):
        wedderburn(span)


def test_non_star_closed_span_fails_decomposition():
    basis = np.array([np.eye(2, dtype=complex) / np.sqrt(2), unit(2, 0, 1)])
    span = OperatorSpan(basis)
    with pytest.raises(AlgebraError):
        wedderburn(span)


def test_closure_breakdown_raises():
    with pytest.raises(ClosureError):
        span_closure([np.eye(2)], include_unit=True, max_rounds=0)


def test_closure_errors_say_by_how_much_they_failed():
    # the 3 x 3 Jordan block needs three rounds to close to M_3
    J = np.diag([1.0, 1.0], 1)
    assert span_closure([J], include_unit=True, max_rounds=3).dim == 9
    with pytest.raises(ClosureError, match=re.escape(
            "within 2 enlargement rounds: the last round kept 2 rows above its cut 7.071e-11")):
        span_closure([J], include_unit=True, max_rounds=2)
    # a near-identity pair whose closure is not adjoint-stable at its rtol
    gens, rtol = near_identity_generators(1624)
    with pytest.raises(ClosureError, match=r"not adjoint-stable: the adjoints of its basis "
                       r"leave residual 7\.697e-01 above the cut 4\.657e-01"):
        span_closure(gens, include_unit=True, rtol=rtol)
    basis = np.array([np.eye(2, dtype=complex) / np.sqrt(2), unit(2, 0, 1)])
    with pytest.raises(ClosureError, match=re.escape(
            "requires a *-closed span: the adjoints of its basis leave residual 1.000e+00 "
            "above the cut 1.000e-07")):
        wedderburn(OperatorSpan(basis))


# ---------------------------------------------------------------------------
# the algebra gate

#: the upper-triangular algebra T_2: unital and closed under products, not *-closed
UPPER_TRIANGULAR = OperatorSpan(np.array([unit(2, 0, 0), unit(2, 0, 1), unit(2, 1, 1)]))


def star_closed_pair():
    """span{1, X}, *-closed but not closed under products (X^2 is not in it)."""
    X = np.array([[0.0, 0.5, 0.0], [0.5, 1.0, 0.0], [0.0, 0.0, 3.0]], dtype=complex)
    q, _ = np.linalg.qr(np.array([np.eye(3).ravel(), X.ravel()], dtype=complex).T)
    return OperatorSpan(q.T.reshape(2, 3, 3))


@pytest.mark.parametrize("state", [AlgebraState(vector=[0.6, 0.8]),
                                   AlgebraState(density=np.diag([0.3, 0.7]))],
                         ids=["pure", "mixed"])
def test_the_gns_route_refuses_a_span_that_is_not_star_closed(state):
    # without the adjoint check a pure state gives 0 nats and a mixed one a non-square corner
    with pytest.raises(ClosureError, match=re.escape(
            "GNS construction requires a *-closed span: the adjoints of its basis leave "
            "residual 1.000e+00 above the cut 1.000e-07")):
        restriction_entropy(UPPER_TRIANGULAR, state, method="gns")


def test_the_block_route_refuses_a_span_that_is_not_closed_under_products():
    # without the product check the joint refinement finds 3 of 2 minimal projections
    span = star_closed_pair()
    want = ("requires a multiplicatively closed span: the products of its basis with its 2 "
            "basis elements leave residual 3.998e-01")
    with pytest.raises(ClosureError, match="wedderburn " + re.escape(want)):
        wedderburn(span)
    with pytest.raises(ClosureError, match="wedderburn " + re.escape(want)):
        restriction_entropy(span, AlgebraState(vector=[1.0, 0.0, 0.0]), method="wedderburn")
    # handed blocks of the right size are not trusted either
    blocks = wedderburn(span_closure([np.diag([0.0, 0.0, 1.0])], include_unit=True))
    assert sum(blocks.block_dims) == span.dim
    with pytest.raises(ClosureError, match="density element " + re.escape(want)):
        density_element(span, blocks, AlgebraState(vector=[1.0, 0.0, 0.0]))


def test_the_algebra_gate_checks_unit_then_adjoints_then_products():
    N = np.diag([1.0, 1.0], 1).astype(complex)  # neither N^dag nor N^2 is in span{1, N}
    with pytest.raises(ValueError, match="^stage requires a unital span$"):
        star_algebra.check_algebra(OperatorSpan([N]), 1e-10, "stage")
    span = OperatorSpan(np.array([np.eye(3) / np.sqrt(3), N / np.sqrt(2)]))
    with pytest.raises(ClosureError, match=r"^stage requires a \*-closed span"):
        star_algebra.check_algebra(span, 1e-10, "stage")
    basis = star_closed_pair().basis
    with pytest.raises(ClosureError, match=r"^stage requires a multiplicatively closed span: "
                       "the products of its basis with its 1 generators leave residual"):
        star_algebra.check_algebra(OperatorSpan(basis, generators=basis[1:]), 1e-10, "stage")


def test_the_algebra_gate_forms_no_product_for_a_certified_closure(monkeypatch):
    span, _ = example_generators("ex5_bosons")
    monkeypatch.setattr(OperatorSpan, "_expand_products", lambda *a: pytest.fail("a product"))
    star_algebra.check_algebra(span, span.rtol, "stage")
    # a cut far below the certificate measures the products instead
    with pytest.raises(pytest.fail.Exception, match="a product"):
        star_algebra.check_algebra(span, 1e-30, "stage")


def test_no_module_but_star_algebra_reads_how_a_span_is_certified():
    # every stage asks check_algebra instead
    guarded = {"closure_cut", "closure_residual", "adjoint_coords", "has_unit", "unit_coords",
               "generators"}
    src = Path(star_algebra.__file__).parent
    hits = [f"{path.name}:{node.lineno}: .{node.attr}"
            for path in sorted(src.glob("*.py")) if path.name != "star_algebra.py"
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute) and node.attr in guarded]
    assert not hits


def test_a_center_of_dimension_zero_says_so(monkeypatch):
    with pytest.raises(DecompositionError, match="a center of dimension 0"):
        minimal_projections([OperatorSpan(np.zeros((0, 3, 3)))])
    span = span_closure([np.diag([1.0, 2.0])], include_unit=True)
    monkeypatch.setattr(star_algebra, "center",
                        lambda span, rtol: OperatorSpan(np.zeros((0, 2, 2))))
    with pytest.raises(DecompositionError, match="a center of dimension 0"):
        wedderburn(span)


def test_block_separation_retries_exhaust_on_merged_clusters():
    # a grouping tolerance wider than any eigenvalue spread keeps every
    # Hermitian basis element in one cluster, so the joint refinement runs
    # out of basis before separating the two blocks and must give up cleanly
    span = span_closure([np.diag([1.0, 2.0]).astype(complex)], include_unit=True)
    with pytest.raises(AlgebraError):
        wedderburn(span, seed=0, cluster_tol=10.0)
