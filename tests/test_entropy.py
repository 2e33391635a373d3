import json
import re

import numpy as np
import pytest

from gnsentropy import (
    AlgebraState,
    OperatorSpan,
    SpectralState,
    density_element,
    f_basis_embedding,
    full_matrix_algebra,
    partial_trace,
    restriction_entropy,
    span_closure,
    spectra_agree,
    von_neumann_entropy,
    wedderburn,
)
from gnsentropy import OracleMismatchError, entropy
from gnsentropy.cli import EXIT_NUMERICAL, main, plane_to_angles
from gnsentropy.entropy import LN2, restriction_entropies
from gnsentropy.fock import example_generators
from gnsentropy.linalg import DEFAULT_RTOL

import bruteforce as bf
from test_batch import assert_raises_like_the_loop


def unit(d, i, j):
    m = np.zeros((d, d), dtype=complex)
    m[i, j] = 1.0
    return m


# ---------------------------------------------------------------------------
# entropy of spectra


def test_half_half_gives_log_two():
    assert abs(von_neumann_entropy([0.5, 0.5]) - LN2) < 1e-12


def test_singleton_spectrum_has_zero_entropy():
    assert von_neumann_entropy([1.0]) == 0.0


def test_two_level_entropy_at_thirty_degrees():
    theta = np.pi / 6
    got = von_neumann_entropy([np.cos(theta) ** 2, np.sin(theta) ** 2])
    assert abs(got - 0.5623351446188083) < 1e-9


def test_zero_weights_are_dropped():
    assert abs(von_neumann_entropy([0.5, 0.0, 0.5, 0.0]) - LN2) < 1e-12


def test_base_two_conversion():
    assert abs(von_neumann_entropy([0.5, 0.5], base="2") - 1.0) < 1e-12
    s = SpectralState(weights=np.array([0.25, 0.75]), log_base="2")
    assert abs(von_neumann_entropy(s) - von_neumann_entropy([0.25, 0.75]) / LN2) < 1e-12


def test_spectral_state_validation():
    with pytest.raises(ValueError):
        SpectralState(weights=np.array([0.5, -0.5]))
    with pytest.raises(ValueError):
        SpectralState(weights=np.array([0.5, 0.4]))


@pytest.mark.parametrize("base", ["10", 10, "E", ""])
def test_entropy_rejects_an_unknown_log_base(base):
    with pytest.raises(ValueError, match="base must be 'e' or '2'"):
        von_neumann_entropy([0.5, 0.5], base=base)
    with pytest.raises(ValueError, match="base must be 'e' or '2'"):
        von_neumann_entropy(SpectralState(weights=np.array([0.5, 0.5])), base=base)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_entropy_rejects_non_finite_weights(bad):
    with pytest.raises(ValueError, match="entropy weights must be finite"):
        von_neumann_entropy([bad, 1.0])


# ---------------------------------------------------------------------------
# partial trace


def test_singlet_partial_trace_is_maximally_mixed():
    psi = np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2)
    rho = partial_trace(psi, (2, 2), keep="A")
    assert np.abs(rho - np.eye(2) / 2).max() < 1e-12
    assert abs(von_neumann_entropy(np.linalg.eigvalsh(rho)) - LN2) < 1e-12


def test_product_state_partial_trace_is_pure():
    u = np.array([1, 2j, 0.5]) / np.linalg.norm([1, 2j, 0.5])
    v = np.array([0.3, 1.0]) / np.linalg.norm([0.3, 1.0])
    rho = partial_trace(np.kron(u, v), (3, 2), keep="A")
    assert np.abs(rho - np.outer(u, u.conj())).max() < 1e-12


@pytest.mark.parametrize("seed", range(4))
def test_partial_trace_consistency(seed):
    rng = np.random.default_rng(seed)
    dA, dB = int(rng.integers(2, 5)), int(rng.integers(2, 5))
    psi = rng.standard_normal(dA * dB) + 1j * rng.standard_normal(dA * dB)
    psi /= np.linalg.norm(psi)
    rho_a = partial_trace(psi, (dA, dB), keep="A")
    rho_b = partial_trace(psi, (dA, dB), keep="B")
    for rho in (rho_a, rho_b):
        assert abs(np.trace(rho).real - 1.0) < 1e-12
        assert np.linalg.eigvalsh(rho).min() > -1e-12
    # both sides of a pure state share their nonzero spectrum
    sa = von_neumann_entropy(np.linalg.eigvalsh(rho_a))
    sb = von_neumann_entropy(np.linalg.eigvalsh(rho_b))
    assert abs(sa - sb) < 1e-10
    # the density-matrix input path agrees with the vector path
    rho_full = np.outer(psi, psi.conj())
    assert np.abs(partial_trace(rho_full, (dA, dB), keep="A") - rho_a).max() < 1e-12


def test_partial_trace_dimension_mismatch():
    with pytest.raises(ValueError):
        partial_trace(np.zeros(5), (2, 2))
    with pytest.raises(ValueError):
        partial_trace(np.zeros(4), (2, 2), keep="C")


def test_slater_basis_states_have_one_bit_of_tensor_entropy():
    embed = f_basis_embedding()
    rng = np.random.default_rng(9)
    psi = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    psi /= np.linalg.norm(psi)
    rho = partial_trace(embed @ psi, (3, 3), keep="A")
    s = von_neumann_entropy(np.linalg.eigvalsh(rho))
    assert abs(s - LN2) < 1e-9
    assert abs(von_neumann_entropy(np.linalg.eigvalsh(rho), base="2") - 1.0) < 1e-9


# ---------------------------------------------------------------------------
# density element (block route)


@pytest.mark.parametrize("lam", [0.15, 0.5, 0.8])
def test_qubit_family_block_spectrum(presets, preset_blocks, lam):
    span, family = presets["ex1_m2"]
    dens = density_element(span, preset_blocks["ex1_m2"], family.state(**{"lambda": lam}))
    assert spectra_agree(dens.spectrum(), sorted([lam, 1 - lam], reverse=True))


@pytest.mark.parametrize("theta", [0.3, 1.1])
def test_pair_subalgebra_block_spectra(presets, preset_blocks, theta):
    span, family = presets["ex3_choice2"]
    dens = density_element(span, preset_blocks["ex3_choice2"], family.state(theta=theta))
    by_rank = {
        n: np.sort(spec)
        for n, spec in zip(dens.blocks.block_ranks, dens.block_spectra)
    }
    assert np.abs(by_rank[2] - np.sort([0.0, np.cos(theta) ** 2])).max() < 1e-9
    assert np.abs(by_rank[1] - [np.sin(theta) ** 2]).max() < 1e-9


@pytest.mark.parametrize("n", [2, 3, 4])
def test_tracial_state_has_uniform_block_spectrum(n):
    span = full_matrix_algebra(n)
    blocks = wedderburn(span, seed=0)
    state = AlgebraState(density=np.eye(n, dtype=complex) / n)
    dens = density_element(span, blocks, state)
    assert np.abs(dens.spectrum() - 1.0 / n).max() < 1e-12


def test_block_trace_moments_reproduce_the_state(preset_cases, preset_blocks):
    # beyond the presets: Hecke N = 4 and 5, with several multiplicities in
    # one span, and planted block spans, each with a pure state and a
    # full-rank density
    cases = [(span, preset_blocks[name], state) for name, span, state in preset_cases]
    rng = np.random.default_rng(170)
    spans = [span_closure(bf.hecke_generators(N, 1.7), include_unit=True) for N in (4, 5)]
    spans += [OperatorSpan(bf.random_block_span(rng, D)[0]) for D in (6, 8, 12, 16)]
    for span in spans:
        D, blocks = span.ambient_dim, wedderburn(span)
        X = rng.standard_normal((D, D)) + 1j * rng.standard_normal((D, D))
        cases += [(span, blocks, AlgebraState(vector=X[:, 0], normalize=True)),
                  (span, blocks, AlgebraState(density=X @ X.conj().T, normalize=True))]
    for span, blocks, state in cases:
        dens = density_element(span, blocks, state)
        weights = sum(
            z / m for z, m in zip(blocks.projections, blocks.multiplicities)
        )
        got = np.einsum("ij,jk,aki->a", weights, dens.matrix, span.basis,
                        optimize=True)
        want = state.values(span.basis)
        assert np.abs(got - want).max() < 1e-9


def test_density_element_on_a_tensor_factor_is_the_partial_trace():
    # on M_3 (x) 1_2 the closed form W^-1 P(rho) is tr_B rho (x) 1_2
    eye = np.eye(2) / np.sqrt(2)
    span = OperatorSpan(np.array([np.kron(unit(3, i, j), eye)
                                  for i in range(3) for j in range(3)]))
    rng = np.random.default_rng(171)
    X = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    state = AlgebraState(density=X @ X.conj().T, normalize=True)
    dens = density_element(span, wedderburn(span), state)
    want = np.kron(partial_trace(state.density, (3, 2)), np.eye(2))
    assert np.abs(dens.matrix - want).max() < 1e-14


def test_density_element_on_a_reused_span_matches_a_fresh_span():
    span, family = example_generators("ex5_bosons")
    blocks = wedderburn(span)
    axis = np.linspace(-2.0, 2.0, 7)
    states = [family.state(dict(zip(("theta", "phi"), plane_to_angles(x, y))))
              for x in axis for y in axis]
    reused = [density_element(span, blocks, states[0])]
    for state in states[1:]:
        reused.append(density_element(span, blocks, state))
    other = wedderburn(span, rtol=1e-11)
    density_element(span, other, states[0])
    for state, dens in zip(states, reused):
        fresh_span, _ = example_generators("ex5_bosons")
        fresh = density_element(fresh_span, wedderburn(fresh_span), state)
        assert np.array_equal(dens.matrix, fresh.matrix)
        assert all(np.array_equal(a, b) for a, b in zip(dens.block_spectra, fresh.block_spectra))


@pytest.mark.parametrize("direction", ["ex5 blocks on M6", "M6 blocks on ex5"])
def test_blocks_of_another_span_are_rejected(direction):
    ex5, family = example_generators("ex5_bosons")
    full = full_matrix_algebra(6)
    span, other = (full, ex5) if direction == "ex5 blocks on M6" else (ex5, full)
    state, blocks = family.state(theta=1.0, phi=0.8), wedderburn(other)
    want = (f"of dimension {other.dim} on ambient dimension [6] does not belong to a span "
            f"of dimension {span.dim} on ambient dimension 6")
    with pytest.raises(ValueError, match=re.escape(want)):
        density_element(span, blocks, state)
    with pytest.raises(ValueError, match=re.escape(want)):
        restriction_entropies(span, [state, state], method="wedderburn", blocks=blocks)


def test_blocks_on_another_ambient_dimension_are_rejected():
    # M_2 and the diagonal algebra on C^4 both have dimension 4
    diagonal = OperatorSpan(np.array([unit(4, i, i) for i in range(4)]))
    with pytest.raises(ValueError, match=re.escape("on ambient dimension [2] does not belong "
                                                   "to a span of dimension 4 on ambient "
                                                   "dimension 4")):
        density_element(diagonal, wedderburn(full_matrix_algebra(2)),
                        AlgebraState(vector=np.eye(4)[0]))


def test_density_element_lies_in_the_span(preset_cases, preset_blocks):
    for name, span, state in preset_cases:
        dens = density_element(span, preset_blocks[name], state)
        assert span.residual(dens.matrix) < 1e-9
        assert np.abs(dens.matrix - dens.matrix.conj().T).max() < 1e-9


# ---------------------------------------------------------------------------
# the full restriction pipeline


def test_singlet_restriction_report(presets):
    span, family = presets["ex2_bell"]
    rep = restriction_entropy(span, family.state())
    assert abs(rep.entropy_nats - LN2) < 1e-9
    assert abs(rep.entropy_bits - 1.0) < 1e-9
    assert rep.gns_dim == 4 and rep.null_dim == 0
    assert rep.methods_agree
    assert not rep.pure


def test_full_algebra_restriction_is_pure(presets):
    span, family = presets["ex3_choice1"]
    rng = np.random.default_rng(21)
    for _ in range(5):
        psi = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        rep = restriction_entropy(span, AlgebraState(vector=psi, normalize=True))
        assert rep.entropy_nats < 1e-9
        assert rep.pure


def test_boson_restriction_matches_closed_form(presets):
    span, family = presets["ex5_bosons"]
    theta, phi = 1.1, 0.4
    rep = restriction_entropy(span, family.state(theta=theta, phi=phi))
    assert abs(rep.entropy_nats - bf.entropy_of(bf.boson_weights(theta, phi))) < 1e-9
    assert rep.gns_dim == 6
    assert [(n, m) for n, m, _ in rep.blocks] == [(3, 1), (2, 1), (1, 1)]


@pytest.mark.parametrize("method", ["gns", "wedderburn", "both"])
@pytest.mark.parametrize("name, param, value, weight", [
    ("ex4_left", "theta", 1e-6, np.sin(1e-6) ** 2),
    ("ex1_m2", "lambda", 1e-12, 1e-12),
])
def test_a_zero_tolerance_keeps_a_weight_above_roundoff(presets, method, name, param, value,
                                                        weight):
    # the solve's rtol reaches every cut: the state's factor and both spectra
    span, family = presets[name]
    rep = restriction_entropy(span, family.state({param: value}), method=method, rtol=0)
    assert rep.spectrum.size == 2
    assert abs(rep.spectrum.min() - weight) <= 1e-16
    binary = -weight * np.log(weight) - (1 - weight) * np.log1p(-weight)
    assert abs(rep.entropy_nats - binary) <= 1e-14


@pytest.mark.parametrize("method", ["gns", "wedderburn", "both"])
def test_a_mis_sized_state_is_named_on_both_routes(presets, preset_blocks, method):
    span, _ = presets["ex5_bosons"]
    state = AlgebraState(vector=[1, 0, 0])
    message = "algebra acts on dimension 6, state lives on 3"
    with pytest.raises(ValueError, match=message):
        restriction_entropy(span, state, method=method)
    with pytest.raises(ValueError, match=message):
        density_element(span, preset_blocks["ex5_bosons"], state)


def test_spectra_that_disagree_stop_a_both_run(presets, monkeypatch, tmp_path, capsys):
    # the GNS spectrum of the Bell pair moved by 1e-6, far above the oracle tolerance
    exact = entropy.gns_density

    def skewed(iso, tol=DEFAULT_RTOL):
        w = exact(iso, tol).weights.copy()
        w[0] += 1e-6
        w[-1] -= 1e-6
        return SpectralState(weights=w)

    monkeypatch.setattr(entropy, "gns_density", skewed)
    span, family = presets["ex2_bell"]
    state = family.state({})
    gns = restriction_entropy(span, state, method="gns").spectrum
    blocks = restriction_entropy(span, state, method="wedderburn").spectrum
    assert np.abs(gns - blocks).max() > 1e-7
    with pytest.raises(OracleMismatchError) as info:
        restriction_entropy(span, state, method="both")
    assert str(info.value) == f"GNS and block spectra disagree: {gns!r} vs {blocks!r}"
    rng = np.random.default_rng(3)
    X = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    mixed = AlgebraState(density=X @ X.conj().T, normalize=True)
    assert_raises_like_the_loop(span, [mixed, state, mixed], "both")
    spec = tmp_path / "s.json"
    spec.write_text(json.dumps({"algebra": {"preset": "ex2_bell"}, "state": {"parameters": {}}}))
    assert main(["run", str(spec)]) == EXIT_NUMERICAL
    assert "numerical failure: GNS and block spectra disagree" in capsys.readouterr().err


def test_single_method_reports(presets):
    span, family = presets["ex3_choice2"]
    state = family.state(theta=0.5)
    g = restriction_entropy(span, state, method="gns")
    w = restriction_entropy(span, state, method="wedderburn")
    assert g.methods_agree is None and w.methods_agree is None
    assert g.blocks is None and w.gns_dim is None
    assert abs(g.entropy_nats - w.entropy_nats) < 1e-9
    with pytest.raises(ValueError):
        restriction_entropy(span, state, method="fancy")


def test_entropy_invariant_under_joint_unitary_rotation():
    rng = np.random.default_rng(77)
    basis, _ = bf.random_block_span(rng, 5)
    psi = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    psi /= np.linalg.norm(psi)
    base = restriction_entropy(OperatorSpan(basis), AlgebraState(vector=psi))
    for seed in range(3):
        U = np.linalg.qr(
            np.random.default_rng(seed).standard_normal((5, 5))
            + 1j * np.random.default_rng(seed + 50).standard_normal((5, 5))
        )[0]
        rotated = OperatorSpan(np.einsum("ij,ajk,kl->ail", U, basis, U.conj().T))
        rep = restriction_entropy(rotated, AlgebraState(vector=U @ psi))
        assert abs(rep.entropy_nats - base.entropy_nats) < 1e-9


def test_entropy_vanishes_at_parameter_boundaries(presets):
    span, family = presets["ex3_choice2"]
    for theta in (1e-4, np.pi / 2 - 1e-4):
        rep = restriction_entropy(span, family.state(theta=theta))
        assert rep.entropy_nats < 1e-3


@pytest.mark.parametrize("seed", range(5))
def test_one_sided_restriction_equals_partial_trace(seed):
    rng = np.random.default_rng(400 + seed)
    dA, dB = int(rng.integers(2, 5)), int(rng.integers(2, 5))
    basis = np.array([
        np.kron(unit(dA, i, j), np.eye(dB) / np.sqrt(dB))
        for i in range(dA)
        for j in range(dA)
    ])
    span = OperatorSpan(basis)
    psi = rng.standard_normal(dA * dB) + 1j * rng.standard_normal(dA * dB)
    psi /= np.linalg.norm(psi)
    rep = restriction_entropy(span, AlgebraState(vector=psi))
    rho = partial_trace(psi, (dA, dB), keep="A")
    want = von_neumann_entropy(np.linalg.eigvalsh(rho))
    assert abs(rep.entropy_nats - want) < 1e-9


@pytest.mark.parametrize("seed", range(3))
def test_one_sided_functional_equals_reduced_state_moments(seed):
    # restriction to one-sided observables and the reduced density matrix
    # are the same functional: omega(K (x) 1) = trace(rho_A K)
    rng = np.random.default_rng(500 + seed)
    dA, dB = 3, 2
    psi = rng.standard_normal(dA * dB) + 1j * rng.standard_normal(dA * dB)
    psi /= np.linalg.norm(psi)
    state = AlgebraState(vector=psi)
    rho_a = partial_trace(psi, (dA, dB), keep="A")
    for _ in range(5):
        K = rng.standard_normal((dA, dA)) + 1j * rng.standard_normal((dA, dA))
        lhs = state.value(np.kron(K, np.eye(dB)))
        rhs = np.trace(rho_a @ K)
        assert abs(lhs - rhs) < 1e-12


TENSOR_FACTORS = [(2, 3), (3, 2), (2, 7), (3, 4), (4, 3), (2, 12), (3, 6), (4, 5), (4, 4), (4, 6), (3, 8),
                  (5, 5), (5, 7), (6, 6), (6, 4)]


@pytest.mark.parametrize("case", range(len(TENSOR_FACTORS)))
def test_both_routes_on_random_tensor_factor_algebras(case):
    k, m = TENSOR_FACTORS[case]
    gen, psi, weights = bf.random_tensor_factor(np.random.default_rng(630 + case), k, m)
    span = span_closure([gen], include_unit=True)
    assert span.dim == k * k
    rep = restriction_entropy(span, AlgebraState(vector=psi), method="both", seed=case)
    assert rep.methods_agree
    assert spectra_agree(rep.spectrum, weights, tol=1e-8)
    assert rep.commutant_dim == min(k, m) ** 2


@pytest.mark.parametrize("D", [2, 3, 4, 5, 6])
def test_both_routes_on_faithful_full_matrix_algebras(D):
    rng = np.random.default_rng(650 + D)
    X = rng.standard_normal((D, D)) + 1j * rng.standard_normal((D, D))
    rho = X @ X.conj().T
    rho /= np.trace(rho).real
    rep = restriction_entropy(full_matrix_algebra(D), AlgebraState(density=rho), method="both", seed=D)
    assert rep.methods_agree
    assert spectra_agree(rep.spectrum, np.linalg.eigvalsh(rho), tol=1e-8)
    assert (rep.gns_dim, rep.null_dim, rep.commutant_dim) == (D * D, 0, D * D)


def test_both_routes_on_faithful_full_m8_match_the_density_spectrum():
    # GNS dim 64: the size at which the all-commutator center took 1.5 s and 590 MB
    rng = np.random.default_rng(658)
    X = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    rho = X @ X.conj().T
    rho /= np.trace(rho).real
    rep = restriction_entropy(full_matrix_algebra(8), AlgebraState(density=rho), method="both")
    assert rep.methods_agree
    assert spectra_agree(rep.spectrum, np.linalg.eigvalsh(rho), tol=1e-10)
    assert (rep.gns_dim, rep.commutant_dim) == (64, 64)


@pytest.mark.parametrize("N", [4, 5])
def test_both_routes_agree_on_hecke_algebras(N):
    # several non-commuting generators, and multiplicities above 1 in every
    # block but one
    span = span_closure(bf.hecke_generators(N, 1.7), include_unit=True)
    blocks = wedderburn(span)
    rng = np.random.default_rng(780 + N)
    for _ in range(3):
        psi = rng.standard_normal(2 ** N) + 1j * rng.standard_normal(2 ** N)
        rep = restriction_entropy(span, AlgebraState(vector=psi, normalize=True), method="both",
                                  blocks=blocks)
        assert rep.methods_agree
        assert abs(rep.spectrum.sum() - 1.0) < 1e-12
        assert rep.gns_dim == span.dim - rep.null_dim


def test_both_routes_on_a_generator_a_hair_off_the_unit():
    # g = 1 + 1e-6 diag(0, 1, 2, 3) generates the diagonal algebra, whose
    # unit row is almost all of g's seed part: the closure must multiply by
    # it, and the restriction of a vector state is its diagonal
    g = np.eye(4) + 1e-6 * np.diag([0.0, 1.0, 2.0, 3.0])
    span = span_closure([g], include_unit=True)
    assert span.dim == 4
    rng = np.random.default_rng(795)
    psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    psi /= np.linalg.norm(psi)
    rep = restriction_entropy(span, AlgebraState(vector=psi), method="both")
    assert rep.methods_agree
    assert spectra_agree(rep.spectrum, np.abs(psi) ** 2, tol=1e-10)


@pytest.mark.parametrize("name", ["frame", "hecke"])
def test_gns_route_needs_no_structure_constants_on_closure_spans(monkeypatch, name):
    # the representation, the commutant and the closure check all come from
    # products with the state's factor and with the closure's generators
    rng = np.random.default_rng(790)
    if name == "frame":
        gen, psi, weights = bf.random_tensor_factor(rng, 4, 6)
        gens = [gen]
    else:
        gens, weights = bf.hecke_generators(4, 1.7), None
        psi = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    span = span_closure(gens, include_unit=True)
    monkeypatch.setattr(OperatorSpan, "structure_constants",
                        lambda self: pytest.fail("structure constants computed"))
    rep = restriction_entropy(span, AlgebraState(vector=psi, normalize=True), method="both")
    assert rep.methods_agree
    if weights is not None:
        assert spectra_agree(rep.spectrum, weights, tol=1e-10)


PLANTED_BLOCKS = [(D, rank) for D in (6, 8, 12, 16, 24) for rank in (1, 2, D)]


@pytest.mark.parametrize("case", range(len(PLANTED_BLOCKS)))
def test_both_routes_on_planted_block_algebras(case):
    # rank 1 is a pure vector state, rank D a faithful density
    D, rank = PLANTED_BLOCKS[case]
    for s in range(8):
        rng = np.random.default_rng(700 + 8 * case + s)
        basis, blocks = bf.random_block_span(rng, D, max_rank=4)
        X = rng.standard_normal((D, rank)) + 1j * rng.standard_normal((D, rank))
        if rank == 1:
            state = X[:, 0] / np.linalg.norm(X)
            algebra_state = AlgebraState(vector=state)
        else:
            state = X @ X.conj().T / np.linalg.norm(X) ** 2
            algebra_state = AlgebraState(density=state)
        rep = restriction_entropy(OperatorSpan(basis), algebra_state, method="both", seed=s)
        assert rep.methods_agree
        want = bf.planted_block_weights(basis, blocks, state)
        assert spectra_agree(rep.spectrum, want, tol=1e-10), (blocks, s)


@pytest.mark.parametrize("method", ["gns", "wedderburn"])
@pytest.mark.parametrize("decades", [4, 8, 12])
def test_graded_spectrum_densities_on_planted_block_algebras(decades, method):
    # Densities whose eigenvalues fall off over 4, 8 and 12 decades, each
    # route run alone. At 12 decades the smallest density eigenvalue
    # (about 1e-12) lies below the relative rank cut and is dropped from
    # the state's factor, and Gram eigenvalues reach about 6e-8, so the
    # GNS null space must be split by singular value. That regime is in
    # scope: the dropped weight is far below the 1e-10 bound, and every
    # case must still match the planted weights.
    for D in (6, 8, 12):
        for s in range(20):
            rng = np.random.default_rng(900 + 100 * decades + 10 * D + s)
            basis, blocks = bf.random_block_span(rng, D, max_rank=4)
            U = bf.random_frame(rng, D)
            rho = U @ np.diag(np.logspace(0, -decades, D)) @ U.conj().T
            rho /= np.trace(rho).real
            rep = restriction_entropy(OperatorSpan(basis), AlgebraState(density=rho), method=method)
            want = bf.planted_block_weights(basis, blocks, rho)
            assert spectra_agree(rep.spectrum, want, tol=1e-10), (D, s, blocks)


#: sin^2(theta) log-spaced over [1.6e-10, 0.1]: near-null Gram eigenvalues
#: down to about 8e-11, where the GNS null split and the dim-1 commutant
#: center must both hold up.
EX4_SMALL_ANGLES = np.logspace(np.log10(1.6e-10), -1.0, 40)


@pytest.mark.parametrize("index", range(len(EX4_SMALL_ANGLES)))
def test_left_location_small_angles_match_binary_entropy(presets, preset_blocks, index):
    span, family = presets["ex4_left"]
    sin2 = float(EX4_SMALL_ANGLES[index])
    theta = float(np.arcsin(np.sqrt(sin2)))
    rep = restriction_entropy(span, family.state(theta=theta), method="both",
                              blocks=preset_blocks["ex4_left"])
    assert rep.methods_agree
    assert abs(rep.entropy_nats - bf.entropy_of(bf.binary_weights(theta))) < 1e-12


@pytest.mark.parametrize("sin2", np.logspace(np.log10(1.6e-10), -8, 25))
def test_left_location_smallest_weight_is_resolved_to_roundoff(presets, sin2):
    span, family = presets["ex4_left"]
    theta = float(np.arcsin(np.sqrt(sin2)))
    rep = restriction_entropy(span, family.state(theta=theta), method="gns")
    assert rep.spectrum.size == 2
    assert abs(rep.spectrum.min() - np.sin(theta) ** 2) < 1e-14


def test_spectra_agreement_helper():
    assert spectra_agree([0.5, 0.5], [0.5, 0.5 + 1e-10])
    assert spectra_agree([0.5, 0.5, 1e-12], [0.5, 0.5])
    assert not spectra_agree([0.6, 0.4], [0.5, 0.5])
