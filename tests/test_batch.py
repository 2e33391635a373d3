"""The batched entry point against a loop of the single-state one."""

import sys
from collections import Counter

import numpy as np
import pytest

from gnsentropy import (
    AlgebraState,
    DecompositionError,
    full_matrix_algebra,
    restriction_entropies,
    restriction_entropy,
    span_closure,
    wedderburn,
)
from gnsentropy import linalg
from gnsentropy.cli import plane_to_angles
from gnsentropy.entropy import state_chunks
from gnsentropy.fock import example_generators

from test_gns import FAMILY_GRIDS

METHODS = ("both", "gns", "wedderburn")


def random_density(rng, D, rank):
    X = rng.standard_normal((D, rank)) + 1j * rng.standard_normal((D, rank))
    return AlgebraState(density=X @ X.conj().T, normalize=True)


def assert_reports_match(got, want, tol=1e-14):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert (a.method, a.gns_dim, a.null_dim, a.commutant_dim, a.methods_agree, a.pure) == \
               (b.method, b.gns_dim, b.null_dim, b.commutant_dim, b.methods_agree, b.pure)
        assert a.spectrum.shape == b.spectrum.shape
        assert np.abs(a.spectrum - b.spectrum).max(initial=0.0) <= tol
        assert abs(a.entropy_nats - b.entropy_nats) <= tol
        if b.components is None:
            assert a.components is None
        else:
            assert [c[:2] for c in a.components] == [c[:2] for c in b.components]
            assert max(abs(x[2] - y[2]) for x, y in zip(a.components, b.components)) <= tol
        if b.blocks is None:
            assert a.blocks is None
        else:
            assert [blk[:2] for blk in a.blocks] == [blk[:2] for blk in b.blocks]
            for x, y in zip(a.blocks, b.blocks):
                assert np.abs(np.subtract(x[2], y[2])).max() <= tol


def assert_batch_matches_loop(span, states):
    for method in METHODS:
        got = restriction_entropies(span, states, method=method)
        assert_reports_match(got, [restriction_entropy(span, st, method=method) for st in states])


@pytest.mark.parametrize("name", sorted(FAMILY_GRIDS))
def test_batch_matches_a_loop_on_every_preset_family(presets, name):
    span, family = presets[name]
    assert_batch_matches_loop(span, [family.state(params) for params in FAMILY_GRIDS[name]])


def mixed_batch(name):
    """Vector and density states of several factor widths on one span."""
    rng = np.random.default_rng(sum(map(ord, name)))
    if name == "m3":
        span = full_matrix_algebra(3)
        states = [AlgebraState(vector=[1, 0, 0]), random_density(rng, 3, 3),
                  AlgebraState(vector=[0.6, 0.8j, 0]), random_density(rng, 3, 2),
                  random_density(rng, 3, 3)]
        return span, states
    span, family = example_generators(name)
    D = family.ambient_dim
    states = [family.state(), random_density(rng, D, 2), random_density(rng, D, D),
              AlgebraState(vector=np.eye(D)[0])]
    if family.names:
        states += [family.state({family.names[0]: 0.0}), random_density(rng, D, 1)]
    return span, states


@pytest.mark.parametrize("name", ["ex2_bell", "ex4_left", "ex5_bosons", "m3"])
def test_batch_matches_a_loop_on_mixed_batches(name):
    span, states = mixed_batch(name)
    reports = restriction_entropies(span, states)
    # several factor widths and GNS dimensions share the batch
    assert len({st.factor.shape[1] for st in states}) >= 2
    assert len({rep.gns_dim for rep in reports}) >= 2
    if name in ("ex2_bell", "ex4_left"):
        assert any(m > 1 for rep in reports for _, m, _ in rep.components)
    assert_batch_matches_loop(span, states)


def test_a_report_does_not_depend_on_its_batch():
    span, states = mixed_batch("ex4_left")
    _, family = example_generators("ex4_left")
    state = family.state(theta=0.4)
    alone = restriction_entropy(span, state)
    for batch in ([state] + states, states[:2] + [state] + states[2:], [state, state]):
        report = restriction_entropies(span, batch)[batch.index(state)]
        assert np.array_equal(report.spectrum, alone.spectrum)
        assert report.entropy_nats == alone.entropy_nats
        assert report.components == alone.components
        assert report.blocks == alone.blocks


def test_an_empty_batch_gives_no_reports(presets):
    span, _ = presets["ex1_m2"]
    assert restriction_entropies(span, []) == ()


def loop_error(span, states, method):
    for st in states:
        try:
            restriction_entropy(span, st, method=method)
        except Exception as exc:  # the loop's first error, whatever its type
            return exc
    raise AssertionError("the loop raised nothing")


def assert_raises_like_the_loop(span, states, method="both"):
    want = loop_error(span, states, method)
    with pytest.raises(type(want)) as info:
        restriction_entropies(span, states, method=method)
    assert str(info.value) == str(want)
    return info.value


@pytest.mark.parametrize("method", METHODS)
def test_a_batch_raises_the_first_failing_state_of_the_loop(presets, method):
    span, family = presets["ex5_bosons"]
    wrong_dim = AlgebraState(vector=[1, 0, 0])
    good = [family.state(theta=t, phi=1.0) for t in (0.3, 0.9)]
    err = assert_raises_like_the_loop(span, [good[0], wrong_dim, good[1]], method)
    assert isinstance(err, ValueError)


@pytest.mark.parametrize("bad", [35, 0])
@pytest.mark.parametrize("method", METHODS)
def test_a_failing_state_in_either_of_two_chunks_raises_like_the_loop(presets, method, bad):
    span, family = presets["ex5_bosons"]
    states = [family.state(theta=0.1 + 0.03 * i, phi=0.05 * i) for i in range(40)]
    assert [len(states[c]) for c in state_chunks(span, 40)] == [32, 8]
    states[bad] = AlgebraState(vector=[1, 0, 0])
    err = assert_raises_like_the_loop(span, states, method)
    assert "algebra acts on dimension 6, state lives on 3" in str(err)


@pytest.mark.parametrize("method", METHODS)
def test_a_non_unital_span_raises_like_the_loop(method):
    span = span_closure([np.diag([1.0, 0.0, 0.0]).astype(complex)], include_unit=False)
    assert not span.has_unit
    states = [AlgebraState(vector=np.eye(3)[i]) for i in range(3)]
    err = assert_raises_like_the_loop(span, states, method)
    assert "unital span" in str(err)


def test_a_later_stage_failure_of_an_earlier_state_wins(presets, non_central_projections):
    # under the fixture the faithful qubit state fails in its isotypic
    # decomposition, after the mis-sized state has failed in its GNS build
    span, family = presets["ex1_m2"]
    wrong_dim = AlgebraState(vector=[1, 0, 0])
    err = assert_raises_like_the_loop(span, [family.state({"lambda": 0.7}), wrong_dim])
    assert isinstance(err, DecompositionError)
    err = assert_raises_like_the_loop(span, [wrong_dim, family.state({"lambda": 0.7})])
    assert not isinstance(err, DecompositionError)


def test_a_lapack_failure_lands_on_its_own_state(presets, monkeypatch):
    """A stacked SVD that fails sends its chunk back one state at a time:
    the batch raises the error of the state whose own SVD fails."""
    span, family = presets["ex1_m2"]
    states = [family.state({"lambda": lam}) for lam in (0.5, 0.3, 0.9)]
    svd = np.linalg.svd

    def fails_on_lambda_03(a, *args, **kw):
        if np.isclose(np.abs(a), np.sqrt(0.3)).any():
            raise np.linalg.LinAlgError("SVD did not converge")
        return svd(a, *args, **kw)

    monkeypatch.setattr(np.linalg, "svd", fails_on_lambda_03)
    assert_raises_like_the_loop(span, states)


def test_a_stacked_lapack_failure_is_raised_as_its_state_alone_raises_it(presets, monkeypatch):
    """The chunk fallback, seen through an error that names its stack size:
    the stacked call fails on 3 states, the loop on 1."""
    span, family = presets["ex1_m2"]
    states = [family.state({"lambda": lam}) for lam in (0.5, 0.3, 0.9)]
    svd = np.linalg.svd

    def fails_on_lambda_03(a, *args, **kw):
        if np.isclose(np.abs(a), np.sqrt(0.3)).any():
            raise np.linalg.LinAlgError(f"SVD did not converge on a stack of {len(a)}")
        return svd(a, *args, **kw)

    monkeypatch.setattr(np.linalg, "svd", fails_on_lambda_03)
    err = assert_raises_like_the_loop(span, states)
    assert str(err) == "SVD did not converge on a stack of 1"


def test_a_batch_of_one_pays_few_stacks_and_regroups(monkeypatch):
    """A `both` solve of one full-rank density on full M_5, its span's blocks
    cached: one pass per stage, at most 7 regroups and 8 stacks."""
    counts = dict.fromkeys(("regroup", "stack"), 0)
    for name in counts:
        original = getattr(linalg, name)

        def counted(*args, _name=name, _original=original):
            counts[_name] += 1
            return _original(*args)

        for module in [m for key, m in sys.modules.items() if key.startswith("gnsentropy")]:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    span = full_matrix_algebra(5)
    wedderburn(span)
    counts.update(regroup=0, stack=0)
    rep = restriction_entropy(span, random_density(np.random.default_rng(5), 5, 5))
    assert rep.gns_dim == 25 and rep.methods_agree
    assert counts["regroup"] <= 7 and counts["stack"] <= 8


def count_calls(monkeypatch) -> list:
    """From here on, log each LAPACK factorization as (name, item shape) and
    each regroup and stack call as (name,)."""
    calls = []
    for name in ("eigh", "eigvalsh", "svd", "qr"):
        def factorization(a, *args, _name=name, _original=getattr(np.linalg, name), **kw):
            calls.append((_name, np.shape(a)[1:]))
            return _original(a, *args, **kw)

        monkeypatch.setattr(np.linalg, name, factorization)
    for name in ("regroup", "stack"):
        original = getattr(linalg, name)

        def bookkeeping(*args, _name=name, _original=original):
            calls.append((_name,))
            return _original(*args)

        for module in [m for key, m in sys.modules.items() if key.startswith("gnsentropy")]:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, bookkeeping)
    return calls


def test_a_chunk_of_32_states_of_one_shape_makes_the_calls_of_a_chunk_of_2(monkeypatch):
    """Each stage stacks the states that share a shape. 32 generic grid
    states that a solve alone takes through the same factorization shapes
    make, as one chunk, exactly the LAPACK, regroup and stack calls that 2
    of them make: no stage loops over states."""
    span, family = example_generators("ex5_bosons")
    wedderburn(span)
    axis = np.linspace(-2.0, 2.0, 21)
    states = [family.state(theta=theta, phi=phi)
              for theta, phi in (plane_to_angles(float(x), float(y)) for x in axis for y in axis)]
    calls = count_calls(monkeypatch)

    def solve(batch):
        calls.clear()
        restriction_entropies(span, batch)
        return Counter(calls)

    shapes = [tuple(sorted(c for c in solve([st]) if len(c) == 2)) for st in states]
    common, _ = Counter(shapes).most_common(1)[0]
    chunk = [st for st, shape in zip(states, shapes) if shape == common][:32]
    assert len(chunk) == 32 and len(state_chunks(span, 32)) == 1
    assert sum(1 for c in common if c[0] == "eigh") >= 1  # the refinement ran
    assert solve(chunk) == solve(chunk[:2])
