import ast
import inspect
import re
from pathlib import Path

import numpy as np
import pytest

from gnsentropy import AlgebraState, DecompositionError, full_matrix_algebra, restriction_entropy
from gnsentropy import center, linalg, span_closure
from gnsentropy.entropy import PURITY_TOL
from gnsentropy.fock import example_generators
from gnsentropy.linalg import (
    DEFAULT_RTOL,
    INTEGER_TOL,
    NULL_FLOOR,
    above_cut,
    check_int,
    eigh_null_split,
    check_square,
    orthonormalize_rows,
    right_singular,
    row_basis,
)


def cgauss(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def test_rows_are_orthonormal():
    rows = cgauss(np.random.default_rng(1), 20, 30)
    out = orthonormalize_rows(rows)
    assert out.shape == (20, 30)
    assert np.abs(out @ out.conj().T - np.eye(20)).max() < 1e-14


def test_rows_keep_input_order():
    # row j of the output lies in the span of the first j+1 inputs and is
    # orthogonal to the first j of them
    rows = cgauss(np.random.default_rng(2), 6, 10)
    out = orthonormalize_rows(rows)
    overlaps = rows @ out.conj().T
    assert np.abs(np.triu(overlaps, k=1)).max() < 1e-14
    assert np.abs(overlaps @ out - rows).max() < 1e-13


def test_first_nonzero_row_comes_first_normalized():
    rng = np.random.default_rng(3)
    v, w = cgauss(rng, 2, 5)
    out = orthonormalize_rows([np.zeros(5), v, w])
    assert out.shape == (2, 5)
    assert np.allclose(out[0], v / np.linalg.norm(v), rtol=0.0, atol=1e-15)


def test_dependent_rows_are_dropped():
    a, b, c = cgauss(np.random.default_rng(4), 3, 8)
    out = orthonormalize_rows([a, b, a - 2j * b, 3 * a, c, b + c])
    assert out.shape == (3, 8)
    want = orthonormalize_rows([a, b, c])
    assert np.abs(out @ out.conj().T - np.eye(3)).max() < 1e-14
    assert np.abs(out - want).max() < 1e-13


def test_rows_spanned_by_against_are_dropped():
    rng = np.random.default_rng(5)
    fixed = orthonormalize_rows(cgauss(rng, 3, 9))
    x = cgauss(rng, 9)
    inside = [2 * fixed[0] - 1j * fixed[2], fixed[1]]
    out = orthonormalize_rows(inside + [x, x + fixed[0]], against=fixed)
    assert out.shape == (1, 9)
    assert np.abs(out @ fixed.conj().T).max() < 1e-14
    assert abs(np.linalg.norm(out[0]) - 1.0) < 1e-14
    # the kept row is x's component orthogonal to the fixed block
    resid = x - (fixed.conj() @ x) @ fixed
    assert abs(abs(np.vdot(out[0], resid)) - np.linalg.norm(resid)) < 1e-12


def test_empty_and_zero_input():
    assert orthonormalize_rows([]).shape == (0, 0)
    fixed = np.eye(4, dtype=complex)[:2]
    assert orthonormalize_rows([], against=fixed).shape == (0, 4)
    assert orthonormalize_rows(np.zeros((3, 4))).shape == (0, 4)


@pytest.mark.parametrize("rows, cols", [(12, 5), (3, 7), (0, 4)])
def test_right_singular_pads_values_and_keeps_every_right_vector(rows, cols):
    A = cgauss(np.random.default_rng(4), rows, cols)
    s, vh = right_singular(A)
    assert s.shape == (cols,) and vh.shape == (cols, cols)
    assert np.all(np.diff(s) <= 0) and np.all(s[min(rows, cols):] == 0)
    assert np.abs(vh @ vh.conj().T - np.eye(cols)).max() < 1e-13
    # A^dag A = W diag(s^2) W^dag with W = vh^dag
    gram = A.conj().T @ A
    assert np.abs(vh.conj().T @ np.diag(s**2) @ vh - gram).max() < 1e-12 * max(1.0, np.abs(gram).max())
    want = np.linalg.svd(A, compute_uv=False)
    assert np.allclose(s[: want.size], want, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("rows, cols", [(12, 5), (3, 7), (5, 5)])
def test_right_singular_left_vectors_pair_with_the_right_ones(rows, cols):
    A = cgauss(np.random.default_rng(6), rows, cols)
    u, s, vh = right_singular(A, left=True)
    s0, vh0 = right_singular(A)
    assert np.array_equal(s, s0) and np.array_equal(vh, vh0)
    m = min(rows, cols)
    assert u.shape == (rows, m)
    assert np.abs(u.conj().T @ u - np.eye(m)).max() < 1e-13
    assert np.abs(A @ vh[:m].conj().T - u * s[:m]).max() < 1e-12


def wide_stack(rng, rows, cols, ranks, real):
    """A stack of rows x cols matrices, item i of rank ranks[i] (0: all zero),
    with a duplicate row and a zero row in each item."""
    draw = (lambda *shape: rng.standard_normal(shape)) if real else (lambda *shape: cgauss(rng, *shape))
    A = np.stack([draw(rows, rank) @ draw(rank, cols) for rank in ranks])
    A[:, 1] = A[:, 0]
    A[:, -1] = 0.0
    return A


@pytest.mark.parametrize("real", [False, True])
@pytest.mark.parametrize("rtol", [1e-10, 0.0])
@pytest.mark.parametrize("rows, cols, ranks", [
    (6, 25, [3]),
    (25, 625, [24, 10, 1, 0]),
    (12, 40, [0, 0]),
    (8, 9, [5, 7, 2]),
])
def test_row_basis_of_a_wide_stack_matches_the_plain_svd(rows, cols, ranks, rtol, real):
    A = wide_stack(np.random.default_rng(rows + cols), rows, cols, ranks, real)
    vh, rank = row_basis(A, rtol)
    _, s0, vh0 = np.linalg.svd(A, full_matrices=False)
    cut = np.maximum((rtol * s0.max(axis=-1, initial=0.0, keepdims=True)) ** 2, NULL_FLOOR)
    want = np.count_nonzero(s0**2 > cut, axis=-1)
    # the duplicate and the zero row take one rank each from a full-rank draw
    assert rank.tolist() == want.tolist() == [min(k, rows - 2) for k in ranks]
    assert vh.shape == A.shape and vh.dtype == A.dtype
    for V, V0, k in zip(vh, vh0, rank):
        V, V0 = V[:k], V0[:k]
        assert np.abs(V @ V.conj().T - np.eye(k)).max(initial=0.0) <= 1e-12
        assert np.linalg.norm(V.conj().T @ V - V0.conj().T @ V0, 2) <= 1e-12


@pytest.mark.parametrize("case", ["pure_m5", "ex5_bosons"])
def test_row_basis_hands_no_wide_matrix_to_the_svd(monkeypatch, case):
    plain_svd, seen = np.linalg.svd, []

    def svd(a, *args, **kwargs):
        if inspect.currentframe().f_back.f_code is linalg.row_basis.__code__:
            seen.append(np.shape(a))
            assert a.shape[-2] >= a.shape[-1], f"row_basis took the SVD of a wide {a.shape}"
        return plain_svd(a, *args, **kwargs)

    if case == "pure_m5":
        # n_null = 20 null classes against r^2 = 25
        x = cgauss(np.random.default_rng(0), 5)
        span, state = full_matrix_algebra(5), AlgebraState(vector=x, normalize=True)
    else:
        span, family = example_generators("ex5_bosons")
        state = family.state({"theta": 0.7, "phi": 0.3})
    monkeypatch.setattr(np.linalg, "svd", svd)
    restriction_entropy(span, state, method="both")
    # the basis of pi(N), the images of the null classes, is a wide stack in both cases
    assert seen


def test_integer_readings_round_within_the_tolerance():
    assert check_int(3.0 + 0.5 * INTEGER_TOL, "x") == 3
    assert check_int(np.float64(2.0), "x") == 2
    assert type(check_int(np.float64(2.0), "x")) is int
    assert check_square(9.0 - 0.5 * INTEGER_TOL, "x") == 3


@pytest.mark.parametrize("value, reason", [
    (np.nan, "nan is not a positive integer"),
    (np.inf, "inf is not a positive integer"),
    (-1.0, "-1.0 is not a positive integer"),
    (0.0, "0.0 is not a positive integer"),
    (np.float64(np.sqrt(2.0)), "1.4142135623730951 is not a positive integer"),
    (2.0 + 10 * INTEGER_TOL, "2.00001 is not a positive integer"),
])
def test_bad_readings_are_decomposition_errors_with_plain_floats(value, reason):
    for check in (check_int, check_square):
        with pytest.raises(DecompositionError) as info:
            check(value, "reading")
        assert str(info.value) == f"reading = {reason}"


def test_a_non_square_reading_is_a_decomposition_error():
    with pytest.raises(DecompositionError, match=r"^reading = 2\.0 is not a perfect square$"):
        check_square(np.float64(2.0), "reading")


def test_an_all_roundoff_psd_matrix_is_null_at_rtol_0():
    K = 1e-16 * cgauss(np.random.default_rng(11), 5, 36)
    _, _, n_null = eigh_null_split(K @ K.conj().T, rtol=0.0)
    assert n_null == 5
    # the commutator Gram matrix of a commutative span is such a matrix
    q = np.linalg.qr(cgauss(np.random.default_rng(12), 3, 3))[0]
    span = span_closure([q @ np.diag([1.0, 2.0, 3.0]) @ q.conj().T], include_unit=True, rtol=0.0)
    assert span.dim == 3 and center(span, rtol=0.0).dim == 3


def test_roundoff_relative_to_a_large_scale_is_not_rank_at_rtol_0():
    # singular values at eps times a scale of 1e6 sit far above the
    # absolute floor, but not above size * eps times the largest
    rng = np.random.default_rng(13)
    A = 1e6 * cgauss(rng, 6, 2) @ cgauss(rng, 2, 6)
    assert row_basis(A, 0.0)[1] == 2
    assert np.linalg.matrix_rank(A) == 2


def test_cut_counts_per_item_of_a_stack():
    values = np.array([[1.0, 1e-9, 1e-11, 0.0],
                       [1e-3, 1e-12, 5e-13, 1e-14],
                       [0.0, 0.0, 0.0, 0.0]])
    scale = values.max(axis=-1, keepdims=True)
    keep = above_cut(values, scale, DEFAULT_RTOL, 4)
    assert keep.shape == values.shape
    assert np.count_nonzero(keep, axis=-1).tolist() == [2, 1, 0]


def test_values_on_the_cut_are_dropped():
    cut = above_cut(None, 2.0, 0.25, 1)
    assert cut == 0.5
    assert above_cut(np.array([cut, np.nextafter(cut, 1.0)]), 2.0, 0.25, 1).tolist() == [False, True]
    # the floors: NULL_FLOOR on squares, its square root on other values
    for kind, floor in (("square", NULL_FLOOR), ("norm", np.sqrt(NULL_FLOOR))):
        assert above_cut(None, 0.0, 0.0, 4, kind) == floor
        assert above_cut(np.array([floor, 2 * floor]), 0.0, 0.0, 4, kind).tolist() == [False, True]
    # a residual may exceed the norm cut by CLOSURE_SLACK
    assert above_cut(None, 1.0, 1e-10, 4, "residual") == pytest.approx(1e-7, rel=1e-15)
    # nor below numpy's matrix_rank rule, size * eps times the scale
    assert above_cut(None, 1e6, 0.0, 36) == 36 * np.finfo(float).eps * 1e6


def graded_stack(rng, count, rows, cols, low):
    """A stack whose items have singular values spread log-uniformly from 10^low to 10."""
    s = 10.0 ** rng.uniform(low, 1.0, (count, min(rows, cols)))
    u = np.linalg.qr(cgauss(rng, count, rows, rows))[0][..., : s.shape[1]]
    v = np.linalg.qr(cgauss(rng, count, cols, cols))[0][..., : s.shape[1]]
    return (u * s[:, None]) @ v.conj().swapaxes(1, 2)


@pytest.mark.parametrize("rows, cols", [(12, 7), (6, 30), (9, 9)])
def test_default_counts_match_the_formulas_they_replace(rows, cols):
    rng, rtol = np.random.default_rng(rows * cols), DEFAULT_RTOL
    A = graded_stack(rng, 200, rows, cols, -16.0)
    s = np.linalg.svd(A, compute_uv=False)
    s0, size = s[:, :1], max(rows, cols)
    count = lambda keep: np.count_nonzero(keep, axis=-1).tolist()
    # row_basis
    assert count(above_cut(s, s0, rtol, size)) == count(s**2 > np.maximum((rtol * s0) ** 2, NULL_FLOOR))
    assert row_basis(A, rtol)[1].tolist() == count(s**2 > np.maximum((rtol * s0) ** 2, NULL_FLOOR))
    # the GNS null split, on the Gram eigenvalues s^2
    assert (count(above_cut(s**2, s0**2, rtol, size, "square"))
            == count(s**2 > np.maximum(rtol * s0**2, NULL_FLOOR)))
    # the allowed u of the GNS commutant, against max(1, s0)
    one = np.maximum(1.0, s0)
    assert count(above_cut(s, one, rtol, size)) == count(s**2 > np.maximum((rtol * one) ** 2, NULL_FLOOR))
    # Gram-Schmidt row norms against the largest, which had no floor
    norms = s / s0
    assert count(above_cut(norms, 1.0, rtol, size)) == count(norms > rtol)
    # eigh_null_split on a PSD stack
    for M in (A @ A.conj().swapaxes(1, 2))[:50]:
        vals = np.linalg.eigvalsh(M)
        want = np.count_nonzero(vals <= max(rtol * max(vals[-1], 0.0), NULL_FLOOR))
        assert eigh_null_split(M, rtol)[2] == want


def test_no_cut_bypasses_above_cut():
    # NULL_FLOOR and CLOSURE_SLACK are read inside above_cut alone, apart
    # from the lines that define them
    src = Path(linalg.__file__).parent
    allowed = set()
    for node in ast.parse((src / "linalg.py").read_text()).body:
        if isinstance(node, ast.FunctionDef) and node.name == "above_cut":
            allowed |= set(range(node.lineno, node.end_lineno + 1))
        elif isinstance(node, ast.Assign) and node.targets[0].id in ("NULL_FLOOR", "CLOSURE_SLACK"):
            allowed.add(node.lineno)
    assert len(allowed) > 2
    hits = [f"{path.name}:{i}: {line.strip()}"
            for path in sorted(src.glob("*.py"))
            for i, line in enumerate(path.read_text().splitlines(), 1)
            if re.search(r"NULL_FLOOR|CLOSURE_SLACK", line)
            and not (path.name == "linalg.py" and i in allowed)]
    assert not hits


def test_named_tolerances_are_assigned_in_linalg_alone():
    src = Path(linalg.__file__).parent
    hits = [f"{path.name}:{node.lineno}: {name}"
            for path in sorted(src.glob("*.py")) if path.name != "linalg.py"
            for node in ast.parse(path.read_text()).body
            if isinstance(node, (ast.Assign, ast.AnnAssign))
            for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
            for name in [n.id for n in ast.walk(target) if isinstance(n, ast.Name)]
            if name.endswith("_TOL")]
    assert not hits
    # the old import path still works
    assert PURITY_TOL is linalg.PURITY_TOL
