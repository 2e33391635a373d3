import gc
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from gnsentropy.cli import (
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_VALIDATION,
    grid_rows,
    main,
    parse_matrix,
    parse_vector,
    plane_to_angles,
    sweep_scenario,
)
from gnsentropy.entropy import LN2, restriction_entropies
from gnsentropy.fock import example_generators


def write_spec(tmp_path, name, spec):
    path = tmp_path / name
    path.write_text(json.dumps(spec))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# serialization


def test_vector_parsing_round_trip():
    v = parse_vector([[1.0, 0.0], [0.0, -1.0]], 2, "v")
    assert np.array_equal(v, np.array([1.0, -1.0j]))
    with pytest.raises(ValueError):
        parse_vector([[1.0, 0.0]], 2, "v")


def test_matrix_parsing_accepts_nested_and_flat():
    nested = [[[1, 0], [0, 0]], [[0, 0], [2, 0]]]
    flat = [[1, 0], [0, 0], [0, 0], [2, 0]]
    m1 = parse_matrix(nested, 2, "m")
    m2 = parse_matrix(flat, 2, "m")
    assert np.array_equal(m1, m2)
    with pytest.raises(ValueError):
        parse_matrix([[1, 0], [0, 0], [0, 0]], None, "m")


# ---------------------------------------------------------------------------
# run


def test_run_bell_preset(tmp_path, capsys):
    spec = write_spec(tmp_path, "s.json", {
        "algebra": {"preset": "ex2_bell"},
        "state": {"parameters": {}},
    })
    code, out, _ = run_cli(capsys, "run", spec)
    assert code == EXIT_OK
    report = json.loads(out)
    assert abs(report["entropy_nats"] - LN2) < 1e-9
    assert report["pure"] is False
    assert report["methods_agree"] is True
    assert report["gns_dim"] == 4


def test_run_preset_boundary_is_pure(tmp_path, capsys):
    spec = write_spec(tmp_path, "s.json", {
        "algebra": {"preset": "ex3_choice2"},
        "state": {"parameters": {"theta": 0.0}},
    })
    code, out, _ = run_cli(capsys, "run", spec)
    report = json.loads(out)
    assert code == EXIT_OK
    assert report["entropy_nats"] < 1e-9
    assert report["pure"] is True
    assert report["gns_dim"] == 2


def test_run_qubit_endpoint(tmp_path, capsys):
    spec = write_spec(tmp_path, "s.json", {
        "algebra": {"preset": "ex1_m2"},
        "state": {"parameters": {"lambda": 1.0}},
    })
    code, out, _ = run_cli(capsys, "run", spec)
    assert code == EXIT_OK
    assert json.loads(out)["entropy_nats"] < 1e-9


def test_run_with_explicit_generators(tmp_path, capsys):
    # one-sided qubit observables inside two qubits, singlet state
    eye = [[1, 0], [0, 1]]
    sx = [[0, 1], [1, 0]]
    sz = [[1, 0], [0, -1]]

    def kron_pairs(a):
        m = np.kron(np.array(a, dtype=complex), np.eye(2))
        return [[[z.real, z.imag] for z in row] for row in m]

    s = 1 / np.sqrt(2)
    spec = write_spec(tmp_path, "s.json", {
        "ambient_dim": 4,
        "algebra": {"generators": [kron_pairs(eye), kron_pairs(sx), kron_pairs(sz)]},
        "state": {"vector": [[0, 0], [s, 0], [-s, 0], [0, 0]]},
        "seed": 3,
    })
    code, out, _ = run_cli(capsys, "run", spec)
    assert code == EXIT_OK
    report = json.loads(out)
    assert abs(report["entropy_nats"] - LN2) < 1e-9


def test_run_log_base_flag(tmp_path, capsys):
    spec = write_spec(tmp_path, "s.json", {
        "algebra": {"preset": "ex2_bell"},
        "state": {"parameters": {}},
    })
    code, out, _ = run_cli(capsys, "run", spec, "--log-base", "2")
    assert code == EXIT_OK
    report = json.loads(out)
    assert abs(report["entropy"] - 1.0) < 1e-9


def test_run_tolerance_override_moves_the_null_cut(tmp_path, capsys):
    # the squared state weight ~1e-12 sits between the default relative cut
    # and a stricter one, so the quotient dimension must change with --tol
    spec = write_spec(tmp_path, "s.json", {
        "algebra": {"preset": "ex3_choice2"},
        "state": {"parameters": {"theta": 1e-6}},
    })
    code, out, _ = run_cli(capsys, "run", spec)
    assert code == EXIT_OK
    default = json.loads(out)
    code, out, _ = run_cli(capsys, "run", spec, "--tol", "1e-14")
    assert code == EXIT_OK
    strict = json.loads(out)
    assert (default["gns_dim"], default["null_dim"]) == (2, 3)
    assert (strict["gns_dim"], strict["null_dim"]) == (3, 2)
    assert default["methods_agree"] and strict["methods_agree"]


def test_run_validation_errors(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run_cli(capsys, "run", str(bad))
    assert code == EXIT_VALIDATION and "error" in err

    spec = write_spec(tmp_path, "s.json", {
        "algebra": {"preset": "ex2_bell"},
        "state": {"vector": [[1, 0], [0, 0]]},
    })
    code, _, err = run_cli(capsys, "run", spec)
    assert code == EXIT_VALIDATION

    spec = write_spec(tmp_path, "s2.json", {
        "algebra": {"preset": "nope"},
        "state": {"parameters": {}},
    })
    code, _, _ = run_cli(capsys, "run", spec)
    assert code == EXIT_VALIDATION


# ---------------------------------------------------------------------------
# sweep


@pytest.mark.parametrize("method", ["gns", "wedderburn"])
def test_run_exits_3_when_a_dimension_reading_is_not_an_integer(
        tmp_path, capsys, non_central_projections, method):
    spec = write_spec(tmp_path, "s.json", {
        "algebra": {"preset": "ex1_m2"},
        "state": {"parameters": {"lambda": 0.7}},
    })
    code, _, err = run_cli(capsys, "run", spec, "--method", method)
    assert code == EXIT_NUMERICAL
    assert "numerical failure" in err and "is not a perfect square" in err


def test_sweep_pair_subalgebra_golden_column(tmp_path, capsys):
    spec = write_spec(tmp_path, "s.json", {
        "algebra": {"preset": "ex3_choice2"},
        "state": {"parameters": {"theta": 0.0}},
    })
    code, out, _ = run_cli(
        capsys, "sweep", spec, "--param", "theta",
        "--from", "0", "--to", str(np.pi / 2), "--steps", "5",
    )
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "theta,entropy_nats,entropy_bits,gns_dim,null_dim"
    rows = [line.split(",") for line in lines[1:]]
    entropies = [float(r[1]) for r in rows]
    want = [0.0, 0.41649553069968748, LN2, 0.41649553069968748, 0.0]
    assert np.abs(np.array(entropies) - want).max() < 1e-9
    assert [r[3] for r in rows] == ["2", "3", "3", "3", "1"]


def test_sweep_qubit_family(tmp_path, capsys):
    spec = write_spec(tmp_path, "s.json", {
        "algebra": {"preset": "ex1_m2"},
        "state": {"parameters": {}},
    })
    code, out, _ = run_cli(
        capsys, "sweep", spec, "--param", "lambda",
        "--from", "0", "--to", "1", "--steps", "3",
    )
    assert code == EXIT_OK
    entropies = [float(line.split(",")[1]) for line in out.strip().splitlines()[1:]]
    assert np.abs(np.array(entropies) - [0.0, LN2, 0.0]).max() < 1e-9


def test_sweep_is_byte_deterministic(tmp_path, capsys):
    spec = write_spec(tmp_path, "s.json", {
        "algebra": {"preset": "ex5_bosons"},
        "state": {"parameters": {"phi": 0.7}},
        "seed": 5,
    })
    args = ("sweep", spec, "--param", "theta", "--from", "0.1", "--to", "1.4", "--steps", "7")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_sweep_output_does_not_depend_on_seed(tmp_path, capsys):
    spec = write_spec(tmp_path, "s.json", {
        "algebra": {"preset": "ex4_left"},
        "state": {"parameters": {}},
    })
    args = ("sweep", spec, "--param", "theta", "--from", "0", "--to", "1.5", "--steps", "200")
    code0, out0, _ = run_cli(capsys, *args, "--seed", "0")
    code3, out3, _ = run_cli(capsys, *args, "--seed", "3")
    assert code0 == code3 == EXIT_OK
    assert out0 == out3
    grids = [run_cli(capsys, "grid", "--resolution", "5", "--seed", seed)[1] for seed in ("0", "3")]
    assert grids[0] == grids[1]


def test_small_angle_sweep_succeeds_on_both_routes(tmp_path, capsys):
    # near-null Gram eigenvalues down to sin^2(1e-4) = 1e-8, and a pure
    # state with a dim-1 commutant center at theta = 0
    spec = write_spec(tmp_path, "s.json", {
        "algebra": {"preset": "ex4_left"},
        "state": {"parameters": {}},
    })
    code, out, _ = run_cli(capsys, "sweep", spec, "--param", "theta", "--from", "0",
                           "--to", "0.001", "--steps", "11", "--method", "both")
    assert code == EXIT_OK
    assert len(out.strip().splitlines()) == 12


def test_sweep_width_zero_gives_single_row(tmp_path, capsys):
    spec = write_spec(tmp_path, "s.json", {
        "algebra": {"preset": "ex3_choice2"},
        "state": {"parameters": {}},
    })
    code, out, _ = run_cli(
        capsys, "sweep", spec, "--param", "theta",
        "--from", "0.4", "--to", "0.4", "--steps", "9",
    )
    assert code == EXIT_OK
    assert len(out.strip().splitlines()) == 2


def test_sweep_unknown_parameter(tmp_path, capsys):
    spec = write_spec(tmp_path, "s.json", {
        "algebra": {"preset": "ex2_bell"},
        "state": {"parameters": {}},
    })
    code, _, err = run_cli(
        capsys, "sweep", spec, "--param", "theta",
        "--from", "0", "--to", "1", "--steps", "3",
    )
    assert code == EXIT_VALIDATION and "parameter" in err


# ---------------------------------------------------------------------------
# grid


def test_plane_projection_round_trip():
    for theta, phi in [(np.pi / 2, 0.0), (np.pi / 2, np.pi / 2), (np.pi, 0.0), (2.0, 1.1)]:
        denom = 1.0 - np.cos(theta)
        x = np.sin(theta) * np.cos(phi) / denom
        y = np.sin(theta) * np.sin(phi) / denom
        t2, p2 = plane_to_angles(x, y)
        w1 = np.array([np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)])
        w2 = np.array([np.sin(t2) * np.cos(p2), np.sin(t2) * np.sin(p2), np.cos(t2)])
        assert np.abs(w1 - w2).max() < 1e-12


def test_grid_zero_sites_and_shape(capsys):
    code, out, _ = run_cli(capsys, "grid", "--resolution", "5", "--extent", "2")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "x,y,entropy"
    assert len(lines) == 1 + 25
    table = {(row.split(",")[0], row.split(",")[1]): float(row.split(",")[2])
             for row in lines[1:]}
    for site in [("0", "0"), ("1", "0"), ("-1", "0"), ("0", "1"), ("0", "-1")]:
        assert table[site] < 1e-9
    others = [v for k, v in table.items() if k not in
              {("0", "0"), ("1", "0"), ("-1", "0"), ("0", "1"), ("0", "-1")}]
    assert min(others) > 1e-4


def test_grid_resolution_validation(capsys):
    code, _, _ = run_cli(capsys, "grid", "--resolution", "1")
    assert code == EXIT_VALIDATION


def test_grid_writes_to_file(tmp_path, capsys):
    out_path = tmp_path / "grid.csv"
    code, out, _ = run_cli(capsys, "grid", "--resolution", "2", "--out", str(out_path))
    assert code == EXIT_OK
    assert out == ""
    assert out_path.read_text().startswith("x,y,entropy")


def test_grid_single_method_routes(capsys):
    _, out_w, _ = run_cli(capsys, "grid", "--resolution", "3", "--method", "wedderburn")
    _, out_g, _ = run_cli(capsys, "grid", "--resolution", "3", "--method", "gns")
    for row_w, row_g in zip(out_w.splitlines()[1:], out_g.splitlines()[1:]):
        assert abs(float(row_w.split(",")[2]) - float(row_g.split(",")[2])) < 1e-9


#: ``gnsentropy grid --resolution 11`` as printed before the block sizes and
#: multiplicities were read off traces; all three methods printed it.
GOLDEN_GRID = Path(__file__).parent / "golden" / "grid_r11.csv"


@pytest.mark.parametrize("method", ["both", "gns", "wedderburn"])
def test_grid_matches_the_committed_golden(capsys, method):
    code, out, _ = run_cli(capsys, "grid", "--resolution", "11", "--method", method)
    assert code == EXIT_OK
    got = [line.split(",") for line in out.splitlines()]
    want = [line.split(",") for line in GOLDEN_GRID.read_text().splitlines()]
    assert len(got) == len(want) == 1 + 121
    assert got[0] == want[0] == ["x", "y", "entropy"]
    for row, golden in zip(got[1:], want[1:]):
        assert row[:2] == golden[:2]
        assert abs(float(row[2]) - float(golden[2])) <= 1e-14, row


#: ``gnsentropy sweep --method both --steps 200`` per preset, as printed
#: before the minimal projections were carried as their ranges.
GOLDEN_SWEEPS = {
    "ex1_m2": ("lambda", 1.0),
    "ex3_choice1": ("theta", np.pi / 2),
    "ex3_choice2": ("theta", np.pi / 2),
    "ex4_left": ("theta", np.pi / 2),
}


@pytest.mark.parametrize("preset", sorted(GOLDEN_SWEEPS))
def test_sweeps_match_the_committed_goldens(tmp_path, capsys, preset):
    param, stop = GOLDEN_SWEEPS[preset]
    spec = write_spec(tmp_path, "s.json", {"algebra": {"preset": preset},
                                           "state": {"parameters": {}}})
    golden = Path(__file__).parent / "golden" / f"sweep_{preset}.csv"
    want = [line.split(",") for line in golden.read_text().splitlines()]
    assert len(want) == 1 + 200
    for method in ("both", "gns", "wedderburn"):
        code, out, _ = run_cli(capsys, "sweep", spec, "--param", param, "--from", "0",
                               "--to", str(stop), "--steps", "200", "--method", method)
        assert code == EXIT_OK
        got = [line.split(",") for line in out.splitlines()]
        assert len(got) == len(want)
        assert got[0] == want[0] == [param, "entropy_nats", "entropy_bits", "gns_dim", "null_dim"]
        for row, golden_row in zip(got[1:], want[1:]):
            assert row[0] == golden_row[0]
            # the block route reports no GNS dimensions
            assert row[3:] == (["", ""] if method == "wedderburn" else golden_row[3:]), row
            for col in (1, 2):
                assert abs(float(row[col]) - float(golden_row[col])) <= 1e-14, (method, row)


def assert_calls_retain_no_memory(call):
    """20 calls after 20 warm-up calls keep under 1.5 KB a call in all."""
    for _ in range(10):
        call()
    tracemalloc.start()
    try:
        for _ in range(10):
            call()
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(20):
            call()
        gc.collect()
        growth = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert growth < 20 * 1500


def test_grid_calls_retain_no_memory():
    """Per-span caches die with their span: repeated grid calls keep nothing.

    Each call builds its own span, Wedderburn data and block-trace system;
    keeping those alive costs about 29 KB a call (2.6 KB for the Wedderburn
    data alone), while allocator free lists hold under 20 KB in all over
    the 20 measured calls.
    """
    assert_calls_retain_no_memory(lambda: grid_rows(resolution=3))


def test_sweep_calls_retain_no_memory():
    spec = {"algebra": {"preset": "ex4_left"}, "state": {"parameters": {}}}
    assert_calls_retain_no_memory(lambda: sweep_scenario(spec, "theta", 0.0, 1.5, 9))


def test_batched_calls_on_a_reused_span_retain_no_memory():
    """The stacks of a batch die with its reports: the span's caches are
    built by the warm-up calls, and later batches on the span keep nothing."""
    span, family = example_generators("ex5_bosons")
    states = [family.state(theta=t, phi=0.3 * t) for t in np.linspace(0.0, np.pi, 9)]
    assert_calls_retain_no_memory(lambda: restriction_entropies(span, states))


def test_a_lapack_failure_exits_3(tmp_path, capsys, monkeypatch):
    # LinAlgError subclasses ValueError, which would otherwise exit 2
    def no_convergence(*args, **kw):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", no_convergence)
    spec = write_spec(tmp_path, "s.json", {"algebra": {"preset": "ex5_bosons"},
                                           "state": {"parameters": {}}})
    code, _, err = run_cli(capsys, "run", spec)
    assert code == EXIT_NUMERICAL
    assert "numerical failure: SVD did not converge" in err


def test_grid_far_out_points_are_the_projection_point(capsys):
    assert plane_to_angles(1e200, -1e200) == (0.0, -np.pi / 4)
    assert plane_to_angles(0.0, 1e160)[0] == 0.0
    code, out, _ = run_cli(capsys, "grid", "--resolution", "3", "--extent", "1e200")
    assert code == EXIT_OK
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert len(rows) == 9 and all(float(row[2]) < 1e-9 for row in rows)


@pytest.mark.parametrize("extent", ["inf", "-inf", "nan"])
def test_grid_rejects_a_non_finite_extent(capsys, extent):
    code, _, err = run_cli(capsys, "grid", "--resolution", "3", f"--extent={extent}")
    assert code == EXIT_VALIDATION
    assert "extent must be finite" in err


def tolerance_argv(tmp_path, command):
    spec = write_spec(tmp_path, "s.json", {"algebra": {"preset": "ex1_m2"},
                                           "state": {"parameters": {}}})
    return {"run": ["run", spec],
            "sweep": ["sweep", spec, "--param", "lambda", "--from", "0", "--to", "1",
                      "--steps", "3"],
            "grid": ["grid", "--resolution", "3"]}[command]


@pytest.mark.parametrize("tol", ["nan", "-1", "inf", "-inf"])
@pytest.mark.parametrize("command", ["run", "sweep", "grid"])
def test_a_bad_tolerance_exits_2(tmp_path, capsys, command, tol):
    code, out, err = run_cli(capsys, *tolerance_argv(tmp_path, command), f"--tol={tol}")
    assert (code, out) == (EXIT_VALIDATION, "")
    assert "error: tolerance must be finite and non-negative" in err


@pytest.mark.parametrize("tol", [-1.0, float("nan"), float("inf")])
def test_a_bad_scenario_tolerance_exits_2(tmp_path, capsys, tol):
    spec = write_spec(tmp_path, "s.json", {"algebra": {"preset": "ex2_bell"},
                                           "state": {"parameters": {}}, "tolerance": tol})
    code, _, err = run_cli(capsys, "run", spec)
    assert code == EXIT_VALIDATION
    assert f"tolerance must be finite and non-negative, got {tol!r}" in err


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_a_zero_tolerance_is_accepted(tmp_path, capsys, command):
    code, out, _ = run_cli(capsys, *tolerance_argv(tmp_path, command), "--tol", "0")
    assert code == EXIT_OK and out


# ---------------------------------------------------------------------------
# examples


@pytest.mark.parametrize("number", [1, 2, 3, 4, 5])
def test_worked_examples_pass_their_goldens(number, capsys):
    code, out, _ = run_cli(capsys, "example", str(number))
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines
    assert all(line.startswith("PASS") for line in lines)
