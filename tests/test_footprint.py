"""What a fresh process pays for the package: the modules its import and
CLI load, and the page faults of repeated solves. Each test runs its own
interpreter, so nothing imported by the rest of the suite counts."""

import json
import os
import platform
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_python(code: str, tmp_path) -> list:
    """Run ``code`` in a fresh interpreter with one BLAS thread; return the
    JSON value on the last line of its standard output."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_import_and_cli_load_no_scipy_until_car_ladders(tmp_path):
    loaded_before, loaded_after, sparse = run_python("""
        import json, sys
        import gnsentropy, gnsentropy.cli
        from gnsentropy import cli

        def scipy_modules():
            return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

        assert cli.main(["grid", "--resolution", "3", "--out", "grid.csv"]) == 0
        with open("s.json", "w") as f:
            json.dump({"algebra": {"preset": "ex5_bosons"},
                       "state": {"parameters": {"theta": 1.0, "phi": 0.8}}}, f)
        assert cli.main(["run", "s.json", "--out", "run.json"]) == 0
        before = scipy_modules()
        ladders = gnsentropy.car_ladders(2)
        import scipy.sparse
        mats = ladders.creation + ladders.annihilation
        print(json.dumps([before, scipy_modules(),
                          all(isinstance(m, scipy.sparse.csr_matrix) for m in mats)]))
    """, tmp_path)
    assert loaded_before == []
    assert "scipy.sparse" in loaded_after
    assert sparse is True


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the heap thresholds primed at import are glibc's")
def test_repeated_solves_fault_in_no_new_pages(tmp_path):
    faithful, frame = run_python("""
        import json, resource
        import numpy as np
        import gnsentropy as g

        rng = np.random.default_rng(7)

        def gaussian(*shape):
            return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

        def faithful_solve(seed):
            x = gaussian(5, 5)
            rho = x @ x.conj().T
            g.restriction_entropy(span, g.AlgebraState(density=rho / np.trace(rho).real),
                                  method="both", seed=seed)

        def frame_solve(seed):
            frame = np.linalg.qr(gaussian(24, 24))[0]
            generator = frame @ np.kron(gaussian(4, 4), np.eye(6)) @ frame.conj().T
            psi = gaussian(24)
            g.restriction_entropy(g.span_closure([generator], include_unit=True),
                                  g.AlgebraState(vector=psi / np.linalg.norm(psi)),
                                  method="both", seed=seed)

        def faults_per_solve(solve, count):
            start = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            for seed in range(count):
                solve(seed)
            return (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - start) / count

        span = g.full_matrix_algebra(5)
        for seed in range(3):
            faithful_solve(seed)
            frame_solve(seed)
        print(json.dumps([faults_per_solve(faithful_solve, 50),
                          faults_per_solve(frame_solve, 20)]))
    """, tmp_path)
    assert faithful < 20
    assert frame < 20
