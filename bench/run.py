"""Benchmark of gnsentropy's GNS and block routes on three workloads.

Run from the root of the repository:

    python3 bench/run.py --workload tensor_frame --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --seconds 30 --trace 0    # every workload, each in its own process
    python3 bench/run.py --smoke                   # one checked operation per workload

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` they are the
per-stage ones, and the spans go to ``bench/results/``.
"""

import os

# One BLAS and OpenMP thread, set here for this process and the ones it
# starts, before numpy loads: besides the noise, which inputs hit the
# Hermitian-basis fault depends on the BLAS thread count.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, CheckFailed  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
RESULTS = BENCH_DIR / "results"

#: Set-ups timed per run in fresh processes, so each one pays the cold
#: import; the median also takes this process's own set-up.
SETUP_SAMPLES = 12

#: Wall-clock limit for one child process.
CHILD_TIMEOUT_S = 170


class Tally:
    """Operations of one timed phase."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.solves = 0
        self.busy = 0.0
        self.latencies = []
        self.errors = {}

    def fail(self, exc: Exception, wrong: bool = False):
        self.failed += 1
        self.wrong += wrong
        key = f"{type(exc).__name__}: {exc}"
        self.errors[key] = self.errors.get(key, 0) + 1


def run_op(workload, x, tally: Tally) -> float:
    """One operation, checked and counted in ``tally``; returns its time."""
    from gnsentropy import OracleMismatchError  # loaded by the set-up

    tally.attempted += 1
    t0 = time.perf_counter()
    try:
        out = workload.operate(x)
    except Exception as exc:  # a raising operation is a failed one; the run goes on
        elapsed = time.perf_counter() - t0
        # Disagreeing routes mean a wrong answer, not just a failed operation.
        tally.fail(exc, wrong=isinstance(exc, OracleMismatchError))
    else:
        elapsed = time.perf_counter() - t0
        try:
            tally.solves += workload.check(x, out)
        except CheckFailed as exc:
            tally.fail(exc, wrong=True)
    tally.busy += elapsed
    tally.latencies.append(elapsed)
    return elapsed


def measure(workload, inputs, seconds, tracer=None) -> tuple[list[Tally], list[float]]:
    """Run whole rounds of operations until ``seconds`` have passed.

    With a tracer, every input of a round runs twice in a row, untraced and
    traced, in the opposite order in every other round, and the run is a
    whole number of pairs of rounds. The two kinds go to two tallies, and the
    traced minus the untraced time of each input is one overhead sample.
    """
    tallies = [Tally(), Tally()] if tracer is not None else [Tally()]
    gaps = []
    start = time.perf_counter()
    i = 0
    while True:
        for rnd in range(len(tallies)):
            for _ in range(workload.round_size):
                x = inputs[i % len(inputs)]
                if tracer is None:
                    run_op(workload, x, tallies[0])
                else:
                    elapsed = {}
                    for traced in ((False, True) if rnd == 0 else (True, False)):
                        if traced:
                            tracer.op = i
                            tracer.install()
                        try:
                            elapsed[traced] = run_op(workload, x, tallies[traced])
                        finally:
                            if traced:
                                tracer.uninstall()
                    gaps.append(elapsed[True] - elapsed[False])
                i += 1
        if time.perf_counter() - start >= seconds:
            return tallies, gaps


def timed_setup(workload) -> float:
    t0 = time.perf_counter()
    workload.setup()
    return time.perf_counter() - t0


def setup_sample(name: str) -> float:
    """Set-up time of ``name`` measured in a fresh process."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--setup-only"],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, out_dir: Path) -> dict:
    workload = WORKLOADS[name](out_dir)
    setups = [timed_setup(workload)]
    if not trace:
        # Half the fresh-process set-ups before the timed phase and half after,
        # so that one slow stretch of the machine does not set the median.
        setups += [setup_sample(name) for _ in range(SETUP_SAMPLES // 2)]
    print(json.dumps({"workload": name, "seed": seed, "seconds": seconds,
                      "trace": int(trace), "env": environment()}))

    inputs = workload.inputs(seed)
    try:
        workload.operate(inputs[-1])  # untimed warm-up
    except Exception:  # the warm-up input may hit a known fault; it counts nowhere
        pass

    if trace:
        tracer = Tracer()
        tallies, gaps = measure(workload, inputs, seconds, tracer)
        traced = tallies[1]
        RESULTS.mkdir(exist_ok=True)
        tracer.write(RESULTS / f"trace-{name}.json",
                     {"workload": name, "seed": seed, "operations": traced.attempted})
        metrics = tracer.layer_metrics(traced.attempted)
        metrics["trace_overhead_s"] = (statistics.median(gaps), "s")
    else:
        tallies, _ = measure(workload, inputs, seconds)
        tally = tallies[0]
        setups += [setup_sample(name) for _ in range(SETUP_SAMPLES // 2)]
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "solves_per_s": (tally.solves / tally.busy, "1/s"),
            "op_p50_s": (statistics.median(tally.latencies), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }

    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    wrong = sum(t.wrong for t in tallies)
    errors = {}
    for t in tallies:
        for key, count in t.errors.items():
            errors[key] = errors.get(key, 0) + count
    try:
        workload.final_check()
    except CheckFailed as exc:
        failed += 1
        wrong += 1
        errors[f"CheckFailed: {exc}"] = 1
    if errors:
        print(json.dumps({"workload": name, "failures": errors}))
    for metric, (value, unit) in metrics.items():
        print(f"{name} {metric} = {value:.6g} {unit}")
    return {
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()},
    }


def run_smoke(out_dir: Path) -> dict:
    """One checked operation per workload, traced, in this process."""
    workloads = [cls(out_dir) for cls in WORKLOADS.values()]
    for workload in workloads:
        workload.setup()
    from gnsentropy import OracleMismatchError
    print(json.dumps({"smoke": True, "env": environment()}))
    tracer = Tracer()
    tracer.install()
    wrong = failed = 0
    metrics = {}
    try:
        for op, workload in enumerate(workloads):
            tracer.op = op
            x = workload.smoke_input()
            t0 = time.perf_counter()
            try:
                out = workload.operate(x)
            except Exception as exc:  # report it and go on to the next workload
                failed += 1
                wrong += isinstance(exc, OracleMismatchError)
                status = f"failed: {type(exc).__name__}: {exc}"
            else:
                try:
                    workload.check(x, out)
                    workload.final_check()
                    status = "ok"
                except CheckFailed as exc:
                    wrong += 1
                    failed += 1
                    status = f"wrong: {exc}"
            elapsed = time.perf_counter() - t0
            stages = sorted({s[0] for s in tracer.spans if s[4] == op})
            print(f"{workload.name}: {status} in {elapsed:.3f} s; stages {', '.join(stages)}")
            metrics[f"{workload.name}.smoke_s"] = {"value": elapsed, "unit": "s"}
    finally:
        tracer.uninstall()
    return {"correct": wrong == 0, "attempted": len(workloads), "failed": failed,
            "metrics": metrics}


def run_all(args) -> dict:
    """Every workload, each in a fresh process; their results merged by name."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
        sys.stdout.write(proc.stdout.rsplit("\n", 2)[0] + "\n")
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"workload {name} exited with code {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    return merged


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default=None,
                        help="tensor_frame, faithful or landscape (default: all, one process each)")
    parser.add_argument("--seed", type=int, default=0,
                        help="orders each workload's inputs inside a round; the rounds "
                             "hold the same inputs whatever the seed")
    parser.add_argument("--seconds", type=float, default=30.0, help="length of the timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-stage metrics from a traced run")
    parser.add_argument("--smoke", action="store_true",
                        help="one checked operation per workload")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "gnsentropy" / "__init__.py").is_file():
        print(f"error: no gnsentropy sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.workload is not None and args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    if args.setup_only:
        print(timed_setup(WORKLOADS[args.workload](RESULTS)))
        return 0
    if args.workload is None and not args.smoke:
        result = run_all(args)
    else:
        RESULTS.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=RESULTS) as tmp:
            if args.smoke:
                result = run_smoke(Path(tmp))
            else:
                result = run_workload(args.workload, args.seed, args.seconds,
                                      bool(args.trace), Path(tmp))
    print(json.dumps(result))
    if args.smoke:
        return 0 if result["correct"] and result["failed"] == 0 else 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
