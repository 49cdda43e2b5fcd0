"""modhtan benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload synthetic-lm --seed 0 --seconds 20 --trace 0

Run from the repository root.  The package is imported from ``src/`` of the
same checkout, with BLAS/OpenMP pinned to one thread.  Human-readable lines
(environment, the workload's metrics by name and unit, every correctness
check) come first; the last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics of BENCHMARK.json, ``--trace 1`` the per-layer
ones.  End-to-end timings are scaled to the reference host speed
(hostspeed.py); the measured values are printed next to them.  The exit code
is 0 only when every check passed.  See README.md.
"""

import os

# Before numpy is imported anywhere: one BLAS/OpenMP thread per process.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from hostspeed import HostSpeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 7  # fresh processes timed per run; setup_s is their median


def parse_args(argv=None) -> argparse.Namespace:
    def non_negative(text: str) -> int:
        value = int(text)
        if value < 0:
            raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
        return value

    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=non_negative, required=True)
    p.add_argument("--seconds", type=float, required=True, help="nominal measured length of the run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def load_program():
    """Import this checkout's modhtan, or fail without a result."""
    if not (SRC / "modhtan" / "__init__.py").is_file():
        sys.exit(f"error: no modhtan package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import modhtan

    if Path(modhtan.__file__).resolve().parent != SRC / "modhtan":
        sys.exit(f"error: imported modhtan from {modhtan.__file__}, not from {SRC}")


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    sha, dirty = "unknown", None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
            ).stdout.strip() or "unknown"
            dirty = bool(
                subprocess.run(
                    ["git", "status", "--porcelain", "--untracked-files=no"],
                    cwd=ROOT, capture_output=True, text=True, timeout=30,
                ).stdout.strip()
            )
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "git_sha": sha,
        "git_dirty": dirty,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": os.cpu_count(),
        "threads": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def setup_seconds(args, host) -> list[float]:
    """Process start to first fit, timed in fresh interpreters and scaled to
    the reference host speed.

    Each probe reports the monotonic clock once its set-up is done; the
    parent read the same clock just before starting it.
    """
    samples, marks = [], []
    for _ in range(SETUP_SAMPLES):
        marks.append(host.mark())
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()[-500:]}")
        samples.append(float(proc.stdout.split()[-1]) - t0)
    host.close()
    return [s * host.factor(m) for s, m in zip(samples, marks)]


def percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def end_to_end(workload, calls, scaled: bool) -> dict[str, tuple[float, str]]:
    """Timing metrics by name: (value, unit).

    An operation is one LM epoch on the LM workloads and one pass over the
    figure set on `figures`.  With `scaled`, each call's timings are
    multiplied by its host-speed factor.
    """
    def speed(call) -> float:
        return call.speed if scaled else 1.0

    rates = [c.ops / (c.wall_s * speed(c)) for c in calls]
    if workload.name == "figures":
        op_ms = [1e3 * c.wall_s * speed(c) for c in calls]
        named = {"figures_s": (statistics.median(op_ms) / 1e3, "s")}
    else:
        op_ms = [1e3 * t * speed(c) for c in calls for f in c.fits for t in f.history.epoch_time_s]
        tail = 90 if workload.name == "wide-lm" else 99
        named = {
            "epochs_per_s": (statistics.median(rates), "1/s"),
            "epoch_ms.p50": (percentile(op_ms, 50), "ms"),
            f"epoch_ms.p{tail}": (percentile(op_ms, tail), "ms"),
        }
    return {
        "ops_per_s": (statistics.median(rates), "1/s"),
        "op_ms.p50": (percentile(op_ms, 50), "ms"),
        "op_ms.p90": (percentile(op_ms, 90), "ms"),
        **named,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    load_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; expected one of {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    n_calls = workloads.calls_per_run(workload, args.seconds, bool(args.trace))
    with tempfile.TemporaryDirectory(prefix=".work-", dir=HERE) as tmp:
        inputs = workloads.prepare(workload, args.seed, n_calls, Path(tmp))
        if args.setup_probe:
            print(time.monotonic())
            return 0
        env = environment()
        why = next(w["why"] for w in spec["workloads"] if w["name"] == workload.name)
        print(f"workload {workload.name}: {why}")
        print(f"env {json.dumps(env, sort_keys=True)}")
        print(f"config seed={args.seed} seconds={args.seconds} calls={n_calls} trace={args.trace}")

        host = HostSpeed()
        capture = workloads.FitCapture()
        try:
            calls = workloads.run_calls(workload, inputs, n_calls, capture, host)
            if args.trace:
                import layers

                untraced = calls
                trace = layers.LayerTrace()
                try:
                    inputs = workloads.prepare(workload, args.seed, n_calls, Path(tmp))
                    calls = workloads.run_calls(workload, inputs, n_calls, capture, host)
                finally:
                    trace.restore()
        finally:
            capture.close()

    aggregate = workloads.aggregate_checks(workload, calls)
    problems = [p for c in calls for p in c.problems] + aggregate
    attempted = sum(c.attempted for c in calls)
    failed = sum(c.failed for c in calls) + len(aggregate)
    if args.trace:
        if [c.signature for c in calls] != [c.signature for c in untraced]:
            problems.append("traced and untraced runs gave different non-timing outputs")
            failed += 1
        values = layers.per_layer_metrics(trace, calls, sum(c.wall_s for c in untraced))
        traces = HERE / "traces"
        traces.mkdir(exist_ok=True)
        trace.tracer.write(traces / f"{workload.name}.jsonl.gz")
    else:
        setup = setup_seconds(args, host)
        scaled = {"setup_s": (statistics.median(setup), "s"), **end_to_end(workload, calls, scaled=True)}
        raw = end_to_end(workload, calls, scaled=False)
        values = {name: value for name, (value, _) in scaled.items()}
        print(f"setup_s samples {[round(s, 4) for s in setup]}")
        print(f"host speed factor median {statistics.median(host.factors):.4f} over {len(host.factors)} samples")
        for name, (value, unit) in scaled.items():
            measured = f" (measured {raw[name][0]:.6g})" if name in raw else ""
            print(f"metric {name} {value:.6g} {unit}{measured}")
        print(f"metric {'passes' if workload.name == 'figures' else 'epochs'} {sum(c.ops for c in calls)} count")
        for name, value in sorted(workloads.quality(calls).items()):
            print(f"metric {name} {value:.6g} {'%' if name.startswith('test_acc') else '1'}")
    failed = min(failed, attempted)
    print(f"metric failed_frac {failed / attempted:.6g} 1 ({failed} of {attempted} operations)")
    for problem in problems:
        print(f"check FAILED: {problem}")
    if not problems:
        print("check ok: exit codes, stalls, reported vs recomputed outputs, workload gates")

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
