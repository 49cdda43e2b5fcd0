"""The four benchmark workloads: inputs, the timed user-path calls, checks.

Every timed operation goes through ``modhtan.cli.main([...])`` in-process,
the same path as the ``modhtan`` console script.  Load is a closed loop: one
caller, one CLI call at a time, one fit at a time inside it.

Work per run is fixed by the seed and ``--seconds``: a run makes
``round(seconds / call_s)`` calls (at least ``min_calls``), where ``call_s`` is the nominal cost of
one call (2-core x86-64, OpenBLAS 0.3.31 on one thread, numpy 2.4).  Counts
and quality numbers therefore repeat exactly for a given seed and length,
and a run lasts about ``--seconds`` on that machine.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import re
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from modhtan import bench, cli, datasets, network, rnf
from modhtan.training import TrainHistory

from hostspeed import HostSpeed

LM_FNS = ("htan", "elu", "modhtan")
SATURATION_GRAD = 1e-3  # |g| below this counts as a saturated hidden entry
HTAN_MSE_MAX = 0.05
HEART_ACC_MIN = 70.0
APPROX_REL_ERR_MAX = 5e-5
ABS_F_MAX = 1.0  # modhtan stays strictly inside (-1, 1) on the exploding preset


@dataclass(frozen=True)
class Workload:
    name: str
    call_s: float  # nominal seconds per timed call, sets the calls per run
    bench_args: tuple[str, ...] = ()  # LM workloads: `bench` flags besides seed/out
    min_calls: int = 1
    host_scaled: bool = True  # scale timings by host speed (hostspeed.py)


WORKLOADS = {
    w.name: w
    for w in (
        # The quality gates are on a median / mean over fits, and single fits
        # miss them (htan stops at mu_max with MSE 0.23 on seed 4000; heart
        # accuracies range 66-90%), so a run holds at least the 10 seeds of the
        # default `bench --runs 10` configuration.
        Workload("synthetic-lm", 1.7, ("--data", "synthetic", "--fns", ",".join(LM_FNS), "--n", "5000",
                                       "--hidden", "2", "--epochs", "500"), 10),
        Workload("heart-lm", 0.7, ("--data", "heart", "--fns", ",".join(LM_FNS), "--epochs", "500"), 10),
        # BLAS on 5000x151 arrays barely feels the host phases that slow small
        # numpy/Python work 2x: over 25 calls the coefficient of variation was
        # 0.08 raw and 0.14 after scaling by the reference task.
        Workload("wide-lm", 3.9, ("--data", "synthetic", "--fns", ",".join(LM_FNS), "--n", "5000",
                                  "--hidden", "50", "--epochs", "50"), host_scaled=False),
        Workload("figures", 0.115),
    )
}


def calls_per_run(workload: Workload, seconds: float, traced: bool) -> int:
    """Calls in one pass; a traced run makes two passes of half the length."""
    n = round(seconds / workload.call_s)
    return max(workload.min_calls, n // 2 if traced else n)


@dataclass
class Inputs:
    """Everything a run feeds the program, generated from the workload seed."""

    workdir: Path
    base_seed: int  # bench --seed of the first call; call k uses base_seed + k
    reference: datasets.Dataset | None = None  # synthetic set the checks recompute against
    heart_paths: list[Path] = field(default_factory=list)  # one fixture per call
    approx_range: tuple[float, float] | None = None


def prepare(workload: Workload, seed: int, n_calls: int, workdir: Path) -> Inputs:
    """Generate the run's inputs and warm the cached Euler constant.

    This is the set-up that `setup_s` times.  Module attributes are looked up
    at call time so the traced run sees these calls as spans.
    """
    inputs = Inputs(workdir=workdir, base_seed=1000 * seed)
    if workload.name in ("synthetic-lm", "wide-lm"):
        inputs.reference = datasets.gen_quadratic(5000)
    elif workload.name == "heart-lm":
        # A fixture per call: how often LM retries depends on the data, so one
        # fixture per run would make the run's epoch-time mix hinge on one draw.
        for k in range(n_calls):
            path = workdir / f"heart-{k}.dat"
            datasets.make_heart_fixture(path, seed=inputs.base_seed + k)
            datasets.load_heart(path)
            inputs.heart_paths.append(path)
    else:
        rng = np.random.default_rng(seed)
        # stays inside [-20, 20], where rnf_exp's documented error is below 5e-5
        inputs.approx_range = (-20.0 + rng.uniform(0.0, 1.0), 20.0 - rng.uniform(0.0, 1.0))
    rnf.euler_constant(rnf.DEFAULT_RNF_PARAMS)
    return inputs


@dataclass
class Fit:
    kind: str
    X: np.ndarray
    T: np.ndarray
    n_params: int
    model: network.MlpModel
    history: TrainHistory


class FitCapture:
    """Keeps the (model, history) of every fit `bench` runs.

    Installed on `modhtan.bench.train_lm` for traced and untraced runs alike;
    it is how the benchmark reads per-epoch times and termination reasons.
    """

    def __init__(self):
        self.fits: list[Fit] = []
        self._original = bench.train_lm

        def capture(model, X, T, cfg):
            fitted, history = self._original(model, X, T, cfg)
            self.fits.append(Fit(model.hidden_kind.name, X, T, network.n_params(model), fitted, history))
            return fitted, history

        bench.train_lm = capture

    def take(self) -> list[Fit]:
        fits, self.fits = self.fits, []
        return fits

    def close(self) -> None:
        bench.train_lm = self._original


@dataclass
class Call:
    """One timed CLI call (LM) or one pass over the figure set."""

    wall_s: float
    ops: int  # completed LM epochs, or 1 figure pass
    attempted: int  # fits, or CLI invocations
    speed: float = 1.0  # host-speed scale factor for this call's timings (hostspeed.py)
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    signature: tuple = ()  # every non-timing output, for the traced/untraced comparison
    fits: list[Fit] = field(default_factory=list)
    rows: list[dict] = field(default_factory=list)  # per-fit report rows
    stdout: str = ""


def _cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        rc = cli.main(argv)
    return rc, out.getvalue()


def _htan_mse(fit: Fit) -> float:
    """Train MSE recomputed with numpy's tanh, independently of modhtan."""
    m = fit.model
    y = np.tanh(fit.X @ m.W1.T + m.b1) @ m.W2.T + m.b2
    return float(np.mean((y - fit.T) ** 2))


def lm_call(workload: Workload, inputs: Inputs, k: int, capture: FitCapture) -> Call:
    report = inputs.workdir / "report.csv"
    argv = ["bench", *workload.bench_args, "--runs", "1", "--seed", str(inputs.base_seed + k),
            "--out", str(report), "--format", "csv"]
    if inputs.heart_paths:
        argv += ["--path", str(inputs.heart_paths[k])]
    t0 = time.perf_counter()
    rc, stdout = _cli(argv)
    wall = time.perf_counter() - t0
    fits = capture.take()
    call = Call(wall, sum(len(f.history.loss) for f in fits), len(LM_FNS), fits=fits, stdout=stdout)
    if rc != 0 or len(fits) != len(LM_FNS):
        call.failed = call.attempted
        call.problems.append(f"bench exited {rc} with {len(fits)} fits: {stdout.strip()[-200:]}")
        call.signature = (rc,)
        return call
    with open(report, newline="", encoding="utf-8") as fh:
        call.rows = [r for r in csv.DictReader(fh) if r["run"] != bench.AVERAGE_LABEL]
    for fit, row in zip(fits, call.rows):
        value = float(row["metric_value"])
        problem = None
        if row["activation"] != fit.kind:
            problem = f"report row {row['activation']} for a {fit.kind} fit"
        elif fit.history.termination == "stall":
            problem = f"{fit.kind} stalled: {fit.history.stall_events}"
        elif row["metric_name"] == "mse":
            if fit.history.loss and value != fit.history.loss[-1]:
                problem = f"{fit.kind} reported mse {value!r} != final loss {fit.history.loss[-1]!r}"
            elif not (np.array_equal(fit.X, inputs.reference.X) and np.array_equal(fit.T, inputs.reference.T)):
                problem = f"{fit.kind} trained on a set other than the generated one"
            elif fit.kind == "htan" and not math.isclose(value, _htan_mse(fit), rel_tol=1e-6, abs_tol=1e-15):
                problem = f"htan reported mse {value!r} != recomputed {_htan_mse(fit)!r}"
        elif not 0.0 <= value <= 100.0:
            problem = f"{fit.kind} accuracy {value!r} outside [0, 100]"
        if problem is not None:
            call.failed += 1
            call.problems.append(problem)
    call.signature = (
        rc,
        tuple((r["run"], r["activation"], r["metric_name"], r["metric_value"]) for r in call.rows),
        tuple(
            (f.kind, f.history.termination, tuple(f.history.loss), tuple(f.history.mu)) for f in fits
        ),
    )
    return call


def figure_argvs(inputs: Inputs) -> list[list[str]]:
    out = inputs.workdir
    argvs = [
        ["curves", "--fn", fn, "--preset", preset, "--out", str(out / f"{fn}_{preset}.csv")]
        for fn in ("softstep", "htan", "elu", "modhtan")
        for preset in ("within", "exploding")
    ]
    argvs += [
        ["curves", "--fn", "modhtan", "--preset", preset, "--euler-mode", "direct",
         "--out", str(out / f"modhtan-direct_{preset}.csv")]
        for preset in ("within", "exploding")
    ]
    lo, hi = inputs.approx_range
    argvs.append(["approx-bench", f"--lo={lo!r}", f"--hi={hi!r}"])
    return argvs


_APPROX_LINE = re.compile(
    r"rnf_exp (\S+) ns/op, reference exp (\S+) ns/op, max relative error (\S+)"
)


def parse_approx(stdout: str) -> tuple[float, float, float]:
    """(rnf ns/op, numpy exp ns/op, max relative error) from approx-bench output."""
    match = _APPROX_LINE.search(stdout)
    if match is None:
        raise ValueError(f"no approx-bench result in {stdout!r}")
    return tuple(float(g) for g in match.groups())


def _check_curve(path: Path) -> str | None:
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.shape[1] != 3 or data.shape[0] < 2:
        return f"{path.name}: shape {data.shape}"
    if not np.all(np.isfinite(data)):
        return f"{path.name}: non-finite curve value"
    if path.name.startswith("modhtan") and "exploding" in path.name:
        worst = float(np.max(np.abs(data[:, 1])))
        if not worst < ABS_F_MAX:
            return f"{path.name}: |f| reaches {worst!r}"
    return None


def figure_pass(inputs: Inputs, reference_signature: tuple | None) -> Call:
    """One pass over the figure set; the first pass's files are value-checked,
    later passes must reproduce them byte for byte."""
    argvs = figure_argvs(inputs)
    stdouts = []
    rcs = []
    t0 = time.perf_counter()
    for argv in argvs:
        rc, stdout = _cli(argv)
        rcs.append(rc)
        stdouts.append(stdout)
    wall = time.perf_counter() - t0
    call = Call(wall, 1, len(argvs), stdout=stdouts[-1])
    digests = []
    for argv, rc, stdout in zip(argvs, rcs, stdouts):
        if rc != 0:
            call.failed += 1
            call.problems.append(f"{' '.join(argv[:3])} exited {rc}: {stdout.strip()[-200:]}")
            digests.append(None)
            continue
        if argv[0] == "approx-bench":
            max_rel_err = parse_approx(stdout)[2]
            digests.append(max_rel_err)
            if not max_rel_err <= APPROX_REL_ERR_MAX:
                call.failed += 1
                call.problems.append(f"approx-bench max relative error {max_rel_err!r}")
            continue
        path = Path(argv[argv.index("--out") + 1])
        digests.append(hashlib.sha256(path.read_bytes()).hexdigest())
        problem = _check_curve(path) if reference_signature is None else None
        if problem is None and reference_signature is not None and digests[-1] != reference_signature[len(digests) - 1]:
            problem = f"{path.name} differs from the first pass"
        if problem is not None:
            call.failed += 1
            call.problems.append(problem)
    call.signature = tuple(digests)
    return call


def run_calls(workload: Workload, inputs: Inputs, n: int, capture: FitCapture, host: HostSpeed) -> list[Call]:
    calls, marks = [], []
    for k in range(n):
        marks.append(host.mark())
        if workload.name == "figures":
            calls.append(figure_pass(inputs, calls[0].signature if calls else None))
        else:
            calls.append(lm_call(workload, inputs, k, capture))
    host.close()
    for call, mark in zip(calls, marks):
        call.speed = host.factor(mark) if workload.host_scaled else 1.0
    return calls


def quality(calls: list[Call]) -> dict[str, float]:
    """Per-activation quality: median final MSE (synthetic) or mean test
    accuracy (heart) over the clean fits of the run."""
    values: dict[tuple[str, str], list[float]] = {}
    for call in calls:
        for row in call.rows:
            value = float(row["metric_value"])
            if math.isfinite(value):
                values.setdefault((row["metric_name"], row["activation"]), []).append(value)
    out = {}
    for (metric, fn), vals in values.items():
        if metric == "mse":
            out[f"final_mse.median.{fn}"] = statistics.median(vals)
        else:
            out[f"test_acc_pct.mean.{fn}"] = statistics.fmean(vals)
    return out


def aggregate_checks(workload: Workload, calls: list[Call]) -> list[str]:
    """Checks over the whole run; each returned string is one violation."""
    q = quality(calls)
    problems = []
    if workload.name == "synthetic-lm":
        htan = q.get("final_mse.median.htan", math.inf)
        if not htan <= HTAN_MSE_MAX:
            problems.append(f"htan median MSE {htan!r} > {HTAN_MSE_MAX}")
    elif workload.name == "heart-lm":
        for fn in LM_FNS:
            acc = q.get(f"test_acc_pct.mean.{fn}", -math.inf)
            if not acc >= HEART_ACC_MIN:
                problems.append(f"{fn} mean test accuracy {acc!r} < {HEART_ACC_MIN}")
    return problems
