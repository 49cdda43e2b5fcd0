"""Benchmark orchestration: timed repeated training runs per activation,
CSV/markdown report tables, activation-curve dumps, and a micro-benchmark of
the rational exp approximation against numpy's exp.

Everything except wall-clock fields is deterministic given base_seed.  The
run-time ordering across activations is reported as an observation only; it
depends on hardware and is never asserted anywhere.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple

import numpy as np

from .activations import ActivationKind, activate
from .datasets import SplitSpec, gen_quadratic, load_heart, split
from .network import MlpModel, StallError, forward, nguyen_widrow_init
from .rnf import DEFAULT_RNF_PARAMS, RnfParams, rnf_exp
from .training import (
    GdmConfig,
    LmConfig,
    TrainHistory,
    classification_accuracy,
    mse,
    train_gdm,
    train_lm,
)

# (lo, hi, step) sweeps used for the two standard figure regimes.
CURVE_PRESETS = {
    "within": (-10.0, 10.0, 0.01),
    "exploding": (-1000.0, 1000.0, 1.0),
}
MAX_POINTS = 1_000_000  # bounds a curve grid (presets: 2,001) and a synthetic dataset; 1e9 points would exhaust memory

AVERAGE_LABEL = "average"


@dataclass(frozen=True)
class ExperimentSpec:
    dataset: str  # "synthetic" | "heart"
    activations: tuple[ActivationKind, ...]
    runs: int = 10
    base_seed: int = 0
    trainer: LmConfig | GdmConfig = LmConfig()  # its type picks the trainer
    n_hidden: int = 2
    n_points: int = 5000  # synthetic sample count
    heart_path: str | None = None
    test_fraction: float = SplitSpec.test_fraction

    def __post_init__(self):
        if self.dataset not in ("synthetic", "heart"):
            raise ValueError(f"dataset must be 'synthetic' or 'heart', got {self.dataset!r}")
        if not isinstance(self.trainer, (LmConfig, GdmConfig)):
            raise ValueError(f"trainer must be an LmConfig or a GdmConfig, got {self.trainer!r}")
        if self.runs < 1:
            raise ValueError(f"runs must be >= 1, got {self.runs}")
        if self.base_seed < 0:
            raise ValueError(f"base_seed must be >= 0, got {self.base_seed}")
        if not self.activations:
            raise ValueError("activation list must be non-empty")
        names = [kind.name for kind in self.activations]
        for name in names:
            if names.count(name) > 1:
                raise ValueError(f"activation {name!r} is listed twice; the report keys its results by name")
        if self.dataset == "heart" and self.heart_path is None:
            raise ValueError("heart dataset needs heart_path")
        if self.n_hidden < 1:
            raise ValueError(f"n_hidden must be >= 1, got {self.n_hidden}")
        if not 2 <= self.n_points <= MAX_POINTS:
            raise ValueError(f"n_points must be from 2 to {MAX_POINTS}, got {self.n_points}")
        SplitSpec(self.test_fraction)  # raises for a fraction outside (0, 1)


@dataclass(frozen=True)
class BenchRow:
    run: int | str  # run index, or "average" for aggregate rows
    activation: str
    runtime_s: float
    metric_name: str  # "mse" | "accuracy_pct"
    metric_value: float
    error: str | None = None  # stall reason for failed runs


@dataclass
class BenchReport:
    rows: list[BenchRow] = field(default_factory=list)
    averages: list[BenchRow] = field(default_factory=list)


class Run(NamedTuple):
    row: BenchRow
    model: MlpModel  # as trained, also when the row records a stall
    history: TrainHistory
    train_mse: float  # of the trained model on its training set; NaN when the row records a stall


def iter_runs(spec: ExperimentSpec) -> Iterator[Run]:
    """Train runs x activations models one at a time, activation-major.

    Per run index r: seed = base_seed + r drives both the weight init and
    (for heart) a fresh train/test split, so run r sees identical conditions
    under every activation.  Timing brackets the training call only.  A
    fit that did not stall gets one forward on its training set, whose MSE
    is the synthetic metric; heart adds one on its test set for accuracy.
    A stalled run, or one whose training MSE is not finite, yields a row
    with an error reason and a NaN metric instead of aborting the experiment.
    """
    synthetic = spec.dataset == "synthetic"  # no split: the metric is the training MSE
    if synthetic:
        data = gen_quadratic(spec.n_points)
    else:
        data = load_heart(spec.heart_path)
    metric_name = "mse" if synthetic else "accuracy_pct"
    fit = train_gdm if isinstance(spec.trainer, GdmConfig) else train_lm
    for kind in spec.activations:
        for run in range(spec.runs):
            seed = spec.base_seed + run
            train_ds = data
            if not synthetic:
                train_ds, test_ds = split(data, SplitSpec(spec.test_fraction, seed=seed))
            model = nguyen_widrow_init(data.X.shape[1], spec.n_hidden, kind, seed=seed)
            t0 = time.perf_counter()
            model, history = fit(model, train_ds.X, train_ds.T, spec.trainer)
            runtime = time.perf_counter() - t0
            error = None
            train_mse = value = math.nan
            if history.termination == "stall":
                error = history.stall_events[-1][1]
            else:
                try:
                    y, _ = forward(model, train_ds.X)
                    train_mse = mse(y, train_ds.T)
                    if not math.isfinite(train_mse):  # finite outputs whose squared errors overflow
                        raise StallError("mse is not finite")
                    if synthetic:
                        value = train_mse
                    else:
                        y, _ = forward(model, test_ds.X)
                        value = classification_accuracy(y, test_ds.T)
                except StallError as exc:
                    error, train_mse = str(exc), math.nan
            row = BenchRow(run, kind.name, runtime, metric_name, value, error)
            yield Run(row, model, history, train_mse)


def run_experiment(spec: ExperimentSpec) -> BenchReport:
    """Every row of iter_runs plus one average row per activation.

    Averages are taken over the clean rows of an activation; with none, the
    metric is NaN and the runtime averages all of its rows.
    """
    report = BenchReport(rows=[run.row for run in iter_runs(spec)])
    for start in range(0, len(report.rows), spec.runs):
        block = report.rows[start : start + spec.runs]
        ok = [r for r in block if r.error is None]
        avg_runtime = float(np.mean([r.runtime_s for r in ok or block]))
        avg_value = float(np.mean([r.metric_value for r in ok])) if ok else math.nan
        report.averages.append(
            BenchRow(AVERAGE_LABEL, block[0].activation, avg_runtime, block[0].metric_name, avg_value)
        )
    return report


def runtime_ordering(report: BenchReport) -> str:
    """Human-readable fastest-first ordering of average runtimes.

    Purely observational; the ordering is hardware-dependent.
    """
    ranked = sorted(report.averages, key=lambda r: r.runtime_s)
    return " < ".join(f"{r.activation} ({r.runtime_s:.3f} s)" for r in ranked)


def _csv_lines(report: BenchReport) -> list[str]:
    lines = ["run,activation,runtime_s,metric_name,metric_value"]
    for row in (*report.rows, *report.averages):
        lines.append(
            f"{row.run},{row.activation},{row.runtime_s!r},{row.metric_name},{row.metric_value!r}"
        )
    return lines


def _markdown_lines(report: BenchReport) -> list[str]:
    activations = [r.activation for r in report.averages]
    runs = sorted({r.run for r in report.rows})
    by_key = {(r.activation, r.run): r for r in report.rows}
    avg_by_act = {r.activation: r for r in report.averages}
    metric_name = report.averages[0].metric_name if report.averages else "metric"

    def cell(row: BenchRow | None, attr: str) -> str:
        if row is None:
            return ""
        if attr == "metric_value" and row.error is not None:
            return "stall"
        return f"{getattr(row, attr):.6g}"

    lines = ["# benchmark report", ""]
    for title, attr in ((f"{metric_name}", "metric_value"), ("runtime_s", "runtime_s")):
        lines.append(f"## {title}")
        lines.append("")
        lines.append("| run | " + " | ".join(activations) + " |")
        lines.append("| --- |" + " --- |" * len(activations))
        for run in runs:
            cells = [cell(by_key.get((a, run)), attr) for a in activations]
            lines.append(f"| {run} | " + " | ".join(cells) + " |")
        avg_cells = [cell(avg_by_act.get(a), attr) for a in activations]
        lines.append("| AVERAGE | " + " | ".join(avg_cells) + " |")
        lines.append("")
    failures = [r for r in report.rows if r.error is not None]
    if failures:
        lines.append("## failed runs")
        lines.append("")
        for r in failures:
            lines.append(f"- run {r.run}, {r.activation}: {r.error}")
        lines.append("")
    if report.averages:
        lines.append(f"Runtime ordering (average, fastest first): {runtime_ordering(report)}")
        lines.append("")
    return lines


def emit_report(report: BenchReport, format: str, path) -> None:
    """Write the report as CSV (exact 5-column layout) or markdown tables."""
    if format == "csv":
        lines = _csv_lines(report)
    elif format == "markdown":
        lines = _markdown_lines(report)
    else:
        raise ValueError(f"format must be 'csv' or 'markdown', got {format!r}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def curve_grid(lo: float, hi: float, step: float) -> np.ndarray:
    """Inclusive sweep from lo to hi in (approximately) `step` increments."""
    if not lo < hi:
        raise ValueError(f"need lo < hi, got lo={lo} hi={hi}")
    if not step > 0:
        raise ValueError(f"step must be positive, got {step}")
    for name, value in (("lo", lo), ("hi", hi), ("step", step), ("(hi - lo) / step", (hi - lo) / step)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    count = max(int(round((hi - lo) / step)) + 1, 2)
    if count > MAX_POINTS:
        raise ValueError(f"the grid needs {count} points, over the {MAX_POINTS} a curve may have")
    return np.linspace(lo, hi, count)


def dump_curves(kind: ActivationKind, lo: float, hi: float, step: float, path) -> None:
    """Sample value and gradient of an activation over [lo, hi] into a CSV.

    Columns are `x,value,gradient` with full-precision (repr) floats so the
    files are byte-stable across runs.
    """
    xs = curve_grid(lo, hi, step)
    result = activate(kind, xs)
    rows = zip(xs.tolist(), result.values.tolist(), result.grads.tolist())  # Python floats: the repr of float() of each numpy scalar
    lines = ["x,value,gradient"] + [f"{x!r},{v!r},{g!r}" for x, v, g in rows]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


class ApproxBenchResult(NamedTuple):
    ns_per_op_rnf: float
    ns_per_op_ref: float
    max_rel_err: float


def approx_bench(
    m: int, lo: float, hi: float, params: RnfParams = DEFAULT_RNF_PARAMS
) -> ApproxBenchResult:
    """Time m evaluations of rnf_exp vs numpy exp over a linear sweep.

    Returns nanoseconds per evaluation for each and the maximum relative
    error of the approximation across the sweep.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if not math.isfinite(hi - lo):  # as in curve_grid: checked before linspace overflows on it
        raise ValueError(f"hi - lo must be finite, got {hi - lo}")
    xs = np.linspace(lo, hi, m)
    rnf_exp(xs[: min(m, 64)], params)  # warm up caches before timing
    np.exp(xs[: min(m, 64)])
    t0 = time.perf_counter_ns()
    approx = rnf_exp(xs, params)
    t1 = time.perf_counter_ns()
    reference = np.exp(xs)
    t2 = time.perf_counter_ns()
    rel = np.abs(np.subtract(approx, reference, out=approx), out=approx)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(rel, reference, out=rel)
    # Where exp underflows to 0 this is inf, or 0/0 = NaN where rnf_exp does
    # too; fmax skips the NaN, counting a shared underflow as no error.
    return ApproxBenchResult(
        ns_per_op_rnf=(t1 - t0) / m,
        ns_per_op_ref=(t2 - t1) / m,
        max_rel_err=float(np.fmax.reduce(rel, initial=0.0)),
    )
