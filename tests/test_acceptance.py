"""Top-level acceptance checks.

One test per release gate: exp-approximation accuracy, gradient
correctness, extreme-input robustness, oracle equivalence of the network
code, end-to-end training quality on both datasets, report fidelity, and
seeded determinism.  Each test prints a PASS line with the measured
numbers (visible under ``pytest -s``); tolerances are fixed here and are
not to be loosened to make a failing build green.
"""

import math
import time

import numpy as np
import pytest

from modhtan.activations import ACTIVATION_NAMES, Elu, Htan, ModHtan, SoftStep, activate
from modhtan.bench import ExperimentSpec, emit_report, run_experiment, runtime_ordering
from modhtan.cli import main
from modhtan.network import forward, jacobian, nguyen_widrow_init
from modhtan.rnf import rnf_exp
from modhtan.training import LmConfig


def test_exp_approximation_accuracy():
    t0 = time.perf_counter()
    wide = np.linspace(-20.0, 20.0, 100_000)
    rel_wide = np.max(np.abs(rnf_exp(wide) - np.exp(wide)) / np.exp(wide))
    narrow = np.linspace(-2.0, 2.0, 100_000)
    rel_narrow = np.max(np.abs(rnf_exp(narrow) - np.exp(narrow)) / np.exp(narrow))
    elapsed = time.perf_counter() - t0
    assert rnf_exp(0.0) == 1.0
    assert rel_wide <= 5e-5
    assert rel_narrow <= 2e-6
    assert elapsed < 1.0
    print(
        f"PASS: exp approximation — max rel err {rel_wide:.3e} on [-20,20], "
        f"{rel_narrow:.3e} on [-2,2], exact at 0, {elapsed:.3f} s"
    )


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(41)
    xs = rng.uniform(-5.0, 5.0, 100)
    h = 1e-6
    worst = 0.0
    for kind in (SoftStep(), Htan(), Elu()):
        analytic = activate(kind, xs).grads
        numeric = (activate(kind, xs + h).values - activate(kind, xs - h).values) / (2 * h)
        rel = np.abs(analytic - numeric) / np.maximum(np.abs(numeric), 1e-12)
        worst = max(worst, float(rel.max()))
        assert rel.max() <= 1e-6, f"{kind.name}: rel {rel.max():.3e}"
    result = activate(ModHtan(), xs)
    assert np.array_equal(result.grads, 1.0 - result.values**2)
    print(
        f"PASS: gradients — worst finite-difference rel err {worst:.3e} "
        "(softstep/htan/elu), modhtan grad == 1 - f**2 exactly"
    )


def test_extreme_input_robustness():
    kind = ModHtan()  # adaptive offset by default
    worst = 0.0
    for k in range(309):
        for x in (10.0**k, -(10.0**k)):
            value = float(activate(kind, np.array([x])).values[0])
            assert math.isfinite(value)
            assert abs(value) < 1.0
            offset = 1.05 * abs(x) + 1e-6
            x_norm = 1.0 / (1.0 + offset / x)  # overflow-free form of x/(x+offset)
            worst = max(worst, abs(value - math.tanh(x_norm)))
    assert worst <= 1e-5
    print(
        f"PASS: extreme inputs — x = ±10^k for k=0..308 all finite, |f| < 1, "
        f"max |f - tanh(x_norm)| = {worst:.3e}"
    )


def test_network_matches_scalar_oracle():
    rng = np.random.default_rng(7)
    model = nguyen_widrow_init(2, 2, Htan(), seed=7)
    X = rng.normal(size=(100, 2))
    T = rng.normal(size=(100, 1))
    y, cache = forward(model, X)

    # scalar-loop oracle, written against math.tanh rather than the library:
    # outputs, and the chain-rule gradient of 0.5 * mean((y - t)**2) in the
    # parameter order W1 (row-major), b1, W2, b2
    y_oracle = np.empty((100, 1))
    grads = np.zeros(9)
    for s in range(100):
        hidden = [
            math.tanh(model.W1[j, 0] * X[s, 0] + model.W1[j, 1] * X[s, 1] + model.b1[j])
            for j in range(2)
        ]
        y_oracle[s, 0] = model.W2[0, 0] * hidden[0] + model.W2[0, 1] * hidden[1] + model.b2[0]
        residual = (y_oracle[s, 0] - T[s, 0]) / 100
        for j in range(2):
            d_z = residual * model.W2[0, j] * (1.0 - hidden[j] ** 2)
            grads[2 * j] += d_z * X[s, 0]
            grads[2 * j + 1] += d_z * X[s, 1]
            grads[4 + j] += d_z
            grads[6 + j] += residual * hidden[j]
        grads[8] += residual
    forward_err = float(np.max(np.abs(y - y_oracle)))
    assert forward_err <= 1e-12

    J, e = jacobian(model, X, T, cache)
    jac_err = float(np.max(np.abs(J.T @ e / e.size - grads)))
    assert jac_err <= 1e-10
    print(
        f"PASS: network oracle — forward within {forward_err:.3e} of scalar loop, "
        f"J^T e / N within {jac_err:.3e} of the scalar-loop gradient"
    )


def test_synthetic_lm_convergence():
    spec = ExperimentSpec(
        dataset="synthetic",
        activations=(Htan(), Elu(), ModHtan()),
        runs=10,
        n_hidden=2,
        n_points=5000,
        trainer=LmConfig(epochs=500),
    )
    t0 = time.perf_counter()
    report = run_experiment(spec)
    elapsed = time.perf_counter() - t0
    stalls = [r for r in report.rows if r.error is not None]
    assert stalls == [], f"stalled runs: {stalls}"
    htan_mse = [r.metric_value for r in report.rows if r.activation == "htan"]
    assert len(htan_mse) == 10
    median = float(np.median(htan_mse))
    assert median <= 0.05
    assert elapsed < 300.0
    print(
        f"PASS: synthetic training — htan median final MSE {median:.3e} over 10 runs, "
        f"0 stalls in 30 runs, {elapsed:.1f} s"
    )


def test_heart_classification_accuracy(heart_file):
    spec = ExperimentSpec(
        dataset="heart",
        activations=(Htan(), Elu(), ModHtan()),
        runs=10,
        heart_path=str(heart_file),
        trainer=LmConfig(epochs=500),
    )
    t0 = time.perf_counter()
    report = run_experiment(spec)
    elapsed = time.perf_counter() - t0
    summary = {}
    for avg in report.averages:
        assert avg.metric_name == "accuracy_pct"
        assert avg.metric_value >= 70.0, f"{avg.activation}: {avg.metric_value:.2f}%"
        summary[avg.activation] = avg.metric_value
    assert elapsed < 120.0
    detail = ", ".join(f"{k} {v:.2f}%" for k, v in summary.items())
    print(f"PASS: heart classification — avg test accuracy {detail}, {elapsed:.1f} s")


def test_report_table_fidelity(tmp_path):
    spec = ExperimentSpec(
        dataset="synthetic",
        activations=(Htan(), Elu(), ModHtan()),
        runs=10,
        n_points=200,
        trainer=LmConfig(epochs=30),
    )
    report = run_experiment(spec)
    assert len(report.rows) == 30
    assert len(report.averages) == 3
    for avg in report.averages:
        mine = [r for r in report.rows if r.activation == avg.activation]
        assert len(mine) == 10
        assert avg.metric_value == pytest.approx(
            float(np.mean([r.metric_value for r in mine])), abs=1e-9
        )
        assert avg.runtime_s == pytest.approx(
            float(np.mean([r.runtime_s for r in mine])), abs=1e-9
        )

    md_path = tmp_path / "report.md"
    emit_report(report, "markdown", md_path)
    text = md_path.read_text()
    for name in ("htan", "elu", "modhtan"):
        assert name in text
    table_rows = [l for l in text.splitlines() if l.startswith("|")]
    # two pivot tables, each: header + rule + 10 run rows + AVERAGE row
    assert len(table_rows) == 2 * 13
    assert sum(1 for l in table_rows if l.startswith("| AVERAGE")) == 2
    # the runtime ordering is reported as text, not asserted anywhere
    ordering = runtime_ordering(report)
    assert f"Runtime ordering (average, fastest first): {ordering}" in text
    print(
        "PASS: report fidelity — 10 run rows + AVERAGE per activation, "
        "averages match means within 1e-9, runtime ordering reported as text only"
    )


def test_seeded_byte_determinism(tmp_path, capsys):
    curve_a, curve_b = tmp_path / "ca.csv", tmp_path / "cb.csv"
    for out in (curve_a, curve_b):
        assert main(["curves", "--fn", "modhtan", "--lo", "-10", "--hi", "10",
                     "--step", "0.1", "--out", str(out)]) == 0
    assert curve_a.read_bytes() == curve_b.read_bytes()

    history_a, history_b = tmp_path / "ha.csv", tmp_path / "hb.csv"
    for out in (history_a, history_b):
        assert main(["train", "--fn", "htan", "--n", "80", "--epochs", "40",
                     "--seed", "11", "--history", str(out)]) == 0

    def losses(path):  # the epoch,loss columns, without epoch_time_s
        return [line.rsplit(",", 1)[0] for line in path.read_text().splitlines()]

    assert losses(history_a) == losses(history_b)

    bench_a, bench_b = tmp_path / "ba.csv", tmp_path / "bb.csv"
    for out in (bench_a, bench_b):
        assert main(["bench", "--fns", "htan,modhtan", "--runs", "3", "--n", "60",
                     "--epochs", "20", "--seed", "5", "--out", str(out)]) == 0
    capsys.readouterr()

    def non_timing(path):  # drop the runtime_s column, the only timing field
        rows = [line.split(",") for line in path.read_text().splitlines()]
        return [[c for i, c in enumerate(r) if i != 2] for r in rows]

    assert non_timing(bench_a) == non_timing(bench_b)
    print(
        "PASS: determinism — repeated seeded curves/train/bench commands produce "
        "byte-identical non-timing outputs"
    )
