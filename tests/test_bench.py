"""Benchmark harness: report shapes, averaging, curve dumps, approx timing."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from modhtan import bench
from modhtan.activations import Elu, Htan, ModHtan, SoftStep, activate
from modhtan.bench import (
    CURVE_PRESETS,
    MAX_POINTS,
    ApproxBenchResult,
    BenchReport,
    BenchRow,
    ExperimentSpec,
    approx_bench,
    curve_grid,
    dump_curves,
    emit_report,
    iter_runs,
    run_experiment,
    runtime_ordering,
)
from modhtan.datasets import SplitSpec, gen_quadratic, load_heart, split
from modhtan.network import forward, nguyen_widrow_init
from modhtan.rnf import RnfDomainError, RnfParams
from modhtan.training import GdmConfig, LmConfig, classification_accuracy, mse, train_lm


def tiny_spec(**overrides):
    base = dict(
        dataset="synthetic",
        activations=(Htan(),),
        runs=1,
        n_points=50,
        trainer=LmConfig(epochs=20),
    )
    base.update(overrides)
    return ExperimentSpec(**base)


class TestExperimentSpec:
    def test_rejects_zero_runs(self):
        with pytest.raises(ValueError):
            tiny_spec(runs=0)

    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError, match="base_seed"):
            tiny_spec(base_seed=-1)
        tiny_spec(base_seed=0)

    def test_rejects_empty_activations(self):
        with pytest.raises(ValueError):
            tiny_spec(activations=())

    def test_rejects_duplicate_activation_names(self):
        with pytest.raises(ValueError, match="'htan' is listed twice"):
            tiny_spec(activations=(Htan(), Elu(), Htan()))

    def test_rejects_heart_without_path(self):
        with pytest.raises(ValueError):
            tiny_spec(dataset="heart")

    def test_rejects_unknown_dataset(self):
        with pytest.raises(ValueError, match="^dataset must be 'synthetic' or 'heart', got 'mnist'$"):
            tiny_spec(dataset="mnist")

    def test_rejects_unknown_trainer(self):
        with pytest.raises(ValueError):
            tiny_spec(trainer="adam")

    @pytest.mark.parametrize("fraction", [0.0, 1.0, 5.0])
    def test_rejects_test_fraction_outside_unit_interval(self, fraction):
        with pytest.raises(ValueError, match="test_fraction"):
            tiny_spec(test_fraction=fraction)

    @pytest.mark.parametrize("n_points", [1, 0, -3])
    def test_rejects_fewer_than_two_points(self, n_points):
        with pytest.raises(ValueError, match="n_points"):
            tiny_spec(n_points=n_points)

    def test_points_bounded_like_a_curve_grid(self):
        # checked before gen_quadratic allocates anything
        assert tiny_spec(n_points=MAX_POINTS).n_points == MAX_POINTS
        with pytest.raises(ValueError, match=f"^n_points must be from 2 to {MAX_POINTS}, got {MAX_POINTS + 1}$"):
            tiny_spec(n_points=MAX_POINTS + 1)

    def test_one_hidden_unit_is_the_smallest_model(self):
        with pytest.raises(ValueError, match="^n_hidden must be >= 1, got 0$"):
            tiny_spec(n_hidden=0)
        (run,) = iter_runs(tiny_spec(n_hidden=1))
        assert run.model.n_hidden == 1
        assert run.row.error is None and math.isfinite(run.train_mse)


class TestRunExperiment:
    def test_single_run_average_equals_row(self):
        report = run_experiment(tiny_spec())
        assert len(report.rows) == 1
        assert len(report.averages) == 1
        assert report.averages[0].metric_value == report.rows[0].metric_value
        assert report.averages[0].run == "average"

    def test_row_counts_three_by_ten(self, heart_file):
        spec = ExperimentSpec(
            dataset="heart",
            activations=(Htan(), Elu(), ModHtan()),
            runs=10,
            heart_path=str(heart_file),
            trainer=LmConfig(epochs=30),
        )
        report = run_experiment(spec)
        assert len(report.rows) == 30
        assert len(report.averages) == 3
        for avg in report.averages:
            mine = [r.metric_value for r in report.rows if r.activation == avg.activation]
            assert avg.metric_value == pytest.approx(float(np.mean(mine)), abs=1e-9)

    @pytest.mark.parametrize(
        "kind, epochs, dataset, error",
        [
            # one step at lr 1e306 leaves finite weights whose outputs overflow
            (Elu(), 3, "synthetic", "outputs contain non-finite values"),
            # htan's bounded hidden layer keeps those outputs finite, but their squared errors overflow
            (Htan(), 1, "synthetic", "mse is not finite"),
            # the same overflow on heart's training rows; the test accuracy alone would be finite
            (Htan(), 1, "heart", "mse is not finite"),
        ],
        ids=["elu", "htan", "heart-htan"],
    )
    def test_average_of_a_block_where_every_run_stalled(self, kind, epochs, dataset, error, heart_file):
        cfg = GdmConfig(learning_rate=1e306, momentum=0.0, epochs=epochs)
        data = {} if dataset == "synthetic" else {"dataset": "heart", "heart_path": str(heart_file)}
        report = run_experiment(tiny_spec(activations=(kind,), runs=3, trainer=cfg, **data))
        assert [r.error for r in report.rows] == [error] * 3
        assert all(math.isnan(r.metric_value) for r in report.rows)
        (average,) = report.averages
        assert math.isnan(average.metric_value)
        assert average.runtime_s == float(np.mean([r.runtime_s for r in report.rows]))

    def test_metric_names_per_dataset(self, heart_file):
        synth = run_experiment(tiny_spec())
        assert synth.rows[0].metric_name == "mse"
        heart = run_experiment(
            ExperimentSpec(
                dataset="heart",
                activations=(Htan(),),
                runs=1,
                heart_path=str(heart_file),
                trainer=LmConfig(epochs=10),
            )
        )
        assert heart.rows[0].metric_name == "accuracy_pct"

    def test_non_timing_fields_deterministic(self):
        spec = tiny_spec(runs=3, activations=(Htan(), ModHtan()))
        a = run_experiment(spec)
        b = run_experiment(spec)
        for ra, rb in zip((*a.rows, *a.averages), (*b.rows, *b.averages)):
            assert ra.run == rb.run
            assert ra.activation == rb.activation
            assert ra.metric_value == rb.metric_value
            assert ra.error == rb.error

    def test_gdm_trainer_selectable(self):
        spec = tiny_spec(trainer=GdmConfig(epochs=20))
        (run,) = iter_runs(spec)
        assert len(run.history.loss) == 20
        assert math.isfinite(run.row.metric_value)
        # train_mse is the returned model's error; the last history entry is the loss before the last update
        data = gen_quadratic(spec.n_points)
        assert run.train_mse == mse(forward(run.model, data.X)[0], data.T)
        assert run.train_mse != run.history.loss[-1]
        # an LM fit returns its last accepted model, whose loss is the history's last entry
        (lm_run,) = iter_runs(tiny_spec())
        assert lm_run.history.mu  # a step was accepted
        assert lm_run.train_mse == lm_run.history.loss[-1]

    def test_runs_rebuild_from_their_parts(self, heart_file):
        # run r of every activation: the split and the init both seeded base_seed + r
        kinds = (Htan(), Elu(), ModHtan())
        cfg = LmConfig(epochs=20)
        spec = ExperimentSpec(
            dataset="heart", activations=kinds, runs=2, base_seed=5, heart_path=str(heart_file), trainer=cfg
        )
        runs = list(iter_runs(spec))
        data = load_heart(heart_file)
        expected = []
        for kind in kinds:
            for r in range(spec.runs):
                train, test = split(data, SplitSpec(0.2, seed=5 + r))
                model, history = train_lm(nguyen_widrow_init(13, 2, 1, kind, seed=5 + r), train.X, train.T, cfg)
                train_mse = mse(forward(model, train.X)[0], train.T)
                accuracy = classification_accuracy(forward(model, test.X)[0], test.T)
                expected.append((r, kind.name, model.theta.tobytes(), history.loss, train_mse, accuracy))
        got = [
            (run.row.run, run.row.activation, run.model.theta.tobytes(), run.history.loss, run.train_mse,
             run.row.metric_value)
            for run in runs
        ]
        assert got == expected
        assert all(run.row.error is None for run in runs)


class TestEmitReport:
    def test_csv_header_only_for_empty(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_report(BenchReport(), "csv", path)
        assert path.read_text() == "run,activation,runtime_s,metric_name,metric_value\n"

    def test_csv_one_row(self, tmp_path):
        path = tmp_path / "one.csv"
        emit_report(BenchReport(rows=[BenchRow(0, "htan", 0.5, "mse", 0.25)]), "csv", path)
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert lines[1] == "0,htan,0.5,mse,0.25"

    def test_markdown_table_shape(self, tmp_path, heart_file):
        spec = ExperimentSpec(
            dataset="heart",
            activations=(Htan(), Elu(), ModHtan()),
            runs=10,
            heart_path=str(heart_file),
            trainer=LmConfig(epochs=15),
        )
        report = run_experiment(spec)
        path = tmp_path / "report.md"
        emit_report(report, "markdown", path)
        text = path.read_text()
        table_rows = [l for l in text.splitlines() if l.startswith("|")]
        # two tables (metric + runtime), each: header, rule, 10 runs, AVERAGE
        assert len(table_rows) == 2 * 13
        assert sum(1 for l in table_rows if l.startswith("| AVERAGE")) == 2
        assert "| run | htan | elu | modhtan |" in text
        assert "Runtime ordering" in text

    def test_markdown_leaves_a_missing_row_blank(self, tmp_path):
        report = BenchReport(
            rows=[BenchRow(0, "htan", 0.5, "mse", 0.25)],
            averages=[BenchRow("average", "htan", 0.5, "mse", 0.25), BenchRow("average", "elu", 0.0, "mse", 0.0)],
        )
        path = tmp_path / "partial.md"
        emit_report(report, "markdown", path)
        assert "| 0 | 0.25 |  |" in path.read_text().splitlines()

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_report(BenchReport(), "xml", tmp_path / "x")

    def test_runtime_ordering_is_text(self):
        report = BenchReport(
            averages=[
                BenchRow("average", "a", 2.0, "mse", 0.0),
                BenchRow("average", "b", 1.0, "mse", 0.0),
            ]
        )
        assert runtime_ordering(report).startswith("b (1.000 s) < a (2.000 s)")


class TestCurves:
    def test_grid_is_inclusive(self):
        assert curve_grid(-1.0, 1.0, 1.0).tolist() == [-1.0, 0.0, 1.0]

    def test_presets_shape(self):
        lo, hi, step = CURVE_PRESETS["within"]
        assert curve_grid(lo, hi, step).shape == (2001,)
        lo, hi, step = CURVE_PRESETS["exploding"]
        assert curve_grid(lo, hi, step).shape == (2001,)

    def test_point_count_bound(self):
        assert curve_grid(0.0, MAX_POINTS - 1.0, 1.0).shape == (MAX_POINTS,)
        with pytest.raises(ValueError, match=f"^the grid needs {MAX_POINTS + 1} points, over the "
                                             f"{MAX_POINTS} a curve may have$"):
            curve_grid(0.0, float(MAX_POINTS), 1.0)

    def test_bad_ranges_rejected(self):
        with pytest.raises(ValueError):
            curve_grid(1.0, -1.0, 0.1)
        with pytest.raises(ValueError):
            curve_grid(-1.0, 1.0, 0.0)

    @pytest.mark.parametrize(
        "bounds, message",
        [
            ((-math.inf, 1.0, 0.1), "lo must be finite, got -inf"),
            ((-1.0, math.inf, 0.1), "hi must be finite, got inf"),
            ((-1.0, 1.0, math.inf), "step must be finite, got inf"),
            ((-1.0, math.nan, 0.1), "need lo < hi, got lo=-1.0 hi=nan"),
            ((-1.0, 1.0, math.nan), "step must be positive, got nan"),
            ((-1e308, 1e308, 1.0), "(hi - lo) / step must be finite, got inf"),
        ],
    )
    def test_non_finite_bounds_rejected(self, bounds, message):
        with pytest.raises(ValueError) as info:
            curve_grid(*bounds)
        assert str(info.value) == message

    def test_htan_rows(self, tmp_path):
        path = tmp_path / "htan.csv"
        dump_curves(Htan(), -1.0, 1.0, 1.0, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "x,value,gradient"
        assert len(lines) == 4
        assert lines[2] == "0.0,0.0,1.0"

    def test_soft_step_exploding_preset(self, tmp_path):
        path = tmp_path / "softstep.csv"
        dump_curves(SoftStep(), *CURVE_PRESETS["exploding"], path)
        rows = np.genfromtxt(path, delimiter=",", names=True)
        assert np.all(np.isfinite(rows["value"]))
        assert rows["value"].min() == 0.0  # saturates, never overflows
        assert rows["value"].max() == 1.0
        assert rows["value"][-1] == 1.0

    def test_modhtan_exploding_preset_bounded(self, tmp_path):
        path = tmp_path / "modhtan.csv"
        dump_curves(ModHtan(), *CURVE_PRESETS["exploding"], path)
        rows = np.genfromtxt(path, delimiter=",", names=True)
        assert np.all(np.isfinite(rows["value"]))
        assert np.all(np.abs(rows["value"]) < 1.0)

    @pytest.mark.parametrize("preset", CURVE_PRESETS)
    @pytest.mark.parametrize(
        "kind",
        [SoftStep(), Htan(), Elu(), ModHtan(), ModHtan(euler_mode="direct")],
        ids=["softstep", "htan", "elu", "modhtan", "modhtan-direct"],
    )
    def test_rows_match_numpy_scalar_oracle(self, kind, preset, tmp_path):
        path = tmp_path / "curve.csv"
        dump_curves(kind, *CURVE_PRESETS[preset], path)
        xs = curve_grid(*CURVE_PRESETS[preset])
        result = activate(kind, xs)
        rows = [f"{float(x)!r},{float(v)!r},{float(g)!r}" for x, v, g in zip(xs, result.values, result.grads)]
        assert path.read_bytes() == "\n".join(["x,value,gradient", *rows]).encode("utf-8") + b"\n"

    def test_byte_identical_across_calls(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        dump_curves(ModHtan(), -10.0, 10.0, 0.5, a)
        dump_curves(ModHtan(), -10.0, 10.0, 0.5, b)
        assert a.read_bytes() == b.read_bytes()


class TestApproxBench:
    def test_degenerate_point(self):
        result = approx_bench(1, 0.0, 0.0)
        assert result.max_rel_err == 0.0

    def test_error_bound_on_sweep(self):
        result = approx_bench(10_000, -20.0, 20.0)
        assert result.max_rel_err <= 5e-5

    def test_ns_per_op_from_the_clock(self, monkeypatch):
        # a fake clock that advances 1000 ns and then 3000 ns more: rnf_exp's 1000 ns and the reference's 3000 ns
        ticks = iter([5_000, 6_000, 9_000])
        monkeypatch.setattr(bench, "time", SimpleNamespace(perf_counter_ns=lambda: next(ticks)))
        result = approx_bench(8, -1.0, 1.0)
        assert (result.ns_per_op_rnf, result.ns_per_op_ref) == (125.0, 375.0)

    def test_timing_fields_positive(self):
        result = approx_bench(1000, -2.0, 2.0)
        assert isinstance(result, ApproxBenchResult)
        assert result.ns_per_op_rnf > 0.0
        assert result.ns_per_op_ref > 0.0

    def test_domain_violation_propagates(self):
        with pytest.raises(RnfDomainError):
            approx_bench(10, 0.0, 1e8)

    def test_m_validation(self):
        with pytest.raises(ValueError):
            approx_bench(0, 0.0, 1.0)

    def test_underflowed_reference(self):
        # exp is 0.0 below about -745.13; rnf_exp is too, except on a short
        # stretch where its larger value rounds to the smallest subnormal
        assert approx_bench(1000, -800.0, -750.0).max_rel_err == 0.0
        assert approx_bench(5, -745.2, -745.1).max_rel_err == math.inf

    def test_small_a_override(self):
        result = approx_bench(100, -1.0, 1.0, RnfParams(a=1024))
        # error scales like ~x/a; at a=1024 the sweep peaks near 1.5e-3
        assert 1e-4 < result.max_rel_err <= 2e-3
