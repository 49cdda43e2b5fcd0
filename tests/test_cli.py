"""End-to-end CLI coverage through main(argv) -> exit code."""

import argparse
import warnings

import pytest

from modhtan import bench, cli, training
from modhtan.activations import Htan, ModHtan
from modhtan.bench import dump_curves
from modhtan.cli import build_parser, main
from modhtan.datasets import make_heart_fixture
from modhtan.network import StallError, forward


def strip_runtime(path):
    """CSV cells of a bench report without the runtime_s column."""
    return [[c for i, c in enumerate(l.split(",")) if i != 2] for l in path.read_text().splitlines()]


class TestCurvesCommand:
    def test_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "h.csv"
        assert main(["curves", "--fn", "htan", "--lo", "-1", "--hi", "1", "--step", "0.5", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "x,value,gradient"
        assert len(lines) == 6
        assert "wrote" in capsys.readouterr().out

    def test_preset_exploding(self, tmp_path):
        out = tmp_path / "s.csv"
        assert main(["curves", "--fn", "softstep", "--preset", "exploding", "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 2002  # header + 2001 samples

    def test_default_output_name(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["curves", "--fn", "elu", "--lo", "0", "--hi", "1", "--step", "1"]) == 0
        assert (tmp_path / "elu_curve.csv").exists()

    def test_unknown_fn_is_usage_error(self, capsys):
        assert main(["curves", "--fn", "nosuch"]) == 2
        capsys.readouterr()

    def test_bad_range_is_usage_error(self, tmp_path, capsys):
        code = main(["curves", "--fn", "htan", "--lo", "5", "--hi", "-5", "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--hi", "inf"], "hi must be finite, got inf"),
            (["--lo=-inf"], "lo must be finite, got -inf"),
            (["--lo", "nan"], "need lo < hi, got lo=nan"),
            (["--step", "nan"], "step must be positive, got nan"),
            (["--step", "inf"], "step must be finite, got inf"),
            (["--lo=-1e308", "--hi", "1e308"], "(hi - lo) / step must be finite, got inf"),
        ],
    )
    def test_non_finite_bounds_are_usage_errors(self, tmp_path, capsys, flags, message):
        out = tmp_path / "x.csv"
        assert main(["curves", "--fn", "htan", *flags, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not out.exists()

    def test_grid_over_the_point_bound_is_usage_error(self, tmp_path, capsys):
        # 10**9 + 1 points would exhaust memory; the count is checked before any allocation
        out = tmp_path / "x.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["curves", "--fn", "htan", "--lo", "0", "--hi", "1", "--step", "1e-9", "--out", str(out)])
        assert code == 2
        message = "the grid needs 1000000001 points, over the 1000000 a curve may have"
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not out.exists()

    def test_unwritable_path_is_runtime_error(self, capsys):
        code = main(["curves", "--fn", "htan", "--out", "/nonexistent-dir/x.csv"])
        assert code == 1
        capsys.readouterr()

    @pytest.mark.parametrize(
        "argv",
        [
            ["train", "--fn", "htan", "--n", "20", "--epochs", "2", "--history", "/nonexistent-dir/h.csv"],
            ["bench", "--fns", "htan", "--runs", "1", "--n", "20", "--epochs", "2",
             "--out", "/nonexistent-dir/r.csv"],
        ],
        ids=["train-history", "bench-out"],
    )
    def test_unwritable_output_is_runtime_error(self, argv, capsys):
        assert main(argv) == 1
        assert "error:" in capsys.readouterr().err


class TestApproxBenchCommand:
    def test_summary_line(self, capsys):
        assert main(["approx-bench", "--count", "500", "--lo", "-2", "--hi", "2"]) == 0
        out = capsys.readouterr().out
        assert "ns/op" in out
        assert "max relative error" in out

    def test_domain_violation(self, capsys):
        assert main(["approx-bench", "--count", "10", "--lo", "0", "--hi", "1e8"]) == 2
        capsys.readouterr()

    def test_underflowed_reference(self, capsys):
        assert main(["approx-bench", "--count", "1000", "--lo", "-800", "--hi", "-750"]) == 0
        captured = capsys.readouterr()
        assert "max relative error 0.000e+00" in captured.out
        assert captured.err == ""

    def test_non_finite_width_is_usage_error(self, capsys):
        # hi - lo overflows to inf: rejected before np.linspace, which would warn on it
        assert main(["approx-bench", "--count", "10", "--lo", "-1e308", "--hi", "1e308"]) == 2
        assert capsys.readouterr() == ("", "error: hi - lo must be finite, got inf\n")

    def test_zero_count_is_usage_error(self, capsys):
        assert main(["approx-bench", "--count", "0"]) == 2
        assert capsys.readouterr().err.startswith("error: ")


class TestTrainCommand:
    def test_synthetic(self, capsys):
        code = main(["train", "--fn", "htan", "--n", "60", "--epochs", "25", "--seed", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "train mse" in out
        assert "termination:" in out

    def test_heart_reports_accuracy(self, heart_file, capsys):
        code = main(["train", "--fn", "modhtan", "--data", "heart", "--path", str(heart_file),
                     "--epochs", "25"])
        assert code == 0
        assert "test accuracy" in capsys.readouterr().out

    def test_heart_fixture_of_any_size_trains_quietly(self, tmp_path, capsys):
        path = tmp_path / "h120.dat"
        make_heart_fixture(path, n=120)
        with warnings.catch_warnings():  # a warning would print outside capsys's view
            warnings.simplefilter("error")
            assert main(["train", "--fn", "modhtan", "--data", "heart", "--path", str(path), "--epochs", "3"]) == 0
        assert capsys.readouterr().err == ""

    def test_heart_file_without_rows(self, tmp_path, capsys):
        path = tmp_path / "empty.dat"
        path.write_text("\n")
        assert main(["train", "--fn", "htan", "--data", "heart", "--path", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {path}: no data rows\n"

    def test_heart_requires_path(self, capsys):
        assert main(["train", "--fn", "htan", "--data", "heart"]) == 2
        assert "--path" in capsys.readouterr().err

    def test_missing_heart_file(self, capsys):
        code = main(["train", "--fn", "htan", "--data", "heart", "--path", "/no/such/file.dat"])
        assert code == 1
        capsys.readouterr()

    def test_history(self, tmp_path, capsys):
        hist_path = tmp_path / "h.csv"
        code = main(["train", "--fn", "elu", "--n", "40", "--epochs", "10", "--history", str(hist_path)])
        assert code == 0
        capsys.readouterr()
        hist_lines = hist_path.read_text().splitlines()
        assert hist_lines[0] == "epoch,loss,epoch_time_s"
        assert len(hist_lines) == 11

    def test_gdm_trainer(self, capsys):
        code = main(["train", "--fn", "softstep", "--trainer", "gdm", "--n", "40",
                     "--epochs", "30", "--lr", "0.05"])
        assert code == 0
        capsys.readouterr()

    def test_divergence_exits_nonzero(self, capsys):
        code = main(["train", "--fn", "elu", "--trainer", "gdm", "--lr", "1e30",
                     "--n", "40", "--epochs", "50"])
        assert code == 1
        assert "stalled" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "fn, data, message",
        [
            # one step at lr 1e306 leaves finite weights whose outputs overflow in the evaluation forward
            ("elu", "synthetic", "outputs contain non-finite values"),
            # htan's outputs stay finite, but their squared errors overflow
            ("htan", "synthetic", "mse is not finite"),
            # the same overflow on the training rows, while the test accuracy stays finite
            ("htan", "heart", "mse is not finite"),
        ],
        ids=["elu", "htan", "heart-htan"],
    )
    def test_output_overflow_is_a_stall_without_a_warning(self, fn, data, message, heart_file, capsys):
        flags = ["--n", "40"] if data == "synthetic" else ["--data", "heart", "--path", str(heart_file)]
        code = main(["train", "--fn", fn, "--trainer", "gdm", "--epochs", "1", "--lr", "1e306",
                     *flags, "--momentum", "0"])
        assert code == 1
        assert capsys.readouterr().err == f"stalled after 1 epochs: {message}\n"

    def test_train_forward_stall(self, monkeypatch, capsys):
        # the final training-set forward after a clean fit; the trainer's own forwards are untouched
        def stall(*args, **kwargs):
            raise StallError("outputs contain non-finite values")

        monkeypatch.setattr(bench, "forward", stall)
        assert main(["train", "--fn", "htan", "--n", "40", "--epochs", "2"]) == 1
        assert capsys.readouterr().err == "stalled after 2 epochs: outputs contain non-finite values\n"


class TestBenchCommand:
    def test_stall_is_a_nan_row(self, tmp_path, capsys):
        # one step at lr 1e306 leaves finite weights whose outputs overflow
        out = tmp_path / "r.csv"
        code = main(["bench", "--fns", "elu", "--trainer", "gdm", "--lr", "1e306", "--momentum", "0",
                     "--runs", "1", "--n", "50", "--epochs", "3", "--out", str(out)])
        assert code == 0
        capsys.readouterr()
        assert out.read_text().splitlines()[1].split(",")[-2:] == ["mse", "nan"]

    def test_stalled_runs_in_the_markdown_report(self, tmp_path, monkeypatch, capsys):
        message = "outputs contain non-finite values"
        modhtan_forwards = []

        def stall_odd_modhtan_forwards(model, X, *args):
            # the one evaluation forward of each synthetic run: modhtan's runs 0 and 2 stall
            if model.hidden_kind.name == "modhtan":
                modhtan_forwards.append(model)
                if len(modhtan_forwards) % 2:
                    raise StallError(message)
            return forward(model, X, *args)

        monkeypatch.setattr(bench, "forward", stall_odd_modhtan_forwards)
        out = tmp_path / "r.md"
        code = main(["bench", "--fns", "htan,modhtan", "--runs", "3", "--n", "50", "--epochs", "3", "--out", str(out)])
        assert code == 0
        capsys.readouterr()
        lines = out.read_text().splitlines()
        metric_table = lines[lines.index("## mse") + 4 : lines.index("## runtime_s") - 1]
        cells = [l.rsplit("|", 2)[1].strip() for l in metric_table]  # the modhtan column
        # runs 0 and 2 stall; run 1 is the one clean row, so it is the average
        assert cells[0] == cells[2] == "stall"
        assert cells[3] == cells[1] != "stall"
        runtime_table = lines[lines.index("## runtime_s") + 4 : lines.index("## failed runs") - 1]
        runtimes = [l.rsplit("|", 2)[1].strip() for l in runtime_table]
        assert runtimes[3] == runtimes[1]  # the average runtime is run 1's too
        failed = lines.index("## failed runs")
        assert lines[failed + 1 : failed + 5] == [
            "",
            f"- run 0, modhtan: {message}",
            f"- run 2, modhtan: {message}",
            "",
        ]

    def test_csv_report(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        code = main(["bench", "--fns", "htan", "--runs", "2", "--n", "40",
                     "--epochs", "15", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "run,activation,runtime_s,metric_name,metric_value"
        assert len(lines) == 4  # 2 runs + 1 average
        stdout = capsys.readouterr().out
        assert "runtime ordering (observational):" in stdout
        assert "htan: mse=" in stdout

    def test_markdown_report(self, tmp_path, capsys):
        out = tmp_path / "r.md"
        code = main(["bench", "--fns", "htan,elu", "--runs", "2", "--n", "40",
                     "--epochs", "10", "--out", str(out), "--format", "markdown"])
        assert code == 0
        capsys.readouterr()
        text = out.read_text()
        assert text.startswith("# benchmark report")
        assert "| AVERAGE |" in text

    def test_csv_and_markdown_in_one_run(self, tmp_path, capsys):
        args = ["bench", "--fns", "htan,elu", "--runs", "2", "--n", "40", "--epochs", "10"]
        single, csv, md = tmp_path / "single.csv", tmp_path / "r.csv", tmp_path / "r.md"
        assert main([*args, "--out", str(single)]) == 0
        assert main([*args, "--out", str(csv), str(md)]) == 0
        stdout = capsys.readouterr().out
        assert f"wrote {csv}" in stdout and f"wrote {md}" in stdout
        assert strip_runtime(csv) == strip_runtime(single)
        assert md.read_text().startswith("# benchmark report")

    def test_format_flag_applies_to_every_path(self, tmp_path, capsys):
        out = tmp_path / "r.md"
        assert main(["bench", "--fns", "htan", "--runs", "1", "--n", "40", "--epochs", "5",
                     "--out", str(out), "--format", "csv"]) == 0
        capsys.readouterr()
        assert out.read_text().startswith("run,activation,runtime_s,metric_name,metric_value")

    def test_unwritable_second_path_is_runtime_error(self, tmp_path, capsys):
        code = main(["bench", "--fns", "htan", "--runs", "1", "--n", "40", "--epochs", "5",
                     "--out", str(tmp_path / "r.csv"), "/nonexistent-dir/r.md"])
        assert code == 1
        assert "error:" in capsys.readouterr().err
        assert (tmp_path / "r.csv").exists()

    def test_heart_requires_path(self, capsys):
        assert main(["bench", "--data", "heart", "--runs", "1"]) == 2
        assert "--data heart requires --path" in capsys.readouterr().err

    def test_zero_runs_rejected(self, capsys):
        assert main(["bench", "--runs", "0", "--n", "40"]) == 2
        capsys.readouterr()

    def test_heart_file_without_rows(self, tmp_path, capsys):
        path = tmp_path / "empty.dat"
        path.write_text("")
        assert main(["bench", "--runs", "1", "--data", "heart", "--path", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {path}: no data rows\n"

    def test_heart_split_with_an_empty_side(self, heart_file, capsys):
        argv = ["bench", "--runs", "1", "--data", "heart", "--path", str(heart_file), "--test-fraction", "0.001"]
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: split of 270 rows at fraction 0.001 leaves an empty side\n"

    def test_heart_bench(self, heart_file, tmp_path, capsys):
        out = tmp_path / "heart.csv"
        code = main(["bench", "--fns", "modhtan", "--runs", "2", "--data", "heart",
                     "--path", str(heart_file), "--epochs", "15", "--out", str(out)])
        assert code == 0
        capsys.readouterr()
        body = out.read_text()
        assert "accuracy_pct" in body

    def test_heart_fixture_of_any_size_benches_quietly(self, tmp_path, capsys):
        # heart's split permutes rows, so this fits H = 50 on shuffled samples
        path, out = tmp_path / "h120.dat", tmp_path / "heart.csv"
        make_heart_fixture(path, n=120)
        argv = ["bench", "--fns", "modhtan", "--runs", "1", "--data", "heart", "--path", str(path),
                "--hidden", "50", "--epochs", "3", "--out", str(out)]
        with warnings.catch_warnings():  # a warning would print outside capsys's view
            warnings.simplefilter("error")
            assert main(argv) == 0
        assert capsys.readouterr().err == ""
        assert "accuracy_pct" in out.read_text()

    def test_determinism_modulo_runtime(self, tmp_path, capsys):
        args = ["bench", "--fns", "modhtan", "--runs", "2", "--n", "40", "--epochs", "12"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main([*args, "--out", str(a)]) == 0
        assert main([*args, "--out", str(b)]) == 0
        capsys.readouterr()
        assert strip_runtime(a) == strip_runtime(b)


class TestFitFlags:
    @pytest.mark.parametrize("command", [["train", "--fn", "htan"], ["bench", "--runs", "1"]], ids=["train", "bench"])
    def test_negative_seed_is_named(self, command, capsys):
        assert main([*command, "--n", "20", "--epochs", "2", "--seed", "-1"]) == 2
        assert capsys.readouterr().err == "error: base_seed must be >= 0, got -1\n"

    def test_train_seed_fits_run_zero_of_bench_seed(self, heart_file, monkeypatch, capsys):
        fitted = []

        def recording(model, X, T, cfg):
            model, history = training.train_lm(model, X, T, cfg)
            fitted.append(model.theta.tobytes())
            return model, history

        monkeypatch.setattr(bench, "train_lm", recording)
        flags = ["--data", "heart", "--path", str(heart_file), "--epochs", "10", "--seed", "3"]
        assert main(["train", "--fn", "elu", *flags]) == 0
        assert main(["bench", "--fns", "elu", "--runs", "2", *flags]) == 0
        capsys.readouterr()
        train_fit, *bench_fits = fitted
        assert train_fit == bench_fits[0] != bench_fits[1]


class TestRuntimeErrors:
    @pytest.mark.parametrize(
        "argv",
        [["curves", "--fn", "htan"], ["approx-bench"], ["train", "--fn", "htan"], ["bench"]],
        ids=["curves", "approx-bench", "train", "bench"],
    )
    def test_memory_error_exits_one(self, argv, monkeypatch, capsys):
        def out_of_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 8.00 EiB for an array")

        for name in ("iter_runs", "run_experiment", "dump_curves", "approx_bench"):
            monkeypatch.setattr(cli, name, out_of_memory)
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: Unable to allocate 8.00 EiB for an array\n"
        assert captured.out == ""

    @pytest.mark.parametrize("command", [["train", "--fn", "htan"], ["bench", "--runs", "1"]], ids=["train", "bench"])
    def test_undecodable_heart_file_names_itself(self, command, tmp_path, capsys):
        path = tmp_path / "bin.dat"
        path.write_bytes(b"\xff\xfe\x00")
        assert main([*command, "--data", "heart", "--path", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: 'utf-8' codec can't decode byte 0xff in position 0")
        assert err.count("\n") == 1 and err.endswith("\n")


def _float_options():
    """(subcommand, option) for every float-typed option of every subcommand."""
    subparsers = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return [
        (command, action.option_strings[0])
        for command, parser in subparsers.choices.items()
        for action in parser._actions
        if action.type is float
    ]


REQUIRED = {"curves": ["--fn", "htan"], "train": ["--fn", "htan"]}


class TestNegativeNumbers:
    """argparse alone reads -1e-3 after an option as an unknown option."""

    def test_every_command_has_float_options(self):
        assert {command for command, _ in _float_options()} == {"curves", "approx-bench", "train", "bench"}

    @pytest.mark.parametrize("command,option", _float_options())
    def test_negative_values_parse(self, command, option):
        for value in ("-1e-3", "-1E+2", "-.5e1", "-800", "-2.5"):
            args = build_parser().parse_args([command, *REQUIRED.get(command, []), option, value])
            assert getattr(args, option[2:].replace("-", "_")) == float(value)

    @pytest.mark.parametrize("command,option", _float_options())
    def test_option_like_value_is_usage_error(self, command, option, capsys):
        assert main([command, *REQUIRED.get(command, []), option, "-x"]) == 2
        assert "expected one argument" in capsys.readouterr().err

    def test_curves_end_to_end(self, tmp_path, capsys):
        out = tmp_path / "c.csv"
        assert main(["curves", "--fn", "htan", "--lo", "-1e-3", "--hi", "1E-3", "--step", "1e-4", "--out", str(out)]) == 0
        assert out.read_text().splitlines()[1].startswith("-0.001,")
        capsys.readouterr()

    def test_approx_bench_end_to_end(self, capsys):
        assert main(["approx-bench", "--count", "100", "--lo", "-1e1", "--hi", "-.5e1"]) == 0
        assert "max relative error" in capsys.readouterr().out


class TestParserReuse:
    """main parses every call with one parser; no call may leave state in it for the next."""

    GRID = ["--lo", "-5", "--hi", "5", "--step", "0.5"]

    def test_flags_of_one_call_do_not_reach_the_next(self, tmp_path, capsys):
        flagged, default, want = tmp_path / "flagged.csv", tmp_path / "default.csv", tmp_path / "want.csv"
        argv = ["curves", "--fn", "modhtan", "--euler-mode", "direct"]
        assert main([*argv, *self.GRID, "--out", str(flagged)]) == 0
        assert main(["curves", "--fn", "modhtan", *self.GRID, "--out", str(default)]) == 0
        dump_curves(ModHtan(), -5.0, 5.0, 0.5, want)
        assert default.read_bytes() == want.read_bytes()
        assert flagged.read_bytes() != want.read_bytes()
        capsys.readouterr()

    @pytest.mark.parametrize(
        "bad",
        [["--lo", "three"], ["--lo", "5", "--hi", "-5"],
         # retired flags, and a prefix of a live one, are unrecognized rather than read as another flag
         ["--k", "3"], ["--cutoff", "3"], ["--center-normalize", "off"], ["--euler", "direct"]],
        ids=["argparse", "command", "retired-k", "retired-cutoff", "retired-center-normalize", "abbreviated-euler-mode"],
    )
    def test_usage_error_then_valid_call(self, bad, tmp_path, capsys):
        out, want = tmp_path / "htan.csv", tmp_path / "want.csv"
        assert main(["curves", "--fn", "modhtan", *bad, "--out", str(tmp_path / "bad.csv")]) == 2
        capsys.readouterr()
        assert main(["curves", "--fn", "htan", *self.GRID, "--out", str(out)]) == 0
        assert capsys.readouterr() == (f"wrote {out} (htan, [-5, 5] step 0.5)\n", "")
        dump_curves(Htan(), -5.0, 5.0, 0.5, want)
        assert out.read_bytes() == want.read_bytes()
        assert not (tmp_path / "bad.csv").exists()


class TestFlagsInFull:
    """Every command takes its flags only in full: a retired activation flag,
    or a prefix of a live flag, is unrecognized on each of them."""

    @pytest.mark.parametrize("command", ["curves", "train", "bench"])
    @pytest.mark.parametrize("flag, value", [("--k", "3"), ("--cutoff", "3"), ("--center-normalize", "off"),
                                             ("--clamp", "50"), ("--save", "m.txt"), ("--alpha", "1"),
                                             ("--offset-mode", "fixed"), ("--offset", "1"), ("--euler", "direct")])
    def test_retired_or_abbreviated_flag_is_usage_error(self, command, flag, value, capsys):
        with pytest.raises(SystemExit) as info:
            build_parser().parse_args([command, *REQUIRED.get(command, []), flag, value])
        assert info.value.code == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train", "bench"])
    def test_retired_random_x_is_usage_error(self, command, capsys):
        with pytest.raises(SystemExit) as info:
            build_parser().parse_args([command, *REQUIRED.get(command, []), "--random-x"])
        assert info.value.code == 2
        assert "unrecognized arguments: --random-x" in capsys.readouterr().err

    # --a is retired: approx-bench takes the exponent as --rnf-a, the one command with that flag
    @pytest.mark.parametrize("flag, value", [("--cou", "100"), ("--a", "1024")])
    def test_approx_bench_retired_or_abbreviated_flag_is_usage_error(self, flag, value, capsys):
        with pytest.raises(SystemExit) as info:
            build_parser().parse_args(["approx-bench", flag, value])
        assert info.value.code == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err


class TestParserBasics:
    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        capsys.readouterr()

    def test_no_command_is_usage_error(self, capsys):
        assert main([]) == 2
        capsys.readouterr()

    def test_subcommand_help(self, capsys):
        assert main(["train", "--help"]) == 0
        assert "--trainer" in capsys.readouterr().out


def first_stderr_line(err):
    """stderr's first line past argparse's usage block, or None when stderr is empty."""
    return next((line for line in err.splitlines() if not line.startswith(("usage: ", " "))), None)


USAGE_TABLE = [
    # the adaptive offset's headroom and floor and modhtan's RNF exponent are constants
    *(
        pytest.param([*command, flag, value], 2, f"modhtan: error: unrecognized arguments: {flag} {value}",
                     id=f"{command[0]}{flag}")
        for command in [["curves", "--fn", "modhtan"], ["train", "--fn", "modhtan"], ["bench", "--fns", "modhtan"]]
        for flag, value in [("--delta", "0.05"), ("--kappa", "1e-06"), ("--rnf-a", "10000000")]
    ),
    # approx-bench measures the approximation itself, so it keeps the exponent
    pytest.param(["approx-bench", "--count", "100", "--rnf-a", "1024"], 0, None, id="approx-bench--rnf-a"),
    pytest.param(["approx-bench", "--count", "100", "--rnf-a", "1"], 2,
                 "error: calibration constant a must be >= 2 and at most the largest double, got 1",
                 id="approx-bench--rnf-a-1"),
    pytest.param(["approx-bench", "--count", "100", "--rnf-a", "2"], 2,
                 "error: 1 + x must stay strictly below a = 2", id="approx-bench--rnf-a-2"),
    pytest.param(["approx-bench", "--count", "100", "--rnf-a", "1.5"], 2,
                 "modhtan approx-bench: error: argument --rnf-a: invalid int value: '1.5'",
                 id="approx-bench--rnf-a-float"),
    # argparse's quoting of the choices that follow differs between Python versions
    *(
        pytest.param([*command, "--euler-mode", "sometimes"], 2,
                     f"modhtan {command[0]}: error: argument --euler-mode: invalid choice: 'sometimes'",
                     id=f"{command[0]}--euler-mode")
        for command in [["curves", "--fn", "modhtan"], ["train", "--fn", "modhtan"], ["bench", "--fns", "modhtan"]]
    ),
    # every model command takes the one activation flag left
    *(
        pytest.param([*command, "--euler-mode", "direct"], 0, None, id=f"{command[0]}--euler-mode-direct")
        for command in [["curves", "--fn", "modhtan", "--lo", "-1", "--hi", "1", "--step", "0.5"],
                        ["train", "--fn", "modhtan", "--n", "20", "--epochs", "2"],
                        ["bench", "--fns", "modhtan", "--runs", "1", "--n", "20", "--epochs", "2", "--out", "r.csv"]]
    ),
    pytest.param(["bench", "--fns", "htan,nosuch", "--runs", "1", "--n", "40"], 2,
                 "modhtan bench: error: argument --fns: unknown activation 'nosuch'; "
                 "choose from softstep, htan, elu, modhtan", id="bench--fns-unknown"),
    pytest.param(["bench", "--fns", " , ", "--runs", "1", "--n", "40"], 2,
                 "error: activation list must be non-empty", id="bench--fns-empty"),
    pytest.param(["bench", "--fns", "htan,htan", "--runs", "1", "--n", "30", "--epochs", "3", "--out", "r.md", "r.csv"],
                 2, "error: activation 'htan' is listed twice; the report keys its results by name",
                 id="bench--fns-duplicate"),
    # a bad fit value is rejected by the experiment's dataclasses before anything is trained;
    # --n 1000001 before gen_quadratic allocates its points
    *(
        pytest.param([*command, "--n", "20", "--epochs", "2", *flags], 2, line, id=f"{command[0]}--{name}")
        for command in [["train", "--fn", "htan"], ["bench", "--runs", "1"]]
        for name, flags, line in [
            ("mu0", ["--mu0", "-1"], "error: mu0 must be positive"),
            ("mu-dec", ["--mu-dec", "2"], "error: mu_dec must be in (0, 1)"),
            ("lr", ["--lr", "-1", "--trainer", "gdm"], "error: learning_rate must be positive and finite"),
            ("momentum", ["--momentum", "1.5", "--trainer", "gdm"], "error: momentum must be in [0, 1)"),
            ("test-fraction", ["--test-fraction", "1.5", "--data", "heart", "--path", "heart.dat"],
             "error: test_fraction must be in (0, 1), got 1.5"),
            ("n", ["--n", "1"], "error: n_points must be from 2 to 1000000, got 1"),
            ("n-over-max", ["--n", "1000001"], "error: n_points must be from 2 to 1000000, got 1000001"),
            ("epochs", ["--epochs", "0"], "error: epochs must be >= 1"),
            ("hidden", ["--hidden", "0"], "error: n_hidden must be >= 1, got 0"),
            ("seed", ["--seed", "-1"], "error: base_seed must be >= 0, got -1"),
            ("mu-max", ["--mu-max", "inf"], "error: mu_max must be finite and exceed mu0"),
            ("mu-inc-inf", ["--mu-inc", "inf"], "error: mu_inc must be finite and > 1"),
            ("mu-inc-near-1", ["--mu-inc", "1.01"], "error: mu_inc 1.01 lets an epoch try 6944 candidates, over 1000"),
            ("lr-inf", ["--lr", "inf", "--trainer", "gdm"], "error: learning_rate must be positive and finite"),
        ]
    ),
]


@pytest.mark.parametrize("argv, code, line", USAGE_TABLE)
def test_usage_table(argv, code, line, tmp_path, monkeypatch, capsys):
    """main(argv) in-process, warnings as errors: the exit code, and the first
    stderr line past argparse's usage block starts with line.  A command that
    exits 2 writes no file."""
    monkeypatch.chdir(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == code
    got = first_stderr_line(capsys.readouterr().err)
    if line is None:
        assert got is None
    else:
        assert got.startswith(line)
    assert code != 2 or list(tmp_path.iterdir()) == []
