"""Command-line interface.

Subcommands:
  curves        sample an activation's value/gradient over a range into CSV
  approx-bench  time the rational-power exp approximation against numpy exp
  train         train run 0 of `bench`; print its training MSE (and heart test accuracy)
  bench         repeated-seed comparison across activations (report tables)

Exit codes: 0 success, 2 usage error, 1 for a run-time OSError, ValueError
or MemoryError and for a stalled `train`.  Only `main` maps an exception to a
code: a command builds what it takes from its flags inside `_usage`, which
makes a ValueError or OverflowError there a usage error, and otherwise just
raises.  A stall is a recorded outcome, so `train` reports it itself.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import pathlib
import re
import sys

from .activations import (
    ACTIVATION_NAMES,
    EULER_MODES,
    KINDS,
    ActivationKind,
    ModHtan,
)
from .bench import (
    CURVE_PRESETS,
    ExperimentSpec,
    approx_bench,
    dump_curves,
    emit_report,
    iter_runs,
    run_experiment,
    runtime_ordering,
)
from .rnf import RnfParams
from .training import GdmConfig, LmConfig, history_to_csv


class _UsageError(Exception):
    """A flag value a command cannot be built from; main exits 2 for it."""


@contextlib.contextmanager
def _usage():
    """Re-raise a ValueError or OverflowError of the block as a _UsageError."""
    try:
        yield
    except (ValueError, OverflowError) as exc:
        raise _UsageError(exc) from exc


class _Parser(argparse.ArgumentParser):
    """Reads -1e-3 as a value, not an option; argparse's own pattern has no exponent."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)  # flags in full: --euler is an error, not --euler-mode
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")


def _add_activation_flags(p: argparse.ArgumentParser) -> None:
    g = p.add_argument_group("activation parameters")
    g.add_argument("--euler-mode", choices=EULER_MODES, default=ModHtan.euler_mode,
                   help="tanh with slope ln E of the cached Euler constant, or the rational formula per input "
                        "(default %(default)s)")


def _add_trainer_flags(p: argparse.ArgumentParser) -> None:
    g = p.add_argument_group("training parameters")
    g.add_argument("--trainer", choices=("lm", "gdm"), default="lm")
    g.add_argument("--seed", type=int, default=ExperimentSpec.base_seed, help="base seed; run r uses seed+r")
    g.add_argument("--epochs", type=int, default=LmConfig.epochs)
    g.add_argument("--hidden", type=int, default=ExperimentSpec.n_hidden,
                   help=f"hidden units (default {ExperimentSpec.n_hidden})")
    g.add_argument("--lr", type=float, default=GdmConfig.learning_rate, help="gdm learning rate")
    g.add_argument("--momentum", type=float, default=GdmConfig.momentum, help="gdm momentum")
    g.add_argument("--mu0", type=float, default=LmConfig.mu0, help="lm initial damping")
    g.add_argument("--mu-inc", type=float, default=LmConfig.mu_inc, help="lm damping increase factor")
    g.add_argument("--mu-dec", type=float, default=LmConfig.mu_dec, help="lm damping decrease factor")
    g.add_argument("--mu-max", type=float, default=LmConfig.mu_max, help="lm damping ceiling")


def _add_data_flags(p: argparse.ArgumentParser) -> None:
    g = p.add_argument_group("dataset")
    g.add_argument("--data", choices=("synthetic", "heart"), default="synthetic")
    g.add_argument(
        "--n", type=int, default=ExperimentSpec.n_points, help="synthetic sample count"
    )
    g.add_argument("--path", default=None, help="heart data file")
    g.add_argument("--test-fraction", type=float, default=ExperimentSpec.test_fraction)


def _activation_from_flags(name: str, args: argparse.Namespace) -> ActivationKind:
    """The kind called name; only modhtan has a flag, so the other kinds ignore --euler-mode."""
    if name != "modhtan":
        return KINDS[name]()
    return ModHtan(euler_mode=args.euler_mode)


def _fn_names(text: str) -> list[str]:
    """--fns's comma-separated names; an unknown name is argparse's usage error."""
    names = [name.strip() for name in text.split(",") if name.strip()]
    if bad := [name for name in names if name not in ACTIVATION_NAMES]:
        raise argparse.ArgumentTypeError(f"unknown activation {bad[0]!r}; choose from {', '.join(ACTIVATION_NAMES)}")
    return names


def _spec(args: argparse.Namespace, names: list[str], runs: int) -> ExperimentSpec:
    """The experiment the flags describe; a bad value is a ValueError."""
    if args.data == "heart" and args.path is None:
        raise ValueError("--data heart requires --path")
    # both configs are built from the flags, so a bad --lr is a usage error under lm too
    gdm = GdmConfig(learning_rate=args.lr, momentum=args.momentum, epochs=args.epochs)
    lm = LmConfig(mu0=args.mu0, mu_inc=args.mu_inc, mu_dec=args.mu_dec, mu_max=args.mu_max, epochs=args.epochs)
    return ExperimentSpec(
        dataset=args.data,
        activations=tuple(_activation_from_flags(n, args) for n in names),
        runs=runs,
        base_seed=args.seed,
        trainer=gdm if args.trainer == "gdm" else lm,
        n_hidden=args.hidden,
        n_points=args.n,
        heart_path=args.path,
        test_fraction=args.test_fraction,
    )


def cmd_curves(args: argparse.Namespace) -> int:
    lo, hi, step = CURVE_PRESETS[args.preset or "within"]
    lo = lo if args.lo is None else args.lo
    hi = hi if args.hi is None else args.hi
    step = step if args.step is None else args.step
    out = args.out if args.out is not None else f"{args.fn}_curve.csv"
    with _usage():  # dump_curves checks the bounds before it samples or writes
        dump_curves(_activation_from_flags(args.fn, args), lo, hi, step, out)
    print(f"wrote {out} ({args.fn}, [{lo:g}, {hi:g}] step {step:g})")
    return 0


def cmd_approx_bench(args: argparse.Namespace) -> int:
    with _usage():  # the sweep's domain is the flags' [lo, hi]
        result = approx_bench(args.count, args.lo, args.hi, RnfParams(a=args.rnf_a))
    print(
        f"rnf_exp {result.ns_per_op_rnf:.1f} ns/op, "
        f"reference exp {result.ns_per_op_ref:.1f} ns/op, "
        f"max relative error {result.max_rel_err:.3e}"
    )
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    with _usage():
        spec = _spec(args, [args.fn], 1)
    row, _, history, train_mse = next(iter_runs(spec))
    if args.history is not None:
        history_to_csv(history, args.history)
    if row.error is not None:
        print(f"stalled after {len(history.loss)} epochs: {row.error}", file=sys.stderr)
        return 1
    print(
        f"train mse {train_mse:.6g} after {len(history.loss)} epochs "
        f"({row.runtime_s:.2f} s, termination: {history.termination})"
    )
    if row.metric_name == "accuracy_pct":
        print(f"test accuracy {row.metric_value:.2f}%")
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    with _usage():
        spec = _spec(args, args.fns, args.runs)
    report = run_experiment(spec)
    for path in args.out or ():
        fmt = args.format or ("markdown" if pathlib.PurePath(path).suffix == ".md" else "csv")
        emit_report(report, fmt, path)
        print(f"wrote {path}")
    for row in report.averages:
        print(
            f"{row.activation}: {row.metric_name}={row.metric_value:.6g}, "
            f"runtime_s={row.runtime_s:.3f}"
        )
    print(f"runtime ordering (observational): {runtime_ordering(report)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="modhtan",
        description="Normalized-tanh activation experiments: curves, training, benchmarks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_curves = sub.add_parser("curves", help="dump activation value/gradient samples to CSV")
    p_curves.add_argument("--fn", choices=ACTIVATION_NAMES, required=True)
    p_curves.add_argument("--lo", type=float, default=None)
    p_curves.add_argument("--hi", type=float, default=None)
    p_curves.add_argument("--step", type=float, default=None)
    p_curves.add_argument(
        "--preset",
        choices=tuple(CURVE_PRESETS),
        default=None,
        help="; ".join(f"{name} = [{lo:g}, {hi:g}] step {step:g}" for name, (lo, hi, step) in CURVE_PRESETS.items()),
    )
    p_curves.add_argument("--out", default=None, help="output CSV (default <fn>_curve.csv)")
    _add_activation_flags(p_curves)
    p_curves.set_defaults(func=cmd_curves)

    p_ab = sub.add_parser("approx-bench", help="time rnf_exp against the reference exp")
    p_ab.add_argument("--count", type=int, default=200_000)
    p_ab.add_argument("--lo", type=float, default=-20.0)
    p_ab.add_argument("--hi", type=float, default=20.0)
    p_ab.add_argument("--rnf-a", type=int, default=RnfParams.a, help="rational-power exponent")
    p_ab.set_defaults(func=cmd_approx_bench)

    p_train = sub.add_parser("train", help="train one model and print its final metric")
    p_train.add_argument("--fn", choices=ACTIVATION_NAMES, required=True)
    p_train.add_argument("--history", default=None, help="write per-epoch loss CSV here")
    _add_data_flags(p_train)
    _add_trainer_flags(p_train)
    _add_activation_flags(p_train)
    p_train.set_defaults(func=cmd_train)

    p_bench = sub.add_parser("bench", help="timed repeated runs across activations")
    p_bench.add_argument("--fns", type=_fn_names, default="htan,elu,modhtan", help="comma-separated activation names")
    p_bench.add_argument("--runs", type=int, default=ExperimentSpec.runs)
    p_bench.add_argument(
        "--out", nargs="+", default=None,
        help="report files (default: stdout summary only); each is markdown for a .md suffix, else csv",
    )
    p_bench.add_argument("--format", choices=("csv", "markdown"), default=None,
                         help="write every --out file in this format")
    _add_data_flags(p_bench)
    _add_trainer_flags(p_bench)
    _add_activation_flags(p_bench)
    p_bench.set_defaults(func=cmd_bench)

    return parser


# main's parser, built on its first call.  A parse leaves no state in it: no
# default is mutable, and each cmd_* looks its helpers up as module globals.
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
