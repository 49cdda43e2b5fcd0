"""Command-line interface.

Subcommands:
  curves        sample an activation's value/gradient over a range into CSV
  approx-bench  time the rational-power exp approximation against numpy exp
  train         train a single model and print its final metric
  bench         repeated-seed comparison across activations (report tables)

Exit codes: 0 success, 1 runtime / I-O / stall failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import sys
import time

from .activations import ACTIVATION_NAMES, PARAMS, ActivationKind, kind_from_fields
from .bench import (
    CURVE_PRESETS,
    ExperimentSpec,
    approx_bench,
    dump_curves,
    emit_report,
    run_experiment,
    runtime_ordering,
)
from .datasets import SplitSpec, gen_quadratic, load_heart, split
from .network import StallError, forward, nguyen_widrow_init, save_model
from .rnf import RnfDomainError, RnfParams
from .training import (
    GdmConfig,
    LmConfig,
    classification_accuracy,
    history_to_csv,
    mse,
    train_gdm,
    train_lm,
)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _add_activation_flags(p: argparse.ArgumentParser) -> None:
    g = p.add_argument_group("activation parameters")
    for param in PARAMS:
        if param.flag is None:
            continue
        parse = {"choices": tuple(param.choices)} if param.choices else {"type": param.type}
        default = param.default
        text = param.help if default is None else f"{param.help} (default {default})"
        g.add_argument(f"--{param.flag}", default=default, help=text, **parse)


def _add_trainer_flags(p: argparse.ArgumentParser) -> None:
    g = p.add_argument_group("training parameters")
    g.add_argument("--trainer", choices=("lm", "gdm"), default=ExperimentSpec.trainer)
    g.add_argument("--epochs", type=_positive_int, default=LmConfig.epochs)
    g.add_argument("--hidden", type=_positive_int, default=ExperimentSpec.n_hidden,
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
        "--n", type=_positive_int, default=ExperimentSpec.n_points, help="synthetic sample count"
    )
    g.add_argument(
        "--random-x", action="store_true", help="sample synthetic x uniformly instead of linspace"
    )
    g.add_argument("--path", default=None, help="heart data file")
    g.add_argument("--test-fraction", type=float, default=ExperimentSpec.test_fraction)


def _activation_from_flags(name: str, args: argparse.Namespace) -> ActivationKind:
    values = {"hidden_kind": name}
    for param in PARAMS:
        value = getattr(args, param.flag.replace("-", "_")) if param.flag else param.default
        if value is not None:
            values[param.key] = value
    return kind_from_fields(values, label=lambda param: f"--{param.flag}")


def _fit_flags(args: argparse.Namespace) -> tuple[GdmConfig, LmConfig, SplitSpec]:
    """Trainer configs and train/test split from the flags; a bad value is a ValueError."""
    gdm = GdmConfig(learning_rate=args.lr, momentum=args.momentum, epochs=args.epochs)
    lm = LmConfig(mu0=args.mu0, mu_inc=args.mu_inc, mu_dec=args.mu_dec, mu_max=args.mu_max, epochs=args.epochs)
    return gdm, lm, SplitSpec(args.test_fraction, seed=args.seed)


def cmd_curves(args: argparse.Namespace) -> int:
    try:
        kind = _activation_from_flags(args.fn, args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    lo, hi, step = CURVE_PRESETS[args.preset or "within"]
    lo = lo if args.lo is None else args.lo
    hi = hi if args.hi is None else args.hi
    step = step if args.step is None else args.step
    out = args.out if args.out is not None else f"{args.fn}_curve.csv"
    try:
        dump_curves(kind, lo, hi, step, out)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {out} ({args.fn}, [{lo:g}, {hi:g}] step {step:g})")
    return 0


def cmd_approx_bench(args: argparse.Namespace) -> int:
    try:
        result = approx_bench(args.count, args.lo, args.hi, RnfParams(a=args.a))
    except (RnfDomainError, ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(
        f"rnf_exp {result.ns_per_op_rnf:.1f} ns/op, "
        f"reference exp {result.ns_per_op_ref:.1f} ns/op, "
        f"max relative error {result.max_rel_err:.3e}"
    )
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    try:
        kind = _activation_from_flags(args.fn, args)
        gdm, lm, split_spec = _fit_flags(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        if args.data == "synthetic":
            train_ds = eval_ds = gen_quadratic(args.n, random_x=args.random_x, seed=args.seed)
        else:
            if args.path is None:
                print("error: --data heart requires --path", file=sys.stderr)
                return 2
            full = load_heart(args.path)
            train_ds, eval_ds = split(full, split_spec)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    model = nguyen_widrow_init(
        train_ds.X.shape[1], args.hidden, train_ds.T.shape[1], kind, seed=args.seed
    )
    t0 = time.perf_counter()
    if args.trainer == "gdm":
        model, history = train_gdm(model, train_ds.X, train_ds.T, gdm)
    else:
        model, history = train_lm(model, train_ds.X, train_ds.T, lm)
    wall = time.perf_counter() - t0
    if args.history is not None:
        try:
            history_to_csv(history, args.history)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    if history.termination == "stall":
        reason = history.stall_events[-1][1] if history.stall_events else "unknown"
        print(f"stalled after {len(history.loss)} epochs: {reason}", file=sys.stderr)
        return 1
    y_train, _ = forward(model, train_ds.X)
    print(
        f"train mse {mse(y_train, train_ds.T):.6g} after {len(history.loss)} epochs "
        f"({wall:.2f} s, termination: {history.termination})"
    )
    if args.data == "heart":
        y_test, _ = forward(model, eval_ds.X)
        print(f"test accuracy {classification_accuracy(y_test, eval_ds.T):.2f}%")
    if args.save is not None:
        try:
            save_model(model, args.save)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(f"saved model to {args.save}")
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    names = [n.strip() for n in args.fns.split(",") if n.strip()]
    try:
        kinds = tuple(_activation_from_flags(n, args) for n in names)
        gdm, lm, split_spec = _fit_flags(args)
        spec = ExperimentSpec(
            dataset=args.data,
            activations=kinds,
            runs=args.runs,
            base_seed=args.seed,
            trainer=args.trainer,
            gdm=gdm,
            lm=lm,
            n_hidden=args.hidden,
            n_points=args.n,
            random_x=args.random_x,
            heart_path=args.path,
            test_fraction=split_spec.test_fraction,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        report = run_experiment(spec)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.out is not None:
        try:
            emit_report(report, args.format, args.out)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(f"wrote {args.out}")
    for row in report.averages:
        print(
            f"{row.activation}: {row.metric_name}={row.metric_value:.6g}, "
            f"runtime_s={row.runtime_s:.3f}"
        )
    print(f"runtime ordering (observational): {runtime_ordering(report)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
        help="within = [-10, 10] step 0.01; exploding = [-1000, 1000] step 1",
    )
    p_curves.add_argument("--out", default=None, help="output CSV (default <fn>_curve.csv)")
    _add_activation_flags(p_curves)
    p_curves.set_defaults(func=cmd_curves)

    p_ab = sub.add_parser("approx-bench", help="time rnf_exp against the reference exp")
    p_ab.add_argument("--count", type=_positive_int, default=200_000)
    p_ab.add_argument("--lo", type=float, default=-20.0)
    p_ab.add_argument("--hi", type=float, default=20.0)
    p_ab.add_argument("--a", type=int, default=RnfParams.a, help="rational-power exponent")
    p_ab.set_defaults(func=cmd_approx_bench)

    p_train = sub.add_parser("train", help="train one model and print its final metric")
    p_train.add_argument("--fn", choices=ACTIVATION_NAMES, required=True)
    p_train.add_argument("--seed", type=int, default=ExperimentSpec.base_seed)
    p_train.add_argument("--save", default=None, help="write the trained model here")
    p_train.add_argument("--history", default=None, help="write per-epoch loss CSV here")
    _add_data_flags(p_train)
    _add_trainer_flags(p_train)
    _add_activation_flags(p_train)
    p_train.set_defaults(func=cmd_train)

    p_bench = sub.add_parser("bench", help="timed repeated runs across activations")
    p_bench.add_argument(
        "--fns", default="htan,elu,modhtan", help="comma-separated activation names"
    )
    p_bench.add_argument("--runs", type=_positive_int, default=ExperimentSpec.runs)
    p_bench.add_argument(
        "--seed", type=int, default=ExperimentSpec.base_seed, help="base seed; run r uses seed+r"
    )
    p_bench.add_argument("--out", default=None, help="report file (default: stdout summary only)")
    p_bench.add_argument("--format", choices=("csv", "markdown"), default="csv")
    _add_data_flags(p_bench)
    _add_trainer_flags(p_bench)
    _add_activation_flags(p_bench)
    p_bench.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
        return int(exc.code or 0)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
