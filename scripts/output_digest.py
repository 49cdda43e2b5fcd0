#!/usr/bin/env python3
"""Print one `family sha256` line for each family of the program's outputs:
`activate` values, gradients and offset_1 over several grids; LM and GDM fits
(losses, mu, termination, stall events, parameter bytes); bench CSVs without
runtime_s; curves CSVs.  These cover the kinds a command can build;
`activate_fixed` and `train_lm_fixed` hash the activations and LM fits of
fixed-offset modhtan, which only code builds.  Kinds are built with the
dataclass constructors at their defaults, so running this one script against
two versions of the package,

    PYTHONPATH=path/to/checkout/src python scripts/output_digest.py

and comparing the lines shows whether every output byte is kept.
"""

import hashlib
import tempfile
from pathlib import Path

import numpy as np

from modhtan.activations import Elu, Htan, ModHtan, SoftStep, activate
from modhtan.bench import CURVE_PRESETS, ExperimentSpec, dump_curves, emit_report, run_experiment
from modhtan.datasets import SplitSpec, gen_quadratic, load_heart, make_heart_fixture, split
from modhtan.network import nguyen_widrow_init
from modhtan.training import GdmConfig, LmConfig, train_gdm, train_lm

# the activation configurations of tests/test_kernels.py, those a command can build and the fixed-offset ones
KERNEL_KINDS = [SoftStep(), Htan(), Elu(), ModHtan(), ModHtan(euler_mode="direct")]
FIXED_KINDS = [ModHtan(fixed_offset=1.0), ModHtan(fixed_offset=1.0, euler_mode="direct")]
FIT_KINDS = [Htan(), Elu(), ModHtan(), ModHtan(euler_mode="direct")]
FIXED_FIT_KIND = ModHtan(fixed_offset=2.0)
LM, GDM = LmConfig(epochs=80), GdmConfig(epochs=80)


def digest(*parts):
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()


def activations(kinds):
    rng = np.random.default_rng(7)
    grids = [np.linspace(-30.0, 30.0, 601), np.array([0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1e308, -1e308]),
             np.asfortranarray(rng.standard_normal((500, 50)) * 5.0), np.asfortranarray(rng.standard_normal((216, 2)))]
    return [(r.values.tobytes(), r.grads.tobytes(), r.offset_1)
            for r in (activate(k, xs) for k in kinds for xs in grids)]


def fit(trainer, cfg, k, X, T, seed, n_hidden):
    model, history = trainer(nguyen_widrow_init(X.shape[1], n_hidden, T.shape[1], k, seed=seed), X, T, cfg)
    return history.loss, history.mu, history.termination, history.stall_events, model.theta.tobytes()


def main():
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        make_heart_fixture(tmp / "heart.dat")
        data, heart = gen_quadratic(400), load_heart(tmp / "heart.dat")
        lm_fits = [fit(train_lm, LM, k, data.X, data.T, seed, 3) for k in FIT_KINDS for seed in (0, 1, 2)]
        fixed_fits = [fit(train_lm, LM, FIXED_FIT_KIND, data.X, data.T, seed, 3) for seed in (0, 1, 2)]
        for k, seed in ((FIT_KINDS[0], 3), (FIT_KINDS[2], 4)):
            train, _ = split(heart, SplitSpec(seed=seed))
            lm_fits.append(fit(train_lm, LM, k, train.X, train.T, seed, 2))
        gdm_fits = [fit(train_gdm, GDM, k, data.X, data.T, 0, 3) for k in (FIT_KINDS[0], FIT_KINDS[2])]
        train, _ = split(heart, SplitSpec(seed=3))  # 13 inputs: the gradient's multi-input W1 block
        gdm_fits.append(fit(train_gdm, GDM, FIT_KINDS[0], train.X, train.T, 3, 2))
        bench = []
        for dataset in ("synthetic", "heart"):
            spec = ExperimentSpec(dataset, tuple(FIT_KINDS[:3]), runs=2, n_points=200, trainer=LmConfig(epochs=30),
                                  heart_path=str(tmp / "heart.dat"))
            emit_report(run_experiment(spec), "csv", tmp / "bench.csv")
            bench += [[c for i, c in enumerate(line.split(",")) if i != 2]
                      for line in (tmp / "bench.csv").read_text().splitlines()]
        curves = []
        for k in KERNEL_KINDS:
            for lo, hi, step in CURVE_PRESETS.values():
                dump_curves(k, lo, hi, step, tmp / "curve.csv")
                curves.append((tmp / "curve.csv").read_bytes())
        print("activate", digest(*activations(KERNEL_KINDS)))
        print("activate_fixed", digest(*activations(FIXED_KINDS)))
        print("train_lm", digest(*lm_fits))
        print("train_lm_fixed", digest(*fixed_fits))
        print("train_gdm", digest(*gdm_fits))
        print("bench", digest(bench))
        print("curves", digest(*curves))


if __name__ == "__main__":
    main()
