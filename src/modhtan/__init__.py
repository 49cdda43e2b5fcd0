"""Normalized hyperbolic tangent activation (modhtan) and its benchmark kit.

The activation normalizes its input by x / (x + offset_1) with a batch-adaptive
offset, squashes it as k_o / (1 + E**(-2x)) - 1, a tanh of slope ln E for a
rational-power approximation E of e, and stays strictly inside (-1, k_o - 1) even
for inputs in the thousands -- which is the point: saturating instead of
overflowing keeps training from stalling on non-finite values.

Submodules: rnf (exp approximation), activations, network (one-hidden-layer
MLP), training (gradient descent with momentum + Levenberg-Marquardt),
datasets (synthetic parabola + Statlog-format heart data), bench, cli.
"""

from .activations import (
    ACTIVATION_NAMES,
    ActivationKind,
    AdaptiveOffset,
    BatchActivation,
    Elu,
    EluParams,
    FixedOffset,
    Htan,
    ModHtan,
    ModHtanParams,
    SoftStep,
    activate,
    adaptive_offset,
    elu,
    elu_grad,
    htan,
    htan_grad,
    modhtan,
    modhtan_grad,
    parse_activation,
    soft_step,
    soft_step_grad,
)
from .bench import (
    ApproxBenchResult,
    BenchReport,
    BenchRow,
    ExperimentSpec,
    approx_bench,
    dump_curves,
    emit_report,
    iter_runs,
    run_experiment,
)
from .datasets import Dataset, SplitSpec, gen_quadratic, load_heart, make_heart_fixture, split
from .network import (
    ForwardCache,
    MlpModel,
    StallError,
    backward,
    forward,
    jacobian,
    load_model,
    nguyen_widrow_init,
    save_model,
)
from .rnf import DEFAULT_RNF_PARAMS, RnfDomainError, RnfParams, euler_constant, rnf_exp
from .training import (
    GdmConfig,
    LmConfig,
    TrainHistory,
    classification_accuracy,
    mse,
    train_gdm,
    train_lm,
)

__version__ = "0.1.0"
