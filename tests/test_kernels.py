"""The in-place activation kernels, forward bias adds, RNF power and Jacobian
against expression-form oracles.

The oracles below are the plain numpy expressions the kernels replace, kept
here as the reference.  softstep, elu and direct-mode modhtan perform the
same floating-point operations in the same order as their oracles, so values
and gradients must match byte for byte.  htan and constant-mode modhtan are
tanh forms of their expressions: they are held to an extended-precision
evaluation instead, at least as closely as the expressions themselves (see
TestTanhFormAccuracy).  The Jacobian oracle is the einsum form; it matches by
value only (see TestJacobianOracle).
"""

import math
import sys

import numpy as np
import pytest

from modhtan import activations
from modhtan.activations import (
    Elu,
    Htan,
    ModHtan,
    SoftStep,
    _DELTA,
    _KAPPA,
    _X_NORM_CLAMP,
    _normalized_input,
    activate,
)
from modhtan.bench import CURVE_PRESETS
from modhtan.network import StallError, forward, jacobian, nguyen_widrow_init
from modhtan.rnf import RnfParams, _ipow, euler_constant, rnf_exp
from modhtan.training import LmConfig, train_lm

_TINY = sys.float_info.min


def oracle_soft_step(xs):
    z = np.exp(-np.abs(xs))
    return np.where(xs >= 0, 1.0 / (1.0 + z), z / (1.0 + z))


def oracle_htan(xs):
    z = np.exp(-2.0 * np.abs(xs))
    mag = (1.0 - z) / (1.0 + z)
    return np.where(xs >= 0, mag, -mag)


def oracle_elu(xs):
    return np.where(xs > 0, xs, np.expm1(np.minimum(xs, 0.0)))


def oracle_elu_grad(xs, f):
    return np.where(xs > 0, 1.0, f + 1.0)


def oracle_adaptive_offset(b):
    with np.errstate(over="ignore"):
        return float((1.0 + _DELTA) * np.max(np.abs(b)) + _KAPPA)


def oracle_normalized_input(xs, offset_1, clamp):
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        den = xs + offset_1
        x_norm = xs / den
    overflowed = np.isinf(den)
    if np.any(overflowed):
        safe = np.where(overflowed, xs, 1.0)
        x_norm = np.where(overflowed, 1.0 / (1.0 + offset_1 / safe), x_norm)
    singular = np.abs(den) < _TINY
    if np.any(singular):
        guard = np.where(xs == 0.0, 0.0, np.copysign(clamp, xs))
        x_norm = np.where(singular, guard, x_norm)
    return np.clip(x_norm, -clamp, clamp)


def oracle_modhtan(xs, kind, offset_1):
    x_norm = oracle_normalized_input(xs, offset_1, _X_NORM_CLAMP)
    if kind.euler_mode == "constant":
        t = euler_constant() ** (-2.0 * x_norm)
    else:
        t = rnf_exp(-2.0 * x_norm)
    out = 2.0 / (1.0 + t) - 1.0
    return np.clip(out, np.nextafter(-1.0, 0.0), np.nextafter(1.0, 0.0))


def oracle_activate(kind, xs):
    """(values, grads, offset_1) by the oracle expressions."""
    if isinstance(kind, SoftStep):
        f = oracle_soft_step(xs)
        return f, (1.0 - f) * f, None
    if isinstance(kind, Htan):
        f = oracle_htan(xs)
        return f, 1.0 - f * f, None
    if isinstance(kind, Elu):
        f = oracle_elu(xs)
        return f, oracle_elu_grad(xs, f), None
    offset = oracle_adaptive_offset(xs) if kind.fixed_offset is None else kind.fixed_offset
    f = oracle_modhtan(xs, kind, offset)
    return f, 1.0 - f * f, offset


def oracle_jacobian(model, X, T, cache):
    samples, n_out = X.shape[0], model.n_out
    eye_o = np.eye(n_out)
    j_w1 = np.einsum("oh,sh,si->sohi", model.W2, cache.g, X).reshape(samples, n_out, -1)
    j_b1 = np.einsum("oh,sh->soh", model.W2, cache.g)
    j_w2 = np.einsum("op,sh->soph", eye_o, cache.h).reshape(samples, n_out, -1)
    j_b2 = np.broadcast_to(eye_o, (samples, n_out, n_out))
    J = np.concatenate([j_w1, j_b1, j_w2, j_b2], axis=2).reshape(samples * n_out, -1)
    return J, (cache.y - T).ravel()


def oracle_ipow(base, exponent):
    result = np.ones_like(base) if isinstance(base, np.ndarray) else 1.0
    while exponent:
        if exponent & 1:
            result = result * base
        exponent >>= 1
        if exponent:
            base = base * base
    return result


def _grid():
    lo, hi, step = CURVE_PRESETS["exploding"]
    rng = np.random.default_rng(7)
    return np.concatenate([
        [0.0, -0.0, 1e-300, -1e-300, 5e-324, -5e-324, 1e308, -1e308, 1e-17, -1e-17],
        np.arange(lo, hi + step / 2, step),  # the exploding curve preset
        [19.0, -19.0, 19.3, -19.3, 25.0, -25.0, 40.0, -40.0, 710.0, -710.0],  # saturated
        [-0.99, -1.99],  # |x_norm| = 99 and 199 under fixed offsets 1.0 and 2.0: the clamp binds
        rng.standard_normal(500) * 5.0,
    ])


GRID = _grid()
GRIDS = {
    "full": GRID,
    # without +-1e308 an adaptive offset stays finite, so the normalization
    # runs without its overflow guard
    "finite_offset": GRID[np.abs(GRID) < 1e300],
    "2d": GRID[:60].reshape(20, 3),
    "minus_zero": np.array([-0.0]),
    # the neighbourhoods of x = -1, fixed offset 1.0's pole, where the clamp binds, and of x = 3;
    # x = -1.0 itself, at index 500, makes x + offset_1 exactly 0, the singular guard's case
    "poles": np.concatenate([np.linspace(-1.05, -0.95, 1001), np.linspace(2.95, 3.05, 1001)]),
    # every x < -1: under fixed offset 1.0 each x + offset_1 is negative, so no guard runs;
    # fixed offset 2.0's pole x = -2 lies inside it
    "below_pole": np.linspace(-3.0, -1.0001, 1001),
}

KINDS = [
    SoftStep(),
    Htan(),
    Elu(),
    *(
        ModHtan(fixed_offset=offset, euler_mode=euler)
        for offset in (None, 1.0, 2.0)
        for euler in ("constant", "direct")
    ),
]


def _kind_id(kind):
    if not isinstance(kind, ModHtan):
        return repr(kind)
    offset = "adaptive" if kind.fixed_offset is None else f"fixed{kind.fixed_offset}"
    return f"modhtan-{offset}-{kind.euler_mode}"


def _tanh_form(kind):
    """Whether the kernel computes its expression as a tanh instead."""
    return isinstance(kind, Htan) or (isinstance(kind, ModHtan) and kind.euler_mode == "constant")


BYTEWISE_KINDS = [kind for kind in KINDS if not _tanh_form(kind)]
TANH_KINDS = [kind for kind in KINDS if _tanh_form(kind)]


class TestActivationOracle:
    @pytest.mark.parametrize("grid", GRIDS.values(), ids=GRIDS.keys())
    @pytest.mark.parametrize("kind", BYTEWISE_KINDS, ids=_kind_id)
    @np.errstate(over="ignore")  # -2 * |1e308| overflows, in the oracle too
    def test_values_and_grads_bytewise(self, kind, grid):
        expected = oracle_activate(kind, grid)
        got = activate(kind, grid)
        assert got.values.tobytes() == expected[0].tobytes()
        assert got.grads.tobytes() == expected[1].tobytes()
        assert got.offset_1 == expected[2]

    @pytest.mark.parametrize("kind", BYTEWISE_KINDS, ids=_kind_id)
    def test_into_stale_buffers_bytewise(self, kind):
        xs = GRIDS["finite_offset"]
        expected = oracle_activate(kind, xs)
        values, grads = np.full_like(xs, np.nan), np.full_like(xs, -7.0)
        got = activate(kind, xs, (values, grads))
        assert got.values is values and got.grads is grads
        assert values.tobytes() == expected[0].tobytes()
        assert grads.tobytes() == expected[1].tobytes()

    def test_elu_into_sample_minor_buffers(self):
        xs = GRID[:2500].reshape(500, 5)
        expected = activate(Elu(), xs)
        xs_f = np.asfortranarray(xs)
        values, grads = np.full_like(xs_f, np.nan), np.full_like(xs_f, np.nan)
        assert activate(Elu(), xs_f, (values, grads)).grads is grads
        assert grads.flags.f_contiguous
        assert grads.tobytes() == expected.grads.tobytes()


# |x| beyond this leaves 1 - |tanh x| below 1e-34, under the resolution of an
# 80-bit long double near 1, so the reference clips htan's input there
# instead of overflowing expm1.
_SATURATED = 40.0

# Max error of a tanh-form kernel in units in the last place of the
# reference value.  The bound allows numpy's tanh one ulp and the rounding of
# x_norm * ln E half of one.  Measured max over every grid: 0.80 for htan and
# 1.77 for modhtan, against up to 9e15 for the expression forms.
ULP_BOUND = 2.0


def longdouble_formula(x_norm, log_e):
    """2 / (1 + E**(-2 * x_norm)) - 1 with ln E = log_e, in np.longdouble.

    Written as -d / (2 + d) with d = E**(-2 * x_norm) - 1 from expm1, which
    does not cancel near f = 0.
    """
    d = np.expm1(-2.0 * log_e * np.asarray(x_norm, dtype=np.longdouble))
    return -d / (2.0 + d)


def reference_values(kind, xs, offset_1):
    """The activation's formula, evaluated in np.longdouble on the same
    double inputs: x for htan, x_norm and E for modhtan."""
    if isinstance(kind, Htan):
        return longdouble_formula(np.clip(xs, -_SATURATED, _SATURATED), np.longdouble(1.0))
    x_norm = oracle_normalized_input(xs, offset_1, _X_NORM_CLAMP)
    return longdouble_formula(x_norm, np.log(np.longdouble(euler_constant())))


def max_ulp_error(values, reference):
    scale = np.abs(reference).astype(float)
    err = np.abs(values.astype(np.longdouble) - reference) / np.spacing(scale).astype(np.longdouble)
    return float(err.max())


@pytest.mark.skipif(
    np.finfo(np.longdouble).nmant < 63,
    reason="np.longdouble is not extended precision on this platform, so it cannot be the reference",
)
class TestTanhFormAccuracy:
    """htan and constant-mode modhtan compute 2 / (1 + E**(-2v)) - 1 as
    tanh(v * ln E), with E = e and v = x for htan.
    Against a long-double evaluation of the formula, their error stays
    within ULP_BOUND, and on each of GRIDS it does not exceed that of the
    expression forms above.  That comparison holds on these grids, not on
    every batch: on the neighbourhood of x = -1 alone, the adaptive kind
    is 0.845 ulp off where the expression form is 0.4995.  The gradients
    stay the surrogate 1 - f**2 of the values."""

    @pytest.mark.parametrize("grid", GRIDS.values(), ids=GRIDS.keys())
    @pytest.mark.parametrize("kind", TANH_KINDS, ids=_kind_id)
    @np.errstate(over="ignore")  # -2 * |1e308| overflows in the expression forms
    def test_at_least_as_accurate_as_the_expression(self, kind, grid):
        got = activate(kind, grid)
        old_values, _, offset_1 = oracle_activate(kind, grid)
        assert got.offset_1 == offset_1
        assert got.grads.tobytes() == (1.0 - got.values * got.values).tobytes()
        reference = reference_values(kind, grid, offset_1)
        error = max_ulp_error(got.values, reference)
        assert error <= max_ulp_error(old_values, reference)
        assert error <= ULP_BOUND

    @pytest.mark.parametrize("kind", TANH_KINDS, ids=_kind_id)
    def test_within_the_bound_near_a_pole_alone(self, kind):
        grid = np.linspace(-1.05, -0.95, 1001)
        got = activate(kind, grid)
        assert max_ulp_error(got.values, reference_values(kind, grid, got.offset_1)) <= ULP_BOUND

    @pytest.mark.parametrize("kind", TANH_KINDS, ids=_kind_id)
    def test_into_stale_buffers_bytewise(self, kind):
        xs = GRIDS["finite_offset"]
        expected = activate(kind, xs)
        values, grads = np.full_like(xs, np.nan), np.full_like(xs, -7.0)
        got = activate(kind, xs, (values, grads))
        assert got.values is values and got.grads is grads
        assert values.tobytes() == expected.values.tobytes()
        assert grads.tobytes() == expected.grads.tobytes()

    def test_old_form_loses_digits_near_zero(self):
        xs = np.array([1e-17, -1e-9, 1e-3, 0.3])
        for kind in (Htan(), ModHtan()):
            got, (old, _, offset_1) = activate(kind, xs), oracle_activate(kind, xs)
            reference = reference_values(kind, xs, offset_1)
            assert max_ulp_error(got.values, reference) <= 1.0
            assert max_ulp_error(old, reference) > 1e3


def htan_values(xs):
    return activate(Htan(), xs).values


class TestTanhForms:
    def test_htan_is_odd(self):
        xs = GRID[np.isfinite(GRID)]
        assert htan_values(-xs).tobytes() == (-htan_values(xs)).tobytes()

    def test_minus_zero_maps_to_minus_zero(self):
        assert math.copysign(1.0, htan_values(-0.0)) == -1.0
        assert math.copysign(1.0, htan_values(0.0)) == 1.0
        assert math.copysign(1.0, activate(ModHtan(), np.array([-0.0])).values[0]) == -1.0
        fixed = ModHtan(fixed_offset=1.0)
        assert math.copysign(1.0, activate(fixed, -0.0).values) == -1.0  # -0.0 / (-0.0 + 1.0) is -0.0


def _problem(n_in, n_hidden, n_out, kind=Htan(), seed=0, samples=60):
    rng = np.random.default_rng(seed)
    model = nguyen_widrow_init(n_in, n_hidden, n_out, kind, seed=seed)
    X = rng.uniform(-1.0, 1.0, size=(samples, n_in))
    T = rng.uniform(-1.0, 1.0, size=(samples, n_out))
    return model, X, T


class TestJacobianOracle:
    """The kernel forms W2 * g and (W2 * g) * X as plain products, the
    operand order einsum uses, so every entry has the einsum value.  The
    match is by value, not by bytes: where g = 0 and W2 < 0 a plain product
    is -0.0, while einsum accumulates the product into +0.0."""

    @pytest.mark.parametrize("dims", [(13, 2, 1), (3, 4, 2), (1, 50, 1)], ids=["n_in=13", "n_out=2", "wide"])
    def test_matches_einsum(self, dims):
        model, X, T = _problem(*dims)
        _, cache = forward(model, X)
        J, e = jacobian(model, X, T, cache)
        J_ref, e_ref = oracle_jacobian(model, X, T, cache)
        assert np.array_equal(J, J_ref)
        assert e.tobytes() == e_ref.tobytes()

    def test_zero_gradient_entries_match_by_value(self):
        model, X, T = _problem(3, 4, 2)
        model.W2[:] = -np.abs(model.W2)  # W2 < 0 everywhere
        _, cache = forward(model, X)
        cache.g[::2] = 0.0  # every other sample saturates all units
        J, _ = jacobian(model, X, T, cache)
        J_ref, _ = oracle_jacobian(model, X, T, cache)
        assert np.array_equal(J, J_ref)
        assert np.signbit(J[J == 0.0]).any()  # the -0.0 entries einsum does not produce


class TestWorkspaceReuse:
    @pytest.mark.parametrize("kind", KINDS[:3] + [ModHtan()], ids=_kind_id)
    def test_forward_into_workspace_bytewise(self, kind):
        model, X, _ = _problem(13, 3, 1, kind=kind, seed=1)
        other, _, _ = _problem(13, 3, 1, kind=ModHtan(fixed_offset=2.0), seed=2)
        _, workspace = forward(other, X)  # last held another kind's data
        y_ref, ref = forward(model, X)
        y, cache = forward(model, X, workspace)
        assert cache.z1 is workspace.z1 and y is workspace.y
        for name in ("z1", "h", "g", "y"):
            assert getattr(cache, name).tobytes() == getattr(ref, name).tobytes()
        assert y.tobytes() == y_ref.tobytes()
        assert cache.offset_1 == ref.offset_1

    def test_jacobian_buffer_reused_across_caches(self):
        model, X, T = _problem(3, 4, 2)  # W1 12, b1 4, W2 8, b2 2 columns
        other, _, _ = _problem(3, 4, 2, seed=5)
        _, first = forward(other, X)
        J, _ = jacobian(other, X, T, first)
        _, cache = forward(model, X)
        J_again, e = jacobian(model, X, T, cache, J)
        J_fresh, e_fresh = jacobian(model, X, T, cache)
        assert J_again is J
        assert J.tobytes() == J_fresh.tobytes()
        assert e.tobytes() == e_fresh.tobytes()
        rows = J.reshape(len(X), 2, -1)
        w2 = rows[:, :, 16:24].reshape(len(X), 2, 2, 4)
        assert not w2[:, 0, 1].any() and not w2[:, 1, 0].any()
        assert np.array_equal(rows[:, :, 24:], np.broadcast_to(np.eye(2), (len(X), 2, 2)))

    def test_jacobian_rejects_a_mismatched_buffer(self):
        model, X, T = _problem(3, 4, 2)
        _, cache = forward(model, X)
        J, _ = jacobian(model, X, T, cache)
        with pytest.raises(ValueError, match="F-contiguous"):
            jacobian(model, X, T, cache, np.ascontiguousarray(J))
        with pytest.raises(ValueError, match="shape"):
            jacobian(model, X[:-1], T[:-1], cache, J)

    @pytest.mark.parametrize("stage", ["hidden", "output"])
    def test_workspace_reusable_after_stall(self, stage):
        model, X, _ = _problem(13, 3, 1, seed=3)
        _, workspace = forward(model, X)
        broken, _, _ = _problem(13, 3, 1, seed=3)
        if stage == "hidden":
            broken.W1[:] = 1e308  # z1 overflows
        else:
            broken.W2[:] = np.inf  # h is finite, y is not
        with pytest.raises(StallError), np.errstate(over="ignore", invalid="ignore"):
            forward(broken, X, workspace)
        _, ref = forward(model, X)
        _, cache = forward(model, X, workspace)
        for name in ("z1", "h", "g", "y"):
            assert getattr(cache, name).tobytes() == getattr(ref, name).tobytes()

    def test_seeded_train_lm_repeats_in_process(self):
        runs = []
        for _ in range(2):
            model, X, T = _problem(13, 3, 1, kind=ModHtan(), seed=4)
            fitted, history = train_lm(model, X, T, LmConfig(epochs=30))
            runs.append((history.loss, history.mu, history.termination, fitted.theta.tobytes()))
        assert len(runs[0][0]) > 1
        assert runs[0] == runs[1]


class TestBiasAddOrder:
    """forward adds b1 and b2 into its sample-minor and C-ordered layers."""

    @pytest.mark.parametrize("width", [1, 2, 7, 8, 50])
    def test_forward_layers_bytewise(self, width):
        model, X, _ = _problem(3, width, width, seed=width)
        model.b1[::2] = -0.0
        model.b2[1::2] = -0.0
        X[::4] = 0.0
        for out in (None, forward(model, X)[1]):
            y, cache = forward(model, X, out)
            assert cache.z1.tobytes() == (X @ model.W1.T + model.b1).tobytes()
            assert y.tobytes() == (cache.h @ model.W2.T + model.b2).tobytes()


class TestOneInputForward:
    """With one input column forward forms X * W1^T as a broadcast product.
    A plain product keeps the -0.0 of 0 * (-w), where numpy's gemm sums it to
    +0.0; forward adds b1 + 0.0 so that every layer still has the bytes of
    the matmul form, b1 = -0.0 included."""

    @staticmethod
    def _signed_zero_problem(kind, width):
        model, X, _ = _problem(1, width, 1, kind=kind, seed=width)
        X[::3] = 0.0
        X[1::3] = -0.0
        model.W1[::2] = -model.W1[::2]
        model.W1[1::4] = -0.0
        model.W1[2::4] = 0.0
        model.b1[::2] = -0.0
        model.b1[1::4] = 0.0
        model.b2[:] = -0.0
        return model, X

    @pytest.mark.parametrize("width", [1, 2, 7, 8, 50])
    @pytest.mark.parametrize("kind", [Htan(), Elu(), ModHtan()], ids=_kind_id)
    def test_layers_bytewise_equal_the_matmul_form(self, kind, width):
        model, X = self._signed_zero_problem(kind, width)
        z1 = np.matmul(X, model.W1.T) + model.b1
        # the plain product plus b1 differs in sign bits: the test can see a dropped + 0.0
        assert (X * model.W1.T + model.b1).tobytes() != z1.tobytes()
        h, g, _ = activate(kind, z1)
        y = np.matmul(np.asfortranarray(h), model.W2.T) + model.b2  # forward's h is sample-minor
        for out in (None, forward(model, X[::-1])[1]):
            got, cache = forward(model, X, out)
            for name, expected in (("z1", z1), ("h", h), ("g", g), ("y", y)):
                assert getattr(cache, name).tobytes() == expected.tobytes(), name
            assert got is cache.y

    @pytest.mark.parametrize("n_in", [1, 13])
    def test_fresh_arrays_are_sample_minor(self, n_in):
        model, X, T = _problem(n_in, 3, 2)
        _, cache = forward(model, X)
        for name in ("z1", "h", "g"):
            assert getattr(cache, name).flags.f_contiguous, name
        assert cache.y.flags.c_contiguous
        J, _ = jacobian(model, X, T, cache)
        assert J.flags.f_contiguous
        for column in J.T:
            assert column.flags.c_contiguous


class TestClampSkip:
    """Inputs skip the x_norm clamp when max|x| / min|x + offset_1|
    is within it; every result keeps the oracle's bytes, clamped or not."""

    # a shift moves the batch below the pole x = -offset_1, where every x + offset_1 is negative:
    # max|x| / min|x + offset_1| is 7 after -2.5 and 2 after -5.0
    @pytest.mark.parametrize("offset_1, shift", [(1.0, 0.0), (1.5, 0.0), (2.0, 0.0), (3.0, 0.0), (1.0, -2.5),
                                                 (1.0, -5.0)])
    @pytest.mark.parametrize("clamp", [0.5, 1.0, 2.0, 50.0])
    def test_bytewise_on_either_side_of_the_bound(self, offset_1, shift, clamp):
        xs = np.concatenate([np.linspace(-1.0, 1.0, 201), [0.0, -0.0, 5e-324]])
        xs = xs + shift if shift else xs  # adding 0.0 would turn -0.0 into 0.0
        expected = oracle_normalized_input(xs, offset_1, clamp)
        got = _normalized_input(xs, xs.min(), xs.max(), offset_1, clamp, np.empty_like(xs))
        assert got.tobytes() == expected.tobytes()

    def test_bound_reached_exactly(self):
        # max|x| / min|den| = 1 / (2 - 1) = 1 = clamp: skipped, and no value passes 1
        xs = np.linspace(-1.0, 1.0, 11)
        got = _normalized_input(xs, xs.min(), xs.max(), 2.0, 1.0, np.empty_like(xs))
        assert got.tobytes() == oracle_normalized_input(xs, 2.0, 1.0).tobytes()
        assert got[0] == -1.0


class TestNormalizedInputOracle:
    """_normalized_input against the oracle over every grid, under each offset
    mode, with bounds that bind inside the grids' range (2 and 5), with
    modhtan's own and with none (inf, where the guard's value shows): the
    guard, overflow and clip paths at any clamp argument."""

    OFFSETS = {"adaptive": None, "fixed1.0": 1.0, "fixed2.0": 2.0}

    @staticmethod
    def _offset(name, xs):
        offset = TestNormalizedInputOracle.OFFSETS[name]
        return oracle_adaptive_offset(xs) if offset is None else offset

    @pytest.mark.parametrize("grid", GRIDS.values(), ids=GRIDS.keys())
    @pytest.mark.parametrize("offset", OFFSETS)
    @pytest.mark.parametrize("clamp", [2.0, 5.0, _X_NORM_CLAMP, np.inf])
    def test_bytewise(self, clamp, offset, grid):
        offset_1 = self._offset(offset, grid)
        expected = oracle_normalized_input(grid, offset_1, clamp)
        got = _normalized_input(grid, grid.min(), grid.max(), offset_1, clamp, np.empty_like(grid))
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("offset", OFFSETS)
    @pytest.mark.parametrize("clamp", [2.0, 5.0, _X_NORM_CLAMP, np.inf])
    def test_into_a_stale_buffer_bytewise(self, clamp, offset):
        xs = GRIDS["finite_offset"]
        offset_1 = self._offset(offset, xs)
        x_norm = np.full_like(xs, np.nan)
        got = _normalized_input(xs, xs.min(), xs.max(), offset_1, clamp, x_norm)
        assert got is x_norm
        assert x_norm.tobytes() == oracle_normalized_input(xs, offset_1, clamp).tobytes()

    @pytest.mark.parametrize("clamp", [2.0, 5.0, _X_NORM_CLAMP, np.inf])
    def test_at_and_below_the_pole_of_a_positive_offset(self, clamp):
        # x = -1 makes x + 1.0 exactly 0, which the singular guard maps to -clamp; below the pole
        # every denominator is negative, so the batch takes no guard and x / (x + 1.0) > 0
        poles, below = GRIDS["poles"], GRIDS["below_pole"]
        got = _normalized_input(poles, poles.min(), poles.max(), 1.0, clamp, np.empty_like(poles))
        assert got[poles == -1.0].tolist() == [-clamp]
        got = _normalized_input(below, below.min(), below.max(), 1.0, clamp, np.empty_like(below))
        assert (got > 0).all()


class TestClampConstant:
    """modhtan's x_norm bound sits where it changes no output: any bound from
    19 to 354 gives the same bytes, over the inputs where the bound binds."""

    MODHTANS = [kind for kind in KINDS if isinstance(kind, ModHtan)]
    INPUTS = [np.arange(CURVE_PRESETS["exploding"][0], CURVE_PRESETS["exploding"][1] + 0.5, 1.0), GRIDS["poles"]]

    def _outputs(self, monkeypatch, clamp):
        monkeypatch.setattr(activations, "_X_NORM_CLAMP", clamp)
        return [(r.values.tobytes(), r.grads.tobytes())
                for r in (activate(kind, xs) for kind in self.MODHTANS for xs in self.INPUTS)]

    @pytest.mark.parametrize("clamp", [19.0, 354.0])
    def test_bound_in_the_no_op_range_keeps_every_byte(self, monkeypatch, clamp):
        assert self._outputs(monkeypatch, clamp) == self._outputs(monkeypatch, _X_NORM_CLAMP)

    def test_bound_below_the_range_changes_the_pole_grids(self, monkeypatch):
        kept, low = self._outputs(monkeypatch, _X_NORM_CLAMP), self._outputs(monkeypatch, 5.0)
        assert sum(k != l for k, l in zip(kept, low)) >= len(self.MODHTANS)


class TestIpowOracle:
    """The blocked in-place power against the allocating square-and-multiply."""

    @pytest.mark.parametrize("a", [2, 3, 10**7, 10**7 + 1])
    @pytest.mark.parametrize("shape", [(1,), (65535,), (65536,), (65537,), (200001,), (301, 7)], ids=str)
    def test_bytewise(self, a, shape):
        rng = np.random.default_rng(shape[0])
        x = rng.uniform(-20.0, 20.0, size=shape)
        base = np.asarray((a - 1.0) / (a - (1.0 + x)) if a > 3 else 1.0 + x / 8.0)
        got, expected = _ipow(base, a), oracle_ipow(base, a)
        assert got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()
        assert not np.shares_memory(got, base)

    @pytest.mark.parametrize("a", [2, 3, 10**7, 10**7 + 1])
    def test_underflow_and_overflow_tails(self, a):
        base = np.concatenate([np.geomspace(1e-300, 0.999, 70001), np.geomspace(1.001, 1e300, 70001)])
        with np.errstate(over="ignore", under="ignore"):
            got, expected = _ipow(base, a), oracle_ipow(base, a)
        assert got.tobytes() == expected.tobytes()
        assert (got == 0.0).any() and np.isinf(got).any()

    @pytest.mark.parametrize("a", [2, 3, 10**7, 10**7 + 1])
    def test_scalar_rnf_exp_is_a_float_with_the_oracle_bits(self, a):
        for x in (-20.0, -1.5, -0.3, 0.0, 0.7, 0.99, 20.0, np.float64(-7.25)):
            if 1.0 + x >= a:  # outside the m + x < a domain
                continue
            got = rnf_exp(x, RnfParams(a=a))
            expected = oracle_ipow((a - 1.0) / (a - (1.0 + float(x))), a)
            assert type(got) is float
            assert np.float64(got).tobytes() == np.float64(expected).tobytes()
