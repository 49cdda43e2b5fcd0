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

import numpy as np
import pytest

from modhtan.activations import (
    Elu,
    Htan,
    ModHtan,
    SoftStep,
    _DELTA,
    _KAPPA,
    _normalized_input,
    activate,
)
from modhtan.bench import CURVE_PRESETS
from modhtan.network import StallError, forward, jacobian, nguyen_widrow_init
from modhtan.rnf import RnfParams, _ipow, euler_constant, rnf_exp
from modhtan.training import LmConfig, train_lm


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


def oracle_normalized_input(xs, offset_1):
    """x / (x + offset) with offset_1 floored by each x's own adaptive offset, which never binds on the batch's."""
    with np.errstate(over="ignore"):
        offset = np.maximum((1.0 + _DELTA) * np.abs(xs) + _KAPPA, offset_1)
        den = xs + offset
        x_norm = xs / den
    overflowed = np.isinf(den)
    if np.any(overflowed):
        safe = np.where(overflowed, xs, 1.0)
        # an infinite offset / x: a floor past |x| ~ 1.71e308, or an adaptive offset_1 past max|x| ~ 1.71e308,
        # is (1 + _DELTA) * m + _KAPPA with m = |x| or max|x|
        m = np.abs(safe) if np.isfinite(offset_1) else np.max(np.abs(xs))
        with np.errstate(over="ignore", divide="ignore"):
            ratio = offset / safe
            ratio = np.where(np.isinf(ratio), (1.0 + _DELTA) * (m / safe) + _KAPPA / safe, ratio)
        x_norm = np.where(overflowed, 1.0 / (1.0 + ratio), x_norm)
    return x_norm


def oracle_modhtan(xs, kind, offset_1):
    x_norm = oracle_normalized_input(xs, offset_1)
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
    samples = X.shape[0]
    j_w1 = np.einsum("h,sh,si->shi", model.W2[0], cache.g, X).reshape(samples, -1)
    j_b1 = np.einsum("h,sh->sh", model.W2[0], cache.g)
    J = np.concatenate([j_w1, j_b1, cache.h, np.ones((samples, 1))], axis=1)
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
        [-0.99, -1.99, -2.99],  # just past the poles of fixed offsets 1.0, 2.0 and 3.0, where the floor binds
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
    # the neighbourhoods of x = -1, fixed offset 1.0's pole, and of x = 3; around x = -1 / (1 + _DELTA)
    # the floor starts to bind, and x = -1.0 itself, at index 500, would make x + 1.0 exactly 0
    "poles": np.concatenate([np.linspace(-1.05, -0.95, 1001), np.linspace(2.95, 3.05, 1001)]),
    # every x < -1: under fixed offset 1.0 each x + 1.0 is negative, so the floor binds on all of it;
    # the poles x = -2 and -3 of fixed offsets 2.0 and 3.0 lie inside it
    "below_pole": np.linspace(-3.0, -1.0001, 1001),
    # each fixed offset's floor overflows past |x| ~ 1.71e308 and stays finite below; the adaptive
    # offset overflows on the whole batch
    "overflowed_floor": np.array([1.75e308, -1.75e308, 1.7e308, -1.7e308, 1.0, -1.0]),
}

KINDS = [
    SoftStep(),
    Htan(),
    Elu(),
    *(
        ModHtan(fixed_offset=offset, euler_mode=euler)
        # fixed offsets the floor always (5e-324), sometimes (1.0 to 3.0) or nearly never overrides
        # (1e300: only at +-1e308)
        for offset in (None, 1.0, 2.0, 3.0, 5e-324, 1e300)
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
    x_norm = oracle_normalized_input(xs, offset_1)
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
    expression forms above, except on EXPRESSION_CLOSER, where it exceeds it
    by no more than a pinned maximum.  That comparison
    holds on these grids, not on every batch: on the neighbourhood of
    x = -1 alone, the adaptive kind is 0.845 ulp off where the expression
    form is 0.4995.  The gradients stay the surrogate 1 - f**2 of the
    values."""

    # (grid, fixed offset) pairs where the expression form is the closer one, with the kernel's
    # measured max error pinned.  The floor leaves below_pole no pole, whose values set the
    # expression form's max before (2.83 ulp under offset 2.0), so x near -1 sets both maxima:
    # the kernel's 0.981 against the expression's 0.630 ulp under offset 2.0, and 1.581 against
    # 1.261 under 3.0.  Both kernel maxima were there before the floor.
    EXPRESSION_CLOSER = {("below_pole", 2.0): 0.99, ("below_pole", 3.0): 1.59}

    @pytest.mark.parametrize("name", GRIDS)
    @pytest.mark.parametrize("kind", TANH_KINDS, ids=_kind_id)
    @np.errstate(over="ignore")  # -2 * |1e308| overflows in the expression forms
    def test_at_least_as_accurate_as_the_expression(self, kind, name):
        grid = GRIDS[name]
        got = activate(kind, grid)
        old_values, _, offset_1 = oracle_activate(kind, grid)
        assert got.offset_1 == offset_1
        assert got.grads.tobytes() == (1.0 - got.values * got.values).tobytes()
        reference = reference_values(kind, grid, offset_1)
        error = max_ulp_error(got.values, reference)
        pinned = self.EXPRESSION_CLOSER.get((name, getattr(kind, "fixed_offset", None)))
        if pinned is None:
            assert error <= max_ulp_error(old_values, reference)
        else:
            assert max_ulp_error(old_values, reference) < error <= pinned
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


def _problem(n_in, n_hidden, kind=Htan(), seed=0, samples=60):
    rng = np.random.default_rng(seed)
    model = nguyen_widrow_init(n_in, n_hidden, kind, seed=seed)
    X = rng.uniform(-1.0, 1.0, size=(samples, n_in))
    T = rng.uniform(-1.0, 1.0, size=(samples, 1))
    return model, X, T


class TestJacobianOracle:
    """The kernel forms W2 * g and (W2 * g) * X as plain products, the
    operand order einsum uses, so every entry has the einsum value.  The
    match is by value, not by bytes: where g = 0 and W2 < 0 a plain product
    is -0.0, while einsum accumulates the product into +0.0."""

    @pytest.mark.parametrize("dims", [(13, 2), (3, 4), (1, 50)], ids=["n_in=13", "n_in=3", "wide"])
    def test_matches_einsum(self, dims):
        model, X, T = _problem(*dims)
        _, cache = forward(model, X)
        J, e = jacobian(model, X, T, cache)
        J_ref, e_ref = oracle_jacobian(model, X, T, cache)
        assert np.array_equal(J, J_ref)
        assert e.tobytes() == e_ref.tobytes()

    def test_zero_gradient_entries_match_by_value(self):
        model, X, T = _problem(3, 4)
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
        model, X, _ = _problem(13, 3, kind=kind, seed=1)
        other, _, _ = _problem(13, 3, kind=ModHtan(fixed_offset=2.0), seed=2)
        _, workspace = forward(other, X)  # last held another kind's data
        y_ref, ref = forward(model, X)
        y, cache = forward(model, X, workspace)
        assert cache.z1 is workspace.z1 and y is workspace.y
        for name in ("z1", "h", "g", "y"):
            assert getattr(cache, name).tobytes() == getattr(ref, name).tobytes()
        assert y.tobytes() == y_ref.tobytes()
        assert cache.offset_1 == ref.offset_1

    def test_jacobian_buffer_reused_across_caches(self):
        model, X, T = _problem(3, 4)  # W1 12, b1 4, W2 4, b2 1 columns
        other, _, _ = _problem(3, 4, seed=5)
        _, first = forward(other, X)
        J, _ = jacobian(other, X, T, first)
        _, cache = forward(model, X)
        J_again, e = jacobian(model, X, T, cache, J)
        J_fresh, e_fresh = jacobian(model, X, T, cache)
        assert J_again is J
        assert J.tobytes() == J_fresh.tobytes()
        assert e.tobytes() == e_fresh.tobytes()
        assert J.shape == (len(X), 21) and np.all(J[:, 20] == 1.0)

    @pytest.mark.parametrize("dims", [(13, 2), (3, 4), (1, 50)], ids=["n_in=13", "n_in=3", "wide"])
    def test_jacobian_writes_every_column_but_the_ones(self, dims):
        # a fresh J is np.empty plus its b2 column of ones: every other column must be written
        model, X, T = _problem(*dims)
        _, cache = forward(model, X)
        J_fresh, _ = jacobian(model, X, T, cache)
        out = np.full(J_fresh.shape, np.nan, order="F")
        out[:, -1] = 1.0
        J, _ = jacobian(model, X, T, cache, out)
        assert J is out
        assert J.tobytes() == J_fresh.tobytes()

    def test_jacobian_rejects_a_mismatched_buffer(self):
        model, X, T = _problem(3, 4)
        _, cache = forward(model, X)
        J, _ = jacobian(model, X, T, cache)
        with pytest.raises(ValueError, match="F-contiguous"):
            jacobian(model, X, T, cache, np.ascontiguousarray(J))
        with pytest.raises(ValueError, match="shape"):
            jacobian(model, X[:-1], T[:-1], cache, J)

    @pytest.mark.parametrize("stage", ["hidden", "output"])
    def test_workspace_reusable_after_stall(self, stage):
        model, X, _ = _problem(13, 3, seed=3)
        _, workspace = forward(model, X)
        broken, _, _ = _problem(13, 3, seed=3)
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
            model, X, T = _problem(13, 3, kind=ModHtan(), seed=4)
            fitted, history = train_lm(model, X, T, LmConfig(epochs=30))
            runs.append((history.loss, history.mu, history.termination, fitted.theta.tobytes()))
        assert len(runs[0][0]) > 1
        assert runs[0] == runs[1]


class TestBiasAddOrder:
    """forward adds b1 and b2 into its sample-minor and C-ordered layers."""

    @pytest.mark.parametrize("width", [1, 2, 7, 8, 50])
    def test_forward_layers_bytewise(self, width):
        model, X, _ = _problem(3, width, seed=width)
        model.b1[::2] = -0.0
        if width % 2:
            model.b2[:] = -0.0
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
        model, X, _ = _problem(1, width, kind=kind, seed=width)
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
        model, X, T = _problem(n_in, 3)
        _, cache = forward(model, X)
        for name in ("z1", "h", "g"):
            assert getattr(cache, name).flags.f_contiguous, name
        assert cache.y.flags.c_contiguous
        J, _ = jacobian(model, X, T, cache)
        assert J.flags.f_contiguous
        for column in J.T:
            assert column.flags.c_contiguous


class TestNormalizedInputOracle:
    """_normalized_input against the floored oracle over every grid: adaptive,
    and fixed offsets that the floor never (1e300), sometimes (1.0 to 3.0) or
    always (5e-324) overrides; the overflow rewrite runs on +-1e308 and on
    overflowed_floor, where each fixed floor overflows too."""

    OFFSETS = {"adaptive": None, "fixed1.0": 1.0, "fixed2.0": 2.0, "fixed3.0": 3.0, "fixed5e-324": 5e-324,
               "fixed1e300": 1e300}

    @staticmethod
    def _expected(name, xs):
        offset = TestNormalizedInputOracle.OFFSETS[name]
        return oracle_normalized_input(xs, oracle_adaptive_offset(xs) if offset is None else offset)

    @staticmethod
    def _kernel(name, xs, x_norm=None):
        x_norm = np.empty_like(xs) if x_norm is None else x_norm
        kind = ModHtan(fixed_offset=TestNormalizedInputOracle.OFFSETS[name])
        return _normalized_input(xs, kind, x_norm, np.full_like(xs, np.nan)), x_norm

    @pytest.mark.parametrize("grid", GRIDS.values(), ids=GRIDS.keys())
    @pytest.mark.parametrize("offset", OFFSETS)
    def test_bytewise(self, offset, grid):
        offset_1, got = self._kernel(offset, grid)
        assert got.tobytes() == self._expected(offset, grid).tobytes()
        assert offset_1 == (oracle_adaptive_offset(grid) if self.OFFSETS[offset] is None else self.OFFSETS[offset])

    @pytest.mark.parametrize("offset", OFFSETS)
    def test_into_a_stale_buffer_bytewise(self, offset):
        xs = GRIDS["finite_offset"]
        x_norm = np.full_like(xs, np.nan)
        assert self._kernel(offset, xs, x_norm)[1] is x_norm
        assert x_norm.tobytes() == self._expected(offset, xs).tobytes()

    @pytest.mark.parametrize("x", [-1.0, -5.0], ids=["at", "below"])
    def test_at_and_below_the_pole_of_a_positive_offset(self, x):
        # x + 1.0 is 0 at x = -1 and negative below; the entry's own offset 1.05 * |x| + 1e-6 replaces 1.0
        # there, so x_norm = x / (0.05 * |x| + 1e-6) keeps x's sign and stays above -1 / _DELTA
        xs = np.array([x])
        _, got = self._kernel("fixed1.0", xs)
        assert got[0] == x / (x + ((1.0 + _DELTA) * -x + _KAPPA))
        assert -1.0 / _DELTA < got[0] < 0.0

    @pytest.mark.parametrize("grid", GRIDS.values(), ids=GRIDS.keys())
    @pytest.mark.parametrize("offset", [1.0, 5e-324, 1e300, 1.7976931348623157e308])
    @np.errstate(over="ignore")
    def test_floor_maximum_from_the_batch_extremes(self, offset, grid):
        # _normalized_input bounds its denominators by the floored offsets' maximum, taken from the
        # batch's min and max alone; rounding is monotone, so that is the maximum over the entries
        lo, hi = grid.min(), grid.max()
        from_extremes = max((1.0 + _DELTA) * max(hi, -lo) + _KAPPA, offset)
        assert from_extremes == np.maximum((1.0 + _DELTA) * np.abs(grid) + _KAPPA, offset).max()


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
