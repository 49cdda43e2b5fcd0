"""Dataset construction, scaling, heart-file parsing, splitting."""

import hashlib
import math
import runpy
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from modhtan.datasets import (
    Dataset,
    SplitSpec,
    _scale,
    gen_quadratic,
    load_heart,
    make_heart_fixture,
    split,
)

HEART_ROW = "70.0 1.0 4.0 130.0 322.0 0.0 2.0 109.0 0.0 2.4 2.0 3.0 3.0 {label}"


# The per-column scaler the vectorized one replaced, kept as a byte oracle.
def oracle_linear_scale(column, lo=-1.0, hi=1.0):
    col = np.asarray(column, dtype=float)
    vmin, vmax = float(col.min()), float(col.max())
    return oracle_apply_scale(col, vmin, vmax, lo, hi), (vmin, vmax)


def oracle_apply_scale(column, vmin, vmax, lo=-1.0, hi=1.0):
    col = np.asarray(column, dtype=float)
    if vmin == vmax:
        return np.full_like(col, (lo + hi) / 2.0)
    span = (hi - lo) / (vmax - vmin)
    if not math.isfinite(span):  # column width below float resolution
        return np.full_like(col, (lo + hi) / 2.0)
    return (col - vmin) * span + lo


def oracle_gen_quadratic(n):
    x = np.linspace(-1.0, 1.0, n)
    return oracle_linear_scale(x)[0][:, None], oracle_linear_scale(x**2 - 2.0)[0][:, None]


def oracle_split(X, T, spec):
    n = X.shape[0]
    order = np.random.default_rng(spec.seed).permutation(n)
    n_train = math.ceil((1.0 - spec.test_fraction) * n)
    train_idx, test_idx = order[:n_train], order[n_train:]
    train_cols, test_cols = [], []
    for col in range(X.shape[1]):
        scaled, (vmin, vmax) = oracle_linear_scale(X[train_idx, col])
        train_cols.append(scaled)
        test_cols.append(oracle_apply_scale(X[test_idx, col], vmin, vmax))
    return np.column_stack(train_cols), T[train_idx], np.column_stack(test_cols), T[test_idx]


def _assert_split_matches_oracle(ds, spec):
    train, test = split(ds, spec)
    expected = oracle_split(ds.X, ds.T, spec)
    for got, want in zip((train.X, train.T, test.X, test.T), expected):
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


class TestScale:
    def test_basic_interval(self):
        (scaled,) = _scale([0.0, 10.0])
        assert scaled.tolist() == [-1.0, 1.0]

    def test_hand_arithmetic(self):
        (scaled,) = _scale([-2.0, -1.5, -1.0])
        assert scaled.tolist() == [-1.0, 0.0, 1.0]

    def test_others_mapped_by_fit_statistics(self):
        fit, other = _scale([[0.0, 4.0], [10.0, 6.0]], [[5.0, 3.0], [20.0, 8.0], [-10.0, 5.0]])
        assert fit.tolist() == [[-1.0, -1.0], [1.0, 1.0]]
        assert other.tolist() == [[0.0, -2.0], [3.0, 3.0], [-3.0, 0.0]]

    @pytest.mark.parametrize(
        "column", [[5.0, 5.0, 5.0], [0.0, 5e-324], [-1e-310, -1e-310 + 5e-324]], ids=["constant", "denormal", "narrow"]
    )
    def test_flat_column_maps_to_zero(self, column):
        fit, other = _scale(np.column_stack([column, np.linspace(0.0, 2.0, len(column))]), [[7.0, 1.0]])
        assert fit[:, 0].tolist() == [0.0] * len(column) and fit[-1, 1] == 1.0
        assert other.tolist() == [[0.0, 0.0]]
        assert not np.signbit(fit[:, 0]).any() and not np.signbit(other[0, 0])

    def test_rejects_empty_and_non_finite(self):
        with pytest.raises(ValueError, match="empty"):
            _scale([])
        with pytest.raises(ValueError, match="non-finite"):
            _scale([1.0, math.inf])
        with pytest.raises(ValueError, match="non-finite"):
            _scale([[1.0, 2.0], [math.nan, 3.0]])

    @given(
        arrays(
            np.float64,
            array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=12),
            elements=st.floats(min_value=-1e12, max_value=1e12),
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_fit_columns_span_the_interval(self, X):
        (scaled,) = _scale(X)
        for col, out in zip(X.T, scaled.T):
            with np.errstate(divide="ignore", over="ignore"):
                flat = not math.isfinite(2.0 / (col.max() - col.min()))
            if flat:
                assert np.all(out == 0.0)
                continue
            # -1 exactly at the minimum; at the maximum w * (2 / w) - 1 is
            # 1 or the double just below it, never above
            assert out[col.argmin()] == -1.0 and out.max() in (1.0, 1.0 - 2.0**-52)
            assert np.all(out >= -1.0) and np.all(out <= 1.0)


class TestScaleOracle:
    """split and gen_quadratic give the same bytes as the per-column scaler."""

    @pytest.mark.parametrize("fixture_seed", [7, 8, 9])
    @pytest.mark.parametrize("fraction", [0.2, 0.5, 0.9])
    def test_heart_splits(self, tmp_path, fixture_seed, fraction):
        path = tmp_path / "heart.dat"
        make_heart_fixture(path, seed=fixture_seed)
        ds = load_heart(path)
        for seed in range(5):
            _assert_split_matches_oracle(ds, SplitSpec(fraction, seed=seed))

    def test_flat_columns_in_a_split(self):
        rng = np.random.default_rng(3)
        X = np.column_stack([
            np.full(40, 5.0),
            np.where(rng.random(40) < 0.5, 0.0, 5e-324),
            np.where(rng.random(40) < 0.5, 1.0, np.nextafter(1.0, 2.0)),
            rng.normal(size=40) * 1e6,
        ])
        ds = Dataset(X=X, T=rng.random((40, 1)))
        for seed in range(5):
            _assert_split_matches_oracle(ds, SplitSpec(0.3, seed=seed))

    @pytest.mark.parametrize("n", [2, 3, 5000, 50_000])
    def test_gen_quadratic_linspace(self, n):
        ds = gen_quadratic(n)
        X, T = oracle_gen_quadratic(n)
        assert ds.X.tobytes() == X.tobytes() and ds.T.tobytes() == T.tobytes()


class TestGenQuadratic:
    def test_three_points(self):
        ds = gen_quadratic(3)
        assert ds.X.ravel().tolist() == [-1.0, 0.0, 1.0]
        assert ds.T.ravel().tolist() == [1.0, -1.0, 1.0]

    def test_large_n_in_range(self):
        ds = gen_quadratic(50_000)
        assert ds.X.shape == (50_000, 1)
        assert ds.X.min() == -1.0 and ds.X.max() == 1.0
        assert ds.T.min() == -1.0 and ds.T.max() == 1.0

    def test_degenerate_two_points(self):
        # t_raw = [-1, -1] collapses to the midpoint under the constant rule
        ds = gen_quadratic(2)
        assert ds.T.ravel().tolist() == [0.0, 0.0]

    def test_one_grid_on_every_call(self):
        # the synthetic set has one input distribution: evenly spaced x, nothing drawn at random
        a, b = gen_quadratic(101), gen_quadratic(101)
        assert a.X.tobytes() == b.X.tobytes() and a.T.tobytes() == b.T.tobytes()
        steps = np.diff(a.X.ravel())
        assert np.all(steps > 0.0) and np.allclose(steps, 0.02, rtol=0.0, atol=1e-15)

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            gen_quadratic(1)


class TestLoadHeart:
    def test_fixture_shape_and_labels(self, heart_file):
        ds = load_heart(heart_file)
        assert ds.X.shape == (270, 13)
        assert ds.T.shape == (270, 1)
        assert set(np.unique(ds.T)) == {0.0, 1.0}

    def test_comma_delimited_equivalent(self, tmp_path, heart_file):
        text = heart_file.read_text()
        comma = tmp_path / "heart.csv"
        comma.write_text("\n".join(",".join(line.split()) for line in text.splitlines()) + "\n")
        a = load_heart(heart_file)
        b = load_heart(comma)
        assert np.array_equal(a.X, b.X)
        assert np.array_equal(a.T, b.T)

    def test_bad_label_names_line(self, tmp_path):
        path = tmp_path / "bad.dat"
        path.write_text(HEART_ROW.format(label=2) + "\n" + HEART_ROW.format(label=3) + "\n")
        with pytest.raises(ValueError, match="line 2"):
            load_heart(path)

    def test_wrong_field_count_names_line(self, tmp_path):
        path = tmp_path / "bad.dat"
        path.write_text("1.0 2.0 3.0\n")
        with pytest.raises(ValueError, match="line 1"):
            load_heart(path)

    def test_non_numeric_field_names_line(self, tmp_path):
        path = tmp_path / "bad.dat"
        path.write_text(HEART_ROW.format(label=2) + "\n" + HEART_ROW.format(label="x") + "\n")
        with pytest.raises(ValueError, match="line 2"):
            load_heart(path)

    @pytest.mark.parametrize("field", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_field_names_line(self, tmp_path, field):
        path = tmp_path / "bad.dat"
        path.write_text(HEART_ROW.format(label=2) + "\n" + HEART_ROW.replace("130.0", field).format(label=1) + "\n")
        with pytest.raises(ValueError, match=f"{path}: line 2: non-finite field"):
            load_heart(path)

    @pytest.mark.parametrize("text", ["", "\n  \n\n"], ids=["empty", "blank"])
    def test_no_data_rows_names_path(self, tmp_path, text):
        path = tmp_path / "empty.dat"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"{path}: no data rows"):
            load_heart(path)

    def test_any_row_count_loads_quietly(self, tmp_path):
        path = tmp_path / "short.dat"
        path.write_text("\n".join(HEART_ROW.format(label=1) for _ in range(3)) + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ds = load_heart(path)
        assert ds.X.shape == (3, 13) and ds.T.ravel().tolist() == [0.0, 0.0, 0.0]

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(OSError):
            load_heart(tmp_path / "nope.dat")

    def test_undecodable_file_names_path(self, tmp_path):
        path = tmp_path / "bin.dat"
        path.write_bytes(b"\xff\xfe\x00" + HEART_ROW.format(label=1).encode())
        with pytest.raises(ValueError) as info:
            load_heart(path)
        assert str(info.value).startswith(f"{path}: 'utf-8' codec can't decode byte 0xff in position 0")


class TestSplit:
    def test_heart_partition_sizes(self, heart_file):
        ds = load_heart(heart_file)
        train, test = split(ds, SplitSpec(test_fraction=0.2, seed=0))
        assert train.X.shape[0] == 216
        assert test.X.shape[0] == 54

    def test_half_split_of_four(self):
        ds = Dataset(
            X=np.arange(8.0).reshape(4, 2),
            T=np.arange(4.0).reshape(4, 1),
        )
        train, test = split(ds, SplitSpec(test_fraction=0.5, seed=1))
        assert train.X.shape[0] == 2 and test.X.shape[0] == 2

    def test_deterministic_and_disjoint(self, heart_file):
        ds = load_heart(heart_file)
        t1, e1 = split(ds, SplitSpec(seed=5))
        t2, e2 = split(ds, SplitSpec(seed=5))
        assert np.array_equal(t1.X, t2.X) and np.array_equal(e1.X, e2.X)
        # targets partition the original multiset exactly
        merged = np.sort(np.concatenate([t1.T.ravel(), e1.T.ravel()]))
        assert np.array_equal(merged, np.sort(ds.T.ravel()))

    def test_train_features_scaled_test_not_clamped(self, heart_file):
        ds = load_heart(heart_file)
        train, test = split(ds, SplitSpec(seed=0))
        assert train.X.min() >= -1.0 and train.X.max() <= 1.0
        assert (train.X.min(axis=0) == -1.0).all()
        # test columns use train statistics: values may poke past the ends
        assert np.isfinite(test.X).all()

    def test_invalid_fraction_rejected(self):
        with pytest.raises(ValueError):
            SplitSpec(test_fraction=0.0)
        with pytest.raises(ValueError):
            SplitSpec(test_fraction=1.0)


class TestFixture:
    def test_fixture_is_deterministic(self, tmp_path):
        a = tmp_path / "a.dat"
        b = tmp_path / "b.dat"
        make_heart_fixture(a)
        make_heart_fixture(b)
        assert a.read_bytes() == b.read_bytes()

    def test_default_fixture_bytes_are_pinned(self, tmp_path):
        # every heart number in README and the benchmark is measured on this file
        path = tmp_path / "heart.dat"
        make_heart_fixture(path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "20e0d67d1d6e2039b4a360e9d0b6aeb7dfcf21a6e6ca718e44516df67db04e7c"
        )

    SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "make_heart_fixture.py"

    def test_script_writes_the_default_fixture(self, tmp_path, monkeypatch, capsys):
        out, lib = tmp_path / "script.dat", tmp_path / "lib.dat"
        monkeypatch.setattr(sys, "argv", [str(self.SCRIPT), str(out)])
        runpy.run_path(str(self.SCRIPT), run_name="__main__")
        make_heart_fixture(lib)
        assert out.read_bytes() == lib.read_bytes()
        assert len(load_heart(out).T) == 270
        assert capsys.readouterr().out == f"wrote {out} (270 rows, seed 7)\n"

    @pytest.mark.parametrize("rows", [1, 120])
    def test_script_rows_option_writes_a_file_that_loads_quietly(self, tmp_path, monkeypatch, capsys, rows):
        out, lib = tmp_path / "script.dat", tmp_path / "lib.dat"
        monkeypatch.setattr(sys, "argv", [str(self.SCRIPT), str(out), "--rows", str(rows)])
        runpy.run_path(str(self.SCRIPT), run_name="__main__")
        make_heart_fixture(lib, n=rows)
        assert out.read_bytes() == lib.read_bytes()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert len(load_heart(out).T) == rows
        assert capsys.readouterr().out == f"wrote {out} ({rows} rows, seed 7)\n"

    @pytest.mark.parametrize("n", [0, -1])
    def test_fixture_rejects_fewer_than_one_row(self, tmp_path, n):
        path = tmp_path / "heart.dat"
        with pytest.raises(ValueError, match=rf"^n must be >= 1, got {n}$"):
            make_heart_fixture(path, n=n)
        assert not path.exists()

    def _run_script(self, monkeypatch, *args):
        monkeypatch.setattr(sys, "argv", [str(self.SCRIPT), *map(str, args)])
        with pytest.raises(SystemExit) as exc:
            runpy.run_path(str(self.SCRIPT), run_name="__main__")
        return exc.value.code

    @pytest.mark.parametrize("option, value, message", [
        ("--rows", 0, "--rows must be >= 1, got 0"),
        ("--rows", -1, "--rows must be >= 1, got -1"),
        ("--seed", -1, "--seed must be >= 0, got -1"),
    ])
    def test_script_rejects_a_bad_count_as_a_usage_error(self, tmp_path, monkeypatch, capsys, option, value, message):
        out = tmp_path / "heart.dat"
        assert self._run_script(monkeypatch, out, option, value) == 2
        assert capsys.readouterr().err.splitlines()[-1].endswith(f": error: {message}")
        assert not out.exists()

    def test_script_reports_an_unwritable_path_in_one_line(self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "missing" / "heart.dat"
        assert self._run_script(monkeypatch, out) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: [Errno 2] No such file or directory: '{out}'\n"

    def test_fixture_has_both_classes(self, heart_file):
        ds = load_heart(heart_file)
        positives = float(ds.T.mean())
        assert 0.25 <= positives <= 0.75

