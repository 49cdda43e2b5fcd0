"""Dataset construction: the synthetic x**2 - 2 regression set and the
Statlog-format heart disease benchmark, seeded train/test splitting, and the
[-1, 1] min-max column scaling both use (fit on the train side only).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

HEART_FEATURES = 13
HEART_EXPECTED_ROWS = 270


@dataclass
class Dataset:
    X: np.ndarray  # samples x features
    T: np.ndarray  # samples x outputs


@dataclass(frozen=True)
class SplitSpec:
    test_fraction: float = 0.2
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.test_fraction < 1:
            raise ValueError(f"test_fraction must be in (0, 1), got {self.test_fraction}")


def _scale(fit, *others) -> tuple[np.ndarray, ...]:
    """Map fit, then each of others, by fit's column min/max onto [-1, 1].

    Rows are samples; a 1-D array is one column.  A flat column (constant,
    or narrower than float resolution) maps everything to 0.
    """
    fit = np.asarray(fit, dtype=float)
    if fit.size == 0:
        raise ValueError("cannot scale an empty column")
    if not np.isfinite(fit).all():
        raise ValueError("cannot scale non-finite values")
    vmin = fit.min(axis=0)
    with np.errstate(divide="ignore", over="ignore"):
        span = 2.0 / (fit.max(axis=0) - vmin)
    flat = ~np.isfinite(span)
    span = np.where(flat, 0.0, span)
    scaled = []
    for values in (fit, *others):
        out = (values - vmin) * span - 1.0
        np.copyto(out, 0.0, where=flat)
        scaled.append(out)
    return tuple(scaled)


def gen_quadratic(n: int, random_x: bool = False, seed: int = 0) -> Dataset:
    """n points of the x**2 - 2 curve, inputs and targets scaled to [-1, 1].

    Inputs are linearly spaced over [-1, 1] by default; random_x draws them
    uniformly instead.
    """
    if n < 2:
        raise ValueError(f"need at least 2 points, got {n}")
    if random_x:
        x = np.random.default_rng(seed).uniform(-1.0, 1.0, size=n)
    else:
        x = np.linspace(-1.0, 1.0, n)
    (x_scaled,), (t_scaled,) = _scale(x), _scale(x**2 - 2.0)
    return Dataset(X=x_scaled[:, None], T=t_scaled[:, None])


def load_heart(path) -> Dataset:
    """Statlog heart file: 13 numeric features plus a 1/2 label per line.

    Whitespace- or comma-delimited (auto-detected).  Labels are mapped to
    0 (absence) / 1 (presence).  Features are left unscaled here; scaling is
    fit on the training side at split time.
    """
    with open(path, "r", encoding="utf-8") as fh:
        raw = fh.readlines()
    features = []
    labels = []
    for lineno, line in enumerate(raw, start=1):
        line = line.strip()
        if not line:
            continue
        fields = line.split(",") if "," in line else line.split()
        if len(fields) != HEART_FEATURES + 1:
            raise ValueError(
                f"{path}: line {lineno}: expected {HEART_FEATURES + 1} fields, got {len(fields)}"
            )
        try:
            values = [float(f) for f in fields]
        except ValueError:
            raise ValueError(f"{path}: line {lineno}: non-numeric field") from None
        if not all(map(math.isfinite, values)):
            raise ValueError(f"{path}: line {lineno}: non-finite field")
        label = values[-1]
        if label not in (1.0, 2.0):
            raise ValueError(f"{path}: line {lineno}: label must be 1 or 2, got {label:g}")
        features.append(values[:-1])
        labels.append(label - 1.0)
    if not labels:
        raise ValueError(f"{path}: no data rows")
    if len(labels) != HEART_EXPECTED_ROWS:
        warnings.warn(f"{path}: expected {HEART_EXPECTED_ROWS} rows, got {len(labels)}")
    X = np.asarray(features, dtype=float)
    T = np.asarray(labels, dtype=float)[:, None]
    return Dataset(X=X, T=T)


def split(ds: Dataset, spec: SplitSpec) -> tuple[Dataset, Dataset]:
    """Seeded shuffle into ceil((1 - f) * n) train rows and the rest as test.

    Feature scaling to [-1, 1] is fit on the train rows and applied to both
    sides, so test features may fall slightly outside [-1, 1] (by design, no
    clamping).  Targets pass through untouched.
    """
    n = ds.X.shape[0]
    n_train = math.ceil((1.0 - spec.test_fraction) * n)
    if n_train < 1 or n_train >= n:
        raise ValueError(f"split of {n} rows at fraction {spec.test_fraction} leaves an empty side")
    order = np.random.default_rng(spec.seed).permutation(n)
    train_idx, test_idx = order[:n_train], order[n_train:]
    x_train, x_test = _scale(ds.X[train_idx], ds.X[test_idx])
    return Dataset(x_train, ds.T[train_idx]), Dataset(x_test, ds.T[test_idx])


def make_heart_fixture(path, n: int = HEART_EXPECTED_ROWS, seed: int = 7) -> None:
    """Write a heart-like stand-in file in the Statlog format.

    The canonical UCI file cannot be fetched here, so tests and offline runs
    use rows drawn from a generative model with the same column layout
    (age, sex, chest pain type, resting blood pressure, cholesterol, fasting
    blood sugar, resting ECG, max heart rate, exercise angina, ST depression,
    slope, vessel count, thalassemia, label in {1, 2}).  The label follows a
    noisy logistic score over the clinically predictive columns, which keeps
    the classification task learnable but not separable.
    """
    rng = np.random.default_rng(seed)
    age = np.clip(rng.normal(54.0, 9.0, n), 29, 77).round(0)
    sex = (rng.random(n) < 0.68).astype(float)
    cp = rng.choice([1.0, 2.0, 3.0, 4.0], size=n, p=[0.07, 0.16, 0.29, 0.48])
    trestbps = np.clip(rng.normal(131.0, 18.0, n), 94, 200).round(0)
    chol = np.clip(rng.normal(250.0, 52.0, n), 126, 564).round(0)
    fbs = (rng.random(n) < 0.15).astype(float)
    restecg = rng.choice([0.0, 1.0, 2.0], size=n, p=[0.49, 0.01, 0.50])
    thalach = np.clip(rng.normal(149.0, 23.0, n), 71, 202).round(0)
    exang = (rng.random(n) < 0.33).astype(float)
    oldpeak = np.maximum(rng.normal(1.05, 1.15, n), 0.0).round(1)
    slope = rng.choice([1.0, 2.0, 3.0], size=n, p=[0.48, 0.46, 0.06])
    ca = rng.choice([0.0, 1.0, 2.0, 3.0], size=n, p=[0.59, 0.21, 0.12, 0.08])
    thal = rng.choice([3.0, 6.0, 7.0], size=n, p=[0.56, 0.05, 0.39])
    cols = [age, sex, cp, trestbps, chol, fbs, restecg, thalach, exang, oldpeak, slope, ca, thal]
    logit = (
        0.9 * (cp == 4.0)
        + 0.8 * exang
        + 0.9 * (oldpeak - 1.05)
        + 0.9 * (ca > 0)
        + 1.0 * (thal == 7.0)
        + 0.7 * sex
        - 0.03 * (thalach - 149.0)
        + 0.02 * (age - 54.0)
        - 1.6
    )
    noise = rng.logistic(0.0, 0.35, n)
    label = np.where(logit + noise > 0.0, 2, 1)
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(n):
            row = " ".join(f"{col[i]:.1f}" for col in cols)
            fh.write(f"{row} {label[i]}\n")
