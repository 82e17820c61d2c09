"""Explicit linear feature models trained by GD from zero.

Three feature maps, one per training mode:
  first  : psi1(x) = (1/sqrt(d)) [zeta x; nu]                  (dim d+1)
  second : psi2(x) = [zeta x/sqrt(d); nu/sqrt(2d); q(x)]       (dim d+2)
  both   : psi(x)  = [sqrt(2/d) zeta x; sqrt(3/(2d)) nu; q(x)] (dim d+2)
where q(x) = theta0 + theta1 (||x||/sqrt(d)-1) + theta2 (||x||/sqrt(d)-1)^2
is the norm feature. The Gram matrix of each map equals the corresponding
linear kernel, and <psi, psi'> = <psi1, psi1'> + <psi2, psi2'>.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .activations import Moments
from .network import check_divergence, mean_squared_error

MODES = ("first", "second", "both")
EIGH_MAX_N = 2000
PINV_CUTOFF = 1e-10


@dataclass(frozen=True)
class FeatureMap:
    which: str
    moments: Moments
    nu: float
    d: int

    def __post_init__(self):
        if self.which not in MODES:
            raise ValueError(f"which must be one of {MODES}, got {self.which!r}")

    @property
    def out_dim(self) -> int:
        return self.d + 1 if self.which == "first" else self.d + 2


@dataclass
class LinearModel:
    map: FeatureMap
    beta: np.ndarray

    def __post_init__(self):
        if self.beta.shape != (self.map.out_dim,):
            raise ValueError(
                f"beta has shape {self.beta.shape}, expected ({self.map.out_dim},)"
            )


def zero_model(fmap: FeatureMap) -> LinearModel:
    return LinearModel(map=fmap, beta=np.zeros(fmap.out_dim))


def naive_map(fmap: FeatureMap) -> FeatureMap:
    """Ablation that freezes the norm feature to the constant theta0
    (theta1 = theta2 = 0); nu is left untouched."""
    mom = replace(fmap.moments, g_phi_prime=0.0, theta2=0.0)
    return replace(fmap, moments=mom)


def norm_feature(fmap: FeatureMap, X: np.ndarray) -> np.ndarray:
    mom = fmap.moments
    dev = np.linalg.norm(X, axis=1) / math.sqrt(fmap.d) - 1.0
    return mom.theta0 + mom.theta1 * dev + mom.theta2 * dev**2


def features(fmap: FeatureMap, X: np.ndarray) -> np.ndarray:
    """Feature matrix Psi, shape (n, out_dim); accepts a single x as a 1-D array."""
    X = np.asarray(X, dtype=float)
    single = X.ndim == 1
    if single:
        X = X[None, :]
    if X.shape[1] != fmap.d:
        raise ValueError(f"X has shape {X.shape}, expected (n, {fmap.d})")
    n = X.shape[0]
    mom, nu_val, d = fmap.moments, fmap.nu, fmap.d
    if fmap.which == "first":
        Psi = np.empty((n, d + 1))
        Psi[:, :d] = (mom.zeta / math.sqrt(d)) * X
        Psi[:, d] = nu_val / math.sqrt(d)
    elif fmap.which == "second":
        Psi = np.empty((n, d + 2))
        Psi[:, :d] = (mom.zeta / math.sqrt(d)) * X
        Psi[:, d] = nu_val / math.sqrt(2.0 * d)
        Psi[:, d + 1] = norm_feature(fmap, X)
    else:
        Psi = np.empty((n, d + 2))
        Psi[:, :d] = (math.sqrt(2.0 / d) * mom.zeta) * X
        Psi[:, d] = math.sqrt(3.0 / (2.0 * d)) * nu_val
        Psi[:, d + 1] = norm_feature(fmap, X)
    return Psi[0] if single else Psi


def predict(model: LinearModel, X: np.ndarray) -> np.ndarray:
    return features(model.map, X) @ model.beta


@dataclass
class LinearTrajectory:
    steps: np.ndarray
    train_mse: np.ndarray
    beta_norm: np.ndarray
    predictions: np.ndarray | None  # (T+1, n) if kept
    final_model: LinearModel


def lin_gd_train(fmap: FeatureMap, dataset, eta: float, T: int, recorder=None,
                 keep_predictions: bool = False) -> LinearTrajectory:
    """Full-batch GD from beta = 0 on the squared loss with the 1/(2n) factor."""
    if eta <= 0:
        raise ValueError("eta must be positive")
    X, y = dataset.X, dataset.y
    n = X.shape[0]
    Psi = features(fmap, X)
    beta = np.zeros(fmap.out_dim)

    steps = np.arange(T + 1)
    train_mse = np.empty(T + 1)
    beta_norm = np.empty(T + 1)
    preds = np.empty((T + 1, n)) if keep_predictions else None

    initial_mse = None
    for t in range(T + 1):
        u = Psi @ beta
        mse = mean_squared_error(u, y)
        if initial_mse is None:
            initial_mse = mse
        check_divergence("linear GD", t, {"lin": mse}, initial_mse, eta, T)
        train_mse[t] = mse
        beta_norm[t] = float(np.linalg.norm(beta))
        if preds is not None:
            preds[t] = u
        if recorder is not None:
            recorder({"step": t, "train_mse": mse, "predictions": u,
                      "beta_norm": beta_norm[t]})
        if t == T:
            break
        beta = beta - (eta / n) * (Psi.T @ (u - y))

    return LinearTrajectory(steps=steps, train_mse=train_mse, beta_norm=beta_norm,
                            predictions=preds,
                            final_model=LinearModel(map=fmap, beta=beta))


def closed_form_predictions(K, y: np.ndarray, eta: float, t: int) -> np.ndarray:
    """u(t) = y - (I - eta K / n)^t y for GD from zero on a kernel K.

    Uses a symmetric eigendecomposition up to n = 2000, and t repeated
    matrix-vector products beyond that.
    """
    return closed_form_trajectory(K, y, eta, [t])[0]


def closed_form_trajectory(K, y: np.ndarray, eta: float, ts) -> np.ndarray:
    """Stacked closed-form predictions for each step count in ts."""
    values = K.values if hasattr(K, "values") else np.asarray(K, dtype=float)
    n = values.shape[0]
    ts = [int(t) for t in ts]
    if any(t < 0 for t in ts):
        raise ValueError("step counts must be >= 0")
    out = np.empty((len(ts), n))
    if n <= EIGH_MAX_N:
        evals, evecs = np.linalg.eigh(values)
        z = evecs.T @ y
        factors = 1.0 - eta * evals / n
        for k, t in enumerate(ts):
            out[k] = y - evecs @ (np.power(factors, t) * z)
        return out
    step = np.eye(n) - eta * values / n
    order = np.argsort(ts)
    r = y.copy()
    done = 0
    for k in order:
        t = ts[k]
        for _ in range(t - done):
            r = step @ r
        done = t
        out[k] = y - r
    return out


def save_trajectory(traj: LinearTrajectory, csv_path, json_path=None,
                    config: dict | None = None, seed: int | None = None) -> None:
    """CSV schema: step,train_mse,beta_norm — the shared columns line up with
    the network trajectory CSV so the two can be diffed column-wise."""
    import json

    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write("step,train_mse,beta_norm\n")
        for t in range(len(traj.steps)):
            fh.write(f"{traj.steps[t]},{traj.train_mse[t]:.17g},"
                     f"{traj.beta_norm[t]:.17g}\n")
    if json_path is not None:
        with open(json_path, "w", encoding="utf-8") as fh:
            json.dump({"config": config or {}, "seed": seed}, fh, indent=2)
            fh.write("\n")


def min_norm_solution(fmap: FeatureMap, dataset) -> LinearModel:
    """Minimum-norm least-squares parameter via SVD pseudo-inverse.

    Singular values below 1e-10 of the largest are treated as zero; the
    constant nu-column makes the features nearly rank-deficient when nu is
    close to zero, so the cutoff matters.
    """
    Psi = features(fmap, dataset.X)
    beta, *_ = np.linalg.lstsq(Psi, dataset.y, rcond=PINV_CUTOFF)
    return LinearModel(map=fmap, beta=beta)
