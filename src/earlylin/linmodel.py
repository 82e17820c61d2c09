"""Explicit linear feature models, trained by GD from zero in lockstep with the net.

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

MODES = ("first", "second", "both")
EIGH_MAX_N = 2000


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


def naive_map(fmap: FeatureMap) -> FeatureMap:
    """Ablation that freezes the norm feature to the constant theta0
    (theta1 = theta2 = 0); nu is left untouched."""
    mom = replace(fmap.moments, g_phi_prime=0.0, theta2=0.0)
    return replace(fmap, moments=mom)


def norm_feature(mom: Moments, X: np.ndarray) -> np.ndarray:
    """q(x_i) for each row of X (n x d)."""
    dev = np.linalg.norm(X, axis=1) / math.sqrt(X.shape[1]) - 1.0
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
        Psi[:, d + 1] = norm_feature(mom, X)
    else:
        Psi = np.empty((n, d + 2))
        Psi[:, :d] = (math.sqrt(2.0 / d) * mom.zeta) * X
        Psi[:, d] = math.sqrt(3.0 / (2.0 * d)) * nu_val
        Psi[:, d + 1] = norm_feature(mom, X)
    return Psi[0] if single else Psi


class LinearTrainable:
    """A linear model u = Psi beta on fixed features Psi, trained by GD from
    beta = 0 on the squared loss with the 1/(2n) factor; a model of
    `network.run_lockstep`."""

    def __init__(self, Psi: np.ndarray, eta: float):
        if eta <= 0:
            raise ValueError("eta must be positive")
        self.Psi, self.eta = Psi, eta
        self.beta = np.zeros(Psi.shape[1])

    def outputs(self) -> np.ndarray:
        return self.Psi @ self.beta

    def step(self, r: np.ndarray) -> None:
        self.beta = self.beta - (self.eta / self.Psi.shape[0]) * (self.Psi.T @ r)


def closed_form_trajectory(K, y: np.ndarray, eta: float, ts) -> np.ndarray:
    """Closed-form predictions u(t) = y - (I - eta K / n)^t y of GD from zero
    on a kernel K, stacked for each step count t in ts.

    Uses a symmetric eigendecomposition up to n = 2000, and t repeated
    matrix-vector products beyond that.
    """
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
