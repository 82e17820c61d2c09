"""Two-layer fully-connected network, 1-D circular CNN, and the lockstep GD driver.

The fully-connected model is f(x; W, v) = (1/sqrt(m)) v . phi(W x / sqrt(d))
with W of shape (m, d) and v of +-1 entries at init. Symmetric initialization
mirrors the first half of the neurons with negated output signs so the
initial function is identically zero without changing the tangent kernel.
The first-layer Jacobian is only ever applied matrix-free (it has n x m*d
entries); the second-layer Jacobian is small enough to materialize.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .activations import Activation, phi, phi_prime

DIVERGENCE_FACTOR = 1e6


class DivergenceError(RuntimeError):
    """Training loss became non-finite or blew up past the divergence factor.

    `step` is the step at which the check failed, `mses` the training MSE of
    each model seen there (by name: "net", "lin", ...), `eta`, `T` the
    learning rate and horizon of the run, and `records` the rows the run
    recorded before the failing step.
    """

    def __init__(self, what: str, step: int, mses: dict[str, float],
                 eta: float, T: int, records=()):
        self.step, self.mses, self.eta, self.T = step, dict(mses), eta, T
        self.records = list(records)
        seen = ", ".join(f"{name} mse={value}" for name, value in self.mses.items())
        super().__init__(f"{what} diverged at step {step}: {seen}")


def mean_squared_error(u: np.ndarray, y: np.ndarray) -> float:
    """Per-step training MSE of a model. An overflow gives inf without a
    numpy warning: `check_divergence` reports it."""
    with np.errstate(over="ignore", invalid="ignore"):
        d = u - y
        d *= d
        return float(np.add.reduce(d)) / d.size


def check_divergence(what: str, step: int, mses: dict[str, float],
                     initial_mse: float, eta: float, T: int,
                     records: list) -> None:
    """Raise DivergenceError if any MSE is non-finite or exceeds
    DIVERGENCE_FACTOR times the initial MSE."""
    worst = max(mses.values())
    if (not all(math.isfinite(v) for v in mses.values())
            or (initial_mse > 0 and worst > DIVERGENCE_FACTOR * initial_mse)):
        raise DivergenceError(what, step, mses, eta, T, records)


@dataclass
class TwoLayerNet:
    W: np.ndarray  # (m, d)
    v: np.ndarray  # (m,)
    act: Activation

    @property
    def m(self) -> int:
        return self.W.shape[0]

    @property
    def d(self) -> int:
        return self.W.shape[1]

    def copy(self) -> "TwoLayerNet":
        return TwoLayerNet(W=self.W.copy(), v=self.v.copy(), act=self.act)


@dataclass
class Cnn1D:
    """One convolutional layer with circular padding, no pooling, no biases."""

    W: np.ndarray  # (m, q) filters
    V: np.ndarray  # (m, d) second layer
    act: Activation

    @property
    def m(self) -> int:
        return self.W.shape[0]

    @property
    def q(self) -> int:
        return self.W.shape[1]

    @property
    def d(self) -> int:
        return self.V.shape[1]

    def __post_init__(self):
        if self.q > self.d:
            raise ValueError(f"filter size q={self.q} exceeds input dimension d={self.d}")

    def copy(self) -> "Cnn1D":
        return Cnn1D(W=self.W.copy(), V=self.V.copy(), act=self.act)


# Distinct seed domains so nets constructed from the same integer seed by
# different initializers never share weight draws.
_SYMMETRIC_DOMAIN = 1
_RANDOM_DOMAIN = 2
_CNN_DOMAIN = 3


def symmetric_init(m: int, d: int, act: Activation, seed: int) -> TwoLayerNet:
    """Mirrored init: w_{i+m/2} = w_i, v_{i+m/2} = -v_i, so f == 0 everywhere."""
    if m % 2 != 0:
        raise ValueError("width must be even (symmetric initialization)")
    rng = np.random.default_rng((seed, _SYMMETRIC_DOMAIN))
    half = m // 2
    W_half = rng.standard_normal((half, d))
    v_half = 2.0 * rng.integers(0, 2, size=half) - 1.0
    return TwoLayerNet(
        W=np.vstack([W_half, W_half]),
        v=np.concatenate([v_half, -v_half]),
        act=act,
    )


def random_init(m: int, d: int, act: Activation, seed: int) -> TwoLayerNet:
    """Plain iid init (W ~ N(0,1), v ~ Unif{+-1}); used for teacher networks."""
    rng = np.random.default_rng((seed, _RANDOM_DOMAIN))
    return TwoLayerNet(
        W=rng.standard_normal((m, d)),
        v=2.0 * rng.integers(0, 2, size=m) - 1.0,
        act=act,
    )


def preactivations(net: TwoLayerNet, X: np.ndarray) -> np.ndarray:
    """X W^T / sqrt(d), shape (n, m)."""
    if X.ndim != 2 or X.shape[1] != net.d:
        raise ValueError(f"X has shape {X.shape}, expected (n, {net.d})")
    Z = X @ net.W.T
    Z /= math.sqrt(net.d)
    return Z


def forward(net: TwoLayerNet, X: np.ndarray) -> np.ndarray:
    """u_i = (1/sqrt(m)) v . phi(W x_i / sqrt(d))."""
    return phi(net.act, preactivations(net, X)) @ net.v / math.sqrt(net.m)


def jacobian_first_layer_apply(net: TwoLayerNet, X: np.ndarray,
                               delta_W: np.ndarray) -> np.ndarray:
    """Directional derivative of the outputs along delta_W (matrix-free J1)."""
    if delta_W.shape != net.W.shape:
        raise ValueError(f"delta_W has shape {delta_W.shape}, expected {net.W.shape}")
    G = phi_prime(net.act, preactivations(net, X))
    P = X @ delta_W.T
    return (G * P) @ net.v / math.sqrt(net.m * net.d)


def jacobian_first_layer_transpose_apply(net: TwoLayerNet, X: np.ndarray,
                                         r: np.ndarray) -> np.ndarray:
    """J1^T r as an (m, d) matrix."""
    n = X.shape[0]
    if r.shape != (n,):
        raise ValueError(f"r has shape {r.shape}, expected ({n},)")
    G = phi_prime(net.act, preactivations(net, X))
    return net.v[:, None] * ((G * r[:, None]).T @ X) / math.sqrt(net.m * net.d)


def jacobian_second_layer(net: TwoLayerNet, X: np.ndarray) -> np.ndarray:
    """J2 = (1/sqrt(m)) phi(X W^T / sqrt(d)), shape (n, m)."""
    return phi(net.act, preactivations(net, X)) / math.sqrt(net.m)


def loss_gradients(net: TwoLayerNet, X: np.ndarray, y: np.ndarray):
    """Gradients of (1/2n) sum (f - y)^2 w.r.t. W and v."""
    n = X.shape[0]
    Z = preactivations(net, X)
    A = phi(net.act, Z)
    u = A @ net.v / math.sqrt(net.m)
    r = u - y
    G = phi_prime(net.act, Z)
    grad_W = net.v[:, None] * ((G * r[:, None]).T @ X) / (n * math.sqrt(net.m * net.d))
    grad_v = A.T @ r / (n * math.sqrt(net.m))
    return grad_W, grad_v


class NetTrainable:
    """The network as a model of `run_lockstep`: full-batch GD on W at rate
    eta1 and on v at rate eta2 (a rate of 0 freezes its layer).

    Z = X W^T / sqrt(d) and A = phi(Z) depend on W only, so they are
    recomputed only right after W moves. The test-set features are computed
    on first use and dropped when W moves, before phi' is computed, so stale
    ones never take memory during a step. v moves before W, and the W
    gradient uses the pre-step v.
    """

    def __init__(self, net: TwoLayerNet, X: np.ndarray, eta1: float, eta2: float,
                 X_test: np.ndarray | None = None):
        if eta1 < 0 or eta2 < 0 or eta1 == eta2 == 0.0:
            raise ValueError("a training run needs a positive learning rate and "
                             f"no negative one, got eta1={eta1}, eta2={eta2}")
        self.net = net.copy()
        self.X, self.X_test, self.eta1, self.eta2 = X, X_test, eta1, eta2
        self._sqrt_m = math.sqrt(net.m)
        self._sqrt_md = math.sqrt(net.m * net.d)
        self._Z = preactivations(self.net, X)
        self._A = phi(net.act, self._Z)
        self._A_test = None

    def outputs(self) -> np.ndarray:
        return self._A @ self.net.v / self._sqrt_m

    def test_outputs(self) -> np.ndarray:
        if self._A_test is None:
            self._A_test = phi(self.net.act, preactivations(self.net, self.X_test))
        return self._A_test @ self.net.v / self._sqrt_m

    def step(self, r: np.ndarray) -> None:
        net, X, v = self.net, self.X, self.net.v
        n = X.shape[0]
        if self.eta2 != 0.0:
            net.v = v - (self.eta2 / (n * self._sqrt_m)) * (self._A.T @ r)
        if self.eta1 != 0.0:
            self._A_test = None
            G = phi_prime(net.act, self._Z)
            G *= r[:, None]
            net.W = net.W - (self.eta1 / (n * self._sqrt_md)) * (v[:, None] * (G.T @ X))
            self._Z = preactivations(net, X)
            self._A = phi(net.act, self._Z)


def run_lockstep(what: str, models: dict, y: np.ndarray, eta: float, T: int,
                 record, stride: int = 1) -> list:
    """Full-batch GD of every model (name -> trainable) on the labels y, in
    lockstep for T steps; returns the rows `record` made.

    A trainable has `outputs()`, its current predictions on the training
    set, and `step(r)`, one GD step from the residual r = outputs - y. At
    each step t = 0..T the driver takes every model's outputs and MSE,
    checks them for divergence against the largest step-0 MSE, appends
    `record(t, outputs, mses)` (both dicts by model name) to the rows when
    t % stride == 0 or t == T, and then steps every model. A DivergenceError
    carries the rows recorded before the failing step.
    """
    rows = []
    initial_mse = None
    for t in range(T + 1):
        outputs = {name: model.outputs() for name, model in models.items()}
        mses = {name: mean_squared_error(u, y) for name, u in outputs.items()}
        if initial_mse is None:
            initial_mse = max(mses.values())
        check_divergence(what, t, mses, initial_mse, eta, T, rows)
        if t % stride == 0 or t == T:
            rows.append(record(t, outputs, mses))
        if t < T:
            for name, model in models.items():
                model.step(outputs[name] - y)
    return rows


# ---------------------------------------------------------------------------
# 1-D CNN with circular padding


def cnn_init(m: int, q: int, d: int, act: Activation, seed: int) -> Cnn1D:
    """Filters and second layer iid N(0, 1)."""
    rng = np.random.default_rng((seed, _CNN_DOMAIN))
    return Cnn1D(W=rng.standard_normal((m, q)), V=rng.standard_normal((m, d)), act=act)


def circular_conv(w: np.ndarray, x: np.ndarray) -> np.ndarray:
    """(w * x)[i] = sum_j w[j] x[i+j-1] with wraparound indexing."""
    w = np.asarray(w, dtype=float)
    x = np.asarray(x, dtype=float)
    q, d = w.size, x.size
    if q > d:
        raise ValueError(f"filter size q={q} exceeds input dimension d={d}")
    xc = np.concatenate([x, x[: q - 1]]) if q > 1 else x
    return np.correlate(xc, w, mode="valid")


def _cnn_patches(X: np.ndarray, q: int) -> np.ndarray:
    """All circular length-q patches: (n, d, q) with patches[i, k] = x_i[k:k+q]."""
    n, d = X.shape
    xc = np.concatenate([X, X[:, : q - 1]], axis=1) if q > 1 else X
    idx = (np.arange(d)[:, None] + np.arange(q)[None, :]) % xc.shape[1]
    return xc[:, idx]


def cnn_preactivations(cnn: Cnn1D, X: np.ndarray) -> np.ndarray:
    """(w_r * x_i)/sqrt(q) for all (i, position k, filter r): shape (n, d, m)."""
    if X.shape[1] != cnn.d:
        raise ValueError(f"X has shape {X.shape}, expected (n, {cnn.d})")
    patches = _cnn_patches(X, cnn.q)
    return patches @ cnn.W.T / math.sqrt(cnn.q)


def cnn_forward(cnn: Cnn1D, X: np.ndarray) -> np.ndarray:
    """f(x) = (1/sqrt(md)) sum_r v_r . phi(w_r * x / sqrt(q))."""
    H = phi(cnn.act, cnn_preactivations(cnn, X))
    return np.einsum("nkr,rk->n", H, cnn.V) / math.sqrt(cnn.m * cnn.d)


def cnn_loss_gradients(cnn: Cnn1D, X: np.ndarray, y: np.ndarray):
    """Gradients of (1/2n) sum (f - y)^2 w.r.t. the filters W and second layer V."""
    n = X.shape[0]
    Z = cnn_preactivations(cnn, X)
    H = phi(cnn.act, Z)
    u = np.einsum("nkr,rk->n", H, cnn.V) / math.sqrt(cnn.m * cnn.d)
    r = u - y
    scale = 1.0 / (n * math.sqrt(cnn.m * cnn.d))
    grad_V = scale * np.einsum("n,nkr->rk", r, H)
    D = phi_prime(cnn.act, Z)
    patches = _cnn_patches(X, cnn.q)
    M = D * (r[:, None, None] * cnn.V.T[None, :, :])  # (n, d, m)
    grad_W = (scale / math.sqrt(cnn.q)) * np.einsum("nkr,nkj->rj", M, patches)
    return grad_W, grad_V
