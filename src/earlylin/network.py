"""Two-layer fully-connected network, 1-D circular CNN, and full-batch GD.

The fully-connected model is f(x; W, v) = (1/sqrt(m)) v . phi(W x / sqrt(d))
with W of shape (m, d) and v of +-1 entries at init. Symmetric initialization
mirrors the first half of the neurons with negated output signs so the
initial function is identically zero without changing the tangent kernel.
The first-layer Jacobian is only ever applied matrix-free (it has n x m*d
entries); the second-layer Jacobian is small enough to materialize.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .activations import Activation, phi, phi_prime

DIVERGENCE_FACTOR = 1e6


class DivergenceError(RuntimeError):
    """Training loss became non-finite or blew up past the divergence factor.

    `step` is the step at which the check failed, `mses` the training MSE of
    each model seen there (by name: "net", "lin", ...), and `eta`, `T` the
    learning rate and horizon of the run.
    """

    def __init__(self, what: str, step: int, mses: dict[str, float],
                 eta: float, T: int):
        self.step, self.mses, self.eta, self.T = step, dict(mses), eta, T
        seen = ", ".join(f"{name} mse={value}" for name, value in self.mses.items())
        super().__init__(f"{what} diverged at step {step}: {seen}")


def mean_squared_error(u: np.ndarray, y: np.ndarray) -> float:
    """Per-step training MSE of a GD loop. An overflow gives inf without a
    numpy warning: `check_divergence` reports it."""
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.mean((u - y) ** 2))


def check_divergence(what: str, step: int, mses: dict[str, float],
                     initial_mse: float, eta: float, T: int) -> None:
    """Raise DivergenceError if any MSE is non-finite or exceeds
    DIVERGENCE_FACTOR times the initial MSE."""
    worst = max(mses.values())
    if (not all(math.isfinite(v) for v in mses.values())
            or (initial_mse > 0 and worst > DIVERGENCE_FACTOR * initial_mse)):
        raise DivergenceError(what, step, mses, eta, T)


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


@dataclass(frozen=True)
class TrainConfig:
    """Learning rates and step count; T can come from the c*d*log(d)/eta rule."""

    eta1: float = 0.0
    eta2: float = 0.0
    T: int | None = None
    horizon_c: float | None = None

    def __post_init__(self):
        if self.eta1 < 0 or self.eta2 < 0:
            raise ValueError("learning rates must be >= 0")
        if self.T is None and self.horizon_c is None:
            raise ValueError("either T or horizon_c must be given")
        if self.T is not None and self.T < 0:
            raise ValueError("T must be >= 0")

    @property
    def active_eta(self) -> float:
        """The learning rate that sets the horizon (eta1 unless only eta2 > 0)."""
        return self.eta1 if self.eta1 > 0 else self.eta2

    def steps(self, d: int) -> int:
        if self.T is not None:
            return self.T
        if self.active_eta <= 0:
            raise ValueError("horizon rule needs a positive learning rate")
        return max(1, int(self.horizon_c * d * math.log(d) / self.active_eta))


def horizon_steps(c: float, d: int, eta: float) -> int:
    """T = c * d * log(d) / eta, floored, at least 1."""
    if eta <= 0:
        raise ValueError("eta must be positive")
    return max(1, int(c * d * math.log(d) / eta))


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


def gd_step(net: TwoLayerNet, X: np.ndarray, y: np.ndarray,
            eta1: float, eta2: float) -> TwoLayerNet:
    """One full-batch GD step; frozen layers (rate 0) are left untouched."""
    grad_W, grad_v = loss_gradients(net, X, y)
    W = net.W - eta1 * grad_W if eta1 != 0.0 else net.W
    v = net.v - eta2 * grad_v if eta2 != 0.0 else net.v
    return TwoLayerNet(W=W, v=v, act=net.act)


@dataclass
class TrainingTrajectory:
    steps: np.ndarray          # 0..T
    train_mse: np.ndarray
    w_move_fro: np.ndarray     # ||W(t) - W(0)||_F
    v_move_l2: np.ndarray      # ||v(t) - v(0)||
    predictions: np.ndarray | None  # (T+1, n) if kept
    final_net: TwoLayerNet


def train(net: TwoLayerNet, dataset, config: TrainConfig, recorder=None,
          keep_predictions: bool = False) -> TrainingTrajectory:
    """Full-batch GD for config.steps(d) steps, recording every step.

    The recorder (if given) is called with a dict per step:
    {step, train_mse, predictions, w_move_fro, v_move_l2}. Aborts with
    DivergenceError when the loss goes non-finite or exceeds 1e6x its
    initial value.
    """
    X, y = dataset.X, dataset.y
    if config.eta1 == 0.0 and config.eta2 == 0.0 and config.steps(net.d) > 0:
        raise ValueError("a training run needs a positive learning rate")
    T = config.steps(net.d)
    n = X.shape[0]
    net = net.copy()
    W0, v0 = net.W.copy(), net.v.copy()

    steps = np.arange(T + 1)
    train_mse = np.empty(T + 1)
    w_move = np.empty(T + 1)
    v_move = np.empty(T + 1)
    preds = np.empty((T + 1, n)) if keep_predictions else None

    initial_mse = None
    sqrt_m, sqrt_md = math.sqrt(net.m), math.sqrt(net.m * net.d)
    # Z and A depend on W only, so they are recomputed only when W moves.
    Z = preactivations(net, X)
    A = phi(net.act, Z)
    for t in range(T + 1):
        u = A @ net.v / sqrt_m
        mse = mean_squared_error(u, y)
        if initial_mse is None:
            initial_mse = mse
        check_divergence("training", t, {"net": mse}, initial_mse,
                         config.active_eta, T)
        train_mse[t] = mse
        w_move[t] = float(np.linalg.norm(net.W - W0))
        v_move[t] = float(np.linalg.norm(net.v - v0))
        if preds is not None:
            preds[t] = u
        if recorder is not None:
            recorder({"step": t, "train_mse": mse, "predictions": u,
                      "w_move_fro": w_move[t], "v_move_l2": v_move[t]})
        if t == T:
            break
        r = u - y
        # both gradients use the pre-step v and A; v moves first so that A
        # can be refreshed right after W moves
        v = net.v
        if config.eta2 != 0.0:
            net.v = v - (config.eta2 / (n * sqrt_m)) * (A.T @ r)
        if config.eta1 != 0.0:
            G = phi_prime(net.act, Z)
            G *= r[:, None]
            net.W = net.W - (config.eta1 / (n * sqrt_md)) * (v[:, None] * (G.T @ X))
            Z = preactivations(net, X)
            A = phi(net.act, Z)

    return TrainingTrajectory(steps=steps, train_mse=train_mse, w_move_fro=w_move,
                              v_move_l2=v_move, predictions=preds, final_net=net)


def save_trajectory(traj: TrainingTrajectory, csv_path, json_path=None,
                    config: dict | None = None, seed: int | None = None) -> None:
    """CSV schema: step,train_mse,w_move_fro,v_move_l2 (+ JSON config echo)."""
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write("step,train_mse,w_move_fro,v_move_l2\n")
        for t in range(len(traj.steps)):
            fh.write(f"{traj.steps[t]},{traj.train_mse[t]:.17g},"
                     f"{traj.w_move_fro[t]:.17g},{traj.v_move_l2[t]:.17g}\n")
    if json_path is not None:
        with open(json_path, "w", encoding="utf-8") as fh:
            json.dump({"config": config or {}, "seed": seed}, fh, indent=2)
            fh.write("\n")


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
