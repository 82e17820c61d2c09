"""Two-layer fully-connected network, 1-D circular CNN, and the lockstep GD driver.

The fully-connected model is f(x; W, v) = (1/sqrt(m)) v . phi(W x / sqrt(d))
with W of shape (m, d) and v of +-1 entries at init. Symmetric initialization
mirrors the first half of the neurons with negated output signs so the
initial function is identically zero without changing the tangent kernel
(`mirrored_half` tests for that layout). The first-layer Jacobian (n x m*d
entries) is never formed. The second-layer one is: with the first layer
frozen the net is a linear model on it, and `harness` trains it as one.

The n x m stages of the net's forward pass and GD step (`Forward`,
`NetTrainable`) run in row chunks on the phi pool, the product XW^T included.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .activations import (PARALLEL_MIN_SIZE, Activation, phi, phi_prime, phi_into,
                          phi_prime_into, run_in_blocks)

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


def mirrored_half(net: TwoLayerNet, signs: bool = True) -> TwoLayerNet | None:
    """The first m/2 neurons of a net laid out exactly as `symmetric_init` builds
    it, W[m/2:] = W[:m/2] and (if `signs`) v[m/2:] = -v[:m/2]; else None."""
    h = net.m // 2
    if (net.m % 2 == 0 and np.array_equal(net.W[:h], net.W[h:])
            and (not signs or np.array_equal(net.v[h:], -net.v[:h]))):
        return TwoLayerNet(W=net.W[:h], v=net.v[:h], act=net.act)
    return None


def random_init(m: int, d: int, act: Activation, seed: int) -> TwoLayerNet:
    """Plain iid init (W ~ N(0,1), v ~ Unif{+-1}); used for teacher networks."""
    rng = np.random.default_rng((seed, _RANDOM_DOMAIN))
    return TwoLayerNet(
        W=rng.standard_normal((m, d)),
        v=2.0 * rng.integers(0, 2, size=m) - 1.0,
        act=act,
    )


def _check_inputs(net: TwoLayerNet, X: np.ndarray) -> None:
    if X.ndim != 2 or X.shape[1] != net.d:
        raise ValueError(f"X has shape {X.shape}, expected (n, {net.d})")


def preactivations(net: TwoLayerNet, X: np.ndarray) -> np.ndarray:
    """X W^T / sqrt(d), shape (n, m)."""
    _check_inputs(net, X)
    Z = X @ net.W.T
    Z /= math.sqrt(net.d)
    return Z


# The rows of an n x m stage of at least PARALLEL_MIN_SIZE elements are cut
# into at most 32 chunks that start at multiples of 24 rows and depend on n
# alone, and `run_in_blocks` hands each core a run of whole chunks. Each chunk
# is one BLAS call whatever the core count, so the result does not depend on
# it. OpenBLAS 0.3.31 gives such a chunk of XW^T the bits of those rows of the
# whole product (checked over 915 shapes that reach the pool); a chunk that
# starts elsewhere can differ in the last bit, at m = 300 for one.
_ROW_UNIT, _ROW_CHUNKS = 24, 32


def _row_chunks(n: int, size: int) -> list[tuple[int, int]]:
    """[lo, hi) ranges covering range(n) for a stage of `size` elements; one
    range below PARALLEL_MIN_SIZE, where the stage runs serially."""
    if size < PARALLEL_MIN_SIZE:
        return [(0, n)]
    step = _ROW_UNIT * -(-n // (_ROW_UNIT * _ROW_CHUNKS))
    return [(lo, min(lo + step, n)) for lo in range(0, n, step)]


def _run_chunks(work, chunks: list[tuple[int, int]], size: int) -> None:
    """work(lo, hi) for every chunk, runs of whole chunks on the phi pool."""
    def block(first: int, last: int) -> None:
        for lo, hi in chunks[first:last]:
            work(lo, hi)
    run_in_blocks(block, len(chunks), size)


class Forward:
    """The forward pass of nets shaped like `net` on fixed rows X, into
    (n, m) buffers allocated once: Z = X W^T / sqrt(d) and A = phi(Z).

    A call runs one row chunk at a time per core: its product, its scaling
    and its phi run in one thread while the chunk is in cache.
    """

    def __init__(self, net: TwoLayerNet, X: np.ndarray):
        _check_inputs(net, X)
        self.X = X
        self.Z = np.empty((X.shape[0], net.m))
        self.A = np.empty_like(self.Z)
        self.chunks = _row_chunks(X.shape[0], self.Z.size)

    def __call__(self, net: TwoLayerNet) -> np.ndarray:
        """Fill Z and A for `net` and return its outputs A v / sqrt(m)."""
        X, Z, A, W_T = self.X, self.Z, self.A, net.W.T
        root_d, into = math.sqrt(net.d), phi_into(net.act)

        def chunk(lo: int, hi: int) -> None:
            z = Z[lo:hi]
            np.matmul(X[lo:hi], W_T, out=z)
            z /= root_d
            into(z, A[lo:hi])

        _run_chunks(chunk, self.chunks, Z.size)
        return A @ net.v / math.sqrt(net.m)


def forward(net: TwoLayerNet, X: np.ndarray) -> np.ndarray:
    """u_i = (1/sqrt(m)) v . phi(W x_i / sqrt(d))."""
    return Forward(net, X)(net)


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
    eta1 > 0 and on v at rate eta2 >= 0 (0 freezes v). With W frozen the net
    is a linear model on its second-layer Jacobian: `harness` trains it so.

    The elementwise n x m stages run in row chunks on the phi pool, into
    buffers allocated once: the forward pass (`Forward`) right after W moves,
    and the residual G = phi'(Z) r, each chunk scaled by r while it is in
    cache. The contraction (X^T G)^T stays one BLAS call: cut by neurons it
    ran slower on 2 cores and changed the last bits at m = 300. v moves
    before W, and the W gradient uses the pre-step v.
    """

    def __init__(self, net: TwoLayerNet, X: np.ndarray, eta1: float, eta2: float):
        if eta1 <= 0 or eta2 < 0:
            raise ValueError("the net model needs a positive first-layer learning rate "
                             f"and no negative one, got eta1={eta1}, eta2={eta2}")
        self.net = net.copy()
        self.X, self.eta1, self.eta2 = X, eta1, eta2
        self._sqrt_m = math.sqrt(net.m)
        self._sqrt_md = math.sqrt(net.m * net.d)
        self._forward = Forward(net, X)
        self._G = np.empty_like(self._forward.Z)
        self._u = self._forward(self.net)

    def outputs(self) -> np.ndarray:
        return self._u

    def step(self, r: np.ndarray) -> None:
        net, X, v = self.net, self.X, self.net.v
        Z, A, G = self._forward.Z, self._forward.A, self._G
        n = X.shape[0]
        if self.eta2 != 0.0:
            net.v = v - (self.eta2 / (n * self._sqrt_m)) * (A.T @ r)
        prime = phi_prime_into(net.act)

        def residual(lo: int, hi: int) -> None:
            g = G[lo:hi]
            prime(Z[lo:hi], g)
            g *= r[lo:hi, None]

        _run_chunks(residual, self._forward.chunks, G.size)
        # (X^T G)^T: G^T X in the operand order BLAS runs faster; at some
        # shapes it differs from G.T @ X in the last bit
        net.W = net.W - (self.eta1 / (n * self._sqrt_md)) * (v[:, None] * (X.T @ G).T)
        self._u = self._forward(net)


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
            # an overflow shows as the next step's non-finite MSE, no numpy warning
            with np.errstate(over="ignore", invalid="ignore"):
                for name, model in models.items():
                    model.step(outputs[name] - y)
    return rows


# ---------------------------------------------------------------------------
# 1-D CNN with circular padding


def cnn_init(m: int, q: int, d: int, act: Activation, seed: int) -> Cnn1D:
    """Filters and second layer iid N(0, 1)."""
    rng = np.random.default_rng((seed, _CNN_DOMAIN))
    return Cnn1D(W=rng.standard_normal((m, q)), V=rng.standard_normal((m, d)), act=act)


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
