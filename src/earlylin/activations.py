"""Activation functions and their Gaussian moments.

Everything downstream (kernels, feature maps) is built from a handful of
expectations of an activation phi and its derivative phi' under standard
normal inputs, plus bivariate versions under correlated Gaussian pairs.
Smooth activations are integrated with Gauss-Hermite quadrature; the
piecewise-linear family (relu / leaky-relu / identity) has exact
half-Gaussian closed forms, which we use because the kink at zero halves
the effective quadrature order.
"""

from __future__ import annotations

import functools
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np
from scipy import special

if TYPE_CHECKING:  # pragma: no cover
    from .datagen import CovarianceSpec

SMOOTH = "smooth"
PIECEWISE_LINEAR = "piecewise-linear"

_SMOOTH_KINDS = ("erf", "tanh", "sigmoid", "softplus")
_PL_KINDS = ("relu", "leaky-relu", "identity")

DEFAULT_ORDER_SMOOTH = 64
DEFAULT_ORDER_PIECEWISE = 128
MAX_ORDER = 256
# The kink halves the effective quadrature order of a piecewise-linear kind.
PIECEWISE_MIN_ORDER = 64

# E[g * 1{g>0}] for g ~ N(0,1); the basic half-Gaussian moment.
_HALF_MOMENT = 1.0 / math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class Activation:
    """An activation function phi, identified by kind (plus slope for leaky-relu).

    For the piecewise-linear kinds we set phi'(0) = 1 (the convention used
    throughout the gradient and kernel formulas); `identity` is leaky-relu
    with slope 1 and therefore kink-free.
    """

    kind: str
    slope: float = 0.0

    def __post_init__(self):
        if self.kind not in _SMOOTH_KINDS + _PL_KINDS:
            raise ValueError(f"unknown activation kind {self.kind!r}")
        if self.kind == "leaky-relu" and not math.isfinite(self.slope):
            raise ValueError("leaky-relu slope must be finite")

    @property
    def smoothness(self) -> str:
        return SMOOTH if self.kind in _SMOOTH_KINDS else PIECEWISE_LINEAR

    @property
    def negative_slope(self) -> float:
        """Slope of the z<0 branch for piecewise-linear kinds."""
        if self.kind == "relu":
            return 0.0
        if self.kind == "identity":
            return 1.0
        return self.slope


ERF = Activation("erf")
TANH = Activation("tanh")
SIGMOID = Activation("sigmoid")
SOFTPLUS = Activation("softplus")
RELU = Activation("relu")
IDENTITY = Activation("identity")


def leaky_relu(slope: float) -> Activation:
    return Activation("leaky-relu", slope=slope)


# Elementwise "into" kernels, (z, out) -> None: each writes phi or phi' of z
# into out, an array of z's shape, with the ufuncs the values are defined by.
# A block of z gives the same values as the whole array, element for element.

def _erf_into(z, out):
    special.erf(z, out=out)


def _erf_prime_into(z, out):  # (2/sqrt(pi)) exp(-z^2)
    np.square(z, out=out)
    np.negative(out, out=out)
    np.exp(out, out=out)
    out *= 2.0 / math.sqrt(math.pi)


def _tanh_into(z, out):
    np.tanh(z, out=out)


def _tanh_prime_into(z, out):  # 1 - tanh(z)^2
    np.tanh(z, out=out)
    np.multiply(out, out, out=out)
    np.subtract(1.0, out, out=out)


def _sigmoid_into(z, out):
    special.expit(z, out=out)


def _sigmoid_prime_into(z, out):  # s (1 - s)
    special.expit(z, out=out)
    out *= 1.0 - out


def _softplus_into(z, out):
    np.logaddexp(0.0, z, out=out)


def _piecewise_linear_into(a: float):
    def into(z, out):  # z for z >= 0, a z otherwise
        np.multiply(a, z, out=out)
        np.copyto(out, z, where=z >= 0.0)
    return into


def _piecewise_linear_prime_into(a: float):
    def into(z, out):  # 1 for z >= 0, a otherwise
        out.fill(a)
        np.copyto(out, 1.0, where=z >= 0.0)
    return into


_PHI_INTO = {"erf": _erf_into, "tanh": _tanh_into, "sigmoid": _sigmoid_into,
             "softplus": _softplus_into}
_PHI_PRIME_INTO = {"erf": _erf_prime_into, "tanh": _tanh_prime_into,
                   "sigmoid": _sigmoid_prime_into, "softplus": _sigmoid_into}

# Inputs with fewer elements run serially: handing blocks to threads costs
# about 0.1 ms. On 2 cores, 2^18 elements is the smallest power of two at
# which every kernel gains (erf' is the last: 1.13x the serial time at 2^17,
# 0.66x at 2^18; erf gains from 2^15 on, 0.51x at 2^18).
PARALLEL_MIN_SIZE = 1 << 18

_pool_lock = threading.Lock()
_pool: ThreadPoolExecutor | None = None
_pool_size = 0


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without sched_getaffinity
        return os.cpu_count() or 1


def _executor() -> tuple[ThreadPoolExecutor | None, int]:
    """The shared pool and its size, created on first use; no pool on one core."""
    global _pool, _pool_size
    with _pool_lock:
        if _pool_size == 0:
            _pool_size = _usable_cores()
            if _pool_size > 1:
                _pool = ThreadPoolExecutor(max_workers=_pool_size - 1,
                                           thread_name_prefix="earlylin-phi")
        return _pool, _pool_size


def _forget_pool_after_fork() -> None:
    # The parent's worker threads do not exist in a forked child, and its lock
    # may have been held at the fork: start afresh.
    global _pool_lock, _pool, _pool_size
    _pool_lock, _pool, _pool_size = threading.Lock(), None, 0


os.register_at_fork(after_in_child=_forget_pool_after_fork)


def _run_block(work, lo: int, hi: int, errstate: dict, errcall) -> None:
    # numpy's error state is per thread: a worker starts from the defaults.
    with np.errstate(call=errcall, **errstate):
        work(lo, hi)


def run_in_blocks(work: Callable[[int, int], None], length: int, size: int) -> None:
    """work(lo, hi) over contiguous ranges [lo, hi) that cover range(length).

    Work of at least PARALLEL_MIN_SIZE elements (`size`) is cut into one range
    per usable core: the caller runs the first and the pool's threads the
    others (ufuncs release the GIL), each under the caller's numpy error
    state. Smaller work is one call in the caller. Returns once every range
    is done, re-raising a worker's exception. `work` writes only its own
    range of buffers the caller allocated, so where it computes each element
    the same way in any range, the result does not depend on the block count.
    """
    pool, cores = _executor() if size >= PARALLEL_MIN_SIZE else (None, 1)
    if pool is None:
        work(0, length)
        return
    cuts = [i * length // cores for i in range(cores + 1)]
    errstate, errcall = np.geterr(), np.geterrcall()
    futures = [pool.submit(_run_block, work, lo, hi, errstate, errcall)
               for lo, hi in zip(cuts[1:-1], cuts[2:])]
    try:
        work(0, cuts[1])
    finally:
        wait(futures)  # no worker may still write into the buffers once we return
    for future in futures:
        future.result()  # re-raises a worker's exception


def _evaluate(into, z) -> np.ndarray:
    """`into` over z into a fresh array of z's shape and memory layout.

    A contiguous input is evaluated in blocks of its memory by
    `run_in_blocks`, each block writing its slice of the one result. Every
    element goes through the same ufuncs either way, so the result does not
    depend on the block count.
    """
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    if not (z.flags.c_contiguous or z.flags.f_contiguous):
        into(z, out)
        return out
    # z and out share one memory order, so these views list the same elements
    flat_z, flat_out = np.ravel(z, order="K"), np.ravel(out, order="K")
    run_in_blocks(lambda lo, hi: into(flat_z[lo:hi], flat_out[lo:hi]), z.size, z.size)
    return out


def phi(act: Activation, z):
    """Evaluate the activation elementwise."""
    into = _PHI_INTO.get(act.kind) or _piecewise_linear_into(act.negative_slope)
    return _evaluate(into, z)


def phi_prime(act: Activation, z):
    """Evaluate phi' elementwise; phi'(0) = 1 for the piecewise-linear kinds."""
    into = (_PHI_PRIME_INTO.get(act.kind)
            or _piecewise_linear_prime_into(act.negative_slope))
    return _evaluate(into, z)


@dataclass(frozen=True)
class Quadrature:
    """Gauss-Hermite rule normalized for N(0,1): sum(w)=1, sum(w x^2)=1."""

    nodes: np.ndarray
    weights: np.ndarray
    order: int


@functools.cache
def gauss_hermite(order: int) -> Quadrature:
    """Probabilists' Gauss-Hermite rule, exact for polynomials of degree 2*order-1.
    Built once per order and shared (frozen, read-only arrays)."""
    if not 1 <= order <= MAX_ORDER:
        raise ValueError(f"quadrature order must be in [1, {MAX_ORDER}], got {order}")
    x, w = np.polynomial.hermite.hermgauss(order)
    q = Quadrature(nodes=x * math.sqrt(2.0), weights=w / math.sqrt(math.pi), order=order)
    q.nodes.setflags(write=False)
    q.weights.setflags(write=False)
    return q


@dataclass(frozen=True)
class Moments:
    """Gaussian moments of an activation, g ~ N(0,1).

    zeta        = E[phi'(g)]
    g_phi_prime = E[g phi'(g)]     (theta1 is the same quantity, stored once)
    theta0      = E[phi(g)]
    theta2      = E[(g^3/2 - g) phi'(g)]
    gamma       = E[phi'(g)^2]
    """

    zeta: float
    g_phi_prime: float
    theta0: float
    theta2: float
    gamma: float
    quad_order: int

    @property
    def theta1(self) -> float:
        return self.g_phi_prime


def default_order(act: Activation) -> int:
    return DEFAULT_ORDER_SMOOTH if act.smoothness == SMOOTH else DEFAULT_ORDER_PIECEWISE


def moments(act: Activation, order: int | None = None) -> Moments:
    """Compute the scalar Gaussian moments of an activation.

    Smooth kinds use Gauss-Hermite quadrature at the given order.
    Piecewise-linear kinds are evaluated with the exact half-Gaussian
    closed forms (with negative-branch slope a):

        zeta = (1+a)/2,  theta0 = theta1 = (1-a)/sqrt(2 pi),
        theta2 = 0,      gamma = (1+a^2)/2.
    """
    if order is None:
        order = default_order(act)
    if not 1 <= order <= MAX_ORDER:
        raise ValueError(f"quadrature order must be in [1, {MAX_ORDER}], got {order}")
    if act.smoothness == PIECEWISE_LINEAR:
        if order < PIECEWISE_MIN_ORDER:
            raise ValueError(
                f"piecewise-linear activations require order >= {PIECEWISE_MIN_ORDER} "
                f"(got {order}); the kink halves the quadrature order"
            )
        a = act.negative_slope
        return Moments(
            zeta=(1.0 + a) / 2.0,
            g_phi_prime=(1.0 - a) * _HALF_MOMENT,
            theta0=(1.0 - a) * _HALF_MOMENT,
            theta2=0.0,
            gamma=(1.0 + a * a) / 2.0,
            quad_order=order,
        )
    q = gauss_hermite(order)
    x, w = q.nodes, q.weights
    fp = phi_prime(act, x)
    return Moments(
        zeta=float(w @ fp),
        g_phi_prime=float(w @ (x * fp)),
        theta0=float(w @ phi(act, x)),
        theta2=float(w @ ((0.5 * x**3 - x) * fp)),
        gamma=float(w @ (fp * fp)),
        quad_order=order,
    )


def nu(mom: Moments, sigma: "CovarianceSpec", d: int) -> float:
    """The covariance-weighted slope constant: E[g phi'(g)] * sqrt(tr(Sigma^2)/d)."""
    spec = np.asarray(sigma.spectrum(), dtype=float)
    return mom.g_phi_prime * math.sqrt(float(np.sum(spec * spec)) / d)


@dataclass(frozen=True)
class ActivationPart:
    """One factor of a bivariate expectation: phi or phi' of a given activation."""

    act: Activation
    part: str  # "phi" or "phi_prime"

    def __post_init__(self):
        if self.part not in ("phi", "phi_prime"):
            raise ValueError(f"part must be 'phi' or 'phi_prime', got {self.part!r}")

    def __call__(self, z):
        return phi(self.act, z) if self.part == "phi" else phi_prime(self.act, z)

    def at_zero(self) -> float:
        """Value of the factor at z = 0 (phi'(0)=1 for piecewise-linear kinds)."""
        return float(self(np.asarray(0.0)))


def phi_part(act: Activation) -> ActivationPart:
    return ActivationPart(act, "phi")


def phi_prime_part(act: Activation) -> ActivationPart:
    return ActivationPart(act, "phi_prime")


def _check_covariance(lam) -> tuple[float, float, float]:
    lam = np.asarray(lam, dtype=float)
    if lam.shape != (2, 2):
        raise ValueError(f"covariance must be 2x2, got shape {lam.shape}")
    a, b = float(lam[0, 0]), float(lam[1, 1])
    c = float(lam[0, 1])
    if abs(lam[0, 1] - lam[1, 0]) > 1e-12 * max(1.0, abs(c)):
        raise ValueError("covariance must be symmetric")
    if a < 0 or b < 0:
        raise ValueError("covariance has negative diagonal")
    bound = math.sqrt(a * b)
    if abs(c) > bound * (1.0 + 1e-8) + 1e-300:
        raise ValueError(f"covariance not PSD: |c|={abs(c)} exceeds sqrt(ab)={bound}")
    c = min(max(c, -bound), bound)  # clip fp overshoot within the tolerance
    return a, b, c


# E[B_i(u) B_j(v)] for standard bivariate normal (u, v) with correlation rho,
# over the basis B = (1, z, relu(z), step(z)). Piecewise-linear phi and phi'
# are linear combinations of this basis, so their products reduce to this table.
def _pl_basis_table(rho: float) -> np.ndarray:
    rho = min(max(rho, -1.0), 1.0)
    k = _HALF_MOMENT
    step_step = (math.pi - math.acos(rho)) / (2.0 * math.pi)
    relu_relu = (math.sqrt(max(1.0 - rho * rho, 0.0))
                 + rho * (math.pi - math.acos(rho))) / (2.0 * math.pi)
    relu_step = k * (1.0 + rho) / 2.0
    return np.array([
        [1.0,      0.0,       k,          0.5],
        [0.0,      rho,       rho / 2.0,  rho * k],
        [k,        rho / 2.0, relu_relu,  relu_step],
        [0.5,      rho * k,   relu_step,  step_step],
    ])


def _pl_coefficients(f: ActivationPart, std: float) -> np.ndarray:
    """Coefficients of f(std * u) over the basis (1, u, relu(u), step(u)), std > 0."""
    a = f.act.negative_slope
    if f.part == "phi":
        return np.array([0.0, a * std, (1.0 - a) * std, 0.0])
    return np.array([a, 0.0, 0.0, 1.0 - a])


def bivariate_expectation(f: ActivationPart, lam, order: int | None = None) -> float:
    """E[f(z1) f(z2)] for (z1, z2) ~ N(0, lam), lam a 2x2 covariance.

    Four evaluation paths:
    a zero variance      -> f(0) times a univariate Gauss-Hermite integral;
    pw-linear f          -> exact closed form (half-Gaussian basis table);
    smooth f, rank-1 lam -> univariate integral along the one direction
                            (|c| = sqrt(ab) up to 1e-12 in the correlation);
    smooth f, otherwise  -> tensor-product Gauss-Hermite after Cholesky.
    """
    a, b, c = _check_covariance(lam)
    s1, s2 = math.sqrt(a), math.sqrt(b)

    if order is None:
        order = default_order(f.act)
    if not 1 <= order <= MAX_ORDER:
        raise ValueError(f"quadrature order must be in [1, {MAX_ORDER}], got {order}")

    # A constant factor (zero marginal variance) reduces to a univariate integral.
    if s1 == 0.0 or s2 == 0.0:
        at_zero = f.at_zero()
        if s1 == 0.0 and s2 == 0.0:
            return at_zero * at_zero
        q = gauss_hermite(order)
        return at_zero * float(q.weights @ f(max(s1, s2) * q.nodes))

    rho = c / (s1 * s2)
    if f.act.smoothness == PIECEWISE_LINEAR:
        return float(_pl_coefficients(f, s1) @ _pl_basis_table(rho)
                     @ _pl_coefficients(f, s2))

    # Rank-1 case: z2 is a deterministic multiple of z1.
    if abs(rho) >= 1.0 - 1e-12:
        sign = 1.0 if rho > 0 else -1.0
        q = gauss_hermite(order)
        g = q.nodes
        return float(q.weights @ (f(s1 * g) * f(sign * s2 * g)))

    # Smooth: z1 = l11 g1, z2 = l21 g1 + l22 g2 (Cholesky of lam).
    l11 = s1
    l21 = c / s1
    l22 = math.sqrt(max(b - l21 * l21, 0.0))
    q = gauss_hermite(order)
    g, w = q.nodes, q.weights
    v1 = f(l11 * g)  # depends on g1 only
    z2 = l21 * g[:, None] + l22 * g[None, :]
    return float((w * v1) @ f(z2) @ w)
