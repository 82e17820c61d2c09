"""Activation functions and their Gaussian moments.

Everything downstream (kernels, feature maps) is built from a handful of
expectations of an activation phi and its derivative phi' under standard
normal inputs, plus bivariate versions under correlated Gaussian pairs.
Smooth activations are integrated with Gauss-Hermite quadrature; the
piecewise-linear family (relu / leaky-relu / identity) has exact
half-Gaussian closed forms, which we use because the kink at zero halves
the effective quadrature order. The bivariate expectations of erf and of
the piecewise-linear family are closed forms too.
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

_PL_KINDS = ("relu", "identity", "leaky-relu")
KINDS = ("erf", "tanh", "sigmoid", "softplus") + _PL_KINDS  # smooth, then piecewise-linear

MAX_ORDER = 256

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
        if self.kind not in KINDS:
            raise ValueError(f"unknown activation kind {self.kind!r}")
        if self.kind == "leaky-relu" and not math.isfinite(self.slope):
            raise ValueError("leaky-relu slope must be finite")

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


@functools.cache
def gauss_hermite(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Probabilists' Gauss-Hermite rule (nodes, weights) for N(0,1), exact for
    polynomials of degree 2*order-1: sum(w)=1, sum(w x^2)=1. Built once per
    order and shared (read-only arrays)."""
    if not 1 <= order <= MAX_ORDER:
        raise ValueError(f"quadrature order must be in [1, {MAX_ORDER}], got {order}")
    x, w = np.polynomial.hermite.hermgauss(order)
    nodes, weights = x * math.sqrt(2.0), w / math.sqrt(math.pi)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


@dataclass(frozen=True)
class Moments:
    """Gaussian moments of an activation, g ~ N(0,1).

    zeta   = E[phi'(g)]
    theta1 = E[g phi'(g)]
    theta0 = E[phi(g)]
    theta2 = E[(g^3/2 - g) phi'(g)]
    gamma  = E[phi'(g)^2]
    """

    zeta: float
    theta1: float
    theta0: float
    theta2: float
    gamma: float
    quad_order: int


def default_order(act: Activation) -> int:
    """64 for erf, sigmoid and softplus. 128 for tanh, whose moments are 1e-7 off
    their order-256 values at order 64 and 1e-11 at 128, and for the kinked kinds."""
    return 64 if act.kind in ("erf", "sigmoid", "softplus") else 128


def moments(act: Activation, order: int | None = None) -> Moments:
    """Compute the scalar Gaussian moments of an activation.

    Smooth kinds use Gauss-Hermite quadrature at the given order.
    Piecewise-linear kinds are evaluated with the exact half-Gaussian
    closed forms, whatever the order (with negative-branch slope a):

        zeta = (1+a)/2,  theta0 = theta1 = (1-a)/sqrt(2 pi),
        theta2 = 0,      gamma = (1+a^2)/2.
    """
    if order is None:
        order = default_order(act)
    if not 1 <= order <= MAX_ORDER:
        raise ValueError(f"quadrature order must be in [1, {MAX_ORDER}], got {order}")
    if act.kind in _PL_KINDS:
        a = act.negative_slope
        return Moments(
            zeta=(1.0 + a) / 2.0,
            theta1=(1.0 - a) * _HALF_MOMENT,
            theta0=(1.0 - a) * _HALF_MOMENT,
            theta2=0.0,
            gamma=(1.0 + a * a) / 2.0,
            quad_order=order,
        )
    x, w = gauss_hermite(order)
    fp = phi_prime(act, x)
    return Moments(
        zeta=float(w @ fp),
        theta1=float(w @ (x * fp)),
        theta0=float(w @ phi(act, x)),
        theta2=float(w @ ((0.5 * x**3 - x) * fp)),
        gamma=float(w @ (fp * fp)),
        quad_order=order,
    )


def nu(mom: Moments, sigma: "CovarianceSpec", d: int) -> float:
    """The covariance-weighted slope constant E[g phi'(g)] sqrt(tr(Sigma^2)/d).
    Inputs have the identity covariance, tr(Sigma^2) = d, so it is theta1; the
    package reads `mom.theta1`, and this signature stays for the benchmark."""
    return mom.theta1


def bivariate_expectation(act: Activation, part: str, a, b, c,
                          order: int | None = None) -> np.ndarray:
    """E[f(z1) f(z2)] for (z1, z2) ~ N(0, [[a, c], [c, b]]), with f = phi or phi'
    of `act` (`part` "phi" or "phi_prime"), over broadcastable arrays of the
    variances a, b > 0 (>= 0 for erf) and the covariance c. A ValueError
    rejects any other variance and a |c| past sqrt(ab) by more than 1e-12
    relative; a |c| past it by rounding counts as |rho| = 1.

    erf: Williams' closed forms ("Computing with Infinite Networks", NIPS 1997),
        (2/pi) arcsin(2c / sqrt(P)) and (4/pi) / sqrt(P - 4c^2), P = (1+2a)(1+2b).
    relu, leaky-relu, identity: phi = alpha z + (1-alpha) relu(z) for the slope
        alpha below zero, and the arc-cosine kernels of Cho & Saul ("Kernel
        Methods for Deep Learning", NIPS 2009) at rho = c/sqrt(ab):
        E[phi phi] = alpha c + (1-alpha)^2 sqrt(ab) J1(rho) and
        E[phi' phi'] = alpha + (1-alpha)^2 J0(rho), with
        J0 = (pi - arccos rho)/(2 pi), J1 = (sqrt(1-rho^2) + rho (pi - arccos rho))/(2 pi).
    tanh, sigmoid, softplus: tensor-product Gauss-Hermite of the given order
        (default: `default_order`) in the Cholesky factor of each covariance,
        order^2 evaluations per element. `order` is unused by the closed forms.
    """
    if part not in ("phi", "phi_prime"):
        raise ValueError(f"part must be 'phi' or 'phi_prime', got {part!r}")
    prime = part == "phi_prime"
    a, b, c = (np.asarray(v, dtype=float) for v in (a, b, c))
    low, erf = min(a.min(), b.min()), act.kind == "erf"
    if low < 0.0 or (low == 0.0 and not erf):  # the others divide by sqrt(ab) or sqrt(a)
        raise ValueError(f"{act.kind} needs variances {'>= 0' if erf else '> 0'}, got {low}")
    bound = np.sqrt(a * b)
    if np.any(np.abs(c) > bound * (1.0 + 1e-12)):  # more than rounding
        raise ValueError("|c| exceeds sqrt(ab): not a covariance (Cauchy-Schwarz)")
    if erf:
        c = np.clip(c, -bound, bound)
        P = (1.0 + 2.0 * a) * (1.0 + 2.0 * b)
        if prime:
            return (4.0 / math.pi) / np.sqrt(P - 4.0 * c**2)
        return (2.0 / math.pi) * np.arcsin(2.0 * c / np.sqrt(P))
    if act.kind in _PL_KINDS:
        alpha = act.negative_slope
        rho = np.clip(c / bound, -1.0, 1.0)
        angle = np.pi - np.arccos(rho)
        if prime:
            return alpha + (1.0 - alpha) ** 2 * angle / (2.0 * math.pi)
        J1 = (np.sqrt(1.0 - rho * rho) + rho * angle) / (2.0 * math.pi)
        return alpha * c + (1.0 - alpha) ** 2 * bound * J1
    f = phi_prime if prime else phi
    g, w = gauss_hermite(default_order(act) if order is None else order)
    s1 = np.sqrt(a)[..., None, None]  # z1 = s1 g1, z2 = l21 g1 + l22 g2
    l21 = (c / np.sqrt(a))[..., None, None]
    l22 = np.sqrt(np.maximum(b - c * c / a, 0.0))[..., None, None]
    return (f(act, s1 * g[:, None]) * f(act, l21 * g[:, None] + l22 * g)) @ w @ w
