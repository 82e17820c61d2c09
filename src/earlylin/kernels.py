"""Tangent-kernel matrices, their quadrature-based expectations, linear-model
kernels, the infinite-width CNN kernel on the hypercube, and spectral tooling.

Builders need no symmetrizing pass: Gram products A A^T (one BLAS triangle,
mirrored), their elementwise products, q q^T and lookups on integer patch
mismatch counts are exactly symmetric. Spectral norms come from Lanczos.

The empirical tangent kernels of a mirrored net (`network.symmetric_init`,
whose second half of neurons repeats the first with v negated) are built from
its m/2 distinct neurons: every term of the sum over m appears twice, so half
the preactivations, phi' evaluations and Gram work give the same kernel up to
the order of the additions. The CNN kernel keeps the Hamming distances of the
patches at one offset as small integers, moves them to the next offset by the
two positions that leave and enter the window, and looks its table up at
them; row blocks of the n x n result run on every usable core, each element
summed in the same order whatever the block count. The erf expected kernels
are Williams' closed forms; the other kinds use quadrature per pair.

Both expected kernels integrate each pair (z_i, z_j) of the data-induced
preactivations under one covariance, [[C_ii, C_ij], [C_ij, C_jj]] with
C = X X^T/d: the marginals are the variances ||x_i||^2/d.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .activations import (
    Activation,
    Moments,
    bivariate_expectation,
    phi_part,
    phi_prime_part,
    run_in_blocks,
)
from .linmodel import norm_feature

EXPECTED_NTK_MAX_N = 1024
# Gauss-Hermite order of the per-pair quadrature of the non-erf expected kernels.
_EXPECTED_NTK_ORDER = 64


@dataclass(frozen=True)
class KernelMatrix:
    values: np.ndarray


@dataclass(frozen=True)
class DecayFit:
    slope: float
    intercept: float
    r_squared: float


def _distinct_neurons(net, signs: bool = True):
    """The first half of a mirrored net, else the net itself.

    A net is mirrored when m is even, W[:m/2] equals W[m/2:] exactly and, if
    `signs`, |v[:m/2]| equals |v[m/2:]|, as `symmetric_init` builds it. Its
    kernel (1/m) sum over m neurons then equals the half net's (1/h) sum over
    h = m/2. The check is by value: a trained or `random_init` net takes the
    general path.
    """
    h = net.m // 2
    if (net.m % 2 == 0 and np.array_equal(net.W[:h], net.W[h:])
            and (not signs or np.array_equal(np.abs(net.v[:h]), np.abs(net.v[h:])))):
        return replace(net, W=net.W[:h], v=net.v[:h])
    return net


def ntk_first_layer(net, X: np.ndarray) -> KernelMatrix:
    """(1/m) sum_r v_r^2 phi'(X w_r/sqrt(d)) phi'(X w_r/sqrt(d))^T  (.)  X X^T/d.

    A mirrored net is built from its h = m/2 distinct neurons, as
    (1/h) G_h G_h^T (.) X X^T/d: half the preactivations, phi' and Gram
    product, equal to the full sum up to the order of its additions.
    """
    from .network import preactivations
    from .activations import phi_prime

    net = _distinct_neurons(net)
    G = phi_prime(net.act, preactivations(net, X))
    G *= net.v
    K = G @ G.T
    del G
    K /= net.m
    C = X @ X.T
    C /= X.shape[1]
    K *= C
    return KernelMatrix(values=K)


def ntk_second_layer(net, X: np.ndarray) -> KernelMatrix:
    """(1/m) phi(X W^T/sqrt(d)) phi(X W^T/sqrt(d))^T, from the h = m/2
    distinct neurons when the halves of W are equal (v plays no part)."""
    from .network import jacobian_second_layer

    J2 = jacobian_second_layer(_distinct_neurons(net, signs=False), X)
    return KernelMatrix(values=J2 @ J2.T)


def ntk_full(net, X: np.ndarray) -> KernelMatrix:
    """First- plus second-layer tangent kernel."""
    K1 = ntk_first_layer(net, X)
    K2 = ntk_second_layer(net, X)
    return KernelMatrix(values=K1.values + K2.values)


def _pair_expectations(C: np.ndarray, f) -> np.ndarray:
    """E[f(z_i) f(z_j)] for every pair (z_i, z_j) ~ N(0, [[C_ii, C_ij], [C_ij, C_jj]]),
    each from one `bivariate_expectation` over the lower triangle, mirrored."""
    n = C.shape[0]
    if n > EXPECTED_NTK_MAX_N:
        raise ValueError(
            f"expected-kernel quadrature is O(n^2 order^2); n={n} exceeds the "
            f"cap {EXPECTED_NTK_MAX_N}"
        )
    a = np.diag(C)
    E = np.empty((n, n))
    for i in range(n):
        for j in range(i + 1):
            bound = math.sqrt(a[i] * a[j])
            c = min(max(C[i, j], -bound), bound)  # Cauchy-Schwarz can be violated by fp error
            E[i, j] = E[j, i] = bivariate_expectation(
                f, [[a[i], c], [c, a[j]]], order=_EXPECTED_NTK_ORDER)
    return E


def _erf_covariances(C: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For the pairs (z_i, z_j) ~ N(0, [[a, c], [c, b]]) of C = X X^T/d: c
    clipped to Cauchy-Schwarz (fp error can break it), and (1+2a)(1+2b)."""
    a = np.diag(C)
    bound = np.sqrt(np.outer(a, a))
    return np.clip(C, -bound, bound), np.outer(1.0 + 2.0 * a, 1.0 + 2.0 * a)


def expected_ntk_first(X: np.ndarray, act: Activation) -> KernelMatrix:
    """Infinite-width first-layer kernel: entries (x_i.x_j/d) E[phi'(z_i) phi'(z_j)]
    under the data-induced covariance with variances ||x_i||^2/d.

    For erf, Williams' closed form ("Computing with Infinite Networks", NIPS
    1997), C (4/pi) / sqrt((1+2a)(1+2b) - 4c^2), for every n; other kinds use
    order-64 quadrature per pair, for n up to EXPECTED_NTK_MAX_N.
    """
    d = X.shape[1]
    C = X @ X.T / d
    if act.kind == "erf":
        c, P = _erf_covariances(C)
        return KernelMatrix(values=C * (4.0 / math.pi) / np.sqrt(P - 4.0 * c**2))
    return KernelMatrix(values=C * _pair_expectations(C, phi_prime_part(act)))


def expected_ntk_second(X: np.ndarray, act: Activation) -> KernelMatrix:
    """Infinite-width second-layer kernel: entries E[phi(z_i) phi(z_j)] under the
    data-induced covariance with variances ||x_i||^2/d.

    For erf, Williams' closed form (2/pi) arcsin(2c / sqrt((1+2a)(1+2b))), for
    every n; other kinds use order-64 quadrature per pair, for n up to
    EXPECTED_NTK_MAX_N.
    """
    d = X.shape[1]
    C = X @ X.T / d
    if act.kind == "erf":
        c, P = _erf_covariances(C)
        return KernelMatrix(values=(2.0 / math.pi) * np.arcsin(2.0 * c / np.sqrt(P)))
    return KernelMatrix(values=_pair_expectations(C, phi_part(act)))


def linear_kernel(X: np.ndarray, mom: Moments, nu_value: float, which: str) -> KernelMatrix:
    """Kernels of the explicit linear feature maps.

    lin1     : (zeta^2 X X^T + nu^2 1 1^T) / d
    lin2     : (zeta^2 X X^T + nu^2/2 1 1^T) / d + q q^T
    lin-full : (2 zeta^2 X X^T + 3/2 nu^2 1 1^T) / d + q q^T

    with q the norm feature of `linmodel.features`.
    """
    d = X.shape[1]
    G = X @ X.T
    z2, n2 = mom.zeta**2, nu_value**2
    if which == "lin1":
        K = (z2 * G + n2) / d
    elif which in ("lin2", "lin-full"):
        q = norm_feature(mom, X)
        if which == "lin2":
            K = (z2 * G + 0.5 * n2) / d + np.outer(q, q)
        else:
            K = (2.0 * z2 * G + 1.5 * n2) / d + np.outer(q, q)
    else:
        raise ValueError(f"which must be lin1, lin2 or lin-full, got {which!r}")
    return KernelMatrix(values=K)


def cnn_infinite_ntk(X: np.ndarray, q_filter: int, act: Activation,
                     order: int | None = None) -> KernelMatrix:
    """Infinite-width CNN kernel on hypercube inputs.

    Entry (i, j) is (1/d) sum_k [ P(rho_ijk) + Q(rho_ijk) rho_ijk ] over the d
    circular patch correlations rho_ijk = <x_i[k:k+q], x_j[k:k+q]>/q, with
    P(rho) = E[phi(z1)phi(z2)] and Q(rho) = E[phi'(z1)phi'(z2)] at unit
    marginals. Hypercube patches make rho take only q+1 values, so the summand
    P(rho) + Q(rho) rho is tabulated once and looked up per patch offset, at
    the Hamming distance (q - q rho)/2 of the two patches.
    """
    n, d = X.shape
    if not np.all(np.abs(X) == 1.0):
        raise ValueError("infinite-width CNN kernel requires inputs with entries exactly +-1")
    if q_filter > d:
        raise ValueError(f"filter size q={q_filter} exceeds input dimension d={d}")
    rho_values = (q_filter - 2.0 * np.arange(q_filter + 1)) / q_filter  # 1, 1-2/q, ..., -1
    f, fp = phi_part(act), phi_prime_part(act)
    P_tab = np.array([
        bivariate_expectation(f, [[1.0, r], [r, 1.0]], order=order) for r in rho_values
    ])
    Q_tab = np.array([
        bivariate_expectation(fp, [[1.0, r], [r, 1.0]], order=order) for r in rho_values
    ])
    summand = P_tab + Q_tab * rho_values

    # H holds the patch Hamming distances at offset k and moves to offset k+1
    # by the positions leaving and entering the window: exact small integers.
    b = np.ascontiguousarray((X < 0).T, dtype=np.uint8)  # b[k]: the -1s of column k
    acc = np.zeros((n, n))
    H = np.zeros((n, n), dtype=np.min_scalar_type(q_filter))
    mismatch = np.empty((n, n), dtype=np.uint8)
    idx = np.empty((n, n), dtype=np.intp)  # else np.take makes one per call, in each thread
    looked_up = np.empty((n, n))

    def rows(lo, hi):
        H_, idx_, acc_, looked_up_ = H[lo:hi], idx[lo:hi], acc[lo:hi], looked_up[lo:hi]

        def mismatches(k):  # 1 where rows lo..hi differ from each row at position k
            return np.bitwise_xor(b[k, lo:hi, None], b[k], out=mismatch[lo:hi])

        for k in range(q_filter):
            H_ += mismatches(k)
        for k in range(d):
            # indices are in [0, q] by construction: "clip" only skips the bounds check
            idx_[...] = H_
            np.take(summand, idx_, out=looked_up_, mode="clip")
            acc_ += looked_up_
            if k + 1 < d:
                H_ -= mismatches(k)
                H_ += mismatches((k + q_filter) % d)
        acc_ /= d

    run_in_blocks(rows, n, n * n)
    return KernelMatrix(values=acc)


def spectral_norm(A: np.ndarray) -> float:
    """max |lambda_i| of a symmetric, possibly indefinite, matrix.

    Lanczos (ARPACK's `eigsh`) for the eigenvalue of largest magnitude, to
    machine precision, from a fixed seeded start vector: one matrix gives one
    float on every call, and top eigenvalues of nearly equal magnitude (common
    in a difference of kernels) do not slow it. Dense `eigvalsh` covers what
    ARPACK cannot run: n < 3 and the all-zero matrix.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"matrix must be square, got shape {A.shape}")
    n = A.shape[0]
    if n < 3 or not A.any():
        return float(np.abs(np.linalg.eigvalsh(A)).max(initial=0.0))
    from scipy.sparse.linalg import eigsh  # imported on first use: it is slow to load

    v0 = np.random.default_rng(0).standard_normal(n)
    lam = eigsh(A, k=1, which="LM", v0=v0, return_eigenvectors=False)
    return float(abs(lam[0]))


def frobenius_norm(A: np.ndarray) -> float:
    return float(np.linalg.norm(np.asarray(A, dtype=float), "fro"))


def decay_fit(ds, norms) -> DecayFit:
    """OLS fit of log(norm) against log(d); needs >= 3 strictly positive points."""
    ds = np.asarray(ds, dtype=float)
    norms = np.asarray(norms, dtype=float)
    if ds.size < 3:
        raise ValueError("decay fit needs at least 3 points")
    if np.any(norms <= 0):
        raise ValueError("decay fit needs strictly positive norms (degenerate fit)")
    if np.any(ds <= 0):
        raise ValueError("dimensions must be positive")
    lx, ly = np.log(ds), np.log(norms)
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    if ss_tot == 0.0:
        r2 = 1.0  # constant norms: the flat fit is exact
    else:
        r2 = 1.0 - float(np.sum(resid**2)) / ss_tot
    return DecayFit(slope=float(slope), intercept=float(intercept),
                    r_squared=min(max(r2, 0.0), 1.0))
