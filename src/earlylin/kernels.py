"""Tangent-kernel matrices, their quadrature-based expectations, linear-model
kernels, the infinite-width CNN kernel on the hypercube, and spectral tooling.

Builders need no symmetrizing pass: Gram products A A^T (one BLAS triangle,
mirrored), their elementwise products, q q^T and lookups on integer patch
Grams are exactly symmetric. Spectral norms come from Lanczos.

Two bivariate-Gaussian conventions coexist deliberately: the first-layer
expected kernel parameterizes the 2x2 covariance by marginal *variances*
(entries [[a, c], [c, b]]), while the second-layer one parameterizes it by
marginal *standard deviations* (entries [[a^2, c], [c, b^2]]). Both are
implemented exactly as defined; the only place the distinction matters is
the two `expected_ntk_*` builders below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .activations import (
    Activation,
    Moments,
    bivariate_expectation,
    phi_part,
    phi_prime_part,
)
from .linmodel import norm_feature

PROVENANCES = (
    "ntk1", "ntk2", "ntk-full",
    "expected-ntk1", "expected-ntk2",
    "lin1", "lin2", "lin-full",
    "cnn-inf",
)

EXPECTED_NTK_MAX_N = 1024


@dataclass(frozen=True)
class KernelMatrix:
    values: np.ndarray
    provenance: str

    def __post_init__(self):
        if self.provenance not in PROVENANCES:
            raise ValueError(f"unknown kernel provenance {self.provenance!r}")

    @property
    def n(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class DecayFit:
    slope: float
    intercept: float
    r_squared: float


def ntk_first_layer(net, X: np.ndarray) -> KernelMatrix:
    """(1/m) sum_r v_r^2 phi'(X w_r/sqrt(d)) phi'(X w_r/sqrt(d))^T  (.)  X X^T/d."""
    from .network import preactivations
    from .activations import phi_prime

    G = phi_prime(net.act, preactivations(net, X))
    G *= net.v
    K = ((G @ G.T) / net.m) * (X @ X.T / X.shape[1])
    return KernelMatrix(values=K, provenance="ntk1")


def ntk_second_layer(net, X: np.ndarray) -> KernelMatrix:
    """(1/m) phi(X W^T/sqrt(d)) phi(X W^T/sqrt(d))^T."""
    from .network import jacobian_second_layer

    J2 = jacobian_second_layer(net, X)
    return KernelMatrix(values=J2 @ J2.T, provenance="ntk2")


def ntk_full(net, X: np.ndarray) -> KernelMatrix:
    """First- plus second-layer tangent kernel."""
    K1 = ntk_first_layer(net, X)
    K2 = ntk_second_layer(net, X)
    return KernelMatrix(values=K1.values + K2.values, provenance="ntk-full")


def _expected_ntk_entries(X: np.ndarray, entry_fn) -> np.ndarray:
    n = X.shape[0]
    if n > EXPECTED_NTK_MAX_N:
        raise ValueError(
            f"expected-kernel quadrature is O(n^2 order^2); n={n} exceeds the "
            f"cap {EXPECTED_NTK_MAX_N}"
        )
    K = np.empty((n, n))
    for i in range(n):
        for j in range(i + 1):
            K[i, j] = K[j, i] = entry_fn(i, j)
    return K


def expected_ntk_first(X: np.ndarray, act: Activation, order: int = 64) -> KernelMatrix:
    """Infinite-width first-layer kernel: entries (x_i.x_j/d) E[phi'(z_i) phi'(z_j)]
    under the data-induced covariance with variances ||x_i||^2/d."""
    if order < 32:
        raise ValueError("expected-kernel quadrature needs order >= 32")
    d = X.shape[1]
    C = X @ X.T / d
    a = np.diag(C).copy()
    fp = phi_prime_part(act)

    def entry(i, j):
        c = C[i, j]
        bound = math.sqrt(a[i] * a[j])
        c = min(max(c, -bound), bound)  # Cauchy-Schwarz can be violated by fp error
        lam = np.array([[a[i], c], [c, a[j]]])
        return C[i, j] * bivariate_expectation(fp, fp, lam, order=order)

    return KernelMatrix(values=_expected_ntk_entries(X, entry), provenance="expected-ntk1")


def expected_ntk_second(X: np.ndarray, act: Activation, order: int = 64) -> KernelMatrix:
    """Infinite-width second-layer kernel: entries E[phi(z_i) phi(z_j)] where the
    marginal standard deviations are ||x_i||/sqrt(d) (note: stds, not variances)."""
    if order < 32:
        raise ValueError("expected-kernel quadrature needs order >= 32")
    d = X.shape[1]
    C = X @ X.T / d
    s = np.sqrt(np.diag(C))
    f = phi_part(act)

    def entry(i, j):
        c = C[i, j]
        bound = s[i] * s[j]
        c = min(max(c, -bound), bound)
        lam = np.array([[s[i] ** 2, c], [c, s[j] ** 2]])
        return bivariate_expectation(f, f, lam, order=order)

    return KernelMatrix(values=_expected_ntk_entries(X, entry), provenance="expected-ntk2")


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
    return KernelMatrix(values=K, provenance=which)


def cnn_infinite_ntk(X: np.ndarray, q_filter: int, act: Activation,
                     order: int | None = None) -> KernelMatrix:
    """Infinite-width CNN kernel on hypercube inputs.

    Entry (i, j) is (1/d) sum_k [ P(rho_ijk) + Q(rho_ijk) rho_ijk ] over the d
    circular patch correlations rho_ijk = <x_i[k:k+q], x_j[k:k+q]>/q, with
    P(rho) = E[phi(z1)phi(z2)] and Q(rho) = E[phi'(z1)phi'(z2)] at unit
    marginals. Hypercube patches make rho take only q+1 values, so the summand
    P(rho) + Q(rho) rho is tabulated once and looked up per patch offset.
    """
    n, d = X.shape
    if not np.all(np.abs(X) == 1.0):
        raise ValueError("infinite-width CNN kernel requires inputs with entries exactly +-1")
    if q_filter > d:
        raise ValueError(f"filter size q={q_filter} exceeds input dimension d={d}")
    rho_values = (q_filter - 2.0 * np.arange(q_filter + 1)) / q_filter  # 1, 1-2/q, ..., -1
    f, fp = phi_part(act), phi_prime_part(act)
    P_tab = np.array([
        bivariate_expectation(f, f, [[1.0, r], [r, 1.0]], order=order) for r in rho_values
    ])
    Q_tab = np.array([
        bivariate_expectation(fp, fp, [[1.0, r], [r, 1.0]], order=order) for r in rho_values
    ])
    summand = P_tab + Q_tab * rho_values

    Xc = np.concatenate([X, X[:, : q_filter - 1]], axis=1) if q_filter > 1 else X
    acc = np.zeros((n, n))
    for k in range(d):
        R = Xc[:, k : k + q_filter] @ Xc[:, k : k + q_filter].T  # integer-valued
        acc += summand[np.rint((q_filter - R) / 2.0).astype(np.intp)]
    return KernelMatrix(values=acc / d, provenance="cnn-inf")


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
