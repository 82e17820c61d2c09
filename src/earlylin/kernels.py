"""Tangent-kernel matrices, their closed-form infinite-width expectations,
the lin1 kernel, the infinite-width CNN kernel on the hypercube, and
spectral tooling.

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
summed in the same order whatever the block count.

The expected kernels take each pair (z_i, z_j) of the data-induced
preactivations under one covariance, [[C_ii, C_ij], [C_ij, C_jj]] with
C = X X^T/d, in closed form over the whole n x n array: Williams' for erf,
the arc-cosine kernels for relu, leaky-relu and identity
(`activations.bivariate_expectation`). The other kinds have none and raise.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .activations import (
    Activation,
    Moments,
    bivariate_expectation,
    phi_prime,
    run_in_blocks,
)
from .network import jacobian_second_layer, preactivations


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
    J2 = jacobian_second_layer(_distinct_neurons(net, signs=False), X)
    return KernelMatrix(values=J2 @ J2.T)


def _expected_pairs(X: np.ndarray, act: Activation, part: str):
    """C = X X^T/d and E[f(z_i) f(z_j)] over every pair, f = phi or phi' (`part`)."""
    if act.kind in ("tanh", "sigmoid", "softplus"):
        raise ValueError(f"the {act.kind} expected kernels have no closed form; "
                         "erf, relu, leaky-relu and identity do")
    d = X.shape[1]
    C = X @ X.T / d
    a = np.diag(C)
    return C, bivariate_expectation(act, part, a[:, None], a[None, :], C)


def expected_ntk_first(X: np.ndarray, act: Activation) -> KernelMatrix:
    """Infinite-width first-layer kernel: entries (x_i.x_j/d) E[phi'(z_i) phi'(z_j)]
    under the data-induced covariance with variances ||x_i||^2/d, in closed
    form for erf, relu, leaky-relu and identity; ValueError for other kinds."""
    C, E = _expected_pairs(X, act, "phi_prime")
    return KernelMatrix(values=C * E)


def expected_ntk_second(X: np.ndarray, act: Activation) -> KernelMatrix:
    """Infinite-width second-layer kernel: entries E[phi(z_i) phi(z_j)] under the
    data-induced covariance with variances ||x_i||^2/d, in closed form for erf,
    relu, leaky-relu and identity; ValueError for other kinds."""
    return KernelMatrix(values=_expected_pairs(X, act, "phi")[1])


def linear_kernel(X: np.ndarray, mom: Moments, nu_value: float, which: str) -> KernelMatrix:
    """The lin1 kernel (zeta^2 X X^T + nu^2 1 1^T) / d, the Gram matrix of the
    `first` feature map of `linmodel.features`. `which` must be "lin1"."""
    if which != "lin1":
        raise ValueError(f"which must be lin1, got {which!r}")
    K = (mom.zeta**2 * (X @ X.T) + nu_value**2) / X.shape[1]
    return KernelMatrix(values=K)


def cnn_infinite_ntk(X: np.ndarray, q_filter: int, act: Activation,
                     order: int | None = None) -> KernelMatrix:
    """Infinite-width CNN kernel on hypercube inputs.

    Entry (i, j) is (1/d) sum_k [ P(rho_ijk) + Q(rho_ijk) rho_ijk ] over the d
    circular patch correlations rho_ijk = <x_i[k:k+q], x_j[k:k+q]>/q, with
    P(rho) = E[phi(z1)phi(z2)] and Q(rho) = E[phi'(z1)phi'(z2)] at unit
    marginals. Hypercube patches make rho take only q+1 values, so the summand
    P(rho) + Q(rho) rho is tabulated once and looked up per patch offset, at
    the Hamming distance (q - q rho)/2 of the two patches. `order` is the
    quadrature order of the tables of tanh, sigmoid and softplus; the other
    kinds have closed forms.
    """
    n, d = X.shape
    if not np.all(np.abs(X) == 1.0):
        raise ValueError("infinite-width CNN kernel requires inputs with entries exactly +-1")
    if q_filter > d:
        raise ValueError(f"filter size q={q_filter} exceeds input dimension d={d}")
    rho_values = (q_filter - 2.0 * np.arange(q_filter + 1)) / q_filter  # 1, 1-2/q, ..., -1
    P_tab = bivariate_expectation(act, "phi", 1.0, 1.0, rho_values, order)
    Q_tab = bivariate_expectation(act, "phi_prime", 1.0, 1.0, rho_values, order)
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
