"""Checks on each operation's output, made apart from the program.

Each check either compares an output with a value computed here (a
closed-form gradient-descent trajectory, a LAPACK eigenvalue or singular
value, the closed-form erf kernels of Williams, "Computing with Infinite
Networks", NIPS 1997) or tests a property the method must have. Inputs are
regenerated with the program's seeded generators; nothing the operation
wrote is trusted. A check returns a list of problems, empty when the output
is correct.

Tolerances: the closed-form trajectories agree with the program's iterated
GD to about 1e-13 relative, so 1e-8 leaves room for other BLAS builds. The
power-iteration norms of cnn-ntk stop at a 1e-6 eigen-residual and are
compared to 1e-6 with an SVD (base norm) and with eigvalsh of the kernel
rebuilt from closed forms (deviation); both agree to about 1e-11 today.
64-point Gauss-Hermite erf kernels match the closed forms to 1e-11 at
||x||^2/d = 1, but the error grows with the variance (the integrand narrows):
a first-layer diagonal entry is off by 1e-6 at ||x||^2/d = 2 and 1e-4 at 3,
and no entry was seen off by more than the diagonal entry of its larger
||x||^2/d. Each entry is checked to ten times that diagonal error
(`QUADRATURE_ERROR`), and never tighter than 1e-9, so that a quadrature a
tenth as accurate fails where it matters.
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from pathlib import Path

import numpy as np

ERF_ZETA_SQ = 4.0 / (3.0 * math.pi)  # E[erf'(g)]^2 = (2/sqrt(3 pi))^2
RELU_ZETA = 0.5
RELU_THETA = 1.0 / math.sqrt(2.0 * math.pi)  # theta0 = theta1 = nu for relu
TRAJECTORY_RTOL = 1e-8
SPECTRAL_RTOL = 1e-6
KERNEL_RTOL_MIN = 1e-9
# Relative error of the program's 64-point quadrature against the closed form
# on a first-layer diagonal entry, by ||x||^2/d (measured; the second-layer
# kernel is 30x more accurate).
QUADRATURE_ERROR = ((1.0, 9e-12), (1.25, 7.6e-10), (1.5, 1.8e-8), (1.75, 1.8e-7),
                    (2.0, 1.1e-6), (2.25, 4.8e-6), (2.5, 1.6e-5), (2.75, 4.2e-5),
                    (3.0, 9.6e-5), (3.5, 3.6e-4))
ZERO_AT_INIT = 1e-20  # squared output gap at step 0 (f is 0 up to rounding)


def read_csv(path: Path) -> dict[str, np.ndarray]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        raise ValueError(f"{path}: no rows")
    return {key: np.array([float(r[key]) for r in rows]) for key in rows[0]}


def _close(name: str, got, want, rtol: float, atol: float = 0.0) -> list[str]:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return [f"{name}: shape {got.shape}, expected {want.shape}"]
    err = np.abs(got - want)
    bad = err > rtol * np.abs(want) + atol
    if np.any(bad):
        i = int(np.argmax(err - rtol * np.abs(want)))
        return [f"{name}: {int(bad.sum())} value(s) off, e.g. index {i}: "
                f"{got.flat[i]!r} vs {want.flat[i]!r}"]
    return []


def _require(ok: bool, message: str) -> list[str]:
    return [] if ok else [message]


def gd_trajectory(A: np.ndarray, y: np.ndarray, eta: float, T: int,
                  p0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Parameters p_t and outputs A p_t, t = 0..T, of p <- p - (eta/n) A^T (A p - y).

    In the eigenbasis of A^T A each coordinate follows, in closed form,
    c_t = (1 - x)^t c_0 + h_t g with x = eta*lam/n, g = V^T A^T y and
    h_t = sum_{k<t} (1 - x)^k eta/n, which is t*eta/n for a null direction.
    """
    n = A.shape[0]
    lam, V = np.linalg.eigh(A.T @ A)
    g = V.T @ (A.T @ y)
    x = eta * lam / n
    t = np.arange(T + 1)[:, None]
    decay = (1.0 - x) ** t
    live = np.abs(x) > 1e-12
    h = np.where(live, (1.0 - decay) / np.where(live, lam, 1.0), t * eta / n)
    params = (decay * (V.T @ p0) + h * g) @ V.T
    return params, params @ A.T


def _horizon(d: int, eta: float) -> int:
    return max(1, int(0.25 * d * math.log(d) / eta))


def _steps(rows: dict, T: int) -> list[str]:
    return _require(np.array_equal(rows["step"], np.arange(T + 1)),
                    f"steps are not 0..{T} (T = 0.25 d ln d / eta)")


# ----------------------------------------------------------------- agreement

def agreement_inputs(seed: int, size: dict):
    from earlylin.datagen import DataSpec, generate_inputs, identity_covariance
    from earlylin.harness import LabelSpec, make_labels

    d, n = size["d"], size["n"]
    X = generate_inputs(DataSpec(identity_covariance(d), "gaussian", n, seed))
    return X, make_labels(X, LabelSpec(kind="teacher-sign", teacher_seed=seed))


def check_agreement(out: Path, seed: int, size: dict) -> list[str]:
    d, n, claims = size["d"], size["n"], size["claims"]
    eta = 0.1 * d / math.log(n)  # erf has E[phi(g)] = 0
    T = _horizon(d, eta)
    rows = read_csv(out / f"agreement_seed{seed}.csv")
    summary = read_csv(out / "summary.csv")
    problems = _steps(rows, T)
    problems += _close("summary eta", summary["eta"], [eta], 1e-15)
    problems += _require(summary["T"].tolist() == [T], f"summary T is not {T}")
    if problems:
        return problems

    # Symmetric init gives f = 0 and labels are +-1, so both MSEs start at 1.
    problems += _close("train_mse at step 0",
                       [rows["train_mse_net"][0], rows["train_mse_lin"][0]], [1.0, 1.0], 1e-12)
    problems += _require(rows["train_gap"][0] <= ZERO_AT_INIT, "train_gap at step 0 is not ~0")
    problems += _require(rows["w_move_fro"][0] == 0 and rows["v_move_l2"][0] == 0
                         and rows["beta_norm"][0] == 0, "parameters move before step 1")

    # For erf, theta0 = theta1 = theta2 = nu = 0, so psi(x) = sqrt(2/d) zeta x.
    X, y = agreement_inputs(seed, size)
    Psi = math.sqrt(2.0 * ERF_ZETA_SQ / d) * X
    beta, u = gd_trajectory(Psi, y, eta, T, np.zeros(d))
    problems += _close("train_mse_lin vs closed form", rows["train_mse_lin"],
                       np.mean((u - y) ** 2, axis=1), TRAJECTORY_RTOL)
    problems += _close("beta_norm vs closed form", rows["beta_norm"], np.linalg.norm(beta, axis=1),
                       TRAJECTORY_RTOL, 1e-12)

    bound = math.sqrt(d * math.log(d))
    for col, limit in (("train_gap", claims["max_train_gap"]),
                       ("test_gap_clipped", claims["max_test_gap"]),
                       ("w_move_fro", bound), ("beta_norm", bound)):
        problems += _require(rows[col].max() <= limit,
                             f"max {col} {rows[col].max():.4g} exceeds {limit:.4g}")
    for col, name in (("train_gap", "max_train_gap"), ("test_gap_clipped", "max_test_gap"),
                      ("w_move_fro", "max_w_move_fro"), ("beta_norm", "max_beta_norm")):
        problems += _require(summary[name][0] == rows[col].max(),
                             f"summary {name} is not the maximum of {col}")
    return problems


# ----------------------------------------------------------- ablation-second

def ablation_inputs(seed: int, size: dict):
    from earlylin.activations import RELU
    from earlylin.datagen import (DataSpec, LabelRangeWarning, generate_inputs,
                                  identity_covariance)
    from earlylin.harness import LabelSpec, make_labels
    from earlylin.network import symmetric_init

    d, n, m = size["d"], size["n"], size["m"]
    X = generate_inputs(DataSpec(identity_covariance(d), "gaussian", n, seed))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", LabelRangeWarning)
        y = make_labels(X, LabelSpec(kind="norm", a_norm=0.5, a_seed=seed))
    net = symmetric_init(m, d, RELU, seed)
    return X, y, net.W, net.v


def check_ablation_second(out: Path, seed: int, size: dict) -> list[str]:
    d, n, m = size["d"], size["n"], size["m"]
    eta = 0.1  # relu has E[phi(g)] != 0
    T = _horizon(d, eta)
    rows = read_csv(out / "ablation.csv")
    summary = read_csv(out / "summary.csv")
    problems = _steps(rows, T)
    problems += _close("summary eta", summary["eta"], [eta], 1e-15)
    problems += _require(summary["T"].tolist() == [T], f"summary T is not {T}")
    if problems:
        return problems

    # The first layer is frozen: the net is regression on fixed relu features.
    X, y, W0, v0 = ablation_inputs(seed, size)
    F = np.maximum(X @ W0.T / math.sqrt(d), 0.0) / math.sqrt(m)
    u_net = gd_trajectory(F, y, eta, T, v0)[1]
    s = np.linalg.norm(X, axis=1) / math.sqrt(d)
    lin = [(RELU_ZETA / math.sqrt(d)) * X,
           np.full((n, 1), RELU_THETA / math.sqrt(2.0 * d))]
    psi_full = np.hstack(lin + [(RELU_THETA + RELU_THETA * (s - 1.0))[:, None]])
    psi_naive = np.hstack(lin + [np.full((n, 1), RELU_THETA)])
    for col, psi in (("disc_full", psi_full), ("disc_naive", psi_naive)):
        ref = np.mean((u_net - gd_trajectory(psi, y, eta, T, np.zeros(d + 2))[1]) ** 2, axis=1)
        problems += _close(f"{col} vs closed form", rows[col], ref, TRAJECTORY_RTOL, 1e-15)
        problems += _require(rows[col][0] <= ZERO_AT_INIT, f"{col} at step 0 is not ~0")

    fraction = float(np.mean(rows["disc_full"] < rows["disc_naive"]))
    problems += _require(summary["fraction_full_below"][0] == fraction,
                         "fraction_full_below does not match ablation.csv")
    problems += _require(fraction >= size["claims"]["min_fraction"],
                         f"fraction_full_below {fraction:.3f} is below "
                         f"{size['claims']['min_fraction']}")
    return problems


# ------------------------------------------------------------------- kernels

def decay_difference(seed: int, size: dict) -> np.ndarray:
    """NTK at init minus the lin1 kernel at one spectral-decay point, from scratch."""
    from earlylin.activations import ERF
    from earlylin.datagen import DataSpec, generate_inputs, identity_covariance
    from earlylin.harness import _NET_SEED_SHIFT
    from earlylin.network import symmetric_init

    d, n, m = size["ntk_d"], size["ntk_n"], size["ntk_m"]
    X = generate_inputs(DataSpec(identity_covariance(d), "gaussian", n, seed))
    net = symmetric_init(m, d, ERF, seed + _NET_SEED_SHIFT)
    G = (2.0 / math.sqrt(math.pi)) * np.exp(-((X @ net.W.T / math.sqrt(d)) ** 2)) * net.v
    gram = X @ X.T / d
    return (G @ G.T / m) * gram - ERF_ZETA_SQ * gram  # nu = 0 for erf


def williams_kernels(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form erf NTK blocks for inputs with covariance C = X X^T / d."""
    C = X @ X.T / X.shape[1]
    a = 1.0 + 2.0 * np.diag(C)
    ab = np.outer(a, a)
    first = C * (4.0 / math.pi) / np.sqrt(ab - 4.0 * C**2)
    second = (2.0 / math.pi) * np.arcsin(2.0 * C / np.sqrt(ab))
    return first, second


def _cnn_kernel(X: np.ndarray, q: int) -> np.ndarray:
    """Infinite-width erf CNN kernel on unit-variance patches, in closed form."""
    n, d = X.shape
    Xc = np.concatenate([X, X[:, : q - 1]], axis=1)
    K = np.zeros((n, n))
    for k in range(d):
        rho = Xc[:, k:k + q] @ Xc[:, k:k + q].T / q
        K += (2.0 / math.pi) * np.arcsin(2.0 * rho / 3.0)
        K += rho * (4.0 / math.pi) / np.sqrt(9.0 - 4.0 * rho**2)
    return K / d


def _check_cnn(out: Path, seed: int, size: dict) -> list[str]:
    from earlylin.datagen import generate_hypercube

    d, q, n = size["cnn_d"], size["cnn_q"], size["cnn_n"]
    rows = read_csv(out / "deviation.csv")
    points = [(d, n, seed), (2 * d, int(round(n * 2.0**1.1)), seed + 1)]
    problems = _require(rows["d"].tolist() == [p[0] for p in points]
                        and rows["n"].tolist() == [p[1] for p in points]
                        and set(rows["q"]) == {q}, "deviation.csv rows are not the two (d, n) points")
    if problems:
        return problems
    for i, (d_i, n_i, seed_i) in enumerate(points):
        X = generate_hypercube(n_i, d_i, seed_i)
        sigma = np.linalg.svd(X, compute_uv=False)[0]
        problems += _close(f"base_norm at d={d_i} vs SVD", rows["base_norm"][i],
                           2.0 * ERF_ZETA_SQ * sigma**2 / d_i, SPECTRAL_RTOL)
        if i == 0:  # the closed-form kernel costs O(d n^2); check the small point
            dev = _cnn_kernel(X, q) - (2.0 * ERF_ZETA_SQ / d_i) * (X @ X.T)
            problems += _close(f"deviation at d={d_i} vs closed form", rows["deviation"][i],
                               np.max(np.abs(np.linalg.eigvalsh(dev))), SPECTRAL_RTOL)
    problems += _close("ratio", rows["ratio"], rows["deviation"] / rows["base_norm"], 1e-12)
    problems += _require(rows["ratio"].max() <= size["claims"]["max_cnn_ratio"],
                         f"cnn ratio {rows['ratio'].max():.4f} > {size['claims']['max_cnn_ratio']}")
    return problems


def kernel_rtol(X: np.ndarray) -> np.ndarray:
    """Per-entry tolerance: ten times the quadrature error at the larger ||x||^2/d."""
    r = np.sum(X**2, axis=1) / X.shape[1]
    at, err = zip(*QUADRATURE_ERROR)
    expected = 10.0 ** np.interp(np.maximum.outer(r, r), at, np.log10(err))
    return np.maximum(KERNEL_RTOL_MIN, 10.0 * expected)


def _check_expected(out: Path, seed: int, size: dict) -> list[str]:
    from earlylin.datagen import DataSpec, generate_inputs, identity_covariance

    X = generate_inputs(DataSpec(identity_covariance(size["points_d"]), "gaussian",
                                 size["points"], seed))
    rtol = kernel_rtol(X)
    problems = []
    with np.load(out / "expected.npz") as saved:
        for name, ref in zip(("first", "second"), williams_kernels(X)):
            K = saved[name]
            problems += _close(f"expected_ntk_{name} vs closed form", K, ref, rtol, 1e-14)
            problems += _require(np.array_equal(K, K.T), f"expected_ntk_{name} is not symmetric")
            ev = np.linalg.eigvalsh(K)
            problems += _require(ev[0] >= -1e-10 * ev[-1], f"expected_ntk_{name} is not PSD")
    return problems


def check_kernels(out: Path, seed: int, size: dict) -> list[str]:
    frobenius = json.loads((out / "ntk.json").read_text(encoding="utf-8"))["frobenius"]
    return (_check_cnn(out / "cnn-ntk", seed, size)
            + _close("NTK-minus-lin1 frobenius norm", frobenius,
                     np.linalg.norm(decay_difference(seed, size)), 1e-10)
            + _check_expected(out, seed, size))


CHECKS = {
    "agreement": check_agreement,
    "ablation-second": check_ablation_second,
    "kernels": check_kernels,
}
