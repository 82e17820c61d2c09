"""Coupled network/linear-model experiments.

A coupled run trains the network and its matching linear feature model in
lockstep with the *same* learning rate, starting from an exact tie (zero
output on both sides), and records per-step agreement metrics on the
training set and a held-out test set. The other entry points are the
experiment recipes built on top: dimension sweeps of the discrepancy,
residual subspace decomposition, the norm-feature ablation, the
spectral-decay fit, and the CNN kernel deviation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .activations import ERF, Activation, Moments, moments
from .datagen import (DataSpec, generate_hypercube, generate_inputs, identity_covariance,
                      labels_norm_dependent, labels_teacher_sign)
from .kernels import (
    DecayFit,
    cnn_infinite_ntk,
    decay_fit,
    frobenius_norm,
    linear_kernel,
    ntk_first_layer,
    spectral_norm,
)
from .linmodel import MODES, LinearTrainable, features
from .network import (Forward, NetTrainable, jacobian_second_layer, mirrored_half,
                      random_init, run_lockstep, symmetric_init)

DEFAULT_HORIZON_C = 0.25
DEFAULT_TEST_SIZE = 2000
_THETA0_ZERO_TOL = 1e-12
LABEL_KINDS = ("teacher-sign", "norm", "zero")


@dataclass(frozen=True)
class LabelSpec:
    """How training labels are produced.

    teacher-sign : y = sign(f*(x)) for a small random erf teacher net (width
                   5 by default); sign(0) = +1.
    norm         : y = ||x||/sqrt(d) + relu(a.x) with a random direction of
                   norm a_norm (labels may leave [-1, 1]; kept raw).
    zero         : y = 0.
    """

    kind: str = "teacher-sign"
    teacher_width: int = 5
    teacher_seed: int = 0
    a_norm: float = 0.5
    a_seed: int = 0

    def __post_init__(self):
        if self.kind not in LABEL_KINDS:
            raise ValueError(f"unknown label kind {self.kind!r}")


def make_labels(X: np.ndarray, spec: LabelSpec) -> np.ndarray:
    if spec.kind == "zero":
        return np.zeros(X.shape[0])
    if spec.kind == "teacher-sign":
        teacher = random_init(spec.teacher_width, X.shape[1], ERF, spec.teacher_seed)
        return labels_teacher_sign(X, teacher)
    rng = np.random.default_rng((spec.a_seed, 4))
    a = rng.standard_normal(X.shape[1])
    a *= spec.a_norm / np.linalg.norm(a)
    return labels_norm_dependent(X, a)


@dataclass(frozen=True)
class CoupledRunConfig:
    mode: str  # first | second | both
    data: DataSpec
    m: int
    act: Activation = ERF
    labels: LabelSpec = field(default_factory=LabelSpec)
    net_seed: int = 1
    eta: float | None = None  # default chosen by default_learning_rate
    T: int | None = None      # default from the horizon rule
    horizon_c: float = DEFAULT_HORIZON_C
    n_test: int = DEFAULT_TEST_SIZE
    record_stride: int = 1

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.m % 2 != 0:
            raise ValueError("width must be even (symmetric initialization)")
        if self.record_stride < 1:
            raise ValueError("record_stride must be >= 1")


@dataclass(frozen=True)
class AgreementRecord:
    step: int
    train_mse_net: float
    train_mse_lin: float
    train_gap: float          # (1/n) sum (f_t(x_i) - f_lin_t(x_i))^2
    test_gap_clipped: float   # mean of min{(f_t - f_lin_t)^2, 1} on held-out data
    w_move_fro: float
    v_move_l2: float
    beta_norm: float


@dataclass
class CoupledRunResult:
    records: list[AgreementRecord]
    eta: float
    T: int


def default_learning_rate(mode: str, d: int, n: int, mom: Moments) -> float:
    """Rates well inside the stable region for each training mode.

    First-layer-only training tolerates rates up to order d; the modes that
    train the second layer are limited to order d/log(n) when E[phi(g)] = 0
    and to order 1 otherwise (the constant output feature is the stiff
    direction in that case).
    """
    if mode == "first":
        return 0.1 * d
    if abs(mom.theta0) < _THETA0_ZERO_TOL:
        if n < 2:
            raise ValueError(f"the default learning rate 0.1 d/ln(n) needs n >= 2, got n={n}")
        return 0.1 * d / math.log(n)
    return 0.1


class HorizonError(ValueError):
    """The horizon rule gives a run no integer number of steps."""


def resolve_run(config: CoupledRunConfig):
    """The rate, the horizon and the activation's moments of a coupled run:
    (eta, T, mom). ValueError when the default rate has no value,
    HorizonError when the horizon rule's T has none."""
    d = config.data.d
    n = config.data.n
    mom = moments(config.act)
    eta = config.eta if config.eta is not None else default_learning_rate(
        config.mode, d, n, mom)
    T = config.T
    if T is None:
        steps = config.horizon_c * d * math.log(d) / eta
        if not math.isfinite(steps):
            raise HorizonError(f"T = horizon_c d ln(d) / eta = {steps} has no integer value")
        T = max(1, int(steps))
    return eta, T, mom


def _net_and_lin(config: CoupledRunConfig, X: np.ndarray, eta: float, mom: Moments):
    """(init, net, lin) of a coupled run on X: the mirrored init, the net as a
    trainable of W alone (mode `first`) or of W and v (`both`), and the
    linear model on features(config.mode, mom, X), both models at rate eta.

    In mode `second` the net is the linear model it is. symmetric_init has
    W[h:] = W[:h] and v[h:] = -v[:h]; with W frozen both halves of v get the
    same gradient, so u = J2_half beta with beta = (v[:h] + v[h:]) / sqrt(2),
    J2_half the half net's second-layer Jacobian on X: beta starts at exactly
    0, moves at rate eta, and ||v - v0|| = ||beta||. J2_half J2_half^T is the
    second-layer NTK of init. The fold is wrong for any other net:
    `mirrored_half` gives None for one.
    """
    init = symmetric_init(config.m, X.shape[1], config.act, config.net_seed)
    if config.mode == "second":
        net = LinearTrainable(jacobian_second_layer(mirrored_half(init), X), eta)
    else:
        net = NetTrainable(init, X, eta, eta if config.mode == "both" else 0.0)
    return init, net, LinearTrainable(features(config.mode, mom, X), eta)


def coupled_run(config: CoupledRunConfig) -> CoupledRunResult:
    """Train network and linear model in lockstep; record agreement metrics.

    The test set is drawn from the same data spec as extra rows beyond the
    training block (row streams are independent per row, so train rows are
    unaffected). Records are emitted every `record_stride` steps plus always
    at t = 0 and t = T; the net's forward pass on the test rows runs at
    records only, into buffers of its own.
    """
    n = config.data.n
    eta, T, mom = resolve_run(config)

    all_spec = replace(config.data, n=n + config.n_test)
    X_all = generate_inputs(all_spec)
    X, X_test = X_all[:n], X_all[n:]
    y = make_labels(X, config.labels)

    init, net, lin = _net_and_lin(config, X, eta, mom)
    folded = config.mode == "second"  # net is the linear model on the half net's J2
    if folded:
        J2_test = (jacobian_second_layer(mirrored_half(init), X_test)
                   if config.n_test > 0 else None)
    else:
        forward_test = Forward(init, X_test)
    Psi_test = features(config.mode, mom, X_test)

    def record(t, u, mse):
        if config.n_test > 0:
            f_net_test = J2_test @ net.beta if folded else forward_test(net.net)
            f_lin_test = Psi_test @ lin.beta
            test_gap = float(np.mean(np.minimum((f_net_test - f_lin_test) ** 2, 1.0)))
        else:
            test_gap = 0.0
        if folded:  # W is frozen and ||v - v0|| = ||beta||
            w_move, v_move = 0.0, float(np.linalg.norm(net.beta))
        else:
            w_move = float(np.linalg.norm(net.net.W - init.W))
            v_move = float(np.linalg.norm(net.net.v - init.v))
        return AgreementRecord(
            step=t,
            train_mse_net=mse["net"],
            train_mse_lin=mse["lin"],
            train_gap=float(np.mean((u["net"] - u["lin"]) ** 2)),
            test_gap_clipped=test_gap,
            w_move_fro=w_move,
            v_move_l2=v_move,
            beta_norm=float(np.linalg.norm(lin.beta)),
        )

    records = run_lockstep("coupled run", {"net": net, "lin": lin}, y, eta, T,
                           record, config.record_stride)
    return CoupledRunResult(records=records, eta=eta, T=T)


@dataclass
class DiscrepancySweep:
    d_list: list[int]
    max_gaps: np.ndarray         # (len(d_list), n_seeds) max train_gap per run
    median_max_gap: np.ndarray   # per d
    strictly_decreasing: bool


def shift_seeds(config: CoupledRunConfig, k: int,
                d: int | None = None) -> CoupledRunConfig:
    """Run k of a sweep: every seed of `config` (data, teacher, label
    direction, net) moved by k, and the input dimension set to d if given."""
    data, labels = config.data, config.labels
    d = data.d if d is None else d
    return replace(
        config, net_seed=config.net_seed + k,
        data=DataSpec(identity_covariance(d), data.base, data.n, data.seed + k),
        labels=replace(labels, teacher_seed=labels.teacher_seed + k,
                       a_seed=labels.a_seed + k))


def discrepancy_vs_dimension(d_list, base: CoupledRunConfig,
                             n_seeds: int = 5) -> DiscrepancySweep:
    """Max train_gap over the horizon, per dimension, medianed over seeds.

    Run k at dimension d is `shift_seeds(base, k, d)`: base's rate, horizon
    and labels, its seeds moved by k, isotropic inputs in R^d.
    """
    d_list = [int(d) for d in d_list]
    if len(d_list) < 1:
        raise ValueError("d_list must be non-empty")
    gaps = np.empty((len(d_list), n_seeds))
    for i, d in enumerate(d_list):
        for k in range(n_seeds):
            result = coupled_run(shift_seeds(base, k, d))
            gaps[i, k] = max(r.train_gap for r in result.records)
    med = np.median(gaps, axis=1)
    decreasing = bool(np.all(np.diff(med) < 0)) if len(d_list) > 1 else True
    return DiscrepancySweep(d_list=d_list, max_gaps=gaps, median_max_gap=med,
                            strictly_decreasing=decreasing)


def residual_subspace_decomposition(residual: np.ndarray, X_test: np.ndarray):
    """Split ||residual||^2 into the part inside span(columns reachable by
    X_test's input directions) and its orthogonal complement.

    Concretely: project the test-set residual vector onto the column space of
    X_test (dimension <= d) with a rank-revealing SVD. Requires n_test > d so
    the complement is non-trivial.
    """
    residual = np.asarray(residual, dtype=float)
    X_test = np.asarray(X_test, dtype=float)
    n_test, d = X_test.shape
    if residual.shape != (n_test,):
        raise ValueError(f"residual has shape {residual.shape}, expected ({n_test},)")
    if n_test <= d:
        raise ValueError(f"need n_test > d for a non-trivial complement (n_test={n_test}, d={d})")
    U, S, _ = np.linalg.svd(X_test, full_matrices=False)
    rank = int(np.sum(S > S[0] * 1e-12)) if S.size and S[0] > 0 else 0
    proj = U[:, :rank] @ (U[:, :rank].T @ residual)
    energy_in = float(proj @ proj)
    out = residual - proj
    energy_out = float(out @ out)
    return energy_in, energy_out


@dataclass
class AblationRecord:
    step: int
    disc_full: float   # (1/n) sum (f_net - f_full_lin)^2
    disc_naive: float  # same against the theta1 = theta2 = 0 model


@dataclass
class AblationResult:
    records: list[AblationRecord]
    fraction_full_below: float
    eta: float
    T: int


def norm_feature_ablation_experiment(config: CoupledRunConfig) -> AblationResult:
    """Train the net once; track full and norm-feature-ablated linear models.

    The naive model zeroes theta1 and theta2, freezing the norm feature (Psi's
    last column; mode `first` has none) at theta0; everything else (data,
    rate, steps) is shared, so any gap difference is attributable to it.
    """
    eta, T, mom = resolve_run(config)

    X = generate_inputs(config.data)
    y = make_labels(X, config.labels)
    _, net, full = _net_and_lin(config, X, eta, mom)
    Psi_naive = full.Psi.copy()
    if config.mode != "first":
        Psi_naive[:, -1] = mom.theta0
    models = {"net": net, "full": full, "naive": LinearTrainable(Psi_naive, eta)}

    def record(t, u, mse):
        return AblationRecord(
            step=t,
            disc_full=float(np.mean((u["net"] - u["full"]) ** 2)),
            disc_naive=float(np.mean((u["net"] - u["naive"]) ** 2)),
        )

    records = run_lockstep("ablation run", models, y, eta, T, record,
                           config.record_stride)
    below = sum(1 for r in records if r.disc_full < r.disc_naive)
    return AblationResult(records=records,
                          fraction_full_below=below / len(records),
                          eta=eta, T=T)


@dataclass
class SpectralDecayResult:
    d_list: list[int]
    spectral: np.ndarray    # (len(d_list), n_seeds)
    frobenius: np.ndarray
    mean_spectral: np.ndarray
    mean_frobenius: np.ndarray
    spectral_fit: DecayFit
    frobenius_fit: DecayFit


_NET_SEED_SHIFT = 1_000_003  # net seeds live away from data seeds in sweeps


def spectral_decay_experiment(d_list, n: int, m: int, act: Activation,
                              seeds) -> SpectralDecayResult:
    """Norms of (first-layer tangent kernel at init) - (its linear-model kernel)
    as a function of d at fixed (n, m), with log-log decay fits of the means."""
    d_list = [int(d) for d in d_list]
    seeds = [int(s) for s in seeds]
    mom = moments(act)
    spec = np.empty((len(d_list), len(seeds)))
    frob = np.empty((len(d_list), len(seeds)))
    for i, d in enumerate(d_list):
        for k, seed in enumerate(seeds):
            X = generate_inputs(DataSpec(identity_covariance(d), "gaussian", n, seed))
            net = symmetric_init(m, d, act, seed + _NET_SEED_SHIFT)
            D = ntk_first_layer(net, X).values - linear_kernel(X, mom, mom.theta1, "lin1").values
            spec[i, k] = spectral_norm(D)
            frob[i, k] = frobenius_norm(D)
    mean_spec = spec.mean(axis=1)
    mean_frob = frob.mean(axis=1)
    return SpectralDecayResult(
        d_list=d_list, spectral=spec, frobenius=frob,
        mean_spectral=mean_spec, mean_frobenius=mean_frob,
        spectral_fit=decay_fit(d_list, mean_spec),
        frobenius_fit=decay_fit(d_list, mean_frob),
    )


@dataclass(frozen=True)
class CnnDeviationPoint:
    d: int
    n: int
    q: int
    deviation: float   # || K_cnn - 2 zeta^2 X X^T / d ||
    base_norm: float   # || 2 zeta^2 X X^T / d ||
    ratio: float


@dataclass
class CnnDeviationResult:
    points: list[CnnDeviationPoint]
    decreasing: bool


def cnn_kernel_deviation(d: int, q: int, n: int, act: Activation, seed: int,
                         order: int | None = None) -> CnnDeviationPoint:
    """Spectral distance of the infinite-width CNN kernel from 2 zeta^2 XX^T/d
    on hypercube data, relative to the target's own norm."""
    X = generate_hypercube(n, d, seed)
    mom = moments(act)
    K = cnn_infinite_ntk(X, q, act, order=order)
    base = (2.0 * mom.zeta**2 / d) * (X @ X.T)
    dev = spectral_norm(K.values - base)
    base_norm = spectral_norm(base)
    return CnnDeviationPoint(d=d, n=n, q=q, deviation=dev, base_norm=base_norm,
                             ratio=dev / base_norm)


def cnn_second_point_rows(n: int, growth: float) -> int:
    """n * 2^growth rounded: the rows that hold n / d^growth fixed as d doubles.
    OverflowError when the product has no integer value."""
    return int(round(n * 2.0**growth))


def cnn_deviation_experiment(d: int, q: int, n: int, act: Activation, seed: int,
                             growth: float = 1.1,
                             order: int | None = None) -> CnnDeviationResult:
    """Deviation ratio at (d, n) and at (2d, n * 2^growth) — n scales to hold
    n / d^growth fixed — and whether the ratio shrinks. `order` is the
    quadrature order of the kernel's tabulation (None: the activation's default)."""
    p1 = cnn_kernel_deviation(d, q, n, act, seed, order=order)
    p2 = cnn_kernel_deviation(2 * d, q, cnn_second_point_rows(n, growth), act,
                              seed + 1, order=order)
    return CnnDeviationResult(points=[p1, p2], decreasing=p2.ratio < p1.ratio)
