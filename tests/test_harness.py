import math
from dataclasses import replace

import numpy as np
import pytest

from earlylin import harness, network
from earlylin.activations import ERF, IDENTITY, RELU, SIGMOID, TANH, moments, nu, phi, phi_prime
from earlylin.datagen import DataSpec, identity_covariance, generate_inputs
from earlylin.harness import (
    CoupledRunConfig,
    LabelSpec,
    cnn_deviation_experiment,
    coupled_run,
    default_learning_rate,
    discrepancy_vs_dimension,
    make_labels,
    norm_feature_ablation_experiment,
    resolve_run,
    residual_subspace_decomposition,
    shift_seeds,
    spectral_decay_experiment,
)
from earlylin.kernels import linear_kernel, ntk_first_layer, ntk_second_layer, spectral_norm
from earlylin.linmodel import MODES, LinearTrainable, closed_form_trajectory, features, norm_feature
from earlylin.network import (
    DivergenceError,
    NetTrainable,
    preactivations,
    random_init,
    run_lockstep,
    symmetric_init,
)


def config(mode="both", d=16, n=256, m=64, act=ERF, seed=0, **kw):
    kw.setdefault("labels", LabelSpec(kind="teacher-sign", teacher_seed=seed))
    kw.setdefault("n_test", 64)
    return CoupledRunConfig(
        mode=mode,
        data=DataSpec(identity_covariance(d), "gaussian", n, seed),
        m=m, act=act, net_seed=seed + 1, **kw)


# ------------------------------------------------------------- coupled runs

def test_coupled_run_is_deterministic():
    a = coupled_run(config(T=6, eta=0.5))
    b = coupled_run(config(T=6, eta=0.5))
    assert a.records == b.records


def test_coupled_run_starts_from_an_exact_tie():
    rec0 = coupled_run(config(T=3, eta=0.5)).records[0]
    # both predictors are zero at t=0 up to floating-point cancellation,
    # so the squared gaps sit at the square of that residue
    assert rec0.train_gap <= 1e-28
    assert rec0.test_gap_clipped <= 1e-28
    assert rec0.train_mse_net == pytest.approx(rec0.train_mse_lin, rel=1e-12)
    assert rec0.w_move_fro == 0.0 and rec0.v_move_l2 == 0.0 and rec0.beta_norm == 0.0


def test_coupled_run_keeps_gap_metrics_in_range():
    for rec in coupled_run(config(T=12, eta=0.5)).records:
        assert 0.0 <= rec.test_gap_clipped <= 1.0
        assert rec.train_gap >= 0.0


def test_coupled_run_second_mode_freezes_the_first_layer():
    records = coupled_run(config(mode="second", T=8, eta=0.5)).records
    assert all(r.w_move_fro == 0.0 for r in records)
    assert records[-1].v_move_l2 > 0.0


def test_coupled_run_first_mode_freezes_the_second_layer():
    records = coupled_run(config(mode="first", T=8, eta=0.5)).records
    assert all(r.v_move_l2 == 0.0 for r in records)
    assert records[-1].w_move_fro > 0.0


def test_coupled_run_record_stride():
    result = coupled_run(config(T=10, eta=0.5, record_stride=4))
    assert [r.step for r in result.records] == [0, 4, 8, 10]


def test_coupled_run_without_test_set():
    result = coupled_run(config(T=4, eta=0.5, n_test=0))
    assert all(r.test_gap_clipped == 0.0 for r in result.records)


def test_coupled_run_stays_in_agreement_over_the_horizon():
    # compact version of the headline early-time agreement experiment
    result = coupled_run(config(d=16, n=512, m=64, T=None, eta=None))
    assert max(r.train_gap for r in result.records) <= 0.05


def test_coupled_run_divergence():
    with pytest.raises(DivergenceError, match="diverged"):
        coupled_run(config(T=300, eta=5e4))


def forward_passes(rows_per_call):
    """The rows of every forward pass through the first layer: the net's
    blocked forward, or the preactivations of a frozen layer's Jacobian."""
    blocked = rows_per_call(network.Forward, "__call__")["__call__"]
    frozen = rows_per_call(network, "preactivations")["preactivations"]
    return lambda: blocked + frozen


@pytest.mark.parametrize("mode, per_run", [("second", 1), ("first", None), ("both", None)])
def test_coupled_run_computes_features_only_when_w_moves(rows_per_call, mode, per_run):
    # norm labels: a teacher's forward pass would add a call of its own
    cfg = config(mode=mode, n=96, T=5, eta=0.5, n_test=40,
                 labels=LabelSpec(kind="norm"))
    rows = forward_passes(rows_per_call)
    coupled_run(cfg)
    want = per_run or cfg.T + 1  # with a record at every step
    assert rows().count(96) == want and rows().count(40) == want
    assert len(rows()) == 2 * want


def frozen_first_layer_oracle(init, X, y, eta, T):
    """The full-width net trained with W frozen, written out: its outputs and
    ||v - v0|| at each step 0..T, and its v at step T."""
    n, d = X.shape
    F = phi(init.act, X @ init.W.T / math.sqrt(d)) / math.sqrt(init.m)
    v, outputs, moves = init.v.copy(), [], []
    for t in range(T + 1):
        u = F @ v
        outputs.append(u)
        moves.append(np.linalg.norm(v - init.v))
        if t < T:
            v = v - (eta / n) * (F.T @ (u - y))
    return np.array(outputs), np.array(moves), v


def net_outputs(monkeypatch):
    """Spy on the harness's GD driver: the list it fills holds the net's
    training-set outputs at every step, as the driver hands them to `record`."""
    seen = []

    def lockstep(what, models, y, eta, T, record, stride=1):
        def spy(t, u, mse):
            seen.append(u["net"].copy())
            return record(t, u, mse)
        return run_lockstep(what, models, y, eta, T, spy, stride)

    monkeypatch.setattr(harness, "run_lockstep", lockstep)
    return seen


@pytest.mark.parametrize("act", [RELU, ERF, TANH], ids=lambda a: a.kind)
@pytest.mark.parametrize("experiment", [coupled_run, norm_feature_ablation_experiment],
                         ids=["coupled", "ablation"])
def test_a_frozen_first_layer_trains_as_the_linear_model_it_is(monkeypatch, act, experiment):
    n, d, m, n_test, eta, T = 37, 5, 6, 11, 0.9, 25
    cfg = config(mode="second", d=d, n=n, m=m, act=act, T=T, eta=eta, n_test=n_test)
    X_all = generate_inputs(replace(cfg.data, n=n + n_test))
    X, X_test = X_all[:n], X_all[n:]  # the training rows do not depend on n_test
    y = make_labels(X, cfg.labels)
    init = symmetric_init(m, d, act, cfg.net_seed)
    want, want_moves, v = frozen_first_layer_oracle(init, X, y, eta, T)
    seen = net_outputs(monkeypatch)
    result = experiment(cfg)
    got = np.array(seen)
    assert got.shape == want.shape == (T + 1, n)
    assert np.all(got[0] == 0.0)  # beta starts at exactly 0
    scale = np.abs(want).max()
    assert np.abs(got - want).max() <= 1e-12 * scale
    closed = closed_form_trajectory(ntk_second_layer(init, X).values, y, eta, range(T + 1))
    assert np.abs(got - closed).max() <= 1e-10 * scale
    if experiment is coupled_run:
        records = result.records
        assert [r.w_move_fro for r in records] == [0.0] * (T + 1)
        np.testing.assert_allclose([r.v_move_l2 for r in records], want_moves,
                                   rtol=1e-12, atol=0)
        # the last record's test gap, from the oracle's final v and the
        # linear model's final beta (the linear model is not folded)
        mom = resolve_run(cfg)[2]
        Psi, Psi_test = features("second", mom, X), features("second", mom, X_test)
        beta = np.zeros(Psi.shape[1])
        for _ in range(T):
            beta = beta - (eta / n) * (Psi.T @ (Psi @ beta - y))
        A_test = phi(act, X_test @ init.W.T / math.sqrt(d)) / math.sqrt(m)
        gap = float(np.mean(np.minimum((A_test @ v - Psi_test @ beta) ** 2, 1.0)))
        assert records[-1].test_gap_clipped == pytest.approx(gap, rel=1e-10)


def test_coupled_run_rejects_bad_configs():
    with pytest.raises(ValueError, match="mode"):
        config(mode="third", T=1)
    with pytest.raises(ValueError, match="even"):
        config(m=63, T=1)
    with pytest.raises(ValueError, match="stride"):
        config(record_stride=0)


# ------------------------------------------------------- labels and defaults

def test_label_spec_validation():
    with pytest.raises(ValueError, match="label kind"):
        LabelSpec(kind="random")


def test_make_labels_kinds():
    X = generate_inputs(DataSpec(identity_covariance(8), "gaussian", 40, 0))
    np.testing.assert_array_equal(make_labels(X, LabelSpec(kind="zero")), np.zeros(40))
    y = make_labels(X, LabelSpec(kind="teacher-sign", teacher_seed=3))
    assert set(np.unique(y)) <= {-1.0, 1.0}
    np.testing.assert_array_equal(
        y, make_labels(X, LabelSpec(kind="teacher-sign", teacher_seed=3)))
    y_norm = make_labels(X, LabelSpec(kind="norm", a_seed=1, a_norm=0.5))
    assert y_norm.shape == (40,) and np.std(y_norm) > 0


def test_default_learning_rates_by_mode():
    erf_mom, sig_mom = moments(ERF), moments(SIGMOID)
    assert default_learning_rate("first", 50, 1000, erf_mom) == 5.0
    # zero-mean activations tolerate d/log(n); biased ones are stiff
    assert default_learning_rate("both", 50, 1000, erf_mom) == pytest.approx(
        5.0 / math.log(1000))
    assert default_learning_rate("second", 50, 1000, sig_mom) == 0.1


def test_resolve_run_fills_rate_horizon_and_map():
    cfg = config(mode="first", d=20, n=100, m=16, T=None, eta=None)
    eta, T, mom = resolve_run(cfg)
    assert eta == 2.0  # 0.1 * d
    assert T == int(0.25 * 20 * math.log(20) / 2.0)
    assert mom == moments(ERF)
    assert mom.theta1 == nu(mom, cfg.data.covariance, 20)  # the map's nu
    assert resolve_run(replace(cfg, act=RELU))[2] == moments(RELU)


# --------------------------------------------------------- dimension sweep

def test_shift_seeds_moves_every_seed_and_may_set_d():
    base = config(d=12, seed=4, T=5, eta=0.5,
                  labels=LabelSpec(kind="norm", teacher_seed=6, a_seed=8))
    assert shift_seeds(base, 0) == base
    assert shift_seeds(base, 3, d=7) == replace(
        base, net_seed=8,
        data=DataSpec(identity_covariance(7), "gaussian", 256, 7),
        labels=LabelSpec(kind="norm", teacher_seed=9, a_seed=11))


def test_discrepancy_sweep_runs_the_shifted_configs():
    base = config(d=5, n=40, m=8, T=3, eta=0.5, n_test=0)
    sweep = discrepancy_vs_dimension([4, 6], base, n_seeds=2)
    for i, d in enumerate([4, 6]):
        for k in range(2):
            records = coupled_run(shift_seeds(base, k, d)).records
            assert sweep.max_gaps[i, k] == max(r.train_gap for r in records)


def test_discrepancy_sweep_single_dimension_is_trivially_decreasing():
    sweep = discrepancy_vs_dimension([12], config(d=12, T=5, eta=0.5), n_seeds=2)
    assert sweep.max_gaps.shape == (1, 2)
    assert sweep.strictly_decreasing


def test_discrepancy_sweep_duplicated_dimension_reproduces_values():
    sweep = discrepancy_vs_dimension([12, 12], config(d=12, T=5, eta=0.5), n_seeds=3)
    np.testing.assert_array_equal(sweep.max_gaps[0], sweep.max_gaps[1])
    assert not sweep.strictly_decreasing  # equal, not smaller


def test_discrepancy_sweep_guards():
    with pytest.raises(ValueError, match="non-empty"):
        discrepancy_vs_dimension([], config(T=1))


# -------------------------------------------------------- deviation probes

def first_layer_cross_gram(net_t, net_0, X):
    """J1(theta_t) J1(theta_0)^T, the first-layer tangent cross-Gram:
    (1/m) (phi'(Z_t) diag(v_t)) (phi'(Z_0) diag(v_0))^T (.) X X^T/d."""
    S_t = phi_prime(net_t.act, preactivations(net_t, X)) * net_t.v
    S_0 = phi_prime(net_0.act, preactivations(net_0, X)) * net_0.v
    return (S_t @ S_0.T) / net_t.m * (X @ X.T / X.shape[1])


def test_probe_with_identity_activation_sees_zero_deviation():
    # the identity's first-layer tangent features don't depend on W, so the
    # cross-Gram sticks to X X^T / d no matter how far training wanders
    d = 8
    X = generate_inputs(DataSpec(identity_covariance(d), "gaussian", 30, 0))
    y = np.random.default_rng(0).standard_normal(30)
    model = NetTrainable(random_init(16, d, IDENTITY, 0), X, eta1=2.0, eta2=0.0)
    snapshots = run_lockstep("training", {"net": model}, y, 2.0, 3,
                             lambda t, u, mse: model.net.copy())
    assert np.any(snapshots[-1].W != snapshots[0].W)
    K_lin = X @ X.T / d  # zeta = 1, nu = 0
    for net_t in snapshots:
        assert spectral_norm(first_layer_cross_gram(net_t, snapshots[0], X) - K_lin) <= 1e-10


def test_probe_at_the_reference_point_reduces_to_the_kernel_distance():
    d, n = 10, 40
    X = generate_inputs(DataSpec(identity_covariance(d), "gaussian", n, 1))
    net = symmetric_init(32, d, ERF, seed=2)
    mom = moments(ERF)
    K_lin = linear_kernel(X, mom, nu(mom, identity_covariance(d), d), "lin1").values
    eps = spectral_norm(first_layer_cross_gram(net, net, X) - K_lin)
    assert eps == pytest.approx(spectral_norm(ntk_first_layer(net, X).values - K_lin),
                                rel=1e-9)


def test_probe_against_the_initial_empirical_kernel_is_exact_zero():
    d = 6
    X = generate_inputs(DataSpec(identity_covariance(d), "gaussian", 20, 3))
    net = symmetric_init(16, d, SIGMOID, seed=4)
    K = ntk_first_layer(net, X).values
    assert spectral_norm(first_layer_cross_gram(net, net, X) - K) <= 1e-12


def test_probe_deviation_stays_small_over_an_erf_training_run():
    # the first-layer tangent cross-Gram stays within a fifth of the linear
    # kernel's n/d scale along the whole early-time window
    d, n, m = 64, 4096, 1024
    X = generate_inputs(DataSpec(identity_covariance(d), "gaussian", n, 5))
    y = make_labels(X, LabelSpec(kind="teacher-sign", teacher_seed=5))
    mom = moments(ERF)
    eta = default_learning_rate("first", d, n, mom)
    T = max(1, int(0.25 * d * math.log(d) / eta))
    model = NetTrainable(symmetric_init(m, d, ERF, seed=6), X, eta1=eta, eta2=0.0)
    snapshots = []

    def record(t, u, mse):
        if t in (0, T // 2, T):
            snapshots.append(model.net.copy())

    run_lockstep("training", {"net": model}, y, eta, T, record)
    assert len(snapshots) == 3
    K_lin = linear_kernel(X, mom, nu(mom, identity_covariance(d), d), "lin1").values
    for net_t in snapshots:
        eps = spectral_norm(first_layer_cross_gram(net_t, snapshots[0], X) - K_lin)
        assert eps / (n / d) <= 0.2


# -------------------------------------------------- residual decomposition

def test_decomposition_of_in_span_residual():
    X = generate_inputs(DataSpec(identity_covariance(5), "gaussian", 40, 6))
    residual = X @ np.array([1.0, -2.0, 0.0, 0.5, 3.0])
    energy_in, energy_out = residual_subspace_decomposition(residual, X)
    assert energy_out <= 1e-10 * energy_in
    assert energy_in == pytest.approx(residual @ residual, rel=1e-12)


def test_decomposition_of_orthogonal_residual():
    X = generate_inputs(DataSpec(identity_covariance(5), "gaussian", 40, 7))
    r = np.random.default_rng(8).standard_normal(40)
    residual = r - X @ np.linalg.lstsq(X, r, rcond=None)[0]
    energy_in, energy_out = residual_subspace_decomposition(residual, X)
    assert energy_in <= 1e-10 * energy_out


def test_decomposition_conserves_energy():
    X = generate_inputs(DataSpec(identity_covariance(12), "gaussian", 100, 9))
    residual = np.random.default_rng(10).standard_normal(100)
    energy_in, energy_out = residual_subspace_decomposition(residual, X)
    total = residual @ residual
    assert energy_in + energy_out == pytest.approx(total, rel=1e-10)


def test_decomposition_handles_rank_deficient_test_matrices():
    base = generate_inputs(DataSpec(identity_covariance(3), "gaussian", 30, 11))
    X = np.hstack([base, base[:, :2]])  # rank 3, d = 5
    residual = base @ np.array([1.0, 2.0, -1.0])
    energy_in, energy_out = residual_subspace_decomposition(residual, X)
    assert energy_out <= 1e-10 * energy_in


def test_decomposition_guards():
    X = np.ones((4, 6))
    with pytest.raises(ValueError, match="n_test > d"):
        residual_subspace_decomposition(np.ones(4), X)
    with pytest.raises(ValueError, match="expected"):
        residual_subspace_decomposition(np.ones(5), np.ones((6, 2)))


# ------------------------------------------------------------- norm ablation

def ablation_config(act=RELU, d=12, n=200, m=32, **kw):
    kw.setdefault("labels", LabelSpec(kind="norm", a_seed=0))
    kw.setdefault("n_test", 0)
    return CoupledRunConfig(
        mode="both",
        data=DataSpec(identity_covariance(d), "gaussian", n, 0),
        m=m, act=act, net_seed=1, **kw)


def test_ablation_with_erf_is_a_no_op():
    # erf has no norm feature to ablate, so both tracked models coincide
    result = norm_feature_ablation_experiment(ablation_config(act=ERF, T=10, eta=0.5))
    for rec in result.records:
        assert rec.disc_full == rec.disc_naive


def test_ablation_with_zero_labels_never_moves():
    result = norm_feature_ablation_experiment(
        ablation_config(labels=LabelSpec(kind="zero"), T=10, eta=0.5))
    for rec in result.records:
        assert rec.disc_full <= 1e-28 and rec.disc_naive <= 1e-28


def test_ablation_reports_the_winning_fraction():
    result = norm_feature_ablation_experiment(ablation_config(T=40, eta=0.5))
    below = sum(1 for r in result.records if r.disc_full < r.disc_naive)
    assert result.fraction_full_below == below / len(result.records)
    assert 0.0 <= result.fraction_full_below <= 1.0


def test_ablation_helps_relu_on_norm_labels():
    # small-scale cut of the norm-feature experiment: the full linear model
    # tracks the network better than the ablated one at most steps
    result = norm_feature_ablation_experiment(ablation_config(d=24, n=400, m=64))
    assert result.fraction_full_below >= 0.8


@pytest.mark.parametrize("mode", MODES)
def test_ablation_naive_features_freeze_the_norm_feature_at_theta0(monkeypatch, mode):
    made = []  # the Psi of every linear model the experiment builds, in order

    def spy(Psi, eta):
        made.append(Psi)
        return LinearTrainable(Psi, eta)

    monkeypatch.setattr(harness, "LinearTrainable", spy)
    cfg = replace(ablation_config(T=2, eta=0.5), mode=mode)
    norm_feature_ablation_experiment(cfg)
    full, naive = made[-2:]
    X, mom = generate_inputs(cfg.data), moments(cfg.act)
    np.testing.assert_array_equal(full, features(mode, mom, X))
    if mode == "first":  # psi1 has no norm feature
        np.testing.assert_array_equal(naive, full)
        return
    np.testing.assert_array_equal(naive[:, :-1], full[:, :-1])
    np.testing.assert_array_equal(naive[:, -1], np.full(len(X), mom.theta0))
    # the bits of the norm feature at theta1 = theta2 = 0
    np.testing.assert_array_equal(
        naive[:, -1], norm_feature(replace(mom, theta1=0.0, theta2=0.0), X))
    assert np.std(full[:, -1]) > 0  # the full map's norm feature actually varies


@pytest.mark.parametrize("mode, per_run", [("second", 1), ("first", None), ("both", None)])
def test_ablation_computes_features_only_when_w_moves(rows_per_call, mode, per_run):
    cfg = replace(ablation_config(T=5, eta=0.5), mode=mode)
    rows = forward_passes(rows_per_call)
    norm_feature_ablation_experiment(cfg)
    assert rows() == [cfg.data.n] * (per_run or cfg.T + 1)


# ------------------------------------------------------------ decay + cnn

def test_spectral_decay_experiment_shapes_and_separation():
    result = spectral_decay_experiment([8, 16, 32], n=128, m=64, act=ERF,
                                       seeds=(0, 1))
    assert result.spectral.shape == (3, 2)
    assert result.spectral_fit.slope < result.frobenius_fit.slope + 1e-12
    assert np.all(result.spectral <= result.frobenius + 1e-12)


def test_spectral_decay_identity_activation_is_degenerate():
    # the identity's tangent kernel equals its linear kernel exactly, so the
    # norms are all zero and the log-log fit must refuse
    with pytest.raises(ValueError, match="degenerate"):
        spectral_decay_experiment([8, 16, 32], n=64, m=32, act=IDENTITY,
                                  seeds=(0,))


def test_cnn_deviation_experiment_scales_the_sample_count():
    result = cnn_deviation_experiment(16, 4, 64, ERF, seed=0, growth=1.1)
    p1, p2 = result.points
    assert (p1.d, p1.n) == (16, 64)
    assert (p2.d, p2.n) == (32, int(round(64 * 2**1.1)))
    assert p1.ratio == pytest.approx(p1.deviation / p1.base_norm, rel=1e-12)
    assert result.decreasing == (p2.ratio < p1.ratio)
