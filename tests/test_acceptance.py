"""End-to-end acceptance checks, one test per shipped claim.

Each test states its tolerance inline and asserts its own wall-clock budget,
so `pytest -v tests/test_acceptance.py` prints one pass/fail line per claim.
The heavyweight experiment parameters match the CLI defaults; the CLI routes
to the same library calls, so these are the reproduction commands in code
form.
"""

import math
import time

import numpy as np
import pytest

from earlylin.activations import (
    ERF,
    IDENTITY,
    RELU,
    SIGMOID,
    SOFTPLUS,
    TANH,
    leaky_relu,
    moments,
    phi,
    phi_prime,
)
from earlylin.datagen import (
    DataSpec,
    concentration_report,
    generate_inputs,
    identity_covariance,
)
from earlylin.harness import (
    CoupledRunConfig,
    LabelSpec,
    cnn_deviation_experiment,
    coupled_run,
    discrepancy_vs_dimension,
    norm_feature_ablation_experiment,
    spectral_decay_experiment,
)
from earlylin.kernels import expected_ntk_first, expected_ntk_second
from earlylin.linmodel import LinearTrainable, closed_form_trajectory, features
from earlylin.network import (
    Cnn1D,
    TwoLayerNet,
    cnn_forward,
    cnn_init,
    cnn_loss_gradients,
    forward,
    loss_gradients,
    random_init,
    run_lockstep,
    symmetric_init,
)


class Budget:
    """Wall-clock guard: `with Budget(seconds):` fails the test if exceeded."""

    def __init__(self, seconds: float):
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        if exc_type is None:
            assert elapsed < self.seconds, (
                f"ran {elapsed:.1f}s, budget {self.seconds:.0f}s")


def test_criterion_01_moment_identities():
    with Budget(1):
        erf = moments(ERF)
        assert abs(erf.theta0) <= 1e-10
        assert abs(erf.theta1) <= 1e-10
        assert abs(erf.theta2) <= 1e-10
        relu = moments(RELU)
        assert relu.zeta == pytest.approx(0.5, abs=1e-6)
        assert relu.gamma == pytest.approx(0.5, abs=1e-6)


def test_criterion_02_spectral_decay_separation():
    with Budget(600):
        result = spectral_decay_experiment(
            [16, 32, 64, 128], n=2000, m=4000, act=ERF, seeds=(0, 1, 2))
        print(f"spectral slope {result.spectral_fit.slope:.4f} "
              f"(r2 {result.spectral_fit.r_squared:.4f}), "
              f"frobenius slope {result.frobenius_fit.slope:.4f} "
              f"(r2 {result.frobenius_fit.r_squared:.4f})")
        assert result.spectral_fit.slope <= -1.05
        assert result.frobenius_fit.slope >= -0.95
        assert result.spectral_fit.r_squared >= 0.95
        assert result.frobenius_fit.r_squared >= 0.95


def test_criterion_03_early_time_agreement():
    with Budget(300):
        for k in range(3):
            seed = 1 + k
            result = coupled_run(CoupledRunConfig(
                mode="both",
                data=DataSpec(identity_covariance(50), "gaussian", 5000, seed),
                m=256, act=ERF,
                labels=LabelSpec(kind="teacher-sign", teacher_seed=seed),
                net_seed=seed, horizon_c=0.25, n_test=2000))
            max_train = max(r.train_gap for r in result.records)
            max_test = max(r.test_gap_clipped for r in result.records)
            print(f"seed {seed}: eta={result.eta:.4f} T={result.T} "
                  f"max train_gap {max_train:.3e} max test_gap {max_test:.3e}")
            assert max_train <= 0.05
            assert max_test <= 0.1


def test_criterion_04_discrepancy_shrinks_with_dimension():
    with Budget(600):
        base = CoupledRunConfig(
            mode="both",
            data=DataSpec(identity_covariance(10), "gaussian", 2000, 1),
            m=256, act=ERF,
            labels=LabelSpec(kind="teacher-sign", teacher_seed=1, a_seed=1),
            net_seed=1, eta=0.5, T=40, n_test=0)
        sweep = discrepancy_vs_dimension([10, 30, 50], base, n_seeds=5)
        print("median max gaps:",
              ", ".join(f"d={d}: {g:.3e}"
                        for d, g in zip(sweep.d_list, sweep.median_max_gap)))
        assert sweep.strictly_decreasing


def test_criterion_05_closed_form_matches_iterative_gd():
    with Budget(30):
        rng = np.random.default_rng(2024)
        acts = (ERF, TANH, SIGMOID, SOFTPLUS, RELU)
        worst = 0.0
        for i in range(20):
            d = int(rng.integers(3, 11))
            n = int(rng.integers(16, 257))
            act = acts[i % len(acts)]
            which = ("first", "second", "both")[i % 3]
            X = rng.standard_normal((n, d))
            y = rng.standard_normal(n)
            Psi = features(which, moments(act), X)
            K = Psi @ Psi.T
            eta = 0.9 * n / float(np.linalg.eigvalsh(K)[-1])
            lin = LinearTrainable(Psi, eta)
            iterative = run_lockstep("linear GD", {"lin": lin}, y, eta, 500,
                                     lambda t, u, mse: u["lin"])
            closed = closed_form_trajectory(K, y, eta, range(501))
            worst = max(worst, float(np.max(np.abs(np.array(iterative) - closed))))
        print(f"max |iterative - closed form| over 20 instances: {worst:.2e}")
        assert worst <= 1e-8


def test_criterion_06_expected_ntk_matches_monte_carlo():
    with Budget(60):
        d, n_samples = 8, 100_000
        X = generate_inputs(DataSpec(identity_covariance(d), "gaussian", 5, 0))
        C = X @ X.T / d
        W = np.random.default_rng(123).standard_normal((n_samples, d))
        Z = W @ X.T / math.sqrt(d)
        for act in (ERF, RELU):
            for kernel, samples, scale in (
                    (expected_ntk_first(X, act).values, phi_prime(act, Z), C),
                    (expected_ntk_second(X, act).values, phi(act, Z), np.ones((5, 5)))):
                for i in range(5):
                    for j in range(5):
                        prod = samples[:, i] * samples[:, j]
                        mc = prod.mean() * scale[i, j]
                        se = prod.std(ddof=1) / math.sqrt(n_samples) * abs(scale[i, j])
                        assert abs(kernel[i, j] - mc) <= 3 * se + 1e-12, (
                            f"{act.kind} entry ({i},{j}): "
                            f"quadrature {kernel[i, j]:.6f} vs MC {mc:.6f} "
                            f"(3 SE = {3 * se:.2e})")


def test_criterion_07_gradients_match_finite_differences():
    eps, worst = 1e-5, 0.0
    with Budget(30):
        smooth = (ERF, TANH, SIGMOID, SOFTPLUS)
        for k in range(20):
            rng = np.random.default_rng(k)
            act = smooth[k % len(smooth)]

            net = random_init(6, 5, act, seed=k)
            X = rng.standard_normal((8, 5))
            y = rng.standard_normal(8)
            grad_W, grad_v = loss_gradients(net, X, y)
            dW = rng.standard_normal(net.W.shape)
            dv = rng.standard_normal(net.v.shape)
            analytic = float(np.sum(grad_W * dW) + grad_v @ dv)

            def fc_loss(s):
                shifted = TwoLayerNet(net.W + s * dW, net.v + s * dv, act)
                return 0.5 * float(np.mean((forward(shifted, X) - y) ** 2))

            fd = (fc_loss(eps) - fc_loss(-eps)) / (2 * eps)
            worst = max(worst, abs(fd - analytic) / abs(analytic))

            cnn = cnn_init(4, 3, 6, act, seed=k)
            Xc = rng.standard_normal((8, 6))
            yc = rng.standard_normal(8)
            grad_Wc, grad_Vc = cnn_loss_gradients(cnn, Xc, yc)
            dWc = rng.standard_normal(cnn.W.shape)
            dVc = rng.standard_normal(cnn.V.shape)
            analytic_c = float(np.sum(grad_Wc * dWc) + np.sum(grad_Vc * dVc))

            def cnn_loss(s):
                shifted = Cnn1D(cnn.W + s * dWc, cnn.V + s * dVc, act)
                return 0.5 * float(np.mean((cnn_forward(shifted, Xc) - yc) ** 2))

            fd_c = (cnn_loss(eps) - cnn_loss(-eps)) / (2 * eps)
            worst = max(worst, abs(fd_c - analytic_c) / abs(analytic_c))
        print(f"worst relative gradient error over 20 probes: {worst:.2e}")
        assert worst <= 1e-5


def test_criterion_08_symmetric_init_outputs_zero():
    with Budget(5):
        m, d = 64, 10
        X = np.random.default_rng(9).standard_normal((1000, d))
        for act in (ERF, TANH, SIGMOID, SOFTPLUS, RELU, IDENTITY,
                    leaky_relu(0.2)):
            net = symmetric_init(m, d, act, seed=3)
            assert np.max(np.abs(forward(net, X))) <= 1e-12 * math.sqrt(m), act.kind


def test_criterion_09_cnn_kernel_deviation():
    with Budget(300):
        result = cnn_deviation_experiment(64, 16, 512, ERF, seed=0, growth=1.1)
        p1, p2 = result.points
        print(f"ratio at d=64: {p1.ratio:.4f}; at d=128 (n={p2.n}): {p2.ratio:.4f}")
        assert p1.ratio <= 0.15
        assert result.decreasing


def test_criterion_10_norm_feature_ablation():
    with Budget(300):
        result = norm_feature_ablation_experiment(CoupledRunConfig(
            mode="both",
            data=DataSpec(identity_covariance(50), "gaussian", 2000, 1),
            m=256, act=RELU,
            labels=LabelSpec(kind="norm", a_seed=0),
            net_seed=1, horizon_c=0.25, n_test=0))
        print(f"full model closer at {result.fraction_full_below:.1%} of "
              f"{len(result.records)} steps (eta={result.eta}, T={result.T})")
        assert result.fraction_full_below >= 0.8


def test_criterion_11_parameter_movement_stays_bounded():
    with Budget(300):
        d = 64
        bound = math.sqrt(d * math.log(d))
        for k in range(5):
            seed = 1 + k
            result = coupled_run(CoupledRunConfig(
                mode="both",
                data=DataSpec(identity_covariance(d), "gaussian", 4096, seed),
                m=1024, act=ERF,
                labels=LabelSpec(kind="teacher-sign", teacher_seed=seed),
                net_seed=seed, horizon_c=0.25, n_test=0))
            max_w = max(r.w_move_fro for r in result.records)
            max_beta = max(r.beta_norm for r in result.records)
            print(f"seed {seed}: max ||W-W0||_F {max_w:.3f}, "
                  f"max ||beta|| {max_beta:.3f}, bound {bound:.3f}")
            assert max_w <= bound
            assert max_beta <= bound


def test_criterion_12_data_concentration():
    with Budget(60):
        n, d = 2000, 200
        X = generate_inputs(DataSpec(identity_covariance(d), "gaussian", n, 0))
        report = concentration_report(X)
        bound = 5 * math.sqrt(math.log(n) / d)
        print(f"max norm dev {report.max_norm_dev:.4f}, "
              f"max offdiag {report.max_offdiag:.4f} (bound {bound:.4f}), "
              f"||XX^T||/n {report.gram_spectral_over_n:.4f}")
        assert report.max_norm_dev <= bound
        assert report.max_offdiag <= bound
        assert 0.5 <= report.gram_spectral_over_n <= 20.0
