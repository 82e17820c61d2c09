import math
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from earlylin.activations import (
    ERF,
    IDENTITY,
    RELU,
    SIGMOID,
    SOFTPLUS,
    TANH,
    leaky_relu,
    moments,
)
from earlylin.datagen import DataSpec, generate_hypercube, generate_inputs, identity_covariance
from earlylin.kernels import linear_kernel
from earlylin.linmodel import LinearTrainable, closed_form_trajectory, features, norm_feature
from earlylin.network import DivergenceError, run_lockstep


def gaussian(n, d, seed=0):
    return generate_inputs(DataSpec(identity_covariance(d), "gaussian", n, seed))


def plain_kernel(which, mom, X):
    """The Gram matrix of the features of mode `which`, written out: the lin1
    kernel for `first`, lin2 for `second` and lin-full = lin1 + lin2 for `both`."""
    z2, n2, d = mom.zeta**2, mom.theta1**2, X.shape[1]
    G, ones = X @ X.T, np.ones((len(X), len(X)))
    q = norm_feature(mom, X)
    return {"first": (z2 * G + n2 * ones) / d,
            "second": (z2 * G + 0.5 * n2 * ones) / d + np.outer(q, q),
            "both": (2.0 * z2 * G + 1.5 * n2 * ones) / d + np.outer(q, q)}[which]


# ----------------------------------------------------------------- features

def test_feature_dimensions_per_mode():
    X, mom = gaussian(3, 6), moments(ERF)
    assert features("first", mom, X).shape == (3, 7)
    assert features("second", mom, X).shape == (3, 8)
    assert features("both", mom, X).shape == (3, 8)
    with pytest.raises(ValueError, match="mode"):
        features("third", mom, X)


def test_first_map_formula():
    mom = moments(SIGMOID)
    x = np.array([1.0, -2.0, 0.5, 3.0])
    psi = features("first", mom, x[None, :])[0]
    np.testing.assert_allclose(psi[:4], mom.zeta * x / 2.0, rtol=1e-15)
    assert psi[4] == mom.theta1 / 2.0


def test_combined_map_inner_products_split_by_layer():
    d, mom = 9, moments(TANH)
    X = gaussian(12, d, seed=1)
    P, P1, P2 = (features(which, mom, X) for which in ("both", "first", "second"))
    np.testing.assert_allclose(P @ P.T, P1 @ P1.T + P2 @ P2.T, rtol=1e-13)


def test_erf_norm_feature_vanishes_at_reference_radius():
    x = generate_hypercube(1, 16, seed=2)  # ||x|| = sqrt(d)
    assert abs(features("second", moments(ERF), x)[0, -1]) <= 1e-10


@pytest.mark.parametrize("which,kernel", [("first", "lin1"), ("second", "lin2"),
                                          ("both", "lin-full")])
def test_feature_gram_equals_the_linear_kernel(which, kernel):
    d, mom = 7, moments(SIGMOID)
    X = gaussian(15, d, seed=3)
    Psi = features(which, mom, X)
    np.testing.assert_allclose(Psi @ Psi.T, plain_kernel(which, mom, X), atol=1e-12)
    if kernel == "lin1":  # the one variant the library builds
        K = linear_kernel(X, mom, mom.theta1, kernel).values
        np.testing.assert_allclose(Psi @ Psi.T, K, atol=1e-12)


KINDS = [ERF, TANH, SIGMOID, SOFTPLUS, RELU, IDENTITY, leaky_relu(0.2)]
MODES = ["first", "second", "both"]


@settings(max_examples=60, deadline=None)
@given(act=st.sampled_from(KINDS), which=st.sampled_from(MODES),
       n=st.integers(1, 30), d=st.integers(1, 12), scale=st.floats(0.1, 3.0),
       seed=st.integers(0, 2**32 - 1))
def test_feature_gram_is_the_linear_kernel_in_every_mode(act, which, n, d, scale, seed):
    mom = moments(act)
    X = scale * np.random.default_rng(seed).standard_normal((n, d))
    Psi = features(which, mom, X)
    K = plain_kernel(which, mom, X)
    np.testing.assert_allclose(Psi @ Psi.T, K, rtol=1e-12, atol=1e-12 * np.abs(K).max())


def test_features_rejects_an_x_that_is_not_a_batch():
    with pytest.raises(ValueError, match="expected"):  # a single x is not a batch
        features("first", moments(ERF), gaussian(3, 5)[0])
    with pytest.raises(ValueError, match="expected"):
        features("first", moments(ERF), gaussian(3, 5)[None])


# ----------------------------------------------------------------- training

class Dataset(NamedTuple):
    X: np.ndarray
    y: np.ndarray


def dataset(n=24, d=6, seed=0):
    X = gaussian(n, d, seed)
    return Dataset(X=X, y=np.tanh(X @ np.arange(1.0, d + 1) / d))


def lin_gd_train(which, mom, ds, eta, T, stride=1):
    """Run the driver on the linear model of mode `which` from beta = 0;
    returns (records, model)."""
    model = LinearTrainable(features(which, mom, ds.X), eta)

    def record(t, u, mse):
        return {"step": t, "beta_norm": float(np.linalg.norm(model.beta)), "u": u["lin"]}

    return run_lockstep("linear GD", {"lin": model}, ds.y, eta, T, record, stride), model


def test_lin_gd_zero_steps_and_zero_labels():
    mom = moments(ERF)
    ds = dataset()
    records, _ = lin_gd_train("both", mom, ds, eta=0.5, T=0)
    assert len(records) == 1
    np.testing.assert_array_equal(records[0]["u"], np.zeros(24))
    zeros = Dataset(X=ds.X, y=np.zeros(24))
    _, model = lin_gd_train("both", mom, zeros, eta=0.5, T=10)
    np.testing.assert_array_equal(model.beta, np.zeros(8))


def test_lin_gd_requires_positive_eta_and_detects_divergence():
    mom = moments(ERF)
    with pytest.raises(ValueError, match="eta"):
        lin_gd_train("first", mom, dataset(), eta=0.0, T=5)
    with pytest.raises(DivergenceError, match="diverged") as err:
        lin_gd_train("first", mom, dataset(), eta=1e7, T=500)
    assert list(err.value.mses) == ["lin"]
    assert [r["step"] for r in err.value.records] == list(range(err.value.step))


def test_lin_gd_recorder_stream():
    records, _ = lin_gd_train("second", moments(ERF), dataset(), eta=0.3, T=3)
    assert [rec["step"] for rec in records] == [0, 1, 2, 3]
    assert records[0]["beta_norm"] == 0.0
    assert records[-1]["u"].shape == (24,)


@settings(max_examples=40, deadline=None)
@given(act=st.sampled_from(KINDS), which=st.sampled_from(MODES),
       n=st.integers(2, 40), d=st.integers(1, 8), step=st.floats(0.05, 0.95),
       T=st.integers(0, 60), seed=st.integers(0, 2**32 - 1))
def test_driver_linear_predictions_follow_the_closed_form(act, which, n, d, step, T, seed):
    rng = np.random.default_rng(seed)
    mom = moments(act)
    ds = Dataset(X=rng.standard_normal((n, d)), y=rng.standard_normal(n))
    K = plain_kernel(which, mom, ds.X)
    eta = step * n / max(float(np.linalg.eigvalsh(K)[-1]), 1e-300)
    records, _ = lin_gd_train(which, mom, ds, eta=eta, T=T)
    closed = closed_form_trajectory(K, ds.y, eta, range(T + 1))
    got = np.array([r["u"] for r in records])
    np.testing.assert_allclose(got, closed, rtol=0, atol=1e-9 * max(1.0, np.abs(ds.y).max()))


@pytest.mark.parametrize("which", ["first", "second", "both"])
def test_iterative_training_matches_the_closed_form(which):
    mom = moments(TANH)
    ds = dataset(n=32, d=6, seed=7)
    K = plain_kernel(which, mom, ds.X)
    records, _ = lin_gd_train(which, mom, ds, eta=0.7, T=120)
    closed = closed_form_trajectory(K, ds.y, 0.7, range(121))
    assert np.max(np.abs(np.array([r["u"] for r in records]) - closed)) <= 1e-8


def test_beta_norm_is_nondecreasing_on_consistent_problems():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        mom = moments(SIGMOID)
        X = gaussian(30, 5, seed=seed)
        beta_star = rng.standard_normal(7)  # d + 2
        ds = Dataset(X=X, y=features("both", mom, X) @ beta_star)  # consistent labels
        Psi = features("both", mom, X)
        eta = 0.8 * 30 / np.linalg.eigvalsh(Psi.T @ Psi).max()
        records, _ = lin_gd_train("both", mom, ds, eta=eta, T=60)
        assert np.all(np.diff([r["beta_norm"] for r in records]) >= -1e-12)


# -------------------------------------------------------------- closed form

def test_closed_form_at_step_zero_and_one_step_interpolation():
    y = np.array([1.0, -2.0, 3.0])
    np.testing.assert_array_equal(closed_form_trajectory(np.eye(3), y, 0.5, [0])[0],
                                  np.zeros(3))
    K = (3 / 0.5) * np.eye(3)  # eta K / n = I
    np.testing.assert_allclose(closed_form_trajectory(K, y, 0.5, [1])[0], y, atol=1e-12)


def test_closed_form_residual_is_contractive_in_the_stable_range():
    rng = np.random.default_rng(8)
    B = rng.standard_normal((40, 40))
    K = B @ B.T
    y = rng.standard_normal(40)
    eta = 2 * 40 / np.linalg.eigvalsh(K).max()
    preds = closed_form_trajectory(K, y, eta, range(501))
    norms = np.linalg.norm(preds - y, axis=1)
    assert np.all(norms <= np.linalg.norm(y) + 1e-9)


def test_closed_form_rejects_negative_steps():
    with pytest.raises(ValueError, match=">= 0"):
        closed_form_trajectory(np.eye(2), np.ones(2), 0.1, [3, -1])


def test_closed_form_large_n_path_matches_low_rank_oracle():
    # a rank-30 K at n = 2050 admits an exact analytic trajectory; the step
    # counts come unsorted and with a duplicate.
    n, r, eta = 2050, 30, 3.0
    rng = np.random.default_rng(9)
    B = rng.standard_normal((n, r)) / math.sqrt(n)
    K = B @ B.T
    y = rng.standard_normal(n)
    ts = [7, 0, 3, 7]  # unsorted with a duplicate
    got = closed_form_trajectory(K, y, eta, ts)
    evals, U = np.linalg.eigh(B.T @ B)
    V = B @ U / np.sqrt(evals)  # orthonormal eigenvectors of K, nonzero part
    z = V.T @ y
    for k, t in enumerate(ts):
        want = V @ ((1.0 - (1.0 - eta * evals / n) ** t) * z)
        np.testing.assert_allclose(got[k], want, atol=1e-10)


# ---------------------------------------------------------------- min norm

def test_gd_converges_to_the_min_norm_predictions():
    d, n = 8, 64
    mom = moments(ERF)
    X = gaussian(n, d, seed=15)
    ds = Dataset(X=X, y=np.sign(X[:, 0]))
    Psi = features("both", mom, X)
    eta = n / np.linalg.eigvalsh(Psi.T @ Psi).max()
    T = int(50 * d * math.log(d) / eta)
    records, _ = lin_gd_train("both", mom, ds, eta=eta, T=T, stride=T)
    star = Psi @ np.linalg.lstsq(Psi, ds.y, rcond=1e-10)[0]
    assert np.linalg.norm(records[-1]["u"] - star) <= 1e-4 * math.sqrt(n)
