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
    nu,
)
from earlylin.datagen import DataSpec, generate_hypercube, generate_inputs, identity_covariance
from earlylin.kernels import linear_kernel
from earlylin.linmodel import (
    FeatureMap,
    LinearTrainable,
    closed_form_trajectory,
    features,
    naive_map,
    norm_feature,
)
from earlylin.network import DivergenceError, run_lockstep


def gaussian(n, d, seed=0):
    return generate_inputs(DataSpec(identity_covariance(d), "gaussian", n, seed))


def fmap(which, act=ERF, d=6):
    mom = moments(act)
    return FeatureMap(which=which, moments=mom, nu=nu(mom, identity_covariance(d), d), d=d)


# ----------------------------------------------------------------- features

def test_feature_dimensions_per_mode():
    assert fmap("first").out_dim == 7
    assert fmap("second").out_dim == 8
    assert fmap("both").out_dim == 8
    with pytest.raises(ValueError, match="which"):
        fmap("third")


def test_first_map_formula():
    fm = fmap("first", act=SIGMOID, d=4)
    x = np.array([1.0, -2.0, 0.5, 3.0])
    psi = features(fm, x)
    np.testing.assert_allclose(psi[:4], fm.moments.zeta * x / 2.0, rtol=1e-15)
    assert psi[4] == fm.nu / 2.0


def test_combined_map_inner_products_split_by_layer():
    d = 9
    f1, f2, f = fmap("first", TANH, d), fmap("second", TANH, d), fmap("both", TANH, d)
    X = gaussian(12, d, seed=1)
    for i in range(3):
        for j in range(3):
            got = features(f, X[i]) @ features(f, X[j])
            want = features(f1, X[i]) @ features(f1, X[j]) + features(f2, X[i]) @ features(f2, X[j])
            np.testing.assert_allclose(got, want, rtol=1e-13)


def test_erf_norm_feature_vanishes_at_reference_radius():
    fm = fmap("second", ERF, d=16)
    x = generate_hypercube(1, 16, seed=2)[0]  # ||x|| = sqrt(d)
    assert abs(features(fm, x)[-1]) <= 1e-10


@pytest.mark.parametrize("which,kernel", [("first", "lin1"), ("second", "lin2"),
                                          ("both", "lin-full")])
def test_feature_gram_equals_the_linear_kernel(which, kernel):
    d = 7
    fm = fmap(which, SIGMOID, d)
    X = gaussian(15, d, seed=3)
    Psi = features(fm, X)
    K = linear_kernel(X, fm.moments, fm.nu, kernel).values
    np.testing.assert_allclose(Psi @ Psi.T, K, atol=1e-12)


KINDS = [ERF, TANH, SIGMOID, SOFTPLUS, RELU, IDENTITY, leaky_relu(0.2)]
MODE_KERNELS = {"first": "lin1", "second": "lin2", "both": "lin-full"}


@settings(max_examples=60, deadline=None)
@given(act=st.sampled_from(KINDS), which=st.sampled_from(list(MODE_KERNELS)),
       n=st.integers(1, 30), d=st.integers(1, 12), scale=st.floats(0.1, 3.0),
       seed=st.integers(0, 2**32 - 1))
def test_feature_gram_is_the_linear_kernel_in_every_mode(act, which, n, d, scale, seed):
    # linear_kernel and features share the one norm feature q(x)
    fm = fmap(which, act, d)
    X = scale * np.random.default_rng(seed).standard_normal((n, d))
    Psi = features(fm, X)
    K = linear_kernel(X, fm.moments, fm.nu, MODE_KERNELS[which]).values
    np.testing.assert_allclose(Psi @ Psi.T, K, rtol=1e-12, atol=1e-12 * np.abs(K).max())


def test_features_single_vector_matches_batch_row():
    fm = fmap("both", TANH, d=5)
    X = gaussian(4, 5, seed=4)
    np.testing.assert_array_equal(features(fm, X[2]), features(fm, X)[2])


def test_features_rejects_wrong_dimension():
    with pytest.raises(ValueError, match="expected"):
        features(fmap("first", d=5), gaussian(3, 4))


def test_naive_map_freezes_the_norm_feature():
    fm = fmap("second", RELU, d=6)
    ablated = naive_map(fm)
    assert ablated.moments.theta1 == 0.0 and ablated.moments.theta2 == 0.0
    assert ablated.moments.theta0 == fm.moments.theta0
    assert ablated.moments.zeta == fm.moments.zeta
    assert ablated.nu == fm.nu
    X = gaussian(20, 6, seed=5)
    np.testing.assert_array_equal(norm_feature(ablated.moments, X),
                                  np.full(20, fm.moments.theta0))
    assert np.std(norm_feature(fm.moments, X)) > 0  # the full map actually varies


# ----------------------------------------------------------------- training

class Dataset(NamedTuple):
    X: np.ndarray
    y: np.ndarray


def dataset(n=24, d=6, seed=0):
    X = gaussian(n, d, seed)
    return Dataset(X=X, y=np.tanh(X @ np.arange(1.0, d + 1) / d))


def lin_gd_train(fm, ds, eta, T, stride=1):
    """Run the driver on one linear model from beta = 0; returns (records, model)."""
    model = LinearTrainable(features(fm, ds.X), eta)

    def record(t, u, mse):
        return {"step": t, "beta_norm": float(np.linalg.norm(model.beta)), "u": u["lin"]}

    return run_lockstep("linear GD", {"lin": model}, ds.y, eta, T, record, stride), model


def test_lin_gd_zero_steps_and_zero_labels():
    fm = fmap("both", d=6)
    ds = dataset()
    records, _ = lin_gd_train(fm, ds, eta=0.5, T=0)
    assert len(records) == 1
    np.testing.assert_array_equal(records[0]["u"], np.zeros(24))
    zeros = Dataset(X=ds.X, y=np.zeros(24))
    _, model = lin_gd_train(fm, zeros, eta=0.5, T=10)
    np.testing.assert_array_equal(model.beta, np.zeros(fm.out_dim))


def test_lin_gd_requires_positive_eta_and_detects_divergence():
    fm = fmap("first", d=6)
    with pytest.raises(ValueError, match="eta"):
        lin_gd_train(fm, dataset(), eta=0.0, T=5)
    with pytest.raises(DivergenceError, match="diverged") as err:
        lin_gd_train(fm, dataset(), eta=1e7, T=500)
    assert list(err.value.mses) == ["lin"]
    assert [r["step"] for r in err.value.records] == list(range(err.value.step))


def test_lin_gd_recorder_stream():
    records, _ = lin_gd_train(fmap("second", d=6), dataset(), eta=0.3, T=3)
    assert [rec["step"] for rec in records] == [0, 1, 2, 3]
    assert records[0]["beta_norm"] == 0.0
    assert records[-1]["u"].shape == (24,)


@settings(max_examples=40, deadline=None)
@given(act=st.sampled_from(KINDS), which=st.sampled_from(list(MODE_KERNELS)),
       n=st.integers(2, 40), d=st.integers(1, 8), step=st.floats(0.05, 0.95),
       T=st.integers(0, 60), seed=st.integers(0, 2**32 - 1))
def test_driver_linear_predictions_follow_the_closed_form(act, which, n, d, step, T, seed):
    rng = np.random.default_rng(seed)
    fm = fmap(which, act, d)
    ds = Dataset(X=rng.standard_normal((n, d)), y=rng.standard_normal(n))
    K = linear_kernel(ds.X, fm.moments, fm.nu, MODE_KERNELS[which])
    eta = step * n / max(float(np.linalg.eigvalsh(K.values)[-1]), 1e-300)
    records, _ = lin_gd_train(fm, ds, eta=eta, T=T)
    closed = closed_form_trajectory(K, ds.y, eta, range(T + 1))
    got = np.array([r["u"] for r in records])
    np.testing.assert_allclose(got, closed, rtol=0, atol=1e-9 * max(1.0, np.abs(ds.y).max()))


@pytest.mark.parametrize("which", ["first", "second", "both"])
def test_iterative_training_matches_the_closed_form(which):
    fm = fmap(which, TANH, d=6)
    ds = dataset(n=32, d=6, seed=7)
    K = linear_kernel(ds.X, fm.moments, fm.nu, {"first": "lin1", "second": "lin2",
                                                "both": "lin-full"}[which])
    records, _ = lin_gd_train(fm, ds, eta=0.7, T=120)
    closed = closed_form_trajectory(K, ds.y, 0.7, range(121))
    assert np.max(np.abs(np.array([r["u"] for r in records]) - closed)) <= 1e-8


def test_beta_norm_is_nondecreasing_on_consistent_problems():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        fm = fmap("both", SIGMOID, d=5)
        X = gaussian(30, 5, seed=seed)
        beta_star = rng.standard_normal(fm.out_dim)
        ds = Dataset(X=X, y=features(fm, X) @ beta_star)  # consistent labels
        Psi = features(fm, X)
        eta = 0.8 * 30 / np.linalg.eigvalsh(Psi.T @ Psi).max()
        records, _ = lin_gd_train(fm, ds, eta=eta, T=60)
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


def test_closed_form_accepts_kernel_matrix_wrapper():
    fm = fmap("first", d=4)
    X = gaussian(10, 4, seed=10)
    K = linear_kernel(X, fm.moments, fm.nu, "lin1")
    a = closed_form_trajectory(K, np.ones(10), 0.5, [5])
    b = closed_form_trajectory(K.values, np.ones(10), 0.5, [5])
    np.testing.assert_array_equal(a, b)


# ---------------------------------------------------------------- min norm

def test_gd_converges_to_the_min_norm_predictions():
    d, n = 8, 64
    fm = fmap("both", ERF, d=d)
    X = gaussian(n, d, seed=15)
    ds = Dataset(X=X, y=np.sign(X[:, 0]))
    Psi = features(fm, X)
    eta = n / np.linalg.eigvalsh(Psi.T @ Psi).max()
    T = int(50 * d * math.log(d) / eta)
    records, _ = lin_gd_train(fm, ds, eta=eta, T=T, stride=T)
    star = Psi @ np.linalg.lstsq(Psi, ds.y, rcond=1e-10)[0]
    assert np.linalg.norm(records[-1]["u"] - star) <= 1e-4 * math.sqrt(n)
