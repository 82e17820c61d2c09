import math
import warnings
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from earlylin import network
from earlylin.activations import ERF, IDENTITY, RELU, SIGMOID, SOFTPLUS, TANH, Activation, phi, phi_prime
from earlylin.datagen import DataSpec, generate_inputs, identity_covariance
from earlylin.kernels import ntk_first_layer, ntk_second_layer
from earlylin.network import (
    Cnn1D,
    DivergenceError,
    NetTrainable,
    TwoLayerNet,
    cnn_forward,
    cnn_init,
    cnn_loss_gradients,
    cnn_preactivations,
    forward,
    jacobian_second_layer,
    loss_gradients,
    preactivations,
    random_init,
    run_lockstep,
    symmetric_init,
)

ALL_ACTS = [ERF, TANH, SIGMOID, SOFTPLUS, RELU, Activation("leaky-relu", 0.01), IDENTITY]
SMOOTH_ACTS = [ERF, TANH, SIGMOID, SOFTPLUS]


def gaussian(n, d, seed=0):
    return generate_inputs(DataSpec(identity_covariance(d), "gaussian", n, seed))


class Dataset(NamedTuple):
    X: np.ndarray
    y: np.ndarray


def materialized_j1(net, X):
    """The first-layer Jacobian as an n x (m*d) matrix: entry (i, (r, k)) is
    d f(x_i) / d W_rk = v_r phi'(w_r . x_i / sqrt(d)) x_ik / sqrt(m d)."""
    n, d = X.shape
    G = phi_prime(net.act, preactivations(net, X))
    J = (G * net.v)[:, :, None] * X[:, None, :] / math.sqrt(net.m * d)
    return J.reshape(n, net.m * d)


def small_dataset(n=16, d=6, seed=0):
    X = gaussian(n, d, seed)
    y = np.tanh(X[:, 0])
    return Dataset(X=X, y=y)


# -------------------------------------------------------- symmetric init

@pytest.mark.parametrize("act", ALL_ACTS, ids=lambda a: a.kind)
def test_symmetric_init_outputs_zero_everywhere(act):
    net = symmetric_init(64, 12, act, seed=3)
    X = gaussian(200, 12, seed=9)
    assert np.max(np.abs(forward(net, X))) <= 1e-12 * math.sqrt(net.m)


@settings(max_examples=60, deadline=None)
@given(act=st.sampled_from(ALL_ACTS + [Activation("leaky-relu", -0.5)]),
       half=st.integers(1, 40), d=st.integers(1, 16), n=st.integers(1, 40),
       scale=st.floats(0.01, 10.0), seed=st.integers(0, 2**32 - 1))
def test_symmetric_init_outputs_zero_for_any_shape(act, half, d, n, scale, seed):
    # each mirrored pair cancels; what is left is the rounding of the sum
    net = symmetric_init(2 * half, d, act, seed=seed % 1000)
    X = scale * np.random.default_rng(seed).standard_normal((n, d))
    A = phi(act, preactivations(net, X))
    bound = net.m * np.finfo(float).eps * (np.abs(A) @ np.abs(net.v)) / math.sqrt(net.m)
    assert np.all(np.abs(forward(net, X)) <= bound)


def test_symmetric_init_mirrors_exactly():
    net = symmetric_init(10, 4, ERF, seed=0)
    np.testing.assert_array_equal(net.W[5:], net.W[:5])
    np.testing.assert_array_equal(net.v[5:], -net.v[:5])
    assert set(np.unique(net.v)) == {-1.0, 1.0}


def test_symmetric_init_smallest_net():
    net = symmetric_init(2, 3, ERF, seed=1)
    np.testing.assert_array_equal(net.W[1], net.W[0])
    assert tuple(net.v) in {(1.0, -1.0), (-1.0, 1.0)}


def test_symmetric_init_odd_width_rejected():
    with pytest.raises(ValueError, match="width must be even"):
        symmetric_init(5, 3, ERF, seed=0)


def test_symmetric_and_random_init_draw_from_separate_streams():
    sym = symmetric_init(8, 5, ERF, seed=42)
    rnd = random_init(8, 5, ERF, seed=42)
    assert np.all(sym.W[:4] != rnd.W[:4])


def test_mirroring_leaves_the_expected_ntk_unchanged():
    # The mirrored half doubles each neuron's kernel contribution but does
    # not bias it: over many seeds, entries of the empirical first-layer
    # NTK from symmetric and plain inits agree within Monte Carlo error.
    n, d, m, reps = 4, 6, 64, 100
    X = gaussian(n, d, seed=7)
    sym = np.empty((reps, n, n))
    rnd = np.empty((reps, n, n))
    for k in range(reps):
        sym[k] = ntk_first_layer(symmetric_init(m, d, ERF, seed=k), X).values
        rnd[k] = ntk_first_layer(random_init(m, d, ERF, seed=k), X).values
    diff = sym.mean(axis=0) - rnd.mean(axis=0)
    se = np.sqrt(sym.var(axis=0, ddof=1) / reps + rnd.var(axis=0, ddof=1) / reps)
    assert np.all(np.abs(diff) <= 3.0 * se)


# ---------------------------------------------------------------- forward

def test_forward_zero_second_layer():
    net = symmetric_init(8, 3, TANH, seed=0)
    net.v = np.zeros(8)
    np.testing.assert_array_equal(forward(net, gaussian(5, 3)), np.zeros(5))


def test_forward_scalar_identity_case():
    net = TwoLayerNet(W=np.array([[1.0]]), v=np.array([1.0]), act=IDENTITY)
    np.testing.assert_allclose(forward(net, np.array([[2.0]])), [2.0])


def test_forward_matches_per_sample_loop():
    net = random_init(10, 4, SIGMOID, seed=5)
    X = gaussian(7, 4, seed=1)
    want = [
        sum(net.v[r] * phi(SIGMOID, net.W[r] @ x / math.sqrt(4)) for r in range(10))
        / math.sqrt(10)
        for x in X
    ]
    np.testing.assert_allclose(forward(net, X), want, rtol=1e-13)


def test_forward_rejects_wrong_width():
    net = random_init(4, 3, ERF, seed=0)
    with pytest.raises(ValueError, match="expected"):
        forward(net, gaussian(5, 2))


# -------------------------------------------------------------- jacobians

def test_jacobian_first_layer_zero_direction():
    net = random_init(6, 4, ERF, seed=2)
    out = materialized_j1(net, gaussian(9, 4)) @ np.zeros(6 * 4)
    np.testing.assert_array_equal(out, np.zeros(9))


def test_jacobian_first_layer_scalar_closed_form():
    w, v, x = 0.7, -1.0, 1.3
    net = TwoLayerNet(W=np.array([[w]]), v=np.array([v]), act=TANH)
    got = materialized_j1(net, np.array([[x]]))
    np.testing.assert_allclose(got, [[v * phi_prime(TANH, w * x) * x]], rtol=1e-14)


def test_jacobian_first_layer_adjoint_identity():
    # <J1 delta, r> = <delta, J1^T r>, and J1^T r / n is the W gradient of the
    # loss at the labels y = f - r
    rng = np.random.default_rng(11)
    net = random_init(12, 5, SOFTPLUS, seed=3)
    X = gaussian(20, 5, seed=4)
    J = materialized_j1(net, X)
    for _ in range(5):
        delta = rng.standard_normal((12, 5))
        r = rng.standard_normal(20)
        grad_W, _ = loss_gradients(net, X, forward(net, X) - r)
        np.testing.assert_allclose((J @ delta.ravel()) @ r, 20 * np.sum(delta * grad_W),
                                   rtol=1e-10)


def test_jacobian_first_layer_matches_directional_difference():
    net = random_init(16, 6, ERF, seed=8)
    X = gaussian(10, 6, seed=2)
    delta = np.random.default_rng(0).standard_normal((16, 6))
    eps = 1e-5
    plus, minus = net.copy(), net.copy()
    plus.W = net.W + eps * delta
    minus.W = net.W - eps * delta
    fd = (forward(plus, X) - forward(minus, X)) / (2 * eps)
    np.testing.assert_allclose(materialized_j1(net, X) @ delta.ravel(), fd,
                               rtol=1e-7, atol=1e-10)


def test_jacobian_second_layer_zero_inputs_with_odd_activation():
    net = random_init(5, 3, ERF, seed=1)
    np.testing.assert_array_equal(jacobian_second_layer(net, np.zeros((4, 3))),
                                  np.zeros((4, 5)))


def test_jacobian_second_layer_columns():
    net = random_init(6, 4, TANH, seed=9)
    X = gaussian(8, 4, seed=3)
    J2 = jacobian_second_layer(net, X)
    for r in range(6):
        np.testing.assert_allclose(
            J2[:, r], phi(TANH, X @ net.W[r] / math.sqrt(4)) / math.sqrt(6),
            rtol=1e-13, atol=1e-15)


def test_jacobian_second_layer_gram_is_the_second_layer_ntk():
    net = random_init(20, 5, SIGMOID, seed=4)
    X = gaussian(12, 5, seed=6)
    J2 = jacobian_second_layer(net, X)
    np.testing.assert_allclose(J2 @ J2.T, ntk_second_layer(net, X).values, atol=1e-12)


def test_first_layer_jacobian_lipschitz_in_weight_movement():
    # Moving the weights by ||dW||_F moves the first-layer Jacobian by at
    # most ~ sqrt(n/(m d)) * ||dW||_F in operator norm.
    n, d, m = 512, 64, 256
    net0 = symmetric_init(m, d, ERF, seed=0)
    X = gaussian(n, d, seed=0)
    J0 = materialized_j1(net0, X)
    rng = np.random.default_rng(17)
    ratios = []
    for _ in range(20):
        delta = rng.standard_normal((m, d))
        delta *= rng.uniform(0.5, 5.0) / np.linalg.norm(delta)
        net = net0.copy()
        net.W = net0.W + delta
        dJ = materialized_j1(net, X) - J0
        u = np.random.default_rng(1).standard_normal(m * d)
        for _ in range(60):
            w = dJ @ u
            u = dJ.T @ w
            u /= np.linalg.norm(u)
        op_norm = np.linalg.norm(dJ @ u)
        ratios.append(op_norm / (math.sqrt(n / (m * d)) * np.linalg.norm(delta)))
    assert max(ratios) <= 10.0


# --------------------------------------------------------------- gradients

def gd_step(net, X, y, eta1, eta2):
    """One step of the driver's net model, from the residual on (X, y)."""
    model = NetTrainable(net, X, eta1, eta2)
    model.step(model.outputs() - y)
    return model.net


def test_gd_step_fixed_point_at_zero_residual():
    net = random_init(8, 4, TANH, seed=3)
    X = gaussian(10, 4, seed=5)
    y = forward(net, X)
    stepped = gd_step(net, X, y, eta1=0.5, eta2=0.5)
    np.testing.assert_array_equal(stepped.W, net.W)
    np.testing.assert_array_equal(stepped.v, net.v)


def test_gd_step_zero_rates_are_identity():
    # a frozen layer is never reassigned: not even a copy is made
    net = random_init(8, 4, ERF, seed=3)
    ds = small_dataset(d=4)
    model = NetTrainable(net, ds.X, eta1=0.3, eta2=0.0)
    v = model.net.v
    model.step(model.outputs() - ds.y)
    assert model.net.v is v
    model = NetTrainable(net, ds.X, eta1=0.0, eta2=0.3)
    W = model.net.W
    model.step(model.outputs() - ds.y)
    assert model.net.W is W


def test_first_gd_step_decreases_the_loss():
    for seed in range(20):
        ds = small_dataset(n=32, d=6, seed=seed)
        net = symmetric_init(16, 6, ERF, seed=seed)
        before = np.mean((forward(net, ds.X) - ds.y) ** 2)
        after_net = gd_step(net, ds.X, ds.y, eta1=0.1, eta2=0.1)
        after = np.mean((forward(after_net, ds.X) - ds.y) ** 2)
        assert after < before


@pytest.mark.parametrize("act", SMOOTH_ACTS, ids=lambda a: a.kind)
def test_driver_step_is_the_loss_gradient_step(act):
    # ties the finite-difference-checked loss_gradients to the code that runs
    ds = small_dataset(n=12, d=3, seed=1)
    net = random_init(6, 3, act, seed=2)
    eta1, eta2 = 0.7, 0.3
    grad_W, grad_v = loss_gradients(net, ds.X, ds.y)
    stepped = gd_step(net, ds.X, ds.y, eta1, eta2)
    np.testing.assert_allclose(stepped.W, net.W - eta1 * grad_W, rtol=1e-12, atol=0)
    np.testing.assert_allclose(stepped.v, net.v - eta2 * grad_v, rtol=1e-12, atol=0)


@pytest.mark.parametrize("n, m, d", [(1, 2, 1), (12, 6, 3), (200, 16, 10), (64, 300, 64),
                                     (500, 300, 50), (5000, 256, 50)])
def test_first_layer_step_contracts_x_transpose_with_g(n, m, d):
    net = random_init(m, d, ERF, seed=n)
    X = gaussian(n, d, seed=m)
    y = np.sign(X[:, 0])
    eta1 = 0.4
    G = phi_prime(ERF, preactivations(net, X)) * (forward(net, X) - y)[:, None]
    scale = eta1 / (n * math.sqrt(m * d))
    want = net.W - scale * (net.v[:, None] * (X.T @ G).T)
    got = gd_step(net, X, y, eta1, 0.0).W
    assert np.array_equal(got, want)
    # G.T @ X agrees to the last bits of the largest entry (with OpenBLAS 0.3,
    # at m = 300 it differs in the last bit: equality above pins the order)
    plain = net.W - scale * (net.v[:, None] * (G.T @ X))
    assert np.abs(got - plain).max() <= 1e-15 * np.abs(net.W).max()


def fd_loss_gradient(loss, param, eps=1e-5):
    grad = np.empty_like(param)
    flat, gflat = param.ravel(), grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = loss()
        flat[i] = orig - eps
        lo = loss()
        flat[i] = orig
        gflat[i] = (hi - lo) / (2 * eps)
    return grad


@pytest.mark.parametrize("act", SMOOTH_ACTS, ids=lambda a: a.kind)
def test_loss_gradients_match_finite_differences(act):
    ds = small_dataset(n=12, d=3, seed=1)
    net = random_init(6, 3, act, seed=2)

    def loss():
        return 0.5 * np.mean((forward(net, ds.X) - ds.y) ** 2)

    grad_W, grad_v = loss_gradients(net, ds.X, ds.y)
    fd_W = fd_loss_gradient(loss, net.W)
    fd_v = fd_loss_gradient(loss, net.v)
    np.testing.assert_allclose(grad_W, fd_W, rtol=1e-5, atol=1e-12)
    np.testing.assert_allclose(grad_v, fd_v, rtol=1e-5, atol=1e-12)


# ------------------------------------------------------------------- train

def train(net, ds, eta1=0.0, eta2=0.0, T=10, keep_predictions=False):
    """Run the driver on the net alone; returns (records, final net)."""
    model = NetTrainable(net, ds.X, eta1, eta2)

    def record(t, u, mse):
        return {"step": t, "w_move": float(np.linalg.norm(model.net.W - net.W)),
                "v_move": float(np.linalg.norm(model.net.v - net.v)),
                "u": u["net"] if keep_predictions else None}

    records = run_lockstep("training", {"net": model}, ds.y, max(eta1, eta2), T, record)
    return records, model.net


def test_horizon_rule():
    # resolve_run holds the one horizon rule, T = c d log(d) / eta, floored,
    # at least 1
    from earlylin.harness import CoupledRunConfig, resolve_run

    def horizon(d, eta, c=0.25):
        return resolve_run(CoupledRunConfig(
            mode="first", data=DataSpec(identity_covariance(d), "gaussian", 8, 0),
            m=2, eta=eta, horizon_c=c))[1]

    assert horizon(64, 1.0) == int(0.25 * 64 * math.log(64))
    assert horizon(2, 100.0) == 1  # floor is 1
    assert horizon(64, 2.0, c=0.1) == int(0.1 * 64 * math.log(64) / 2.0)


def test_train_zero_steps_records_only_the_initial_state():
    net = symmetric_init(8, 4, ERF, seed=0)
    records, _ = train(net, small_dataset(d=4), eta1=0.1, T=0)
    assert len(records) == 1
    assert records[0]["w_move"] == 0.0 and records[0]["v_move"] == 0.0


def test_train_requires_a_positive_rate():
    net = symmetric_init(8, 4, ERF, seed=0)
    with pytest.raises(ValueError, match="learning rate"):
        train(net, small_dataset(d=4), T=5)
    with pytest.raises(ValueError, match="learning rate"):
        train(net, small_dataset(d=4), eta1=0.1, eta2=-0.1, T=5)


def test_train_frozen_layers_stay_bit_identical():
    ds = small_dataset(n=20, d=5, seed=2)
    net = symmetric_init(12, 5, ERF, seed=1)
    first_only, first_net = train(net, ds, eta1=0.5, T=8)
    np.testing.assert_array_equal(first_net.v, net.v)
    assert np.any(first_net.W != net.W)
    second_only, second_net = train(net, ds, eta2=0.5, T=8)
    np.testing.assert_array_equal(second_net.W, net.W)
    assert np.any(second_net.v != net.v)
    assert first_only[-1]["v_move"] == 0.0
    assert second_only[-1]["w_move"] == 0.0


def test_train_does_not_mutate_its_input_net():
    net = symmetric_init(8, 4, ERF, seed=0)
    W_before, v_before = net.W.copy(), net.v.copy()
    train(net, small_dataset(d=4), eta1=0.3, eta2=0.3, T=5)
    np.testing.assert_array_equal(net.W, W_before)
    np.testing.assert_array_equal(net.v, v_before)


def test_train_is_deterministic_and_matches_gd_step():
    ds = small_dataset(n=24, d=5, seed=3)
    net = symmetric_init(10, 5, TANH, seed=4)
    a, a_net = train(net, ds, eta1=0.2, eta2=0.2, T=6, keep_predictions=True)
    b, b_net = train(net, ds, eta1=0.2, eta2=0.2, T=6, keep_predictions=True)
    for ra, rb in zip(a, b):
        np.testing.assert_array_equal(ra["u"], rb["u"])
    # replay the same schedule with the loss gradients (same math, different
    # scalar-folding, so equal only up to roundoff)
    cur = net.copy()
    for _ in range(6):
        grad_W, grad_v = loss_gradients(cur, ds.X, ds.y)
        cur = TwoLayerNet(cur.W - 0.2 * grad_W, cur.v - 0.2 * grad_v, cur.act)
    np.testing.assert_allclose(a_net.W, cur.W, rtol=1e-12, atol=1e-15)
    np.testing.assert_allclose(a_net.v, cur.v, rtol=1e-12, atol=1e-15)


def test_train_recorder_sees_every_step():
    seen = []
    net = symmetric_init(8, 4, ERF, seed=0)
    ds = small_dataset(d=4)
    model = NetTrainable(net, ds.X, 0.1, 0.0)

    def record(t, u, mse):
        seen.append((t, mse["net"]))
        return t

    rows = run_lockstep("training", {"net": model}, ds.y, 0.1, 4, record)
    assert [t for t, _ in seen] == rows == [0, 1, 2, 3, 4]
    assert seen[0][1] == np.mean((forward(net, ds.X) - ds.y) ** 2)
    assert seen[-1][1] == np.mean((forward(model.net, ds.X) - ds.y) ** 2)


@pytest.mark.parametrize("eta1, per_run", [(0.0, 1), (0.3, None)])
def test_train_computes_features_only_when_w_moves(rows_per_call, eta1, per_run):
    ds = small_dataset(n=20, d=5, seed=2)
    calls = rows_per_call(network, "preactivations", "phi")
    train(symmetric_init(12, 5, ERF, seed=1), ds, eta1=eta1, eta2=0.3, T=6)
    for rows in calls.values():
        assert rows == [20] * (per_run or 6 + 1)


def test_train_divergence_aborts_with_diagnostic():
    ds = small_dataset(n=16, d=4, seed=0)
    net = symmetric_init(8, 4, ERF, seed=1)
    with pytest.raises(DivergenceError, match="diverged at step") as err:
        train(net, ds, eta1=1e5, eta2=1e5, T=200)
    assert 1 <= err.value.step <= 200 and list(err.value.mses) == ["net"]
    assert err.value.eta == 1e5 and err.value.T == 200
    # the rows recorded before the failing step travel with the error
    assert [r["step"] for r in err.value.records] == list(range(err.value.step))


def test_mean_squared_error_has_the_bits_of_the_plain_mean():
    rng = np.random.default_rng(31)
    for size in range(1, 6001):
        u = rng.standard_normal(size) * 10.0 ** rng.uniform(-3, 3)
        y = rng.standard_normal(size)
        assert network.mean_squared_error(u, y) == float(np.mean((u - y) ** 2)), size


def test_mean_squared_error_overflows_to_inf_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for u, y in (([1e200, 0.0], [0.0, 0.0]), ([1e308, 1.0], [-1e308, 1.0])):
            assert network.mean_squared_error(np.array(u), np.array(y)) == math.inf
        assert math.isnan(network.mean_squared_error(np.array([np.inf, 0.0]),
                                                     np.array([np.inf, 0.0])))


def test_weight_movement_stays_within_the_early_time_radius():
    d, eta, c = 64, 1.0, 0.25
    ds = Dataset(X=gaussian(512, d, seed=5), y=np.sign(gaussian(512, d, seed=5)[:, 0]))
    net = symmetric_init(256, d, ERF, seed=6)
    T = max(1, int(c * d * math.log(d) / eta))
    records, _ = train(net, ds, eta1=eta, eta2=eta, T=T)
    assert max(r["w_move"] for r in records) <= math.sqrt(d * math.log(d))


# --------------------------------------------------------------------- cnn

def circular_correlation(w, x):
    """(w * x)[i] = sum_j w[j] x[i+j] with wraparound indexing."""
    return np.correlate(np.concatenate([x, x[: w.size - 1]]), w, mode="valid")


def test_cnn_shapes_and_patch_consistency():
    cnn = cnn_init(m=3, q=2, d=5, act=ERF, seed=0)
    X = gaussian(4, 5, seed=1)
    Z = cnn_preactivations(cnn, X)
    assert Z.shape == (4, 5, 3)
    for r in range(3):
        np.testing.assert_allclose(
            Z[0, :, r], circular_correlation(cnn.W[r], X[0]) / math.sqrt(2), rtol=1e-14)


def test_cnn_forward_matches_explicit_sum():
    cnn = cnn_init(m=4, q=3, d=6, act=TANH, seed=2)
    X = gaussian(5, 6, seed=3)
    want = np.empty(5)
    for i in range(5):
        total = 0.0
        for r in range(cnn.m):
            conv = circular_correlation(cnn.W[r], X[i]) / math.sqrt(cnn.q)
            total += cnn.V[r] @ phi(TANH, conv)
        want[i] = total / math.sqrt(cnn.m * cnn.d)
    np.testing.assert_allclose(cnn_forward(cnn, X), want, rtol=1e-12)


def test_cnn_rejects_oversized_filter():
    with pytest.raises(ValueError, match="exceeds"):
        Cnn1D(W=np.ones((2, 5)), V=np.ones((2, 4)), act=ERF)


def test_cnn_loss_gradients_match_finite_differences():
    X = gaussian(6, 5, seed=4)
    y = np.sin(X[:, 0])
    cnn = cnn_init(m=3, q=2, d=5, act=ERF, seed=5)

    def loss():
        return 0.5 * np.mean((cnn_forward(cnn, X) - y) ** 2)

    grad_W, grad_V = cnn_loss_gradients(cnn, X, y)
    np.testing.assert_allclose(grad_W, fd_loss_gradient(loss, cnn.W),
                               rtol=1e-5, atol=1e-12)
    np.testing.assert_allclose(grad_V, fd_loss_gradient(loss, cnn.V),
                               rtol=1e-5, atol=1e-12)
