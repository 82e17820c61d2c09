import math

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
    bivariate_expectation,
    leaky_relu,
    moments,
    nu,
    phi,
    phi_prime,
)
from earlylin import activations, kernels, network
from earlylin.datagen import DataSpec, generate_hypercube, generate_inputs, identity_covariance
from earlylin.kernels import (
    DecayFit,
    KernelMatrix,
    cnn_infinite_ntk,
    decay_fit,
    expected_ntk_first,
    expected_ntk_second,
    frobenius_norm,
    linear_kernel,
    ntk_first_layer,
    ntk_second_layer,
    spectral_norm,
)
from earlylin.linmodel import FeatureMap, features, norm_feature
from earlylin.network import (
    jacobian_second_layer,
    preactivations,
    random_init,
    symmetric_init,
    TwoLayerNet,
)

ERF_GAMMA = 4.0 / (math.pi * math.sqrt(5.0))          # E[erf'(g)^2]
ERF_PAIR_UNIT = 2.0 / math.pi * math.asin(2.0 / 3.0)  # E[erf(g)^2], g standard


def gaussian(n, d, seed=0):
    return generate_inputs(DataSpec(identity_covariance(d), "gaussian", n, seed))


def hypercube(n, d, seed=0):
    return generate_hypercube(n, d, seed)


# ------------------------------------------------------- empirical kernels

def test_first_layer_kernel_with_identity_activation_is_the_data_gram():
    net = random_init(16, 6, IDENTITY, seed=0)
    X = gaussian(10, 6, seed=1)
    np.testing.assert_allclose(ntk_first_layer(net, X).values, X @ X.T / 6,
                               rtol=1e-14, atol=1e-15)


def test_first_layer_kernel_single_point_formula():
    net = random_init(32, 5, TANH, seed=2)
    x = gaussian(1, 5, seed=3)
    g = phi_prime(TANH, (x @ net.W.T / math.sqrt(5)).ravel())
    want = (np.linalg.norm(x) ** 2 / 5) * np.mean(g**2)
    np.testing.assert_allclose(ntk_first_layer(net, x).values, [[want]], rtol=1e-12)


def test_first_layer_kernel_matches_matrix_free_jacobian_gram():
    net = random_init(24, 7, ERF, seed=4)
    X = gaussian(8, 7, seed=5)
    K = ntk_first_layer(net, X).values
    # J1 delta = (phi'(Z) (.) X delta^T) v / sqrt(m d), J1^T r = v (.) (phi'(Z) (.) r)^T X / sqrt(m d)
    G = phi_prime(ERF, preactivations(net, X))
    scale = math.sqrt(24 * 7)
    for i in range(8):
        e = np.zeros(8)
        e[i] = 1.0
        delta = net.v[:, None] * ((G * e[:, None]).T @ X) / scale
        col = (G * (X @ delta.T)) @ net.v / scale
        np.testing.assert_allclose(col, K[:, i], rtol=1e-10, atol=1e-14)


def test_second_layer_kernel_of_zero_inputs_with_odd_activation():
    net = random_init(12, 4, ERF, seed=0)
    np.testing.assert_array_equal(ntk_second_layer(net, np.zeros((5, 4))).values,
                                  np.zeros((5, 5)))


def test_second_layer_kernel_is_the_jacobian_gram():
    net = random_init(18, 6, SIGMOID, seed=6)
    X = gaussian(9, 6, seed=7)
    J2 = jacobian_second_layer(net, X)
    np.testing.assert_allclose(ntk_second_layer(net, X).values, J2 @ J2.T, atol=1e-13)


def test_second_layer_kernel_entry_noise_scales_as_inverse_sqrt_width():
    X = gaussian(3, 8, seed=8)
    vals = {m: [] for m in (64, 256)}
    for m in vals:
        for seed in range(200):
            vals[m].append(ntk_second_layer(random_init(m, 8, TANH, seed), X).values[0, 1])
    ratio = np.std(vals[64], ddof=1) / np.std(vals[256], ddof=1)
    assert 1.7 <= ratio <= 2.3  # quadrupling m should halve the std


def ntk_full(net, X):
    """First- plus second-layer tangent kernel."""
    return KernelMatrix(values=ntk_first_layer(net, X).values
                        + ntk_second_layer(net, X).values)


@pytest.mark.parametrize("builder", [ntk_first_layer, ntk_second_layer, ntk_full])
def test_empirical_kernels_are_symmetric_and_psd(builder):
    net = random_init(30, 6, SIGMOID, seed=11)
    X = gaussian(40, 6, seed=12)
    K = builder(net, X).values
    np.testing.assert_allclose(K, K.T, rtol=1e-10)
    eigs = np.linalg.eigvalsh(K)
    assert eigs.min() >= -1e-8 * spectral_norm(K)


# -------------------------------------------------------- expected kernels

def test_expected_first_layer_kernel_identity_activation():
    X = gaussian(6, 5, seed=0)
    np.testing.assert_allclose(expected_ntk_first(X, IDENTITY).values, X @ X.T / 5,
                               rtol=1e-13, atol=1e-15)


def test_expected_first_layer_kernel_erf_diagonal_at_unit_marginals():
    X = hypercube(3, 16, seed=1)  # every row has ||x||^2 = d exactly
    K = expected_ntk_first(X, ERF).values
    np.testing.assert_allclose(np.diag(K), np.full(3, ERF_GAMMA), rtol=1e-9)


def test_expected_second_layer_kernel_identity_activation():
    X = gaussian(6, 5, seed=2)
    np.testing.assert_allclose(expected_ntk_second(X, IDENTITY).values, X @ X.T / 5,
                               rtol=1e-13, atol=1e-15)


def test_expected_second_layer_kernel_erf_diagonal_at_unit_marginals():
    X = hypercube(3, 16, seed=3)
    K = expected_ntk_second(X, ERF).values
    np.testing.assert_allclose(np.diag(K), np.full(3, ERF_PAIR_UNIT), rtol=1e-9)


@pytest.mark.parametrize("act", [RELU, leaky_relu(-0.5)], ids=lambda a: a.kind)
def test_expected_kernels_agree_with_weight_space_monte_carlo(act):
    X = gaussian(3, 10, seed=4)
    K1 = expected_ntk_first(X, act).values
    K2 = expected_ntk_second(X, act).values
    draws = 200_000
    W = np.random.default_rng(2024).standard_normal((draws, 10))
    Z = X @ W.T / math.sqrt(10)  # (3, draws)
    Gp, Gv = phi_prime(act, Z), phi(act, Z)
    C = X @ X.T / 10
    for i in range(3):
        for j in range(3):
            prods = Gp[i] * Gp[j] * C[i, j]
            se = prods.std(ddof=1) / math.sqrt(draws)
            assert abs(prods.mean() - K1[i, j]) <= 3 * se + 1e-12
            prods = Gv[i] * Gv[j]
            se = prods.std(ddof=1) / math.sqrt(draws)
            assert abs(prods.mean() - K2[i, j]) <= 3 * se + 1e-12


def williams_erf_kernels(X):
    """Closed forms of Williams, "Computing with Infinite Networks" (NIPS 1997)
    for (z_i, z_j) ~ N(0, [[a, c], [c, b]]): E[erf' z_i erf' z_j] (times the
    data Gram, as in the first-layer kernel) and E[erf z_i erf z_j]."""
    C = X @ X.T / X.shape[1]
    a = np.diag(C)
    P = np.outer(1.0 + 2.0 * a, 1.0 + 2.0 * a)
    first = C * (4.0 / math.pi) / np.sqrt(P - 4.0 * C**2)
    second = (2.0 / math.pi) * np.arcsin(2.0 * C / np.sqrt(P))
    return first, second


def test_expected_erf_kernels_match_williams_closed_forms():
    d = 16
    X = gaussian(8, d, seed=16)
    # ||x||^2/d spread over [0.3, 3.3], where order-64 quadrature errs by up to 2e-4
    X *= np.sqrt(np.linspace(0.3, 3.3, 8) * d / np.sum(X**2, axis=1))[:, None]
    X = np.vstack([X, -X[:1], 0.9 * X[1] + 0.1 * X[2]])  # rho = -1 and rho near 1
    first, second = williams_erf_kernels(X)
    np.testing.assert_allclose(expected_ntk_first(X, ERF).values, first, rtol=1e-14, atol=0)
    np.testing.assert_allclose(expected_ntk_second(X, ERF).values, second, rtol=1e-14, atol=0)


def test_expected_erf_kernels_have_no_size_cap():
    X = gaussian(2000, 4, seed=31)
    first, second = williams_erf_kernels(X)
    K = expected_ntk_first(X, ERF).values
    np.testing.assert_allclose(K, first, rtol=1e-14, atol=0)
    assert np.array_equal(K, K.T)
    del K, first
    K = expected_ntk_second(X, ERF).values
    np.testing.assert_allclose(K, second, rtol=1e-14, atol=0)
    assert np.array_equal(K, K.T)


def test_expected_kernel_guards():
    X = gaussian(4, 3, seed=34)
    for act in (TANH, SIGMOID, SOFTPLUS):  # no closed form
        for build in (expected_ntk_first, expected_ntk_second):
            with pytest.raises(ValueError, match="no closed form"):
                build(X, act)
    X[2] = 0.0  # phi'(0) = 1 is a convention, not a Gaussian expectation
    for act in (RELU, leaky_relu(-0.5), IDENTITY):
        for build in (expected_ntk_first, expected_ntk_second):
            with pytest.raises(ValueError, match="needs variances > 0"):
                build(X, act)
    assert np.all(np.isfinite(expected_ntk_first(X, ERF).values))  # erf'(0) is no convention


@pytest.mark.parametrize("act", [RELU, leaky_relu(-0.5), IDENTITY], ids=lambda a: a.kind)
def test_expected_first_layer_diagonal_is_exact(act):
    # rho = C_ii / sqrt(C_ii C_ii) is exactly 1, so the diagonal is gamma C_ii,
    # gamma = E[phi'(g)^2] = (1 + alpha^2)/2, with no arccos(1 - ulp) error.
    X = gaussian(200, 32, seed=35)
    X *= np.sqrt(np.linspace(0.3, 3.3, 200))[:, None]
    C_ii = np.diag(X @ X.T / 32)
    alpha = act.negative_slope
    want = (1.0 + alpha * alpha) / 2.0 * C_ii
    got = np.diag(expected_ntk_first(X, act).values)
    assert np.all(np.abs(got - want) <= np.spacing(want)), act.kind


def relu_pair_expectations(a, b, c, alpha):
    """E[phi'(z1) phi'(z2)] and E[phi(z1) phi(z2)] for (z1, z2) ~ N(0, [[a, c], [c, b]])
    and phi = alpha z + (1-alpha) relu(z): each product expanded over the basis
    (1, u, relu(u), step(u)) of the standardized pair, whose cross moments are
    the half-Gaussian and arc-cosine integrals at the correlation. rho is
    rounded as c / sqrt(ab), as the kernels round it: near +-1, arccos turns
    one ulp of rho into about 1e-8."""
    k = 1.0 / math.sqrt(2.0 * math.pi)
    s1, s2 = math.sqrt(a), math.sqrt(b)
    rho = min(max(c / math.sqrt(a * b), -1.0), 1.0)
    step_step = (math.pi - math.acos(rho)) / (2.0 * math.pi)
    relu_relu = (math.sqrt(1.0 - rho * rho) + rho * (math.pi - math.acos(rho))) / (2.0 * math.pi)
    relu_step = k * (1.0 + rho) / 2.0
    table = np.array([[1.0, 0.0, k, 0.5],
                      [0.0, rho, rho / 2.0, rho * k],
                      [k, rho / 2.0, relu_relu, relu_step],
                      [0.5, rho * k, relu_step, step_step]])
    prime = np.array([alpha, 0.0, 0.0, 1.0 - alpha])
    u = np.array([0.0, alpha * s1, (1.0 - alpha) * s1, 0.0])
    v = np.array([0.0, alpha * s2, (1.0 - alpha) * s2, 0.0])
    return prime @ table @ prime, u @ table @ v


@pytest.mark.parametrize("act", [RELU, leaky_relu(-0.5)], ids=lambda a: a.kind)
def test_expected_kernels_equal_their_per_pair_expectations(act):
    # n = 2000 with an antipodal pair (rho = -1) and a near-duplicate pair
    # (rho within 1e-13 of 1) among generic rows of spread norms; every pair of
    # the special rows and 3000 random pairs are checked one at a time.
    n = 2000
    X = gaussian(n - 2, 5, seed=33)
    X *= np.sqrt(np.linspace(0.3, 3.3, n - 2))[:, None]
    X = np.vstack([X, -X[:1], X[1] + 1e-7 * X[2]])
    C = X @ X.T / 5
    special = [0, 1, n - 2, n - 1]
    rng = np.random.default_rng(36)
    pairs = [(i, j) for i in special for j in range(n)]
    pairs += list(zip(rng.integers(0, n, 3000), rng.integers(0, n, 3000)))
    rows, cols = np.array(pairs).T
    first, second = np.array([
        relu_pair_expectations(C[i, i], C[j, j], C[i, j], act.negative_slope)
        for i, j in pairs]).T
    for build, want in ((expected_ntk_first, C[rows, cols] * first),
                        (expected_ntk_second, second)):
        K = build(X, act).values
        assert np.array_equal(K, K.T), build.__name__
        np.testing.assert_allclose(K[rows, cols], want, rtol=0,
                                   atol=1e-15 * np.abs(want).max(), err_msg=build.__name__)


def test_first_layer_empirical_kernel_concentrates_to_the_expected_one():
    X = gaussian(32, 16, seed=5)
    target = expected_ntk_first(X, ERF).values
    meds = []
    for m in (2**8, 2**10, 2**12):
        devs = [spectral_norm(ntk_first_layer(symmetric_init(m, 16, ERF, seed), X).values
                              - target)
                for seed in range(10)]
        meds.append(np.median(devs))
    assert meds[0] > meds[1] > meds[2]


# ---------------------------------------------------------- linear kernels

def test_linear_kernel_erf_on_hypercube_drops_the_norm_feature():
    X = hypercube(8, 16, seed=6)
    mom = moments(ERF)
    nu_val = nu(mom, identity_covariance(16), 16)
    q = norm_feature(mom, X)
    assert np.max(np.abs(q)) <= 1e-10  # theta's vanish for erf (up to quadrature)
    Psi = features(FeatureMap("second", mom, nu_val, 16), X)
    np.testing.assert_allclose(
        Psi @ Psi.T, (mom.zeta**2 * (X @ X.T) + 0.5 * nu_val**2) / 16, atol=1e-15)


def test_linear_kernel_single_identity_point():
    X = np.full((1, 4), 1.0)  # ||x||^2 = d
    mom = moments(IDENTITY)
    K = linear_kernel(X, mom, nu(mom, identity_covariance(4), 4), "lin1").values
    np.testing.assert_allclose(K, [[1.0]], atol=1e-14)


def test_linear_kernel_trace_identity():
    X = gaussian(50, 8, seed=8)
    mom = moments(TANH)
    nu_val = nu(mom, identity_covariance(8), 8)
    K = linear_kernel(X, mom, nu_val, "lin1").values
    want = np.sum(mom.zeta**2 * np.sum(X**2, axis=1) / 8 + nu_val**2 / 8)
    np.testing.assert_allclose(np.trace(K), want, rtol=1e-12)


def test_linear_kernel_rejects_unknown_variant():
    for which in ("lin2", "lin-full", "lin3"):  # lin1 is the only linear kernel
        with pytest.raises(ValueError, match="which must be lin1"):
            linear_kernel(gaussian(3, 3), moments(ERF), 0.0, which)


def test_q_vector_is_constant_on_the_hypercube():
    mom = moments(SIGMOID)
    q = norm_feature(mom, hypercube(7, 12, seed=9))
    np.testing.assert_array_equal(q, np.full(7, mom.theta0))


# --------------------------------------------------------------- cnn kernel

def test_cnn_kernel_diagonal_is_value_plus_derivative_second_moment():
    X = hypercube(4, 12, seed=10)
    K = cnn_infinite_ntk(X, 4, ERF).values
    np.testing.assert_allclose(np.diag(K), np.full(4, ERF_PAIR_UNIT + ERF_GAMMA),
                               rtol=1e-9)


def test_cnn_kernel_patchwise_orthogonal_rows():
    # alternating signs make every circular patch of the two rows orthogonal
    X = np.array([[1.0] * 4, [1.0, -1.0, 1.0, -1.0]])
    K_erf = cnn_infinite_ntk(X, 2, ERF).values
    assert abs(K_erf[0, 1]) <= 1e-12  # P(0) = theta0^2 = 0 for erf
    K_sig = cnn_infinite_ntk(X, 2, SIGMOID).values
    np.testing.assert_allclose(K_sig[0, 1], moments(SIGMOID).theta0 ** 2, rtol=1e-10)


def test_cnn_kernel_input_guards():
    with pytest.raises(ValueError, match="\\+-1"):
        cnn_infinite_ntk(gaussian(3, 8), 2, ERF)
    with pytest.raises(ValueError, match="exceeds"):
        cnn_infinite_ntk(hypercube(3, 4), 5, ERF)


def test_cnn_kernel_matches_wide_finite_network_tangent_gram():
    # Independent oracle: the tangent Gram of a finite random CNN, written
    # out per-sample here, should approach the tabulated kernel as m grows.
    from earlylin.network import cnn_init, cnn_preactivations, _cnn_patches

    n, d, q, m = 6, 16, 4, 40_000
    X = hypercube(n, d, seed=11)
    cnn = cnn_init(m, q, d, ERF, seed=12)
    Z = cnn_preactivations(cnn, X)              # (n, d, m)
    H = phi(ERF, Z)
    # second-layer block: (1/(md)) sum_r <phi(w_r * x_i), phi(w_r * x_j)>
    K2 = np.einsum("ikr,jkr->ij", H, H) / (m * d)
    # first-layer block: (1/(mdq)) sum_r sum_kl v_rk v_rl phi' phi' <patch, patch>
    D = phi_prime(ERF, Z)
    P = _cnn_patches(X, q)                      # (n, d, q)
    A = np.einsum("ikr,rk,ikj->irj", D, cnn.V, P)  # (n, m, q) summed over positions
    K1 = np.einsum("irj,srj->is", A, A) / (m * d * q)
    K = cnn_infinite_ntk(X, q, ERF).values
    assert np.max(np.abs(K1 + K2 - K)) <= 0.05


# ----------------------------------------------------------- spectral tools

def test_spectral_norm_simple_cases():
    assert math.isclose(spectral_norm(np.diag([2.0, 1.0])), 2.0, rel_tol=1e-6)
    u = np.array([1.0, 2.0, 2.0])
    assert math.isclose(spectral_norm(np.outer(u, u)), 9.0, rel_tol=1e-6)
    assert math.isclose(spectral_norm(np.diag([3.0, -5.0])), 5.0, rel_tol=1e-6)
    assert spectral_norm(np.zeros((4, 4))) == 0.0


def test_spectral_norm_against_dense_eigensolver():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((50, 50))
        A = (A + A.T) / 2
        want = np.max(np.abs(np.linalg.eigvalsh(A)))
        assert math.isclose(spectral_norm(A), want, rel_tol=1e-6)


def dense_spectral_norm(A):
    return float(np.max(np.abs(np.linalg.eigvalsh(A))))


@pytest.mark.parametrize("n", [3, 4, 50, 300])
def test_spectral_norm_matches_eigvalsh_to_machine_precision(n):
    for seed in range(5):
        A = np.random.default_rng(seed).standard_normal((n, n))
        A = (A + A.T) / 2
        assert math.isclose(spectral_norm(A), dense_spectral_norm(A), rel_tol=1e-12)


@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["same-sign", "opposite-sign"])
def test_spectral_norm_when_the_top_two_magnitudes_tie(sign):
    # power iteration on A^2 stalls when |lambda_1| ~ |lambda_2|; the gap here is 1e-4
    n = 200
    rng = np.random.default_rng(17)
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    lam = rng.uniform(-1.0, 1.0, n)
    lam[:2] = 10.0, sign * 10.0 * (1.0 - 1e-4)
    A = (Q * lam) @ Q.T
    A = (A + A.T) / 2
    assert math.isclose(spectral_norm(A), dense_spectral_norm(A), rel_tol=1e-12)
    assert math.isclose(spectral_norm(-A), dense_spectral_norm(A), rel_tol=1e-12)


def test_spectral_norm_of_a_kernel_difference_matches_eigvalsh():
    d = 8
    X = gaussian(300, d, seed=18)
    mom = moments(ERF)
    D = (ntk_first_layer(symmetric_init(400, d, ERF, 19), X).values
         - linear_kernel(X, mom, nu(mom, identity_covariance(d), d), "lin1").values)
    assert math.isclose(spectral_norm(D), dense_spectral_norm(D), rel_tol=1e-12)


def test_spectral_norm_is_deterministic():
    A = np.random.default_rng(20).standard_normal((80, 80))
    A = A + A.T
    assert spectral_norm(A) == spectral_norm(A.copy())


def test_spectral_norm_small_and_degenerate_matrices():
    assert spectral_norm(np.zeros((0, 0))) == 0.0
    assert spectral_norm(np.array([[-4.0]])) == 4.0
    assert spectral_norm(np.zeros((300, 300))) == 0.0
    assert math.isclose(spectral_norm(np.eye(3)), 1.0, rel_tol=1e-12)
    u = np.arange(1.0, 101.0)
    assert math.isclose(spectral_norm(-np.outer(u, u)), u @ u, rel_tol=1e-12)


def test_spectral_norm_rejects_nonsquare():
    with pytest.raises(ValueError, match="square"):
        spectral_norm(np.ones((3, 4)))
    with pytest.raises(ValueError, match="square"):
        spectral_norm(np.ones(3))


def test_frobenius_norm_cases():
    assert math.isclose(frobenius_norm(np.eye(9)), 3.0, rel_tol=1e-15)
    assert frobenius_norm(np.zeros((5, 5))) == 0.0
    A = np.random.default_rng(13).standard_normal((20, 20))
    A = (A + A.T) / 2
    want = math.sqrt(np.sum(np.linalg.eigvalsh(A) ** 2))
    assert math.isclose(frobenius_norm(A), want, rel_tol=1e-12)


def test_decay_fit_recovers_an_exact_power_law():
    ds = np.array([8, 16, 32, 64])
    fit = decay_fit(ds, 3.7 * ds**-2.0)
    assert abs(fit.slope + 2.0) <= 1e-12
    assert abs(fit.intercept - math.log(3.7)) <= 1e-12
    assert fit.r_squared == 1.0


def test_decay_fit_constant_norms():
    fit = decay_fit([8, 16, 32], [2.0, 2.0, 2.0])
    assert abs(fit.slope) <= 1e-14
    assert fit.r_squared == 1.0


def test_decay_fit_r_squared_stays_in_unit_interval():
    fit = decay_fit([8, 16, 32, 64], [1.0, 3.0, 0.5, 2.0])
    assert 0.0 <= fit.r_squared <= 1.0


def test_decay_fit_guards():
    with pytest.raises(ValueError, match="at least 3"):
        decay_fit([8, 16], [1.0, 2.0])
    with pytest.raises(ValueError, match="degenerate"):
        decay_fit([8, 16, 32], [1.0, 0.0, 2.0])
    with pytest.raises(ValueError, match="positive"):
        decay_fit([8, -16, 32], [1.0, 1.0, 2.0])


# ------------------------------------ builders equal their plain expressions
# Each builder computes in place or by table lookup and skips symmetrizing;
# these pin it to the straightforward expression, symmetrized, bit for bit.

def symmetrized(K):
    return (K + K.T) / 2.0


def layouts(X):
    return [("C", np.ascontiguousarray(X)), ("F", np.asfortranarray(X))]


def half_net(net):
    h = net.m // 2
    return TwoLayerNet(W=net.W[:h], v=net.v[:h], act=net.act)


def plain_first_layer(net, X):
    """(1/m) times the sum over all m neurons, with no fold."""
    G = phi_prime(net.act, preactivations(net, X)) * net.v[None, :]
    return symmetrized(((G @ G.T) / net.m) * (X @ X.T / X.shape[1]))


def plain_second_layer(net, X):
    J2 = jacobian_second_layer(net, X)
    return symmetrized(J2 @ J2.T)


def test_empirical_kernels_equal_their_plain_expressions_exactly():
    # A mirrored net is built from its h = m/2 distinct neurons: (1/h) sums
    # over the first half. A random_init net keeps the sum over all m.
    for act in (ERF, TANH, RELU):
        net, other = symmetric_init(40, 6, act, seed=21), random_init(40, 6, act, seed=21)
        h, half = 20, half_net(net)
        for layout, X in layouts(gaussian(30, 6, seed=22)):
            G = phi_prime(act, preactivations(half, X)) * half.v[None, :]
            want = symmetrized(((G @ G.T) / h) * (X @ X.T / 6))
            got = ntk_first_layer(net, X).values
            assert np.array_equal(got, want), (act.kind, layout)
            assert np.array_equal(got, got.T), (act.kind, layout)
            J2 = phi(act, preactivations(half, X)) / math.sqrt(h)
            got = ntk_second_layer(net, X).values
            assert np.array_equal(got, symmetrized(J2 @ J2.T)), (act.kind, layout)
            assert np.array_equal(got, got.T), (act.kind, layout)

            got = ntk_first_layer(other, X).values
            assert np.array_equal(got, plain_first_layer(other, X)), (act.kind, layout)
            assert np.array_equal(got, got.T), (act.kind, layout)
            got = ntk_second_layer(other, X).values
            assert np.array_equal(got, plain_second_layer(other, X)), (act.kind, layout)
            assert np.array_equal(got, got.T), (act.kind, layout)


@pytest.mark.parametrize("act", [ERF, TANH, RELU], ids=lambda a: a.kind)
def test_mirrored_kernels_match_the_sum_over_every_neuron(act):
    X = gaussian(60, 9, seed=25)
    for m in (2, 40, 250):
        net = symmetric_init(m, 9, act, seed=26)
        K1, K2 = plain_first_layer(net, X), plain_second_layer(net, X)
        for got, want in ((ntk_first_layer(net, X).values, K1),
                          (ntk_second_layer(net, X).values, K2),
                          (ntk_full(net, X).values, K1 + K2)):
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max(), m


def test_a_net_that_is_not_exactly_mirrored_takes_the_general_path():
    X = gaussian(30, 6, seed=27)
    mirrored = symmetric_init(8, 6, TANH, seed=28)
    W = mirrored.W.copy()
    W[7, 3] = np.nextafter(W[7, 3], np.inf)  # one ulp off its twin W[3, 3]
    moved = TwoLayerNet(W=W, v=mirrored.v, act=TANH)
    # a fold would drop the moved neuron: the ulp shows in the kernels
    assert not np.array_equal(plain_first_layer(moved, X),
                              plain_first_layer(half_net(moved), X))
    assert not np.array_equal(plain_second_layer(moved, X),
                              plain_second_layer(half_net(moved), X))
    assert np.array_equal(ntk_first_layer(moved, X).values, plain_first_layer(moved, X))
    assert np.array_equal(ntk_second_layer(moved, X).values, plain_second_layer(moved, X))

    v = mirrored.v.copy()
    v[5] *= 1.5  # |v| no longer mirrored; W still is
    scaled = TwoLayerNet(W=mirrored.W, v=v, act=TANH)
    assert np.array_equal(ntk_first_layer(scaled, X).values, plain_first_layer(scaled, X))
    # v plays no part in the second-layer kernel: it still folds
    assert np.array_equal(ntk_second_layer(scaled, X).values,
                          plain_second_layer(half_net(scaled), X))


def test_a_mirrored_net_evaluates_its_distinct_neurons_only(monkeypatch):
    n, m = 30, 40
    X = gaussian(n, 6, seed=29)
    seen = {"phi": [], "phi_prime": []}
    for module, name in ((kernels, "phi_prime"), (network, "phi")):
        def counted(act, z, _name=name, _original=getattr(module, name)):
            seen[_name].append(z.size)
            return _original(act, z)
        monkeypatch.setattr(module, name, counted)
    for init, width in ((symmetric_init, m // 2), (random_init, m)):
        seen["phi"].clear(), seen["phi_prime"].clear()
        ntk_full(init(m, 6, ERF, seed=30), X)
        assert seen == {"phi": [n * width], "phi_prime": [n * width]}, init.__name__


def test_linear_kernels_equal_their_plain_expressions_exactly():
    mom = moments(RELU)  # nu is nonzero: the added term counts
    for layout, X in layouts(gaussian(25, 7, seed=23)):
        nu_val = nu(mom, identity_covariance(7), 7)
        ones, G = np.ones((25, 25)), X @ X.T
        want = (mom.zeta**2 * G + nu_val**2 * ones) / 7
        got = linear_kernel(X, mom, nu_val, "lin1").values
        assert np.array_equal(got, symmetrized(want)), layout
        assert np.array_equal(got, got.T), layout


@pytest.mark.parametrize("act", [ERF, SIGMOID], ids=lambda a: a.kind)
def test_cnn_kernel_equals_its_plain_expression_exactly(act):
    n, d, q = 20, 12, 4
    rho_values = (q - 2.0 * np.arange(q + 1)) / q
    P = bivariate_expectation(act, "phi", 1.0, 1.0, rho_values)
    Q = bivariate_expectation(act, "phi_prime", 1.0, 1.0, rho_values)
    for layout, X in layouts(hypercube(n, d, seed=24)):
        Xc = np.concatenate([X, X[:, : q - 1]], axis=1)
        acc = np.zeros((n, n))
        for k in range(d):
            R = Xc[:, k : k + q] @ Xc[:, k : k + q].T
            idx = np.rint((q - R) / 2.0).astype(np.intp)
            acc += P[idx] + Q[idx] * (R / q)
        got = cnn_infinite_ntk(X, q, act).values
        assert np.array_equal(got, symmetrized(acc / d)), layout
        assert np.array_equal(got, got.T), layout


def gemm_cnn_kernel(X, q, summand):
    """The CNN kernel as a patch Gram per offset, turned into the table index
    (q - R)/2 and looked up: the expression the mismatch counts replace."""
    n, d = X.shape
    Xc = np.concatenate([X, X[:, : q - 1]], axis=1) if q > 1 else X
    acc = np.zeros((n, n))
    idx = np.empty((n, n), dtype=np.intp)
    looked_up = np.empty((n, n))
    for k in range(d):
        patch = np.ascontiguousarray(Xc[:, k : k + q])
        R = patch @ patch.T
        R -= q
        R *= -0.5
        idx[...] = R
        np.take(summand, idx, out=looked_up)
        acc += looked_up
    acc /= d
    return acc


def cnn_summand(q, act):
    rho = (q - 2.0 * np.arange(q + 1)) / q
    P = bivariate_expectation(act, "phi", 1.0, 1.0, rho)
    Q = bivariate_expectation(act, "phi_prime", 1.0, 1.0, rho)
    return P + Q * rho


def cnn_with_blocks(blocks, threshold, X, q, act):
    """cnn_infinite_ntk cut into `blocks` row blocks from n^2 >= `threshold` on."""
    pool, _ = activations._executor()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(activations, "PARALLEL_MIN_SIZE", threshold)
        if pool is not None:
            mp.setattr(activations, "_executor", lambda: (pool, blocks))
        return cnn_infinite_ntk(X, q, act).values


@settings(max_examples=40, deadline=None)
@given(dq=st.sampled_from([(9, 1), (12, 5), (16, 7), (16, 16), (20, 16), (5, 5)]),
       n=st.sampled_from([1, 3, 40, 511, 513, 600]),
       act=st.sampled_from([ERF, TANH, RELU]),
       blocks=st.integers(1, 7), small_threshold=st.booleans(),
       seed=st.integers(0, 2**16))
def test_cnn_kernel_is_bit_identical_to_the_patch_gram_lookup(
        dq, n, act, blocks, small_threshold, seed):
    d, q = dq
    X = hypercube(n, d, seed=seed)
    k = n // 3
    X[n - k :] = -X[:k]  # opposite rows: every patch mismatches, H = q
    threshold = 1 if small_threshold else activations.PARALLEL_MIN_SIZE
    got = cnn_with_blocks(blocks, threshold, X, q, act)
    assert np.array_equal(got, gemm_cnn_kernel(X, q, cnn_summand(q, act)))
    assert np.array_equal(got, got.T)


def test_cnn_kernel_counts_past_255_mismatches():
    # q > 255 keeps the distances in uint16
    X = hypercube(6, 300, seed=32)
    X[5] = -X[0]
    for q in (260, 300):
        got = cnn_infinite_ntk(X, q, ERF).values
        assert np.array_equal(got, gemm_cnn_kernel(X, q, cnn_summand(q, ERF))), q

