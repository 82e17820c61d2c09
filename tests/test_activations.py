"""Moment and bivariate-expectation oracles.

Reference values come from routes independent of the implementation:
closed forms (split-Gaussian integrals, the arcsin formula for erf pairs,
Stein's identity), adaptive quadrature via scipy.integrate.quad, and
fixed-seed Monte Carlo where no closed form exists.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from earlylin.activations import (
    ERF,
    IDENTITY,
    RELU,
    SIGMOID,
    SOFTPLUS,
    TANH,
    Activation,
    bivariate_expectation,
    gauss_hermite,
    leaky_relu,
    moments,
    nu,
    phi,
    phi_prime,
    phi_part,
    phi_prime_part,
)
from earlylin.datagen import CovarianceSpec, identity_covariance

ALL_ACTS = [ERF, TANH, SIGMOID, SOFTPLUS, RELU, IDENTITY, leaky_relu(0.01)]

KAPPA = 1.0 / math.sqrt(2.0 * math.pi)  # E[relu(g)] for standard normal g


def gaussian_expect(f):
    """E[f(g)], g ~ N(0,1), by adaptive quadrature (independent of the
    Gauss-Hermite path under test). The tails beyond |g| = 12 carry
    e^{-72} of the mass, far below the error floor."""
    val, err = quad(lambda x: f(x) * math.exp(-x * x / 2.0) / math.sqrt(2 * math.pi),
                    -12.0, 12.0, limit=400, epsabs=1e-12, epsrel=1e-12)
    assert err < 5e-11
    return val


# ----------------------------------------------------------------- pointwise

def test_phi_values():
    z = np.array([-2.0, -0.5, 0.0, 0.5, 2.0])
    np.testing.assert_allclose(phi(RELU, z), [0, 0, 0, 0.5, 2.0])
    np.testing.assert_allclose(phi(IDENTITY, z), z)
    np.testing.assert_allclose(phi(leaky_relu(0.1), z), [-0.2, -0.05, 0, 0.5, 2.0])
    np.testing.assert_allclose(phi(TANH, z), np.tanh(z))
    np.testing.assert_allclose(phi(SIGMOID, z), 1 / (1 + np.exp(-z)))
    np.testing.assert_allclose(phi(SOFTPLUS, z), np.log(1 + np.exp(z)))
    np.testing.assert_allclose(phi(ERF, 0.3), math.erf(0.3))


def test_phi_prime_matches_finite_differences():
    h = 1e-6
    z = np.linspace(-3, 3, 41)
    z = z[np.abs(z) > 1e-3]  # keep away from relu kinks
    for act in ALL_ACTS:
        fd = (phi(act, z + h) - phi(act, z - h)) / (2 * h)
        np.testing.assert_allclose(phi_prime(act, z), fd, atol=5e-9,
                                   err_msg=act.kind)


def test_erf_phi_prime_is_the_textbook_expression_bit_for_bit():
    rng = np.random.default_rng(3)
    for z in (rng.standard_normal((50, 7)) * 3, np.asfortranarray(rng.standard_normal((6, 9))),
              np.linspace(-30, 30, 101)):
        z_before = z.copy()
        want = (2.0 / math.sqrt(math.pi)) * np.exp(-np.square(z))
        assert np.array_equal(phi_prime(ERF, z), want)
        assert np.array_equal(z, z_before)  # the input is not overwritten
    assert phi_prime(ERF, 0.0) == 2.0 / math.sqrt(math.pi)


def test_phi_prime_at_kink_uses_right_limit():
    assert phi_prime(RELU, 0.0) == 1.0
    assert phi_prime(leaky_relu(0.25), 0.0) == 1.0


def test_softplus_is_overflow_safe():
    assert np.isfinite(phi(SOFTPLUS, 800.0))
    assert phi(SOFTPLUS, 800.0) == pytest.approx(800.0)
    assert phi(SOFTPLUS, -800.0) == 0.0


# ---------------------------------------------------------------- quadrature

def test_gauss_hermite_integrates_moments_exactly():
    # order-k rule is exact for polynomials of degree 2k-1
    q = gauss_hermite(8)
    np.testing.assert_allclose(q.weights.sum(), 1.0, rtol=1e-14)
    np.testing.assert_allclose(q.weights @ q.nodes**2, 1.0, rtol=1e-13)
    np.testing.assert_allclose(q.weights @ q.nodes**4, 3.0, rtol=1e-13)
    np.testing.assert_allclose(q.weights @ q.nodes**6, 15.0, rtol=1e-13)
    assert abs(q.weights @ q.nodes) < 1e-14


@pytest.mark.parametrize("order", [0, -3, 257])
def test_gauss_hermite_order_validation(order):
    with pytest.raises(ValueError):
        gauss_hermite(order)


def test_gauss_hermite_rule_is_built_once_and_read_only():
    q = gauss_hermite(64)
    assert gauss_hermite(64) is q
    assert not q.nodes.flags.writeable and not q.weights.flags.writeable
    with pytest.raises(ValueError):
        q.nodes[0] = 0.0
    for _ in range(2):  # an invalid order raises on every call, not only the first
        with pytest.raises(ValueError):
            gauss_hermite(0)


# ------------------------------------------------------------------- moments

def test_erf_moments_closed_form():
    m = moments(ERF)
    # E[erf'(g)] = (2/sqrt(pi)) E[exp(-g^2)] = 2/sqrt(3 pi)
    np.testing.assert_allclose(m.zeta, 2.0 / math.sqrt(3.0 * math.pi), rtol=1e-12)
    # E[erf'(g)^2] = (4/pi) E[exp(-2 g^2)] = 4/(pi sqrt(5))
    np.testing.assert_allclose(m.gamma, 4.0 / (math.pi * math.sqrt(5.0)), rtol=1e-10)
    assert abs(m.theta0) < 1e-10
    assert abs(m.theta1) < 1e-10
    assert abs(m.theta2) < 1e-10


def test_relu_moments_closed_form():
    m = moments(RELU)
    assert m.zeta == pytest.approx(0.5, abs=1e-12)
    assert m.gamma == pytest.approx(0.5, abs=1e-12)
    assert m.theta0 == pytest.approx(KAPPA, abs=1e-12)
    assert m.theta1 == pytest.approx(KAPPA, abs=1e-12)
    assert m.theta2 == pytest.approx(0.0, abs=1e-12)


def test_leaky_relu_moments_interpolate():
    a = 0.2
    m = moments(leaky_relu(a))
    assert m.zeta == pytest.approx((1 + a) / 2, abs=1e-12)
    assert m.gamma == pytest.approx((1 + a * a) / 2, abs=1e-12)
    assert m.theta0 == pytest.approx((1 - a) * KAPPA, abs=1e-12)
    assert m.theta1 == pytest.approx((1 - a) * KAPPA, abs=1e-12)
    assert m.theta2 == pytest.approx(0.0, abs=1e-12)


def test_unit_slope_leaky_relu_is_identity():
    m = moments(leaky_relu(1.0), 64)
    assert m.zeta == pytest.approx(1.0, abs=1e-14)
    assert m.gamma == pytest.approx(1.0, abs=1e-14)
    assert m.theta0 == pytest.approx(0.0, abs=1e-14)
    assert m.theta1 == pytest.approx(0.0, abs=1e-14)
    mid = moments(IDENTITY)
    assert mid.zeta == 1.0 and mid.gamma == 1.0


@pytest.mark.parametrize("act", [TANH, SIGMOID, SOFTPLUS])
def test_smooth_moments_against_adaptive_quadrature(act):
    # default order is accurate to ~1e-7 even for tanh's slowly-converging
    # sech^4 integrand; order 256 should be at the quad oracle's floor
    for order, tol in ((None, 5e-7), (256, 2e-11)):
        m = moments(act, order)
        np.testing.assert_allclose(
            m.zeta, gaussian_expect(lambda g: phi_prime(act, g)), atol=tol)
        np.testing.assert_allclose(
            m.gamma, gaussian_expect(lambda g: phi_prime(act, g) ** 2), atol=tol)
        np.testing.assert_allclose(
            m.theta0, gaussian_expect(lambda g: phi(act, g)), atol=tol)
        np.testing.assert_allclose(
            m.theta1, gaussian_expect(lambda g: g * phi_prime(act, g)), atol=tol)
        np.testing.assert_allclose(
            m.theta2, gaussian_expect(lambda g: (0.5 * g**3 - g) * phi_prime(act, g)),
            atol=tol)


def test_odd_activations_have_zero_thetas():
    for act in (TANH, ERF):
        m = moments(act)
        assert abs(m.theta0) < 1e-12 and abs(m.theta1) < 1e-12 and abs(m.theta2) < 1e-12


def test_sigmoid_and_softplus_symmetry_values():
    # sigmoid(-x) = 1 - sigmoid(x) forces E[phi] = 1/2; softplus' = sigmoid
    # forces zeta = 1/2 the same way.
    assert moments(SIGMOID).theta0 == pytest.approx(0.5, abs=1e-12)
    assert moments(SOFTPLUS).zeta == pytest.approx(0.5, abs=1e-12)


def test_stein_identity_links_softplus_theta1_to_sigmoid_zeta():
    # E[g phi'(g)] = E[phi''(g)]; softplus'' = sigmoid', so theta1(softplus)
    # must equal zeta(sigmoid).
    np.testing.assert_allclose(moments(SOFTPLUS).theta1, moments(SIGMOID).zeta,
                               rtol=1e-10)


def test_moments_quadrature_order_is_recorded_and_stable():
    m128 = moments(TANH, 128)
    m192 = moments(TANH, 192)
    assert m128.quad_order == 128 and m192.quad_order == 192
    np.testing.assert_allclose(m128.zeta, m192.zeta, rtol=1e-12)


def test_piecewise_linear_rejects_low_order():
    with pytest.raises(ValueError):
        moments(RELU, 16)


# ------------------------------------------------------------------------ nu

def test_nu_identity_covariance_is_theta1():
    m = moments(RELU)
    assert nu(m, identity_covariance(12), 12) == pytest.approx(m.theta1, rel=1e-14)
    assert nu(moments(ERF), identity_covariance(12), 12) == pytest.approx(0.0, abs=1e-12)


def test_nu_scales_with_spectrum_second_moment():
    d = 4
    spec = CovarianceSpec(kind="diagonal", d=d, diagonal=(2.0, 1.0, 0.5, 0.5))
    m = moments(RELU)
    expected = m.theta1 * math.sqrt((4.0 + 1.0 + 0.25 + 0.25) / d)
    assert nu(m, spec, d) == pytest.approx(expected, rel=1e-14)


# ------------------------------------------------------- bivariate: smooth

def erf_pair_expectation(c, s1=1.0, s2=1.0):
    """E[erf(g1) erf(g2)] for centered jointly Gaussian (g1, g2):
    (2/pi) arcsin(2c / sqrt((1+2 s1^2)(1+2 s2^2)))."""
    return (2.0 / math.pi) * math.asin(
        2.0 * c / math.sqrt((1 + 2 * s1 * s1) * (1 + 2 * s2 * s2)))


@pytest.mark.parametrize("rho", [-0.9, -0.3, 0.0, 0.25, 0.7, 1.0])
def test_erf_product_matches_arcsin_formula(rho):
    f = phi_part(ERF)
    got = bivariate_expectation(f, f, [[1.0, rho], [rho, 1.0]])
    np.testing.assert_allclose(got, erf_pair_expectation(rho), atol=1e-10)


def test_erf_product_nonunit_variances():
    f = phi_part(ERF)
    lam = [[2.25, -0.6], [-0.6, 0.49]]
    got = bivariate_expectation(f, f, lam)
    np.testing.assert_allclose(got, erf_pair_expectation(-0.6, 1.5, 0.7), atol=1e-10)


def test_independent_factorizes_to_product_of_means():
    fp = phi_prime_part(ERF)
    m = moments(ERF)
    got = bivariate_expectation(fp, fp, [[1.0, 0.0], [0.0, 1.0]])
    np.testing.assert_allclose(got, m.zeta**2, rtol=1e-10)


def test_full_correlation_gives_second_moment():
    fp = phi_prime_part(ERF)
    m = moments(ERF)
    got = bivariate_expectation(fp, fp, [[1.0, 1.0], [1.0, 1.0]])
    np.testing.assert_allclose(got, m.gamma, rtol=1e-9)


# ------------------------------------------------- bivariate: piecewise-linear

def test_relu_product_special_points():
    f = phi_part(RELU)
    # independent: E[relu]^2; identical: E[relu^2] = 1/2; opposite: 0
    np.testing.assert_allclose(
        bivariate_expectation(f, f, [[1, 0], [0, 1]]), KAPPA**2, rtol=1e-12)
    np.testing.assert_allclose(
        bivariate_expectation(f, f, [[1, 1], [1, 1]]), 0.5, rtol=1e-12)
    assert bivariate_expectation(f, f, [[1, -1], [-1, 1]]) == pytest.approx(0.0, abs=1e-12)


def test_relu_prime_product_is_orthant_probability():
    fp = phi_prime_part(RELU)
    for rho in (-0.5, 0.0, 0.3, 0.8):
        want = (math.pi - math.acos(rho)) / (2.0 * math.pi)
        got = bivariate_expectation(fp, fp, [[1.0, rho], [rho, 1.0]])
        np.testing.assert_allclose(got, want, rtol=1e-12, err_msg=f"rho={rho}")


def mc_pair(f1, f2, lam, n=4_000_000, seed=2024):
    lam = np.asarray(lam, dtype=float)
    rng = np.random.default_rng(seed)
    L = np.linalg.cholesky(lam + 1e-15 * np.eye(2))
    G = rng.standard_normal((n, 2)) @ L.T
    vals = f1(G[:, 0]) * f2(G[:, 1])
    return vals.mean(), vals.std() / math.sqrt(n)


@pytest.mark.parametrize("lam", [
    [[1.0, 0.5], [0.5, 1.0]],
    [[1.44, -0.3], [-0.3, 0.81]],
])
def test_relu_pair_against_monte_carlo(lam):
    f = phi_part(RELU)
    got = bivariate_expectation(f, f, lam)
    est, se = mc_pair(f, f, lam)
    assert abs(got - est) < 4 * se


@pytest.mark.parametrize("slope", [0.0, 0.3])
def test_mixed_smooth_pl_pair_against_monte_carlo(slope):
    act = RELU if slope == 0.0 else leaky_relu(slope)
    f_pl = phi_part(act)
    f_sm = phi_part(ERF)
    lam = [[1.0, 0.4], [0.4, 0.64]]
    got = bivariate_expectation(f_sm, f_pl, lam)
    est, se = mc_pair(f_sm, f_pl, lam)
    assert abs(got - est) < 4 * se
    # and symmetric argument order agrees
    flipped = bivariate_expectation(f_pl, f_sm, [[0.64, 0.4], [0.4, 1.0]])
    np.testing.assert_allclose(flipped, got, rtol=1e-8)


def test_mixed_pair_identity_times_relu_closed_form():
    # E[g1 relu(g2)] = c E[step] + 0 ... reduces to c/2 + 0 for unit marginals?
    # Direct: E[g1 relu(g2)] = cov * E[relu'(g2)] = c/2 by Stein on g2.
    f_id = phi_part(IDENTITY)
    f_relu = phi_part(RELU)
    for c in (-0.7, 0.2, 0.9):
        got = bivariate_expectation(f_id, f_relu, [[1.0, c], [c, 1.0]])
        np.testing.assert_allclose(got, c / 2.0, atol=1e-10)


def test_degenerate_rank_one_covariance():
    # c = s1 s2 means g2 = (s2/s1) g1 almost surely
    f = phi_part(RELU)
    got = bivariate_expectation(f, f, [[4.0, 2.0], [2.0, 1.0]])
    # E[relu(2g) relu(g)] = 2 E[relu(g)^2] = 1
    np.testing.assert_allclose(got, 1.0, rtol=1e-10)


def test_zero_variance_factor_pins_value_at_zero():
    f = phi_part(RELU)
    got = bivariate_expectation(f, f, [[0.0, 0.0], [0.0, 1.0]])
    assert got == pytest.approx(0.0, abs=1e-14)  # relu(0) * E[relu] = 0


def test_bivariate_rejects_non_psd():
    f = phi_part(ERF)
    with pytest.raises(ValueError):
        bivariate_expectation(f, f, [[1.0, 2.0], [2.0, 1.0]])


def test_bivariate_smooth_convergence_in_order():
    f = phi_part(TANH)
    lam = [[1.0, 0.6], [0.6, 1.0]]
    lo = bivariate_expectation(f, f, lam, order=48)
    hi = bivariate_expectation(f, f, lam, order=128)
    np.testing.assert_allclose(lo, hi, atol=1e-8)
