"""Moment and bivariate-expectation oracles.

Reference values come from routes independent of the implementation:
closed forms (split-Gaussian integrals, the arcsin formula for erf pairs,
Stein's identity), adaptive quadrature via scipy.integrate.quad, and
fixed-seed Monte Carlo where no closed form exists.
"""

import math
import multiprocessing
import sys
import threading
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import special
from scipy.integrate import quad

from earlylin import activations
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
)
from earlylin.datagen import identity_covariance

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


# ------------------------------------------------- blocked (threaded) evaluation

def expression_phi(act, z):
    """phi as the whole-array expressions that define it."""
    if act.kind == "erf":
        return special.erf(z)
    if act.kind == "tanh":
        return np.tanh(z)
    if act.kind == "sigmoid":
        return special.expit(z)
    if act.kind == "softplus":
        return np.logaddexp(0.0, z)
    return np.where(z >= 0.0, z, act.negative_slope * z)


def expression_phi_prime(act, z):
    """phi' as the whole-array expressions that define it."""
    if act.kind == "erf":
        return (2.0 / math.sqrt(math.pi)) * np.exp(-np.square(z))
    if act.kind == "tanh":
        t = np.tanh(z)
        return 1.0 - t * t
    if act.kind == "sigmoid":
        s = special.expit(z)
        return s * (1.0 - s)
    if act.kind == "softplus":
        return special.expit(z)
    return np.where(z >= 0.0, 1.0, act.negative_slope)


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def evaluate_with(blocks, threshold, f, act, z):
    """f(act, z) cut into `blocks` blocks from `threshold` elements on."""
    pool, _ = activations._executor()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(activations, "PARALLEL_MIN_SIZE", threshold)
        if pool is not None:
            mp.setattr(activations, "_executor", lambda: (pool, blocks))
        return f(act, z)


SERIAL = 1 << 62  # a threshold no input reaches
SHAPES = [(), (1,), (2,), (7,), (3, 5, 7), (1001, 257), (1001, 263),
          (activations.PARALLEL_MIN_SIZE - 1,), (activations.PARALLEL_MIN_SIZE,)]


@settings(max_examples=80, deadline=None)
@given(act=st.sampled_from(ALL_ACTS + [leaky_relu(-0.5), leaky_relu(2.5)]),
       shape=st.sampled_from(SHAPES),
       fortran=st.booleans(), blocks=st.integers(1, 7),
       small_threshold=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_blocked_evaluation_is_bit_identical_to_the_serial_kernel(
        act, shape, fortran, blocks, small_threshold, seed):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(shape) * 4.0
    if z.ndim:  # the kink of the pw-linear kinds, with both signs of zero
        z.flat[:: max(1, z.size // 5)] = 0.0
        z.flat[1:: max(2, z.size // 5)] = -0.0
    z = np.asfortranarray(z) if fortran else np.ascontiguousarray(z)
    z_before = z.copy()
    threshold = 1 if small_threshold else activations.PARALLEL_MIN_SIZE
    for f, expression in ((phi, expression_phi), (phi_prime, expression_phi_prime)):
        serial = evaluate_with(1, SERIAL, f, act, z)
        blocked = evaluate_with(blocks, threshold, f, act, z)
        assert same_bits(blocked, serial), (act.kind, f.__name__)
        assert same_bits(serial, expression(act, z)), (act.kind, f.__name__)
        assert blocked.flags.f_contiguous == z.flags.f_contiguous
        assert same_bits(z, z_before)  # the input is untouched


def test_non_contiguous_input_gives_the_same_values():
    z = np.random.default_rng(8).standard_normal((600, 1000))[:, ::2]
    got = evaluate_with(3, 1, phi, ERF, z)
    assert same_bits(got, special.erf(z))


def test_large_inputs_use_every_usable_core():
    _, cores = activations._executor()
    assert cores == len(activations.os.sched_getaffinity(0))
    seen = set()
    with pytest.MonkeyPatch.context() as mp:
        real = activations._erf_into

        def spy(z, out):
            seen.add(threading.get_ident())
            real(z, out)

        mp.setitem(activations._PHI_INTO, "erf", spy)
        phi(ERF, np.ones(activations.PARALLEL_MIN_SIZE))
        assert len(seen) == cores
        seen.clear()
        phi(ERF, np.ones(activations.PARALLEL_MIN_SIZE - 1))
        assert seen == {threading.get_ident()}  # small: the caller alone


def overflowing_erf_input():
    z = np.zeros(activations.PARALLEL_MIN_SIZE + 11)
    z[-1] = 1e200  # in the last block: a pool thread squares it
    return z


@pytest.mark.parametrize("act", ALL_ACTS, ids=lambda a: a.kind)
@pytest.mark.parametrize("blocks", [1, 2, 5])
def test_worker_threads_run_under_the_callers_error_state(act, blocks):
    z = np.full(activations.PARALLEL_MIN_SIZE + 11, 1e200)
    outcomes = []
    for b, threshold in ((1, SERIAL), (blocks, 1)):
        with np.errstate(over="raise"):
            try:
                evaluate_with(b, threshold, phi_prime, act, z)
                outcomes.append("returned")
            except FloatingPointError:
                outcomes.append("raised")
    assert outcomes[0] == outcomes[1]
    assert outcomes[0] == ("raised" if act.kind == "erf" else "returned")


def test_a_worker_exception_reaches_the_caller():
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        evaluate_with(4, 1, phi_prime, ERF, overflowing_erf_input())
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with np.errstate(over="ignore"):
            got = evaluate_with(4, 1, phi_prime, ERF, overflowing_erf_input())
    assert caught == [] and got[-1] == 0.0


def _phi_in_child(queue):
    z = np.linspace(-3.0, 3.0, activations.PARALLEL_MIN_SIZE + 3)
    queue.put(same_bits(phi(ERF, z), special.erf(z)))


@pytest.mark.skipif(sys.platform == "win32", reason="needs fork")
def test_a_forked_child_can_use_the_pool():
    phi(ERF, np.zeros(activations.PARALLEL_MIN_SIZE))  # the parent's pool exists
    ctx = multiprocessing.get_context("fork")
    queue = ctx.Queue()
    child = ctx.Process(target=_phi_in_child, args=(queue,))
    child.start()
    try:
        ok = queue.get(timeout=60)
    finally:
        child.join(timeout=60)
        if child.is_alive():
            child.kill()
    assert ok is True
    assert not child.is_alive() and child.exitcode == 0


def test_the_pool_is_created_once_under_concurrent_first_calls(monkeypatch):
    created = []

    class CountingPool(activations.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            created.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(activations, "ThreadPoolExecutor", CountingPool)
    monkeypatch.setattr(activations, "_pool", None)
    monkeypatch.setattr(activations, "_pool_size", 0)
    z = np.random.default_rng(4).standard_normal(activations.PARALLEL_MIN_SIZE)
    want = special.erf(z)
    results = [None] * 6  # more callers than cores
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        barrier = threading.Barrier(len(results))

        def call(i):
            barrier.wait()
            results[i] = phi(ERF, z)

        threads = [threading.Thread(target=call, args=(i,)) for i in range(len(results))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
        for pool in created:
            pool.shutdown()
    assert all(r is not None and same_bits(r, want) for r in results)
    assert len(created) == (1 if len(activations.os.sched_getaffinity(0)) > 1 else 0)


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
    m = moments(ERF)  # the default order, 64
    # E[erf'(g)] = (2/sqrt(pi)) E[exp(-g^2)] = 2/sqrt(3 pi)
    np.testing.assert_allclose(m.zeta, 2.0 / math.sqrt(3.0 * math.pi), rtol=1e-12)
    # E[erf'(g)^2] = (4/pi) E[exp(-2 g^2)] = 4/(pi sqrt(5)); the 64-point rule
    # is 9e-12 off here, the 128-point rule exact to rounding
    gamma = 4.0 / (math.pi * math.sqrt(5.0))
    np.testing.assert_allclose(m.gamma, gamma, rtol=1e-11)
    np.testing.assert_allclose(moments(ERF, 128).gamma, gamma, rtol=1e-12)
    # erf is odd and erf' even, so every theta vanishes
    assert abs(m.theta0) < 1e-12
    assert abs(m.theta1) < 1e-12
    assert abs(m.theta2) < 1e-12


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


@pytest.mark.parametrize("act", [RELU, leaky_relu(-0.5), IDENTITY], ids=lambda a: a.kind)
def test_piecewise_linear_moments_do_not_depend_on_the_order(act):
    # closed forms: the order is recorded, never used
    default = moments(act)
    for order in (1, 2, 16, 63, 64, 256):
        assert moments(act, order) == replace(default, quad_order=order)


# ------------------------------------------------------------------------ nu

def test_nu_identity_covariance_is_theta1():
    m = moments(RELU)
    assert nu(m, identity_covariance(12), 12) == m.theta1  # tr(I^2)/d = 1 exactly
    assert nu(moments(ERF), identity_covariance(12), 12) == pytest.approx(0.0, abs=1e-12)


# ------------------------------------------------------- bivariate: smooth

def erf_pair_expectation(c, s1=1.0, s2=1.0):
    """E[erf(g1) erf(g2)] for centered jointly Gaussian (g1, g2):
    (2/pi) arcsin(2c / sqrt((1+2 s1^2)(1+2 s2^2)))."""
    return (2.0 / math.pi) * math.asin(
        2.0 * c / math.sqrt((1 + 2 * s1 * s1) * (1 + 2 * s2 * s2)))


@pytest.mark.parametrize("rho", [-0.9, -0.3, 0.0, 0.25, 0.7, 1.0])
def test_erf_product_matches_arcsin_formula(rho):
    got = bivariate_expectation(ERF, "phi", 1.0, 1.0, rho)
    np.testing.assert_allclose(got, erf_pair_expectation(rho), atol=1e-10)


def test_erf_product_nonunit_variances():
    got = bivariate_expectation(ERF, "phi", 2.25, 0.49, -0.6)
    np.testing.assert_allclose(got, erf_pair_expectation(-0.6, 1.5, 0.7), atol=1e-10)


def test_independent_factorizes_to_product_of_means():
    m = moments(ERF)
    got = bivariate_expectation(ERF, "phi_prime", 1.0, 1.0, 0.0)
    np.testing.assert_allclose(got, m.zeta**2, rtol=1e-10)


def test_full_correlation_gives_second_moment():
    m = moments(ERF)
    got = bivariate_expectation(ERF, "phi_prime", 1.0, 1.0, 1.0)
    np.testing.assert_allclose(got, m.gamma, rtol=1e-9)


def test_bivariate_expectation_broadcasts_over_arrays():
    a = np.array([[0.5], [2.0]])
    b = np.array([1.0, 1.5, 3.0])
    c = 0.3 * np.sqrt(a * b)
    for act in (ERF, RELU, leaky_relu(-0.5), TANH):
        for part in ("phi", "phi_prime"):
            got = bivariate_expectation(act, part, a, b, c)
            assert got.shape == (2, 3)
            for i in range(2):
                for j in range(3):
                    one = bivariate_expectation(act, part, a[i, 0], b[j], c[i, j])
                    assert got[i, j] == pytest.approx(float(one), rel=1e-14, abs=1e-300)
    with pytest.raises(ValueError, match="part"):
        bivariate_expectation(ERF, "phi_second", 1.0, 1.0, 0.0)


# ------------------------------------------------- bivariate: piecewise-linear

def test_relu_product_special_points():
    # independent: E[relu]^2; identical: E[relu^2] = 1/2; opposite: 0
    np.testing.assert_allclose(
        bivariate_expectation(RELU, "phi", 1, 1, 0), KAPPA**2, rtol=1e-12)
    np.testing.assert_allclose(
        bivariate_expectation(RELU, "phi", 1, 1, 1), 0.5, rtol=1e-12)
    assert bivariate_expectation(RELU, "phi", 1, 1, -1) == pytest.approx(0.0, abs=1e-12)


def test_relu_prime_product_is_orthant_probability():
    for rho in (-0.5, 0.0, 0.3, 0.8):
        want = (math.pi - math.acos(rho)) / (2.0 * math.pi)
        got = bivariate_expectation(RELU, "phi_prime", 1.0, 1.0, rho)
        np.testing.assert_allclose(got, want, rtol=1e-12, err_msg=f"rho={rho}")


def mc_pair(f, lam, n=4_000_000, seed=2024):
    lam = np.asarray(lam, dtype=float)
    rng = np.random.default_rng(seed)
    L = np.linalg.cholesky(lam + 1e-15 * np.eye(2))
    G = rng.standard_normal((n, 2)) @ L.T
    vals = f(G[:, 0]) * f(G[:, 1])
    return vals.mean(), vals.std() / math.sqrt(n)


@pytest.mark.parametrize("lam", [
    [[1.0, 0.5], [0.5, 1.0]],
    [[1.44, -0.3], [-0.3, 0.81]],
])
def test_relu_pair_against_monte_carlo(lam):
    got = bivariate_expectation(RELU, "phi", lam[0][0], lam[1][1], lam[0][1])
    est, se = mc_pair(lambda z: phi(RELU, z), lam)
    assert abs(got - est) < 4 * se


def test_degenerate_rank_one_covariance():
    # c = s1 s2 means g2 = (s2/s1) g1 almost surely
    got = bivariate_expectation(RELU, "phi", 4.0, 1.0, 2.0)
    # E[relu(2g) relu(g)] = 2 E[relu(g)^2] = 1
    np.testing.assert_allclose(got, 1.0, rtol=1e-10)


def test_zero_variance_factor_pins_value_at_zero():
    # z1 = 0: E[erf'(0) erf'(z2)] = (2/sqrt(pi)) E[erf'(g)] = 4/(pi sqrt(3))
    got = bivariate_expectation(ERF, "phi_prime", 0.0, 1.0, 0.0)
    assert got == pytest.approx(4.0 / (math.pi * math.sqrt(3.0)), rel=1e-15)
    assert bivariate_expectation(ERF, "phi", 0.0, 1.0, 0.0) == 0.0  # erf(0) E[erf] = 0


@pytest.mark.parametrize("act", ALL_ACTS, ids=lambda a: a.kind)
def test_bivariate_expectation_rejects_what_is_not_a_covariance(act):
    for part in ("phi", "phi_prime"):
        with pytest.raises(ValueError, match="needs variances .* got -1.0"):
            bivariate_expectation(act, part, -1.0, 1.0, 0.0)
        with pytest.raises(ValueError, match="Cauchy-Schwarz"):
            bivariate_expectation(act, part, 1.0, 1.0, 3.0)
        with pytest.raises(ValueError, match="Cauchy-Schwarz"):  # one bad entry of many
            bivariate_expectation(act, part, 1.0, [1.0, 4.0], [0.5, -2.0 * (1 + 1e-11)])
        # past sqrt(ab) by rounding only: taken as rho = -1
        near = bivariate_expectation(act, part, 2.0, 0.5, -1.0 * (1 + 1e-15))
        assert near == pytest.approx(bivariate_expectation(act, part, 2.0, 0.5, -1.0),
                                     rel=1e-12, abs=1e-15)
        if act.kind == "erf":
            assert np.isfinite(bivariate_expectation(act, part, 0.0, 1.0, 0.0))
            with pytest.raises(ValueError, match="Cauchy-Schwarz"):
                bivariate_expectation(act, part, 0.0, 1.0, 1e-300)
        else:
            with pytest.raises(ValueError, match="needs variances > 0, got 0.0"):
                bivariate_expectation(act, part, [1.0, 0.0], 1.0, 0.0)


def test_bivariate_smooth_convergence_in_order():
    lo = bivariate_expectation(TANH, "phi", 1.0, 1.0, 0.6, order=48)
    hi = bivariate_expectation(TANH, "phi", 1.0, 1.0, 0.6, order=128)
    np.testing.assert_allclose(lo, hi, atol=1e-8)


SWAP_PARTS = [(act, part) for act in ALL_ACTS + [leaky_relu(-0.5)]
              for part in ("phi", "phi_prime")]


@settings(max_examples=300, deadline=None)
@given(f=st.sampled_from(SWAP_PARTS),
       a=st.floats(1e-3, 1.0), b=st.floats(1e-3, 1.0),
       rho=st.one_of(st.sampled_from([-1.0, 1.0]), st.floats(-1.0, 1.0)))
def test_bivariate_expectation_is_symmetric_under_a_swap(f, a, b, rho):
    act, part = f
    c = rho * math.sqrt(a * b)
    got = bivariate_expectation(act, part, a, b, c)
    swapped = bivariate_expectation(act, part, b, a, c)
    # A smooth non-erf factor is integrated along the other Cholesky factor
    # once swapped, so the two differ by the quadrature error (below 1e-8 at
    # variances up to 1); the closed forms are symmetric in a and b.
    tol = 1e-7 if act.kind in ("tanh", "sigmoid", "softplus") else 0.0
    assert abs(got - swapped) <= tol * max(1.0, abs(got))
