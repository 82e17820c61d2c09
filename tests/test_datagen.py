import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from earlylin.activations import ERF
from earlylin import datagen
from earlylin.cli import _write_csv
from earlylin.datagen import (
    DataSpec,
    LabelRangeWarning,
    concentration_report,
    generate_hypercube,
    generate_inputs,
    identity_covariance,
    labels_norm_dependent,
    labels_teacher_sign,
    load_matrix,
)
from earlylin.network import random_init


def spec(n, d, base="gaussian", seed=0):
    return DataSpec(identity_covariance(d), base, n, seed)


# ------------------------------------------------------------- generation

def test_generation_is_deterministic():
    a = generate_inputs(spec(50, 7, seed=123))
    b = generate_inputs(spec(50, 7, seed=123))
    np.testing.assert_array_equal(a, b)
    c = generate_inputs(spec(50, 7, seed=124))
    assert np.any(a != c)


def test_rows_depend_only_on_their_index():
    # growing n must not change earlier rows (counter-based per-row streams)
    big = generate_inputs(spec(100, 5, seed=9))
    small = generate_inputs(spec(30, 5, seed=9))
    np.testing.assert_array_equal(big[:30], small)


@pytest.mark.parametrize("base", ["gaussian", "rademacher", "uniform-scaled"])
def test_base_distributions_have_unit_coordinate_variance(base):
    X = generate_inputs(spec(40_000, 6, base=base, seed=5))
    np.testing.assert_allclose(X.mean(axis=0), 0.0, atol=0.03)
    np.testing.assert_allclose(X.var(axis=0), 1.0, atol=0.04)


def test_rademacher_entries_are_signs():
    X = generate_inputs(spec(200, 4, base="rademacher", seed=1))
    assert set(np.unique(X)) == {-1.0, 1.0}


def test_uniform_entries_are_bounded_by_sqrt3():
    X = generate_inputs(spec(5000, 3, base="uniform-scaled", seed=1))
    assert np.abs(X).max() <= math.sqrt(3.0) + 1e-12


def test_hypercube_entries_and_determinism():
    X = generate_hypercube(64, 9, seed=2)
    assert X.shape == (64, 9)
    assert set(np.unique(X)) == {-1.0, 1.0}
    np.testing.assert_array_equal(X, generate_hypercube(64, 9, seed=2))
    np.testing.assert_array_equal(X[:16], generate_hypercube(16, 9, seed=2))


def fresh_row_generator(seed, domain, row):
    """Row `row`'s stream as its own generator: Philox keyed by (seed, domain)
    with the row index in counter words 2-3."""
    key = (int(seed) & 0xFFFFFFFFFFFFFFFF) | (domain << 64)
    return np.random.Generator(np.random.Philox(key=key, counter=row << 128))


@pytest.mark.parametrize("base", ["gaussian", "rademacher", "uniform-scaled"])
@pytest.mark.parametrize("seed", [0, 17, -3])
def test_inputs_equal_a_fresh_generator_per_row(base, seed):
    n, d = 300, 7
    want = np.empty((n, d))
    for i in range(n):
        rng = fresh_row_generator(seed, 1, i)
        if base == "gaussian":
            want[i] = rng.standard_normal(d)
        elif base == "rademacher":
            want[i] = 2.0 * rng.integers(0, 2, size=d) - 1.0
        else:
            want[i] = rng.uniform(-math.sqrt(3.0), math.sqrt(3.0), size=d)
    assert np.array_equal(generate_inputs(spec(n, d, base=base, seed=seed)), want)


@pytest.mark.parametrize("seed", [0, 17, -3])
def test_hypercube_equals_a_fresh_generator_per_row(seed):
    n, d = 300, 9
    want = np.array([2.0 * fresh_row_generator(seed, 2, i).integers(0, 2, size=d) - 1.0
                     for i in range(n)])
    assert np.array_equal(generate_hypercube(n, d, seed), want)


def test_row_streams_restart_after_partial_draws_and_past_2_64():
    streams = datagen._RowStreams(5, 1)
    for row in (3, 2**64 + 3, 3, 0):
        streams.at(row).integers(0, 2, size=3)  # leaves buffered output behind
        got = streams.at(row).standard_normal(4)
        assert np.array_equal(got, fresh_row_generator(5, 1, row).standard_normal(4))


def test_input_and_hypercube_streams_are_decoupled():
    Xg = generate_inputs(spec(8, 6, base="rademacher", seed=11))
    Xh = generate_hypercube(8, 6, seed=11)
    assert np.any(Xg != Xh)


# ----------------------------------------------------------------- labels

def test_teacher_sign_labels_are_signs():
    X = generate_inputs(spec(300, 10, seed=4))
    teacher = random_init(5, 10, ERF, seed=7)
    y = labels_teacher_sign(X, teacher)
    assert set(np.unique(y)) <= {-1.0, 1.0}
    # deterministic given teacher and inputs
    np.testing.assert_array_equal(y, labels_teacher_sign(X, teacher))


def test_teacher_sign_of_zero_is_positive():
    teacher = random_init(4, 3, ERF, seed=0)
    y = labels_teacher_sign(np.zeros((2, 3)), teacher)
    np.testing.assert_array_equal(y, [1.0, 1.0])


def test_norm_labels_formula_and_range_warning():
    X = np.array([[2.0, 0.0], [0.0, -1.0]])
    a = np.array([0.5, 0.0])
    with pytest.warns(LabelRangeWarning):
        y = labels_norm_dependent(X, a)
    want = np.linalg.norm(X, axis=1) / math.sqrt(2) + np.maximum(X @ a, 0.0)
    np.testing.assert_allclose(y, want)
    assert y[0] > 1.0  # the value that triggered the warning is kept raw


def test_norm_labels_quiet_when_in_range():
    X = np.array([[0.1, 0.1], [-0.2, 0.05]])
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        labels_norm_dependent(X, np.array([0.1, 0.0]))


# ---------------------------------------------------------- concentration

def test_concentration_report_bounds_on_gaussian_data():
    n, d = 2000, 200
    rep = concentration_report(generate_inputs(spec(n, d, seed=0)))
    bound = 5.0 * math.sqrt(math.log(n) / d)
    assert rep.max_norm_dev <= bound
    assert rep.max_offdiag <= bound
    assert 0.5 <= rep.gram_spectral_over_n <= 20.0


def test_concentration_report_exact_small_case():
    X = np.array([[1.0, 1.0], [1.0, -1.0], [2.0, 0.0]])
    rep = concentration_report(X)
    # squared norms / d: 1, 1, 2 -> max dev 1; off-diagonal max |<x1,x3>|/2 = 1
    assert rep.max_norm_dev == pytest.approx(1.0)
    assert rep.max_offdiag == pytest.approx(1.0)
    gram_norm = np.linalg.norm(X @ X.T, 2)
    assert rep.gram_spectral_over_n == pytest.approx(gram_norm / 3, rel=1e-6)


def test_concentration_single_row():
    rep = concentration_report(np.array([[1.0, 0.0]]))
    assert rep.max_offdiag == 0.0


# ------------------------------------------------------------------- csv
# What the package writes (`cli._write_csv`), `load_matrix` reads back.

def write_matrix(path, A):
    _write_csv(path, [f"x{j + 1}" for j in range(A.shape[1])], A)


def test_csv_roundtrip_is_lossless(tmp_path):
    X = generate_inputs(spec(20, 3, seed=6))
    A = np.column_stack([X, np.tanh(X[:, 0])])
    path = tmp_path / "data.csv"
    write_matrix(path, A)
    np.testing.assert_array_equal(load_matrix(path), A)


def test_load_rejects_short_row_with_line_number(tmp_path):
    path = tmp_path / "short.csv"
    path.write_text("x1,x2,y\n0.1,0.2,0.3\n0.4,0.5\n")
    with pytest.raises(ValueError, match="line 3: expected 3 fields, got 2"):
        load_matrix(path)


def test_load_rejects_non_numeric_with_line_number(tmp_path):
    path = tmp_path / "nan.csv"
    path.write_text("x1,y\n0.1,0.2\nfoo,0.3\n")
    with pytest.raises(ValueError, match="line 3: non-numeric"):
        load_matrix(path)


def test_saved_norm_labels_load_back_unchanged(tmp_path):
    X = generate_inputs(spec(50, 4, seed=7))
    with pytest.warns(LabelRangeWarning):
        y = labels_norm_dependent(X, np.array([0.5, 0.0, 0.0, 0.0]))
    assert np.any(np.abs(y) > 1.0)
    path = tmp_path / "norm.csv"
    write_matrix(path, np.column_stack([X, y]))
    np.testing.assert_array_equal(load_matrix(path)[:, -1], y)


finite_floats = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), n=st.integers(1, 20), d=st.integers(1, 20))
def test_save_then_load_is_the_identity(tmp_path_factory, data, n, d):
    # any finite float64: subnormals, the largest magnitudes, either sign of zero
    A = data.draw(arrays(np.float64, (n, d), elements=finite_floats))
    path = tmp_path_factory.mktemp("roundtrip") / "data.csv"
    write_matrix(path, A)
    back = load_matrix(path)
    assert back.shape == (n, d) and np.array_equal(back, A)
    assert np.array_equal(np.signbit(back), np.signbit(A))


@pytest.mark.parametrize("field", ["nan", "inf", "-inf", "NaN"])
@pytest.mark.parametrize("column", [0, 1])
def test_load_rejects_non_finite_fields_with_line_number(tmp_path, field, column):
    row = ["0.3", "0.4"]
    row[column] = field
    path = tmp_path / "nonfinite.csv"
    path.write_text("x1,y\n0.1,0.2\n" + ",".join(row) + "\n")
    with pytest.raises(ValueError, match="line 3: non-finite"):
        load_matrix(path)


def test_load_rejects_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(ValueError, match="no data rows"):
        load_matrix(path)
