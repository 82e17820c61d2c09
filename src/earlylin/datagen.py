"""Input generation, label rules, concentration diagnostics, and the numeric
CSV reader of `decompose`.

Inputs have the identity covariance, the setting of the paper's bounds: the
d coordinates of a row are iid draws of one unit-variance base law. Rows come
from independent counter-based streams (numpy Philox, keyed by (seed, domain)
with the row index placed in the high words of the 256-bit counter), so row i
depends only on (seed, i): datasets can be extended without perturbing
existing rows, and generation order is irrelevant.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import kernels
from .network import forward

# Domain tags keep the Philox streams of different generators disjoint.
_DOMAIN_INPUTS = 1
_DOMAIN_HYPERCUBE = 2

BASES = ("gaussian", "rademacher", "uniform-scaled")
_UNIFORM_HALF_WIDTH = math.sqrt(3.0)  # Unif[-sqrt(3), sqrt(3)] has variance 1


class LabelRangeWarning(UserWarning):
    """Issued when generated labels fall outside [-1, 1]; they are kept raw."""


def _warn_label_range(y: np.ndarray, what: str) -> None:
    n_out = int(np.sum(np.abs(y) > 1.0))
    if n_out:
        warnings.warn(f"{n_out} of {y.size} {what} fall outside [-1, 1]; kept raw",
                      LabelRangeWarning, stacklevel=3)


@dataclass(frozen=True)
class CovarianceSpec:
    """The identity covariance of R^d: every input is isotropic."""

    d: int

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("d must be >= 1")


def identity_covariance(d: int) -> CovarianceSpec:
    return CovarianceSpec(d)


@dataclass(frozen=True)
class DataSpec:
    covariance: CovarianceSpec
    base: str
    n: int
    seed: int

    def __post_init__(self):
        if self.base not in BASES:
            raise ValueError(f"base must be one of {BASES}, got {self.base!r}")
        if self.n < 1:
            raise ValueError("n must be >= 1")

    @property
    def d(self) -> int:
        return self.covariance.d


@dataclass(frozen=True)
class ConcentrationReport:
    max_norm_dev: float        # max_i |  ||x_i||^2 / d - 1 |
    max_offdiag: float         # max_{i != j} |<x_i, x_j>| / d
    gram_spectral_over_n: float  # ||X X^T|| / n


class _RowStreams:
    """Row i's stream is Philox keyed by (seed, domain), with i in counter
    words 2-3 and the other words zero. One generator serves every row:
    `at(i)` resets its state to the start of row i's stream, which draws what
    a fresh generator built for row i would, at a third of the cost."""

    def __init__(self, seed: int, domain: int):
        self._bits = np.random.Philox(key=(int(seed) & 0xFFFFFFFFFFFFFFFF) | (domain << 64))
        self._start = self._bits.state  # counter 0, no buffered output
        self._rng = np.random.Generator(self._bits)

    def at(self, row: int) -> np.random.Generator:
        self._start["state"]["counter"][2:] = (row & 0xFFFFFFFFFFFFFFFF, row >> 64)
        self._bits.state = self._start
        return self._rng


def _base_row(rng: np.random.Generator, base: str, d: int) -> np.ndarray:
    if base == "gaussian":
        return rng.standard_normal(d)
    if base == "rademacher":
        return 2.0 * rng.integers(0, 2, size=d) - 1.0
    return rng.uniform(-_UNIFORM_HALF_WIDTH, _UNIFORM_HALF_WIDTH, size=d)


def generate_inputs(spec: DataSpec) -> np.ndarray:
    """Draw X (n x d) with iid rows of iid unit-variance entries per the base law."""
    n, d = spec.n, spec.d
    X = np.empty((n, d))
    streams = _RowStreams(spec.seed, _DOMAIN_INPUTS)
    for i in range(n):
        X[i] = _base_row(streams.at(i), spec.base, d)
    return X


def generate_hypercube(n: int, d: int, seed: int) -> np.ndarray:
    """Uniform rows from {-1, +1}^d (entries exactly +-1)."""
    X = np.empty((n, d))
    streams = _RowStreams(seed, _DOMAIN_HYPERCUBE)
    for i in range(n):
        X[i] = 2.0 * streams.at(i).integers(0, 2, size=d) - 1.0
    return X


def labels_teacher_sign(X: np.ndarray, teacher) -> np.ndarray:
    """y = sign(teacher(x)) with sign(0) := +1."""
    u = forward(teacher, X)
    return np.where(u >= 0.0, 1.0, -1.0)


def labels_norm_dependent(X: np.ndarray, a: np.ndarray) -> np.ndarray:
    """y = ||x||/sqrt(d) + relu(a.x); raw values kept, out-of-range reported."""
    a = np.asarray(a, dtype=float)
    d = X.shape[1]
    y = np.linalg.norm(X, axis=1) / math.sqrt(d) + np.maximum(X @ a, 0.0)
    _warn_label_range(y, "norm-dependent labels")
    return y


def concentration_report(X: np.ndarray) -> ConcentrationReport:
    """Norm, inner-product, and Gram-spectral concentration diagnostics."""
    n, d = X.shape
    sq = np.sum(X * X, axis=1) / d
    gram = X @ X.T
    off = np.abs(gram - np.diag(np.diag(gram)))
    max_off = float(off.max() / d) if n > 1 else 0.0
    return ConcentrationReport(
        max_norm_dev=float(np.max(np.abs(sq - 1.0))),
        max_offdiag=max_off,
        gram_spectral_over_n=kernels.spectral_norm(gram) / n,
    )


def _numeric_rows(path, rows, width: int, first_line: int) -> list[list[float]]:
    """Each row as `width` finite floats; a ValueError names the first bad
    line, counting the rows from line `first_line`."""
    values = []
    for lineno, row in enumerate(rows, start=first_line):
        if len(row) != width:
            raise ValueError(f"{path}: line {lineno}: expected {width} fields, got {len(row)}")
        try:
            floats = [float(v) for v in row]
        except ValueError:
            raise ValueError(f"{path}: line {lineno}: non-numeric field") from None
        if not all(map(math.isfinite, floats)):
            raise ValueError(f"{path}: line {lineno}: non-finite field")
        values.append(floats)
    return values


def load_matrix(path) -> np.ndarray:
    """The numeric rows of a CSV file as an array (rows x fields).

    The first line is a header, and skipped, when one of its fields is not a
    number. Every other line must hold finite numbers, as many as the first
    data row; a ValueError names the first line that does not, and a file
    with no data row is rejected.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    first_line = 1
    if rows:
        try:
            list(map(float, rows[0]))
        except ValueError:  # a header line
            rows, first_line = rows[1:], 2
    if not rows:
        raise ValueError(f"{path}: no data rows")
    if not rows[0]:
        raise ValueError(f"{path}: line {first_line}: no fields")
    return np.asarray(_numeric_rows(path, rows, len(rows[0]), first_line), dtype=float)
