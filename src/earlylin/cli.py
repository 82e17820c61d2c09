"""Command-line front end: experiment config, execution, CSV/JSON emission.

Every subcommand reads an optional flat-key JSON config, lets explicit flags
override it, validates the merged result, and writes into the output
directory a `manifest.json` (schema_version, normalized config, the raw
config file echoed verbatim, package version) plus the data CSVs. Nothing in
the outputs depends on wall-clock time, so identical invocations produce
byte-identical files.

Exit codes: 0 all configured assertions pass, 1 an assertion failed
(data files are still written), 2 configuration error (nothing is written),
3 a training run diverged (the run is aborted; `failure.json` beside the
manifest records the subcommand, the step, the MSEs seen there, eta and T,
and the records CSV holds the rows recorded before the failing step).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import json
import logging
import math
import os
import sys
import warnings

from . import __version__
from .activations import KINDS, MAX_ORDER, Activation, leaky_relu, moments
from .datagen import (
    BASES,
    DataSpec,
    LabelRangeWarning,
    concentration_report,
    generate_inputs,
    identity_covariance,
    load_matrix,
)
from .harness import (
    LABEL_KINDS,
    AblationRecord,
    AgreementRecord,
    CoupledRunConfig,
    HorizonError,
    LabelSpec,
    cnn_deviation_experiment,
    cnn_second_point_rows,
    coupled_run,
    discrepancy_vs_dimension,
    norm_feature_ablation_experiment,
    residual_subspace_decomposition,
    resolve_run,
    shift_seeds,
    spectral_decay_experiment,
)
from .linmodel import MODES
from .network import DivergenceError

log = logging.getLogger("earlylin")

SCHEMA_VERSION = 1
FLOAT_FMT = "%.17g"
# `moments` warns when its values move by more than this, relative to the
# largest of them, from the given quadrature order to twice that order.
MOMENTS_RTOL = 1e-8

# The subcommands, and their flat config keys with defaults. None means "no
# value unless given"; assertion thresholds are only checked when set.
DEFAULTS = {
    "moments": {
        "act": "erf", "order": None, "slope": 0.01,
    },
    "spectral-decay": {
        "d_list": [16, 32, 64, 128], "n": 2000, "m": 4000, "act": "erf",
        "slope": 0.01, "seeds": 3, "seed": 0,
        "max_spectral_slope": None, "min_frobenius_slope": None, "min_r2": None,
    },
    "agreement": {
        "mode": "both", "d": 50, "n": 5000, "m": 256, "act": "erf",
        "slope": 0.01, "labels": "teacher-sign", "teacher_width": 5,
        "a_norm": 0.5, "eta": None, "T": None, "horizon_c": 0.25,
        "n_test": 2000, "record_stride": 1, "seeds": 1, "seed": 1,
        "max_train_gap": None, "max_test_gap": None, "radius_check": False,
    },
    # eta/T are fixed across dimensions by default: the sweep compares the
    # per-d gap over one shared step window, so per-d schedules would make
    # the maxima incomparable (small d would simply be measured over a
    # shorter run).
    "discrepancy-sweep": {
        "d_list": [10, 30, 50], "n": 2000, "m": 256, "act": "erf",
        "slope": 0.01, "mode": "both", "labels": "teacher-sign",
        "teacher_width": 5, "a_norm": 0.5, "eta": 0.5, "T": 40,
        "horizon_c": 0.25, "n_test": 0, "record_stride": 1,
        "seeds": 5, "seed": 1, "require_decreasing": False,
    },
    "cnn-ntk": {
        "d": 64, "q": 16, "n": 512, "act": "erf", "slope": 0.01,
        "seed": 0, "growth": 1.1, "order": None,
        "max_ratio": None, "require_decreasing": False,
    },
    "concentration": {
        "d": 200, "n": 2000, "base": "gaussian", "seed": 0,
        "bound_factor": None, "gram_lo": None, "gram_hi": None,
    },
    "norm-ablation": {
        "d": 50, "n": 2000, "m": 256, "act": "relu", "slope": 0.01,
        "mode": "both", "a_norm": 0.5, "a_seed": 0, "eta": None, "T": None,
        "horizon_c": 0.25, "record_stride": 1, "seed": 1,
        "min_fraction": None,
    },
    "decompose": {
        "residual_csv": None, "xtest_csv": None,
    },
}

# Each config key's type, and the values it takes: a bound on a number
# (">= 1", "> 0", "in [low, high]"), a tuple of choices, or None for any.
_KEYS = {
    **dict.fromkeys(("n", "d", "m", "q", "seeds", "record_stride", "teacher_width"),
                    (int, ">= 1")),
    **dict.fromkeys(("T", "n_test"), (int, ">= 0")),
    # Philox keys the input rows by a seed's low 64 bits; a seed names agreement's CSVs
    **dict.fromkeys(("seed", "a_seed"), (int, f"in [0, {2**64 - 1}]")),
    "order": (int, f"in [1, {MAX_ORDER}]"),
    "d_list": (list, None),  # a list of values of d
    "slope": (float, "in [-1, 1]"),
    **dict.fromkeys(("eta", "horizon_c"), (float, "> 0")),
    **dict.fromkeys(("a_norm", "growth", "max_spectral_slope", "min_frobenius_slope",
                     "min_r2", "max_train_gap", "max_test_gap", "max_ratio",
                     "bound_factor", "gram_lo", "gram_hi", "min_fraction"), (float, None)),
    **dict.fromkeys(("radius_check", "require_decreasing"), (bool, None)),
    **dict.fromkeys(("residual_csv", "xtest_csv"), (str, None)),
    "act": (str, KINDS), "mode": (str, MODES), "labels": (str, LABEL_KINDS),
    "base": (str, BASES),
}
_NULLABLE = {key for defaults in DEFAULTS.values()
             for key, value in defaults.items() if value is None}
# The float64 arrays each subcommand sizes from its keys, as "rows x columns";
# each must fit in the machine's memory by itself.
_ARRAYS = {
    "cnn-ntk": ("n x n", "n * 2^growth x n * 2^growth", "n x d"),
    "concentration": ("n x n", "n x d"),
    "spectral-decay": ("n x n", "n x m", "n x max(d_list)", "seeds x len(d_list)"),
    "agreement": ("n x m", "n x d", "n_test x m", "n x teacher_width", "seeds x 7"),
    "discrepancy-sweep": ("n x m", "n x max(d_list)", "n_test x m", "n x teacher_width",
                          "seeds x len(d_list)"),
    "norm-ablation": ("n x m", "n x d"),
}


class ConfigError(Exception):
    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


def _coerce(key: str, value):
    """Check/convert one config value, a flag's string or a JSON value, by its
    row of _KEYS; raise ValueError with the reason."""
    kind, allowed = _KEYS[key]
    if value is None:
        if key in _NULLABLE:
            return None
        raise ValueError("null not allowed")
    if kind is bool and not isinstance(value, bool):
        raise ValueError(f"expected true/false, got {value!r}")
    if kind is str and allowed is not None and str(value) not in allowed:
        raise ValueError(f"must be one of {', '.join(allowed)}; got {str(value)!r}")
    if kind is list:
        if isinstance(value, str):
            value = [part for part in value.split(",") if part.strip()]
        if not isinstance(value, (list, tuple)) or not value:
            raise ValueError(f"expected a non-empty list, got {value!r}")
        return [_coerce("d", v) for v in value]
    if kind not in (int, float):
        return kind(value)
    if isinstance(value, str):  # a flag: the JSON number it spells, exact for an int
        value = int(value) if value.strip().lstrip("+-").isdigit() else float(value)
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or (kind is int and isinstance(value, float) and not value.is_integer())):
        raise ValueError(f"expected {'an integer' if kind is int else 'a number'}, "
                         f"got {value!r}")
    value = kind(value)
    if kind is float and not math.isfinite(value):
        raise ValueError(f"must be finite, got {value}")
    if allowed is not None:
        op, limit = allowed.split(" ", 1)
        limit = json.loads(limit)
        if not (limit[0] <= value <= limit[1] if op == "in"
                else value > limit if op == ">" else value >= limit):
            raise ValueError(f"must be {allowed}, got {value}")
    return value


def validate_config(subcommand: str, raw: dict) -> tuple[dict, list[str]]:
    """Merge onto defaults, type-check, and emit regime warnings.

    Returns (normalized config, warnings); raises ConfigError with a list of
    `/key: reason` entries on any validation error.
    """
    defaults = DEFAULTS[subcommand]
    cfg = dict(defaults)
    errors = []
    for key, value in raw.items():
        if key not in defaults:
            errors.append(f"/{key}: unknown key for {subcommand!r}")
            continue
        try:
            cfg[key] = _coerce(key, value)
        except (ValueError, OverflowError) as exc:  # OverflowError: an int past every float
            errors.append(f"/{key}: {exc}")
    if not errors:
        errors = _semantic_errors(subcommand, cfg)
    if errors:
        raise ConfigError(errors)
    return cfg, _regime_warnings(cfg)


def _semantic_errors(subcommand: str, cfg: dict) -> list[str]:
    """The rules that read two or more keys, or the machine's memory, as
    `/key: reason` entries; _coerce has checked each key by its own row."""
    errors = []
    linear = cfg.get("act") == "identity" or (
        cfg.get("act") == "leaky-relu" and cfg["slope"] == 1.0)
    if subcommand == "spectral-decay" and linear:
        errors.append("/act: a linear activation's first-layer NTK equals its lin1 kernel "
                      "exactly, so every norm is 0 and there is no decay to fit")
    if subcommand == "cnn-ntk" and cfg["act"] == "leaky-relu" and cfg["slope"] == -1.0:
        errors.append("/slope: zeta = (1+slope)/2 is 0 at slope -1, so the base kernel "
                      "2 zeta^2 XX^T/d is zero and the deviation ratio has no value")
    if "m" in cfg and cfg["m"] % 2 != 0:
        errors.append("/m: width must be even (symmetric initialization)")
    if subcommand == "cnn-ntk" and cfg["q"] > cfg["d"]:
        errors.append(f"/q: filter size q={cfg['q']} exceeds d={cfg['d']}")
    # lengths of the sides of _ARRAYS: name -> (the key that sets it, its value)
    sizes = {key: (key, value) for key, value in cfg.items() if type(value) is int}
    dims = cfg.get("d_list", [])
    sizes |= {"7": (None, 7), "len(d_list)": ("d_list", len(dims)),
              "max(d_list)": ("d_list", max(dims, default=0))}
    if subcommand == "cnn-ntk":
        with contextlib.suppress(OverflowError):
            sizes["n * 2^growth"] = ("growth", cnn_second_point_rows(cfg["n"], cfg["growth"]))
        if sizes.setdefault("n * 2^growth", ("growth", 0))[1] < 1:
            errors.append("/growth: the second point's rows, n * 2^growth, must round to an "
                          f"integer >= 1; got {cfg['growth']} with n={cfg['n']}")
    if subcommand == "decompose":
        errors += [f"/{key}: required (path to a CSV file)"
                   for key in ("residual_csv", "xtest_csv") if cfg[key] is None]
    if subcommand == "spectral-decay" and len(set(dims)) < 3:
        errors.append(f"/d_list: the decay fit needs at least 3 distinct dimensions, got {dims}")
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    for shape in _ARRAYS.get(subcommand, ()):
        (rows_key, rows), (columns_key, columns) = map(sizes.get, shape.split(" x "))
        if 8 * rows * columns > memory:
            errors.append(f"/{rows_key if rows >= columns else columns_key}: an {shape} "
                          f"float64 array must fit in the {memory / 2**30:.1f} GiB of "
                          f"memory; got {rows} x {columns}")
            break
    if "horizon_c" in cfg and not errors:  # the rate and the horizon, as a run sets them
        try:  # T grows with d, so the largest d decides
            resolve_run(_coupled_config(cfg | {"d": max(dims or [cfg["d"]])}))
        except HorizonError as exc:
            errors.append(f"/horizon_c: {exc}; pass --T to set the steps")
        except ValueError as exc:  # the default rate divides by ln n
            errors.append(f"/n: {exc}; pass --eta to set the rate")
    return errors


def _regime_warnings(cfg: dict) -> list[str]:
    for d in cfg.get("d_list") or ([cfg["d"]] if "d" in cfg else []):
        if cfg["n"] < d ** 1.1:
            return [f"n={cfg['n']} is below d^1.1 = {d ** 1.1:.0f} for d={d}; the "
                    "guarantees target the regime n >~ d^(1+a) for some a > 0, so "
                    "expect noisy agreement at this size"]
    return []


def _activation(cfg: dict) -> Activation:
    if cfg["act"] == "leaky-relu":
        return leaky_relu(cfg["slope"])
    return Activation(cfg["act"])


def _write_manifest(out_dir: str, subcommand: str, cfg: dict, raw: dict | None,
                    warnings: list[str]) -> None:
    _write_json(os.path.join(out_dir, "manifest.json"), {
        "schema_version": SCHEMA_VERSION,
        "package_version": __version__,
        "subcommand": subcommand,
        "config": cfg,
        "config_file": raw,
        "warnings": warnings,
    })


def _json_float(value: float):
    """Finite floats as numbers, inf/nan as strings, so the file stays JSON."""
    return value if math.isfinite(value) else str(value)


def _write_failure(out_dir: str, subcommand: str, exc: DivergenceError) -> str:
    path = os.path.join(out_dir, "failure.json")
    _write_json(path, {
        "subcommand": subcommand,
        "step": exc.step,
        "mses": {name: _json_float(v) for name, v in exc.mses.items()},
        "eta": exc.eta,
        "T": exc.T,
    })
    return path


def _write_json(path: str, obj) -> str:
    """Write obj as indented JSON with sorted keys and a newline; return the JSON."""
    text = json.dumps(obj, indent=2, sort_keys=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
    return text


def _write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([FLOAT_FMT % v if isinstance(v, float) else v
                             for v in row])


def _recorded_run(run, config, path: str, record_type):
    """Return run(config) and write its records to `path`, one column per
    field of `record_type`; if the run diverges, write the records made
    before the failing step and re-raise."""
    header = [f.name for f in dataclasses.fields(record_type)]
    try:
        result = run(config)
    except DivergenceError as exc:
        _write_csv(path, header, map(dataclasses.astuple, exc.records))
        raise
    _write_csv(path, header, map(dataclasses.astuple, result.records))
    return result


class Assertion:
    """A named post-run check; failures flip the exit code to 1."""

    def __init__(self, name: str, ok: bool, detail: str):
        self.name, self.ok, self.detail = name, ok, detail

    def line(self) -> str:
        return f"{'PASS' if self.ok else 'FAIL'} {self.name}: {self.detail}"


def _coupled_config(cfg: dict) -> CoupledRunConfig:
    # norm-ablation has neither `labels` nor `n_test`: norm labels, no held-out rows
    labels = LabelSpec(kind=cfg.get("labels", "norm"),
                       teacher_width=cfg.get("teacher_width", 5),
                       teacher_seed=cfg["seed"], a_norm=cfg["a_norm"],
                       a_seed=cfg.get("a_seed", cfg["seed"]))
    return CoupledRunConfig(
        mode=cfg["mode"],
        data=DataSpec(identity_covariance(cfg["d"]), "gaussian", cfg["n"], cfg["seed"]),
        m=cfg["m"],
        act=_activation(cfg),
        labels=labels,
        net_seed=cfg["seed"],
        eta=cfg["eta"],
        T=cfg["T"],
        horizon_c=cfg["horizon_c"],
        n_test=cfg.get("n_test", 0),
        record_stride=cfg["record_stride"],
    )


# ---------------------------------------------------------------- subcommands

def _moment_values(mom) -> list[float]:
    return [mom.zeta, mom.theta0, mom.theta1, mom.theta2, mom.gamma]


def _run_moments(cfg, out_dir):
    act = _activation(cfg)
    mom = moments(act, cfg["order"])
    finer_order = min(2 * mom.quad_order, MAX_ORDER)
    finer = _moment_values(moments(act, finer_order))
    change = max(abs(a - b) for a, b in zip(_moment_values(mom), finer))
    scale = max(abs(v) for v in finer)
    if change > MOMENTS_RTOL * scale:
        print(f"warning: the moments move by {change / scale:.1e} of their largest "
              f"value from quadrature order {mom.quad_order} to {finer_order}; "
              "a higher --order gives more accurate values", file=sys.stderr)
    payload = {
        "act": cfg["act"],
        "order": mom.quad_order,
        "zeta": mom.zeta,
        "theta0": mom.theta0,
        "theta1": mom.theta1,
        "theta2": mom.theta2,
        "gamma": mom.gamma,
    }
    print(_write_json(os.path.join(out_dir, "moments.json"), payload))
    return []


def _run_spectral_decay(cfg, out_dir):
    seeds = [cfg["seed"] + k for k in range(cfg["seeds"])]
    result = spectral_decay_experiment(cfg["d_list"], cfg["n"], cfg["m"],
                                       _activation(cfg), seeds)
    _write_csv(os.path.join(out_dir, "norms.csv"),
               ["d", "seed", "spectral", "frobenius"],
               [(d, s, float(result.spectral[i, k]), float(result.frobenius[i, k]))
                for i, d in enumerate(result.d_list)
                for k, s in enumerate(seeds)])
    _write_csv(os.path.join(out_dir, "summary.csv"),
               ["d", "mean_spectral", "mean_frobenius"],
               [(d, float(result.mean_spectral[i]), float(result.mean_frobenius[i]))
                for i, d in enumerate(result.d_list)])
    _write_json(os.path.join(out_dir, "fits.json"),
                {"spectral": dataclasses.asdict(result.spectral_fit),
                 "frobenius": dataclasses.asdict(result.frobenius_fit)})

    checks = []
    sf, ff = result.spectral_fit, result.frobenius_fit
    if cfg["max_spectral_slope"] is not None:
        checks.append(Assertion(
            "spectral-slope", sf.slope <= cfg["max_spectral_slope"],
            f"slope {sf.slope:.4f} vs max {cfg['max_spectral_slope']}"))
    if cfg["min_frobenius_slope"] is not None:
        checks.append(Assertion(
            "frobenius-slope", ff.slope >= cfg["min_frobenius_slope"],
            f"slope {ff.slope:.4f} vs min {cfg['min_frobenius_slope']}"))
    if cfg["min_r2"] is not None:
        worst = min(sf.r_squared, ff.r_squared)
        checks.append(Assertion(
            "fit-r2", worst >= cfg["min_r2"],
            f"min r^2 {worst:.4f} vs required {cfg['min_r2']}"))
    return checks


def _run_agreement(cfg, out_dir):
    checks = []
    summary_rows = []
    base = _coupled_config(cfg)
    for k in range(cfg["seeds"]):
        seed = cfg["seed"] + k
        result = _recorded_run(coupled_run, shift_seeds(base, k),
                               os.path.join(out_dir, f"agreement_seed{seed}.csv"),
                               AgreementRecord)
        log.info("agreement seed %d: eta=%g T=%d records=%d",
                 seed, result.eta, result.T, len(result.records))
        max_train = max(r.train_gap for r in result.records)
        max_test = max(r.test_gap_clipped for r in result.records)
        max_w = max(r.w_move_fro for r in result.records)
        max_beta = max(r.beta_norm for r in result.records)
        summary_rows.append((seed, result.eta, result.T, max_train, max_test,
                             max_w, max_beta))
        if cfg["max_train_gap"] is not None:
            checks.append(Assertion(
                f"train-gap-seed{seed}", max_train <= cfg["max_train_gap"],
                f"max train_gap {max_train:.3e} vs {cfg['max_train_gap']}"))
        if cfg["max_test_gap"] is not None:
            checks.append(Assertion(
                f"test-gap-seed{seed}", max_test <= cfg["max_test_gap"],
                f"max test_gap {max_test:.3e} vs {cfg['max_test_gap']}"))
        if cfg["radius_check"]:
            bound = math.sqrt(cfg["d"] * math.log(cfg["d"]))
            checks.append(Assertion(
                f"radius-seed{seed}", max_w <= bound and max_beta <= bound,
                f"max ||W-W0||_F {max_w:.3f}, max ||beta|| {max_beta:.3f}, "
                f"bound {bound:.3f}"))
    _write_csv(os.path.join(out_dir, "summary.csv"),
               ["seed", "eta", "T", "max_train_gap", "max_test_gap",
                "max_w_move_fro", "max_beta_norm"],
               summary_rows)
    return checks


def _run_discrepancy_sweep(cfg, out_dir):
    base = _coupled_config(cfg | {"d": cfg["d_list"][0]})
    sweep = discrepancy_vs_dimension(cfg["d_list"], base, n_seeds=cfg["seeds"])
    _write_csv(os.path.join(out_dir, "gaps.csv"),
               ["d", "seed_index", "max_train_gap"],
               [(d, k, float(sweep.max_gaps[i, k]))
                for i, d in enumerate(sweep.d_list)
                for k in range(cfg["seeds"])])
    _write_csv(os.path.join(out_dir, "summary.csv"),
               ["d", "median_max_gap"],
               [(d, float(sweep.median_max_gap[i]))
                for i, d in enumerate(sweep.d_list)])
    checks = []
    if cfg["require_decreasing"]:
        meds = ", ".join(f"{v:.3e}" for v in sweep.median_max_gap)
        checks.append(Assertion("gap-decreasing", sweep.strictly_decreasing,
                                f"median max gaps by d: {meds}"))
    return checks


def _run_cnn_ntk(cfg, out_dir):
    result = cnn_deviation_experiment(cfg["d"], cfg["q"], cfg["n"],
                                      _activation(cfg), cfg["seed"],
                                      growth=cfg["growth"], order=cfg["order"])
    _write_csv(os.path.join(out_dir, "deviation.csv"),
               ["d", "n", "q", "deviation", "base_norm", "ratio"],
               [(p.d, p.n, p.q, p.deviation, p.base_norm, p.ratio)
                for p in result.points])
    checks = []
    if cfg["max_ratio"] is not None:
        r0 = result.points[0].ratio
        checks.append(Assertion("cnn-ratio", r0 <= cfg["max_ratio"],
                                f"ratio {r0:.4f} vs max {cfg['max_ratio']}"))
    if cfg["require_decreasing"]:
        r0, r1 = result.points[0].ratio, result.points[1].ratio
        checks.append(Assertion("cnn-ratio-decreasing", result.decreasing,
                                f"ratio {r0:.4f} -> {r1:.4f} as d doubles"))
    return checks


def _run_concentration(cfg, out_dir):
    spec = DataSpec(identity_covariance(cfg["d"]), cfg["base"], cfg["n"],
                    cfg["seed"])
    report = concentration_report(generate_inputs(spec))
    _write_csv(os.path.join(out_dir, "report.csv"),
               ["max_norm_dev", "max_offdiag", "gram_spectral_over_n"],
               [(report.max_norm_dev, report.max_offdiag,
                 report.gram_spectral_over_n)])
    checks = []
    if cfg["bound_factor"] is not None:
        bound = cfg["bound_factor"] * math.sqrt(math.log(cfg["n"]) / cfg["d"])
        checks.append(Assertion(
            "norm-concentration", report.max_norm_dev <= bound,
            f"max norm dev {report.max_norm_dev:.4f} vs bound {bound:.4f}"))
        checks.append(Assertion(
            "offdiag-concentration", report.max_offdiag <= bound,
            f"max offdiag {report.max_offdiag:.4f} vs bound {bound:.4f}"))
    if cfg["gram_lo"] is not None or cfg["gram_hi"] is not None:
        lo = cfg["gram_lo"] if cfg["gram_lo"] is not None else 0.0
        hi = cfg["gram_hi"] if cfg["gram_hi"] is not None else math.inf
        checks.append(Assertion(
            "gram-scale", lo <= report.gram_spectral_over_n <= hi,
            f"||XX^T||/n = {report.gram_spectral_over_n:.4f} vs [{lo}, {hi}]"))
    return checks


def _run_norm_ablation(cfg, out_dir):
    result = _recorded_run(norm_feature_ablation_experiment, _coupled_config(cfg),
                           os.path.join(out_dir, "ablation.csv"), AblationRecord)
    _write_csv(os.path.join(out_dir, "summary.csv"),
               ["eta", "T", "fraction_full_below"],
               [(result.eta, result.T, result.fraction_full_below)])
    checks = []
    if cfg["min_fraction"] is not None:
        checks.append(Assertion(
            "full-below-naive",
            result.fraction_full_below >= cfg["min_fraction"],
            f"full model closer at {result.fraction_full_below:.0%} of steps "
            f"vs required {cfg['min_fraction']:.0%}"))
    return checks


def _run_decompose(cfg, out_dir):
    inputs, errors = {}, []
    for key in ("residual_csv", "xtest_csv"):
        try:
            inputs[key] = load_matrix(cfg[key])
        except OSError as exc:
            errors.append(f"/{key}: cannot read {cfg[key]}: {exc.strerror}")
        except (ValueError, csv.Error) as exc:
            errors.append(f"/{key}: {exc}")
    if errors:
        raise ConfigError(errors)
    residual, X_test = inputs["residual_csv"].ravel(), inputs["xtest_csv"]
    n_test, d = X_test.shape
    if n_test <= d:
        raise ConfigError([
            f"/xtest_csv: need more rows than columns for a non-trivial "
            f"complement, got shape ({n_test}, {d})"])
    if residual.shape != (n_test,):
        raise ConfigError([
            f"/residual_csv: holds {residual.size} values, expected {n_test} "
            f"(one per row of xtest_csv)"])
    energy_in, energy_out = residual_subspace_decomposition(residual, X_test)
    total = energy_in + energy_out
    _write_csv(os.path.join(out_dir, "decomposition.csv"),
               ["energy_in_span", "energy_in_complement", "total",
                "fraction_in_span"],
               [(energy_in, energy_out, total,
                 energy_in / total if total > 0 else 0.0)])
    return []


_RUNNERS = {
    "moments": _run_moments,
    "spectral-decay": _run_spectral_decay,
    "agreement": _run_agreement,
    "discrepancy-sweep": _run_discrepancy_sweep,
    "cnn-ntk": _run_cnn_ntk,
    "concentration": _run_concentration,
    "norm-ablation": _run_norm_ablation,
    "decompose": _run_decompose,
}


# -------------------------------------------------------------------- parsing

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="earlylin",
        description="Two-layer network vs. early-time linear model experiments.")
    parser.add_argument("--version", action="version", version=__version__)
    subparsers = parser.add_subparsers(dest="subcommand", required=True)
    for name in DEFAULTS:
        sub = subparsers.add_parser(name)
        sub.add_argument("--config", default=None, metavar="PATH",
                         help="JSON config file with flat keys; flags override")
        sub.add_argument("--out", default=None, metavar="DIR",
                         help="output directory (default runs/<subcommand>)")
        sub.add_argument("-v", "--verbose", action="store_true")
        for key in DEFAULTS[name]:
            flag = "--" + key.replace("_", "-")
            if _KEYS[key][0] is bool:
                sub.add_argument(flag, action="store_true", default=None)
            else:  # a string, which _coerce reads as the JSON value it spells
                sub.add_argument(flag)
    return parser


def _merged_raw_config(args: argparse.Namespace) -> tuple[dict, dict | None]:
    """Config-file values overlaid with explicitly given flags."""
    raw_file = None
    merged = {}
    if args.config is not None:
        try:
            with open(args.config, encoding="utf-8") as fh:
                raw_file = json.load(fh)
        except OSError as exc:
            raise ConfigError([f"cannot read config file {args.config}: {exc}"])
        except ValueError as exc:  # a JSONDecodeError, or an int of too many digits
            raise ConfigError([f"config file {args.config} is not valid JSON: {exc}"])
        if not isinstance(raw_file, dict):
            raise ConfigError([f"config file {args.config} must hold a JSON object"])
        merged.update(raw_file)
    for key in DEFAULTS[args.subcommand]:
        value = getattr(args, key)
        if value is not None:
            merged[key] = value
    return merged, raw_file


@contextlib.contextmanager
def _label_warnings_as_cli_lines():
    """Print each LabelRangeWarning as the CLI's own `warning: ...` line;
    other warnings are shown as before."""
    with warnings.catch_warnings():
        warnings.simplefilter("always", LabelRangeWarning)
        shown = warnings.showwarning

        def show(message, category, *args, **kwargs):
            if issubclass(category, LabelRangeWarning):
                print(f"warning: {message}", file=sys.stderr)
            else:
                shown(message, category, *args, **kwargs)

        warnings.showwarning = show
        yield


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s")

    out_dir = args.out if args.out is not None else os.path.join(
        "runs", args.subcommand)
    # The manifest is written after the run, so a config error that a runner
    # finds (a bad `decompose` input file) leaves no file behind.
    try:
        raw, raw_file = _merged_raw_config(args)
        cfg, warnings = validate_config(args.subcommand, raw)
        for message in warnings:
            print(f"warning: {message}", file=sys.stderr)
        try:
            os.makedirs(out_dir, exist_ok=True)
        except OSError as exc:  # --out names a file, or a path under one
            raise ConfigError([f"--out {out_dir}: {exc.strerror}"]) from None
        if os.path.exists(os.path.join(out_dir, "failure.json")):
            os.remove(os.path.join(out_dir, "failure.json"))  # from an earlier run
        with _label_warnings_as_cli_lines():
            checks = _RUNNERS[args.subcommand](cfg, out_dir)
    except ConfigError as exc:
        for err in exc.errors:
            print(f"config error: {err}", file=sys.stderr)
        return 2
    except DivergenceError as exc:
        _write_manifest(out_dir, args.subcommand, cfg, raw_file, warnings)
        path = _write_failure(out_dir, args.subcommand, exc)
        print(f"aborted: {exc}; see {path}", file=sys.stderr)
        return 3
    _write_manifest(out_dir, args.subcommand, cfg, raw_file, warnings)

    failed = [c for c in checks if not c.ok]
    for check in checks:
        print(check.line())
    return 1 if failed else 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
