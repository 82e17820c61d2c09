import csv
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from earlylin.cli import _KEY_TYPES, ConfigError, DEFAULTS, run, validate_config


def read_tree(root):
    return {p.name: p.read_bytes() for p in root.iterdir() if p.is_file()}


def cli_process(*args, cwd):
    """`earlylin <args>` run in a fresh interpreter, exactly as a user types it."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "earlylin.cli", *args],
                          capture_output=True, text=True, env=env, cwd=cwd, timeout=120)


# ------------------------------------------------------------- validation

def test_empty_config_fills_all_defaults():
    cfg, warnings = validate_config("spectral-decay", {})
    assert cfg == DEFAULTS["spectral-decay"]
    assert warnings == []


def test_odd_width_is_rejected():
    with pytest.raises(ConfigError) as err:
        validate_config("agreement", {"m": 63})
    assert "/m: width must be even (symmetric initialization)" in err.value.errors


def test_unknown_key_is_rejected():
    with pytest.raises(ConfigError) as err:
        validate_config("moments", {"witdh": 4})
    assert any(e.startswith("/witdh: unknown key") for e in err.value.errors)


def test_type_errors_point_at_the_key():
    with pytest.raises(ConfigError) as err:
        validate_config("agreement", {"n": 2.5, "eta": True})
    assert any(e.startswith("/n: expected an integer") for e in err.value.errors)
    assert any(e.startswith("/eta: expected a number") for e in err.value.errors)


def test_small_sample_regime_warns():
    cfg, warnings = validate_config("agreement", {"n": 100, "d": 100, "m": 64})
    assert cfg["n"] == 100
    assert len(warnings) == 1 and "d^(1+a)" in warnings[0]


def test_comfortable_sample_size_does_not_warn():
    _, warnings = validate_config("agreement", {"n": 4000, "d": 20, "m": 64})
    assert warnings == []


def test_d_list_accepts_comma_separated_strings():
    cfg, _ = validate_config("spectral-decay", {"d_list": "8,12,16"})
    assert cfg["d_list"] == [8, 12, 16]


def test_semantic_checks():
    with pytest.raises(ConfigError) as err:
        validate_config("cnn-ntk", {"q": 32, "d": 16})
    assert any("exceeds d=16" in e for e in err.value.errors)
    with pytest.raises(ConfigError):
        validate_config("agreement", {"eta": -1.0})
    with pytest.raises(ConfigError):
        validate_config("moments", {"order": 1000})


# ----------------------------------------------------------------- running

def test_moments_subcommand_reports_vanishing_odd_moments(tmp_path, capsys):
    # erf is odd and its derivative even, so every theta is (numerically) zero
    code = run(["moments", "--act", "erf", "--order", "64",
                "--out", str(tmp_path)])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert abs(payload["theta0"]) <= 1e-10
    assert abs(payload["theta1"]) <= 1e-10
    assert abs(payload["theta2"]) <= 1e-10
    on_disk = json.loads((tmp_path / "moments.json").read_text())
    assert on_disk == payload


def test_moments_subcommand_relu_constants(tmp_path, capsys):
    code = run(["moments", "--act", "relu", "--out", str(tmp_path)])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["zeta"] == pytest.approx(0.5, abs=1e-6)
    assert payload["gamma"] == pytest.approx(0.5, abs=1e-6)
    assert payload["theta0"] == pytest.approx(1 / math.sqrt(2 * math.pi), abs=1e-6)


def test_missing_config_file_is_a_config_error(tmp_path, capsys):
    code = run(["spectral-decay", "--config", "missing.json",
                "--out", str(tmp_path)])
    assert code == 2
    assert "missing.json" in capsys.readouterr().err


def test_malformed_config_file_is_a_config_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2, 3]\n")
    code = run(["moments", "--config", str(bad), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "JSON object" in capsys.readouterr().err


def test_bad_flag_value_is_a_config_error(tmp_path, capsys):
    code = run(["agreement", "--n", "lots", "--out", str(tmp_path)])
    assert code == 2
    assert "/n:" in capsys.readouterr().err


def test_unknown_subcommand_exits_through_argparse():
    with pytest.raises(SystemExit) as err:
        run(["frobnicate"])
    assert err.value.code == 2


def test_agreement_runs_are_byte_identical(tmp_path):
    args = ["agreement", "--mode", "first", "--d", "32", "--n", "1024",
            "--m", "512", "--seed", "7", "--n-test", "256"]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run(args + ["--out", str(out_a)]) == 0
    assert run(args + ["--out", str(out_b)]) == 0
    tree_a, tree_b = read_tree(out_a), read_tree(out_b)
    assert set(tree_a) == {"manifest.json", "agreement_seed7.csv", "summary.csv"}
    assert tree_a == tree_b


def test_manifest_reproduces_the_run(tmp_path):
    raw = {"d": 12, "n": 64, "m": 8, "eta": 0.5, "T": 3, "n_test": 0}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    out = tmp_path / "out"
    code = run(["agreement", "--config", str(cfg_path), "--seed", "9",
                "--out", str(out)])
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["schema_version"] == 1
    assert manifest["subcommand"] == "agreement"
    assert manifest["config_file"] == raw  # echoed verbatim
    assert manifest["config"]["seed"] == 9  # flag overrides file/defaults
    assert manifest["config"]["d"] == 12
    assert (out / "agreement_seed9.csv").exists()


def test_failed_assertion_still_writes_data(tmp_path, capsys):
    out = tmp_path / "out"
    code = run(["agreement", "--d", "8", "--n", "64", "--m", "8",
                "--eta", "0.5", "--T", "4", "--n-test", "0",
                "--max-train-gap", "0", "--out", str(out)])
    assert code == 1
    assert "FAIL train-gap-seed1" in capsys.readouterr().out
    assert (out / "agreement_seed1.csv").exists()
    assert (out / "summary.csv").exists()
    assert (out / "manifest.json").exists()


def test_passing_assertion_exits_zero(tmp_path, capsys):
    out = tmp_path / "out"
    code = run(["agreement", "--d", "8", "--n", "64", "--m", "8",
                "--eta", "0.5", "--T", "4", "--n-test", "0",
                "--max-train-gap", "1e9", "--out", str(out)])
    assert code == 0
    assert "PASS train-gap-seed1" in capsys.readouterr().out


def test_decompose_subcommand(tmp_path):
    rng = np.random.default_rng(0)
    X = rng.standard_normal((20, 3))
    residual = X @ np.array([1.0, -1.0, 2.0])
    np.savetxt(tmp_path / "xtest.csv", X, delimiter=",")
    np.savetxt(tmp_path / "residual.csv", residual, delimiter=",")
    out = tmp_path / "out"
    code = run(["decompose", "--residual-csv", str(tmp_path / "residual.csv"),
                "--xtest-csv", str(tmp_path / "xtest.csv"), "--out", str(out)])
    assert code == 0
    rows = (out / "decomposition.csv").read_text().strip().splitlines()
    assert rows[0] == "energy_in_span,energy_in_complement,total,fraction_in_span"
    energy_in, energy_out, total, fraction = map(float, rows[1].split(","))
    assert energy_in + energy_out == pytest.approx(total, rel=1e-12)
    assert fraction == pytest.approx(1.0, abs=1e-10)
    assert total == pytest.approx(float(residual @ residual), rel=1e-10)


def test_decompose_requires_both_files(tmp_path, capsys):
    code = run(["decompose", "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "/residual_csv" in err and "/xtest_csv" in err


def test_decompose_reports_missing_files(tmp_path, capsys):
    np.savetxt(tmp_path / "x.csv", np.eye(3), delimiter=",")
    code = run(["decompose", "--residual-csv", str(tmp_path / "nope.csv"),
                "--xtest-csv", str(tmp_path / "x.csv"),
                "--out", str(tmp_path / "out")])
    assert code == 2
    assert "nope.csv" in capsys.readouterr().err


@pytest.mark.parametrize("x_shape, n_residual, key", [
    ((5, 8), 5, "/xtest_csv"),    # n_test <= d: no complement to split off
    ((20, 3), 7, "/residual_csv"),  # one residual per test row
])
def test_decompose_bad_shapes_are_config_errors(tmp_path, capsys, x_shape,
                                                n_residual, key):
    rng = np.random.default_rng(0)
    np.savetxt(tmp_path / "xtest.csv", rng.standard_normal(x_shape), delimiter=",")
    np.savetxt(tmp_path / "residual.csv", rng.standard_normal(n_residual),
               delimiter=",")
    out = tmp_path / "out"
    code = run(["decompose", "--residual-csv", str(tmp_path / "residual.csv"),
                "--xtest-csv", str(tmp_path / "xtest.csv"), "--out", str(out)])
    assert code == 2
    assert f"config error: {key}:" in capsys.readouterr().err
    assert not (out / "decomposition.csv").exists()


def test_decompose_reads_files_with_and_without_a_header_alike(tmp_path):
    rng = np.random.default_rng(1)
    X, residual = rng.standard_normal((30, 4)), rng.standard_normal(30)
    np.savetxt(tmp_path / "x.csv", X, delimiter=",")
    np.savetxt(tmp_path / "r.csv", residual, delimiter=",")
    with open(tmp_path / "xh.csv", "w") as fh:
        fh.write("x1,x2,x3,x4\n")
        np.savetxt(fh, X, delimiter=",")
    with open(tmp_path / "rh.csv", "w") as fh:
        fh.write("residual\n")
        np.savetxt(fh, residual, delimiter=",")
    outputs = []
    for x, r in (("x.csv", "r.csv"), ("xh.csv", "rh.csv")):
        out = tmp_path / f"out-{x}"
        assert run(["decompose", "--residual-csv", str(tmp_path / r),
                    "--xtest-csv", str(tmp_path / x), "--out", str(out)]) == 0
        outputs.append((out / "decomposition.csv").read_bytes())
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("xtest, reason", [
    ("1,2,3\n4,nan,6\n" + "7,8,9\n" * 4, "line 2: non-finite field"),
    ("1,2,3\n4,5\n" + "7,8,9\n" * 4, "line 2: expected 3 fields, got 2"),
    ("a,b,c\nd,e,f\n" + "7,8,9\n" * 4, "line 2: non-numeric field"),
    ("", "no data rows"),
    ("a,b,c\n", "no data rows"),
    (None, "Is a directory"),
])
def test_decompose_bad_input_files_are_config_errors(tmp_path, capsys, xtest, reason):
    np.savetxt(tmp_path / "residual.csv", np.ones(6), delimiter=",")
    xtest_path = tmp_path / "inputs"  # a directory unless it gets content
    xtest_path.mkdir()
    if xtest is not None:
        xtest_path = tmp_path / "xtest.csv"
        xtest_path.write_text(xtest)
    out = tmp_path / "out"
    code = run(["decompose", "--residual-csv", str(tmp_path / "residual.csv"),
                "--xtest-csv", str(xtest_path), "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1, err
    assert err.startswith("config error: /xtest_csv: ") and reason in err, err
    assert list(out.iterdir()) == []  # not even a manifest


@pytest.mark.parametrize("args", [
    ("agreement", "--n", "1", "--n-test", "0", "--m", "4", "--d", "3"),
    ("norm-ablation", "--act", "erf", "--n", "1", "--m", "2", "--d", "2"),
])
def test_one_sample_with_the_log_rate_rule_is_a_config_error(tmp_path, args):
    # the default rate of a mode that trains v with E[phi(g)] = 0 is 0.1 d / ln n
    proc = cli_process(*args, cwd=tmp_path)
    assert proc.returncode == 2
    assert proc.stderr.count("\n") == 1, proc.stderr
    assert proc.stderr.startswith("config error: /n: ") and "--eta" in proc.stderr
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("args", [
    ("agreement", "--n", "1", "--n-test", "0", "--m", "4", "--d", "3", "--eta", "0.1"),
    ("agreement", "--n", "1", "--n-test", "0", "--m", "4", "--d", "3", "--mode", "first"),
    ("norm-ablation", "--n", "1", "--m", "2", "--d", "2"),  # relu: E[phi(g)] > 0
])
def test_one_sample_runs_where_the_log_rate_rule_is_not_used(tmp_path, args):
    assert run([*args, "--out", str(tmp_path)]) == 0


@pytest.mark.parametrize("eta", ["1e6", "1e300"])  # blows up; overflows to inf
def test_divergence_aborts_with_a_failure_record(tmp_path, capsys, eta):
    out = tmp_path / "out"
    code = run(["agreement", "--eta", eta, "--T", "50", "--d", "10",
                "--n", "200", "--m", "16", "--out", str(out)])
    assert code == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "diverged at step" in err
    failure = json.loads((out / "failure.json").read_text(),  # strict JSON
                         parse_constant=lambda c: pytest.fail(f"JSON has {c}"))
    assert failure["subcommand"] == "agreement"
    assert failure["eta"] == float(eta) and failure["T"] == 50
    assert failure["step"] >= 1
    assert set(failure["mses"]) == {"net", "lin"}
    # labels are +-1 and both models start at 0, so the initial MSE is 1 and
    # the run stops once an MSE passes the divergence factor 1e6
    worst = max(float(v) for v in failure["mses"].values())
    assert not math.isfinite(worst) or worst > 1e6
    # the rows recorded before the failing step are kept; no summary
    assert sorted(p.name for p in out.iterdir()) == [
        "agreement_seed1.csv", "failure.json", "manifest.json"]


@pytest.mark.parametrize("eta", ["1e6", "50"])  # diverges at step 1; a few steps on
@pytest.mark.parametrize("subcommand, records_csv, models", [
    ("agreement", "agreement_seed1.csv", {"net", "lin"}),
    ("norm-ablation", "ablation.csv", {"net", "full", "naive"}),
])
def test_divergence_keeps_the_rows_recorded_before_the_failing_step(
        tmp_path, capsys, subcommand, records_csv, models, eta):
    args = [subcommand, "--eta", eta, "--d", "10", "--n", "200", "--m", "16"]
    assert run(args + ["--T", "50", "--out", str(tmp_path / "diverged")]) == 3
    failure = json.loads((tmp_path / "diverged" / "failure.json").read_text())
    assert set(failure["mses"]) == models and failure["step"] >= 1
    assert sorted(p.name for p in (tmp_path / "diverged").iterdir()) == sorted(
        [records_csv, "failure.json", "manifest.json"])
    # the same run stopped just before the failing step writes the same rows
    stopped = tmp_path / "stopped"
    assert run(args + ["--T", str(failure["step"] - 1), "--out", str(stopped)]) == 0
    assert ((tmp_path / "diverged" / records_csv).read_bytes()
            == (stopped / records_csv).read_bytes())


def test_a_later_successful_run_clears_the_failure_record(tmp_path):
    out = tmp_path / "out"
    args = ["agreement", "--T", "4", "--d", "10", "--n", "200", "--m", "16",
            "--n-test", "0", "--out", str(out)]
    assert run(args + ["--eta", "1e6"]) == 3
    assert (out / "failure.json").exists()
    assert run(args + ["--eta", "0.5"]) == 0
    assert not (out / "failure.json").exists()


def test_overflow_abort_prints_only_the_abort_line(tmp_path, capsys):
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run(["agreement", "--eta", "1e300", "--T", "5", "--d", "10",
                    "--n", "200", "--m", "16", "--out", str(out)])
    assert code == 3
    assert [str(w.message) for w in caught] == []
    err = capsys.readouterr().err
    assert err == (f"aborted: coupled run diverged at step 1: net mse=inf, lin mse=inf; "
                   f"see {out / 'failure.json'}\n")


def test_spectral_decay_with_nearly_tied_top_eigenvalues(tmp_path):
    # at this seed the two largest |eigenvalues| of NTK - lin1 nearly tie,
    # where a power iteration does not converge in 20000 iterations
    out = tmp_path / "out"
    code = run(["spectral-decay", "--seeds", "1", "--seed", "15001", "--n", "1000",
                "--m", "2000", "--d-list", "8,16,32,64", "--out", str(out)])
    assert code == 0
    rows = (out / "norms.csv").read_text().splitlines()
    assert rows[0] == "d,seed,spectral,frobenius" and len(rows) == 5


def test_spectral_decay_needs_three_distinct_dimensions(tmp_path, capsys):
    code = run(["spectral-decay", "--d-list", "1,2", "--n", "5", "--m", "4",
                "--seeds", "1", "--out", str(tmp_path)])
    assert code == 2
    assert capsys.readouterr().err == (
        "config error: /d_list: the decay fit needs at least 3 distinct "
        "dimensions, got [1, 2]\n")
    with pytest.raises(ConfigError):
        validate_config("spectral-decay", {"d_list": [8, 8, 16]})
    validate_config("spectral-decay", {"d_list": [8, 16, 32]})


def test_label_range_warnings_print_in_the_cli_format(tmp_path):
    out = tmp_path / "out"
    proc = cli_process("norm-ablation", "--mode", "second", "--d", "20", "--n", "300",
                       "--m", "32", "--out", str(out), cwd=None)
    assert proc.returncode == 0
    lines = proc.stderr.splitlines()
    assert lines and all(line.startswith("warning: ") for line in lines), proc.stderr
    assert any("norm-dependent labels fall outside [-1, 1]" in line for line in lines)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["warnings"] == []  # the manifest holds the config's warnings only


def test_piecewise_linear_low_order_runs_as_the_default_order(tmp_path, capsys):
    # the relu kinds use closed forms, so --order changes no value
    for sub, args, name in (("moments", [], "moments.json"),
                            ("cnn-ntk", ["--d", "8", "--q", "2", "--n", "16"], "deviation.csv")):
        written = []
        for order in (["--order", "2"], []):
            out = tmp_path / f"{sub}{len(order)}"
            assert run([sub, "--act", "relu", *args, *order, "--out", str(out)]) == 0
            assert capsys.readouterr().err == ""
            written.append((out / name).read_text())
        if sub == "moments":  # the order is recorded, and nothing else differs
            low, default = map(json.loads, written)
            assert (low.pop("order"), default.pop("order")) == (2, 128)
        else:
            low, default = written
        assert low == default


def test_cnn_ntk_tabulates_at_the_given_order(tmp_path):
    from earlylin.activations import TANH
    from earlylin.harness import cnn_deviation_experiment

    assert run(["cnn-ntk", "--act", "tanh", "--order", "32", "--d", "8", "--q", "2",
                "--n", "16", "--out", str(tmp_path)]) == 0
    with open(tmp_path / "deviation.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    want = cnn_deviation_experiment(8, 2, 16, TANH, 0, order=32).points
    default = cnn_deviation_experiment(8, 2, 16, TANH, 0).points
    assert want[0].deviation != default[0].deviation  # the order shows in the output
    assert [{k: float(v) for k, v in row.items()} for row in rows] == [
        {"d": p.d, "n": p.n, "q": p.q, "deviation": p.deviation,
         "base_norm": p.base_norm, "ratio": p.ratio} for p in want]


def test_non_finite_leaky_relu_slope_is_a_config_error(tmp_path, capsys):
    assert run(["moments", "--act", "leaky-relu", "--slope", "inf",
                "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == "config error: /slope: must be finite, got inf\n"
    with pytest.raises(ConfigError) as err:  # finite whether or not the kind uses it
        validate_config("moments", {"act": "erf", "slope": "nan"})
    assert err.value.errors == ["/slope: must be finite, got nan"]


def test_a_key_has_the_type_of_its_default_in_every_subcommand():
    for defaults in DEFAULTS.values():
        for key, value in defaults.items():
            assert value is None or type(value) is _KEY_TYPES[key], key


SMALL_SWEEP = ("--d-list", "4,8,16", "--n", "50", "--m", "8", "--seeds", "1")
SMALL_CNN = ("--d", "8", "--q", "2", "--n", "16")


@pytest.mark.parametrize("args, key", [
    (("spectral-decay", "--act", "identity"), "act"),
    (("spectral-decay", "--act", "leaky-relu", "--slope", "1", *SMALL_SWEEP), "act"),
    (("cnn-ntk", "--act", "leaky-relu", "--slope=-1", *SMALL_CNN), "slope"),
    (("cnn-ntk", "--act", "leaky-relu", "--slope", "1e300", *SMALL_CNN), "slope"),
    (("spectral-decay", "--act", "leaky-relu", "--slope", "1e300", *SMALL_SWEEP), "slope"),
    (("agreement", "--act", "leaky-relu", "--slope", "1e300", "--d", "10", "--n", "200",
      "--m", "16"), "slope"),
    (("moments", "--act", "leaky-relu", "--slope", "1e300"), "slope"),
    (("moments", "--act", "leaky-relu", "--slope=-1.5"), "slope"),
])
def test_activation_settings_with_no_result_are_config_errors(tmp_path, capsys, args, key):
    # a zero norm to fit, a zero base kernel, or a slope past [-1, 1]
    out = tmp_path / "out"
    assert run([*args, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"config error: /{key}: "), err
    assert not out.exists()


@pytest.mark.parametrize("slope", ["-1", "1"])
def test_slopes_at_the_ends_of_the_range_run(tmp_path, slope):
    assert run(["agreement", "--act", "leaky-relu", f"--slope={slope}", "--d", "3",
                "--n", "12", "--m", "4", "--n-test", "3", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "manifest.json").exists()


FLOAT_KEYS = [(sub, key) for sub, defaults in DEFAULTS.items()
              for key in defaults if _KEY_TYPES[key] is float]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("sub, key", FLOAT_KEYS, ids=[f"{s}-{k}" for s, k in FLOAT_KEYS])
def test_non_finite_float_keys_are_config_errors(tmp_path, capsys, sub, key, value):
    out = tmp_path / "out"
    flag = "--" + key.replace("_", "-")
    assert run([sub, f"{flag}={value}", "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"config error: /{key}: must be finite, got {float(value)}\n")
    assert not out.exists()


def test_out_naming_a_file_is_a_config_error(tmp_path, capsys):
    existing = tmp_path / "existing"
    existing.write_text("kept\n")
    for out, reason in ((existing, "File exists"), (existing / "sub", "Not a directory")):
        assert run(["moments", "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: --out {out}: {reason}\n"
    assert list(tmp_path.iterdir()) == [existing]
    assert existing.read_text() == "kept\n"


def test_moments_warns_when_the_quadrature_order_is_too_low(tmp_path, capsys):
    assert run(["moments", "--act", "erf", "--order", "2", "--out", str(tmp_path)]) == 0
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("warning: the moments move by ")
    assert "from quadrature order 2 to 4" in err[0]
    for act in ("erf", "tanh", "relu", "sigmoid"):  # converged at the default order
        assert run(["moments", "--act", act, "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().err == ""


@pytest.mark.parametrize("args, key", [
    (("agreement", "--seed=-1", "--d", "5", "--n", "50", "--m", "4", "--n-test", "0"), "seed"),
    (("norm-ablation", "--a-seed=-1", "--d", "5", "--n", "50", "--m", "4"), "a_seed"),
    (("concentration", "--seed=-1"), "seed"),
    (("agreement", "--n-test=-1", "--d", "5", "--n", "50", "--m", "4"), "n_test"),
    (("cnn-ntk", "--growth=-10", "--d", "4", "--q", "2", "--n", "8"), "growth"),
    (("cnn-ntk", "--growth", "1e6", "--d", "4", "--q", "2", "--n", "8"), "growth"),
    # an n x n float64 kernel larger than the machine's memory, at either point
    (("cnn-ntk", "--growth", "1000", "--d", "4", "--q", "2", "--n", "8"), "growth"),
    (("cnn-ntk", "--growth", "40", "--d", "4", "--q", "2", "--n", "8"), "growth"),
    (("cnn-ntk", "--n", "10000000"), "n"),
])
def test_out_of_range_seeds_n_test_and_growth_are_config_errors(tmp_path, capsys, args, key):
    out = tmp_path / "out"
    assert run([*args, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"config error: /{key}: "), err
    assert not out.exists()


SMALL = {  # sizes at which every subcommand runs in well under a second
    "moments": [],
    "spectral-decay": ["--d-list", "2,3,4", "--n", "6", "--m", "4", "--seeds", "1"],
    "agreement": ["--d", "3", "--n", "12", "--m", "4", "--n-test", "3"],
    "discrepancy-sweep": ["--d-list", "2,3", "--n", "8", "--m", "4", "--seeds", "2"],
    "cnn-ntk": ["--d", "4", "--q", "2", "--n", "6"],
    "concentration": ["--d", "3", "--n", "10"],
    "norm-ablation": ["--d", "3", "--n", "12", "--m", "4"],
}
NUMBER_KEYS = [(sub, key) for sub, defaults in DEFAULTS.items()
               for key in defaults if _KEY_TYPES[key] in (int, float)]


@pytest.mark.parametrize("value", ["0", "-1"])
@pytest.mark.parametrize("sub, key", NUMBER_KEYS, ids=[f"{s}-{k}" for s, k in NUMBER_KEYS])
def test_number_keys_at_zero_and_minus_one_keep_the_exit_contract(tmp_path, capsys, sub,
                                                                  key, value):
    # a config error, or a run that passes or fails its checks: never a
    # traceback, a divergence or a raw warning
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run([sub, *SMALL[sub], f"--{key.replace('_', '-')}={value}",
                    "--out", str(out)])
    lines = capsys.readouterr().err.splitlines()
    if code == 2:
        assert lines and all(line.startswith("config error: ") for line in lines), lines
        assert not out.exists()
    else:
        assert code in (0, 1)
        assert all(line.startswith("warning: ") for line in lines), lines
