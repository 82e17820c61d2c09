"""Fast tests of the benchmark itself: its checks reject corrupted outputs,
and every workload runs end to end at toy sizes.

    python3 -m pytest benchmark/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SEED = 3
# The workloads' code paths at toy sizes. At these sizes the claims (gap,
# ratio and fraction thresholds) do not hold, so they are set where every
# output passes; test_claims_are_enforced shows that they still bite.
SIZES = {
    "agreement": {"d": 10, "n": 200, "m": 16, "n_test": 50,
                  "claims": {"max_train_gap": 1.0, "max_test_gap": 1.0}},
    "ablation-second": {"d": 10, "n": 100, "m": 16,
                        "claims": {"min_fraction": 0.0}},
    "kernels": {"cnn_d": 8, "cnn_q": 4, "cnn_n": 24,
                "ntk_d": 4, "ntk_n": 60, "ntk_m": 40,
                "points": 5, "points_d": 32,
                "claims": {"max_cnn_ratio": 1.0}},
}


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """One real operation output per workload, at smoke sizes."""
    import earlylin.cli

    base = tmp_path_factory.mktemp("ops")
    for name, operation in workloads.OPERATIONS.items():
        operation(earlylin.cli, base / name, SEED, SIZES[name])
    return base


def corrupt(outputs, tmp_path, workload, edit):
    """Copy a workload's output, apply `edit` to the copy, return the problems."""
    out = tmp_path / workload
    shutil.copytree(outputs / workload, out)
    edit(out)
    return checks.CHECKS[workload](out, SEED, SIZES[workload])


def edit_csv(path: Path, row: int, column: str, change) -> None:
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    fields = lines[row + 1].split(",")
    j = header.index(column)
    fields[j] = repr(change(float(fields[j])))
    lines[row + 1] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def drop_last_row(path: Path) -> None:
    lines = path.read_text(encoding="utf-8").splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n", encoding="utf-8")


def scale_json(path: Path, key: str, factor: float) -> None:
    payload = json.loads(path.read_text(encoding="utf-8"))
    payload[key] *= factor
    path.write_text(json.dumps(payload), encoding="utf-8")


def edit_npz(path: Path, name: str, change) -> None:
    with np.load(path) as saved:
        arrays = dict(saved)
    change(arrays[name])
    np.savez(path, **arrays)


def scale_entry(K: np.ndarray, factor: float, symmetric: bool = True) -> None:
    K[1, 2] *= factor
    if symmetric:  # so that only the value is wrong
        K[2, 1] *= factor


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_checks_accept_real_output(outputs, workload):
    assert checks.CHECKS[workload](outputs / workload, SEED, SIZES[workload]) == []


AGREEMENT_CSV = f"agreement_seed{SEED}.csv"

CORRUPTIONS = {
    "agreement wrong T": (
        "agreement", "steps are not",
        lambda out: drop_last_row(out / AGREEMENT_CSV)),
    "agreement wrong summary eta": (
        "agreement", "summary eta",
        lambda out: edit_csv(out / "summary.csv", 0, "eta", lambda v: v * (1 + 1e-9))),
    "agreement wrong summary T": (
        "agreement", "summary T is not",
        lambda out: edit_csv(out / "summary.csv", 0, "T", lambda v: int(v) - 1)),
    "agreement MSE not 1 at init": (
        "agreement", "train_mse at step 0",
        lambda out: edit_csv(out / AGREEMENT_CSV, 0, "train_mse_net", lambda v: v + 1e-9)),
    "agreement nonzero output at init": (
        "agreement", "train_gap at step 0",
        lambda out: edit_csv(out / AGREEMENT_CSV, 0, "train_gap", lambda v: 1e-12)),
    "agreement parameters move at init": (
        "agreement", "parameters move before step 1",
        lambda out: edit_csv(out / AGREEMENT_CSV, 0, "w_move_fro", lambda v: 1e-9)),
    "agreement perturbed train_mse_lin": (
        "agreement", "train_mse_lin vs closed form",
        lambda out: edit_csv(out / AGREEMENT_CSV, 5, "train_mse_lin", lambda v: v * (1 + 1e-6))),
    "agreement perturbed beta_norm": (
        "agreement", "beta_norm vs closed form",
        lambda out: edit_csv(out / AGREEMENT_CSV, 9, "beta_norm", lambda v: v + 1e-6)),
    "agreement w_move_fro above sqrt(d ln d)": (
        "agreement", "max w_move_fro",
        lambda out: edit_csv(out / AGREEMENT_CSV, 9, "w_move_fro", lambda v: 5.0)),
    "agreement beta_norm above sqrt(d ln d)": (
        "agreement", "max beta_norm",
        lambda out: edit_csv(out / AGREEMENT_CSV, 9, "beta_norm", lambda v: 5.0)),
    "agreement wrong summary maximum": (
        "agreement", "summary max_w_move_fro is not the maximum",
        lambda out: edit_csv(out / "summary.csv", 0, "max_w_move_fro", lambda v: v * 1.01)),
    "ablation wrong T": (
        "ablation-second", "steps are not",
        lambda out: drop_last_row(out / "ablation.csv")),
    "ablation wrong summary T": (
        "ablation-second", "summary T",
        lambda out: edit_csv(out / "summary.csv", 0, "T", lambda v: int(v) + 1)),
    "ablation perturbed disc_full": (
        "ablation-second", "disc_full vs closed form",
        lambda out: edit_csv(out / "ablation.csv", 7, "disc_full", lambda v: v * (1 + 1e-6))),
    "ablation perturbed disc_naive": (
        "ablation-second", "disc_naive vs closed form",
        lambda out: edit_csv(out / "ablation.csv", 7, "disc_naive", lambda v: v * (1 + 1e-6))),
    "ablation nonzero discrepancy at init": (
        "ablation-second", "disc_naive at step 0",
        lambda out: edit_csv(out / "ablation.csv", 0, "disc_naive", lambda v: 1e-12)),
    "ablation wrong fraction": (
        "ablation-second", "fraction_full_below does not match",
        lambda out: edit_csv(out / "summary.csv", 0, "fraction_full_below",
                             lambda v: v - 0.01)),
    "kernels perturbed NTK difference norm": (
        "kernels", "NTK-minus-lin1 frobenius norm",
        lambda out: scale_json(out / "ntk.json", "frobenius", 1 + 1e-8)),
    "kernels missing cnn point": (
        "kernels", "deviation.csv rows are not",
        lambda out: drop_last_row(out / "cnn-ntk" / "deviation.csv")),
    "kernels perturbed cnn base norm": (
        "kernels", "base_norm at d=",
        lambda out: edit_csv(out / "cnn-ntk" / "deviation.csv", 1, "base_norm",
                             lambda v: v * (1 + 1e-5))),
    "kernels perturbed cnn deviation": (
        "kernels", "deviation at d=",
        lambda out: edit_csv(out / "cnn-ntk" / "deviation.csv", 0, "deviation",
                             lambda v: v * 1.01)),
    "kernels inconsistent cnn ratio": (
        "kernels", "ratio: ",
        lambda out: edit_csv(out / "cnn-ntk" / "deviation.csv", 1, "ratio",
                             lambda v: v * (1 + 1e-9))),
    "kernels scaled first-layer kernel entry": (
        "kernels", "expected_ntk_first vs closed form",
        lambda out: edit_npz(out / "expected.npz", "first", lambda K: scale_entry(K, 1.001))),
    "kernels scaled second-layer kernel entry": (
        "kernels", "expected_ntk_second vs closed form",
        lambda out: edit_npz(out / "expected.npz", "second", lambda K: scale_entry(K, 1.001))),
    "kernels asymmetric kernel": (
        "kernels", "expected_ntk_first is not symmetric",
        lambda out: edit_npz(out / "expected.npz", "first",
                             lambda K: scale_entry(K, 1 + 1e-12, symmetric=False))),
    "kernels kernel not PSD": (
        "kernels", "expected_ntk_second is not PSD",
        lambda out: edit_npz(out / "expected.npz", "second", lambda K: np.negative(K, out=K))),
}


@pytest.mark.parametrize("case", CORRUPTIONS)
def test_checks_reject_corrupted_output(outputs, tmp_path, case):
    workload, expected, edit = CORRUPTIONS[case]
    problems = corrupt(outputs, tmp_path, workload, edit)
    assert any(expected in p for p in problems), problems


# Each claim, tightened until the real output breaks it.
CLAIMS = {
    "agreement max_train_gap": ("agreement", {"max_train_gap": 0.0}, "max train_gap"),
    "agreement max_test_gap": ("agreement", {"max_test_gap": 0.0}, "max test_gap_clipped"),
    "ablation min_fraction": ("ablation-second", {"min_fraction": 1.01}, "is below"),
    "kernels max_cnn_ratio": ("kernels", {"max_cnn_ratio": 0.0}, "cnn ratio"),
}


@pytest.mark.parametrize("case", CLAIMS)
def test_claims_are_enforced(outputs, case):
    workload, tightened, expected = CLAIMS[case]
    size = dict(SIZES[workload], claims=dict(SIZES[workload]["claims"], **tightened))
    problems = checks.CHECKS[workload](outputs / workload, SEED, size)
    assert any(expected in p for p in problems), problems


def test_gd_trajectory_matches_iteration():
    rng = np.random.default_rng(0)
    A, y, p = rng.standard_normal((30, 6)), rng.standard_normal(30), rng.standard_normal(6)
    A[:, 5] = A[:, 4]  # a null direction of A^T A
    params, outputs = checks.gd_trajectory(A, y, 0.3, 20, p)
    for t in range(21):
        np.testing.assert_allclose(params[t], p, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(outputs[t], A @ p, rtol=1e-10, atol=1e-12)
        p = p - (0.3 / 30) * A.T @ (A @ p - y)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run(workload, trace, monkeypatch, capsys):
    monkeypatch.setattr(workloads, "SIZES", SIZES)
    code = run.main(["--workload", workload, "--seed", str(SEED), "--seconds", "0.1",
                     "--trace", str(trace)])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    result = json.loads(captured.out.strip().splitlines()[-1])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == (2 if trace else 1)
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    elif workload == "ablation-second":
        # T + 1 calls today; computing the frozen layer once would make it 1.
        T = int(0.25 * 10 * np.log(10) / 0.1)
        assert 1 <= result["metrics"]["network.preactivations.calls"]["value"] <= T + 1
        assert result["metrics"]["activations.phi.self_s"]["value"] > 0


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_reference_runs_without_the_program(workload):
    """The yardstick never touches earlylin, so no change to the program moves it."""
    code = ("import sys, reference; "
            f"f = reference.step({workload!r}, {SIZES[workload]!r}); "
            "reference.MIN_SECONDS = 0.05; "
            "assert reference.seconds(f) > 0; "
            "assert not any(m.startswith('earlylin') for m in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], cwd=BENCH, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", "agreement", "--seed", str(SEED),
         "--seconds", "0.1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
