"""The benchmark's workloads: what one operation runs, and at which sizes.

An operation is one experiment as a user runs it: an `earlylin` subcommand
(or, for the expected kernels, the library call that has no subcommand),
run in a fresh interpreter by `worker.py`. The functions here are called in
that worker after `earlylin` has been imported; they raise on any failure.

Op k of a run uses seed `op_seed(run_seed, k)`, so every operation of a run
draws its own inputs and a run's median averages over that many inputs.
"""

from __future__ import annotations

from pathlib import Path

WORKLOADS = ("agreement", "ablation-second", "kernels")

# The sizes of each workload's inputs, and the `claims`: the thresholds the
# checks hold each output to (tests/test_acceptance.py criteria 3, 9, 10 and 11).
SIZES = {
    "agreement": {"d": 50, "n": 5000, "m": 256, "n_test": 2000,
                  "claims": {"max_train_gap": 0.05, "max_test_gap": 0.1}},
    "ablation-second": {"d": 50, "n": 2000, "m": 256,
                        "claims": {"min_fraction": 0.8}},
    "kernels": {"cnn_d": 32, "cnn_q": 8, "cnn_n": 256,
                "ntk_d": 16, "ntk_n": 2000, "ntk_m": 4000,
                "points": 24, "points_d": 32,
                "claims": {"max_cnn_ratio": 0.15}},
}


def op_seed(run_seed: int, k: int) -> int:
    """Seed of the k-th operation of a run (k < 1000)."""
    return run_seed * 1000 + k


def _earlylin(cli, subcommand: str, out: Path, **flags) -> None:
    argv = [subcommand, "--out", str(out)]
    for key, value in flags.items():
        argv += ["--" + key.replace("_", "-"), str(value)]
    code = cli.run(argv)
    if code != 0:
        raise RuntimeError(f"earlylin {' '.join(argv)} exited with {code}")


def run_agreement(cli, out: Path, seed: int, size: dict) -> None:
    """`earlylin agreement` at its defaults: mode both, erf, horizon-rule T."""
    _earlylin(cli, "agreement", out, seed=seed, d=size["d"], n=size["n"],
              m=size["m"], n_test=size["n_test"])


def run_ablation_second(cli, out: Path, seed: int, size: dict) -> None:
    """`earlylin norm-ablation --mode second`: relu, first layer frozen."""
    _earlylin(cli, "norm-ablation", out, mode="second", seed=seed, a_seed=seed,
              d=size["d"], n=size["n"], m=size["m"])


def run_kernels(cli, out: Path, seed: int, size: dict) -> None:
    """cnn-ntk, one spectral-decay point's kernel difference, the erf expected kernels.

    The spectral-decay point is NTK-at-init minus the lin1 kernel, built as
    `earlylin spectral-decay` builds it, with its Frobenius norm: the
    subcommand itself is left out because its power-iteration spectral norm
    fails to converge on some seeds.
    """
    import json

    import numpy as np
    from earlylin import kernels
    from earlylin.activations import ERF, moments, nu
    from earlylin.datagen import DataSpec, generate_inputs, identity_covariance
    from earlylin.harness import _NET_SEED_SHIFT
    from earlylin.network import symmetric_init

    _earlylin(cli, "cnn-ntk", out / "cnn-ntk", seed=seed, d=size["cnn_d"],
              q=size["cnn_q"], n=size["cnn_n"])

    d, cov, mom = size["ntk_d"], identity_covariance(size["ntk_d"]), moments(ERF)
    X = generate_inputs(DataSpec(cov, "gaussian", size["ntk_n"], seed))
    net = symmetric_init(size["ntk_m"], d, ERF, seed + _NET_SEED_SHIFT)
    D = (kernels.ntk_first_layer(net, X).values
         - kernels.linear_kernel(X, mom, nu(mom, cov, d), "lin1").values)
    (out / "ntk.json").write_text(json.dumps({"frobenius": kernels.frobenius_norm(D)}),
                                  encoding="utf-8")

    X = generate_inputs(DataSpec(identity_covariance(size["points_d"]),
                                 "gaussian", size["points"], seed))
    np.savez(out / "expected.npz",
             first=kernels.expected_ntk_first(X, ERF).values,
             second=kernels.expected_ntk_second(X, ERF).values)


OPERATIONS = {
    "agreement": run_agreement,
    "ablation-second": run_ablation_second,
    "kernels": run_kernels,
}
