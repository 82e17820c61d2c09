"""Per-layer self times and work counts for a traced operation.

`Tracer.install()` wraps public functions of the `earlylin` modules and
replaces every module-level name bound to the original function (the name in
its own module and the names its callers import it under, such as
`harness.phi` and `network.phi`), so nothing under `src/` changes. Functions
that import a name at call time (`kernels.ntk_first_layer`) find the
wrapper in the defining module.

A layer's self time is the time inside its wrapped calls minus the time spent
in nested wrapped calls, so the layers' self times add up to the traced
operation time less what runs outside every layer.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

import numpy as np


def _elements(act, z, *_, **__):
    return float(np.size(z))


def _preactivation_gflop(net, X, *_, **__):
    n, d = X.shape
    return 2.0 * n * d * net.W.shape[0] / 1e9


def _spec_rows(spec, *_, **__):
    return float(spec.n)


def _n_rows(n, *_, **__):
    return float(n)


# (module, function, layer, name of the work counter, work of one call).
# Calls to the harness recipes and to `cli.run` are attributed to the module,
# so `harness.self_s` is recipe time minus every wrapped callee.
TIMED = (
    ("activations", "phi", "activations.phi", "elements", _elements),
    ("activations", "phi_prime", "activations.phi_prime", "elements", _elements),
    ("network", "preactivations", "network.preactivations", "gflop", _preactivation_gflop),
    ("datagen", "generate_inputs", "datagen.generate_inputs", "rows", _spec_rows),
    ("datagen", "generate_hypercube", "datagen.generate_hypercube", "rows", _n_rows),
    ("kernels", "spectral_norm", "kernels.spectral_norm", None, None),
    ("kernels", "ntk_first_layer", "kernels.ntk_first_layer", None, None),
    ("kernels", "linear_kernel", "kernels.linear_kernel", None, None),
    ("kernels", "cnn_infinite_ntk", "kernels.cnn_infinite_ntk", None, None),
    ("kernels", "expected_ntk_first", "kernels.expected_ntk_first", None, None),
    ("kernels", "expected_ntk_second", "kernels.expected_ntk_second", None, None),
    ("harness", "coupled_run", "harness", None, None),
    ("harness", "norm_feature_ablation_experiment", "harness", None, None),
    ("harness", "spectral_decay_experiment", "harness", None, None),
    ("harness", "cnn_deviation_experiment", "harness", None, None),
    ("harness", "cnn_kernel_deviation", "harness", None, None),
    ("cli", "run", "cli", None, None),
)

# Called about a thousand times per kernels operation at ~1 ms each: counted,
# not timed, so its time stays in the kernel builders that call it.
COUNTED = (
    ("activations", "bivariate_expectation", "activations.bivariate_expectation"),
)


class Tracer:
    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.work = defaultdict(float)
        self._child_s = []  # one accumulator per wrapped call in progress

    def _timed(self, fn, layer, work):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._child_s.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                total = time.perf_counter() - start
                self.self_s[layer] += total - self._child_s.pop()
                if self._child_s:
                    self._child_s[-1] += total
                self.calls[layer] += 1
                if work is not None:
                    self.work[layer] += work(*args, **kwargs)
        return wrapper

    def _counted(self, fn, layer):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[layer] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self) -> None:
        """Wrap every layer function under all the names it is bound to."""
        modules = [m for name, m in sys.modules.items()
                   if name == "earlylin" or name.startswith("earlylin.")]
        targets = [(mod, fn, self._timed, (layer, work))
                   for mod, fn, layer, _, work in TIMED]
        targets += [(mod, fn, self._counted, (layer,)) for mod, fn, layer in COUNTED]
        for mod_name, fn_name, make, extra in targets:
            original = getattr(sys.modules[f"earlylin.{mod_name}"], fn_name)
            wrapper = make(original, *extra)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)

    def totals(self) -> dict[str, float]:
        """Flat per-layer figures: `<layer>.self_s`, `.calls` and the work count."""
        out = {}
        for _, _, layer, work_name, _ in TIMED:
            out[f"{layer}.self_s"] = self.self_s[layer]
            out[f"{layer}.calls"] = float(self.calls[layer])
            if work_name is not None:
                out[f"{layer}.{work_name}"] = self.work[layer]
        for _, _, layer in COUNTED:
            out[f"{layer}.calls"] = float(self.calls[layer])
        return out
