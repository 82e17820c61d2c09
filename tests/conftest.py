import os

# One BLAS thread, as the benchmark's workers run: OpenBLAS's own threads
# compete with the phi pool for the cores. Set before numpy is first imported;
# neither pytest plugin imports it.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import pytest  # noqa: E402


@pytest.fixture
def rows_per_call(monkeypatch):
    """Wrap functions at the names a module imports them under, or methods of a
    class, and record the row count of each call's result:
    `rows_per_call(module, "phi", ...)` returns {name: [rows of call 1, ...]}."""

    def install(module, *names):
        seen = {name: [] for name in names}
        for name in names:
            original = getattr(module, name)

            def wrapper(*args, _name=name, _original=original, **kwargs):
                out = _original(*args, **kwargs)
                seen[_name].append(out.shape[0])
                return out

            monkeypatch.setattr(module, name, wrapper)
        return seen

    return install
