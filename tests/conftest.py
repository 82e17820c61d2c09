import pytest


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
