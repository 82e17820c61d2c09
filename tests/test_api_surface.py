"""No library API that only the tests reach, beyond short lists with reasons.

A top-level function or class of `src/earlylin/*.py` whose name appears
nowhere else in `src/` or in `benchmark/*.py` has no caller but the tests.
So has a field, property or method of one of its classes that `src/` and
`benchmark/*.py` never read as `.name`. Each such name must be on a list
below, with the reason it is kept; anything else is dead weight and goes,
its oracle written out in the tests.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

KEPT_FOR_THE_TESTS = {
    "loss_gradients": "criterion 7: the net's gradients against finite differences",
    "cnn_init": "criterion 7: the CNN whose gradients are checked",
    "cnn_forward": "criterion 7: the CNN whose gradients are checked",
    "cnn_loss_gradients": "criterion 7: the CNN's gradients against finite differences",
    "closed_form_trajectory": "criterion 5: closed-form against iterative GD",
    "ntk_second_layer": "the empirical second-layer NTK: the kernel tests' oracle",
}

# "Class" keeps every member of the class, "Class.member" that member.
MEMBERS_KEPT = {
    "AgreementRecord": "its fields are the columns of the agreement CSV (`dataclasses.astuple`)",
    "CnnDeviationPoint": "its fields are the columns of deviation.csv (`dataclasses.astuple`)",
    "Moments": "its fields are the keys of moments.json (`dataclasses.asdict`)",
    "DecayFit.intercept": "a key of fits.json (`dataclasses.asdict`)",
}


def test_only_the_listed_names_have_no_caller_outside_the_tests():
    library = sorted((ROOT / "src" / "earlylin").glob("*.py"))
    texts = [p.read_text(encoding="utf-8")
             for p in library + sorted((ROOT / "benchmark").glob("*.py"))]
    unreached = set()
    for path in library:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                word = re.compile(rf"\b{re.escape(node.name)}\b")
                if sum(len(word.findall(text)) for text in texts) == 1:  # its definition
                    unreached.add(node.name)
    assert unreached == set(KEPT_FOR_THE_TESTS)


def _members(cls: ast.ClassDef):
    """The fields (annotated in the body or set on self), properties and
    methods of a class, but not its dunder methods."""
    for node in cls.body:
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            yield node.target.id
        elif isinstance(node, ast.FunctionDef):
            if not node.name.startswith("__"):
                yield node.name
            for sub in ast.walk(node):
                if (isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Store)
                        and isinstance(sub.value, ast.Name) and sub.value.id == "self"):
                    yield sub.attr


def test_only_the_listed_class_members_are_never_read_outside_the_tests():
    library = sorted((ROOT / "src" / "earlylin").glob("*.py"))
    trees = [ast.parse(p.read_text(encoding="utf-8")) for p in library]
    read = {node.attr
            for path in library + sorted((ROOT / "benchmark").glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = {f"{cls.name}.{name}"
              for tree in trees for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
              if cls.name not in MEMBERS_KEPT
              for name in _members(cls) if name not in read}
    assert unread == {key for key in MEMBERS_KEPT if "." in key}


def test_no_function_imports_an_earlylin_module():
    # the package's modules import each other at the top, in one order with
    # no cycle; a deferred import of another library (scipy.sparse.linalg
    # for start-up time) is allowed
    deferred = []
    for path in sorted((ROOT / "src" / "earlylin").glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                if isinstance(node, ast.ImportFrom):
                    names = ["." * node.level + (node.module or "")]
                elif isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                else:
                    continue
                if any(n.startswith(".") or n.split(".")[0] == "earlylin" for n in names):
                    deferred.append(f"{path.name}:{node.lineno} in {fn.name}")
    assert deferred == []
