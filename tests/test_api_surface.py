"""No library API that only the tests reach, beyond a short list with reasons.

A top-level function or class of `src/earlylin/*.py` whose name appears
nowhere else in `src/` or in `benchmark/*.py` has no caller but the tests.
Each such name must be on the list below, with the reason it is kept;
anything else is dead weight and goes, its oracle written out in the tests.
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
