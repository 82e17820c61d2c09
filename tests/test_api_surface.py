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
