"""Every module-level function and class of the package is named somewhere
besides its own definition: in the package, in `tests/` or in `perfbench/`.

A definition that nothing else names is code nothing uses, often a helper a
refactor left behind; delete it, or use it. The check matches whole words,
so a name in a comment, a docstring or a string (as the benchmark's tracer
names its wrap points) counts as a use.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "disene"
SEARCHED = (PACKAGE, ROOT / "tests", ROOT / "perfbench")
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _module_level_definitions():
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, DEFINITIONS):
                yield f"{path.name}:{node.lineno}", node.name


def test_every_module_level_definition_is_named_elsewhere():
    text = "\n".join(path.read_text() for root in SEARCHED
                     for path in sorted(root.rglob("*.py")))
    unused = [f"{where} {name}" for where, name in _module_level_definitions()
              if len(re.findall(rf"\b{re.escape(name)}\b", text)) < 2]
    assert unused == []
