"""No float enters the exact layer.

The modules that build spaces, maps, certificates, measure systems and
giets compute with Fractions and int pairs only.  Each is parsed, and the
test fails on a `float` name, a float literal, or an import from `math`
other than the integer functions.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "cantorwalk"
EXACT = ("space.py", "maps.py", "certify.py", "verify.py", "measure_solver.py", "giet.py",
         "rational.py")
INTEGER_MATH = {"gcd", "prod", "lcm", "isqrt"}


@pytest.mark.parametrize("module", EXACT)
def test_exact_module_uses_no_float(module):
    tree = ast.parse((SRC / module).read_text())
    for node in ast.walk(tree):
        where = f"{module}:{getattr(node, 'lineno', '?')}"
        assert not (isinstance(node, ast.Name) and node.id == "float"), where
        assert not (isinstance(node, ast.Constant)
                    and isinstance(node.value, float)), where
        if isinstance(node, ast.Import):
            assert "math" not in {a.name for a in node.names}, where
        if isinstance(node, ast.ImportFrom) and node.module == "math":
            assert {a.name for a in node.names} <= INTEGER_MATH, where
