"""README's Library tour: every python block runs, and its exact results hold."""

import re
from fractions import Fraction
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)


def test_readme_python_blocks_run_and_their_fractions_hold():
    assert BLOCKS
    namespace = {}
    for number, block in enumerate(BLOCKS, start=1):
        exec(compile(block, f"README.md python block {number}", "exec"), namespace)
        # a line `expr   # Fraction(a, b)...` states the value of expr
        for expr, value in re.findall(r"^(\S.*?)\s+# (Fraction\(\d+, \d+\))", block, re.M):
            assert eval(expr, namespace) == eval(value, {"Fraction": Fraction}), expr
