"""The README's Python example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    scope: dict = {}
    exec(blocks[0], scope)
    res = scope["res"]
    # image(Q) = w1'^6 * z^3 * wn', with wn' = z - 1 for the residue X - 1
    assert res.witness["exact"] is True
    assert res.witness["monomial_exponent"] == [6, 3]
    assert res.new_var == "wn'"
