"""The README's code examples run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_use_example_runs(capsys):
    text = README.read_text()
    block = re.search(r"^## Library use\n\n```python\n(.*?)^```", text, re.S | re.M).group(1)
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines()[-1].startswith("RatePair(rho_inf=0.76")
