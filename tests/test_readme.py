"""The README's code examples run as written, and its config tables match the schema."""

import re
from pathlib import Path

from surro.config import _ALGO_FIELDS

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_use_example_runs(capsys):
    text = README.read_text()
    block = re.search(r"^## Library use\n\n```python\n(.*?)^```", text, re.S | re.M).group(1)
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines()[-1].startswith("RatePair(rho_inf=0.76")


def test_the_algorithm_table_lists_exactly_each_algorithm_fields():
    """Required fields before '(+optional', optional ones after it; a lone backticked
    name in parentheses restricts the field before it to one type and is no field."""
    table = re.search(r"^\| algorithm .*?\n\|[- |]+\|\n((?:\|.*\n)+)", README.read_text(),
                      re.M).group(1)
    rows = dict(row.strip("|").split("|", 1) for row in table.splitlines())
    rows = {algo.strip("` "): fields for algo, fields in rows.items()}
    assert set(rows) == set(_ALGO_FIELDS)
    for algo, schema in _ALGO_FIELDS.items():
        required, _, optional = re.sub(r"\(`\w+`\)", "", rows[algo]).partition("(+optional")
        listed = [set(re.findall(r"`(\w+)`", part)) for part in (required, optional)]
        assert listed == [set(schema.required), set(schema.fields) - set(schema.required)], algo
