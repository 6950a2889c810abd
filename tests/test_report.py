"""Deterministic serialization and the hand-emitted SVG plot."""

import json
import math
import re

import numpy as np
import pytest

from surro import report


def test_fmt_fixed_seventeen_digits_round_trip():
    values = [0.1, 1.0 / 3.0, 0.6, 1e-13, -2.5e17, 123456.789]
    for v in values:
        text = report.fmt(v)
        assert float(text) == v  # 17 significant digits round-trip doubles
    with pytest.raises(ValueError):
        report.fmt(float("nan"))
    with pytest.raises(ValueError):
        report.fmt(math.inf)


def test_dumps_is_valid_json_and_handles_numpy():
    payload = {
        "a": 0.5,
        "b": [1, 2.5, None],
        "c": {"nested": True, "m": np.array([[1.0, 2.0], [3.0, 4.0]])},
        "d": "quote\"and\nnewline",
        "e": [],
        "f": {},
    }
    text = report.dumps(payload)
    assert text.endswith("\n")
    back = json.loads(text)
    assert back["a"] == 0.5
    assert back["c"]["m"] == [[1.0, 2.0], [3.0, 4.0]]
    assert back["d"] == 'quote"and\nnewline'
    assert (back["e"], back["f"]) == ([], {})
    assert '"e": [],\n  "f": {}\n}' in text


def test_dumps_escapes_every_string_json_must_escape():
    strings = [chr(c) for c in range(0x20)] + ['"', "\\", "θ* — naïve", "gd\tdiag\r\n"]
    payload = {"names": strings, "keys": {text: i for i, text in enumerate(strings)}}
    assert json.loads(report.dumps(payload)) == payload
    assert report.dumps("θ") == '"θ"\n'  # non-ASCII is written as itself


def test_dumps_refuses_what_json_cannot_hold():
    for bad in ({1, 2}, object(), b"bytes"):
        with pytest.raises(TypeError, match="cannot serialize"):
            report.dumps({"bad": bad})


def test_dumps_refuses_non_finite():
    with pytest.raises(ValueError):
        report.dumps({"bad": float("inf")})


def test_write_csv_newlines(tmp_path):
    path = report.write_csv(tmp_path / "t.csv", ["a", "b"], [["1", "2"], ["3", ""]])
    raw = path.read_bytes()
    assert raw == b"a,b\n1,2\n3,\n"


def test_svg_plot_contains_polyline_and_decade_ticks():
    errors = [10.0**-k for k in range(8)]
    svg = report.svg_log_error_plot(errors, 0.1, title="demo")
    assert svg.startswith("<svg")
    assert "<polyline" in svg
    for decade in (0, -3, -7):
        assert f"1e{decade}" in svg
    assert "reference rate" in svg


def test_svg_plot_degenerate_inputs():
    assert "no positive errors" in report.svg_log_error_plot([0.0, 0.0], 0.5)
    svg = report.svg_log_error_plot([1.0, 0.5, 0.25], None)
    assert "reference rate" not in svg
    # a flat series, on a decade or between two, still spans one decade
    for level, decades in ((1.0, (0, 1)), (100.0, (2, 3)), (0.003, (-3, -2))):
        svg = report.svg_log_error_plot([level] * 4, 1.0)
        ticks = [int(t) for t in re.findall(r">1e(-?\d+)</text>", svg)]
        assert tuple(ticks) == decades
