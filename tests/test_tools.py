import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "cmp_outputs.py"
_SPEC = importlib.util.spec_from_file_location("cmp_outputs", _PATH)
cmp_outputs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(cmp_outputs)


class TestNumberDiff:
    def test_largest_absolute_and_relative_gap(self):
        old = '{"c06_slope": 2.5, "rows": [1e-9, -4, 0.0]}\n'
        new = '{"c06_slope": 2.5000001, "rows": [1.5e-9, -4, 0.0]}\n'
        gap_abs, gap_rel = cmp_outputs.number_diff(old, new)
        assert gap_abs == pytest.approx(1e-7)
        assert gap_rel == pytest.approx(1.0 / 3.0)

    def test_equal_numbers_and_nan_give_zero(self):
        text = "x,u\n0.25,nan\n-inf,1e+300\n"
        assert cmp_outputs.number_diff(text, text) == (0.0, 0.0)

    def test_other_text_is_no_number_diff(self):
        diff = cmp_outputs.number_diff
        assert diff("passed: true 1", "passed: false 1") is None
        assert diff("1, 2", "1, 2, 3") is None

    def test_numbers_inside_names_are_text(self):
        diff = cmp_outputs.number_diff
        assert diff("c06 cubic-wavy", "c07 cubic-wavy") is None
        assert diff("eps 2^-6", "eps 2^-7") == (1.0, 1.0 / 7.0)
