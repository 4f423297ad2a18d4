"""The suite's own pytest configuration."""

from __future__ import annotations

from pathlib import Path

import pytest
from hypothesis import settings

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_failing_property_does_not_abort_the_session(pytester):
    # hypothesis imports libcst only to report a failing property, and
    # libcst's import warns; under "error" alone that warning ends the
    # session, so the test after the property never runs.
    tomllib = pytest.importorskip("tomllib")
    options = tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))["tool"]["pytest"]
    filters = options["ini_options"]["filterwarnings"]
    pytester.makeini("[pytest]\nfilterwarnings =\n" + "".join(f"    {f}\n" for f in filters))
    pytester.makepyfile(
        """
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_property_fails(x):
            assert x < 10

        def test_after_the_property():
            pass
        """
    )
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider")
    result.assert_outcomes(failed=1, passed=1)


def test_hypothesis_prints_a_reproducer_and_changes_nothing_else():
    # The suite's profile turns on print_blob alone: examples, seeds,
    # max_examples and deadlines stay hypothesis's defaults.
    assert settings().print_blob is True
    assert repr(settings()) == repr(settings(settings.get_profile("default"), print_blob=True))
