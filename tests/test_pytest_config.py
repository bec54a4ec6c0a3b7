"""The suite's own pytest settings keep a failing test from ending the session."""

pytest_plugins = ["pytester"]

FAIL_THEN_PASS = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_a_failing_hypothesis_test(x):
    assert x != x


def test_the_next_test_still_runs():
    pass
"""


def test_a_failing_hypothesis_test_is_reported_and_the_session_goes_on(pytester, request):
    # On a failure Hypothesis imports libcst, which warns; with every warning
    # an error, a warning the settings do not ignore ends the session there.
    warnings = request.config.getini("filterwarnings")
    assert "error" in warnings
    pytester.makeini("[pytest]\nfilterwarnings =\n" + "".join(f"    {w}\n" for w in warnings))
    pytester.makepyfile(test_inner=FAIL_THEN_PASS)
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider")
    result.assert_outcomes(failed=1, passed=1)
