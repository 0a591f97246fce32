"""conftest.py's set-up, checked in a fresh pytest session."""

from pathlib import Path

CONFTEST = Path(__file__).with_name("conftest.py")


def test_a_failing_hypothesis_test_does_not_end_the_session(pytester):
    """Under the warning filters of pyproject.toml, a failing @given test is
    reported with its falsifying example, and the test after it still
    runs, also where libcst is installed."""
    pytester.makeini("""
        [pytest]
        filterwarnings =
            error::RuntimeWarning
            error::UserWarning
            error::DeprecationWarning
    """)
    pytester.makeconftest(CONFTEST.read_text())
    pytester.makepyfile("""
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_fails(n):
            assert n < 0

        def test_runs_after():
            pass
    """)
    result = pytester.runpytest_subprocess()
    result.assert_outcomes(failed=1, passed=1)
    assert "Falsifying example" in result.stdout.str()
