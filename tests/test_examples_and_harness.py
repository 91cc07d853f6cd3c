"""Smoke tests: every example script runs clean; the harness sections work.

The examples double as integration tests of the public API — each ends
with internal assertions and an "... OK." line.
"""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES = sorted(
    (pathlib.Path(__file__).parent.parent / "examples").glob("*.py")
)


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda p: p.stem)
def test_example_runs_clean(script):
    result = subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True, timeout=300
    )
    assert result.returncode == 0, result.stderr
    assert "OK." in result.stdout


def test_examples_directory_has_required_scripts():
    names = {p.stem for p in EXAMPLES}
    assert "quickstart" in names
    assert len(names) >= 3  # deliverable (b): at least three examples


class TestHarnessSections:
    """The lighter harness sections, imported and executed directly."""

    @pytest.fixture(autouse=True)
    def _add_benchmarks_to_path(self, monkeypatch):
        root = pathlib.Path(__file__).parent.parent / "benchmarks"
        monkeypatch.syspath_prepend(str(root))

    def test_strictness_section(self, capsys):
        import harness

        harness.strictness()
        out = capsys.readouterr().out
        assert out.count("disagree ✓") == 6

    def test_worked_examples_section(self, capsys):
        import harness

        harness.worked_examples()
        out = capsys.readouterr().out
        assert "{(1, 4)}" in out

    def test_orderings_section(self, capsys):
        import harness

        harness.orderings()
        out = capsys.readouterr().out
        assert "36/36" in out and "25/25" in out

    def test_figure1_section_quick(self, capsys):
        import harness

        harness.figure_1(n_queries=1, n_instances=1)
        out = capsys.readouterr().out
        # six rows, all fully agreeing
        assert out.count("1/1") == 6

    def test_columnar_section_quick(self, capsys):
        import harness

        rows = harness.columnar(quick=True)
        out = capsys.readouterr().out
        assert "COLUMNAR" in out
        assert {r["workload"] for r in rows} == {"columnar_join", "columnar_semi_join"}
        assert all("columnar_ms" in r and "compiled_ms" not in r for r in rows)

    def test_columnar_section_is_gated(self):
        import check_regression

        assert "columnar" in check_regression.GATED_SECTIONS
