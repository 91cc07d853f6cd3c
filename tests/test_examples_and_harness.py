"""Smoke tests: every example script runs clean; the harness sections work.

The examples double as integration tests of the public API — each ends
with internal assertions and an "... OK." line.
"""

import pathlib
import subprocess
import sys
import time

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

        from repro.logic import kernels

        if not kernels.numpy_enabled():
            pytest.skip("the vector kernels are off; the section compares them")
        rows = harness.columnar(quick=True)
        out = capsys.readouterr().out
        assert "COLUMNAR" in out
        workloads = {"columnar_join", "columnar_full_join", "columnar_semi_join"}
        assert {r["workload"] for r in rows} == workloads
        # every input is timed on both kernel paths; the collapsing join's
        # and the semi-join's summed times are barred on their ratio, the
        # full-width join (the pure merge on both sides) is only reported
        assert all(r["columnar_ms"] > 0 and r["pure_ms"] > 0 for r in rows)
        for r in rows:
            if r["workload"] == "columnar_full_join":
                assert "summed_bar" not in r
            else:
                assert r["summed_bar"]["bar"].startswith("≤")
        assert out.count("against the pure-Python kernels") == 2

    def test_columnar_bar_fails_on_a_slowed_kernel(self, monkeypatch, capsys):
        import harness

        from repro.logic import kernels

        if not kernels.numpy_enabled():
            pytest.skip("the vector kernels are off; the bar compares them")
        real = kernels._vector_sort_merge_project

        def slowed(*args):  # three times the kernel's own time
            start = time.perf_counter()
            out = real(*args)
            time.sleep(2 * (time.perf_counter() - start))
            return out

        # the pure-Python reference never calls the vector kernel
        monkeypatch.setattr(kernels, "_vector_sort_merge_project", slowed)
        with pytest.raises(harness.BarFailure, match="columnar_join"):
            harness.columnar(quick=True)
        assert "FAILED" in capsys.readouterr().out

    def test_oracle_section_quick(self, capsys):
        import harness

        rows = harness.oracle(quick=True)
        out = capsys.readouterr().out
        assert "ORACLE" in out
        assert [(r["n_facts"], r["n_nulls"]) for r in rows] == [(4, 1), (6, 3), (8, 4), (12, 6)]
        assert all(r["oracle_mode"] == "bracket" for r in rows)
        # every row is barred against naive evaluation; rows small enough
        # to enumerate every world carry that time, and from 4 nulls a bar
        assert all("naive_bar" in r for r in rows)
        assert [("expansion_ms" in r) for r in rows] == [True, True, True, False]
        assert [("expansion_bar" in r) for r in rows] == [False, False, True, False]

    def test_bar_reports_and_raises(self, capsys):
        import harness

        assert harness.bar("x", 3.0, 2.0, "ref") == {"ratio": 3.0, "bar": "≥2.0"}
        assert harness.bar("y", 1.0, 2.0, "ref", at_most=True) == {"ratio": 1.0, "bar": "≤2.0"}
        with pytest.raises(harness.BarFailure, match="breaks the ≥ 2.0× bar"):
            harness.bar("z", 1.5, 2.0, "ref")
        harness.bar("q", 1.5, 2.0, "ref", enforce=False)  # reported only
        out = capsys.readouterr().out
        assert "bar x: 3.00× against ref (must be ≥ 2.0×) ok" in out
        assert "bar z: 1.50× against ref (must be ≥ 2.0×) FAILED" in out
        assert "bar q: 1.50× against ref (must be ≥ 2.0×) FAILED, not enforced" in out
