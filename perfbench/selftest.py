"""Self-test of the benchmark: every workload at a tiny size, both modes.

    python3 perfbench/selftest.py          (or: python -m pytest perfbench/selftest.py)

Checks that each run prints every end-to-end and per-layer metric with
its unit, that the correctness check passes, that the traced runs emit
every span ``trace_serve.py`` records, and that the benchmark's own
references agree with the repo's reference backends (``naive-interp``
for the join, ``enumeration`` for the oracle query).
"""

from __future__ import annotations

import io
import itertools
import json
import os
import sys
import tempfile
import unittest
from contextlib import redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run as bench  # noqa: E402
import trace_serve  # noqa: E402
import workloads  # noqa: E402


class _Args:
    seed = 3
    seconds = 1.0

    def __init__(self, workload: str, trace: int):
        self.workload = workload
        self.trace = trace


def _tiny(name: str):
    w = workloads.build(name, _Args.seed)
    w.warmup_ops = min(w.warmup_ops, 10)
    w.counted_ops = 10
    return w


class TestRuns(unittest.TestCase):
    """Each workload, untraced and traced, through the real server."""

    def setUp(self):
        self._cpus = os.sched_getaffinity(0)

    def tearDown(self):
        os.sched_setaffinity(0, self._cpus)  # the run pins this process

    def _run(self, name: str, trace: int) -> tuple[dict, list[str]]:
        args = _Args(name, trace)
        with tempfile.TemporaryDirectory() as work, redirect_stdout(io.StringIO()):
            result = bench.run(args, _tiny(name), Path(work))
        return result, bench.report(args, result)

    def _check(self, name: str, trace: int, units: dict) -> tuple[dict, list[str]]:
        result, lines = self._run(name, trace)
        self.assertEqual(result["failed"], 0)
        final = json.loads(lines[-1])
        self.assertEqual(set(final), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(final["correct"])
        self.assertGreaterEqual(final["attempted"], 1)
        self.assertEqual(set(final["metrics"]), set(units))
        for metric, unit in units.items():
            self.assertEqual(final["metrics"][metric]["unit"], unit)
            self.assertTrue(
                any(line.split()[:1] == [metric] and line.endswith(" " + unit)
                    for line in lines[:-1]),
                f"{metric} not printed with its unit {unit}",
            )
        return final["metrics"], result["spans"]

    def test_end_to_end(self):
        for name in workloads.NAMES:
            with self.subTest(workload=name):
                metrics, _ = self._check(name, 0, bench.END_TO_END_UNITS)
                for metric, entry in metrics.items():
                    self.assertGreater(entry["value"], 0, metric)

    def test_traced_emits_every_span(self):
        seen: set[str] = set()
        for name in workloads.NAMES:
            with self.subTest(workload=name):
                seen.update(self._check(name, 1, bench.PER_LAYER_UNITS)[1])
        # each layer is entered by at least one workload
        self.assertEqual({span for _, _, span in trace_serve.WRAPPED} - seen, set())


class TestReferences(unittest.TestCase):
    """The benchmark's references agree with the repo's reference backends."""

    def _digest(self, db, query, vars_, mode):
        from repro.data.jsonio import encode_row

        answers = db.query(query, vars=vars_).evaluate(mode).answers
        return workloads.answer_digest(encode_row("Q", row) for row in answers)

    def test_join_matches_naive_interp(self):
        from repro import Database
        from repro.data.jsonio import instance_from_json

        # naive-interp walks the active domain, so only a tiny instance
        instance = {"R": [[1, 2], [2, "?n"], [3, 4], ["?m", 4]],
                    "S": [[2, 5], ["?n", 6], [4, "?k"], [4, 7]]}
        db = Database(instance_from_json(json.dumps(instance)))
        model = {name: {tuple(row) for row in rows} for name, rows in instance.items()}
        self.assertEqual(
            workloads.answer_digest(workloads.naive_join(model["R"], model["S"])),
            self._digest(db, workloads.JOIN_QUERY, ("x", "y"), "naive-interp"),
        )

    def test_oracle_matches_enumeration(self):
        from repro import Database
        from repro.data.jsonio import instance_from_json

        w = workloads.build("oracle", _Args.seed)
        ops = list(itertools.islice(w.ops(), 12))
        expected = workloads.reference_digests(w, ops)
        db = Database(instance_from_json(json.dumps(w.instance)), result_cache_size=0)
        got = []
        for op in ops:
            if op[0] == "query":
                got.append(self._digest(db, w.query, w.vars, "enumeration"))
            else:
                getattr(db, op[0])(op[1], tuple(op[2]))
        self.assertEqual(got, expected)


if __name__ == "__main__":
    unittest.main()
