"""Closed-loop serving benchmark of ``repro serve``, end to end and per layer.

    python3 perfbench/run.py --workload hot_read --seed 1 --seconds 20 --trace 0

Each run generates the workload's instance from ``--seed``, launches a
real ``python -m repro serve`` subprocess on it, and drives it from
this process over one ``repro.client.Client`` connection: one request
in flight, no think time.  Every answer is checked against a reference
computed from the paper's definitions (``workloads.py``).  The last
line of standard output is one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the
workload twice — on the plain server, then under ``trace_serve.py`` —
and reports the per-layer metrics, the tracing overhead included.  The
lines before the JSON list every metric with its unit, plus ungated
diagnostics (p99, error rate, the unscaled timings, the host factor).

Noise controls: the server and this process are pinned to one CPU and
both get a ``PYTHONHASHSEED`` derived from the seed; warm-up ops run
before the timed window.  Every quarter second of the window a fixed
pure-Python task (:func:`host_factor`) times the CPU they share, and
the bounded timings are reported at a fixed reference host speed.
Set-up is repeated seven times per run and reported as the median.  See
README.md for the rationale.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter, process_time

import layers
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: server launches per run whose launch-to-first-ping time is reported
SETUP_REPEATS = 7
#: seconds of ops between two host-speed samples in the timed window
HOST_SAMPLE_EVERY_S = 0.25
#: host-speed samples whose median scales one block of the window
HOST_SAMPLES_PER_BLOCK = 4
#: CPU seconds :func:`_calibration_task` takes at the reference host
#: speed (about the 2-vCPU development host's typical speed)
REFERENCE_CALIBRATION_S = 0.004

END_TO_END_UNITS = {
    "read_p50_ms": "ms",
    "write_p50_ms": "ms",
    "ops_per_s": "ops/s",
    "setup_s": "s",
    "server_rss_mb": "MB",
}
#: printed, never gated: the tail percentiles moved 45-55% (interquartile
#: range over median) across ten runs on a 2-vCPU host whose own speed
#: drifts; the ``raw`` figures are the bounded ones before host scaling
DIAGNOSTIC_UNITS = {
    "read_p90_ms": "ms",
    "read_p99_ms": "ms",
    "error_rate": "fraction",
    "reads": "count",
    "writes": "count",
    "raw.read_p50_ms": "ms",
    "raw.write_p50_ms": "ms",
    "raw.ops_per_s": "ops/s",
    "raw.setup_s": "s",
    "host_factor": "x",
    "host_factor_before": "x",
    "host_factor_after": "x",
    "server.cpu_ms_per_op": "ms",
    "client.cpu_ms_per_op": "ms",
}
PER_LAYER_UNITS = {
    "server.handle_read_ms": "ms",
    "server.render_read_ms": "ms",
    "server.handle_write_ms": "ms",
    "server.answer_rows_per_read": "count",
    "server.cpu_ms_per_op": "ms",
    "wire.read_ms": "ms",
    "client.cpu_ms_per_op": "ms",
    "session.evaluate_ms": "ms",
    "session.plan_ms": "ms",
    "session.apply_delta_ms": "ms",
    "session.cache_hit_ratio": "ratio",
    "session.cache_entries": "count",
    "session.cache_hits": "count",
    "session.cache_misses": "count",
    "session.cache_evictions": "count",
    "server.requests": "count",
    "server.errors": "count",
    "core.make_plan_ms": "ms",
    "core.execute_ms": "ms",
    "core.oracle_ms": "ms",
    "core.oracle_worlds_per_read": "count",
    "logic.naive_eval_ms": "ms",
    "logic.kernel_ms": "ms",
    "logic.decode_ms": "ms",
    "logic.kernel_calls_per_read": "count",
    "data.derive_ms": "ms",
    "storage.append_ms": "ms",
    "storage.sync_ms": "ms",
    "storage.wal_records": "count",
    "storage.wal_bytes_per_write": "bytes",
    "trace.overhead_pct": "%",
    "trace.unaccounted_pct": "%",
}


_CALIBRATION_R = [(x, (x * 7919) % 1000) for x in range(1000)]
_CALIBRATION_S = [(z, (z * 104_729) % 1_000_003) for z in range(1000)]


def _calibration_task() -> int:
    """A fixed pure-Python hash join with set, sort and dict work.

    It uses no code of the system under test, so a change to the
    program cannot change its cost; its mix of small-object allocation
    and hashing slows down with the host the way the server's work does.
    """
    kept = 0
    for _ in range(3):
        by_z: dict = {}
        for z, y in _CALIBRATION_S:
            by_z.setdefault(z, []).append(y)
        out = {(x, y) for x, z in _CALIBRATION_R for y in by_z.get(z, ())}
        halves = frozenset(out) & frozenset(sorted(out)[::2])
        kept += len({row: str(row) for row in halves})
    return kept


def host_factor() -> float:
    """How much slower than the reference this CPU runs right now.

    The task is timed in CPU seconds, so a thread competing for the CPU
    (the server's, say) does not make the host look slower.
    """
    start = process_time()
    _calibration_task()
    return (process_time() - start) / REFERENCE_CALIBRATION_S


def host_factor_median() -> float:
    return statistics.median(host_factor() for _ in range(3))


class ServerProcess:
    """One ``repro serve`` subprocess, launched and timed to its first ping."""

    def __init__(self, argv: list[str], env: dict, cpus: set[int] | None, log: Path):
        self.argv, self.env, self.cpus, self.log = argv, env, cpus, log
        self.proc: subprocess.Popen | None = None
        self.client = None
        self.setup_s = 0.0

    def start(self) -> "ServerProcess":
        from repro.client import Client

        cpus = self.cpus
        start = perf_counter()
        with open(self.log, "a") as log:
            self.proc = subprocess.Popen(
                self.argv,
                stdout=subprocess.PIPE,
                stderr=log,
                text=True,
                env=self.env,
                cwd=ROOT,
                preexec_fn=(lambda: os.sched_setaffinity(0, cpus)) if cpus else None,
            )
        for line in self.proc.stdout:
            if "listening on " in line:
                address = line.rsplit("listening on ", 1)[1].strip()
                break
        else:
            raise RuntimeError(f"server exited before listening; see {self.log.name}")
        self.client = Client(address, retries=0, timeout=60.0)
        self.client.ping()
        self.setup_s = perf_counter() - start
        return self

    def _proc_file(self, name: str) -> str:
        return Path(f"/proc/{self.proc.pid}/{name}").read_text()

    def cpu_s(self) -> float:
        """User + system CPU seconds of every server thread so far."""
        fields = self._proc_file("stat").rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        for line in self._proc_file("status").splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
        return 0.0

    def stop(self) -> None:
        if self.client is not None:
            self.client.close()
            self.client = None
        proc, self.proc = self.proc, None
        if proc is None:
            return
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.communicate(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
        else:
            proc.communicate()


class Phase:
    """One server launch driven through warm-up and a timed window."""

    def __init__(self, workload, server: ServerProcess):
        self.w = workload
        self.server = server
        #: every op sent, warm-up included, for the reference replay
        self.ops: list[tuple] = []
        #: one digest (reads) or ``None`` (writes, failures) per op
        self.digests: list = []
        #: timed-window ``(kind, latency_s, request id, digest)`` records
        self.records: list[tuple] = []
        #: the window in blocks of about a second: ``(records end index,
        #: seconds spent on ops, host factor)``
        self.blocks: list[tuple[int, float, float]] = []
        self.failed = 0
        self.stats_before = self.stats_after = None
        self.counted_writes = 0
        self.server_cpu_s = 0.0
        self.client_cpu_s = 0.0
        self.peak_rss_mb = 0.0

    def _send(self, op: tuple):
        from repro.client import ClientError

        client = self.server.client
        start = perf_counter()
        try:
            if op[0] == "query":
                response = client.query(self.w.query, vars=list(self.w.vars))
            else:
                response = client.request(
                    {"op": op[0], "relation": op[1], "rows": [op[2]]})
        except (ClientError, OSError) as err:
            latency = perf_counter() - start
            print(f"op {len(self.ops)} {op[0]} failed: {err}", file=sys.stderr)
            self.failed += 1
            self.ops.append(op)
            self.digests.append(None)
            return latency, None, None, False
        latency = perf_counter() - start
        digest = workloads.answer_digest(response["answers"]) if op[0] == "query" else None
        self.ops.append(op)
        self.digests.append(digest)
        return latency, response.get("id"), digest, True

    def run(self, seconds: float) -> None:
        stream = self.w.ops()
        for _ in range(self.w.warmup_ops):
            self._send(next(stream))
        client = self.server.client
        self.stats_before = client.stats()
        # the load generator's own collector pauses would land inside the
        # client-observed latencies; its ops create no reference cycles
        gc.disable()
        try:
            self._window(client, stream, seconds)
        finally:
            gc.enable()

    def _window(self, client, stream, seconds: float) -> None:
        """Ops in blocks of about a second until ``seconds`` of ops ran.

        Before each quarter second of ops the host factor is sampled;
        the median of a block's samples scales that block.  The samples
        and the ``stats`` request are not counted in the window's time.
        """
        cpu0, pcpu0 = self.server.cpu_s(), process_time()
        hard_stop = perf_counter() + 3 * seconds
        ops_s = sampling_cpu_s = 0.0
        while ops_s < seconds or self.stats_after is None:
            factors, block_s = [], 0.0
            for _ in range(HOST_SAMPLES_PER_BLOCK):
                factors.append(host_factor())
                sampling_cpu_s += factors[-1] * REFERENCE_CALIBRATION_S
                start = perf_counter()
                paused = 0.0
                while perf_counter() - start < HOST_SAMPLE_EVERY_S:
                    paused += self._step(client, stream, hard_stop)
                block_s += perf_counter() - start - paused
            self.blocks.append((len(self.records), block_s, statistics.median(factors)))
            ops_s += block_s
        self.server_cpu_s = self.server.cpu_s() - cpu0
        self.client_cpu_s = process_time() - pcpu0 - sampling_cpu_s

    def _step(self, client, stream, hard_stop: float) -> float:
        """Sends one op; returns the seconds spent on a ``stats`` request."""
        op = next(stream)
        latency, rid, digest, ok = self._send(op)
        if ok:
            self.records.append((op[0], latency, rid, digest))
        elif self.failed > 10:
            raise RuntimeError("more than 10 ops failed; giving up")
        done = len(self.records)
        if done <= self.w.counted_ops and op[0] != "query":
            self.counted_writes += 1
        now = perf_counter()
        if done == self.w.counted_ops or (self.stats_after is None and now >= hard_stop):
            # counts and peak memory after a fixed number of ops, so
            # neither depends on how fast the host ran the window
            self.stats_after = client.stats()
            self.peak_rss_mb = self.server.peak_rss_mb()
            return perf_counter() - now
        return 0.0

    def check(self) -> int:
        """Replay the ops over the reference; returns the wrong answers."""
        expected = iter(workloads.reference_digests(self.w, self.ops))
        wrong = 0
        for op, got in zip(self.ops, self.digests):
            if op[0] == "query":
                want = next(expected)
                if got is not None and got != want:
                    wrong += 1
        if wrong:
            print(f"{wrong} answers differ from the reference", file=sys.stderr)
        return wrong

    def latencies(self, kind: str, scaled: bool = True) -> list[float]:
        """Read or write latencies in seconds, at the reference host speed
        (``scaled``) or as the client saw them."""
        out, begin = [], 0
        for end, _, factor in self.blocks:
            divisor = factor if scaled else 1.0
            out += [lat / divisor for k, lat, _, _ in self.records[begin:end]
                    if (k == "query") == (kind == "read")]
            begin = end
        return out

    def ops_per_s(self, scaled: bool = True) -> float:
        """Completed ops ÷ the window's time spent on ops."""
        seconds = sum(s / (factor if scaled else 1.0) for _, s, factor in self.blocks)
        return len(self.records) / seconds


def _quantile(values: list[float], q: int) -> float:
    """The ``q``-th percentile (exclusive method), in the values' unit."""
    return statistics.quantiles(values, n=100)[q - 1] if len(values) > 1 else values[0]


def end_to_end(phase: Phase, setups: list[tuple[float, float]]) -> dict[str, float]:
    """The end-to-end metrics and diagnostics of one phase; ``setups``
    holds ``(seconds, host factor)`` per timed launch."""
    reads_s, writes_s = phase.latencies("read"), phase.latencies("write")
    ops = len(phase.records)
    out = {
        "read_p50_ms": statistics.median(reads_s) * 1e3,
        "read_p90_ms": _quantile(reads_s, 90) * 1e3,
        "write_p50_ms": statistics.median(writes_s) * 1e3,
        "ops_per_s": phase.ops_per_s(),
        "server_rss_mb": phase.peak_rss_mb,
        "read_p99_ms": _quantile(reads_s, 99) * 1e3,
        "reads": len(reads_s),
        "writes": len(writes_s),
        "raw.read_p50_ms": statistics.median(phase.latencies("read", False)) * 1e3,
        "raw.write_p50_ms": statistics.median(phase.latencies("write", False)) * 1e3,
        "raw.ops_per_s": phase.ops_per_s(False),
        "host_factor": statistics.median(f for _, _, f in phase.blocks),
        "server.cpu_ms_per_op": phase.server_cpu_s * 1e3 / ops,
        "client.cpu_ms_per_op": phase.client_cpu_s * 1e3 / ops,
    }
    if setups:
        out["setup_s"] = statistics.median(s / f for s, f in setups)
        out["raw.setup_s"] = statistics.median(s for s, _ in setups)
    return out


class Bench:
    """Launches servers for one workload run and tears them all down."""

    def __init__(self, workload, work: Path):
        self.w = workload
        self.work = work
        self.launches = 0
        self.instance = work / "instance.json"
        self.instance.write_text(json.dumps(workload.instance))
        # one CPU for the server and this process: the host's CPUs change
        # speed independently, and the host factor is sampled on this one
        self.server_cpus = {max(os.sched_getaffinity(0))}
        os.sched_setaffinity(0, self.server_cpus)
        # the server inherits this process's PYTHONHASHSEED
        self.env = {k: v for k, v in os.environ.items() if k != "REPRO_FAILPOINTS"}
        self.env["PYTHONPATH"] = str(SRC)
        self.servers: list[ServerProcess] = []

    def timed_setups(self) -> list[tuple[float, float]]:
        """``(seconds, host factor)`` of :data:`SETUP_REPEATS` launches;
        the server of the last one is left running."""
        setups = []
        for k in range(SETUP_REPEATS):
            if k:
                self.servers[-1].stop()
            factor = host_factor_median()
            setups.append((self.launch().setup_s, factor))
        return setups

    def launch(self, traced_spans: Path | None = None) -> ServerProcess:
        self.launches += 1
        serve = ["serve", str(self.instance), "--port", "0", "--semantics", "cwa"]
        if self.w.durable:
            serve += ["--data-dir", str(self.work / f"data{self.launches}")]
        if traced_spans is None:
            argv = [sys.executable, "-m", "repro", *serve]
        else:
            argv = [sys.executable, str(HERE / "trace_serve.py"), str(traced_spans), *serve]
        server = ServerProcess(argv, self.env, self.server_cpus, self.work / "server.log")
        self.servers.append(server)
        return server.start()

    def close(self) -> None:
        for server in self.servers:
            server.stop()


def run(args, workload, work: Path) -> dict:
    """One run: ``metrics``, ``diagnostics``, ``attempted``, ``failed``, ``spans``."""
    bench = Bench(workload, work)
    phases: list[Phase] = []
    spans: list = []
    try:
        factor_before = host_factor_median()
        if not args.trace:
            setups = bench.timed_setups()
            phase = Phase(workload, bench.servers[-1])
            phases.append(phase)
            phase.run(args.seconds)
            phase.server.stop()
            results = end_to_end(phase, setups)
        else:
            plain = Phase(workload, bench.launch())
            phases.append(plain)
            plain.run(args.seconds / 2)
            plain.server.stop()
            spans_path = work / "spans.json"
            traced = Phase(workload, bench.launch(spans_path))
            phases.append(traced)
            traced.run(args.seconds / 2)
            traced.server.stop()
            spans = json.loads(spans_path.read_text())
            untraced = end_to_end(plain, [])
            results = {
                **untraced,
                **layers.from_spans(spans, traced.records),
                **layers.from_stats(plain.stats_before, plain.stats_after,
                                    plain.counted_writes),
                "server.answer_rows_per_read": statistics.median(
                    d[0] for k, _, _, d in plain.records if k == "query"),
                "trace.overhead_pct": 100.0 * (
                    end_to_end(traced, [])["read_p50_ms"] / untraced["read_p50_ms"] - 1.0),
            }
        factor_after = host_factor_median()
    finally:
        bench.close()
    wrong = sum(phase.check() for phase in phases)
    attempted = sum(len(phase.ops) for phase in phases)
    failed = sum(phase.failed for phase in phases) + wrong
    results["error_rate"] = failed / attempted
    results["host_factor_before"] = factor_before
    results["host_factor_after"] = factor_after
    names = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    metrics = {name: results[name] for name in names}
    diagnostics = {name: results[name] for name in DIAGNOSTIC_UNITS
                   if name in results and name not in metrics}
    return {"metrics": metrics, "diagnostics": diagnostics, "attempted": attempted,
            "failed": failed, "spans": sorted({span[1] for span in spans})}


def report(args, result: dict) -> list[str]:
    """The printed lines: every metric with its unit, then the JSON result."""
    units = {**END_TO_END_UNITS, **PER_LAYER_UNITS, **DIAGNOSTIC_UNITS}
    lines = [f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
             f"attempted {result['attempted']}  failed {result['failed']}"]
    for name, value in {**result["metrics"], **result["diagnostics"]}.items():
        lines.append(f"  {name:32s} {value:14.4f} {units[name]}")
    if result["spans"]:
        lines.append("  spans: " + " ".join(result["spans"]))
    lines.append(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in result["metrics"].items()},
    }))
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program under test is missing: no {SRC / 'repro'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # set and dict layouts (and with them dictionary code order) repeat
    # run to run: re-exec under a hash seed derived from the seed
    hash_seed = str((args.seed * 2654435761 + workloads.NAMES.index(args.workload)) % 2**32)
    if os.environ.get("PYTHONHASHSEED") != hash_seed:
        os.environ["PYTHONHASHSEED"] = hash_seed
        os.execv(sys.executable, [sys.executable, *sys.argv])
    workload = workloads.build(args.workload, args.seed)
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        result = run(args, workload, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run's work directory is still there
    print("\n".join(report(args, result)))
    return 0 if result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
