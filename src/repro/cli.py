"""Command-line interface: analyze, evaluate and explain queries over JSON instances.

Instance files are JSON objects mapping relation names to lists of rows;
a string cell starting with ``"?"`` denotes a marked null (``"?x"`` is
the null ⊥x, repeatable across facts); a doubled marker escapes a
literal leading question mark (``"??x"`` is the constant ``"?x"``)::

    {"R": [[1, "?x"], ["?y", "?z"]], "S": [["?x", 4]]}

Usage::

    python -m repro analyze  "exists z (R(x,z) & S(z,y))" --semantics owa
    python -m repro evaluate "exists z (R(x,z) & S(z,y))" db.json --semantics cwa
    python -m repro explain  "forall x . exists y . D(x,y)" db.json --semantics owa
    python -m repro fragments "forall x . exists y . D(x,y)"
    python -m repro serve db.json --data-dir ./state
    python -m repro serve --replica-of 127.0.0.1:7453 --data-dir ./replica
    python -m repro cluster status 127.0.0.1:7453
    python -m repro cluster add-replica 127.0.0.1:7453 --data-dir ./replica2
    python -m repro cluster promote 127.0.0.1:7462
    python -m repro snapshot ./state
    python -m repro recover  ./state --dump out.json

``explain`` prints the evaluation plan (chosen backend, Figure-1
verdict, exactness, cost hints) without running the query; ``--json``
renders it as machine-readable JSON.  ``serve`` runs the JSON-lines
query server (``--data-dir`` makes it durable: recover on start,
journal every acknowledged write, checkpoint on graceful shutdown —
on ``SIGINT`` *or* ``SIGTERM``, so process managers get the same
guarantee; ``--replica-of`` makes the node a read replica streaming a
primary's WAL); ``cluster`` inspects and drives a replicated cluster
(``status`` with per-replica lag, ``add-replica``, ``promote``);
``snapshot`` compacts a data directory; ``recover`` reports what
recovery would restore and can export the instance.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.client import (
    Client,
    ClientError,
    DegradedServerError,
    ReadOnlyServerError,
    ServerError,
    StaleReadError,
    TransportError,
)
from repro.core import analyze
from repro.core.analyzer import FIGURE_1
from repro.core.backends import available_backends
from repro.data.instance import Instance

# the JSON wire format lives in repro.data.jsonio (shared with the
# server); the CLI re-exports the instance codec under its historical
# public names
from repro.data.jsonio import instance_from_json, instance_to_json
from repro.logic.classes import classify
from repro.logic.columnar import compiled_query
from repro.logic.queries import Query
from repro.semantics import get_semantics
from repro.semantics.base import ExpansionLimitError
from repro.session import Database, as_query

__all__ = ["main", "instance_from_json", "instance_to_json"]


def _build_query(text: str) -> Query:
    # one source of truth for the "answer columns = free variables in
    # name order" convention: the session layer's normaliser
    return as_query(text, name="cli")


def _load_instance(path: str | None) -> Instance:
    if path is None:
        return Instance.empty()
    with open(path, encoding="utf-8") as handle:
        return instance_from_json(handle.read())


def _cmd_analyze(args) -> int:
    query = _build_query(args.query)
    keys = [args.semantics] if args.semantics else sorted(FIGURE_1)
    for key in keys:
        verdict = analyze(query, key)
        flag = "SOUND" if verdict.sound else "not sound"
        extra = " (over cores)" if verdict.over_cores_only else ""
        print(f"{key:>8}: naive evaluation {flag}{extra}")
        print(f"          {verdict.reason}")
    return 0


def _cmd_fragments(args) -> int:
    query = _build_query(args.query)
    got = classify(query.formula)
    print(f"query: {query.formula!r}")
    print("fragments:", ", ".join(got))
    return 0


def _print_result(query: Query, result) -> None:
    if query.is_boolean:
        print(f"certain answer: {result.holds}")
    else:
        head = ", ".join(v.name for v in query.answer_vars)
        print(f"certain answers ({head}):")
        for row in sorted(result.answers, key=repr):
            print("  " + ", ".join(map(repr, row)))
        if not result.answers:
            print("  (none)")
    status = "exact" if result.exact else f"approximate ({result.direction})"
    print(f"method: {result.method}  [{status}]")


def _print_oracle(result) -> None:
    """The oracle's world count, with the CWA bracket when it ran."""
    oracle = result.stats.get("oracle")
    if not oracle:
        return
    worlds = oracle.get("worlds", "?")
    if oracle.get("mode") == "bracket":
        lower, upper, gap = oracle["lower"], oracle["upper"], oracle["gap"]
        detail = f"bracket: {lower} lower, {upper} upper, gap {gap}"
    else:
        detail = oracle.get("mode", "?")
    print(f"oracle: {worlds} worlds ({detail})")


def _cmd_evaluate(args) -> int:
    query = _build_query(args.query)
    instance = _load_instance(args.instance)
    result = Database(instance, semantics=args.semantics).evaluate(query, mode=args.mode)
    _print_result(query, result)
    _print_oracle(result)
    return 0


def _cmd_explain(args) -> int:
    query = _build_query(args.query)
    instance = _load_instance(args.instance)
    db = Database(instance, semantics=args.semantics)
    plan = db.explain(query, mode=args.mode)
    operators: str | None = None
    if args.operators:
        if plan.backend not in ("columnar", "enumeration"):
            operators = f"(backend {plan.backend!r} does not run the columnar engine)"
        else:
            # the one compiled plan of the query, whichever backend runs it
            cq = compiled_query(query)
            operators = cq.describe()
            if plan.backend == "columnar":
                order = cq.join_order()
                if order:
                    operators += "\njoin order: " + " ⋈ ".join(order)
            else:
                operators = "world plan (run on every enumerated world):\n" + operators
                if get_semantics(plan.semantics).substitution_only:
                    operators += (
                        "\nlower bound (used when the pool has a fresh value per null):\n"
                        + cq.describe_lower()
                    )
    if args.as_json:
        data = plan.to_dict()
        if operators is not None:
            data["operators"] = operators.splitlines()
        print(json.dumps(data, indent=2, default=str))
    else:
        print(plan.render())
        if operators is not None:
            print("  operators   :")
            for line in operators.splitlines():
                print("    " + line)
    return 0


def _cmd_serve(args) -> int:
    """Run the JSON-lines query server over one shared Database."""
    import signal

    from repro.server import serve

    # an instance file seeds a *fresh* data dir only; with neither, the
    # session starts empty (or recovers whatever --data-dir holds)
    instance = _load_instance(args.instance) if args.instance else None
    db = Database(instance, semantics=args.semantics, path=args.data_dir)
    if args.data_dir:
        info = db.recovery_info
        print(
            f"repro serve: data dir {args.data_dir} — recovered generation "
            f"{db.generation} ({info.wal_records} WAL records on top of "
            f"snapshot generation {info.snapshot_generation})"
        )
    # every node serves the `replicate` op, so replicas can be chained;
    # the tailer starts once the listener is bound and announced
    server = serve(
        db,
        host=args.host,
        port=args.port,
        max_inflight=args.max_inflight,
        max_conns=args.max_conns,
        idle_timeout_s=max(0.0, args.idle_timeout_s),
        executor_threads=args.threads,
        replicate_from=args.replica_of,
    )
    tailer = server.service.tailer
    address = f"{server.address[0]}:{server.address[1]}"
    print(f"repro serve: listening on {address}", flush=True)
    print("protocol: one JSON request per line, one JSON response per line", flush=True)
    if tailer is not None:
        print(
            f"replica of {tailer.primary_address}: streaming its WAL; "
            f"writes are rejected until 'promote'",
            flush=True,
        )

    # SIGTERM must take the same graceful path as Ctrl-C: process
    # managers speak SIGTERM, and a durable node (a replica especially)
    # must checkpoint its position on the way out
    def _on_sigterm(signum, frame):
        raise SystemExit(0)

    previous = None
    try:
        previous = signal.signal(signal.SIGTERM, _on_sigterm)
    except ValueError:
        pass  # not the main thread (tests drive main() in-process)
    try:
        server.serve_forever()
    except (KeyboardInterrupt, SystemExit):
        print("\nshutting down")
    finally:
        if previous is not None:
            signal.signal(signal.SIGTERM, previous)
        # graceful drain: in-flight requests get --drain-timeout-s to
        # finish (and have their responses written) before connections
        # are torn down; only then does the shutdown checkpoint run
        server.shutdown(drain_timeout_s=max(0.0, args.drain_timeout_s))
        if db.checkpoint():
            # graceful-shutdown snapshot: the next start reads one
            # snapshot instead of replaying the whole log
            print(f"checkpointed {args.data_dir} at generation {db.generation}")
        db.close()
    return 0


def _rpc(address: str, request: dict, timeout: float = 10.0) -> dict:
    """One resilient JSON-lines exchange with a serving node.

    Routed through :class:`repro.client.Client`: idempotent reads get
    capped-exponential retry with jitter, mutations are sent at most
    once, and typed error frames (``degraded``, ``read_only``,
    ``stale``) surface as typed exceptions that :func:`main` maps to
    distinct exit codes — no raw tracebacks, no prose parsing.
    """
    with Client(address, timeout=timeout) as client:
        return client.request(request)


def _print_table(headers: list[str], rows: list[list]) -> None:
    cells = [[str(value) for value in row] for row in rows]
    widths = [
        max(len(header), *(len(row[i]) for row in cells)) if cells else len(header)
        for i, header in enumerate(headers)
    ]
    print("  ".join(header.ljust(width) for header, width in zip(headers, widths)))
    for row in cells:
        print("  ".join(value.ljust(width) for value, width in zip(row, widths)))


def _cluster_peer_row(address: str | None, reported: dict) -> dict:
    """One replica's row, preferring its own stats over the feed's view."""
    row = {
        "node": address or "(anonymous)",
        "role": "replica",
        "generation": reported.get("sent_generation"),
        "facts": "?",
        "lag_generations": reported.get("lag_generations"),
        "lag_bytes": reported.get("lag_bytes"),
        "state": "streaming",
    }
    if address:
        try:
            stats = _rpc(address, {"op": "stats"}, timeout=5.0)
            replication = stats.get("replication", {})
            row["role"] = replication.get("role", "replica")
            row["generation"] = replication.get("position", {}).get("generation")
            row["facts"] = stats.get("fact_count")
            tailer = replication.get("tailer") or {}
            row["state"] = "streaming" if tailer.get("connected") else "disconnected"
        except (OSError, ValueError, ClientError):
            row["state"] = "unreachable"
    return row


def _cmd_cluster_status(args) -> int:
    """Roles, applied positions and per-replica lag for a whole cluster."""
    stats = _rpc(args.node, {"op": "stats"})
    if not stats.get("ok"):
        print(f"error: {stats.get('error', 'stats failed')}", file=sys.stderr)
        return 2
    replication = stats.get("replication", {})
    position = replication.get("position", {})
    rows = [
        {
            "node": args.node,
            "role": replication.get("role", "?"),
            "generation": position.get("generation", stats.get("generation")),
            "facts": stats.get("fact_count"),
            "lag_generations": "-",
            "lag_bytes": "-",
            "state": "serving",
        }
    ]
    tailer = replication.get("tailer") or {}
    if tailer.get("primary"):
        # the queried node is a replica: put its primary above it
        try:
            upstream = _rpc(tailer["primary"], {"op": "stats"}, timeout=5.0)
            up_repl = upstream.get("replication", {})
            rows.insert(0, {
                "node": tailer["primary"],
                "role": up_repl.get("role", "primary"),
                "generation": up_repl.get("position", {}).get("generation"),
                "facts": upstream.get("fact_count"),
                "lag_generations": "-",
                "lag_bytes": "-",
                "state": "serving",
            })
        except (OSError, ValueError, ClientError):
            rows.insert(0, {
                "node": tailer["primary"], "role": "primary", "generation": "?",
                "facts": "?", "lag_generations": "-", "lag_bytes": "-",
                "state": "unreachable",
            })
        rows[-1]["state"] = "streaming" if tailer.get("connected") else "disconnected"
    for peer in replication.get("feed", {}).get("replicas", []):
        rows.append(_cluster_peer_row(peer.get("address"), peer))
    if args.as_json:
        print(json.dumps({"node": args.node, "rows": rows}, indent=2))
        return 0
    headers = ["node", "role", "generation", "facts", "lag(gen)", "lag(bytes)", "state"]
    _print_table(headers, [
        [r["node"], r["role"], r["generation"], r["facts"],
         r["lag_generations"], r["lag_bytes"], r["state"]]
        for r in rows
    ])
    return 0


def _cmd_cluster_add_replica(args) -> int:
    """Spawn a detached ``repro serve --replica-of`` process and report it."""
    import os
    import subprocess
    import tempfile
    import time
    from pathlib import Path

    command = [
        sys.executable, "-u", "-m", "repro", "serve",
        "--replica-of", args.primary, "--host", args.host, "--port", str(args.port),
    ]
    if args.data_dir:
        command += ["--data-dir", args.data_dir]
    if args.log:
        log_path = Path(args.log)
    elif args.data_dir:
        log_path = Path(args.data_dir) / "serve.log"
    else:
        fd, name = tempfile.mkstemp(prefix="repro-replica-", suffix=".log")
        os.close(fd)
        log_path = Path(name)
    log_path.parent.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    package_root = str(Path(__file__).resolve().parent.parent)
    env["PYTHONPATH"] = package_root + os.pathsep + env.get("PYTHONPATH", "")
    with open(log_path, "ab") as log_handle:
        proc = subprocess.Popen(
            command, stdout=log_handle, stderr=subprocess.STDOUT,
            start_new_session=True, env=env,
        )
    deadline = time.monotonic() + 30
    address = None
    while time.monotonic() < deadline and address is None:
        for line in log_path.read_text(errors="replace").splitlines():
            if "listening on" in line:
                address = line.strip().rsplit(" ", 1)[-1]
                break
        if address is None:
            if proc.poll() is not None:
                print(
                    f"error: replica exited with rc={proc.returncode}; see {log_path}",
                    file=sys.stderr,
                )
                return 2
            time.sleep(0.05)
    if address is None:
        proc.kill()
        print(f"error: replica did not announce its address; see {log_path}", file=sys.stderr)
        return 2
    print(f"replica started: {address} (pid {proc.pid}), replicating from {args.primary}")
    print(f"log: {log_path}")
    return 0


def _cmd_cluster_promote(args) -> int:
    """Checkpoint a replica and flip it writable (failover)."""
    response = _rpc(args.replica, {"op": "promote"})
    if not response.get("ok"):
        print(f"error: {response.get('error', 'promote failed')}", file=sys.stderr)
        return 2
    generation = response.get("generation")
    if response.get("promoted"):
        note = " (position checkpointed)" if response.get("checkpointed") else ""
        print(f"{args.replica} promoted to primary at generation {generation}{note}")
    else:
        print(f"{args.replica} is already a primary (generation {generation})")
    return 0


def _cmd_snapshot(args) -> int:
    """Compact a data directory: write a fresh snapshot, truncate the WAL."""
    db = Database(path=args.data_dir)
    try:
        info = db.recovery_info
        written = db.checkpoint()
        stats = db.storage_stats
        print(
            f"recovered generation {db.generation} "
            f"({info.wal_records} WAL records replayed, "
            f"{info.torn_bytes} torn bytes ignored)"
        )
        if written:
            print(
                f"snapshot written: {db.instance.fact_count()} facts, "
                f"{stats['snapshot_bytes']} bytes; WAL truncated"
            )
        else:
            print("already fully snapshotted; nothing to do")
    finally:
        db.close()
    return 0


def _cmd_recover(args) -> int:
    """Open a data directory, report what recovery found, optionally dump it."""
    db = Database(path=args.data_dir)
    try:
        info = db.recovery_info
        snapshot_note = "" if info.had_snapshot else " (no snapshot file)"
        skipped_note = (
            f" ({info.wal_skipped} already in the snapshot)" if info.wal_skipped else ""
        )
        print(f"data dir      : {args.data_dir}")
        print(f"snapshot      : generation {info.snapshot_generation}{snapshot_note}")
        print(f"WAL replayed  : {info.wal_records} records{skipped_note}")
        if info.torn_bytes:
            print(f"torn tail     : {info.torn_bytes} bytes ignored (crash mid-append)")
        print(f"generation    : {db.generation}")
        print(f"facts         : {db.instance.fact_count()} across "
              f"{len(db.instance.relations)} relations")
        for name in db.instance.relations:
            print(f"  {name}/{db.instance.arity(name)}: {len(db.instance.tuples(name))} rows, "
                  f"generation {db.rel_generation(name)}")
        if args.dump:
            with open(args.dump, "w", encoding="utf-8") as handle:
                handle.write(instance_to_json(db.instance) + "\n")
            print(f"instance dumped to {args.dump}")
    finally:
        db.close()
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Naive evaluation and certain answers over incomplete databases",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    modes = ["auto", *available_backends()]

    p_analyze = sub.add_parser("analyze", help="is naive evaluation sound for this query?")
    p_analyze.add_argument("query", help="FO query text")
    p_analyze.add_argument("--semantics", choices=sorted(FIGURE_1), default=None)
    p_analyze.set_defaults(func=_cmd_analyze)

    p_frag = sub.add_parser("fragments", help="which syntactic fragments contain the query")
    p_frag.add_argument("query")
    p_frag.set_defaults(func=_cmd_fragments)

    p_eval = sub.add_parser("evaluate", help="compute certain answers over a JSON instance")
    p_eval.add_argument("query")
    p_eval.add_argument("instance", help="path to the JSON instance file")
    p_eval.add_argument("--semantics", choices=sorted(FIGURE_1), default="cwa")
    p_eval.add_argument("--mode", choices=modes, default="auto")
    p_eval.set_defaults(func=_cmd_evaluate)

    p_certain = sub.add_parser(
        "certain",
        help="force the certain-answer oracle (bounded [[D]] enumeration), "
        "with its world count",
    )
    p_certain.add_argument("query")
    p_certain.add_argument("instance", help="path to the JSON instance file")
    p_certain.add_argument("--semantics", choices=sorted(FIGURE_1), default="cwa")
    p_certain.set_defaults(func=_cmd_evaluate, mode="enumeration")

    p_explain = sub.add_parser(
        "explain", help="show the evaluation plan (backend, verdict, cost) without running"
    )
    p_explain.add_argument("query")
    p_explain.add_argument(
        "instance",
        nargs="?",
        default=None,
        help="optional JSON instance file (default: the empty instance)",
    )
    p_explain.add_argument("--semantics", choices=sorted(FIGURE_1), default="cwa")
    p_explain.add_argument("--mode", choices=modes, default="auto")
    p_explain.add_argument(
        "--json", dest="as_json", action="store_true", help="emit the plan as JSON"
    )
    p_explain.add_argument(
        "--operators",
        action="store_true",
        help="also show the operator tree (chosen kernels, joins, join order, …)",
    )
    p_explain.set_defaults(func=_cmd_explain)

    p_serve = sub.add_parser(
        "serve",
        help="run the JSON-lines query server over one shared session "
        "(concurrent clients, incremental mutation, result caching)",
    )
    p_serve.add_argument(
        "instance",
        nargs="?",
        default=None,
        help="optional JSON instance file to seed the session (default: empty)",
    )
    p_serve.add_argument("--semantics", choices=sorted(FIGURE_1), default="cwa")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument(
        "--port", type=int, default=7453, help="TCP port (0 = pick a free one)"
    )
    p_serve.add_argument(
        "--threads",
        type=int,
        default=8,
        help="executor threads evaluating requests",
    )
    p_serve.add_argument(
        "--max-inflight",
        dest="max_inflight",
        type=int,
        default=64,
        help="admission control: requests allowed in flight at once before the "
        "server sheds load with a typed 'overloaded' frame",
    )
    p_serve.add_argument(
        "--max-conns",
        dest="max_conns",
        type=int,
        default=1024,
        help="connections accepted at once; the next one is refused with a typed "
        "'overloaded' frame instead of being queued silently",
    )
    p_serve.add_argument(
        "--idle-timeout-s",
        dest="idle_timeout_s",
        type=float,
        default=0.0,
        help="reap a connection idle (or stalled mid-frame) this long "
        "(0 = never; slowloris defence)",
    )
    p_serve.add_argument(
        "--data-dir",
        default=None,
        help="data directory for durable serving: recover on start, journal every "
        "acknowledged write, checkpoint on graceful shutdown (an instance file "
        "may seed a fresh directory only)",
    )
    p_serve.add_argument(
        "--replica-of",
        dest="replica_of",
        metavar="HOST:PORT",
        default=None,
        help="run as a read replica of the given primary: stream its WAL, reject "
        "writes with a typed read_only error until 'cluster promote'; combine "
        "with --data-dir so the replica's position survives restarts",
    )
    p_serve.add_argument(
        "--drain-timeout-s",
        dest="drain_timeout_s",
        type=float,
        default=5.0,
        help="graceful-shutdown drain window: in-flight requests get this many "
        "seconds to finish before connections close (0 = immediate hard close)",
    )
    p_serve.set_defaults(func=_cmd_serve)

    p_cluster = sub.add_parser(
        "cluster", help="inspect and drive a replicated cluster (status, add-replica, promote)"
    )
    cluster_sub = p_cluster.add_subparsers(dest="cluster_command", required=True)

    c_status = cluster_sub.add_parser(
        "status", help="roles, applied positions and per-replica lag (generations and bytes)"
    )
    c_status.add_argument("node", help="HOST:PORT of any cluster node")
    c_status.add_argument(
        "--json", dest="as_json", action="store_true", help="emit machine-readable JSON"
    )
    c_status.set_defaults(func=_cmd_cluster_status)

    c_add = cluster_sub.add_parser(
        "add-replica", help="spawn a detached 'repro serve --replica-of' process"
    )
    c_add.add_argument("primary", help="HOST:PORT of the primary to replicate")
    c_add.add_argument(
        "--data-dir",
        default=None,
        help="data directory for the replica (its position then survives restarts)",
    )
    c_add.add_argument("--host", default="127.0.0.1")
    c_add.add_argument("--port", type=int, default=0, help="TCP port (0 = pick a free one)")
    c_add.add_argument(
        "--log", default=None,
        help="log file for the spawned process (default: <data-dir>/serve.log or a temp file)",
    )
    c_add.set_defaults(func=_cmd_cluster_add_replica)

    c_promote = cluster_sub.add_parser(
        "promote", help="checkpoint a replica and flip it writable (failover)"
    )
    c_promote.add_argument("replica", help="HOST:PORT of the replica to promote")
    c_promote.set_defaults(func=_cmd_cluster_promote)

    p_snapshot = sub.add_parser(
        "snapshot",
        help="compact a data directory: write a fresh snapshot and truncate the WAL",
    )
    p_snapshot.add_argument("data_dir", help="data directory of a durable session")
    p_snapshot.set_defaults(func=_cmd_snapshot)

    p_recover = sub.add_parser(
        "recover",
        help="recover a data directory (snapshot + WAL replay) and report what was found",
    )
    p_recover.add_argument("data_dir", help="data directory of a durable session")
    p_recover.add_argument(
        "--dump",
        metavar="PATH",
        default=None,
        help="also write the recovered instance as a JSON instance file",
    )
    p_recover.set_defaults(func=_cmd_recover)

    args = parser.parse_args(argv)
    # exit codes: 0 ok · 2 bad input / untyped error · 3 node degraded ·
    # 4 node read-only (writes go to the reported primary) · 5 stale read
    # (staleness bound unmet) · 6 node unreachable — scripts can branch on
    # the class of failure without parsing stderr
    try:
        return args.func(args)
    except DegradedServerError as err:
        print(f"error (degraded): {err}", file=sys.stderr)
        return 3
    except ReadOnlyServerError as err:
        primary = err.primary
        hint = f"; writes go to {primary}" if primary else ""
        print(f"error (read_only): {err}{hint}", file=sys.stderr)
        return 4
    except StaleReadError as err:
        print(f"error (stale): {err}", file=sys.stderr)
        return 5
    except TransportError as err:
        print(f"error (unreachable): {err}", file=sys.stderr)
        return 6
    except ServerError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (ValueError, OSError, ExpansionLimitError, ClientError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
