"""Per-layer metrics: spans from ``trace_serve.py`` joined with client records.

Every timing is the median, over the timed window's reads (or writes),
of the time that op spent in the layer — zero for an op that never
entered it, so a layer the workload bypasses reads 0.
"""

from __future__ import annotations

import statistics
from collections import defaultdict


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _per_request(spans) -> dict:
    """``request id → {span name: [seconds, calls, extra sum]}``."""
    out: dict = defaultdict(lambda: defaultdict(lambda: [0.0, 0, 0]))
    for _sid, name, start, end, _parent, rid, extra in spans:
        entry = out[rid][name]
        entry[0] += end - start
        entry[1] += 1
        if isinstance(extra, int):
            entry[2] += extra
    return out


def from_spans(spans, records) -> dict[str, float]:
    """Span-derived metrics for the ``(kind, latency_s, id, digest)`` records."""
    per = _per_request(spans)

    def ms(req, name):
        return req[name][0] * 1e3

    reads = [(lat, per[rid]) for kind, lat, rid, _ in records
             if kind == "query" and rid in per]
    writes = [per[rid] for kind, _, rid, _ in records if kind != "query" and rid in per]
    out = {
        "server.handle_read_ms": _median(ms(r, "server.handle") for _, r in reads),
        "server.render_read_ms": _median(
            ms(r, "server.handle") - ms(r, "session.evaluate") for _, r in reads),
        "server.handle_write_ms": _median(ms(w, "server.handle") for w in writes),
        # everything outside ``handle``: the response's JSON encoding on
        # the server's event loop, the socket, and the client's decoding
        "wire.read_ms": _median(lat * 1e3 - ms(r, "server.handle") for lat, r in reads),
        "session.evaluate_ms": _median(ms(r, "session.evaluate") for _, r in reads),
        "session.plan_ms": _median(ms(r, "session.plan") for _, r in reads),
        "session.apply_delta_ms": _median(ms(w, "session.apply_delta") for w in writes),
        "core.make_plan_ms": _median(ms(r, "core.make_plan") for _, r in reads),
        "core.execute_ms": _median(ms(r, "core.execute") for _, r in reads),
        "core.oracle_ms": _median(ms(r, "core.oracle") for _, r in reads),
        "core.oracle_worlds_per_read": _median(r["core.oracle"][2] for _, r in reads),
        "logic.naive_eval_ms": _median(ms(r, "logic.naive_eval") for _, r in reads),
        "logic.kernel_ms": _median(ms(r, "logic.kernel") for _, r in reads),
        "logic.decode_ms": _median(
            ms(r, "logic.naive_eval") - ms(r, "logic.kernel") for _, r in reads),
        "logic.kernel_calls_per_read": _median(r["logic.kernel"][1] for _, r in reads),
        "data.derive_ms": _median(ms(w, "data.derive") for w in writes),
        "storage.append_ms": _median(ms(w, "storage.append") for w in writes),
        "storage.sync_ms": _median(ms(w, "storage.sync") for w in writes),
    }
    # one traced read, the one at the median client latency: the share
    # of what the client waited that no listed span covers
    if reads:
        lat, req = sorted(reads, key=lambda item: item[0])[len(reads) // 2]
        out["trace.unaccounted_pct"] = 100.0 * (1.0 - req["server.handle"][0] / lat)
    else:
        out["trace.unaccounted_pct"] = 0.0
    return out


def from_stats(before: dict, after: dict, writes: int) -> dict[str, float]:
    """Counts from two ``stats`` responses around the counted block."""
    cache0, cache1 = before["result_cache"], after["result_cache"]
    hits = cache1["hits"] - cache0["hits"]
    looked_up = hits + (cache1["misses"] - cache0["misses"]) + (
        cache1["uncacheable"] - cache0["uncacheable"])
    storage0, storage1 = before.get("storage", {}), after.get("storage", {})
    wal_bytes = storage1.get("wal_bytes", 0) - storage0.get("wal_bytes", 0)
    return {
        "session.cache_hit_ratio": hits / looked_up if looked_up else 0.0,
        "session.cache_hits": hits,
        "session.cache_misses": cache1["misses"] - cache0["misses"],
        "session.cache_evictions": cache1["evictions"] - cache0["evictions"],
        "session.cache_entries": cache1["entries"],
        "server.requests": after["requests"]["requests"] - before["requests"]["requests"],
        "server.errors": after["requests"]["errors"] - before["requests"]["errors"],
        "storage.wal_records": (
            storage1.get("wal_records", 0) - storage0.get("wal_records", 0)),
        "storage.wal_bytes_per_write": wal_bytes / writes if writes else 0.0,
    }
