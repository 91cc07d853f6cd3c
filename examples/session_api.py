"""Tour of the session API: prepared queries, plans, backends, batches.

Shows what the :class:`repro.session.Database` facade adds on top of the
free functions: preparation caches the Figure-1 analysis and the
enumeration pool, ``explain`` exposes the routing decision, the three
backends are selectable by name, ``evaluate_many`` answers a batch from one
snapshot, and mutations invalidate the caches transparently.  Run with::

    python examples/session_api.py
"""

from repro import Database, Null, available_backends

x, y = Null("x"), Null("y")

# ----------------------------------------------------------------------
# 1. A session over one incomplete instance
# ----------------------------------------------------------------------

db = Database({"D": [(x, y), (y, x)]}, semantics="cwa")
print(f"session: {db!r}")

# ----------------------------------------------------------------------
# 2. Prepared queries: parse + analyze + pool paid once
# ----------------------------------------------------------------------

total = db.query("forall u . exists v . D(u, v)", name="total")
print(f"\nverdict (cached): sound={total.verdict.sound} [{total.verdict.fragment}]")
print(f"pool (cached):    {total.pool}")

first = total.evaluate()
second = total.evaluate()  # reuses the cached plan — no re-analysis
print(f"evaluate twice:   {first.holds}, {second.holds}")
assert first.holds and second.holds

# ----------------------------------------------------------------------
# 3. EXPLAIN: the routing decision as an inspectable value
# ----------------------------------------------------------------------

print("\n" + total.explain().render())
plan = db.explain(total, mode="enumeration")
assert plan.backend == "enumeration" and plan.exact

# ----------------------------------------------------------------------
# 4. Backends: columnar / naive-interp / enumeration agree where the theory says so
# ----------------------------------------------------------------------

print(f"\nbackends: {', '.join(available_backends())}")
cycle = db.query("exists u, v . D(u, v) & D(v, u)", name="cycle")
by_backend = {mode: cycle.evaluate(mode).answers for mode in available_backends()}
print(f"answers per backend: { {k: bool(v) for k, v in by_backend.items()} }")
assert by_backend["columnar"] == by_backend["naive-interp"] == by_backend["enumeration"]

# ----------------------------------------------------------------------
# 5. Batches: one snapshot, each query with its own pool
# ----------------------------------------------------------------------

batch = db.evaluate_many(
    [
        "exists u . D(u, u)",
        "exists u, v . D(u, v)",
        "forall u . exists v . D(u, v)",
    ]
)
for result in batch:
    print(
        f"  batch query → {result.holds}  "
        f"(backend={result.method}, pool={result.stats['pool_size']}, "
        f"{result.stats['execution_s']*1000:.2f} ms)"
    )

# ----------------------------------------------------------------------
# 6. Mutation invalidates the caches — same prepared query, new answers
# ----------------------------------------------------------------------

has_seven = db.query("exists u . D(u, 7)", name="has7")
print(f"\nbefore insert: {has_seven.evaluate().holds} (generation {db.generation})")
db.add_fact("D", (7, 7))
print(f"after insert:  {has_seven.evaluate().holds} (generation {db.generation})")
assert has_seven.evaluate().holds

print("\nSession API tour OK.")
