"""Quickstart: incomplete databases, certain answers, the session API.

Reproduces the paper's running examples end-to-end through the public
API.  Run with::

    python examples/quickstart.py
"""

from repro import Database, Instance, Null, Query, analyze, parse

# ----------------------------------------------------------------------
# 1. An incomplete database with marked nulls (the paper's introduction)
# ----------------------------------------------------------------------

k1, k2, k3 = Null("1"), Null("2"), Null("3")
db = Database(
    {
        "R": [(1, k1), (k2, k3)],  # R(A, B)
        "S": [(k1, 4), (k3, 5)],  # S(B, C)
    },
    semantics="owa",
)
print("The incomplete database:")
print(db.instance.pretty())

# ----------------------------------------------------------------------
# 2. A conjunctive query: π_AC(R ⋈ S), prepared once
# ----------------------------------------------------------------------

join = db.query("exists z (R(x, z) & S(z, y))", vars=("x", "y"), name="join")
print(f"\nPrepared {join.query!r}")

# The planner routes to naive evaluation because UCQs are sound under OWA:
result = join.evaluate()
print(f"certain answers under OWA: {set(result.answers)}  (method={result.method})")
assert result.answers == frozenset({(1, 4)})

# The plan is a first-class, inspectable value:
print("\n" + db.explain(join).render())

# ----------------------------------------------------------------------
# 3. The analyzer: Figure 1 as a planning decision
# ----------------------------------------------------------------------

total = Query.boolean(parse("forall x . exists y . D(x, y)"), name="total")
for semantics in ("owa", "cwa"):
    verdict = analyze(total, semantics)
    print(f"\n∀x∃y D(x,y) under {semantics.upper()}: sound={verdict.sound}")
    print(f"  because: {verdict.reason}")

# ----------------------------------------------------------------------
# 4. The D0 example: the same query, two different certain answers
# ----------------------------------------------------------------------

bot, bot2 = Null(""), Null("'")
d0 = Instance({"D": [(bot, bot2), (bot2, bot)]})

owa_result = Database(d0, semantics="owa").evaluate(total)  # enumeration fallback
cwa_result = Database(d0, semantics="cwa").evaluate(total)  # naive, provably exact
print(f"\nOn D0 = {d0!r}:")
print(f"  OWA certain answer: {owa_result.holds}  (method={owa_result.method})")
print(f"  CWA certain answer: {cwa_result.holds}  (method={cwa_result.method})")
assert not owa_result.holds and cwa_result.holds

print("\nQuickstart OK.")
