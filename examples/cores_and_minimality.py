"""Cores and minimal-valuation semantics (paper Sections 9–10).

Data-exchange systems (the origin of the minimal semantics, Hernich
2011) materialise *canonical solutions* full of labelled nulls; query
answering then interprets them under closed-world semantics with
minimal valuations.  This example shows:

* D-minimal valuations and how they differ from arbitrary ones,
* the core as the representative instance (Theorem 10.2),
* why naive evaluation needs the core condition (Corollary 10.6/10.11),
* the approximation guarantee off-core (Proposition 10.13),
* the famous C4+C6 graph where minimality and cores come apart
  (Proposition 10.1).

Run with::

    python examples/cores_and_minimality.py
"""

from repro import Database, Instance, Null, Query, parse
from repro.core import certain_holds, naive_holds
from repro.data.generate import cores_graph_example, cycle, disjoint_union
from repro.homs.core import core, is_core
from repro.homs.minimal import is_d_minimal, iter_minimal_valuations
from repro.semantics import get_semantics

# ----------------------------------------------------------------------
# 1. A canonical solution with redundancy (as data exchange produces)
# ----------------------------------------------------------------------

x, y = Null("x"), Null("y")
solution = Instance({"T": [(x, x), (x, y)]})
print("Canonical solution:", solution)
print("Its core:         ", core(solution))

# A valuation separating the nulls is NOT minimal:
print("\nv = {x→1, y→2} minimal?", is_d_minimal(solution, {x: 1, y: 2}))
print("v = {x→1, y→1} minimal?", is_d_minimal(solution, {x: 1, y: 1}))

print("\nAll minimal valuations into {1, 2}:")
for valuation in iter_minimal_valuations(solution, [1, 2]):
    print(f"  {valuation} → {solution.apply(valuation)}")

# ----------------------------------------------------------------------
# 2. Naive evaluation off-core: the Cor. 10.11 remark
# ----------------------------------------------------------------------

reflexive = Query.boolean(parse("forall v . T(v, v)"), name="all_reflexive")
print(f"\n[{reflexive.name}] naive on the solution:  {naive_holds(reflexive, solution)}")
print(
    f"[{reflexive.name}] certain under [[·]]^min_CWA: "
    f"{certain_holds(reflexive, solution, get_semantics('mincwa'))}"
)
print(
    f"[{reflexive.name}] naive on the core:        "
    f"{naive_holds(reflexive, core(solution))}"
)
# naive disagrees with certain exactly because Q(D) ≠ Q(core(D)).

# The engine knows: off-core it refuses naive evaluation ...
result = Database(solution, semantics="mincwa").evaluate(reflexive)
print(f"engine method off-core: {result.method} → {result.holds}")
# ... and on the core it routes naively with an exactness guarantee.
result_core = Database(core(solution), semantics="mincwa").evaluate(reflexive)
print(f"engine method on-core:  {result_core.method} → {result_core.holds}")
assert result.holds and result_core.holds

# ----------------------------------------------------------------------
# 3. Prop. 10.13: naive 'true' is still a sound approximation off-core
# ----------------------------------------------------------------------

guarded = Query.boolean(
    parse("forall v, w . T(v, w) -> exists u . T(v, u)"), name="guarded"
)
assert naive_holds(guarded, solution)
assert certain_holds(guarded, solution, get_semantics("mincwa"))
print(f"\n[{guarded.name}] naive=true ⇒ certain=true off-core (Prop. 10.13) ✓")

# ----------------------------------------------------------------------
# 4. The C4 + C6 graph: minimality is subtler than cores (Prop. 10.1)
# ----------------------------------------------------------------------

g, h_graph, hom = cores_graph_example()
print("\nG = C4 + C6 is a core:", is_core(g, fix_constants=False))
print("H = C3 + C2 is a core:", is_core(h_graph, fix_constants=False))
print("h : G → H strong onto but NOT G-minimal:", not is_d_minimal(g, hom, mode="mapping"))

# consequence: the complete C3+C2 is a CWA-possible world of G but not
# a minimal-CWA one:
target = disjoint_union(cycle(3, ["a", "b", "c"]), cycle(2, ["d", "e"]))
print(
    "C3^C + C2^C ∈ [[G]]_CWA:",
    get_semantics("cwa").contains(g, target),
    "   ∈ [[G]]^min_CWA:",
    get_semantics("mincwa").contains(g, target),
)

print("\nCores & minimality example OK.")
