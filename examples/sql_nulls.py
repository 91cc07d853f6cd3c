"""SQL's NULL through the Codd-database lens (paper Sections 1 and 6).

Demonstrates:

* the infamous ``NOT IN`` paradox that motivates the paper,
* round-tripping SQL-style rows (``None``) into Codd databases,
* the Hoare/Plotkin information orderings and their match with the
  semantic orderings (Libkin 2011 recap + Theorem 7.1).

Run with::

    python examples/sql_nulls.py
"""

from repro import Database, Instance, Query, parse
from repro.data.codd import from_sql_rows, to_sql_rows
from repro.orders.codd import cwa_codd_leq, hoare_leq, plotkin_leq
from repro.orders.semantic import leq_cwa, leq_owa, leq_pcwa

# ----------------------------------------------------------------------
# 1. The NOT IN paradox
# ----------------------------------------------------------------------
# SQL:  SELECT x FROM X WHERE x NOT IN (SELECT y FROM Y)
# With X = {1,2,3} and Y = {1, NULL}, SQL returns the empty set even
# though |X| > |Y| — because x <> NULL is 'unknown' for every x.

db = from_sql_rows({"X": [(1,), (2,), (3,)], "Y": [(1,), (None,)]})
print("X =", sorted(db.tuples("X")), " Y =", sorted(db.tuples("Y"), key=repr))

not_in = Query(parse("X(v) & !Y(v)"), ("v",), name="not_in")
result = Database(db, semantics="cwa").evaluate(not_in)
print(f"certain answers to X NOT IN Y under CWA: {set(result.answers)}")
# The certain answer is empty — but for the *right* reason: the single
# null can be any one of 2 or 3, and no tuple survives every valuation.
assert result.answers == frozenset()

# If Y's null could be at most 1 (say a key constraint made it equal 1),
# the paradox dissolves; model that by replacing the null:
y_null = next(iter(db.tuples("Y") - {(1,)}))[0]
resolved = db.apply({y_null: 1})
result2 = Database(resolved, semantics="cwa").evaluate(not_in)
print(f"after resolving the null to 1: {sorted(result2.answers)}")
assert result2.answers == frozenset({(2,), (3,)})

# ----------------------------------------------------------------------
# 2. SQL rows round-trip
# ----------------------------------------------------------------------

rows = to_sql_rows(db)
print("\nback to SQL-style rows:", rows)
assert rows["Y"] == [(1,), (None,)] or rows["Y"] == [(None,), (1,)]

# ----------------------------------------------------------------------
# 3. Information orderings on Codd databases
# ----------------------------------------------------------------------
# The paper's Section 6 example: losing values makes tuples less
# informative; the orderings track how updates refine them.

incomplete = from_sql_rows({"R": [(None, 2)]})
more_info = Instance({"R": [(1, 2), (2, 2)]})

print("\nD  =", incomplete.pretty())
print("D' =", more_info.pretty())
print("Hoare   D ⊑H D':", hoare_leq(incomplete, more_info))
print("Plotkin D ⊑P D':", plotkin_leq(incomplete, more_info))
print("≼_OWA:", leq_owa(incomplete, more_info), " (matches ⊑H on Codd)")
print("≼_CWA:", leq_cwa(incomplete, more_info), " (needs a perfect matching too)")
print("⋐_CWA:", leq_pcwa(incomplete, more_info), " (matches ⊑P on Codd — Thm 7.1)")

assert hoare_leq(incomplete, more_info) == leq_owa(incomplete, more_info)
assert plotkin_leq(incomplete, more_info) == leq_pcwa(incomplete, more_info)
assert cwa_codd_leq(incomplete, more_info) == leq_cwa(incomplete, more_info)

print("\nSQL-nulls example OK.")
