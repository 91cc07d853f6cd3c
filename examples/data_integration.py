"""Data integration with marked nulls: the paper's motivating scenario.

Two sources are merged into a mediated schema; values one source lacks
become *marked nulls* shared across facts (exactly how integration and
exchange systems introduce incompleteness).  Queries over the mediated
database are then answered with certain-answer semantics, and the
analyzer decides per query whether plain SQL-style evaluation (naive)
is already correct.

Run with::

    python examples/data_integration.py
"""

from repro import Database, Instance, NullFactory, Query, analyze, parse
from repro.algebra import from_instance

# ----------------------------------------------------------------------
# 1. Sources: a personnel feed and a payroll feed
# ----------------------------------------------------------------------

fresh = NullFactory("u")

# personnel knows employees and their departments
personnel = [
    ("ada", "research"),
    ("bob", "sales"),
]

# payroll knows salaries by employee, but covers someone personnel
# doesn't know yet ("eve") — her department is unknown: a marked null.
payroll = [
    ("ada", 120),
    ("eve", 95),
]

eve_dept = fresh.fresh()  # ⊥u1: eve's unknown department
bob_salary_null = fresh.fresh()  # payroll lacks bob: unknown salary

mediated = Instance(
    {
        "Emp": [("ada", "research"), ("bob", "sales"), ("eve", eve_dept)],
        "Sal": [("ada", 120), ("eve", 95), ("bob", bob_salary_null)],
    }
)
print("Mediated database (marked nulls from integration):")
print(mediated.pretty())

# ----------------------------------------------------------------------
# 2. A UCQ: who earns something and works somewhere?
# ----------------------------------------------------------------------

q_known = Query(
    parse("exists d, s (Emp(x, d) & Sal(x, s))"),
    ("x",),
    name="employed_and_paid",
)
verdict = analyze(q_known, "owa")
print(f"\n[{q_known.name}] analyzer: sound={verdict.sound} → {verdict.reason}")
session = Database(mediated, semantics="owa")
result = session.evaluate(q_known)
print(f"certain answers: {sorted(result.answers)}  (method={result.method})")
assert result.answers == frozenset({("ada",), ("bob",), ("eve",)})

# ----------------------------------------------------------------------
# 3. A join through a null: which departments certainly pay someone ≥ 95?
#    (eve's department is unknown, so it cannot be certain)
# ----------------------------------------------------------------------

q_dept = Query(
    parse("exists x (Emp(x, d) & Sal(x, 120))"),
    ("d",),
    name="dept_of_120_earner",
)
result = session.evaluate(q_dept)
print(f"\n[{q_dept.name}] certain answers: {sorted(result.answers)}")
assert result.answers == frozenset({("research",)})

# ----------------------------------------------------------------------
# 4. The same pipeline, algebraically (σ/π/⋈ with naive null equality)
# ----------------------------------------------------------------------

emp = from_instance(mediated, "Emp", ("name", "dept"))
sal = from_instance(mediated, "Sal", ("name", "amount"))
algebra_answer = (
    emp.join(sal.select_eq("amount", 120)).project(("dept",)).drop_null_rows()
)
print(f"\nalgebra pipeline agrees: {sorted(algebra_answer.rows)}")
assert algebra_answer.rows == frozenset({("research",)})

# ----------------------------------------------------------------------
# 5. A non-UCQ question needs closed-world reasoning
#    "is every employee on payroll?" — naive evaluation is unsound
#    under OWA (the analyzer says so) but fine under CWA.
# ----------------------------------------------------------------------

q_all_paid = Query.boolean(
    parse("forall e, d . Emp(e, d) -> exists s . Sal(e, s)"),
    name="everyone_paid",
)
for semantics in ("owa", "cwa"):
    verdict = analyze(q_all_paid, semantics)
    result = session.evaluate(q_all_paid, semantics=semantics)
    print(
        f"\n[{q_all_paid.name}] under {semantics.upper()}: certain={result.holds} "
        f"(method={result.method}, sound fragment: {verdict.fragment})"
    )

print("\nData-integration example OK.")
