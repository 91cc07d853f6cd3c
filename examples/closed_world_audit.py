"""Closed-world auditing with guarded universal queries (Pos+∀G, Thm 5.2).

A compliance audit over a partially-anonymised access log: user ids are
marked nulls, but the *policy questions* are universally quantified
business rules — exactly the ``Pos+∀G`` shape for which the paper proves
naive evaluation correct under CWA.  A plain evaluator answers audit
queries over the anonymised log, provably computing certain answers.

Run with::

    python examples/closed_world_audit.py
"""

from repro import Database, Instance, NullFactory, Query, analyze, parse

fresh = NullFactory("user")

# ----------------------------------------------------------------------
# 1. The access log: user ids anonymised to marked nulls
# ----------------------------------------------------------------------
# Access(user, resource), Clearance(user, level), Sensitive(resource)

u1, u2 = fresh.fresh(), fresh.fresh()
log = Instance(
    {
        "Access": [(u1, "db-prod"), (u2, "wiki"), (u1, "wiki")],
        "Clearance": [(u1, "high"), (u2, "low")],
        "Sensitive": [("db-prod",)],
    }
)
print("Anonymised access log:")
print(log.pretty())

# ----------------------------------------------------------------------
# 2. Rule 1 — every access to a sensitive resource is by a cleared user:
#    ∀u,r (Access(u,r) → (Sensitive(r) → ... )) needs implication nesting
#    we express positively: every accessor of db-prod has high clearance
# ----------------------------------------------------------------------

rule1 = Query.boolean(
    parse(
        "forall u, r . Access(u, r) -> "
        "(Sensitive(r) & Clearance(u, 'high') | exists l . Clearance(u, l))"
    ),
    name="accessors_are_known",
)
verdict = analyze(rule1, "cwa")
print(f"\n[{rule1.name}] in fragment {verdict.fragment}? sound={verdict.sound}")
audit = Database(log, semantics="cwa")
result = audit.evaluate(rule1)
print(f"  audit verdict (certain under CWA): {result.holds} (method={result.method})")
assert result.method == "columnar" and result.exact

# ----------------------------------------------------------------------
# 3. Rule 2 — a *negative* rule is outside every sound fragment:
#    "no low-clearance user touched a sensitive resource".
#    The analyzer rejects naive evaluation; the engine falls back to
#    enumeration and still returns the certain answer.
# ----------------------------------------------------------------------

rule2 = Query.boolean(
    parse("!(exists u, r . Access(u, r) & Sensitive(r) & Clearance(u, 'low'))"),
    name="no_low_touch_sensitive",
)
verdict2 = analyze(rule2, "cwa")
print(f"\n[{rule2.name}] sound={verdict2.sound}")
print(f"  reason: {verdict2.reason}")
result2 = audit.evaluate(rule2)
print(f"  audit verdict (certain under CWA): {result2.holds} (method={result2.method})")
# Anonymisation makes this NOT certain: u2 (low) might be the same
# person as u1?  No — marked nulls are distinct unless unified by a
# valuation... they CAN both map to the same real user!  The audit
# correctly refuses to certify the rule.
assert result2.method == "enumeration"

# ----------------------------------------------------------------------
# 4. Where naive evaluation would have lied
# ----------------------------------------------------------------------

naive2 = audit.evaluate(rule2, mode="columnar")
print(
    f"\nnaive evaluation would claim {naive2.holds} for [{rule2.name}] — "
    f"{'the SAME' if naive2.holds == result2.holds else 'a DIFFERENT'} answer "
    "than the certain one"
)

# naive says True (⊥user1 ≠ ⊥user2 syntactically) but a valuation can
# merge them, making the rule false in a possible world:
assert naive2.holds and not result2.holds

print("\nClosed-world audit example OK.")
