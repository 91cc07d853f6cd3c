"""Standalone harness: regenerate every table/figure of the reproduction.

Prints, in order:

* Figure 1 — the semantics × fragment grid with measured agreement rates,
* the strictness column — per semantics, a query just outside the
  fragment where naive evaluation provably disagrees,
* the worked-example table (E2-intro, E2-D0, Section 10),
* the orderings correspondence tables (Theorems 6.2, 7.1, Libkin 2011),
* the timed sections: the certain-answer oracle, columnar plans and
  kernels, the homomorphism engine, serving, durability, replication
  and QoS.

Each timed section is its own gate.  It times the code under test and a
living reference on the same input in the same run — naive evaluation
and full world enumeration for the oracle, the interpreter for columnar
plans, the pure-Python kernels for the vector kernels, the legacy
extender for the CSP engine, WAL replay for snapshot load — and asserts
the ratio against a bar (see :func:`bar`).  A ratio does not depend on
how fast the host is, so no stored baseline is needed; absolute serving
latency is bounded by ``perfbench/`` instead.  A broken bar raises
:class:`BarFailure` and the run exits non-zero.

Run with::

    python benchmarks/harness.py            # full run (~3 minutes)
    python benchmarks/harness.py --quick    # fewer trials, smaller inputs
    python benchmarks/harness.py --json BENCH.json   # also dump numbers

``--json`` writes every section's rows, each barred row with its
measured ``ratio`` and its ``bar``, to a machine-readable file.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import platform
import random
import statistics
import sys
import time

from repro.core import (
    certain_answers,
    certain_holds,
    drop_null_tuples,
    naive_eval,
    naive_holds,
)
from repro.core.analyzer import FIGURE_1
from repro.core.certain import certain_over_expansion, default_pool
from repro.data.generate import (
    cores_graph_example,
    cycle,
    d0_example,
    disjoint_union,
    intro_example,
    random_instance,
)
from repro.data.instance import Instance
from repro.data.schema import Schema
from repro.data.values import Null
from repro.homs.core import core, is_core
from repro.homs.minimal import is_d_minimal
from repro.logic import kernels
from repro.logic.columnar import columnar_naive_eval
from repro.logic.generate import random_sentence
from repro.logic.parser import parse
from repro.logic.queries import Query
from repro.orders.codd import has_refinement_matching, hoare_leq, plotkin_leq
from repro.orders.semantic import leq_cwa, leq_owa, leq_pcwa
from repro.orders.updates import reachable
from repro.semantics import get_semantics

SCHEMA = Schema({"R": 2, "S": 1})
X, Y = Null("x"), Null("y")


def rule(char="─", width=78):
    print(char * width)


def heading(text):
    print()
    rule("═")
    print(text)
    rule("═")


def certain_kwargs(key):
    if key == "owa":
        return {"extra_facts": 1}
    if key == "wcwa":
        return {"extra_facts": 2}
    return {}


# ----------------------------------------------------------------------
# Figure 1
# ----------------------------------------------------------------------

def figure_1(n_queries: int, n_instances: int) -> list[dict]:
    heading("Figure 1 — naive evaluation per semantics (paper's summary table)")
    print(f"{'semantics':<22} {'fragment':<18} {'restriction':<12} {'agreement':>10} {'time':>8}")
    rule()
    rows: list[dict] = []
    for key in ("owa", "wcwa", "cwa", "pcwa", "mincwa", "minpcwa"):
        fragment, restriction, _ = FIGURE_1[key]
        sem = get_semantics(key)
        rng = random.Random(0xF1 + hash(key) % 1000)
        agreements = trials = 0
        start = time.perf_counter()
        for i in range(n_instances):
            instance = random_instance(
                SCHEMA, rng, n_facts=rng.randint(1, 3), constants=(1, 2), n_nulls=2
            )
            if restriction == "cores":
                instance = core(instance)
            for _ in range(n_queries):
                query = Query.boolean(random_sentence(SCHEMA, rng, fragment, max_depth=2))
                naive = naive_holds(query, instance)
                certain = certain_holds(query, instance, sem, **certain_kwargs(key))
                trials += 1
                agreements += naive == certain
        elapsed = time.perf_counter() - start
        print(
            f"{sem.notation:<22} {fragment:<18} {restriction or '—':<12} "
            f"{agreements:>4}/{trials:<5} {elapsed:>7.1f}s"
        )
        rows.append(
            {
                "semantics": key,
                "fragment": fragment,
                "agreements": agreements,
                "trials": trials,
                "seconds": round(elapsed, 4),
            }
        )
    return rows


def strictness() -> None:
    heading("Strictness — outside the fragment, naive evaluation fails")
    rows = [
        (
            "owa",
            "∀x∃y D(x,y)",
            Query.boolean(parse("forall x . exists y . D(x,y)")),
            d0_example(),
        ),
        (
            "wcwa",
            "∀x,y (D(x,y)→S(x))",
            Query.boolean(parse("forall x, y . D(x, y) -> S(x)")),
            Instance({"D": [(X, Y)], "S": [(X,)]}),
        ),
        (
            "cwa",
            "¬∃v D(v,v)",
            Query.boolean(parse("!(exists v . D(v, v))")),
            Instance({"D": [(X, Y)]}),
        ),
        (
            "pcwa",
            "∃w∀x,y (D(x,y)→D(x,w))",
            Query.boolean(parse("exists w . forall x, y . D(x, y) -> D(x, w)")),
            Instance({"D": [(X, Y)]}),
        ),
        (
            "mincwa",
            "∀v D(v,v) (off-core)",
            Query.boolean(parse("forall v . D(v, v)")),
            Instance({"D": [(X, X), (X, Y)]}),
        ),
        (
            "minpcwa",
            "∀v D(v,v) (off-core)",
            Query.boolean(parse("forall v . D(v, v)")),
            Instance({"D": [(X, X), (X, Y)]}),
        ),
    ]
    print(f"{'semantics':<10} {'query':<26} {'naive':>6} {'certain':>8} {'verdict':<10}")
    rule()
    for key, label, query, instance in rows:
        kwargs = certain_kwargs(key)
        if key in ("pcwa", "minpcwa"):
            kwargs = {"extra_facts": 4}
        naive = naive_holds(query, instance)
        certain = certain_holds(query, instance, get_semantics(key), **kwargs)
        verdict = "disagree ✓" if naive != certain else "agree ✗"
        print(f"{key:<10} {label:<26} {str(naive):>6} {str(certain):>8} {verdict:<10}")


# ----------------------------------------------------------------------
# worked examples
# ----------------------------------------------------------------------

def worked_examples() -> None:
    heading("Worked examples (Sections 1, 2.4, 10)")
    db = intro_example()
    join = Query(parse("exists z (R(x, z) & S(z, y))"), ("x", "y"))
    naive = naive_eval(join, db)
    print(f"E2-intro  π_AC(R⋈S) naive = {set(naive)}")
    for key in ("owa", "cwa", "mincwa"):
        got = certain_answers(join, db, get_semantics(key), **certain_kwargs(key))
        print(f"          certain under {get_semantics(key).notation:<14} = {set(got)}")

    d0 = d0_example()
    total = Query.boolean(parse("forall x . exists y . D(x,y)"))
    print(f"\nE2-D0     ∀x∃y D(x,y) on D0: naive = {naive_holds(total, d0)}")
    for key in ("owa", "wcwa", "cwa"):
        got = certain_holds(total, d0, get_semantics(key), **certain_kwargs(key))
        print(f"          certain under {get_semantics(key).notation:<14} = {got}")

    print("\nP10.1     C4+C6 → C3+C2 (both cores, h strong onto, h NOT minimal)")
    g, h_graph, hom = cores_graph_example()
    print(f"          G core: {is_core(g, fix_constants=False)}  "
          f"H core: {is_core(h_graph, fix_constants=False)}  "
          f"h minimal: {is_d_minimal(g, hom, mode='mapping')}")
    target = disjoint_union(cycle(3, ["a", "b", "c"]), cycle(2, ["d", "e"]))
    print(f"          C3ᶜ+C2ᶜ ∈ [[G]]_CWA: {get_semantics('cwa').contains(g, target)}   "
          f"∈ [[G]]^min_CWA: {get_semantics('mincwa').contains(g, target)}")

    sol = Instance({"D": [(X, X), (X, Y)]})
    q = Query.boolean(parse("forall v . D(v, v)"))
    print(f"\nC10.11    ∀v D(v,v) on {{(⊥,⊥),(⊥,⊥')}}: naive={naive_holds(q, sol)}, "
          f"certain^min={certain_holds(q, sol, get_semantics('mincwa'))}, "
          f"naive-on-core={naive_holds(q, core(sol))}")


# ----------------------------------------------------------------------
# orderings
# ----------------------------------------------------------------------

def orderings() -> None:
    heading("Orderings — update closures and Codd correspondences (Thm 6.2, 7.1)")
    naive_grid = [
        Instance({"R": [(X, Y)]}),
        Instance({"R": [(X, X)]}),
        Instance({"R": [(1, X)]}),
        Instance({"R": [(1, 2)]}),
        Instance({"R": [(1, 1), (2, 2)]}),
        Instance({"R": [(1, 2), (2, 1)]}),
    ]
    codd_grid = [
        Instance({"R": [(1, Null("a"))]}),
        Instance({"R": [(1, Null("b")), (2, Null("c"))]}),
        Instance({"R": [(1, 2)]}),
        Instance({"R": [(1, 2), (1, 3)]}),
        Instance({"R": [(Null("p"), Null("q"))]}),
    ]

    def sweep(grid, f, g):
        agree = total = 0
        for a in grid:
            for b in grid:
                total += 1
                agree += f(a, b) == g(a, b)
        return f"{agree}/{total}"

    print("Theorem 6.2  closure(CWA updates) = ≼_CWA:          ",
          sweep(naive_grid, lambda a, b: reachable(a, b, ("cwa",)), leq_cwa))
    print("Theorem 6.2  closure(CWA+OWA updates) = ≼_OWA:      ",
          sweep(naive_grid, lambda a, b: reachable(a, b, ("cwa", "owa")), leq_owa))
    print("Theorem 7.1  closure(CWA+copying updates) = ⋐_CWA:  ",
          sweep(naive_grid, lambda a, b: reachable(a, b, ("cwa", "copying")), leq_pcwa))
    print("Libkin'11    ≼_OWA = ⊑ᴴ on Codd:                    ",
          sweep(codd_grid, leq_owa, hoare_leq))
    print("Libkin'11    ≼_CWA = ⊑ᴾ + matching on Codd:         ",
          sweep(codd_grid, leq_cwa,
                lambda a, b: plotkin_leq(a, b) and has_refinement_matching(a, b)))
    print("Theorem 7.1  ⋐_CWA = ⊑ᴾ on Codd:                    ",
          sweep(codd_grid, leq_pcwa, plotkin_leq))


# ----------------------------------------------------------------------
# in-run ratio bars
# ----------------------------------------------------------------------

class BarFailure(AssertionError):
    """A timed section measured a ratio outside its bar."""


def bar(
    label: str,
    ratio: float,
    bound: float,
    reference: str,
    at_most: bool = False,
    enforce: bool = True,
) -> dict:
    """Print and enforce one in-run ratio bar; return its fields for the JSON row.

    ``ratio`` compares the code under test with ``reference`` — living
    code timed on the same input in the same run — so the bar holds on
    any host: both sides slow down together.  ``at_most`` flips the bar
    from a floor (a speedup) to a ceiling (a cost ratio).  With
    ``enforce=False`` the ratio is only reported: ``--quick`` passes it
    for bars whose smaller inputs leave too little margin to tell a
    regression from noise.
    """
    ok = ratio <= bound if at_most else ratio >= bound
    sign = "≤" if at_most else "≥"
    verdict = ("ok" if ok else "FAILED") + ("" if enforce else ", not enforced")
    print(f"  bar {label}: {ratio:.2f}× against {reference} (must be {sign} {bound}×) {verdict}")
    if enforce and not ok:
        raise BarFailure(
            f"{label}: {ratio:.2f}× against {reference} breaks the {sign} {bound}× bar"
        )
    return {"ratio": round(ratio, 3), "bar": f"{sign}{bound}"}


def _timed(thunk) -> float:
    start = time.perf_counter()
    thunk()
    return time.perf_counter() - start


def _best_timed(thunk, n: int = 3) -> float:
    return min(_timed(thunk) for _ in range(n))


def _median_timed(thunk, n: int = 5) -> float:
    """The median of ``n`` timed calls, after one untimed warm-up call.

    For millisecond-scale steps that touch the file system, where one
    cold sample mostly measures the page cache and the scheduler.
    """
    thunk()
    return statistics.median(_timed(thunk) for _ in range(n))


# ----------------------------------------------------------------------
# the certain-answer oracle
# ----------------------------------------------------------------------

#: the paper's economic claim on these instances: the CWA oracle costs
#: about what naive evaluation costs (measured 2.6–5.0×)
ORACLE_NAIVE_BAR = 15.0
#: the oracle against enumerating every world, from 4 nulls (measured
#: 169–294× at 4 nulls, 34000–48000× at 5)
ORACLE_EXPANSION_BAR = 50.0


def oracle(quick: bool) -> list[dict]:
    """CWA certain answers of a self-join against two living references.

    Each row times naive evaluation, :func:`certain_answers` (the
    bracketed oracle) and :func:`certain_over_expansion` (one query per
    world of ``semantics.expand``, the enumeration the bracket avoids)
    on one random instance with exactly ``n_nulls`` nulls.  The
    enumeration runs only where it finishes in seconds: it is
    ``|pool|^n_nulls`` worlds.
    """
    heading("ORACLE — certain answers (CWA) vs naive evaluation and full enumeration")
    join = Query(parse("exists z (R(x, z) & R(z, y))"), ("x", "y"))
    sem = get_semantics("cwa")
    print(
        f"{'n_facts':>8} {'nulls':>6} {'pool':>5} {'naive':>10} {'oracle':>10} "
        f"{'mode':>8} {'enumerated':>12}"
    )
    rule()
    rows: list[dict] = []
    cases = ((4, 1), (6, 3), (8, 4), (12, 6)) if quick else (
        (4, 1), (4, 2), (6, 3), (8, 4), (10, 5), (12, 6)
    )
    max_enumerated_nulls = 4 if quick else 5
    for n_facts, n_nulls in cases:
        rng = random.Random(1000 + n_facts * 10 + n_nulls)
        # resample until the instance really carries n_nulls distinct nulls,
        # so the enumeration's |pool|^n cost is the one reported
        while True:
            instance = random_instance(
                SCHEMA, rng, n_facts=n_facts, constants=(1, 2, 3, 4),
                n_nulls=n_nulls, null_probability=0.7,
            )
            if len(instance.nulls()) == n_nulls:
                break
        pool = default_pool(instance, join)
        stats: dict = {}
        naive_t = _best_timed(lambda: naive_eval(join, instance), 20)
        oracle_t = _best_timed(
            lambda: certain_answers(join, instance, sem, stats_out=stats), 20
        )
        row = {
            "workload": "oracle_cwa",
            "n_facts": n_facts,
            "n_nulls": n_nulls,
            "pool_size": len(pool),
            "oracle_mode": stats.get("mode"),
            "naive_ms": round(naive_t * 1e3, 4),
            "oracle_ms": round(oracle_t * 1e3, 4),
        }
        enumerated = "—"
        expansion_t = None
        if n_nulls <= max_enumerated_nulls:
            start = time.perf_counter()
            expected = certain_over_expansion(join, instance, sem, pool)
            expansion_t = time.perf_counter() - start
            assert expected == certain_answers(join, instance, sem)
            row["expansion_ms"] = round(expansion_t * 1e3, 4)
            enumerated = f"{expansion_t * 1e3:.1f}ms"
        print(
            f"{n_facts:>8} {n_nulls:>6} {len(pool):>5} {naive_t * 1e3:>8.3f}ms "
            f"{oracle_t * 1e3:>8.3f}ms {str(stats.get('mode')):>8} {enumerated:>12}"
        )
        label = f"{n_facts} facts/{n_nulls} nulls"
        row["naive_bar"] = bar(
            f"oracle cost, {label}", oracle_t / max(naive_t, 1e-9),
            ORACLE_NAIVE_BAR, "naive_eval", at_most=True,
        )
        if expansion_t is not None and n_nulls >= 4:
            row["expansion_bar"] = bar(
                f"oracle speedup, {label}", expansion_t / max(oracle_t, 1e-9),
                ORACLE_EXPANSION_BAR, "certain_over_expansion",
            )
        rows.append(row)
    return rows


# ----------------------------------------------------------------------
# set-at-a-time plans and their kernels
# ----------------------------------------------------------------------

#: columnar plans against the tuple-at-a-time interpreter (measured
#: 39–49× at 8 facts, more on larger inputs)
ENGINE_BAR = 10.0


def _interp_naive(query: Query, instance: Instance) -> frozenset:
    """Naive evaluation by the tree-walking interpreter."""
    return drop_null_tuples(query.eval_raw(instance))


def engine_comparison(quick: bool) -> list[dict]:
    """Set-at-a-time columnar plans against the tree-walking interpreter."""
    heading("ENGINE — set-at-a-time columnar plans vs tuple-at-a-time interpreter")
    join = Query(parse("exists z (R(x, z) & R(z, y))"), ("x", "y"))
    rows: list[dict] = []

    print("naive evaluation of the join query (best of 3):")
    print(f"{'n_facts':>8} {'adom':>6} {'interp':>12} {'columnar':>12} {'speedup':>9}")
    rule()
    sizes = (8, 16, 32) if quick else (8, 16, 32, 64, 128)
    for n_facts in sizes:
        rng = random.Random(99)
        instance = random_instance(
            SCHEMA, rng, n_facts=n_facts,
            constants=tuple(range(max(4, n_facts // 2))), n_nulls=3,
        )
        reps = 1 if n_facts > 32 else 3
        interp_t = _best_timed(lambda: _interp_naive(join, instance), reps)
        columnar_t = _best_timed(lambda: columnar_naive_eval(join, instance).decode())
        assert _interp_naive(join, instance) == columnar_naive_eval(join, instance).decode()
        print(
            f"{n_facts:>8} {len(instance.adom()):>6} {interp_t * 1e3:>10.2f}ms "
            f"{columnar_t * 1e3:>10.3f}ms {interp_t / max(columnar_t, 1e-9):>8.0f}x"
        )
        rows.append(
            {
                "workload": "naive_join",
                "n_facts": n_facts,
                "interp_ms": round(interp_t * 1e3, 4),
                "columnar_ms": round(columnar_t * 1e3, 4),
                **bar(
                    f"columnar speedup, {n_facts} facts",
                    interp_t / max(columnar_t, 1e-9), ENGINE_BAR, "the interpreter",
                ),
            }
        )
    return rows


#: the vector kernels against the pure-Python ones, summed over the
#: many-to-many joins whose projection collapses the expansion: measured
#: 0.21–0.29× (full and ``--quick``), and 0.40–0.50× with the vector
#: kernel doing its work three times.  The vector path dedups only the
#: projected columns, with ``np.lexsort`` and group starts, and must
#: keep that lead.
COLUMNAR_JOIN_BAR = 0.35
#: the semi-join probes must beat the pure path (measured 0.46–0.70×)
COLUMNAR_SEMI_JOIN_BAR = 1.0


@contextlib.contextmanager
def _pure_kernels():
    """Run the pure-Python kernel paths, as ``REPRO_PURE_KERNELS=1`` does.

    That switch only clears the kernels' numpy handle at import, so
    clearing it for the duration is the same switch, thrown in-process.
    """
    saved, kernels._np = kernels._np, None
    try:
        yield
    finally:
        kernels._np = saved


def columnar(quick: bool) -> list[dict]:
    """The array kernels on null join keys, against the pure-Python kernels.

    The workload the columnar engine exists for: join keys are marked
    nulls (an anonymised fact table), so tuples of cell objects would pay
    a Python-level ``Null.__hash__`` per probe and per materialised
    intermediate row, while the columnar engine runs int codes through
    sort-merge/``lexsort`` kernels and drops null answer rows by parity
    before decoding anything.  Each input is timed on both kernel paths
    in alternation, so a load spike on the host hits both sides.
    """
    heading("COLUMNAR — dictionary-encoded kernels on null join keys")
    if not kernels.numpy_enabled():
        print("numpy is unavailable or switched off: no vector kernels to compare")
        return []
    inputs = []
    join = Query(parse("exists y (R(x, z) & S(z, y))"), ("x", "z"))
    # keeps every column, so both sides run the pure merge: reported only
    full_join = Query(parse("R(x, z) & S(z, y)"), ("x", "z", "y"))
    for n in (512, 2048) if quick else (512, 2048, 8192):
        rng = random.Random(7)
        nulls = [Null(f"k{i}") for i in range(max(8, n // 64))]
        instance = Instance({
            "R": [(rng.randint(0, n), rng.choice(nulls)) for _ in range(n)],
            "S": [(rng.choice(nulls), rng.randint(0, n)) for _ in range(n)],
        })
        inputs.append(("columnar_join", n, join, instance, 5))
        inputs.append(("columnar_full_join", n, full_join, instance, 5))
    probe = Query(parse("exists z (R(x, z) & S(z))"), ("x",))
    for n in (16384,) if quick else (16384, 65536):
        rng = random.Random(11)
        nulls = [Null(f"k{i}") for i in range(n)]
        instance = Instance({
            "R": [(rng.randint(0, n * 4), nulls[rng.randint(0, n - 1)]) for _ in range(n)],
            "S": [(nulls[rng.randint(0, n - 1)],) for _ in range(n // 64)],
        })
        inputs.append(("columnar_semi_join", n, probe, instance, 25))

    print("null join keys, best of 5 (25 for semi-joins), vector vs pure-Python kernels:")
    print(f"{'workload':<20} {'n_rows':>8} {'vector':>12} {'pure':>12} {'ratio':>7}")
    rule()
    rows: list[dict] = []
    for workload, n, query, instance, reps in inputs:
        vector_ts, pure_ts = [], []
        for _ in range(reps):
            vector_ts.append(_timed(lambda: columnar_naive_eval(query, instance)))
            with _pure_kernels():
                pure_ts.append(_timed(lambda: columnar_naive_eval(query, instance)))
        vector_t, pure_t = min(vector_ts), min(pure_ts)
        print(
            f"{workload:<20} {n:>8} {vector_t * 1e3:>10.3f}ms {pure_t * 1e3:>10.3f}ms "
            f"{vector_t / pure_t:>6.2f}x"
        )
        rows.append(
            {
                "workload": workload,
                "n_rows": n,
                "columnar_ms": round(vector_t * 1e3, 4),
                "pure_ms": round(pure_t * 1e3, 4),
            }
        )
    # one bar per workload on the summed times: the largest input, where
    # the kernel dominates, weighs most, and no single small row can flake
    for workload, bound in (
        ("columnar_join", COLUMNAR_JOIN_BAR),
        ("columnar_semi_join", COLUMNAR_SEMI_JOIN_BAR),
    ):
        mine = [r for r in rows if r["workload"] == workload]
        fields = bar(
            f"vector kernel cost, {workload} "
            f"({'+'.join(str(r['n_rows']) for r in mine)} rows)",
            sum(r["columnar_ms"] for r in mine) / sum(r["pure_ms"] for r in mine),
            bound, "the pure-Python kernels", at_most=True,
        )
        for row in mine:
            row["summed_bar"] = fields
    return rows


# ----------------------------------------------------------------------
# the CSP homomorphism engine
# ----------------------------------------------------------------------

#: the CSP engine against the legacy extender on the refute and
#: enumerate workloads (measured 2.6–4.3×; 1.34× with the CSP engine
#: slowed 3×).  Not enforced by ``--quick``: its smaller inputs read
#: 1.5–3.6×.
HOMS_BAR = 1.6


def hom_engine_comparison(quick: bool) -> list[dict]:
    """Candidate tables + forward checking against the legacy extender,
    both behind :func:`repro.homs.search.iter_homomorphisms`."""
    heading("HOMS — CSP engine (candidate tables + forward checking) vs legacy")
    from repro.homs.engine import clear_candidate_cache
    from repro.homs.search import has_homomorphism, iter_homomorphisms

    rng = random.Random(0x7053)
    X = [Null(f"x{i}") for i in range(10)]

    big_target = random_instance(
        SCHEMA, rng, n_facts=150 if quick else 600,
        constants=tuple(range(40)), n_nulls=0,
    )
    pattern = Instance({
        "R": [(X[0], X[1]), (X[1], X[2]), (X[2], X[3]), (X[3], 5),
              (X[4], X[5]), (X[5], X[0])],
        "S": [(X[0],), (X[3],)],
    })

    def bipartite(n):
        rows = []
        for a in range(n):
            for b in range(n):
                rows.append((f"l{a}", f"r{b}"))
                rows.append((f"r{b}", f"l{a}"))
        return Instance({"E": rows})

    c7 = cycle(7, values=[Null(f"c{i}") for i in range(7)])
    k_bip = bipartite(3 if quick else 4)

    p5 = Instance({"E": [(Null(f"p{i}"), Null(f"p{i+1}")) for i in range(5)]})
    graph = random_instance(
        Schema({"E": 2}), rng, n_facts=40 if quick else 120,
        constants=tuple(range(18)), n_nulls=0,
    )

    # the find workload is a first hit on a large target, about as quick
    # on either engine (0.8–1.2×): reported, not barred
    workloads = [
        ("find: pattern+constants → big target", pattern, big_target, True, "has", False),
        ("refute: C7 → bipartite (no hom)", c7, k_bip, False, "has", True),
        ("enumerate: all homs P5 → graph", p5, graph, False, "count", True),
    ]
    print(f"{'workload':<40} {'legacy':>12} {'csp':>12} {'speedup':>9}")
    rule()
    rows: list[dict] = []
    for label, src, tgt, fix, mode, barred in workloads:
        def run(engine):
            clear_candidate_cache()
            if mode == "has":
                return has_homomorphism(src, tgt, fix_constants=fix, engine=engine)
            return sum(
                1 for _ in iter_homomorphisms(src, tgt, fix_constants=fix, engine=engine)
            )

        assert run("legacy") == run("csp")
        legacy_t = _best_timed(lambda: run("legacy"))
        csp_t = _best_timed(lambda: run("csp"))
        print(
            f"{label:<40} {legacy_t * 1e3:>10.1f}ms {csp_t * 1e3:>10.2f}ms "
            f"{legacy_t / max(csp_t, 1e-9):>8.1f}x"
        )
        row = {
            "workload": "homs",
            "case": label,
            "legacy_ms": round(legacy_t * 1e3, 4),
            "csp_ms": round(csp_t * 1e3, 4),
        }
        if barred:
            row.update(bar(
                f"csp speedup, {label.split(':')[0]}",
                legacy_t / max(csp_t, 1e-9), HOMS_BAR, 'engine="legacy"',
                enforce=not quick,
            ))
        rows.append(row)
    return rows


# ----------------------------------------------------------------------
# PR 4: the serving layer — incremental mutation + result cache
# ----------------------------------------------------------------------

#: incremental mutation + the result cache against full re-ingest
#: (measured 36–47×)
SERVING_BAR = 5.0


def serving(quick: bool) -> list[dict]:
    """PR 4's serving numbers: incremental mutation with the generation-keyed
    result cache against full re-ingest, plus request latency through the
    JSON service."""
    heading("SERVING — incremental mutation + result cache vs full re-ingest")
    from repro.server import QueryService
    from repro.session import Database

    rng = random.Random(0x5E44)
    # a 128-fact instance: 96 R-edges over 24 constants (+2 nulls), 32 S rows
    r_rows = list({
        (rng.randrange(24), rng.randrange(24)) for _ in range(200)
    })[:94] + [(0, Null("a")), (Null("a"), Null("b"))]
    s_rows = [(i,) for i in range(128 - len(r_rows))]
    base = {"R": r_rows, "S": s_rows}
    join_text = "exists z (R(x, z) & R(z, y))"
    n_facts = len(r_rows) + len(s_rows)

    # A. write-then-requery, writes touching a relation the query does not
    # read: the incremental session patches indexes and serves the cached
    # result; the re-ingest baseline rebuilds Database/instance/plan/indexes
    n_inc = 100 if quick else 400
    n_re = 20 if quick else 60
    db = Database({k: list(v) for k, v in base.items()})
    q = db.query(join_text, vars=("x", "y"))
    want = q.evaluate().answers
    # each timed loop starts from a fresh collection: a full collection
    # over the objects earlier sections leave alive costs as much as the
    # whole incremental loop, and would land in whichever loop reaches
    # the threshold first
    gc.collect()
    start = time.perf_counter()
    for i in range(n_inc):
        db.insert("S", (1000 + i,))
        assert q.evaluate().answers == want
    incremental_t = (time.perf_counter() - start) / n_inc
    hit_rate = db.cache_stats["hits"] / max(
        1, db.cache_stats["hits"] + db.cache_stats["misses"]
    )

    grown_s = list(s_rows)
    gc.collect()
    start = time.perf_counter()
    for i in range(n_re):
        grown_s.append((1000 + i,))
        fresh = Database({"R": list(r_rows), "S": list(grown_s)})
        got = fresh.query(join_text, vars=("x", "y")).evaluate().answers
    reingest_t = (time.perf_counter() - start) / n_re
    assert got == want
    speedup = reingest_t / max(incremental_t, 1e-9)
    print(
        f"{'write+requery':<28} {'re-ingest':>12} {'incremental':>12} "
        f"{'speedup':>9} {'hit rate':>9}"
    )
    rule()
    print(
        f"{f'{n_facts} facts, unrelated write':<28} {reingest_t * 1e3:>10.2f}ms "
        f"{incremental_t * 1e3:>10.3f}ms {speedup:>8.0f}x {hit_rate * 100:>8.1f}%"
    )
    rows = [
        {
            "workload": "serving_requery",
            "n_facts": n_facts,
            "reingest_ms": round(reingest_t * 1e3, 4),
            "incremental_ms": round(incremental_t * 1e3, 4),
            "cache_hit_rate": round(hit_rate, 4),
            **bar("incremental requery speedup", speedup, SERVING_BAR, "full re-ingest"),
        }
    ]

    # B. request latency through the JSON service: a deterministic mix of
    # reads (3 prepared texts) and single-fact writes on the S relation
    texts = [
        join_text,
        "exists z (R(x, z) & S(z))",
        "exists x, y (R(x, y) & R(y, x))",
    ]
    service = QueryService(Database({k: list(v) for k, v in base.items()}))
    n_requests = 200 if quick else 600
    latencies: list[float] = []
    stream_rng = random.Random(0xAB)
    start = time.perf_counter()
    for i in range(n_requests):
        if stream_rng.random() < 0.15:
            request = {"op": "insert", "relation": "S", "rows": [[2000 + i]]}
        else:
            request = {
                "op": "query",
                "query": texts[stream_rng.randrange(len(texts))],
            }
        t0 = time.perf_counter()
        response = service.handle(request)
        latencies.append(time.perf_counter() - t0)
        assert response["ok"], response
    total_t = time.perf_counter() - start
    latencies.sort()
    p50 = latencies[len(latencies) // 2]
    p95 = latencies[int(len(latencies) * 0.95)]

    n_mut = 200 if quick else 1000
    mut_db = Database({k: list(v) for k, v in base.items()})
    start = time.perf_counter()
    for i in range(n_mut):
        mut_db.insert("S", (5000 + i,))
    mutation_t = (time.perf_counter() - start) / n_mut

    print(f"\n{'request stream':<28} {'p50':>10} {'p95':>10} {'req/s':>10} {'mut/s':>10}")
    rule()
    print(
        f"{f'{n_requests} reqs, 15% writes':<28} {p50 * 1e3:>8.3f}ms {p95 * 1e3:>8.3f}ms "
        f"{n_requests / total_t:>10.0f} {1 / mutation_t:>10.0f}"
    )
    rows.append(
        {
            "workload": "serving_requests",
            "n_requests": n_requests,
            "p50_ms": round(p50 * 1e3, 4),
            "p95_ms": round(p95 * 1e3, 4),
            "mutation_us": round(mutation_t * 1e6, 2),
        }
    )
    return rows


# ----------------------------------------------------------------------
# PR 5: durable serving — WAL mutation cost and recovery vs log length
# ----------------------------------------------------------------------

#: snapshot load against replaying the same state from the WAL, at the
#: longest log (measured 15–31× at 4000 records).  Not enforced by
#: ``--quick``: 400 records read 7–9×.
RECOVERY_BAR = 5.0


def serving_durable(quick: bool) -> list[dict]:
    """PR 5's durability numbers: what fsync costs per acknowledged write,
    and how recovery time scales with WAL length (the case for compaction).
    Each recovery row writes its own log of single-fact inserts in a fresh
    directory, then times WAL replay against snapshot load of that state."""
    heading("DURABLE — fsync'd WAL writes and recovery vs log length")
    import shutil
    import tempfile
    from pathlib import Path

    from repro.session import Database

    rows: list[dict] = []

    # A. mutation throughput: the same insert stream against a durable
    # session with fsync, a durable session without, and memory-only —
    # pricing the journal encoding and the fsync separately
    n_mut = 150 if quick else 500
    per: dict[str, float] = {}
    for label, durable, fsync in (
        ("fsync", True, True), ("nofsync", True, False), ("memory", False, True),
    ):
        root = Path(tempfile.mkdtemp(prefix="repro-durable-"))
        db = Database(
            path=str(root / "data") if durable else None,
            fsync=fsync,
            wal_max_bytes=1 << 30,  # no compaction mid-measurement
        )
        start = time.perf_counter()
        for i in range(n_mut):
            db.insert("S", (10_000 + i,))
        per[label] = (time.perf_counter() - start) / n_mut
        db.close()
        shutil.rmtree(root, ignore_errors=True)
    print(f"{'mutation stream':<28} {'fsync on':>12} {'fsync off':>12} {'memory':>12}")
    rule()
    print(
        f"{f'{n_mut} single-fact inserts':<28} {per['fsync'] * 1e6:>10.0f}µs "
        f"{per['nofsync'] * 1e6:>10.0f}µs {per['memory'] * 1e6:>10.0f}µs"
    )
    rows.append(
        {
            "workload": "durable_mutation",
            "n_mutations": n_mut,
            "fsync_us": round(per["fsync"] * 1e6, 2),
            "nofsync_us": round(per["nofsync"] * 1e6, 2),
            "memory_us": round(per["memory"] * 1e6, 2),
        }
    )

    # B. recovery time vs log length, and the same state after checkpoint:
    # WAL-tail replay is linear in the log, snapshot load is flat
    print(f"\n{'recovery':<28} {'wal replay':>12} {'snapshot':>12} {'facts':>8}")
    rule()
    lengths = (100, 400) if quick else (100, 1000, 4000)
    for n_records in lengths:
        root = Path(tempfile.mkdtemp(prefix="repro-durable-"))
        db = Database(path=str(root / "data"), fsync=False, wal_max_bytes=1 << 30)
        for i in range(n_records):
            db.insert("R", (i, i + 1))
        n_facts = db.instance.fact_count()
        db.close()
        replay_t = _median_timed(
            lambda: Database(path=str(root / "data"), fsync=False).close()
        )
        compact = Database(path=str(root / "data"), fsync=False)
        compact.checkpoint()
        compact.close()
        snapshot_t = _median_timed(
            lambda: Database(path=str(root / "data"), fsync=False).close()
        )
        shutil.rmtree(root, ignore_errors=True)
        print(
            f"{f'{n_records} WAL records':<28} {replay_t * 1e3:>10.1f}ms "
            f"{snapshot_t * 1e3:>10.1f}ms {n_facts:>8}"
        )
        rows.append(
            {
                "workload": "durable_recovery",
                "wal_records": n_records,
                "replay_ms": round(replay_t * 1e3, 4),
                "snapshot_ms": round(snapshot_t * 1e3, 4),
            }
        )
    # shorter logs replay in a few milliseconds, where the snapshot's
    # fixed cost of opening files dominates: only the longest is barred
    rows[-1].update(bar(
        f"snapshot load speedup, {lengths[-1]} records",
        replay_t / max(snapshot_t, 1e-9), RECOVERY_BAR, "WAL replay",
        enforce=not quick,
    ))
    return rows


# ----------------------------------------------------------------------
# PR 6: log-shipping replication — read scaling, steady lag, catch-up
# ----------------------------------------------------------------------

def _read_worker(address: tuple, n: int) -> float:
    """Hammer one served node with ``n`` reads over one connection.

    Module-level so :class:`~concurrent.futures.ProcessPoolExecutor` can
    pickle it — readers must be separate *processes*: in-process client
    threads would share the harness's GIL and cap the measured
    throughput well below what the server processes can actually serve.
    """
    import socket

    sock = socket.create_connection(tuple(address), timeout=60)
    reader = sock.makefile("r", encoding="utf-8")
    writer = sock.makefile("w", encoding="utf-8")
    request = json.dumps(
        {"op": "query", "query": "exists z (R(x, z) & R(z, y))", "vars": ["x", "y"]}
    ) + "\n"
    start = time.perf_counter()
    for _ in range(n):
        writer.write(request)
        writer.flush()
        response = json.loads(reader.readline())
        assert response.get("ok"), response
    elapsed = time.perf_counter() - start
    sock.close()
    return elapsed


#: ack-to-replica-visible p50 against the primary's own write round trip
#: (measured 1.35–2.06× over 200 writes, 1.05–2.41× over 50 with ``--quick``)
REPLICA_LAG_BAR = 4.0
#: restarting a killed replica and replaying a backlog against the time
#: the primary took to accept it one write at a time (measured 0.26–0.43×
#: for 4000 records).  Not enforced by ``--quick``: 800 records are
#: dominated by the replica's process start and read 0.6–2.6×.
REPLICA_CATCHUP_BAR = 1.0


def replication(quick: bool) -> list[dict]:
    """PR 6's replication numbers, all against real ``repro serve``
    subprocesses over TCP: read throughput scaling across 1→4 replicas,
    steady-state ack-to-replica lag (the wall time from a primary-
    acknowledged write to a ``min_generation`` read landing on a
    replica), and catch-up time after a multi-thousand-record backlog."""
    heading("REPLICATION — log-shipping read replicas over the WAL")
    import os
    import shutil
    import signal
    import socket
    import subprocess
    import tempfile
    from concurrent.futures import ProcessPoolExecutor
    from pathlib import Path

    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    root = Path(tempfile.mkdtemp(prefix="repro-replication-"))
    procs: list[subprocess.Popen] = []

    def spawn(*args) -> tuple[subprocess.Popen, tuple[str, int]]:
        proc = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro", "serve", "--port", "0", *args],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env,
        )
        procs.append(proc)
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            line = proc.stdout.readline()
            if not line:
                raise RuntimeError(f"repro serve died during startup (rc={proc.poll()})")
            if "listening on" in line:
                host, port = line.strip().rsplit(" ", 1)[-1].rsplit(":", 1)
                return proc, (host, int(port))
        raise RuntimeError("repro serve did not announce its address in time")

    class Client:
        def __init__(self, address):
            self.sock = socket.create_connection(address, timeout=60)
            self.reader = self.sock.makefile("r", encoding="utf-8")
            self.writer = self.sock.makefile("w", encoding="utf-8")

        def call(self, **request) -> dict:
            self.writer.write(json.dumps(request) + "\n")
            self.writer.flush()
            response = json.loads(self.reader.readline())
            assert response.get("ok"), response
            return response

        def close(self):
            self.sock.close()

    rows: list[dict] = []
    try:
        # the primary is memory-only: the feed's in-memory ring, not the
        # disk, carries the stream — replicas are durable so the catch-up
        # column below can resume from a killed replica's own position
        _primary_proc, primary = spawn()
        primary_hostport = f"{primary[0]}:{primary[1]}"
        writer = Client(primary)
        rng = random.Random(0x5EED)
        r_rows = list({(rng.randrange(24), rng.randrange(24)) for _ in range(200)})[:96]
        writer.call(op="insert", relation="R", rows=[list(row) for row in r_rows])
        generation = writer.call(op="stats")["generation"]

        replicas = [
            spawn("--replica-of", primary_hostport, "--data-dir", str(root / f"replica{i}"))
            for i in range(4)
        ]
        for _proc, address in replicas:
            Client(address).call(
                op="query", query="exists x, y (R(x, y))",
                min_generation=generation, wait_timeout_s=60,
            )

        # A. read throughput scaling: the same total read volume served by
        # 1, 2, then 4 replica processes, one reader process per replica slot
        n_reads = 400 if quick else 2000
        n_clients = 4
        print(f"{'read scaling':<28} {'replicas':>9} {'reads':>8} {'per read':>10} {'reads/s':>9}")
        rule()
        for n_replicas in (1, 2, 4):
            addresses = [replicas[i % n_replicas][1] for i in range(n_clients)]
            with ProcessPoolExecutor(max_workers=n_clients) as pool:
                start = time.perf_counter()
                futures = [
                    pool.submit(_read_worker, address, n_reads // n_clients)
                    for address in addresses
                ]
                for future in futures:
                    future.result()
                elapsed = time.perf_counter() - start
            print(
                f"{f'{n_clients} reader procs':<28} {n_replicas:>9} {n_reads:>8} "
                f"{elapsed / n_reads * 1e6:>8.0f}µs {n_reads / elapsed:>9.0f}"
            )
            rows.append(
                {
                    "workload": "replica_read_scaling",
                    "n_replicas": n_replicas,
                    "n_reads": n_reads,
                    "per_read_us": round(elapsed / n_reads * 1e6, 2),
                }
            )

        # B. steady-state lag: after each primary-acknowledged write, a
        # min_generation read on a replica measures ack-to-visible wall
        # time; the write's own round trip to the primary is the reference
        n_writes = 50 if quick else 200
        reader = Client(replicas[0][1])
        acks, latencies = [], []
        for i in range(n_writes):
            t0 = time.perf_counter()
            writer.call(op="insert", relation="S", rows=[[50_000 + i]])
            acks.append(time.perf_counter() - t0)
            generation += 1
            t0 = time.perf_counter()
            reader.call(
                op="query", query="exists x (S(x))",
                min_generation=generation, wait_timeout_s=60,
            )
            latencies.append(time.perf_counter() - t0)
        p50, p95, _p99 = _percentiles(latencies)
        ack_p50 = _percentiles(acks)[0]
        print(f"\n{'steady-state lag':<28} {'writes':>8} {'p50':>10} {'p95':>10} {'ack p50':>10}")
        rule()
        print(
            f"{'ack → replica-visible':<28} {n_writes:>8} "
            f"{p50 * 1e3:>8.2f}ms {p95 * 1e3:>8.2f}ms {ack_p50 * 1e3:>8.2f}ms"
        )
        rows.append(
            {
                "workload": "replica_steady_lag",
                "n_writes": n_writes,
                "ack_to_replica_p50_ms": round(p50 * 1e3, 4),
                "ack_to_replica_p95_ms": round(p95 * 1e3, 4),
                "primary_ack_p50_ms": round(ack_p50 * 1e3, 4),
                **bar(
                    "replica lag, p50", p50 / max(ack_p50, 1e-9), REPLICA_LAG_BAR,
                    "the primary's write round trip", at_most=True,
                ),
            }
        )
        reader.close()

        # C. catch-up: SIGKILL a replica, build a backlog on the primary,
        # restart the replica from its durable position, time convergence
        backlog = 800 if quick else 4000
        victim_proc, _victim_address = replicas[3]
        os.kill(victim_proc.pid, signal.SIGKILL)
        victim_proc.wait(timeout=30)
        start = time.perf_counter()
        for i in range(backlog):
            writer.call(op="insert", relation="T", rows=[[i, i]])
        backlog_t = time.perf_counter() - start
        generation += backlog
        start = time.perf_counter()
        _proc, address = spawn(
            "--replica-of", primary_hostport, "--data-dir", str(root / "replica3")
        )
        Client(address).call(
            op="query", query="exists x, y (T(x, y))",
            min_generation=generation, wait_timeout_s=300,
        )
        catchup = time.perf_counter() - start
        print(
            f"\n{'catch-up':<28} {'backlog':>8} {'time':>10} {'records/s':>10} "
            f"{'written in':>11}"
        )
        rule()
        print(
            f"{'restart after SIGKILL':<28} {backlog:>8} "
            f"{catchup:>9.2f}s {backlog / catchup:>10.0f} {backlog_t:>10.2f}s"
        )
        rows.append(
            {
                "workload": "replica_catchup",
                "backlog_records": backlog,
                "catchup_seconds": round(catchup, 4),
                "backlog_write_seconds": round(backlog_t, 4),
                **bar(
                    "replica catch-up", catchup / max(backlog_t, 1e-9),
                    REPLICA_CATCHUP_BAR, "the primary accepting the backlog",
                    at_most=True, enforce=not quick,
                ),
            }
        )
        writer.close()
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
        for proc in procs:
            proc.wait(timeout=30)
        shutil.rmtree(root, ignore_errors=True)
    return rows


# ----------------------------------------------------------------------
# PR 9: the asyncio serving core — QoS under connection load
# ----------------------------------------------------------------------

def _percentiles(latencies: list[float]) -> tuple[float, float, float]:
    latencies = sorted(latencies)
    return (
        latencies[len(latencies) // 2],
        latencies[int(len(latencies) * 0.95)],
        latencies[min(len(latencies) - 1, int(len(latencies) * 0.99))],
    )


def _qos_stream(address, n_conns: int, per_conn: int, rate: float) -> tuple:
    """Open ``n_conns`` long-lived connections, then offer a fixed
    ``rate`` requests/second of mixed traffic (85% cached reads, 15%
    single-fact inserts) spread across all of them with jittered
    per-connection think time.

    Holding the *offered load* constant while the connection count
    climbs is the point: the measured latency then prices what carrying
    idle-ish connections costs the serving core, not the unbounded
    queueing a closed loop would manufacture on one CPU.

    Returns ``(per-request latencies, connection-setup seconds)``.
    """
    import asyncio

    texts = [
        "exists z (R(x, z) & R(z, y))",
        "exists x, y (R(x, y) & R(y, x))",
        "exists x (R(x, 3))",
    ]

    async def drive():
        gate = asyncio.Semaphore(100)  # connect burst stays under the backlog
        latencies: list[float] = []

        async def open_conn():
            async with gate:
                last: OSError | None = None
                for attempt in range(5):
                    try:
                        return await asyncio.open_connection(*address)
                    except OSError as err:
                        last = err
                        await asyncio.sleep(0.05 * (attempt + 1))
                raise last

        start = time.perf_counter()
        conns = await asyncio.gather(*(open_conn() for _ in range(n_conns)))
        connect_s = time.perf_counter() - start
        interval = n_conns / rate  # mean think time ⇒ n_conns/interval ≈ rate

        async def run(i, reader, writer):
            local = random.Random(0x905 + i)
            await asyncio.sleep(local.uniform(0, interval))  # desynchronise
            for k in range(per_conn):
                if local.random() < 0.15:
                    request = {"op": "insert", "relation": "S",
                               "rows": [[i * 10_000 + k]]}
                else:
                    request = {"op": "query",
                               "query": texts[local.randrange(len(texts))]}
                data = (json.dumps(request) + "\n").encode("utf-8")
                t0 = time.perf_counter()
                writer.write(data)
                await writer.drain()
                line = await reader.readline()
                latencies.append(time.perf_counter() - t0)
                response = json.loads(line)
                assert response.get("ok"), response
                await asyncio.sleep(local.uniform(0.5, 1.5) * interval)

        await asyncio.gather(*(run(i, r, w) for i, (r, w) in enumerate(conns)))
        for _reader, writer in conns:
            writer.close()
        return latencies, connect_s

    return asyncio.run(drive())


#: p99 at 1000 connections against the same core's p99 at 64, measured
#: after an untimed warm-up pass (0.70–1.16×; the reference p99 read
#: 1.2–2.1 ms, and 1.6–162 ms without the warm-up)
QOS_BAR = 2.0


def qos(quick: bool) -> list[dict]:
    """PR 9's QoS numbers: request latency through the asyncio core as the
    connection count climbs past anything a thread-per-connection server
    can hold, against the same core at a comfortable 64 connections (same
    per-connection request count and offered rate) — plus a deterministic
    proof that overload is answered with typed ``overloaded`` frames,
    never a hang or a dropped connection.

    The load generator shares this process with the servers, so CPython's
    cycle collector is paused for the latency sweep: a generator-side GC
    pause freezing 5000 client coroutines would be billed to the server
    under test.  (Server-side GC cost is real and documented in
    ``docs/serving.md`` — soak it with ``benchmarks/qos_soak.py``, where
    the server is a separate process with default GC.)"""
    heading("QOS — async core at 100/1k/5k connections vs itself at 64")
    from repro.server import serve
    from repro.session import Database

    rng = random.Random(0x905)
    r_rows = list({(rng.randrange(24), rng.randrange(24)) for _ in range(200)})[:96]
    rows: list[dict] = []
    rate = 200.0 if quick else 400.0  # offered req/s, identical for every row

    print(f"{'core':<12} {'conns':>7} {'reqs':>7} {'p50':>9} {'p95':>9} "
          f"{'p99':>9} {'conn setup':>11}")
    rule()

    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        # the baseline is the first row: 64 connections, the scale a
        # thread-per-connection server holds comfortably
        base_per_conn = 10 if quick else 30
        sweeps = ((50, 8), (200, 6)) if quick else ((100, 8), (1000, 4), (5000, 3))

        def stream(n_conns: int, per_conn: int) -> tuple[list[float], float]:
            server = serve(
                Database({"R": list(r_rows)}),
                max_inflight=128,
                max_conns=n_conns + 16,
                feed=False,
            )
            try:
                return _qos_stream(server.address, n_conns, per_conn, rate)
            finally:
                server.shutdown()

        # an untimed pass first, so that the reference row does not pay
        # the process's first server start-up in its tail
        stream(64, base_per_conn)
        base_p99 = None
        for n_conns, per_conn in ((64, base_per_conn), *sweeps):
            latencies, connect_s = stream(n_conns, per_conn)
            p50, p95, p99 = _percentiles(latencies)
            print(f"{'async':<12} {n_conns:>7} {len(latencies):>7} {p50 * 1e3:>7.2f}ms "
                  f"{p95 * 1e3:>7.2f}ms {p99 * 1e3:>7.2f}ms {connect_s:>10.2f}s")
            if base_p99 is None:
                base_p99 = p99
            row = {
                "workload": "qos_latency",
                "core": "async",
                "n_conns": n_conns,
                "n_requests": len(latencies),
                "p50_ms": round(p50 * 1e3, 4),
                "p95_ms": round(p95 * 1e3, 4),
                "p99_ms": round(p99 * 1e3, 4),
            }
            # holding 1000 connections — ~15× past the 64-conn comfort
            # point — must not cost more than QOS_BAR× its tail
            if n_conns == 1000:
                row.update(bar(
                    f"p99 at {n_conns} connections", p99 / base_p99, QOS_BAR,
                    "the p99 at 64 connections", at_most=True,
                ))
            rows.append(row)
    finally:
        if gc_was_enabled:
            gc.enable()
        gc.collect()

    # deterministic overload shed: one admission slot, eight pipelined
    # slot-holding queries — exactly seven typed overloaded frames, all
    # eight answered, nothing hung, nothing dropped
    import socket as socket_mod

    server = serve(Database({"R": [(1, 2)]}), max_inflight=1, feed=False)
    try:
        sock = socket_mod.create_connection(server.address, timeout=30)
        reader = sock.makefile("r", encoding="utf-8")
        n_sent = 8
        for i in range(n_sent):
            frame = json.dumps({
                "id": i, "op": "query", "query": "R(x, y)",
                "min_generation": 99, "wait_timeout_s": 0.2,
            }) + "\n"
            sock.sendall(frame.encode("utf-8"))
        answers = [json.loads(reader.readline()) for _ in range(n_sent)]
        sock.close()
    finally:
        server.shutdown()
    shed = sum(1 for a in answers if a.get("error_type") == "overloaded")
    assert shed == n_sent - 1, f"expected {n_sent - 1} sheds, saw {shed}"
    assert {a["id"] for a in answers} == set(range(n_sent))  # every one answered
    print(f"\n{'overload shed':<28} {n_sent} pipelined vs 1 slot → "
          f"{shed} typed overloaded frames, {n_sent} answered, 0 dropped")
    rows.append(
        {
            "workload": "qos_overload_shed",
            "max_inflight": 1,
            "sent": n_sent,
            "shed": shed,
            "answered": len(answers),
        }
    )
    return rows


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="fewer trials")
    parser.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="write the measured numbers to PATH as JSON (perf tracking)",
    )
    args = parser.parse_args()
    n_queries = 3 if args.quick else 6
    n_instances = 3 if args.quick else 5

    print("Reproduction harness — Gheerbrant, Libkin & Sirangelo, PODS 2013")
    figure1_rows = figure_1(n_queries, n_instances)
    strictness()
    worked_examples()
    orderings()
    oracle_rows = oracle(args.quick)
    engine_rows = engine_comparison(args.quick)
    columnar_rows = columnar(args.quick)
    hom_rows = hom_engine_comparison(args.quick)
    serving_rows = serving(args.quick)
    durable_rows = serving_durable(args.quick)
    replication_rows = replication(args.quick)
    qos_rows = qos(args.quick)
    if args.json:
        payload = {
            "meta": {
                "python": platform.python_version(),
                "machine": platform.machine(),
                "quick": args.quick,
            },
            "figure1": figure1_rows,
            "oracle": oracle_rows,
            "engine": engine_rows,
            "columnar": columnar_rows,
            "homs": hom_rows,
            "serving": serving_rows,
            "serving_durable": durable_rows,
            "replication": replication_rows,
            "qos": qos_rows,
        }
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
        print(f"\nNumbers written to {args.json}")
    print("\nAll experiment tables regenerated.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
