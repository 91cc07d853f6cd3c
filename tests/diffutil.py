"""Shared scaffolding for the cross-engine differential test suites.

One generator, many suites: ``tests/test_compile.py`` (compiled plans
≡ interpreter), ``tests/test_columnar.py`` (columnar kernels ≡
interpreter), ``tests/test_certain_bracket.py`` and the nightly fuzz
matrix all drive the helpers here, so an engine gets the full random
formula × random instance × all-semantics matrix by listing itself in
``engines=`` — not by growing a parallel copy of the generator.

The fuzz knobs are honoured exactly as before the extraction:
``REPRO_FUZZ`` multiplies every trial budget, ``REPRO_FUZZ_SEED``
shifts every RNG seed (the nightly workflow passes the run id), and the
defaults keep ordinary CI fast and fully deterministic.
"""

import os
import random
import zlib

from repro.core.naive import drop_null_tuples
from repro.data.schema import Schema
from repro.logic.ast import (
    And,
    EqAtom,
    Exists,
    FalseF,
    Forall,
    Implies,
    Not,
    Or,
    RelAtom,
    TrueF,
    Var,
)
from repro.logic.columnar import CompiledQuery
from repro.logic.eval import answers, evaluate
from repro.logic.transform import free_vars

#: the small schema the fragment/k-ary generators draw from
SCHEMA = Schema({"R": 2, "S": 1})

# Nightly fuzz knobs (.github/workflows/nightly.yml): REPRO_FUZZ multiplies
# every random-trial budget and REPRO_FUZZ_SEED shifts the RNG seeds, so the
# scheduled sweep covers fresh formula/instance space on every run.  The
# defaults (1, 0) keep ordinary CI fast and fully deterministic.
FUZZ = max(1, int(os.environ.get("REPRO_FUZZ", "1")))
FUZZ_SEED = int(os.environ.get("REPRO_FUZZ_SEED", "0"))


def fuzz_trials(base: int) -> int:
    return base * FUZZ


def fuzz_rng(seed: "int | str") -> random.Random:
    # strings are seeded via crc32, NOT hash(): str hashing is randomized
    # per process (PYTHONHASHSEED), which would make a nightly failure
    # unreplayable even with the same REPRO_FUZZ_SEED
    if isinstance(seed, str):
        seed = zlib.crc32(seed.encode())
    return random.Random(seed + 0x9E3779B1 * FUZZ_SEED)


def interp_answers(formula, instance, head):
    """The tree-walking interpreter — the differential ground truth."""
    if head:
        return answers(formula, instance, head)
    return frozenset([()]) if evaluate(formula, instance) else frozenset()


def engine_answers(engine: str, formula, instance, head):
    """Raw (pre-null-drop) answers of one engine on a bare formula."""
    head = tuple(Var(v) if isinstance(v, str) else v for v in head)
    if engine == "interp":
        return interp_answers(formula, instance, head)
    if engine == "columnar":
        return CompiledQuery(formula, head).answers(instance)
    raise ValueError(f"unknown differential engine {engine!r}")


def naive_answers(engine: str, query, instance):
    """Naive evaluation (both steps) of a :class:`Query` by one engine."""
    return drop_null_tuples(engine_answers(engine, query.formula, instance, query.answer_vars))


def assert_equivalent(formula, instance, head=(), engines=("columnar",)):
    """Each listed engine ≡ the interpreter on ``(formula, head, instance)``."""
    want = interp_answers(formula, instance, tuple(head))
    for engine in engines:
        got = engine_answers(engine, formula, instance, head)
        assert got == want, f"{engine} ≠ interp on {formula!r} over {instance!r}"


# ----------------------------------------------------------------------
# the arbitrary-formula generator (negation, →, =, constants: the
# unsafe zone) — extracted verbatim from test_compile.py
# ----------------------------------------------------------------------

#: defaults of the arbitrary generator
ARBITRARY_RELS = {"R": 2, "S": 1, "T": 3}
ARBITRARY_CONSTS = [1, 2, 3, "a"]
ARBITRARY_VARS = [Var(n) for n in "xyzuv"]


def random_formula(rng, depth, pool, rels=None, consts=None, vars_=None):
    """A random unrestricted formula over ``rels`` with ``pool`` in scope."""
    rels = ARBITRARY_RELS if rels is None else rels
    consts = ARBITRARY_CONSTS if consts is None else consts
    vars_ = ARBITRARY_VARS if vars_ is None else vars_
    if depth <= 0 or rng.random() < 0.25:
        k = rng.random()
        if k < 0.55:
            name = rng.choice(list(rels))
            opts = pool + consts if rng.random() < 0.4 else pool
            return RelAtom(name, tuple(rng.choice(opts) for _ in range(rels[name])))
        if k < 0.8:
            return EqAtom(rng.choice(pool + consts), rng.choice(pool + consts))
        return TrueF() if rng.random() < 0.5 else FalseF()
    op = rng.choice(["and", "or", "not", "implies", "exists", "forall"])
    if op == "not":
        return Not(random_formula(rng, depth - 1, pool, rels, consts, vars_))
    if op in ("and", "or"):
        subs = tuple(
            random_formula(rng, depth - 1, pool, rels, consts, vars_)
            for _ in range(rng.choice([2, 3]))
        )
        return And(subs) if op == "and" else Or(subs)
    if op == "implies":
        return Implies(
            random_formula(rng, depth - 1, pool, rels, consts, vars_),
            random_formula(rng, depth - 1, pool, rels, consts, vars_),
        )
    vs = tuple(rng.sample(vars_, rng.choice([1, 1, 2])))
    body = random_formula(
        rng, depth - 1, list(set(pool + list(vs))), rels, consts, vars_
    )
    return Exists(vs, body) if op == "exists" else Forall(vs, body)


def arbitrary_case(rng):
    """One random ``(formula, head, instance)`` from the unsafe zone."""
    from repro.data.generate import random_instance

    schema = Schema(ARBITRARY_RELS)
    inst = random_instance(
        schema, rng, n_facts=rng.randint(0, 6), constants=(1, 2, "a"), n_nulls=2
    )
    phi = random_formula(rng, rng.choice([1, 2, 3]), rng.sample(ARBITRARY_VARS, 2))
    head = tuple(sorted(free_vars(phi), key=lambda v: v.name))
    return phi, head, inst


# ----------------------------------------------------------------------
# the all-semantics certain-answer reference
# ----------------------------------------------------------------------

SEMANTICS_KEYS = ("owa", "cwa", "wcwa", "pcwa", "mincwa", "minpcwa")

#: extra fresh facts the open-world semantics need to be interesting
SEMANTICS_EXTRA = {"owa": 1, "wcwa": 1}


def interp_certain_reference(query, instance, semantics, extra_facts=None):
    """World-by-world interpreted intersection — the oracle ground truth."""
    from repro.core.certain import default_pool, query_schema

    pool = default_pool(instance, query)
    schema = instance.schema().union(query_schema(query))
    result = None
    for world in semantics.expand(
        instance, pool, schema=schema, extra_facts=extra_facts
    ):
        rows = interp_answers(query.formula, world, query.answer_vars)
        result = rows if result is None else result & rows
        if not result:
            break
    assert result is not None
    return result


# ----------------------------------------------------------------------
# the unpruned homomorphism reference (cores and minimality)
# ----------------------------------------------------------------------

def unpruned_shrinking_homomorphism(source, target, fix_constants, pinned=None):
    """A homomorphism of ``source`` into ``target`` minus one fact, trying
    every fact of ``target`` — the loop before null-free facts were
    skipped, kept as the reference for the pruned one."""
    from repro.homs.search import find_homomorphism

    for name, row in target.facts():
        hom = find_homomorphism(
            source, target.remove_fact(name, row), fix_constants=fix_constants, pinned=pinned
        )
        if hom is not None:
            return hom
    return None
