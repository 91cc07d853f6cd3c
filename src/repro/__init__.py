"""repro — naive evaluation and certain answers over incomplete databases.

A faithful, executable reproduction of Gheerbrant, Libkin & Sirangelo,
*"When is Naïve Evaluation Possible?"* (PODS 2013): naive databases with
marked nulls, six semantics of incompleteness, homomorphism machinery
(search, cores, minimal valuations), semantic orderings, FO fragments,
and an evaluation engine that uses naive evaluation exactly when the
paper proves it computes certain answers.

Quickstart (the session API)::

    from repro import Database, Null

    x = Null("1")
    db = Database({"R": [(1, x)], "S": [(x, 4)]}, semantics="owa")
    q = db.query("exists z (R(x, z) & S(z, y))", vars=("x", "y"))
    print(q.evaluate().answers)        # frozenset({(1, 4)})
    print(db.explain(q).render())      # why: backend, verdict, exactness

Preparing a query caches the Figure-1 analysis, the parse and the
constant pool, so repeated evaluation pays only for execution; plans
route to one of three backends (``columnar``, ``naive-interp``,
``enumeration``).  ``Database`` is the one front door for evaluation;
the free functions ``certain_answers`` and ``naive_eval`` compute the
paper's two notions directly, without planning or caching.

Sessions are mutable (``db.insert``/``delete``/``apply_delta``,
incremental and thread-safe) and optionally **durable**:
``Database(path="dir")`` journals every acknowledged write to a
write-ahead log and recovers snapshot + log tail on reopen
(:mod:`repro.storage`).  ``repro serve`` exposes a session over a
JSON-lines TCP protocol.  The prose documentation lives in ``docs/``:
``architecture.md``, ``semantics.md``, ``wire-protocol.md``,
``persistence.md`` — every ``>>>`` example there is executed by CI.
"""

from repro.core import (
    Backend,
    EvalResult,
    Plan,
    Verdict,
    analyze,
    available_backends,
    certain_answers,
    certain_holds,
    get_backend,
    make_plan,
    naive_eval,
    naive_holds,
    possible_answers,
    possible_holds,
)
from repro.data import Instance, Null, NullFactory, Schema
from repro.homs import core, find_homomorphism, has_homomorphism, is_core
from repro.logic import Query, Rel, Var, parse
from repro.semantics import (
    ALL_SEMANTICS,
    CWA,
    OWA,
    WCWA,
    MinCWA,
    MinPowersetCWA,
    PowersetCWA,
    get_semantics,
)
from repro.session import Database, DegradedError, PreparedQuery

# the wire clients and their unified exception hierarchy: everything a
# caller can catch is a ClientError, shared by Client and AsyncClient
from repro.client import (  # noqa: E402 - needs repro.session above
    AsyncClient,
    Client,
    ClientError,
    DeadlineExceeded,
    DegradedServerError,
    IndeterminateWriteError,
    OverloadedServerError,
    ReadOnlyServerError,
    ServerError,
    StaleReadError,
    TransportError,
)

__version__ = "1.4.0"

__all__ = [
    "Backend",
    "EvalResult",
    "Plan",
    "Verdict",
    "analyze",
    "available_backends",
    "certain_answers",
    "certain_holds",
    "get_backend",
    "make_plan",
    "naive_eval",
    "naive_holds",
    "possible_answers",
    "possible_holds",
    "Database",
    "DegradedError",
    "PreparedQuery",
    "Instance",
    "Null",
    "NullFactory",
    "Schema",
    "core",
    "find_homomorphism",
    "has_homomorphism",
    "is_core",
    "Query",
    "Rel",
    "Var",
    "parse",
    "ALL_SEMANTICS",
    "CWA",
    "OWA",
    "WCWA",
    "MinCWA",
    "MinPowersetCWA",
    "PowersetCWA",
    "get_semantics",
    "AsyncClient",
    "Client",
    "ClientError",
    "DeadlineExceeded",
    "DegradedServerError",
    "IndeterminateWriteError",
    "OverloadedServerError",
    "ReadOnlyServerError",
    "ServerError",
    "StaleReadError",
    "TransportError",
    "__version__",
]
