"""Session-oriented public API: the :class:`Database` facade.

A :class:`Database` wraps one incomplete :class:`~repro.data.instance.Instance`
together with a default semantics and turns the paper's
analyze-then-route insight into a *prepared-query* workflow:

>>> from repro.session import Database
>>> from repro.data.values import Null
>>> db = Database({"R": [(1, Null("x"))], "S": [(Null("x"), 4)]}, semantics="owa")
>>> q = db.query("exists z (R(x, z) & S(z, y))", vars=("x", "y"))
>>> sorted(q.evaluate().answers)
[(1, 4)]
>>> db.explain(q).backend
'columnar'

Preparing a query pays for the Figure-1 analyzer, the parse, the query
schema and the constant pool exactly once; subsequent evaluations reuse
the cached :class:`~repro.core.plan.Plan`.

The session is **long-lived and mutable**: :meth:`Database.insert`,
:meth:`Database.delete` and :meth:`Database.apply_delta` change the
instance *incrementally* — the untouched relations keep their frozen
row sets and dictionary-encoded columns
(:func:`repro.data.dictionary.derive_columnar`), and invalidation is tracked by **per-relation generation counters**
instead of one global epoch.  A prepared query's cached plan survives
writes to relations it never mentions, and a bounded **result cache**
(keyed by query value × backend × the generations of the relations the
compiled plan actually reads) turns repeated evaluation into a lookup
whenever the touched relations are disjoint from what the plan reads —
sound because a domain-independent compiled plan is a pure function of
those relations (``CompiledQuery.adom_dependent``), which is exactly
the paper's naive-evaluation determinacy made operational.

All public entry points are thread-safe: state transitions happen under
one reentrant lock, readers evaluate against immutable instance
snapshots outside it, and cache insertions are keyed by the generations
observed at snapshot time, so a concurrent writer can never tear a
result (:mod:`repro.server` multiplexes many client sessions over one
``Database`` this way).

Module-level functions are called through their module objects
(``_certain.default_pool`` and friends) so tests and instrumentation
can monkeypatch the defining module and observe every call.
"""

from __future__ import annotations

import threading
from importlib import import_module
from time import monotonic, perf_counter, time
from typing import Callable, Hashable, Iterable, Mapping, Sequence

from repro.core import analyzer as _analyzer
from repro.core import backends as _backends
from repro.core import certain as _certain
from repro.core import engine as _engine
from repro.core import plan as _plan
from repro.core.engine import EvalResult
from repro.core.plan import Plan
from repro.data import dictionary as _dictionary
from repro.data.answers import AnswerSet
from repro.data.instance import Instance
from repro.data.schema import Schema
from repro.logic import compile as _compile
from repro.logic.ast import Formula
from repro.logic.parser import parse
from repro.logic.queries import Query
from repro.logic.transform import free_vars
from repro.semantics import get_semantics
from repro.semantics.base import Semantics
from repro.storage.snapshot import SnapshotState
from repro.storage.store import RecoveryInfo, Storage, encode_delta_record

# repro.homs re-exports a `core` *function* that shadows the submodule
# attribute, so the module object must come from the import system.
_homs_core = import_module("repro.homs.core")

__all__ = ["Database", "DegradedError", "PreparedQuery", "as_query"]


class DegradedError(RuntimeError):
    """The session refuses mutations: a durability write failed.

    Raised *instead of* acknowledging a write whenever the journal
    cannot make it durable (failed append, failed fsync, failed
    snapshot publish) — the caller must treat the write as **not
    applied durably**, and every subsequent mutation is refused with
    this error until an operator :meth:`Database.checkpoint` succeeds
    (typically after the disk recovers).  Reads keep working: degraded
    mode is read-only serving, not a crash.

    The two entry paths differ in what the failed write means:

    * **append failed** — the delta never published; the write is
      definitively absent from the session and from recovery;
    * **fsync failed** — the delta already published in memory (group
      commit cannot take it back), so the write is *indeterminate*: it
      is visible to reads now and becomes durable at the healing
      checkpoint, but a crash before that checkpoint loses it.  Either
      way the caller was told "not acknowledged", which stays truthful.
    """


def as_query(source, vars=None, name: str | None = None) -> Query:
    """Normalise a query source (text, formula, or Query) into a Query.

    The single source of truth for the default answer-column convention
    (free variables in name order) shared by the session API and the CLI.
    """
    if isinstance(source, Query):
        if vars is not None:
            raise ValueError("vars cannot be overridden for an already-built Query")
        if name is not None:
            raise ValueError("name cannot be overridden for an already-built Query")
        return source
    formula = parse(source) if isinstance(source, str) else source
    if not isinstance(formula, Formula):
        raise TypeError(
            f"cannot prepare {source!r}: expected query text, a Formula, or a Query"
        )
    if vars is None:
        head = tuple(sorted(free_vars(formula), key=lambda v: v.name))
    else:
        head = tuple(vars)
    return Query(formula, head, name=name or "Q")


class PreparedQuery:
    """A query bound to a :class:`Database`, with its analysis cached.

    Caches, computed at most once per (query, semantics):

    * the parsed :class:`~repro.logic.queries.Query` (AST + answer tuple),
    * the analyzer verdict (Figure 1),
    * the query schema (relations/arities the query mentions);

    per *relevant* instance state:

    * the :class:`~repro.core.plan.Plan` per requested mode — invalidated
      only when a relation the query mentions changes (or, for verdicts
      that hinge on the core check, on any write at all);

    and at most once per instance generation:

    * the constant pool for bounded enumeration (it reflects every
      constant of the instance, so any write may change it).
    """

    __slots__ = (
        "_db",
        "query",
        "semantics",
        "_verdict",
        "_schema",
        "_pool",
        "_pool_generation",
        "_plans",
        "_plans_key",
    )

    def __init__(self, db: "Database", query: Query, semantics: Semantics):
        self._db = db
        self.query = query
        self.semantics = semantics
        self._verdict = None
        self._schema: Schema | None = None
        self._pool: tuple[Hashable, ...] | None = None
        self._pool_generation = -1
        self._plans: dict[str, Plan] = {}
        self._plans_key: tuple | None = None

    # ------------------------------------------------------------------
    # cached analysis
    # ------------------------------------------------------------------

    @property
    def database(self) -> "Database":
        return self._db

    @property
    def verdict(self):
        """The Figure-1 verdict for this (query, semantics) pair (cached)."""
        if self._verdict is None:
            self._verdict = _analyzer.analyze(self.query, self.semantics)
        return self._verdict

    @property
    def schema(self) -> Schema:
        """The schema mentioned by the query (cached)."""
        if self._schema is None:
            self._schema = _certain.query_schema(self.query)
        return self._schema

    @property
    def pool(self) -> tuple[Hashable, ...]:
        """The enumeration pool for the current instance (cached per generation).

        Returned as a tuple: the cache is shared across evaluations, so
        handing out a mutable alias would let callers corrupt it.  Built
        under the session lock so a concurrent writer cannot slip a
        generation bump between the pool build and its stamp (which
        would mark a stale pool current).
        """
        with self._db._lock:
            if self._pool_generation != self._db.generation:
                self._pool = tuple(
                    _certain.default_pool(self._db.instance, self.query)
                )
                self._pool_generation = self._db.generation
            return self._pool

    def _plan_key(self) -> tuple:
        """What a cached plan depends on, as a comparable value.

        The per-relation generations of the relations the query mentions,
        the session epoch (``replace``/``extra_facts`` assignments
        re-plan everything), and — only when the verdict is
        positive *over cores*, so routing hinges on a whole-instance
        property — the global mutation counter.
        """
        db = self._db
        gens = tuple(db._rel_gens.get(name, 0) for name in self.schema.relations)
        core_gen = db._generation if self.verdict.over_cores_only else -1
        return (db._epoch, gens, core_gen)

    def plan(self, mode: str = "auto") -> Plan:
        """The evaluation plan (cached per relevant instance state and mode).

        Planned under the session lock: the key computation, the plan
        build and the cache store must see one consistent instance
        state (an unlocked check-then-act could stamp a plan built from
        the pre-write instance with the post-write key).
        """
        with self._db._lock:
            key = self._plan_key()
            if self._plans_key != key:
                self._plans.clear()
                self._plans_key = key
            cached = self._plans.get(mode)
            if cached is None:
                # no pool is passed: make_plan derives the cost hint
                # arithmetically, and the pool is only materialised at
                # evaluation time for backends that actually read it
                cached = _plan.make_plan(
                    self.query,
                    self._db.instance,
                    self.semantics,
                    mode,
                    verdict=self.verdict,
                    core_check=self._db.instance_is_core,
                    extra_facts=self._db.extra_facts,
                )
                self._plans[mode] = cached
            return cached

    explain = plan

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------

    def evaluate(self, mode: str = "auto") -> EvalResult:
        """Evaluate against the session's current instance via the cached plan.

        Planning happens under the session lock so the snapshot
        (instance, plan, pool, result-cache key) is consistent — note a
        *first-time* plan may pay the core check or a pool build there;
        warm paths are dictionary lookups.  The backend itself runs
        outside the lock against the immutable snapshot, so concurrent
        readers execute in parallel and a cache hit skips execution
        entirely (``stats["result_cache"] == "hit"``).
        """
        db = self._db
        start = perf_counter()
        with db._lock:
            instance = db._instance
            plan = self.plan(mode)
            backend = _backends.get_backend(plan.backend)
            key = db._result_key(self, plan)
            cached = db._result_get(key)
            # a cache hit never enumerates, so the pool is not even built
            pool = self.pool if backend.uses_pool and cached is None else None
            stats = {
                # the pool actually materialised for this run (0 = none:
                # the backend does not enumerate)
                "pool_size": len(pool) if pool is not None else 0,
                "generation": db._generation,
                **db._cache_stats_fields(key, cached),
            }
            extra_facts = db._extra_facts
            limit = db.limit
        stats["planning_s"] = perf_counter() - start
        if cached is not None:
            return db._hit_result(plan, cached, stats)
        result = _engine.execute_plan(
            plan,
            self.query,
            instance,
            self.semantics,
            pool=pool,
            extra_facts=extra_facts,
            limit=limit,
            stats=stats,
        )
        if key is not None:
            db._result_put(key, result.answer_set)
        return result

    def __call__(self, mode: str = "auto") -> EvalResult:
        return self.evaluate(mode)

    def __repr__(self) -> str:
        return (
            f"PreparedQuery({self.query!r}, semantics={self.semantics.key!r}, "
            f"db_generation={self._db.generation})"
        )


class Database:
    """A stateful, thread-safe session over one incomplete instance.

    Parameters
    ----------
    instance:
        the incomplete database — an :class:`Instance` or a plain
        ``{relation: rows}`` mapping (defaults to the empty instance);
    semantics:
        default semantics for prepared queries (key or object);
    extra_facts / limit:
        enumeration knobs forwarded to the oracle backends;
    prepared_cache_size:
        bound on the LRU intern table for textual queries;
    result_cache_size:
        bound on the LRU result cache (0 disables result caching);
    path:
        a data directory making the session **durable**
        (:mod:`repro.storage`).  Opening recovers the previous state —
        latest snapshot plus write-ahead-log tail — bit-identically
        (rows *and* generation counters); afterwards every effective
        mutation is journaled before it publishes and acknowledged only
        once fsync'd, so acknowledged writes survive ``kill -9``.
        ``instance`` may seed a *fresh* data directory; passing both an
        instance and a directory that already holds state is an error
        (recovered state wins, silently dropping the seed would lie);
    fsync:
        ``False`` keeps journaling but skips the per-commit fsync —
        crash durability becomes best-effort (the benchmark harness
        uses this to price durability itself);
    wal_max_bytes / wal_max_age_s:
        compaction triggers: after an acknowledged write whose log has
        grown past ``wal_max_bytes`` (or is older than
        ``wal_max_age_s`` seconds, when set), a fresh snapshot is
        written and the log truncated (:meth:`checkpoint`);
    faults:
        a :class:`repro.faults.FaultRegistry` (or spec string) for
        deterministic fault injection into the storage layer; ``None``
        uses the process-global registry armed via the
        ``REPRO_FAILPOINTS`` environment variable.

    When a durability write fails (injected or real), the session
    flips to **degraded read-only mode**: the failed write is *never*
    acknowledged, subsequent mutations raise :class:`DegradedError`,
    reads keep serving, and a successful :meth:`checkpoint` (operator-
    triggered once the disk recovers) restores writability.

    Mutation is **incremental**: :meth:`insert`, :meth:`delete` and
    :meth:`apply_delta` derive the next instance value via
    :meth:`Instance.with_delta`, carry the untouched relations' hash
    indexes over, and bump only the *touched relations'* generation
    counters — so prepared plans and cached results survive unrelated
    writes.  :meth:`replace` swaps the whole instance and invalidates
    everything (the session epoch).
    """

    def __init__(
        self,
        instance: Instance | Mapping[str, Iterable[tuple]] | None = None,
        semantics: Semantics | str = "cwa",
        *,
        extra_facts: int | None = None,
        limit: int = 500_000,
        prepared_cache_size: int = 256,
        result_cache_size: int = 1024,
        path: str | None = None,
        fsync: bool = True,
        wal_max_bytes: int = 4 * 1024 * 1024,
        wal_max_age_s: float | None = None,
        faults=None,
    ):
        seeded = instance is not None
        if instance is None:
            instance = Instance.empty()
        elif not isinstance(instance, Instance):
            instance = Instance(instance)
        self._storage: Storage | None = None
        recovered: SnapshotState | None = None
        #: health state machine: "ok" → "degraded" on a durability
        #: failure, back to "ok" on the next successful checkpoint
        self._health_state = "ok"
        self._health_reason: str | None = None
        self._health_since: float | None = None
        self._degraded_count = 0
        if path is not None:
            self._storage = Storage(
                path,
                fsync=fsync,
                wal_max_bytes=wal_max_bytes,
                wal_max_age_s=wal_max_age_s,
                faults=faults,
            )
            recovered = self._storage.open()
            info = self._storage.recovery
            if info.had_snapshot or info.wal_records or info.wal_skipped:
                if seeded:
                    self._storage.close()  # do not leak the open WAL handle
                    raise ValueError(
                        f"data directory {path!r} already holds a persisted session; "
                        f"refusing to overwrite it with the provided instance "
                        f"(recover without an instance, or choose a fresh directory)"
                    )
                instance = recovered.instance
        self._instance = instance
        self._semantics = (
            get_semantics(semantics) if isinstance(semantics, str) else semantics
        )
        self._extra_facts = extra_facts
        self.limit = limit
        #: total mutation counter (every effective write bumps it);
        #: durable sessions recover it from the snapshot + WAL replay
        self._generation = recovered.generation if recovered is not None else 0
        #: structural epoch: replace()/knob assignments invalidate everything
        #: (process-local — caches die with the process, so not persisted)
        self._epoch = 0
        #: per-relation write counters — the selective-invalidation keys
        self._rel_gens: dict[str, int] = (
            dict(recovered.rel_gens) if recovered is not None else {}
        )
        self._core_flag: bool | None = None
        self._lock = threading.RLock()
        # signalled on every generation change; staleness-bounded reads
        # on replicas block on it (wait_for_generation)
        self._gen_cond = threading.Condition(self._lock)
        # replication/observation hooks, notified under the lock so event
        # order matches publish order (see add_listener)
        self._listeners: list[Callable[[dict], None]] = []
        # LRU intern table for textual queries, bounded so a long-lived
        # session serving ad-hoc query texts cannot grow without limit
        self._prepared: dict[tuple, PreparedQuery] = {}
        self._prepared_max = max(1, prepared_cache_size)
        # memo for the batch pool: (generation, extra constants) → pool
        # (a tuple, so backends cannot corrupt the cache in place)
        self._batch_pool_key: tuple | None = None
        self._batch_pool: tuple[Hashable, ...] | None = None
        # generation-keyed LRU result cache (see _result_key); an entry
        # is an AnswerSet, rendered to wire text at most once
        self._results: dict[tuple, AnswerSet] = {}
        self._results_max = max(0, result_cache_size)
        self._result_stats = {
            "hits": 0,
            "misses": 0,
            "uncacheable": 0,
            "evictions": 0,
        }
        if self._storage is not None and seeded:
            # a fresh data directory seeded with an instance: snapshot it
            # now, so the seed survives a restart with zero writes
            try:
                self.checkpoint()
            except BaseException:
                self._storage.close()  # do not leak the open WAL handle
                raise

    # ------------------------------------------------------------------
    # state
    # ------------------------------------------------------------------

    @property
    def instance(self) -> Instance:
        """The current incomplete instance."""
        return self._instance

    @property
    def semantics(self) -> Semantics:
        """The session's default semantics."""
        return self._semantics

    @property
    def generation(self) -> int:
        """Total effective-mutation counter (every write bumps it).

        Selective invalidation does **not** key on this — see
        :meth:`rel_generation` — but whole-instance caches (the
        enumeration pool, the batch-pool memo) still do.
        """
        return self._generation

    def rel_generation(self, relation: str) -> int:
        """How many effective writes relation ``relation`` has seen."""
        return self._rel_gens.get(relation, 0)

    @property
    def extra_facts(self) -> int | None:
        """Bound on extension facts for the oracle backends.

        Plans depend on this knob (it decides whether OWA/WCWA
        enumeration is exact), so assigning a new value invalidates
        the cached plans.
        """
        return self._extra_facts

    @extra_facts.setter
    def extra_facts(self, value: int | None) -> None:
        with self._lock:
            if value != self._extra_facts:
                self._extra_facts = value
                self._generation += 1
                self._epoch += 1
                self._notify({"type": "reset", "generation": self._generation})
                self._gen_cond.notify_all()

    def instance_is_core(self) -> bool:
        """Is the current instance a core?  Cached until the next mutation."""
        if self._core_flag is None:
            if self._instance.is_complete():
                # every homomorphism fixing constants is the identity on
                # a null-free instance, so it is trivially a core
                self._core_flag = True
            else:
                self._core_flag = _homs_core.is_core(self._instance)
        return self._core_flag

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------

    def apply_delta(
        self,
        adds: Mapping[str, Iterable[Sequence[Hashable]]] | None = None,
        removes: Mapping[str, Iterable[Sequence[Hashable]]] | None = None,
    ) -> int:
        """Apply a batch of insertions/deletions atomically.

        Returns the number of facts that actually changed.  The whole
        delta lands as **one** state transition: concurrent readers see
        either the old or the new instance, never a half-applied mix.
        Null-carrying rows are welcome — a new null simply widens the
        valuation space the oracle enumerates.

        Incremental: untouched relations keep their frozen row sets and
        their encoded columns (:func:`repro.data.dictionary.derive_columnar`);
        touched relations re-encode lazily on next read, and only their
        generation counters bump — cached plans and results of queries
        that do not read them stay valid.

        Durable sessions journal first: the effective delta is appended
        to the write-ahead log *before* the new instance publishes, and
        the call returns only once the record is fsync'd (group-commit:
        concurrent writers share one fsync) — so a delta this method
        has acknowledged survives ``kill -9``.  When the log outgrows
        its size/age budget the write also triggers a
        :meth:`checkpoint`.
        """
        offset: int | None = None
        with self._lock:
            if self._health_state == "degraded":
                raise DegradedError(
                    f"session is degraded ({self._health_reason}); mutations are "
                    f"refused until a checkpoint succeeds"
                )
            storage = self._storage
            new, changes = self._instance.with_delta(adds, removes)
            if not changes:
                return 0
            # one source of truth for the post-write counters: the same
            # dict is journaled and then published, so the WAL can never
            # diverge from what recovery must restore
            new_rel_gens = {n: self._rel_gens.get(n, 0) + 1 for n in changes}
            record: dict | None = None
            if storage is not None or self._listeners:
                # one wire-format record serves both the journal and the
                # replication feed, so neither can drift from the other
                record = encode_delta_record(changes, self._generation + 1, new_rel_gens)
            if storage is not None:
                # journal before publish; encoding errors raise here,
                # before any in-memory state has changed
                try:
                    offset = storage.append_record(record)
                except OSError as err:
                    # nothing published: the write is definitively absent
                    self._degrade(f"wal append failed: {err}")
                    raise DegradedError(
                        f"write not acknowledged: wal append failed ({err}); "
                        f"session is degraded (read-only) until a checkpoint succeeds"
                    ) from err
            _dictionary.derive_columnar(self._instance, new, changes)
            self._instance = new
            self._generation += 1
            self._rel_gens.update(new_rel_gens)
            self._core_flag = None
            count = sum(len(added) + len(removed) for added, removed in changes.values())
            if record is not None and self._listeners:
                self._notify({"type": "delta", "record": record})
            self._gen_cond.notify_all()
        if offset is not None:
            try:
                storage.sync(offset)  # the durability point, outside the lock
            except OSError as err:
                # already published — group commit cannot take it back, so
                # the in-memory timeline stays truth and the write becomes
                # durable at the healing checkpoint; but the *caller* gets
                # a typed refusal, never an ack for a non-durable write
                self._degrade(f"wal fsync failed: {err}")
                raise DegradedError(
                    f"write not acknowledged: wal fsync failed ({err}); "
                    f"session is degraded (read-only) until a checkpoint succeeds"
                ) from err
            if storage.should_compact():
                try:
                    self.checkpoint()
                except DegradedError:
                    # the write itself is durable and acknowledged; a
                    # failed auto-compaction degrades the session but
                    # must not turn that ack into an error
                    pass
        return count

    def insert(self, relation: str, *rows: Sequence[Hashable]) -> int:
        """Insert facts into ``relation``; returns how many were new."""
        return self.apply_delta(adds={relation: rows})

    def delete(self, relation: str, *rows: Sequence[Hashable]) -> int:
        """Delete facts from ``relation``; returns how many were present."""
        return self.apply_delta(removes={relation: rows})

    def add_fact(self, relation: str, row: Sequence[Hashable]) -> None:
        """Add one fact (no-op when already present)."""
        self.insert(relation, tuple(row))

    def remove_fact(self, relation: str, row: Sequence[Hashable]) -> None:
        """Remove one fact (no-op when absent)."""
        self.delete(relation, tuple(row))

    def replace(self, instance: Instance | Mapping[str, Iterable[tuple]]) -> None:
        """Swap in a whole new instance (invalidates every cache).

        On a durable session the swap is persisted as a fresh snapshot
        (plus log truncation) rather than a delta record — a whole-
        instance replacement is a checkpoint by definition.
        """
        if not isinstance(instance, Instance):
            instance = Instance(instance)
        with self._lock:
            if instance == self._instance:
                return
            # carry the interning dictionary across the swap: codes stay
            # stable along the whole instance chain (replace included)
            old_cols = self._instance._cols
            if old_cols is not None and instance._cols is None:
                _dictionary.columnar_context(instance, old_cols.dictionary)
            self._instance = instance
            self._generation += 1
            self._epoch += 1
            self._core_flag = None
            self._results.clear()
            # no WAL record carries this transition: replicas must resync
            self._notify({"type": "reset", "generation": self._generation})
            self._gen_cond.notify_all()
            if self._storage is not None:
                # after the notifies: the in-memory swap stands even when
                # persisting it fails (the session degrades instead)
                self._checkpoint_locked()

    # ------------------------------------------------------------------
    # durability
    # ------------------------------------------------------------------

    def _snapshot_state(self) -> SnapshotState:
        """The durable state triple (caller must hold the session lock)."""
        return SnapshotState(self._instance, self._generation, dict(self._rel_gens))

    @property
    def path(self) -> str | None:
        """The data directory of a durable session, or ``None``."""
        return str(self._storage.path) if self._storage is not None else None

    @property
    def recovery_info(self) -> RecoveryInfo | None:
        """What opening the data directory found (``None`` when memory-only).

        Carries the snapshot generation, how many WAL records were
        replayed or skipped, and how many torn trailing bytes were
        discarded — ``repro recover`` prints exactly this.
        """
        return self._storage.recovery if self._storage is not None else None

    @property
    def storage_stats(self) -> dict | None:
        """Live WAL/snapshot counters of a durable session, or ``None``."""
        return self._storage.stats if self._storage is not None else None

    def checkpoint(self) -> bool:
        """Write a fresh snapshot and truncate the write-ahead log.

        The compaction step: recovery cost goes back to "read one
        snapshot", and the log starts empty.  Runs under the session
        lock so the snapshot and the truncation see one consistent
        state.  Returns ``False`` on a memory-only session or when the
        current state is already fully snapshotted.

        Doubles as the **healing** step of degraded mode: a successful
        checkpoint proves the disk can persist the full current state
        again, so the session flips back to ``ok`` and accepts
        mutations.  A failing checkpoint raises :class:`DegradedError`
        (and keeps/puts the session in degraded mode).
        """
        if self._storage is None:
            return False
        with self._lock:
            return self._checkpoint_locked()

    def _checkpoint_locked(self) -> bool:
        """Checkpoint + health transition (caller holds the session lock)."""
        try:
            result = self._storage.checkpoint(self._snapshot_state())
        except OSError as err:
            self._degrade(f"checkpoint failed: {err}")
            raise DegradedError(
                f"checkpoint failed ({err}); session is degraded (read-only) "
                f"until a checkpoint succeeds"
            ) from err
        self._heal()
        return result

    def _degrade(self, reason: str) -> None:
        """Enter degraded read-only mode (idempotent; keeps the first reason)."""
        with self._lock:
            if self._health_state != "degraded":
                self._health_state = "degraded"
                self._health_reason = reason
                self._health_since = time()
                self._degraded_count += 1

    def _heal(self) -> None:
        """Leave degraded mode after a proven-durable checkpoint."""
        with self._lock:
            if self._health_state == "degraded":
                self._health_state = "ok"
                self._health_reason = None
                self._health_since = None

    @property
    def health(self) -> dict:
        """The session's health state machine, as one atomic reading.

        ``state`` is ``"ok"`` or ``"degraded"``; while degraded,
        ``reason`` names the durability failure that caused it and
        ``since`` is its wall-clock timestamp.  ``degraded_count``
        counts ok→degraded transitions over the session's lifetime
        (it survives healing, so monitors can spot flapping disks).
        """
        with self._lock:
            return {
                "state": self._health_state,
                "reason": self._health_reason,
                "since": self._health_since,
                "degraded_count": self._degraded_count,
            }

    # ------------------------------------------------------------------
    # replication hooks
    # ------------------------------------------------------------------

    def add_listener(self, listener: Callable[[dict], None]) -> None:
        """Register a mutation observer (the replication feed is one).

        Listeners are called **under the session lock**, so the event
        order they see is exactly the publish order: a ``delta`` event
        carries the same wire-format record the WAL journals
        (``{"g", "rg", "adds", "removes"}``), a ``reset`` event marks a
        transition no WAL record describes (:meth:`replace`, knob
        assignments, :meth:`restore`) after which the stream is no
        longer dense.  Listeners must be fast and must not re-enter the
        session's mutation API.
        """
        with self._lock:
            if listener not in self._listeners:
                self._listeners.append(listener)

    def remove_listener(self, listener: Callable[[dict], None]) -> None:
        """Unregister a mutation observer (idempotent)."""
        with self._lock:
            if listener in self._listeners:
                self._listeners.remove(listener)

    def _notify(self, event: dict) -> None:
        """Deliver one event to every listener (caller holds the lock)."""
        for listener in list(self._listeners):
            try:
                listener(event)
            except Exception:  # noqa: BLE001 - a broken observer must not fail writers
                pass

    @property
    def position(self) -> dict:
        """The applied replication position: ``{"generation", "rel_generations"}``.

        Read atomically under the lock — the two counters always belong
        to the same published state.
        """
        with self._lock:
            return {
                "generation": self._generation,
                "rel_generations": dict(self._rel_gens),
            }

    def wait_for_generation(
        self,
        generation: int | None = None,
        rel_generations: Mapping[str, int] | None = None,
        *,
        timeout: float | None = None,
    ) -> bool:
        """Block until the session's counters reach the given floor(s).

        The staleness-bounded read primitive: a replica serving a query
        with ``min_generation`` parks here until its tailer has applied
        enough of the primary's stream (or the deadline passes —
        returns ``False``, and the server turns that into a typed
        ``stale`` error).  On a primary this returns immediately unless
        the caller asks for a future generation.
        """
        floors = dict(rel_generations or {})
        deadline = None if timeout is None else monotonic() + timeout
        with self._gen_cond:
            while True:
                caught_up = (
                    generation is None or self._generation >= generation
                ) and all(self._rel_gens.get(n, 0) >= g for n, g in floors.items())
                if caught_up:
                    return True
                if deadline is None:
                    self._gen_cond.wait()
                else:
                    remaining = deadline - monotonic()
                    if remaining <= 0:
                        return False
                    self._gen_cond.wait(remaining)

    def restore(self, instance, generation: int, rel_generations: Mapping[str, int]) -> None:
        """Install replicated state **verbatim** — counters included.

        The replica-side bootstrap path: when the primary's WAL no
        longer reaches back to this session's position, the feed ships a
        full snapshot and this method makes it the session's state in
        one transition.  Unlike :meth:`replace` the counters come from
        the *primary*, so subsequent delta frames apply densely.  On a
        durable session the new state is checkpointed immediately
        (recovery must never resurrect the pre-restore timeline).
        """
        if not isinstance(instance, Instance):
            instance = Instance(instance)
        with self._lock:
            # same dictionary carry-over as replace(): restored state is
            # new content, but interned codes must stay stable
            old_cols = self._instance._cols
            if old_cols is not None and instance._cols is None:
                _dictionary.columnar_context(instance, old_cols.dictionary)
            self._instance = instance
            self._generation = int(generation)
            self._rel_gens = {
                str(name): int(gen) for name, gen in (rel_generations or {}).items()
            }
            self._epoch += 1
            self._core_flag = None
            self._results.clear()
            self._batch_pool_key = None
            self._notify({"type": "reset", "generation": self._generation})
            self._gen_cond.notify_all()
            if self._storage is not None:
                # after the notifies: the restored state is the session's
                # truth even when persisting it fails (degrade instead)
                self._checkpoint_locked()

    def raw_wal_records(self) -> list[dict]:
        """The wire-format records currently in the WAL (oldest first).

        Empty for memory-only sessions.  The replication feed seeds its
        ring buffer from this under the session lock, so the tail it
        then receives as listener events continues densely.
        """
        if self._storage is None:
            return []
        return self._storage.raw_records()

    # ------------------------------------------------------------------
    # the result cache
    # ------------------------------------------------------------------

    def _result_key(self, prepared: PreparedQuery, plan: Plan) -> tuple | None:
        """The cache key for one evaluation, or ``None`` when uncacheable.

        Delegated to the backend
        (:meth:`repro.core.backends.Backend.cache_relations`): a result
        is cacheable exactly when the backend can name the relations it
        is a pure function of.  The key then pins the query value, the
        semantics object, the backend, the session epoch, and the
        *generations of those relations* — so any write to a read
        relation changes the key (miss), while writes elsewhere leave it
        untouched (hit).
        """
        if not self._results_max:
            return None
        backend = _backends.get_backend(plan.backend)
        cq = _compile.compiled_query(prepared.query)
        reads = backend.cache_relations(prepared.semantics, plan.exact, cq)
        if reads is None:
            self._result_stats["uncacheable"] += 1
            return None
        gens = tuple(
            (name, self._rel_gens.get(name, 0)) for name in sorted(reads)
        )
        return (self._epoch, prepared.query, prepared.semantics, plan.backend, gens)

    def _result_get(self, key: tuple | None) -> AnswerSet | None:
        if key is None:
            return None
        found = self._results.pop(key, None)
        if found is None:
            self._result_stats["misses"] += 1
            return None
        self._results[key] = found  # re-insert at the LRU tail
        self._result_stats["hits"] += 1
        return found

    def _result_put(self, key: tuple, answers: AnswerSet) -> None:
        with self._lock:
            self._results.pop(key, None)
            self._results[key] = answers
            while len(self._results) > self._results_max:
                self._results.pop(next(iter(self._results)))
                self._result_stats["evictions"] += 1

    @staticmethod
    def _cache_stats_fields(key: tuple | None, cached: AnswerSet | None) -> dict:
        """The per-result stats entries describing the cache outcome."""
        fields: dict[str, object] = {
            "result_cache": (
                "hit" if cached is not None
                else "miss" if key is not None
                else "uncacheable"
            ),
        }
        if key is not None:
            fields["generations"] = dict(key[-1])
        return fields

    @staticmethod
    def _hit_result(plan: Plan, answers: AnswerSet, stats: dict) -> EvalResult:
        """An :class:`EvalResult` served from the cache (no execution)."""
        stats.update(backend=plan.backend, mode=plan.mode, execution_s=0.0)
        return EvalResult(
            answers, plan.backend, plan.exact, plan.direction, plan.verdict, stats
        )

    @property
    def cache_stats(self) -> dict[str, int]:
        """Result-cache counters: hits, misses, uncacheable, evictions, entries."""
        with self._lock:
            return {**self._result_stats, "entries": len(self._results)}

    def close(self) -> None:
        """Release the storage handles (idempotent).

        Deliberately does **not** snapshot: close must stay cheap and
        safe to call from error paths.  Long-lived services call
        :meth:`checkpoint` first on graceful shutdown (``repro serve``
        does) — and even without it, recovery replays the log.
        """
        with self._lock:
            storage, self._storage = self._storage, None
        if storage is not None:
            storage.close()

    def __enter__(self) -> "Database":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # preparing queries
    # ------------------------------------------------------------------

    def query(
        self,
        source,
        vars: Sequence | None = None,
        *,
        semantics: Semantics | str | None = None,
        name: str | None = None,
    ) -> PreparedQuery:
        """Prepare a query for repeated evaluation against this session.

        ``source`` may be query text, a parsed ``Formula``, an
        already-built :class:`~repro.logic.queries.Query`, or a
        :class:`PreparedQuery` from this session (returned unchanged).
        ``vars`` fixes the answer-column order for text/formula sources;
        omitted, the free variables are used in name order.  Sources are
        interned in a bounded LRU table (size ``prepared_cache_size``):
        preparing the same text — or the same ``Query``/``Formula``
        value — twice returns the *same* prepared query, so its caches
        are shared.
        """
        if isinstance(source, PreparedQuery):
            if source.database is not self:
                raise ValueError("prepared query belongs to a different Database")
            if vars is not None:
                raise ValueError(
                    "vars cannot be overridden for an already-prepared query"
                )
            if name is not None:
                raise ValueError(
                    "name cannot be overridden for an already-prepared query"
                )
            if semantics is not None:
                wanted = (
                    get_semantics(semantics) if isinstance(semantics, str) else semantics
                )
                # identity, not key: two Semantics objects may share a key
                # yet expand differently
                if wanted is not source.semantics:
                    raise ValueError(
                        f"prepared query is bound to semantics "
                        f"{source.semantics.key!r}; re-prepare it for {wanted.key!r}"
                    )
            return source
        sem = self._semantics if semantics is None else (
            get_semantics(semantics) if isinstance(semantics, str) else semantics
        )
        # vars/name overrides on a Query source are rejected by as_query
        # below, before anything is inserted into the cache.
        # the semantics *object* (identity-hashed) keys the cache — a
        # custom Semantics sharing a registry key must not collide
        key = (source, tuple(vars) if vars is not None else None, name, sem)
        if not isinstance(source, str):
            try:
                hash(key)  # Query/Formula are usually hashable values
            except TypeError:
                return PreparedQuery(self, as_query(source, vars, name), sem)
        with self._lock:
            cached = self._prepared.pop(key, None)
            if cached is None:
                cached = PreparedQuery(self, as_query(source, vars, name), sem)
            self._prepared[key] = cached  # (re-)insert at the LRU tail
            while len(self._prepared) > self._prepared_max:
                self._prepared.pop(next(iter(self._prepared)))
            return cached

    prepare = query

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------

    def evaluate(self, source, vars: Sequence | None = None, *, mode: str = "auto",
                 semantics: Semantics | str | None = None) -> EvalResult:
        """One-shot convenience: prepare (or reuse) and evaluate."""
        return self.query(source, vars, semantics=semantics).evaluate(mode)

    def explain(self, source, vars: Sequence | None = None, *, mode: str = "auto",
                semantics: Semantics | str | None = None) -> Plan:
        """The structured :class:`Plan` for a query, without running it."""
        return self.query(source, vars, semantics=semantics).plan(mode)

    def evaluate_many(self, sources: Iterable, *, mode: str = "auto") -> list[EvalResult]:
        """Evaluate a batch, sharing pool construction and the core check.

        One constant pool is built covering the instance plus *every*
        query's constants (a superset pool keeps enumeration exact —
        it only enumerates more worlds), and the core check is computed
        at most once for the whole batch via the session cache.  Results
        served from the result cache skip execution entirely; the pool
        is only materialised when some cache-missing plan reads it.
        Each result's ``stats`` reports its own planning/execution time
        plus ``batch=True`` and the shared pool size.
        """
        with self._lock:
            prepared = [self.query(s) for s in sources]
            if not prepared:
                return []
            instance = self._instance
            generation = self._generation
            extra_facts = self._extra_facts
            limit = self.limit
            entries: list[tuple[PreparedQuery, Plan, float, tuple | None, AnswerSet | None]] = []
            for p in prepared:
                t0 = perf_counter()
                plan = p.plan(mode)  # cached per relevant state and mode
                key = self._result_key(p, plan)
                cached = self._result_get(key)
                entries.append((p, plan, perf_counter() - t0, key, cached))
            # one superset pool for the whole batch — but only when some
            # cache-missing plan actually routes to a pool-reading backend
            shared_pool: tuple[Hashable, ...] | None = None
            pool_build = 0.0
            if any(
                cached is None and _backends.get_backend(plan.backend).uses_pool
                for _, plan, _, _, cached in entries
            ):
                extra: set[Hashable] = set()
                for p in prepared:
                    extra |= set(p.query.constants())
                memo_key = (generation, frozenset(extra))
                if self._batch_pool_key != memo_key:
                    t0 = perf_counter()
                    self._batch_pool = tuple(
                        _certain.default_pool(instance, extra_constants=extra)
                    )
                    pool_build = perf_counter() - t0
                    self._batch_pool_key = memo_key
                shared_pool = self._batch_pool
        results: list[EvalResult] = []
        for p, plan, planning, key, cached in entries:
            uses_pool = _backends.get_backend(plan.backend).uses_pool
            stats: dict[str, object] = {
                "planning_s": planning,
                # one-off cost of building the shared pool, reported
                # on every result of the batch that paid it
                "pool_build_s": pool_build,
                "pool_size": (
                    len(shared_pool)
                    if shared_pool is not None and uses_pool and cached is None
                    else 0
                ),
                "generation": generation,
                "batch": True,
                **self._cache_stats_fields(key, cached),
            }
            if cached is not None:
                results.append(self._hit_result(plan, cached, stats))
                continue
            result = _engine.execute_plan(
                plan,
                p.query,
                instance,
                p.semantics,
                pool=shared_pool if uses_pool else None,
                extra_facts=extra_facts,
                limit=limit,
                stats=stats,
            )
            if key is not None:
                self._result_put(key, result.answer_set)
            results.append(result)
        return results

    def __repr__(self) -> str:
        return (
            f"Database({self._instance!r}, semantics={self._semantics.key!r}, "
            f"generation={self._generation})"
        )
