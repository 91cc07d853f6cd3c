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
instead of one global epoch.  A prepared query's cached plan reads no
rows, so it survives writes, and a bounded **result cache**
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
from collections import deque
from contextlib import contextmanager
from importlib import import_module
from time import monotonic, perf_counter, time
from typing import Callable, Hashable, Iterable, Iterator, Mapping, Sequence

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
from repro.logic import columnar as _columnar
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

__all__ = ["Database", "DegradedError", "PreparedQuery", "Written", "as_query"]

#: how many writes the delta log keeps for maintaining cached answers; a
#: cache entry older than that is recomputed instead
DELTA_LOG_SIZE = 64


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


class Written(int):
    """A write's count of changed facts, carrying the generation it left.

    :meth:`Database.apply_delta` (and so ``insert``/``delete``) returns
    one: it is the plain count, and ``generation`` is the session
    generation that write published (the current one for a no-op),
    read under the write's own lock — so a write ack never carries a
    later concurrent write's generation.
    """

    def __new__(cls, count: int, generation: int) -> "Written":
        out = super().__new__(cls, count)
        out.generation = generation
        return out


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

    * the :class:`~repro.core.plan.Plan` per requested mode — it reads
      no rows (its cost hints read the instance when EXPLAIN asks), so
      it survives writes; only ``replace``/``extra_facts`` (the epoch)
      and, for verdicts that hinge on the core check, any write re-plan;
    * the constant pool for bounded enumeration — rebuilt only when the
      instance's constants or its number of nulls change, the only
      parts of the instance the pool reflects.
    """

    __slots__ = (
        "_db",
        "query",
        "semantics",
        "_verdict",
        "_schema",
        "_pool",
        "_pool_key",
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
        self._pool_key: tuple | None = None
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
        """The enumeration pool for the current instance.

        Cached per content: :func:`~repro.core.certain.default_pool` is a
        function of the instance's constants and its number of nulls, so
        a write that changes neither keeps the pool.  Returned as a
        tuple: the cache is shared across evaluations, so handing out a
        mutable alias would let callers corrupt it.  Built under the
        session lock so a concurrent writer cannot swap the instance
        between the pool build and its stamp.
        """
        with self._db._lock:
            instance = self._db.instance
            key = (instance.constants(), len(instance.nulls()))
            if self._pool_key != key:
                self._pool = tuple(_certain.default_pool(instance, self.query))
                self._pool_key = key
            return self._pool

    def _plan_key(self) -> tuple:
        """What a cached plan depends on, as a comparable value.

        The session epoch (``replace``/``extra_facts`` assignments
        re-plan everything) and — only when the verdict is positive
        *over cores*, so routing hinges on a whole-instance property —
        the global mutation counter.  Nothing else in a plan reads the
        instance.
        """
        db = self._db
        return (db._epoch, db._generation if self.verdict.over_cores_only else -1)

    def _cached_plan(self, mode: str) -> Plan | None:
        """The plan for ``mode`` cached under the current key, else ``None``.

        Never plans or analyzes: a cached plan implies that the verdict
        and schema its key reads are cached too.  Caller holds the
        session lock.
        """
        cached = self._plans.get(mode)
        if cached is None or self._plans_key != self._plan_key():
            return None
        return cached

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
                    current=lambda: self._db.instance,
                )
                self._plans[mode] = cached
            return cached

    explain = plan

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------

    def evaluate(self, mode: str = "auto") -> EvalResult:
        """Evaluate against the session's current instance via the cached plan.

        A batch of one through :meth:`Database.evaluate_many`, the
        session's single evaluation path.
        """
        return self._db.evaluate_many([self], mode=mode)[0]

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
        # generation-keyed LRU result cache (see _result_key); an entry
        # is an AnswerSet, rendered to wire text at most once
        self._results: dict[tuple, AnswerSet] = {}
        self._results_max = max(0, result_cache_size)
        # per plan (a result key minus its generations) the newest key
        # recorded: older keys of the plan can never be requested again
        self._newest: dict[tuple, tuple] = {}
        self._result_stats = {
            "hits": 0,
            "misses": 0,
            "uncacheable": 0,
            "evictions": 0,
            "maintained": 0,
        }
        # the effective deltas of the last writes, oldest first, each as
        # (the written relations' new generations, Instance.with_delta's
        # changes): cached answers are maintained from them
        self._deltas: deque[tuple[dict, dict]] = deque(maxlen=DELTA_LOG_SIZE)
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
        enumeration pool) still do.
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
                self._clear_results()
                self._notify({"type": "reset", "generation": self._generation})
                self._gen_cond.notify_all()

    def instance_is_core(self) -> bool:
        """Is the current instance a core?  Cached until the next mutation."""
        if self._core_flag is None:
            self._core_flag = _homs_core.is_core(self._instance)
        return self._core_flag

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------

    def apply_delta(
        self,
        adds: Mapping[str, Iterable[Sequence[Hashable]]] | None = None,
        removes: Mapping[str, Iterable[Sequence[Hashable]]] | None = None,
    ) -> Written:
        """Apply a batch of insertions/deletions atomically.

        Returns the number of facts that actually changed, as a
        :class:`Written` that also names the generation this write
        published.  The whole delta lands as **one** state transition:
        concurrent readers see either the old or the new instance, never
        a half-applied mix.
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
                return Written(0, self._generation)
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
            self._deltas.append((new_rel_gens, changes))
            self._core_flag = None
            written = Written(
                sum(len(added) + len(removed) for added, removed in changes.values()),
                self._generation,
            )
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
        return written

    def insert(self, relation: str, *rows: Sequence[Hashable]) -> Written:
        """Insert facts into ``relation``; returns how many were new."""
        return self.apply_delta(adds={relation: rows})

    def delete(self, relation: str, *rows: Sequence[Hashable]) -> Written:
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
            self._clear_results()
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
                if self._caught_up(generation, floors):
                    return True
                if deadline is None:
                    self._gen_cond.wait()
                else:
                    remaining = deadline - monotonic()
                    if remaining <= 0:
                        return False
                    self._gen_cond.wait(remaining)

    def _caught_up(self, generation: int | None, floors: Mapping[str, int] | None) -> bool:
        """Have the counters reached the floor(s)?  Caller holds the lock."""
        return (generation is None or self._generation >= generation) and all(
            self._rel_gens.get(n, 0) >= g for n, g in (floors or {}).items()
        )

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
            self._clear_results()
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
        backend = _backends.get_backend(plan.backend)
        cq = _columnar.compiled_query(prepared.query)
        reads = backend.cache_relations(prepared.semantics, plan.exact, cq)
        if reads is None:
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

    def _result_put(self, key: tuple, answers: AnswerSet, *, maintained: bool = False) -> None:
        """Record ``answers`` under ``key``, dropping the entry it supersedes.

        Within an epoch generations only grow, so an entry whose key
        differs from a newer one of the same plan only by older
        generations can never be requested again.  A late put of such
        a key is dropped instead of stored.
        """
        plan_id, gens = key[:-1], key[-1]
        with self._lock:
            if maintained:
                self._result_stats["maintained"] += 1
            newest = self._newest.get(plan_id)
            if newest is not None and newest != key:
                if all(g <= n for (_, g), (_, n) in zip(gens, newest[-1])):
                    return  # older than what is cached: dead on arrival
                self._results.pop(newest, None)
            self._newest[plan_id] = key
            self._results.pop(key, None)
            self._results[key] = answers
            while len(self._results) > self._results_max:
                evicted = next(iter(self._results))
                del self._results[evicted]
                if self._newest.get(evicted[:-1]) == evicted:
                    del self._newest[evicted[:-1]]
                self._result_stats["evictions"] += 1

    def _clear_results(self) -> None:
        """Forget every cached result and the delta log (caller holds the lock)."""
        self._results.clear()
        self._newest.clear()
        self._deltas.clear()

    def _maintenance_basis(
        self, plan: Plan, key: tuple | None, cached: AnswerSet | None
    ) -> tuple[AnswerSet, str, set, set] | None:
        """What a miss can maintain its answers from, or ``None``.

        ``(answers, relation, added, removed)``: the newest cached
        answers of the same plan, the one read relation written since,
        and the net rows it gained and lost, composed from the delta
        log.  The answers are a ``columnar`` run's counted set or a CWA
        oracle run's set carrying its bracket's counted bounds.  ``None``
        when there is no such entry, when writes touched another read
        relation too, or when the log no longer reaches back to the
        entry.  Caller holds the lock.
        """
        if cached is not None or key is None:
            return None
        newest = self._newest.get(key[:-1])
        prior = self._results.get(newest) if newest is not None else None
        if prior is None or (prior.plan is None and prior.bracket is None):
            return None
        before = dict(newest[-1])
        moved = [(name, gen) for name, gen in key[-1] if before[name] != gen]
        if len(moved) != 1:
            return None
        ((name, gen),) = moved
        since = before[name]
        # every write to a relation logs one delta and bumps its
        # generation by one, so the writes since the entry are its
        # newest gen - since deltas: walk back from the newest only
        steps = []
        for gens, changes in reversed(self._deltas):
            if name in gens:
                steps.append(changes[name])
                if len(steps) == gen - since:
                    break
        if len(steps) != gen - since:
            return None
        steps.reverse()
        added: set = set()
        removed: set = set()
        for step_added, step_removed in steps:
            # an effective delta removes present rows, then adds absent ones
            for row in step_removed:
                if row in added:
                    added.discard(row)
                else:
                    removed.add(row)
            for row in step_added:
                if row in removed:
                    removed.discard(row)
                else:
                    added.add(row)
        return prior, name, added, removed

    @staticmethod
    def _cache_stats_fields(key: tuple | None, cached: AnswerSet | None) -> dict:
        """The per-result stats entries describing the cache outcome."""
        fields: dict[str, object] = {
            "result_cache": (
                "hit" if cached is not None
                else "miss" if key is not None
                else "uncacheable"
            ),
            "maintained": False,
            "delta_rows": 0,
        }
        if key is not None:
            fields["generations"] = dict(key[-1])
        return fields

    @staticmethod
    def _served_result(
        plan: Plan, answers: AnswerSet, stats: dict, execution_s: float = 0.0
    ) -> EvalResult:
        """An :class:`EvalResult` for answers the backend did not compute."""
        stats.update(backend=plan.backend, mode=plan.mode, execution_s=execution_s)
        return EvalResult(
            answers, plan.backend, plan.exact, plan.direction, plan.verdict, stats
        )

    def _miss_result(
        self,
        plan: Plan,
        prepared: PreparedQuery,
        instance: Instance,
        key: tuple | None,
        basis: tuple | None,
        stats: dict,
        **execute_kwargs,
    ) -> EvalResult:
        """Evaluate a cache miss and record it: maintained from ``basis``
        (see :meth:`_maintenance_basis`) when it allows, else executed.

        An oracle miss with a basis runs :func:`~repro.core.certain.certain_answers`
        with it, which patches the bracket's bounds or else runs in full.
        """
        if basis is not None:
            start = perf_counter()
            prior, relation, added, removed = basis
            if prior.bracket is not None:
                oracle: dict[str, object] = {}
                rows = _certain.certain_answers(
                    prepared.query,
                    instance,
                    prepared.semantics,
                    pool=execute_kwargs["pool"],
                    limit=execute_kwargs["limit"],
                    stats_out=oracle,
                    prior=basis,
                )
                answers, maintained = rows.encoded, rows.maintained
                stats["oracle"] = oracle
            else:
                answers = _columnar.maintained_answers(prior, instance, relation, added, removed)
                maintained = answers is not None
            if answers is not None:
                if maintained:
                    stats.update(maintained=True, delta_rows=len(added) + len(removed))
                result = self._served_result(plan, answers, stats, perf_counter() - start)
                self._result_put(key, answers, maintained=maintained)
                return result
        result = _engine.execute_plan(
            plan, prepared.query, instance, prepared.semantics, stats=stats, **execute_kwargs
        )
        if key is not None:
            self._result_put(key, result.answer_set)
        return result

    @contextmanager
    def bounded(
        self,
        source: str | None,
        vars: Sequence | None = None,
        *,
        semantics: Semantics | str | None = None,
        mode: str = "auto",
        generation: int | None = None,
        rel_generations: Mapping[str, int] | None = None,
        maintained: bool = True,
    ) -> Iterator[bool]:
        """Is the session work of one request bounded by what it changes?

        ``source`` is query text, or ``None`` for a write
        (:meth:`insert`, :meth:`delete` or :meth:`apply_delta`).  Yields
        ``True`` when the work can neither wait nor enumerate:

        * a write to a session with no storage: Python work on the
          delta plus one C-level row-set copy of the written relation,
          and never an fsync;
        * a read that would hit a result-cache entry whose wire text
          (:meth:`AnswerSet.to_json`) is already rendered;
        * with ``maintained``, a read that a miss would maintain
          (:meth:`_maintenance_basis`) from a counted set that patches
          its rendered text, where
          :func:`~repro.logic.columnar.maintenance_is_bounded` holds:
          the written rows drive the plan's left spine and probe only
          indexes built already.  The read is then Python work on the
          written rows and the rows they join, plus C-level copies of
          the answer's counts and text; no other relation is walked.

        A read also needs its ``generation``/``rel_generations`` floors
        met already.  While it yields ``True`` the session lock is held
        for the whole ``with`` body, so the verdict cannot go stale
        before the caller acts on it.  The probe never blocks or
        computes: it declines (yields ``False``) when the lock is busy,
        when the source was never prepared with these ``vars`` and
        ``semantics``, when no plan is cached under the current key, or
        when the request is in none of the classes.  It counts nothing
        in :attr:`cache_stats`.
        """
        if not self._lock.acquire(blocking=False):
            yield False
            return
        try:
            if source is None:
                yield self._storage is None
            else:
                yield self._is_bounded_read(
                    source, vars, semantics, mode, generation, rel_generations, maintained
                )
        finally:
            self._lock.release()

    def _is_bounded_read(
        self, source, vars, semantics, mode, generation, floors, maintained
    ) -> bool:
        """The read check of :meth:`bounded` (caller holds the lock)."""
        if not self._caught_up(generation, floors):
            return False
        sem = self._resolve_semantics(semantics)
        prepared = self._prepared.get(self._intern_key(source, vars, None, sem))
        plan = prepared._cached_plan(mode) if prepared is not None else None
        key = self._result_key(prepared, plan) if plan is not None else None
        if key is None:
            return False
        answers = self._results.get(key)
        if answers is not None:
            return answers.is_rendered
        if not maintained:
            return False
        # the basis and the maintenance checks are the miss path's own
        basis = self._maintenance_basis(plan, key, None)
        if basis is None:
            return False
        prior, relation, added, removed = basis
        cctx = self._instance._cols
        return (
            prior.patches_text
            and cctx is not None
            and _columnar.maintenance_is_bounded(prior, cctx, relation, added, removed)
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
                wanted = self._resolve_semantics(semantics)
                # identity, not key: two Semantics objects may share a key
                # yet expand differently
                if wanted is not source.semantics:
                    raise ValueError(
                        f"prepared query is bound to semantics "
                        f"{source.semantics.key!r}; re-prepare it for {wanted.key!r}"
                    )
            return source
        sem = self._resolve_semantics(semantics)
        # vars/name overrides on a Query source are rejected by as_query
        # below, before anything is inserted into the cache.
        key = self._intern_key(source, vars, name, sem)
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

    def _resolve_semantics(self, semantics: Semantics | str | None) -> Semantics:
        """The semantics object a query names (``None``: the session default)."""
        if semantics is None:
            return self._semantics
        return get_semantics(semantics) if isinstance(semantics, str) else semantics

    @staticmethod
    def _intern_key(source, vars: Sequence | None, name: str | None, sem: Semantics) -> tuple:
        """The key :meth:`query` interns a source under.

        The semantics *object* (identity-hashed) keys the table: a
        custom Semantics sharing a registry key must not collide.
        """
        return (source, tuple(vars) if vars is not None else None, name, sem)

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
        """Evaluate queries against one snapshot: the single evaluation path.

        Every query is planned, looked up in the result cache and, on a
        miss that routes to a pool-reading backend, given *its own*
        enumeration pool (:attr:`PreparedQuery.pool`: the query's
        constants plus the instance's, built once per generation) — all
        under one lock acquisition, so the whole batch sees one
        generation.  A first-time plan may pay the core check (computed
        at most once per generation for the session) or a pool build
        there; both count in ``planning_s``.  The backends then run
        outside the lock against the immutable snapshot, so concurrent
        readers execute in parallel, and a cache hit skips execution
        entirely (``stats["result_cache"] == "hit"``).  A batch answers
        and fails exactly as its queries do alone: each result is the
        query's solo result, and the first query that fails alone
        raises its own error.
        """
        with self._lock:
            prepared = [self.query(s) for s in sources]
            instance = self._instance
            generation = self._generation
            extra_facts = self._extra_facts
            limit = self.limit
            entries: list[tuple] = []
            for p in prepared:
                t0 = perf_counter()
                plan = p.plan(mode)  # cached per relevant state and mode
                key = None
                if self._results_max:
                    key = self._result_key(p, plan)
                    if key is None:
                        self._result_stats["uncacheable"] += 1
                cached = self._result_get(key)
                basis = self._maintenance_basis(plan, key, cached)
                # a cache hit never enumerates, so the pool is not even built
                uses_pool = _backends.get_backend(plan.backend).uses_pool
                pool = p.pool if uses_pool and cached is None else None
                entries.append((p, plan, perf_counter() - t0, key, cached, basis, pool))
        results: list[EvalResult] = []
        for p, plan, planning, key, cached, basis, pool in entries:
            stats: dict[str, object] = {
                "planning_s": planning,
                # the pool actually materialised for this run (0 = none:
                # the backend does not enumerate)
                "pool_size": len(pool) if pool is not None else 0,
                "generation": generation,
                **self._cache_stats_fields(key, cached),
            }
            if cached is not None:
                results.append(self._served_result(plan, cached, stats))
                continue
            result = self._miss_result(
                plan,
                p,
                instance,
                key,
                basis,
                stats,
                pool=pool,
                extra_facts=extra_facts,
                limit=limit,
            )
            results.append(result)
        return results

    def __repr__(self) -> str:
        return (
            f"Database({self._instance!r}, semantics={self._semantics.key!r}, "
            f"generation={self._generation})"
        )
