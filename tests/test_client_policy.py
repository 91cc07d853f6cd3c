"""The client policy core, driven directly: no sockets, no sleeps.

Both :class:`~repro.client.Client` and :class:`~repro.client.AsyncClient`
run every request through one sans-IO generator
(``_ClientCore._policy``).  These tests play the transport themselves:
each exchange the core asks for is answered from a script — a response
frame, or a :class:`~repro.client.ClientError` thrown in — and each
sleep only advances a fake clock.  So the whole retry/failover/
read-your-writes policy is pinned deterministically, once for both
clients.

The seeded property sweep at the bottom feeds the core random scripts;
``REPRO_FUZZ`` multiplies its trial budget and ``REPRO_FUZZ_SEED``
re-seeds it (see ``.github/workflows/nightly.yml``).
"""

from dataclasses import dataclass, field

import pytest
from diffutil import fuzz_rng, fuzz_trials

from repro.client import (
    Client,
    ClientError,
    DeadlineExceeded,
    DegradedServerError,
    FrameTooLargeError,
    IndeterminateWriteError,
    OverloadedServerError,
    ReadOnlyServerError,
    ServerError,
    StaleReadError,
    TransportError,
)

A, B, C = ("10.0.0.1", 7000), ("10.0.0.2", 7000), ("10.0.0.3", 7000)
ADDR = {A: "10.0.0.1:7000", B: "10.0.0.2:7000", C: "10.0.0.3:7000"}
ENDPOINT = {text: endpoint for endpoint, text in ADDR.items()}

OK = {"ok": True}
OVERLOADED = {"ok": False, "error": "overloaded", "error_type": "overloaded"}
DEADLINE = {"ok": False, "error": "deadline", "error_type": "deadline"}
STALE = {"ok": False, "error": "stale", "error_type": "stale", "applied_generation": 0}
DEGRADED = {"ok": False, "error": "degraded", "error_type": "degraded"}
UNTYPED = {"ok": False, "error": "parse error"}
TOO_LARGE = {"ok": False, "error": "too large", "error_type": "frame_too_large"}


def read_only(primary=None) -> dict:
    frame = {"ok": False, "error": "read-only replica", "error_type": "read_only"}
    if primary is not None:
        frame["primary"] = primary
    return frame


def connect_refused() -> TransportError:
    return TransportError("cannot connect: connection refused")


def lost() -> IndeterminateWriteError:
    return IndeterminateWriteError("closed the connection mid-request")


class FakeClock:
    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now


@dataclass
class Run:
    """What one request did: every exchange asked for, every sleep, the end."""

    sent: list = field(default_factory=list)  # (endpoint, payload, deadline)
    sleeps: list = field(default_factory=list)
    woke: list = field(default_factory=list)  # the clock after each sleep
    result: dict | None = None
    error: ClientError | None = None
    started: float = 0.0
    ended: float = 0.0

    @property
    def endpoints(self) -> list:
        return [endpoint for endpoint, _payload, _deadline in self.sent]


def drive(client, payload, script, *, endpoint=None, stamp_deadline=False, exchange_s=0.0):
    """Run the core for one request, answering its exchanges from ``script``.

    A dict is sent back as the response, an exception is thrown in; an
    exhausted script fails the test.  ``exchange_s`` is the fake time each
    exchange takes.
    """
    clock = FakeClock()
    run = Run(started=clock.now)
    policy = client._policy(payload, endpoint, stamp_deadline=stamp_deadline, clock=clock)
    outcomes = iter(script)
    try:
        step = next(policy)
        while True:
            if isinstance(step, tuple):
                run.sent.append(step)
                clock.now += exchange_s
                outcome = next(outcomes)
                if isinstance(outcome, Exception):
                    step = policy.throw(outcome)
                else:
                    step = policy.send(dict(outcome))
            else:
                run.sleeps.append(step)
                clock.now += step
                run.woke.append(clock.now)
                step = policy.send(None)
    except StopIteration as done:
        run.result = done.value
    except ClientError as err:
        run.error = err
    run.ended = clock.now
    return run


def make_client(*replicas, **options) -> Client:
    options = {"retries": 5, "backoff_base": 0.1, "jitter": lambda: 1.0, **options}
    return Client(ADDR[A], [ADDR[r] for r in replicas], **options)


QUERY = {"op": "query", "query": "R(x, y)", "mode": "auto"}
INSERT = {"op": "insert", "relation": "R", "rows": [[1, 2]]}


class TestFailover:
    def test_reads_rotate_on_transport_errors(self):
        client = make_client(B, C)
        run = drive(client, QUERY, [connect_refused(), lost(), OK])
        assert run.result["ok"]
        assert run.endpoints == [A, B, C]
        assert len(run.sleeps) == 2

    def test_reads_rotate_on_stale(self):
        client = make_client(B)
        run = drive(client, QUERY, [STALE, OK])
        assert run.result["ok"] and run.endpoints == [A, B]

    def test_stale_with_nowhere_to_rotate_surfaces(self):
        run = drive(make_client(), QUERY, [STALE])
        assert isinstance(run.error, StaleReadError) and run.endpoints == [A]

    def test_reads_stay_on_the_endpoint_that_last_answered(self):
        client = make_client(B)
        drive(client, QUERY, [connect_refused(), OK])
        assert drive(client, QUERY, [OK]).endpoints == [B]

    def test_a_pinned_endpoint_never_rotates(self):
        client = make_client(B, C)
        run = drive(client, QUERY, [connect_refused(), lost(), OVERLOADED, OK], endpoint=ADDR[B])
        assert run.result["ok"] and run.endpoints == [B, B, B, B]
        run = drive(client, QUERY, [STALE], endpoint=ADDR[C])
        assert isinstance(run.error, StaleReadError) and run.endpoints == [C]

    def test_admin_ops_stay_on_the_primary(self):
        client = make_client(B, C)
        run = drive(client, {"op": "stats"}, [connect_refused(), lost(), OK])
        assert run.result["ok"] and run.endpoints == [A, A, A]

    def test_mutations_go_to_the_primary_and_retry_a_failed_connect(self):
        client = make_client(B)
        run = drive(client, INSERT, [connect_refused(), connect_refused(), OK])
        assert run.result["ok"] and run.endpoints == [A, A, A]


class TestTypedFrames:
    @pytest.mark.parametrize(
        "payload, endpoint",
        [
            ({"op": "ping"}, None),
            (QUERY, None),
            ({"op": "batch", "queries": []}, None),
            ({"op": "stats"}, ADDR[B]),
            ({"op": "checkpoint"}, None),
            ({"op": "promote"}, ADDR[B]),
            (INSERT, None),
            ({"op": "delete", "relation": "R", "rows": [[1, 2]]}, None),
            ({"op": "delta", "adds": {"R": [[1, 2]]}}, None),
        ],
        ids=lambda value: value["op"] if isinstance(value, dict) else None,
    )
    def test_overloaded_is_retried_for_every_op(self, payload, endpoint):
        client = make_client(B)
        run = drive(client, payload, [OVERLOADED, OVERLOADED, OK], endpoint=endpoint)
        assert run.result["ok"] and len(run.sent) == 3 and len(run.sleeps) == 2

    def test_overloaded_surfaces_typed_when_retries_run_out(self):
        run = drive(make_client(retries=1), INSERT, [OVERLOADED, OVERLOADED])
        assert isinstance(run.error, OverloadedServerError) and len(run.sent) == 2

    def test_a_deadline_frame_on_a_mutation_is_indeterminate(self):
        run = drive(make_client(), INSERT, [DEADLINE])
        assert isinstance(run.error, IndeterminateWriteError)
        assert isinstance(run.error.__cause__, ServerError)
        assert len(run.sent) == 1 and run.sleeps == []

    def test_a_deadline_frame_on_a_read_is_retried(self):
        run = drive(make_client(B), QUERY, [DEADLINE, OK])
        assert run.result["ok"] and run.endpoints == [A, B]

    @pytest.mark.parametrize(
        "frame, error",
        [
            (DEGRADED, DegradedServerError),
            (UNTYPED, ServerError),
            (TOO_LARGE, FrameTooLargeError),
            (read_only(), ReadOnlyServerError),
        ],
    )
    @pytest.mark.parametrize("payload", [QUERY, INSERT], ids=["read", "write"])
    def test_other_frames_surface_at_once(self, frame, error, payload):
        run = drive(make_client(B), payload, [frame])
        assert type(run.error) is error and run.error.fields["error"] == frame["error"]
        assert len(run.sent) == 1


class TestRedirect:
    def test_read_only_redirects_once_to_the_announced_primary(self):
        client = make_client(B)
        run = drive(client, INSERT, [read_only(ADDR[C]), read_only(ADDR[A])])
        assert isinstance(run.error, ReadOnlyServerError)
        assert run.endpoints == [A, C]
        assert run.sleeps == []  # a refusal is followed at once
        assert client.primary_address == ADDR[C]
        assert client.endpoints == [ADDR[C], ADDR[A], ADDR[B]]

    def test_redirect_then_success(self):
        client = make_client()
        run = drive(client, INSERT, [read_only(ADDR[B]), {"ok": True, "generation": 3}])
        assert run.result["ok"] and run.endpoints == [A, B]
        assert client.primary_address == ADDR[B] and client.last_write_generation == 3

    def test_a_pinned_request_is_never_redirected(self):
        client = make_client()
        run = drive(client, INSERT, [read_only(ADDR[C])], endpoint=ADDR[B])
        assert isinstance(run.error, ReadOnlyServerError) and run.endpoints == [B]
        assert client.primary_address == ADDR[A]

    def test_reads_are_never_redirected(self):
        run = drive(make_client(), {"op": "checkpoint"}, [read_only(ADDR[C])])
        assert isinstance(run.error, ReadOnlyServerError) and run.endpoints == [A]

    def test_promote_adopts_the_promoted_node(self):
        client = make_client(B)
        run = drive(client, {"op": "promote"}, [{"ok": True, "role": "primary"}], endpoint=ADDR[B])
        assert run.endpoints == [B]
        assert client.primary_address == ADDR[B]
        assert client.endpoints == [ADDR[A], ADDR[B]]
        assert drive(client, INSERT, [OK]).endpoints == [B]

    def test_a_failed_promote_adopts_nothing(self):
        client = make_client(B)
        drive(client, {"op": "promote"}, [UNTYPED], endpoint=ADDR[B])
        assert client.primary_address == ADDR[A]


class TestHonestWrites:
    @pytest.mark.parametrize("op", ["insert", "delete", "delta"])
    def test_a_mutation_is_never_resent_once_indeterminate(self, op):
        run = drive(make_client(B), {"op": op}, [lost(), OK])
        assert isinstance(run.error, IndeterminateWriteError)
        assert len(run.sent) == 1 and run.sleeps == []

    def test_an_indeterminate_after_a_safe_retry_still_stops(self):
        run = drive(make_client(), INSERT, [connect_refused(), OVERLOADED, lost(), OK])
        assert isinstance(run.error, IndeterminateWriteError) and len(run.sent) == 3


class TestReadFloor:
    def test_floor_is_stamped_after_an_acknowledged_write(self):
        client = make_client(wait_timeout_s=0.7)
        before = drive(client, QUERY, [OK])
        assert "min_generation" not in before.sent[0][1]
        drive(client, INSERT, [{"ok": True, "generation": 7, "changed": 1}])
        assert client.last_write_generation == 7
        after = drive(client, QUERY, [OK])
        assert after.sent[0][1]["min_generation"] == 7
        assert after.sent[0][1]["wait_timeout_s"] == 0.7
        batch = drive(client, {"op": "batch", "queries": []}, [OK])
        assert batch.sent[0][1]["min_generation"] == 7

    def test_floor_never_moves_back_and_ignores_reads(self):
        client = make_client()
        drive(client, INSERT, [{"ok": True, "generation": 9}])
        drive(client, INSERT, [{"ok": True, "generation": 4}])
        drive(client, QUERY, [{"ok": True, "generation": 50}])
        assert client.last_write_generation == 9

    def test_caller_floor_wins_and_the_switch_turns_it_off(self):
        client = make_client()
        drive(client, INSERT, [{"ok": True, "generation": 7}])
        own = drive(client, {**QUERY, "min_generation": 2}, [OK])
        assert own.sent[0][1]["min_generation"] == 2
        assert "min_generation" not in drive(client, {"op": "ping"}, [OK]).sent[0][1]
        client.read_your_writes = False
        assert "min_generation" not in drive(client, QUERY, [OK]).sent[0][1]


class TestBackoff:
    @pytest.mark.parametrize(
        "jitter, expected",
        [(1.0, [0.1, 0.2, 0.4, 0.8, 1.0]), (0.0, [0.05, 0.1, 0.2, 0.4, 0.5])],
    )
    def test_capped_exponential_schedule_under_injected_jitter(self, jitter, expected):
        client = make_client(backoff_cap=1.0, timeout=60.0, jitter=lambda: jitter)
        run = drive(client, {"op": "ping"}, [connect_refused()] * 6)
        assert run.sleeps == pytest.approx(expected)
        assert isinstance(run.error, TransportError)  # the last failure, typed

    def test_jitter_is_clamped_to_the_unit_interval(self):
        client = make_client(retries=1, timeout=60.0, jitter=lambda: 7.0)
        assert drive(client, {"op": "ping"}, [lost()] * 2).sleeps == [pytest.approx(0.1)]

    def test_the_last_sleep_is_clipped_so_the_deadline_fires_on_schedule(self):
        client = make_client(retries=10, backoff_base=0.4, backoff_cap=60.0, timeout=1.0)
        run = drive(client, {"op": "ping"}, [connect_refused()] * 11)
        # 0.4 fits; 0.8 would overshoot the 0.6 left, so only 0.6 is slept
        assert run.sleeps == pytest.approx([0.4, 0.6])
        assert isinstance(run.error, DeadlineExceeded)
        assert run.ended == pytest.approx(run.started + client.timeout)

    def test_no_sleep_once_the_budget_is_gone(self):
        client = make_client(timeout=1.0)
        run = drive(client, INSERT, [connect_refused()] * 6, exchange_s=1.5)
        assert isinstance(run.error, DeadlineExceeded) and run.sleeps == []

    def test_every_exchange_carries_the_request_deadline(self):
        client = make_client(B, timeout=3.0)
        run = drive(client, QUERY, [lost(), lost(), OK])
        assert {deadline for _endpoint, _payload, deadline in run.sent} == {run.started + 3.0}


class TestWireFields:
    def test_ids_are_the_clients_own_sequence(self):
        client = make_client()
        first = drive(client, {"op": "ping"}, [OK])
        retried = drive(client, {"op": "ping"}, [lost(), OK])
        assert [p["id"] for _e, p, _d in first.sent + retried.sent] == [1, 2, 2]

    @pytest.mark.parametrize("caller_id", [7, "req-a", [1], {"k": 1}, None])
    def test_a_caller_id_is_handed_back_never_sent(self, caller_id):
        client = make_client()
        run = drive(client, {"op": "ping", "id": caller_id}, [{"ok": True, "id": 1}])
        assert run.sent[0][1]["id"] == 1
        assert run.result["id"] == caller_id
        failed = drive(client, {"id": caller_id, **INSERT}, [{**UNTYPED, "id": 2}])
        assert failed.sent[0][1]["id"] == 2
        assert failed.error.fields["id"] == caller_id

    def test_deadline_ms_is_stamped_on_idempotent_ops_only(self):
        client = make_client(B, timeout=2.0)
        read = drive(client, QUERY, [lost(), OK], stamp_deadline=True, exchange_s=0.5)
        assert [p["deadline_ms"] for _e, p, _d in read.sent] == [2000, 1400]
        write = drive(client, INSERT, [OK], stamp_deadline=True)
        assert "deadline_ms" not in write.sent[0][1]
        own = drive(client, {"op": "ping", "deadline_ms": 50}, [OK], stamp_deadline=True)
        assert own.sent[0][1]["deadline_ms"] == 50
        assert "deadline_ms" not in drive(client, QUERY, [OK]).sent[0][1]


# ----------------------------------------------------------------------
# the seeded property sweep
# ----------------------------------------------------------------------

OPS = [
    ({"op": "ping"}, True),
    (QUERY, True),
    ({"op": "stats"}, True),
    ({"op": "checkpoint"}, True),
    (INSERT, False),
    ({"op": "delta", "adds": {"R": [[1]]}}, False),
]
#: the typed frames the sweep draws from, besides a redirect to a random node
FRAMES = [OVERLOADED, OVERLOADED, DEADLINE, STALE, DEGRADED, UNTYPED, TOO_LARGE, read_only()]
#: outcomes after which re-sending a mutation is safe: it provably never ran
NEVER_RAN = ("connect", "overloaded", "read_only")


def random_outcome(rng):
    """One scripted exchange outcome, with a label for the invariants."""
    roll = rng.random()
    if roll < 0.2:
        return "ok", {"ok": True, "generation": rng.randint(1, 50)}
    if roll < 0.35:
        return "connect", connect_refused()
    if roll < 0.5:
        return "lost", lost()
    if roll < 0.55:
        return "expired", DeadlineExceeded("deadline expired before sending")
    frame = rng.choice(FRAMES + [read_only(rng.choice(list(ADDR.values())))])
    return frame.get("error_type", "untyped"), frame


@pytest.mark.parametrize("block", range(4))
def test_random_scripts_keep_the_policy_invariants(block):
    rng = fuzz_rng(f"client-policy-{block}")
    for _trial in range(fuzz_trials(60)):
        replicas = rng.sample([B, C], rng.randint(0, 2))
        client = make_client(
            *replicas,
            retries=rng.randint(0, 6),
            timeout=rng.choice([0.3, 1.0, 5.0]),
            backoff_base=rng.choice([0.01, 0.1, 0.5]),
            backoff_cap=rng.choice([0.2, 1.0]),
            jitter=rng.random,
        )
        payload, idempotent = rng.choice(OPS)
        pinned = ADDR[rng.choice([A, B, C])] if rng.random() < 0.25 else None
        script = [random_outcome(rng) for _ in range(client.retries + 2)]
        labels = [label for label, _outcome in script]
        run = drive(
            client,
            payload,
            [outcome for _label, outcome in script],
            endpoint=pinned,
            stamp_deadline=rng.random() < 0.5,
            exchange_s=rng.choice([0.0, 0.01, 0.2]),
        )
        context = (payload["op"], pinned, labels, run.endpoints, run.sleeps)
        # every request ends in an ok response or a typed client error
        assert (run.result is None) != (run.error is None), context
        if run.result is not None:
            assert run.result["ok"] and labels[len(run.sent) - 1] == "ok", context
        # total sleep stays inside the deadline, and no sleep ends past it
        deadline = run.started + client.timeout
        assert sum(run.sleeps) <= client.timeout + 1e-9, context
        assert all(woke <= deadline + 1e-9 for woke in run.woke), context
        assert len(run.sent) <= client.retries + 2, context
        if not idempotent:
            # a mutation goes out again only after an outcome proving it
            # never ran; after anything else it is sent at most once
            for previous in labels[: len(run.sent) - 1]:
                assert previous in NEVER_RAN, context
            if labels[len(run.sent) - 1] in ("lost", "deadline"):
                assert isinstance(run.error, IndeterminateWriteError), context
        if pinned is not None:
            assert set(run.endpoints) == {ENDPOINT[pinned]}, context
