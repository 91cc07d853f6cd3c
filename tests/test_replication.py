"""Log-shipping replication: the feed ring, the frame protocol, the
tailer, staleness-bounded reads, promotion, and end-to-end convergence
over real TCP sockets."""

import json
import socket
import threading
import time

import pytest

from repro.data.values import Null
from repro.replication import ReplicaTailer, ReplicationFeed, apply_frame
from repro.replication.replica import ReplicationError, parse_address
from repro.server import QueryService, serve
from repro.session import Database

X = Null("x")


def rpc(address, **request) -> dict:
    """One-shot JSON request/response against a served address."""
    with socket.create_connection(address, timeout=30) as sock:
        sock.sendall((json.dumps(request) + "\n").encode("utf-8"))
        return json.loads(sock.makefile("r", encoding="utf-8").readline())


def wait_until(predicate, timeout=30.0, interval=0.01):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


class TestParseAddress:
    def test_host_port_string(self):
        assert parse_address("10.0.0.7:8123") == ("10.0.0.7", 8123)

    def test_tuple_passthrough(self):
        assert parse_address(("localhost", "99")) == ("localhost", 99)

    @pytest.mark.parametrize("bad", ["nocolon", ":8000", "host:", "host:http"])
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_address(bad)


class TestApplyFrame:
    """The transport-free frame protocol on a bare session."""

    def test_hello_and_heartbeat_pass_through(self):
        db = Database()
        assert apply_frame(db, {"frame": "hello", "role": "primary"}) == "hello"
        assert apply_frame(db, {"frame": "heartbeat", "generation": 3}) == "heartbeat"
        assert db.generation == 0

    def test_snapshot_installs_state_and_counters_verbatim(self):
        db = Database()
        frame = {
            "frame": "snapshot",
            "generation": 7,
            "rel_generations": {"R": 5, "S": 2},
            "instance": {"R": [[1, "?x"]], "S": [[4]]},
        }
        assert apply_frame(db, frame) == "snapshot"
        assert db.instance.tuples("R") == {(1, X)}
        assert db.instance.tuples("S") == {(4,)}
        assert db.generation == 7
        assert db.rel_generation("R") == 5 and db.rel_generation("S") == 2

    def test_delta_applied_and_counters_verified(self):
        db = Database({"R": [(1, 2)]})
        frame = {
            "frame": "delta",
            "generation": 1,
            "rel_generations": {"R": 1},
            "adds": {"R": [[3, 4]]},
        }
        assert apply_frame(db, frame) == "applied"
        assert db.instance.tuples("R") == {(1, 2), (3, 4)}
        assert db.generation == 1

    def test_old_frame_skipped_not_reapplied(self):
        db = Database()
        apply_frame(db, {"frame": "delta", "generation": 1, "adds": {"R": [[1]]}})
        # the primary resent generation 1 after a reconnect
        assert (
            apply_frame(db, {"frame": "delta", "generation": 1, "removes": {"R": [[1]]}})
            == "skipped"
        )
        assert db.instance.tuples("R") == {(1,)}
        assert db.generation == 1

    def test_future_frame_is_a_gap(self):
        db = Database()
        frame = {"frame": "delta", "generation": 5, "adds": {"R": [[1]]}}
        assert apply_frame(db, frame) == "gap"
        assert db.generation == 0  # nothing was applied

    def test_ineffective_delta_is_divergence(self):
        db = Database({"R": [(1, 2)]})
        # the primary claims this write was effective; here it is a no-op,
        # so the generations drift — the replica must resync, not limp on
        frame = {"frame": "delta", "generation": 1, "adds": {"R": [[1, 2]]}}
        assert apply_frame(db, frame) == "diverged"

    def test_rel_generation_mismatch_is_divergence(self):
        db = Database()
        frame = {
            "frame": "delta",
            "generation": 1,
            "rel_generations": {"R": 9},
            "adds": {"R": [[1]]},
        }
        assert apply_frame(db, frame) == "diverged"

    def test_unknown_frame_raises(self):
        with pytest.raises(ReplicationError):
            apply_frame(Database(), {"frame": "mystery"})


class TestWaitForGeneration:
    def test_satisfied_immediately(self):
        db = Database()
        db.insert("R", (1,))
        assert db.wait_for_generation(1, timeout=0) is True
        assert db.wait_for_generation(rel_generations={"R": 1}, timeout=0) is True

    def test_timeout_returns_false(self):
        db = Database()
        start = time.monotonic()
        assert db.wait_for_generation(3, timeout=0.05) is False
        assert time.monotonic() - start < 5

    def test_concurrent_write_wakes_the_waiter(self):
        db = Database()
        threading.Timer(0.05, lambda: db.insert("R", (1,))).start()
        assert db.wait_for_generation(1, timeout=30) is True

    def test_rel_generation_floor_not_satisfied_by_other_relations(self):
        db = Database()
        db.insert("S", (1,))
        assert db.wait_for_generation(rel_generations={"R": 1}, timeout=0.05) is False


class TestReplicationFeed:
    def test_position_zero_always_bootstraps_with_a_snapshot(self):
        # generation 0 may be a *seeded* instance: "never synced" must
        # not be conflated with "already has the primary's state"
        db = Database({"R": [(1, 2)]})
        feed = ReplicationFeed(db)
        link = feed.register(None)
        frame = next(feed.stream(0, link))
        assert frame["frame"] == "snapshot" and frame["generation"] == 0
        assert frame["instance"] == {"R": [[1, 2]]}
        feed.close()

    def test_in_ring_position_streams_deltas(self):
        db = Database()
        feed = ReplicationFeed(db)
        db.insert("R", (1, 2))
        db.insert("R", (2, 3))
        link = feed.register(None)
        # generation 1 is still buffered: resume by deltas, no snapshot
        frame = json.loads(next(feed.stream(1, link)))
        assert frame["frame"] == "delta" and frame["generation"] == 2
        assert frame["adds"] == {"R": [[2, 3]]}
        assert frame["rel_generations"] == {"R": 2}
        assert link.sent_generation == 2 and link.snapshots == 0
        feed.close()

    def test_compacted_position_falls_back_to_snapshot(self):
        db = Database()
        feed = ReplicationFeed(db, max_records=4)
        for i in range(10):
            db.insert("R", (i,))
        stats = feed.stats
        assert stats["buffered_records"] == 4
        assert stats["floor_generation"] == 6 and stats["top_generation"] == 10
        link = feed.register(None)
        # generation 2 was evicted from the ring: bootstrap required
        frame = next(feed.stream(2, link))
        assert frame["frame"] == "snapshot" and frame["generation"] == 10
        assert link.snapshots == 1
        feed.close()

    def test_replace_resets_the_ring(self):
        db = Database()
        feed = ReplicationFeed(db)
        db.insert("R", (1,))
        db.replace({"S": [(9,)]})
        stats = feed.stats
        assert stats["buffered_records"] == 0 and stats["resets"] >= 1
        assert stats["floor_generation"] == stats["top_generation"] == db.generation
        # a replica mid-stream at the old position now needs a snapshot
        link = feed.register(None)
        frame = next(feed.stream(1, link))
        assert frame["frame"] == "snapshot"
        assert frame["instance"] == {"S": [[9]]}
        feed.close()

    def test_seeds_from_existing_wal(self, tmp_path):
        db = Database(path=tmp_path / "data")
        db.insert("R", (1,))
        db.insert("R", (2,))
        # a feed attached *after* the writes still serves them as deltas
        feed = ReplicationFeed(db)
        link = feed.register(None)
        frame = json.loads(next(feed.stream(1, link)))
        assert frame["frame"] == "delta" and frame["generation"] == 2
        feed.close()
        db.close()

    def test_caught_up_stream_emits_heartbeats(self):
        db = Database()
        feed = ReplicationFeed(db, heartbeat_s=0.01)
        db.insert("R", (1,))
        link = feed.register(None)
        stream = feed.stream(1, link)
        frame = next(stream)
        assert frame["frame"] == "heartbeat" and frame["generation"] == 1
        feed.close()

    def test_close_ends_streams_and_unhooks(self):
        db = Database()
        feed = ReplicationFeed(db)
        link = feed.register(None)
        stream = feed.stream(1, link)
        feed.close()
        assert list(stream) == []
        db.insert("R", (1,))  # listener removed: no error, nothing buffered
        assert feed.stats["buffered_records"] == 0

    def test_per_replica_lag_in_stats(self):
        db = Database()
        feed = ReplicationFeed(db)
        link = feed.register("10.0.0.9:4000")
        for i in range(3):
            db.insert("R", (i,))
        stream = feed.stream(0, link)
        next(stream)  # snapshot puts the link at the top
        [peer] = feed.stats["replicas"]
        assert peer["address"] == "10.0.0.9:4000"
        assert peer["lag_generations"] == 0 and peer["lag_bytes"] == 0
        db.insert("R", (99,))
        [peer] = feed.stats["replicas"]
        assert peer["lag_generations"] == 1 and peer["lag_bytes"] > 0
        feed.unregister(link)
        assert feed.stats["replicas"] == []
        feed.close()


class TestStalenessBoundedReads:
    def test_satisfied_bound_answers_normally(self):
        db = Database({"R": [(1, 2)]})
        service = QueryService(db)
        response = service.handle(
            {"op": "query", "query": "exists x, y (R(x, y))", "min_generation": 0}
        )
        assert response["ok"] and response["holds"]

    def test_unmet_bound_is_a_typed_stale_error_with_position(self):
        db = Database({"R": [(1, 2)]})
        service = QueryService(db)
        response = service.handle(
            {
                "op": "query",
                "query": "exists x, y (R(x, y))",
                "min_generation": 5,
                "wait_timeout_s": 0.05,
            }
        )
        assert response["ok"] is False
        assert response["error_type"] == "stale" and response["stale"] is True
        assert response["generation"] == 0 and response["min_generation"] == 5
        assert "rel_generations" in response and "stale" in response["error"]

    def test_min_rel_generation_bound(self):
        db = Database()
        db.insert("R", (1,))
        service = QueryService(db)
        ok = service.handle(
            {"op": "query", "query": "exists x (R(x))", "min_rel_generation": {"R": 1}}
        )
        assert ok["ok"] and ok["holds"]
        stale = service.handle(
            {
                "op": "query",
                "query": "exists x (R(x))",
                "min_rel_generation": {"S": 1},
                "wait_timeout_s": 0.05,
            }
        )
        assert stale["ok"] is False and stale["error_type"] == "stale"

    def test_bound_waits_for_a_concurrent_write(self):
        db = Database()
        service = QueryService(db)
        threading.Timer(0.05, lambda: db.insert("R", (1,))).start()
        response = service.handle(
            {
                "op": "query",
                "query": "exists x (R(x))",
                "min_generation": 1,
                "wait_timeout_s": 30,
            }
        )
        assert response["ok"] and response["holds"] and response["generation"] >= 1

    def test_batch_honours_one_bound_for_all_queries(self):
        db = Database({"R": [(1, 2)]})
        service = QueryService(db)
        response = service.handle(
            {
                "op": "batch",
                "queries": [{"query": "exists x, y (R(x, y))"}],
                "min_generation": 3,
                "wait_timeout_s": 0.05,
            }
        )
        assert response["ok"] is False and response["error_type"] == "stale"

    @pytest.mark.parametrize(
        "fields",
        [
            {"min_generation": "soon"},
            {"min_generation": -1},
            {"min_rel_generation": ["R"]},
            {"min_rel_generation": {"R": "x"}},
            {"min_generation": 1, "wait_timeout_s": -2},
        ],
    )
    def test_malformed_bounds_are_plain_errors_not_stale(self, fields):
        service = QueryService(Database())
        response = service.handle({"op": "query", "query": "exists x (R(x))", **fields})
        assert response["ok"] is False and response.get("error_type") != "stale"


class TestReplicaRoleAndPromotion:
    def replica_service(self):
        db = Database()
        tailer = ReplicaTailer(db, "127.0.0.1:9")  # never started: role only
        return QueryService(db, tailer=tailer)

    def test_writes_rejected_with_primary_address(self):
        service = self.replica_service()
        for request in (
            {"op": "insert", "relation": "R", "rows": [[1]]},
            {"op": "delete", "relation": "R", "rows": [[1]]},
            {"op": "delta", "adds": {"R": [[1]]}},
        ):
            response = service.handle(request)
            assert response["ok"] is False
            assert response["error_type"] == "read_only" and response["role"] == "replica"
            assert response["primary"] == "127.0.0.1:9"
        assert service.db.generation == 0

    def test_reads_still_served(self):
        service = self.replica_service()
        assert service.handle({"op": "query", "query": "exists x (R(x))"})["ok"]

    def test_promote_flips_writable_and_stops_the_tailer(self):
        service = self.replica_service()
        response = service.handle({"op": "promote"})
        assert response["ok"] and response["promoted"] and response["role"] == "primary"
        assert service.tailer.stopped
        assert service.handle({"op": "insert", "relation": "R", "rows": [[1]]})["ok"]

    def test_promote_idempotent_on_a_primary(self):
        service = QueryService(Database())
        response = service.handle({"op": "promote"})
        assert response["ok"] and response["promoted"] is False

    def test_stats_reports_role_and_position(self):
        service = self.replica_service()
        stats = service.handle({"op": "stats"})
        assert stats["role"] == "replica"
        replication = stats["replication"]
        assert replication["position"] == {"generation": 0, "rel_generations": {}}
        assert replication["tailer"]["primary"] == "127.0.0.1:9"

    def test_replicate_op_requires_the_streaming_transport(self):
        service = QueryService(Database(), feed=ReplicationFeed(Database()))
        response = service.handle({"op": "replicate", "position": {"generation": 0}})
        assert response["ok"] is False and "streaming" in response["error"]

    @pytest.mark.parametrize(
        "fields, error",
        [
            ({"position": {"generation": True}},
             "'position.generation' must be a non-negative integer"),
            ({"position": {"generation": -1}},
             "'position.generation' must be a non-negative integer"),
            ({"position": [1]}, "'position' must be an object"),
            ({"position": "x"}, "'position' must be an object"),
            ({"replica": "abc"}, "'replica' must be an object"),
        ],
        ids=["true-generation", "negative-generation", "list-position", "text-position",
             "text-replica"],
    )
    def test_bad_replicate_requests_get_field_errors(self, fields, error):
        db = Database()
        feed = ReplicationFeed(db)
        service = QueryService(db, feed=feed)
        try:
            frames = list(service.replicate_stream({"op": "replicate", **fields}))
            assert frames == [{"ok": False, "error": error}]
            assert feed.stats["replicas"] == []  # no replica link was registered
            assert service.handle({"op": "stats"})["requests"]["errors"] == 1
        finally:
            feed.close()


class TestEndToEndOverTCP:
    """Primary and replica as real served nodes (in-process servers,
    real sockets); the tailer is the same code path ``repro serve
    --replica-of`` runs."""

    def converged(self, replica_addr, primary_db):
        def check():
            stats = rpc(replica_addr, op="stats")
            return stats["generation"] == primary_db.generation

        return check

    def test_replica_bootstraps_from_compacted_primary_and_converges(self, tmp_path):
        primary_db = Database(path=tmp_path / "primary")
        for i in range(6):
            primary_db.insert("R", (i, i + 1))
        assert primary_db.checkpoint()  # WAL truncated: history compacted away
        with serve(primary_db) as primary:
            primary_addr = f"{primary.address[0]}:{primary.address[1]}"
            replica_db = Database(path=tmp_path / "replica")
            with serve(replica_db, replicate_from=primary_addr) as replica:
                assert wait_until(self.converged(replica.address, primary_db))
                # identical certain answers from the bootstrapped state
                query = {"op": "query", "query": "exists x (R(x, 3))"}
                assert rpc(replica.address, **query) == rpc(primary.address, **query)
                # a post-bootstrap write arrives as a delta, not a snapshot
                rpc(primary.address, op="insert", relation="S", rows=[[41]])
                read = rpc(
                    replica.address,
                    op="query",
                    query="exists x (S(x))",
                    min_generation=primary_db.generation,
                    wait_timeout_s=30,
                )
                assert read["ok"] and read["holds"]
                assert replica_db.generation == primary_db.generation
                assert replica_db.instance == primary_db.instance

                def counted():
                    # the tailer counts a frame only after apply_delta has
                    # published it, so its counters trail the generation
                    tailer = rpc(replica.address, op="stats")["replication"]["tailer"]
                    return tailer["frames_applied"] >= 1 and tailer["snapshots_loaded"] == 1

                assert wait_until(counted)
            replica_db.close()
        primary_db.close()

    def test_primary_stats_reports_connected_replica_lag(self):
        primary_db = Database({"R": [(1, 2)]})
        with serve(primary_db) as primary:
            primary_addr = f"{primary.address[0]}:{primary.address[1]}"
            replica_db = Database()
            with serve(replica_db, replicate_from=primary_addr) as replica:
                replica_addr = f"{replica.address[0]}:{replica.address[1]}"

                def replica_listed():
                    peers = rpc(primary.address, op="stats")["replication"]["feed"]["replicas"]
                    return [p["address"] for p in peers] == [replica_addr]

                assert wait_until(replica_listed)
                assert wait_until(self.converged(replica.address, primary_db))
                [peer] = rpc(primary.address, op="stats")["replication"]["feed"]["replicas"]
                assert peer["lag_generations"] == 0 and peer["snapshots_sent"] == 1
        replica_db.close()
        primary_db.close()

    def test_primary_restart_no_gaps_no_double_applies(self, tmp_path):
        """Kill the primary's listener, restart on the same port, keep
        writing: the replica reconnects and converges with every
        generation applied exactly once."""
        primary_db = Database(path=tmp_path / "primary")
        with serve(primary_db) as primary:
            host, port = primary.address
            primary_addr = f"{host}:{port}"
            replica_db = Database(path=tmp_path / "replica")
            with serve(
                replica_db,
                replicate_from=primary_addr,
                backoff_base=0.05,
                backoff_cap=0.2,
            ) as replica:

                def bootstrapped():
                    tailer = rpc(replica.address, op="stats")["replication"]["tailer"]
                    return tailer["snapshots_loaded"] >= 1

                # pin the bootstrap before any write, so every one of the
                # 15 generations below must arrive as exactly one delta
                assert wait_until(bootstrapped)
                for i in range(5):
                    rpc(primary.address, op="insert", relation="R", rows=[[i, i]])
                assert wait_until(self.converged(replica.address, primary_db))
                primary.shutdown()  # the replica's stream breaks mid-flight

                # writes the replica never saw over the old connection
                for i in range(5, 10):
                    primary_db.insert("R", (i, i))

                with serve(primary_db, port=port):
                    for i in range(10, 15):
                        primary_db.insert("R", (i, i))
                    assert wait_until(self.converged(replica.address, primary_db))
                    assert replica_db.instance == primary_db.instance
                    assert replica_db.generation == primary_db.generation == 15

                    def tailer_stats():
                        return rpc(replica.address, op="stats")["replication"]["tailer"]

                    # the counters trail the published generation
                    assert wait_until(lambda: tailer_stats()["frames_applied"] >= 15)
                    tailer = tailer_stats()
                    # exactly once: 15 generations, 15 applied frames
                    assert tailer["frames_applied"] == 15
                    assert tailer["gaps"] == 0 and tailer["divergences"] == 0
                    assert tailer["connects"] >= 2
            replica_db.close()
        primary_db.close()

    def test_promote_over_the_wire_enables_writes(self):
        primary_db = Database({"R": [(7, 8)]})
        with serve(primary_db) as primary:
            primary_addr = f"{primary.address[0]}:{primary.address[1]}"
            replica_db = Database()
            with serve(replica_db, replicate_from=primary_addr) as replica:
                assert wait_until(self.converged(replica.address, primary_db))
                denied = rpc(replica.address, op="insert", relation="R", rows=[[1, 1]])
                assert denied["ok"] is False and denied["error_type"] == "read_only"
                promoted = rpc(replica.address, op="promote")
                assert promoted["ok"] and promoted["promoted"]
                accepted = rpc(replica.address, op="insert", relation="R", rows=[[1, 1]])
                assert accepted["ok"] and accepted["changed"] == 1
                assert rpc(replica.address, op="stats")["role"] == "primary"
        replica_db.close()
        primary_db.close()
