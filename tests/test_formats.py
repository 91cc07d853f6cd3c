"""The relation-map formats, byte for byte, and their round trip.

A naive database travels as a ``{relation: [rows]}`` map in the
:mod:`repro.data.jsonio` cell encoding in five places: the snapshot
file, the write-ahead log, the replication snapshot and delta frames,
the ``dump`` response and ``instance_to_json``.  The golden digests pin
the exact bytes each one writes for a fixed instance, so a data
directory or a replication stream written by an older build still reads
the same; the seeded property checks that every decoder inverts its
encoder on random instances (trials scale with ``REPRO_FUZZ``).
"""

import hashlib
import json

import pytest
from diffutil import fuzz_rng, fuzz_trials
from test_wire_bytes import CELLS, NULLS, random_instance

from repro.data.instance import Instance
from repro.data.jsonio import instance_from_json, instance_to_json
from repro.data.values import Null
from repro.replication.feed import ReplicationFeed
from repro.replication.replica import apply_frame
from repro.server import QueryService
from repro.session import Database
from repro.storage import SnapshotState, read_snapshot, write_snapshot

GOLDEN = Instance(
    {
        # one row per cell shape, keyed so no two rows compare equal
        # (``1 == True`` would otherwise merge rows)
        "R": [(f"k{i}", cell) for i, cell in enumerate(CELLS)]
        + [(f"n{i}", null) for i, null in enumerate(NULLS)],
        "S": [(NULLS[0], NULLS[1], "?q"), (NULLS[1], 10**20, None), ("??r", NULLS[0], 2.5)],
    }
)

#: two writes: each touches two relations, the second undoes part of the first
DELTAS = [
    ({"S": [(NULLS[0], 'x"y', False)], "T": [(Null("n3"),)]}, {"R": [("k0", -3), ("k7", True)]}),
    ({"R": [("k0", -3), ("k99", "é")]}, {"S": [(NULLS[1], 10**20, None)], "T": [(Null("n3"),)]}),
]

#: (byte length, sha256) of each format for GOLDEN and DELTAS
DIGESTS = {
    "instance_to_json": (373, "ff47d065927c80fa061894758bb4efc9cc2fede30fa5f49ad1f68cf6b570cb7f"),
    "dump": (399, "998eae880919f1f4795952286640c18624d47324dd2adf5ef2db18d39bc9d57f"),
    "wal_file": (289, "117870e20e62d85195a76bfdcaba86f8eb690a367750f79c8aceb17cb0ea2317"),
    "snapshot_file": (419, "4cad7eab7f81ca48f7f8236efe2e1fae3e9d4f088b5d864a27eb1de1f0d0afa7"),
    "replication_snapshot": (
        448,
        "2532af025820f320936c9b08eed523c102a7d93a4d01379a67b8ee7a5e6e4823",
    ),
    "replication_delta": (179, "7c3b4c8222e4df850994c13b71684b452d4218027b12f3ed3c2145e2cab49cf2"),
}


def digest(data: str | bytes) -> tuple[int, str]:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return len(data), hashlib.sha256(data).hexdigest()


def apply_all(db: Database) -> None:
    for adds, removes in DELTAS:
        db.apply_delta(adds, removes)


class TestGoldenBytes:
    def test_instance_to_json(self):
        assert digest(instance_to_json(GOLDEN)) == DIGESTS["instance_to_json"]

    def test_dump_response(self):
        line = QueryService(Database(GOLDEN)).handle_line('{"op": "dump"}')
        assert digest(line) == DIGESTS["dump"]

    def test_wal_and_snapshot_files(self, tmp_path):
        live = tmp_path / "live"
        db = Database(GOLDEN, path=str(live))
        try:
            seed = (live / "snapshot.repro").read_bytes()
            apply_all(db)
            wal = (live / "wal.repro").read_bytes()
            want = (db.instance, db.position)
            assert db.checkpoint()
            snapshot = (live / "snapshot.repro").read_bytes()
        finally:
            db.close()
        assert digest(wal) == DIGESTS["wal_file"]
        assert digest(snapshot) == DIGESTS["snapshot_file"]
        # the pinned files recover to the state that wrote them: the log
        # replayed over the seeding snapshot, and the checkpoint alone
        for i, files in enumerate(
            [{"snapshot.repro": seed, "wal.repro": wal}, {"snapshot.repro": snapshot}]
        ):
            data = tmp_path / f"recover{i}"
            data.mkdir()
            for name, blob in files.items():
                (data / name).write_bytes(blob)
            again = Database(path=str(data))
            assert (again.instance, again.position) == want
            again.close()

    def test_replication_frames(self):
        db = Database(GOLDEN)
        feed = ReplicationFeed(db)
        try:
            link = feed.register(None)
            snapshot = next(feed.stream(0, link))
            apply_all(db)
            delta = next(feed.stream(1, link))  # the frame for generation 2
        finally:
            feed.close()
        assert digest(json.dumps(snapshot)) == DIGESTS["replication_snapshot"]
        assert digest(delta) == DIGESTS["replication_delta"]


def random_delta(rng, instance: Instance, step: int) -> tuple[dict, dict]:
    """Random adds and removes; the row ``W(step)`` makes every delta effective."""
    extra = random_instance(rng)
    adds = {name: extra.tuples(name) for name in extra.relations}
    adds["W"] = [(step,)]
    removes = {}
    for name in instance.relations:
        rows = sorted(instance.tuples(name), key=repr)
        removes[name] = rng.sample(rows, min(len(rows), rng.randint(0, 2)))
    return adds, removes


@pytest.mark.parametrize("trial", range(fuzz_trials(6)))
def test_every_codec_round_trips(tmp_path, trial):
    rng = fuzz_rng(f"formats-{trial}")
    instance = random_instance(rng)
    assert instance_from_json(instance_to_json(instance)) == instance
    dumped = json.loads(QueryService(Database(instance)).handle_line('{"op": "dump"}'))
    assert instance_from_json(json.dumps(dumped["instance"])) == instance

    state = SnapshotState(instance, trial, {name: trial + 1 for name in instance.relations})
    write_snapshot(tmp_path / "snap", state, fsync=False)
    assert read_snapshot(tmp_path / "snap") == state

    # the WAL: writes recover by replay, then again from a checkpoint
    primary = Database(instance, path=str(tmp_path / "data"), fsync=False)
    deltas = []
    for step in range(3):
        deltas.append(random_delta(rng, primary.instance, step))
        primary.apply_delta(*deltas[-1])
    expected = (primary.instance, primary.position)
    primary.close()
    for _ in range(2):
        recovered = Database(path=str(tmp_path / "data"), fsync=False)
        assert (recovered.instance, recovered.position) == expected
        recovered.checkpoint()
        recovered.close()

    # replication: a snapshot frame, then one delta frame per later write
    source = Database(instance)
    feed = ReplicationFeed(source)
    replica = Database()
    try:
        link = feed.register(None)
        source.apply_delta(*deltas[0])
        snapshot = json.loads(json.dumps(next(feed.stream(0, link))))
        assert apply_frame(replica, snapshot) == "snapshot"
        for delta in deltas[1:]:
            source.apply_delta(*delta)
        frames = feed.stream(replica.generation, link)
        while replica.generation < source.generation:
            assert apply_frame(replica, json.loads(next(frames))) == "applied"
        frames.close()
    finally:
        feed.close()
    assert (replica.instance, replica.position) == (source.instance, source.position)
