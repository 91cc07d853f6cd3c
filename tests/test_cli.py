"""Tests for the command-line interface."""

import json
import re
import time

import pytest

from repro.cli import instance_from_json, instance_to_json, main
from repro.data.instance import Instance
from repro.data.values import Null


class TestJsonFormat:
    def test_round_trip(self):
        d = Instance({"R": [(1, Null("x"))], "S": [(Null("x"), 4)]})
        assert instance_from_json(instance_to_json(d)) == d

    def test_nulls_marked_with_question(self):
        d = instance_from_json('{"R": [[1, "?x"], ["?x", 2]]}')
        assert len(d.nulls()) == 1  # ?x repeats

    def test_plain_strings_are_constants(self):
        d = instance_from_json('{"R": [["alice", "bob"]]}')
        assert d.is_complete()

    def test_non_object_rejected(self):
        with pytest.raises(ValueError):
            instance_from_json("[1, 2]")

    def test_nested_list_rejected(self):
        with pytest.raises(ValueError):
            instance_from_json('{"R": [[[1]]]}')

    def test_non_list_rows_rejected_naming_relation(self):
        with pytest.raises(ValueError, match="'R'"):
            instance_from_json('{"R": 7}')

    def test_non_list_row_rejected_naming_relation_and_row(self):
        # the regression case: a bare row instead of a list of rows
        with pytest.raises(ValueError, match=r"'R'.*\b1\b") as exc:
            instance_from_json('{"R": [1, 2]}')
        assert "not a list" in str(exc.value)

    def test_object_cell_rejected(self):
        with pytest.raises(ValueError, match="'S'"):
            instance_from_json('{"S": [[{"a": 1}]]}')

    def test_bad_rows_reported_through_cli(self, tmp_path, capsys):
        db = tmp_path / "db.json"
        db.write_text('{"R": [1, 2]}')
        code = main(["evaluate", "exists x, y . R(x, y)", str(db)])
        assert code == 2
        err = capsys.readouterr().err
        assert "error:" in err and "'R'" in err


class TestRoundTrips:
    """instance_from_json → instance_to_json → parse again is the identity."""

    def round_trip(self, instance: Instance) -> Instance:
        return instance_from_json(instance_to_json(instance))

    def test_null_shared_across_relations(self):
        x = Null("x")
        d = Instance({"R": [(1, x)], "S": [(x, 2)], "T": [(x, x)]})
        back = self.round_trip(d)
        assert back == d
        assert len(back.nulls()) == 1

    def test_many_nulls_many_relations(self):
        x, y, z = Null("x"), Null("y"), Null("z")
        d = Instance(
            {
                "R": [(x, y), (y, z), (1, 2)],
                "S": [(z, x), ("alice", y)],
                "U": [(x,), (z,), (3,)],
            }
        )
        assert self.round_trip(d) == d

    def test_mixed_constant_types_survive(self):
        d = Instance({"R": [(1, "1"), ("bob", 2)]})
        back = self.round_trip(d)
        assert back == d
        assert {1, "1", "bob", 2} == set(back.constants())

    def test_textual_round_trip_from_json_side(self):
        text = '{"R": [[1, "?x"]], "S": [["?x", 4], ["?y", "?y"]]}'
        first = instance_from_json(text)
        again = instance_from_json(instance_to_json(first))
        assert again == first

    def test_question_mark_constant_round_trips(self):
        # regression: "?x" the *constant* must not come back as a null
        d = Instance({"R": [("?x", "??y", 1)]})
        back = self.round_trip(d)
        assert back == d
        assert back.is_complete()

    def test_escaped_marker_decodes_to_constant(self):
        d = instance_from_json('{"R": [["??x", "?x"]]}')
        assert d.tuples("R") == frozenset({("?x", Null("x"))})

    def test_non_scalar_constant_rejected_on_encode(self):
        d = Instance({"R": [((1, 2),)]})  # a tuple-valued cell
        with pytest.raises(ValueError, match="'R'"):
            instance_to_json(d)

    def test_question_mark_null_label_rejected_on_encode(self):
        d = Instance({"R": [(Null("?weird"),)]})
        with pytest.raises(ValueError, match="'R'"):
            instance_to_json(d)


class TestExplainCommand:
    def test_explain_owa_routes_enumeration(self, capsys):
        assert main(["explain", "forall x . exists y . D(x,y)", "--semantics", "owa"]) == 0
        out = capsys.readouterr().out
        assert "enumeration" in out and "not sound" in out

    def test_explain_cwa_routes_columnar(self, capsys):
        assert main(["explain", "forall x . exists y . D(x,y)", "--semantics", "cwa"]) == 0
        out = capsys.readouterr().out
        assert "backend     : columnar" in out and "SOUND" in out

    def test_explain_with_instance_reports_cost(self, tmp_path, capsys):
        db = tmp_path / "db.json"
        db.write_text(json.dumps({"D": [["?a", "?b"], ["?b", "?a"]]}))
        assert main(["explain", "exists x . D(x, x)", str(db), "--semantics", "cwa"]) == 0
        out = capsys.readouterr().out
        assert "2 facts, 2 nulls" in out

    def test_explain_json_output(self, tmp_path, capsys):
        db = tmp_path / "db.json"
        db.write_text(json.dumps({"D": [["?a", "?b"]]}))
        code = main(
            ["explain", "forall x . exists y . D(x,y)", str(db), "--semantics", "owa", "--json"]
        )
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["backend"] == "enumeration"
        assert data["semantics"] == "owa"
        assert data["verdict"]["sound"] is False
        assert data["cost"]["fact_count"] == 1
        assert data["cost"]["null_count"] == 2

    def test_explain_json_columnar_case(self, capsys):
        code = main(["explain", "exists z (R(x,z) & S(z,y))", "--semantics", "owa", "--json"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["backend"] == "columnar"
        assert data["verdict"]["sound"] is True and data["exact"] is True

    def test_explain_forced_mode(self, capsys):
        code = main(
            ["explain", "exists x . D(x, x)", "--semantics", "cwa", "--mode", "naive-interp"]
        )
        assert code == 0
        assert "naive-interp" in capsys.readouterr().out

    def test_expansion_limit_reported_cleanly(self, tmp_path, capsys):
        # many nulls → world enumeration exceeds the limit; the CLI must
        # report it as error:+exit 2, not a raw traceback
        db = tmp_path / "big.json"
        rows = [[f"?n{i}", f"?n{i+1}"] for i in range(8)]
        db.write_text(json.dumps({"D": rows}))
        code = main(
            ["evaluate", "exists x . D(x, x)", str(db), "--semantics", "owa",
             "--mode", "enumeration"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "error:" in err and "limit" in err


class TestCommands:
    def test_analyze_all_semantics(self, capsys):
        assert main(["analyze", "exists z (R(x,z) & S(z,y))"]) == 0
        out = capsys.readouterr().out
        assert "owa" in out and "SOUND" in out

    def test_analyze_single_semantics(self, capsys):
        assert main(["analyze", "forall x . exists y . D(x,y)", "--semantics", "owa"]) == 0
        out = capsys.readouterr().out
        assert "not sound" in out

    def test_fragments(self, capsys):
        assert main(["fragments", "forall x . exists y . D(x,y)"]) == 0
        out = capsys.readouterr().out
        assert "Pos" in out and "EPos" not in out.split("fragments:")[1].split(",")[0]

    def test_evaluate_kary(self, tmp_path, capsys):
        db = tmp_path / "db.json"
        db.write_text(json.dumps({"R": [[1, "?1"], ["?2", "?3"]], "S": [["?1", 4], ["?3", 5]]}))
        code = main(["evaluate", "exists z (R(x,z) & S(z,y))", str(db), "--semantics", "owa"])
        assert code == 0
        out = capsys.readouterr().out
        assert "1, 4" in out and "columnar" in out

    def test_evaluate_boolean(self, tmp_path, capsys):
        db = tmp_path / "db.json"
        db.write_text(json.dumps({"D": [["?a", "?b"], ["?b", "?a"]]}))
        code = main(["evaluate", "exists x, y . D(x,y) & D(y,x)", str(db), "--semantics", "cwa"])
        assert code == 0
        assert "certain answer: True" in capsys.readouterr().out

    def test_evaluate_missing_file(self, capsys):
        code = main(["evaluate", "R(x)", "/nonexistent/db.json"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_query_reported(self, capsys):
        code = main(["fragments", "R(x"])
        assert code == 2

    def test_mode_flag(self, tmp_path, capsys):
        db = tmp_path / "db.json"
        db.write_text(json.dumps({"D": [["?a", "?b"]]}))
        code = main(
            ["evaluate", "exists x, y . D(x, y)", str(db), "--mode", "enumeration"]
        )
        assert code == 0
        assert "enumeration" in capsys.readouterr().out


class TestOracleBracket:
    """The CWA oracle's bracket, as ``evaluate``/``certain``/``explain`` show it."""

    QUERY = "exists y (R(x, y) & !S(y))"

    @pytest.fixture
    def db(self, tmp_path):
        path = tmp_path / "db.json"
        path.write_text(json.dumps({"R": [[1, "?a"], [2, 3], [4, 5]], "S": [[5]]}))
        return str(path)

    @pytest.mark.parametrize(
        "argv", [["evaluate", "--mode", "enumeration"], ["certain"]], ids=["evaluate", "certain"]
    )
    def test_prints_the_bracket(self, db, capsys, argv):
        assert main([argv[0], self.QUERY, db, *argv[1:]]) == 0
        out = capsys.readouterr().out
        assert "  2\n" in out and "  1\n" not in out
        assert re.search(r"oracle: [1-9]\d* worlds \(bracket: 1 lower, 2 upper, gap 1\)", out)

    def test_other_semantics_print_the_mode(self, db, capsys):
        argv = ["evaluate", self.QUERY, db, "--semantics", "pcwa", "--mode", "enumeration"]
        assert main(argv) == 0
        assert re.search(r"oracle: \d+ worlds \(expand\)", capsys.readouterr().out)

    def test_explain_states_that_only_the_gap_is_enumerated(self, db, capsys):
        assert main(["explain", self.QUERY, db, "--operators"]) == 0
        out = capsys.readouterr().out
        assert "backend     : enumeration" in out
        assert "only the gap between them is enumerated" in out
        assert "null-unifying anti-join" in out
        assert "lower bound (used when the pool has a fresh value per null)" in out
        assert "world plan (run on every enumerated world)" in out
        assert main(["explain", self.QUERY, db, "--semantics", "owa", "--operators"]) == 0
        out = capsys.readouterr().out
        assert "gap" not in out and "lower bound" not in out

    @pytest.mark.parametrize("semantics", ["cwa", "owa", "pcwa"])
    def test_explain_prints_the_columnar_world_plan(self, db, capsys, semantics):
        argv = ["explain", self.QUERY, db, "--semantics", semantics, "--operators", "--json"]
        assert main(argv) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["backend"] == "enumeration"
        operators = data["operators"]
        assert operators[0] == "world plan (run on every enumerated world):"
        assert operators[1].startswith("col-project")
        assert any("col-anti-join" in line for line in operators)
        assert not any("does not run the columnar engine" in line for line in operators)
        assert any("null-unifying" in line for line in operators) == (semantics == "cwa")


class TestClusterCommands:
    """`repro cluster` against in-process served nodes (real sockets)."""

    def test_status_lists_primary_and_replicas(self, capsys):
        from repro.server import serve
        from repro.session import Database

        primary_db = Database({"R": [(1, 2)]})
        with serve(primary_db) as primary:
            primary_addr = f"{primary.address[0]}:{primary.address[1]}"
            replica_db = Database()
            with serve(replica_db, replicate_from=primary_addr) as replica:
                replica_addr = f"{replica.address[0]}:{replica.address[1]}"
                deadline = time.monotonic() + 30
                while time.monotonic() < deadline:
                    if primary.service.feed.stats["replicas"]:
                        break
                    time.sleep(0.01)
                assert main(["cluster", "status", primary_addr]) == 0
                table = capsys.readouterr().out
                assert primary_addr in table and "primary" in table
                assert replica_addr in table and "replica" in table

                # --json from the replica's point of view finds the primary
                assert main(["cluster", "status", replica_addr, "--json"]) == 0
                report = json.loads(capsys.readouterr().out)
                roles = {row["node"]: row["role"] for row in report["rows"]}
                assert roles[primary_addr] == "primary"
                assert roles[replica_addr] == "replica"
            replica_db.close()
        primary_db.close()

    def test_promote_round_trip(self, capsys):
        from repro.server import serve
        from repro.session import Database

        primary_db = Database({"R": [(1, 2)]})
        with serve(primary_db) as primary:
            primary_addr = f"{primary.address[0]}:{primary.address[1]}"
            replica_db = Database()
            with serve(replica_db, replicate_from=primary_addr) as replica:
                replica_addr = f"{replica.address[0]}:{replica.address[1]}"
                assert main(["cluster", "promote", replica_addr]) == 0
                assert "promoted to primary" in capsys.readouterr().out
                # promoting a primary is a no-op, reported as such
                assert main(["cluster", "promote", replica_addr]) == 0
                assert "already a primary" in capsys.readouterr().out
            replica_db.close()
        primary_db.close()

    def test_status_unreachable_node_fails_cleanly(self, capsys):
        code = main(["cluster", "status", "127.0.0.1:9"])
        assert code == 6  # the typed "unreachable" exit code
        assert "unreachable" in capsys.readouterr().err
