"""The ea command line: JSON-on-stdout contract, exit codes, determinism."""

import hashlib
import json

import pytest

from effectalg import fixture_path, make_simplicial, mo2, sigma_universal, tau_perm
from effectalg import cli, operations, verify
from effectalg.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


def test_algebra_box(capsys):
    code, doc, err = run_json(capsys, "algebra", "--u", "1,1")
    assert code == 0
    assert doc["algebra"] == {"type": "simplicial", "u": [1, 1]}
    assert doc["size"] == 4
    assert doc["atoms"] == [{"atom": [1, 0], "ord": 1}, {"atom": [0, 1], "ord": 1}]
    assert doc["obstruction"] is False
    assert "elements" not in doc
    assert err and not err.lstrip().startswith("{")


def test_algebra_json_flag_lists_elements(capsys):
    code, doc, _ = run_json(capsys, "algebra", "--u", "2,1", "--json")
    assert code == 0
    assert doc["elements"] == [[0, 0], [1, 0], [2, 0], [0, 1], [1, 1], [2, 1]]


def test_algebra_from_file(capsys, tmp_path):
    path = tmp_path / "mo2.json"
    path.write_text(json.dumps(mo2().to_json()))
    code, doc, _ = run_json(capsys, "algebra", "--file", str(path))
    assert code == 0
    assert doc["size"] == 6
    assert doc["obstruction"] is False
    assert [a["atom"] for a in doc["atoms"]] == [1, 2, 3, 4]


def test_algebra_needs_exactly_one_source(capsys, tmp_path):
    code, doc, _ = run_json(capsys, "algebra")
    assert code == 2 and doc["error"] == "malformed_input"
    path = tmp_path / "a.json"
    path.write_text(json.dumps({"type": "simplicial", "u": [1]}))
    code, doc, _ = run_json(capsys, "algebra", "--u", "1", "--file", str(path))
    assert code == 2 and doc["error"] == "malformed_input"


def test_algebra_invalid_table_exits_one_with_the_report(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(
        {"type": "table", "size": 2, "zero": 0, "one": 1, "sum": [[0, 1], [1, 1]]}
    ))
    code, doc, _ = run_json(capsys, "algebra", "--file", str(path))
    assert code == 1
    assert doc["error"] == "invalid_algebra"
    assert doc["report"]["valid"] is False
    assert doc["report"]["zero_one"] == {"fail": {"a": 1}}


def test_oversized_table_algebra_is_refused_before_its_sum_table(capsys, tmp_path):
    # the size alone is over the cap, so the (empty) sum table is never read
    path = tmp_path / "big.json"
    path.write_text(json.dumps(
        {"type": "table", "size": 2049, "zero": 0, "one": 1, "sum": []}
    ))
    code, out, _ = run(capsys, "algebra", "--file", str(path))
    assert code == 3
    assert len(out.splitlines()) == 1
    assert json.loads(out) == {"error": "cap_exceeded", "count": "2049"}


def test_matrices_count_only(capsys):
    code, doc, _ = run_json(capsys, "matrices", "--u", "1,1", "--count-only")
    assert code == 0
    assert doc == {"u": [1, 1], "v": [1, 1], "count": "9"}


def test_matrices_listing_and_cross_shape(capsys):
    code, doc, _ = run_json(capsys, "matrices", "--u", "2", "--v", "1,1")
    assert code == 0
    assert doc["count"] == str(len(doc["matrices"]))
    assert doc["matrices"][0] == {"rows": [[0], [0]], "u": [2], "v": [1, 1]}


def test_matrices_cap_exceeded(capsys):
    code, doc, _ = run_json(capsys, "matrices", "--u", "1,1", "--cap", "4")
    assert code == 3
    assert doc == {"error": "cap_exceeded", "count": "9"}


def test_count(capsys):
    code, doc, _ = run_json(capsys, "count", "--u", "1,1", "--axioms", "s1s2")
    assert code == 0
    assert doc == {"u": [1, 1], "axioms": "s1s2", "count": "729",
                   "certificate": "formula"}


@pytest.mark.parametrize("argv", [
    ("count", "--u", "100,100", "--axioms", "s1s2"),
    ("enumerate", "--u", "100,100", "--axioms", "s1s2"),
    ("enumerate", "--u", "100,100", "--axioms", "s1s2", "--count-only"),
    ("algebra", "--u", ",".join(["1000000000"] * 500)),
    ("enumerate", "--u", "300,300", "--axioms", "s1s3", "--count-only"),
])
def test_counts_past_4300_digits_are_over_a_cap(capsys, argv):
    # 9 ** 10200 S1+S2 operations, a box of 1000000001 ** 500 elements and a
    # 90,951-bit S1-S3 count on (300, 300): Python writes none of them as
    # text, so none is reported
    code, out, _ = run(capsys, *argv)
    assert code == 3
    assert len(out.splitlines()) == 1
    assert json.loads(out) == {"error": "cap_exceeded"}


@pytest.mark.parametrize("argv", [
    ("count", "--u", "1000000000,1000000000", "--axioms", "s1s2"),
    ("algebra", "--u", "1000000000,1000000000"),
])
def test_boxes_over_the_carrier_limit_are_refused_with_their_size(capsys, argv):
    # ea count checks the carrier before the 2 ** (N - 1) rule, so its
    # refusal carries the box size, as ea algebra's does
    code, out, _ = run(capsys, *argv)
    assert code == 3
    assert out == '{"error": "cap_exceeded", "count": "1000000002000000001"}\n'


def test_matrices_refuses_boxes_over_the_carrier_limit(capsys):
    code, out, _ = run(capsys, "matrices", "--u", "1", "--v", "100000000000", "--count-only")
    assert code == 3
    assert json.loads(out) == {"error": "cap_exceeded", "count": "100000000001"}
    code, doc, _ = run_json(capsys, "matrices", "--u", "1000,1000", "--v", "1", "--count-only")
    assert code == 3
    assert doc == {"error": "cap_exceeded", "count": "1002001"}
    # within the limit a large budget is counted, not listed row by row
    code, doc, _ = run_json(capsys, "matrices", "--u", "1,1,1,1", "--v", "4000",
                            "--count-only")
    assert code == 0
    assert doc["count"] == "10693356675001"  # C(4004, 4)


def test_count_rejects_other_axioms(capsys):
    code, doc, _ = run_json(capsys, "count", "--u", "1,1", "--axioms", "s1s3")
    assert code == 2 and doc["error"] == "malformed_input"


def test_enumerate_s1s3(capsys):
    code, doc, _ = run_json(capsys, "enumerate", "--u", "1,1", "--axioms", "s1s3",
                            "--count-only")
    assert code == 0
    assert doc == {"u": [1, 1], "k": 3, "count": "34", "certificate": "exhaustive"}


def test_enumerate_s1s4_and_s1s5_reach_rank_3(capsys):
    # S4 at (a, 0) leaves row a only the pool matrices with M u = a, so
    # (2, 1, 1) is exhaustive at the default budget
    code, doc, _ = run_json(capsys, "enumerate", "--u", "2,1,1", "--axioms", "s1s4",
                            "--count-only")
    assert code == 0
    assert doc == {"u": [2, 1, 1], "k": 4, "count": "0", "certificate": "exhaustive"}
    code, doc, _ = run_json(capsys, "enumerate", "--u", "1,1,1", "--axioms", "s1s5",
                            "--count-only")
    assert code == 0
    assert doc == {"u": [1, 1, 1], "k": 5, "count": "1", "certificate": "exhaustive"}


def test_enumerate_s1s2_routes(capsys):
    code, doc, _ = run_json(capsys, "enumerate", "--u", "2", "--axioms", "s1s2",
                            "--count-only")
    assert code == 0
    assert doc == {"u": [2], "k": 2, "count": "4", "certificate": "formula"}
    code, doc, _ = run_json(capsys, "enumerate", "--u", "2", "--axioms", "s1s2")
    assert code == 0
    assert doc["certificate"] == "exhaustive"
    assert len(doc["operations"]) == 4


def test_enumerate_materializes_operations(capsys):
    code, doc, _ = run_json(capsys, "enumerate", "--u", "2", "--axioms", "s1s3")
    assert code == 0
    assert doc["operations"] == [[[0, 0, 0], [0, 1, 2], [0, 1, 2]]]


def test_enumerate_out_writes_the_same_document(capsys, tmp_path):
    path = tmp_path / "ops.json"
    code, out, _ = run(capsys, "enumerate", "--u", "1,1", "--axioms", "s1s4",
                       "--out", str(path))
    assert code == 0
    assert path.read_text() == out
    assert json.loads(out)["count"] == "1"
    # the listings' tables reach the encoder as row tuples, and --out gets
    # the one stdout line
    for u, axioms in [("2,2", "s1s3"), ("1,1", "s1s2")]:
        code, out, _ = run(capsys, "enumerate", "--u", u, "--axioms", axioms,
                           "--out", str(path))
        assert code == 0 and out.count("\n") == 1
        assert path.read_text() == out


def test_enumerate_cap_exceeded(capsys):
    code, doc, _ = run_json(capsys, "enumerate", "--u", "1,1", "--axioms", "s1s2",
                            "--cap", "10")
    assert code == 3
    assert doc == {"error": "cap_exceeded", "count": "729"}


def test_enumerate_node_budget_exceeded(capsys):
    code, doc, _ = run_json(capsys, "--node-budget", "5", "enumerate", "--u", "2,2",
                            "--axioms", "s1s3", "--count-only")
    assert code == 3
    assert doc == {"error": "node_budget_exceeded", "nodes": 6}


def test_node_budget_flag_works_after_the_subcommand_too(capsys):
    code, doc, _ = run_json(capsys, "enumerate", "--u", "2,2", "--axioms", "s1s3",
                            "--count-only", "--node-budget", "5")
    assert code == 3 and doc["error"] == "node_budget_exceeded"


def test_check_named_sigma_passes(capsys):
    code, doc, _ = run_json(capsys, "check", "--u", "1,1", "--op", "sigma",
                            "--upto", "3")
    assert code == 0
    assert doc == {"s1": "pass", "s2": "pass", "s3": "pass"}


def test_check_failure_exits_one_with_the_witness(capsys):
    code, doc, _ = run_json(capsys, "check", "--u", "3", "--op", "sigma",
                            "--upto", "4")
    assert code == 1
    assert doc["s4"] == {"fail": {"a": 1, "b": 0}}


def test_check_tau_and_meet(capsys):
    code, doc, _ = run_json(capsys, "check", "--u", "2,2", "--op", "tau:2,1",
                            "--upto", "3")
    assert code == 0 and doc["s3"] == "pass"
    code, doc, _ = run_json(capsys, "check", "--u", "1,1,1", "--op", "meet",
                            "--upto", "5")
    assert code == 0 and doc["s5"] == "pass"


def test_check_operation_file(capsys, tmp_path):
    path = tmp_path / "op.json"
    path.write_text(json.dumps(tau_perm((1, 1), (2, 1)).to_json()))
    code, doc, _ = run_json(capsys, "check", "--op", str(path), "--upto", "3")
    assert code == 0
    code, doc, _ = run_json(capsys, "check", "--u", "1,1", "--op", str(path),
                            "--upto", "4")
    assert code == 1 and doc["s4"] == {"fail": {"a": 1, "b": 0}}


def test_check_algebra_mismatch_is_malformed(capsys, tmp_path):
    path = tmp_path / "op.json"
    path.write_text(json.dumps(sigma_universal(make_simplicial((1, 1))).to_json()))
    code, doc, _ = run_json(capsys, "check", "--u", "2,1", "--op", str(path),
                            "--upto", "2")
    assert code == 2 and doc["error"] == "malformed_input"


def test_check_refuses_an_oversized_carrier_before_building_the_operation(
        capsys, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("a named operation was built on an oversized carrier")

    monkeypatch.setattr(operations, "Operation", never)
    # carriers under the element limit but over the 2048-element sum-table
    # limit: each named constructor refuses them before building an Operation
    for argv, size in [(("--u", "998,1000", "--op", "sigma"), 999 * 1001),
                       (("--u", ",".join(["1"] * 12), "--op", "meet"), 2 ** 12),
                       (("--u", "998,998", "--op", "tau:2,1"), 999 * 999)]:
        code, doc, _ = run_json(capsys, "check", *argv, "--upto", "1")
        assert code == 3, argv
        assert doc == {"error": "cap_exceeded", "count": str(size * size)}
    # an operation that is not defined on the carrier is still malformed input
    for argv in [("--u", "998,1000", "--op", "meet"),
                 ("--u", "998,1000", "--op", "tau:2,1"),
                 ("--u", "998,998", "--op", "tau:1,3"),
                 ("--u", "998,998", "--op", "tau:x")]:
        code, doc, _ = run_json(capsys, "check", *argv, "--upto", "1")
        assert code == 2 and doc["error"] == "malformed_input", argv


def test_enumerate_count_only_keeps_no_operations(capsys, monkeypatch):
    caps = []
    search = cli.enumerate_s1sk

    def recording(u, k, cap, node_budget):
        caps.append(cap)
        return search(u, k, cap=cap, node_budget=node_budget)

    monkeypatch.setattr(cli, "enumerate_s1sk", recording)
    for axioms, count in [("s1s3", "34"), ("s1s4", "1")]:
        code, doc, _ = run_json(capsys, "enumerate", "--u", "1,1", "--axioms", axioms,
                                "--count-only")
        assert code == 0
        assert doc == {"u": [1, 1], "k": int(axioms[-1]), "count": count,
                       "certificate": "exhaustive"}
    # --count-only asks the search to keep nothing
    assert caps == [0, 0]

def test_check_takes_at_most_one_carrier(capsys):
    code, out, _ = run(capsys, "check", "--algebra", str(fixture_path("mo2")), "--u", "1",
                       "--op", "sigma", "--upto", "3")
    assert code == 2
    assert len(out.splitlines()) == 1
    assert json.loads(out) == {"error": "malformed_input",
                               "message": "give at most one of --algebra and --u"}


def test_check_input_errors(capsys):
    cases = [
        ("check", "--op", "sigma", "--upto", "3"),  # named op with no carrier
        ("check", "--u", "2,", "--op", "sigma", "--upto", "3"),
        ("check", "--u", "1,1", "--op", "sigma", "--upto", "7"),
        ("check", "--u", "1,1", "--op", "tau:3,1", "--upto", "3"),
        ("check", "--u", "2,1", "--op", "tau:2,1", "--upto", "3"),
        ("check", "--u", "2,1", "--op", "meet", "--upto", "3"),
        # the named box operations on a table algebra
        ("check", "--algebra", str(fixture_path("mo2")), "--op", "meet", "--upto", "3"),
        ("check", "--algebra", str(fixture_path("mo2")), "--op", "tau:2,1",
         "--upto", "3"),
        ("check", "--u", "1,1", "--op", "/nonexistent/op.json", "--upto", "3"),
        ("enumerate", "--u", "1,1", "--axioms", "s1s3", "--cap", "-1"),
        ("enumerate", "--u", "1,1", "--axioms", "s1s3", "--node-budget", "-1"),
        ("--threads", "-3", "enumerate", "--u", "1", "--axioms", "s1s3"),
        ("enumerate", "--u", "1", "--axioms", "s1s3", "--threads", "-3"),
    ]
    for argv in cases:
        code, doc, _ = run_json(capsys, *argv)
        assert code == 2, argv
        assert doc["error"] == "malformed_input", argv


BOX1 = {"type": "simplicial", "u": [1]}


@pytest.mark.parametrize("cmd, doc", [
    ("algebra", {"type": "table", "size": 2, "zero": 0, "one": 1, "sum": [1, 2]}),
    ("check", {"algebra": BOX1, "rows": {"0": 5, "1": [[1]]}}),
    ("check", {"algebra": BOX1, "rows": {"0": [["x"]], "1": [[1]]}}),
    ("algebra", {"type": "table", "size": True, "zero": 0, "one": 0, "sum": [[0]]}),
    # only the int -1 marks an undefined sum
    ("algebra", {"type": "table", "size": 2, "zero": 0, "one": 1, "sum": [[0, 1], [1, -1.0]]}),
])
def test_mistyped_json_is_malformed_input(capsys, tmp_path, cmd, doc):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(doc))
    argv = ("algebra", "--file", str(path)) if cmd == "algebra" else (
        "check", "--op", str(path), "--upto", "2")
    code, out, _ = run(capsys, *argv)
    assert code == 2
    assert len(out.splitlines()) == 1
    assert json.loads(out)["error"] == "malformed_input"


@pytest.mark.parametrize("cmd, doc, message", [
    ("algebra", {"type": "table", "size": 2, "zero": 0, "one": 1, "sum": [[0, 1], [1]]},
     "sum table rows must have 2 entries"),
    ("check", {"algebra": BOX1, "table": [0, 1]}, '"table" must be a list of rows'),
])
def test_misshapen_tables_are_malformed_input(capsys, tmp_path, cmd, doc, message):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(doc))
    argv = ("algebra", "--file", str(path)) if cmd == "algebra" else (
        "check", "--op", str(path), "--upto", "2")
    code, out, _ = run(capsys, *argv)
    assert code == 2
    assert len(out.splitlines()) == 1
    assert json.loads(out) == {"error": "malformed_input", "message": message}


def test_verify_summary(capsys):
    code, doc, _ = run_json(capsys, "verify", "--suite", "paper")
    assert code == 0
    assert doc["suite"] == "paper" and doc["ok"] is True
    assert doc["failed"] == 0
    assert "rows" not in doc


def test_verify_json_rows(capsys):
    code, doc, err = run_json(capsys, "verify", "--suite", "paper", "--json")
    assert code == 0
    assert doc["passed"] == len(doc["rows"]) == 54
    assert {row["status"] for row in doc["rows"]} == {"PASS"}
    assert err.count("\n") >= 54  # the human table goes to stderr


def test_verify_json_stdout_is_pinned(capsys):
    # the whole --json document, byte for byte: a faster oracle must not
    # change, drop or reorder a row
    code, out, _ = run(capsys, "verify", "--suite", "paper", "--json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "f961467466d5c6509b0610ed33936d07b9c0aa3c2c5112d640a6ada4801a7b78")


@pytest.mark.parametrize("u, axioms, digest", [
    ("2,2", "s1s3", "ef91bf6ef0cf4a3553478fabecdada6663de23a6c6345f622577c5c3a5e802e3"),
    ("1,1,1", "s1s5", "6eefb9f823bef74f041f829b5707c3efa2d296d0310ef8867c4ef3851eb4f42f"),
    ("1,1", "s1s2", "625cda57efa30efe225edf6aba413de8615446f207821afe28d9283adf88a7fd"),
], ids=["2,2-s1s3", "1,1,1-s1s5", "1,1-s1s2"])
def test_enumerate_listing_stdout_is_pinned(capsys, u, axioms, digest):
    # a listing byte for byte: the 2,000 S1-S3 tables of (2,2), the one
    # S1-S5 table of (1,1,1) and the 729 S1+S2 tables of (1,1), in canonical
    # order; a faster search must not change, drop or reorder an operation
    code, out, _ = run(capsys, "enumerate", "--u", u, "--axioms", axioms)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_verify_budget_trip_in_the_classification_is_undecided(capsys):
    # budgets 1 to 7 let every criterion-4 and criterion-6 search finish but
    # stop the Boolean-cube classification of criterion 5, whose listing
    # tries 8 neighbourhoods: its three rows are undecided, not failed
    for budget in (1, 4, 7):
        code, doc, _ = run_json(capsys, "--node-budget", str(budget), "verify", "--suite",
                                "paper", "--json")
        assert code == 0, budget
        assert (doc["ok"], doc["passed"], doc["failed"], doc["undecided"]) == (True, 51, 0, 3)
        undecided = [row for row in doc["rows"] if row["status"] == "UNDECIDED"]
        assert [(row["criterion"], row["actual"]) for row in undecided] == [
            (5, "undecided (node budget)")] * 3


def test_verify_budget_edges_around_the_classification(capsys):
    # budget 0 trips in criterion 4, so the run exits 3; from 8 on every row
    # is decided
    code, doc, _ = run_json(capsys, "--node-budget", "0", "verify", "--suite", "paper", "--json")
    assert (code, doc) == (3, {"error": "node_budget_exceeded", "nodes": 1})
    code, doc, _ = run_json(capsys, "--node-budget", "8", "verify", "--suite", "paper",
                            "--json")
    assert code == 0
    assert (doc["ok"], doc["passed"], doc["failed"], doc["undecided"]) == (True, 54, 0, 0)


def test_verify_internal_error_in_the_classification_fails(capsys, monkeypatch):
    def broken(**kwargs):
        raise RuntimeError("survivor violates the cross-zero condition; "
                           "internal inconsistency")

    monkeypatch.setattr(verify, "classify_b2", broken)
    code, doc, _ = run_json(capsys, "verify", "--suite", "paper", "--json")
    assert code == 1
    assert (doc["ok"], doc["failed"], doc["undecided"]) == (False, 1, 0)
    failed = [row for row in doc["rows"] if row["status"] == "FAIL"]
    assert [row["criterion"] for row in failed] == [5]
    assert "internal inconsistency" in failed[0]["actual"]


def test_unknown_subcommand_is_malformed(capsys):
    code, doc, _ = run_json(capsys, "plot")
    assert code == 2 and doc["error"] == "malformed_input"


def test_help_keeps_stdout_empty(capsys):
    code, out, err = run(capsys, "--help")
    assert code == 0
    assert out == ""
    assert "subcommand" in err


def test_stdout_is_always_one_json_document(capsys):
    invocations = [
        ("algebra", "--u", "3"),
        ("matrices", "--u", "2,1"),
        ("count", "--u", "2", "--axioms", "s1s2"),
        ("enumerate", "--u", "1,1", "--axioms", "s1s5"),
        ("check", "--u", "1", "--op", "meet", "--upto", "5"),
        ("check", "--u", "0,1", "--op", "sigma", "--upto", "1"),
        ("matrices", "--u", "1,1,1,1,1", "--cap", "2"),
        ("verify", "--suite", "paper"),
        ("bogus",),
    ]
    for argv in invocations:
        _, out, err = run(capsys, *argv)
        json.loads(out)
        assert "\n" not in out.strip(), argv
        assert not err.lstrip().startswith("{"), argv


def test_byte_determinism_across_runs_and_thread_counts(capsys):
    base = ("enumerate", "--u", "1,1", "--axioms", "s1s3")
    _, first, _ = run(capsys, *base)
    _, second, _ = run(capsys, *base)
    _, threaded, _ = run(capsys, "--threads", "8", *base)
    assert first == second == threaded
