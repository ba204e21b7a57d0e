"""Fuzzing the subcommands that read a file: whatever the file holds, `ea`
prints exactly one JSON document on stdout and exits 0, 1, 2 or 3.

Inputs are arbitrary JSON, raw text that need not parse, and valid algebra
and operation documents with up to three entries replaced, nudged or
dropped, which reach the deeper validation paths.  Integers and lists stay
small so every example runs in milliseconds; the size caps have their own
tests.
"""

import copy
import io
import json
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import given, settings
from hypothesis import strategies as st

from effectalg import fixture_path
from effectalg.cli import main

JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 3) | st.floats(allow_nan=True)
    | st.text(max_size=4),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=5), children, max_size=4),
    max_leaves=12,
)


def _fixture(name):
    return json.loads(fixture_path(name).read_text(encoding="utf-8"))


SEEDS = [
    {"type": "simplicial", "u": [2, 1]},
    _fixture("mo2"),
    {"algebra": {"type": "simplicial", "u": [1, 1]},
     "rows": {"0": [[0, 0], [0, 0]], "1": [[0, 1], [1, 0]],
              "2": [[0, 1], [1, 0]], "3": [[1, 0], [0, 1]]}},
    {"algebra": _fixture("c2"), "table": [[0, 0, 0], [0, 1, 2], [0, 1, 2]]},
]


def _paths(doc, prefix=()):
    """The path to every node of a JSON document, root first."""
    yield prefix
    items = doc.items() if isinstance(doc, dict) else (
        enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield from _paths(value, prefix + (key,))


@st.composite
def mutated(draw, seed):
    """seed with up to three nodes replaced by arbitrary JSON, nudged (an
    integer) or dropped (a dict entry or list item)."""
    doc = copy.deepcopy(seed)
    for _ in range(draw(st.integers(0, 3))):
        path = draw(st.sampled_from(list(_paths(doc))))
        kind = draw(st.sampled_from(["replace", "nudge", "drop"]))
        if not path:
            doc = draw(JSON)
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        old = parent[path[-1]]
        if kind == "drop":
            del parent[path[-1]]
        elif kind == "nudge" and isinstance(old, int) and not isinstance(old, bool):
            parent[path[-1]] = old + draw(st.integers(-2, 2))
        else:
            parent[path[-1]] = draw(JSON)
    return doc


DOCUMENTS = st.sampled_from(SEEDS).flatmap(mutated).map(json.dumps) | JSON.map(json.dumps)
TEXTS = DOCUMENTS | st.text(max_size=20)


def _assert_one_document(argv):
    stdout = io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(io.StringIO()):
        code = main(argv)
    out = stdout.getvalue()
    assert code in (0, 1, 2, 3), (argv, code)
    assert out.endswith("\n") and out.count("\n") == 1, (argv, out)
    json.loads(out)


@settings(max_examples=100, deadline=None)
@given(text=TEXTS, upto=st.integers(1, 5), named=st.sampled_from(["sigma", "meet", "tau:2,1"]))
def test_every_file_input_gets_one_json_document_and_a_contract_exit_code(text, upto, named):
    fd, path = tempfile.mkstemp(suffix=".json")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        _assert_one_document(["algebra", "--file", path])
        _assert_one_document(["check", "--algebra", path, "--op", named,
                              "--upto", str(upto)])
        _assert_one_document(["check", "--op", path, "--upto", str(upto)])
    finally:
        os.unlink(path)


def test_a_deeply_nested_file_is_malformed_input():
    # json.load gives up on this nesting with RecursionError
    fd, path = tempfile.mkstemp(suffix=".json")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write("[" * 200000)
        for argv in (["algebra", "--file", path],
                     ["check", "--algebra", path, "--op", "meet", "--upto", "1"],
                     ["check", "--op", path, "--upto", "1"]):
            _assert_one_document(argv)
            stdout = io.StringIO()
            with redirect_stdout(stdout), redirect_stderr(io.StringIO()):
                assert main(argv) == 2
            assert json.loads(stdout.getvalue())["error"] == "malformed_input"
    finally:
        os.unlink(path)
