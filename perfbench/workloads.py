"""The four workloads: seeded inputs, the timed call of each item, and its check.

Every item has a key, a run() that is timed, a summary() of its output that
is checked against the frozen expected value (untimed), and a decided()
verdict.  Items of equal key must give equal summaries in every pass of a
run, traced or not.

Library calls go through module attributes (search.enumerate_s1sk, ...) at
call time, so the wrappers of a traced run see them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from itertools import permutations
from typing import Callable, Optional

from effectalg import cli, operations, search

import expected as X

PAPER_ARGV = ["verify", "--suite", "paper", "--json"]


# Mixed-radix box indexing, coordinate 1 fastest.  Written here rather than
# taken from effectalg.Shape so that the relabelling check does not rest on
# the code it checks.
def _box_index(coords, u) -> int:
    index, place = 0, 1
    for c, ui in zip(coords, u):
        index += c * place
        place *= ui + 1
    return index


def _box_coords(index: int, u) -> tuple[int, ...]:
    out = []
    for ui in u:
        index, c = divmod(index, ui + 1)
        out.append(c)
    return tuple(out)


def orientations(u) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """(v, perm) for each distinct coordinate order v of u, with v[i] = u[perm[i]]."""
    seen = {}
    for perm in permutations(range(len(u))):
        v = tuple(u[j] for j in perm)
        seen.setdefault(v, perm)
    return sorted(seen.items())


def _pick_orientation(u, seed: int, pass_no: int):
    """Passes come in pairs: the pair draws an orientation, and its second
    pass takes the next one, so each pair of passes times a 2-coordinate box
    both ways round."""
    options = orientations(u)
    rng = random.Random(f"orient/{seed}/{pass_no // 2}/{u}")
    j = rng.randrange(len(options)) + pass_no % 2
    return options[j % len(options)]


def relabel_tables(tables, v, u, perm) -> list:
    """Map product tables on [0, v] to [0, u], where v[i] = u[perm[i]]."""
    size = len(tables[0])
    phi = []
    for i in range(size):
        y = _box_coords(i, v)
        x = [0] * len(u)
        for k, p in enumerate(perm):
            x[p] = y[k]
        phi.append(_box_index(x, u))
    out = []
    for t in tables:
        new = [[0] * size for _ in range(size)]
        for a in range(size):
            row = t[a]
            for b in range(size):
                new[phi[a]][phi[b]] = phi[row[b]]
        out.append(new)
    return out


def tables_digest(tables) -> str:
    return hashlib.sha256(json.dumps(sorted(tables)).encode()).hexdigest()


def src_env(root: str) -> dict:
    """The environment with root/src first on PYTHONPATH."""
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Item:
    """Defaults: runs in this process; every checked output is a definite
    answer, with no item-level metrics."""

    spawns = False

    def decided(self, s) -> bool:
        return True

    def layer_metrics(self, s, seconds) -> dict:
        return {}


@dataclass
class S3Count(Item):
    """enumerate_s1sk(v, 3) keeping no operations: the count-only search."""

    u: tuple
    v: tuple

    @property
    def key(self):
        return f"s3-count {self.v}"

    @property
    def expected(self):
        return X.S3_COUNTS[self.u]

    def wrong(self):
        return self.expected + 1

    def run(self):
        return search.enumerate_s1sk(self.v, 3, cap=0)

    def summary(self, res):
        return {"count": res.count, "certificate": res.certificate,
                "kept": res.operations is not None}

    def check(self, s, want) -> Optional[str]:
        if s != {"count": want, "certificate": "exhaustive", "kept": False}:
            return f"got {s}, expected count {want}"
        return None


@dataclass
class S3Write(Item):
    """enumerate_s1sk(v, 3) with every operation, written out as `ea enumerate --out` does."""

    u: tuple
    v: tuple
    perm: tuple
    path: str

    @property
    def key(self):
        return f"s3-write {self.v}"

    @property
    def expected(self):
        return {"count": X.S3_COUNTS[self.u], "digest": X.S3_TABLE_DIGESTS[self.u]}

    def wrong(self):
        return {"count": self.expected["count"], "digest": "0" * 64}

    def run(self):
        text = json.dumps(search.enumerate_s1sk(self.v, 3).to_json())
        with open(self.path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")

    def summary(self, _):
        with open(self.path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        tables = payload["operations"]
        return {"count": int(payload["count"]), "listed": len(tables),
                "certificate": payload["certificate"],
                "digest": tables_digest(relabel_tables(tables, self.v, self.u, self.perm))}

    def check(self, s, want) -> Optional[str]:
        if (s["count"], s["listed"], s["certificate"], s["digest"]) != (
                want["count"], want["count"], "exhaustive", want["digest"]):
            return f"got {s}, expected {want}"
        return None


@dataclass
class S4Decide(Item):
    """exists_s1s4(v); the obstruction-atom theorem says no operation exists."""

    v: tuple
    budget: Optional[int] = None

    @property
    def key(self):
        return f"s4 {self.v}" + (f" budget {self.budget}" if self.budget else "")

    @property
    def expected(self):
        obstructed = max(self.v) >= 2
        allowed = [[False, "exhaustive"]] if obstructed else [[True, "witness"]]
        if self.budget is not None:
            allowed.append([None, "undecided"])
        return allowed

    def wrong(self):
        return [[not self.expected[0][0], "witness"]]

    def run(self):
        if self.budget is None:
            return search.exists_s1s4(self.v)
        return search.exists_s1s4(self.v, node_budget=self.budget)

    def summary(self, res):
        return [res.exists, res.certificate]

    def check(self, s, want) -> Optional[str]:
        return None if s in want else f"got {s}, expected one of {want}"

    def decided(self, s) -> bool:
        return s[0] is not None

    def layer_metrics(self, s, seconds):
        if s[0] is None:
            return {"search.budget_nodes_per_s": (self.budget + 1) / seconds}
        return {}


@dataclass
class TableCheck(Item):
    """op_from_json (decode + validate) then check_axioms(op, 5); witnesses replayed."""

    label: str
    obj: dict

    @property
    def key(self):
        return f"table {self.label}"

    @property
    def expected(self):
        return list(X.TABLE_VERDICTS[self.label])

    def wrong(self):
        return [not self.expected[0]] + self.expected[1:]

    def run(self):
        op = operations.op_from_json(self.obj)
        rep = operations.check_axioms(op, 5)
        replayed = {ax: operations.replay_witness(op, ax, w)
                    for ax, w in rep.results.items() if w is not None}
        return rep, replayed

    def summary(self, out):
        rep, replayed = out
        return {"verdicts": [rep.results[ax] is None for ax in sorted(rep.results)],
                "witnesses": {ax: list(w) for ax, w in rep.results.items() if w is not None},
                "replayed": replayed}

    def check(self, s, want) -> Optional[str]:
        if s["verdicts"] != want:
            return f"verdicts {s['verdicts']}, expected {want}"
        if not all(s["replayed"].values()):
            return f"a witness does not replay: {s['replayed']}"
        return None


@dataclass
class PaperSuite(Item):
    """`ea verify --suite paper --json`, as a subprocess or as an in-process cli.main call."""

    root: str
    in_process: bool = False

    key = "paper-suite"

    @property
    def spawns(self):
        return not self.in_process

    @property
    def expected(self):
        return X.PAPER_ROWS

    def wrong(self):
        return X.PAPER_ROWS + 1

    def run(self):
        if self.in_process:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(PAPER_ARGV)
            return code, out.getvalue().encode()
        proc = subprocess.run([sys.executable, "-m", "effectalg.cli"] + PAPER_ARGV,
                              cwd=self.root, env=src_env(self.root), stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, check=False)
        return proc.returncode, proc.stdout

    def summary(self, out):
        code, stdout = out
        s = {"exit": code, "stdout_bytes": len(stdout),
             "stdout_sha256": hashlib.sha256(stdout).hexdigest()}
        try:
            doc = json.loads(stdout)
        except ValueError:
            return dict(s, json=False)
        rows = doc.get("rows", [])
        s.update(json=True, ok=doc.get("ok"), rows=len(rows),
                 passed=sum(r["status"] == "PASS" and r["expected"] == r["actual"] for r in rows),
                 failed=doc.get("failed"), undecided=doc.get("undecided"))
        return s

    def check(self, s, want) -> Optional[str]:
        if s["exit"] != 0 or not s["json"]:
            return f"exit {s['exit']}, stdout JSON {s['json']}"
        if (s["ok"], s["rows"], s["passed"], s["failed"], s["undecided"]) != (True, want, want, 0, 0):
            return f"expected {want} passing rows, got {s}"
        return None

    def decided(self, s) -> bool:
        return s.get("undecided") == 0

    def layer_metrics(self, s, seconds):
        return {"cli.stdout_bytes": s["stdout_bytes"]}


def cube_meet(rank: int, rng: random.Random) -> dict:
    """Boolean cube 2^rank as a relabelled table algebra with the meet table.

    Element x is a bitmask: x (+) y = x | y when x & y = 0, and x o y = x & y.
    """
    n = 1 << rank
    lab = list(range(n))
    rng.shuffle(lab)
    sums = [[0] * n for _ in range(n)]
    table = [[0] * n for _ in range(n)]
    for a in range(n):
        la = lab[a]
        for b in range(n):
            sums[la][lab[b]] = lab[a | b] if a & b == 0 else -1
            table[la][lab[b]] = lab[a & b]
    return {"algebra": {"type": "table", "size": n, "zero": lab[0], "one": lab[n - 1],
                        "sum": sums}, "table": table}


def hsum_sigma(chains, rng: random.Random) -> dict:
    """Horizontal sum of the chains C_n (n in `chains`), glued at 0 and 1,
    as a relabelled table algebra with the sigma table (0 o b = 0, a o b = b).

    Elements: 0, 1, then (i, k) = k times the atom of chain i, 0 < k < n_i.
    """
    elems = [None, "one"] + [(i, k) for i, n in enumerate(chains) for k in range(1, n)]
    index = {e: j for j, e in enumerate(elems)}
    n = len(elems)

    def add(x, y):
        if x is None:
            return y
        if y is None:
            return x
        if x == "one" or y == "one" or x[0] != y[0]:
            return -1
        k = x[1] + y[1]
        top = chains[x[0]]
        return (x[0], k) if k < top else ("one" if k == top else -1)

    lab = list(range(n))
    rng.shuffle(lab)
    sums = [[0] * n for _ in range(n)]
    table = [[0] * n for _ in range(n)]
    for a, x in enumerate(elems):
        for b, y in enumerate(elems):
            z = add(x, y)
            sums[lab[a]][lab[b]] = -1 if z == -1 else lab[index[z]]
            table[lab[a]][lab[b]] = lab[0] if x is None else lab[b]
    return {"algebra": {"type": "table", "size": n, "zero": lab[0], "one": lab[1],
                        "sum": sums}, "table": table}


@dataclass
class Workload:
    name: str
    make: Callable[[int, int], list]
    # In-process variant for the traced run, when the timed pass is a subprocess.
    traced: Optional[Callable[[int], list]] = None


def _shuffled(items: list, seed: int, pass_no: int) -> list:
    random.Random(f"order/{seed}/{pass_no}").shuffle(items)
    return items


def build(name: str, root: str, out_dir: str) -> Workload:
    if name == "paper-suite":
        return Workload(name, lambda seed, p: [PaperSuite(root)],
                        traced=lambda seed: [PaperSuite(root, in_process=True)])

    if name == "s3-enumerate":
        def make(seed, p):
            items = []
            for u in X.S3_COUNTS:
                v, _ = _pick_orientation(u, seed, p)
                items.append(S3Count(u, v))
            for u in X.S3_TABLE_DIGESTS:
                v, perm = _pick_orientation(u, seed, p)
                path = os.path.join(out_dir, "s3-write-" + "x".join(map(str, v)) + ".json")
                items.append(S3Write(u, v, perm, path))
            return _shuffled(items, seed, p)
        return Workload(name, make)

    if name == "s4-decide":
        def make(seed, p):
            items = [S4Decide(_pick_orientation(u, seed, p)[0]) for u in X.S4_SHAPES]
            v, _ = _pick_orientation(X.S4_BUDGET_SHAPE, seed, p)
            items.append(S4Decide(v, budget=X.S4_BUDGET))
            return _shuffled(items, seed, p)
        return Workload(name, make)

    if name == "table-check":
        inputs = {}

        def make(seed, p):
            if seed not in inputs:
                rng = random.Random(f"tables/{seed}")
                inputs[seed] = [TableCheck("cube-meet", cube_meet(X.CUBE_RANK, rng)),
                                TableCheck("hsum-sigma", hsum_sigma(X.HSUM_CHAINS, rng))]
            return _shuffled(list(inputs[seed]), seed, p)
        return Workload(name, make)

    raise ValueError(f"unknown workload {name!r}")
