"""Re-derive every frozen value in expected.py by its second route.

    python3 perfbench/freeze.py

Prints one line per value and exits 1 if any disagrees.  It takes about a
minute: every box is searched in every coordinate order.
"""

from __future__ import annotations

import json
import os
import random
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import effectalg as ea  # noqa: E402

import expected as X  # noqa: E402
from workloads import cube_meet, hsum_sigma, orientations, relabel_tables, tables_digest  # noqa: E402

TESTS_FROZEN_S3 = {(2, 2): 2000}  # tests/test_search.py::test_frozen_counts_on_wider_boxes
RELABEL_SEEDS = range(5)


def report(what: str, got, want) -> bool:
    print(f"{'ok      ' if got == want else 'MISMATCH'} {what}: {got} (frozen {want})")
    return got == want


def main() -> int:
    ok = True
    for u, want in X.S3_COUNTS.items():
        for v, perm in orientations(u):
            if u in X.S3_TABLE_DIGESTS:
                res = ea.enumerate_s1sk(v, 3)
                tables = [[list(r) for r in op.product_table()] for op in res.operations]
                ok &= report(f"S1-S3 tables on {v} as {u}",
                             tables_digest(relabel_tables(tables, v, u, perm)),
                             X.S3_TABLE_DIGESTS[u])
            else:
                res = ea.enumerate_s1sk(v, 3, cap=0)
            ok &= report(f"S1-S3 count on {v}", res.count, want)
        if u in TESTS_FROZEN_S3:
            ok &= report(f"S1-S3 count on {u} frozen in the tests", TESTS_FROZEN_S3[u], want)

    for u in X.S4_SHAPES + (X.S4_BUDGET_SHAPE,):
        # Theorem: an atom of isotropic index >= 2 rules out S1-S4 operations.
        ok &= report(f"obstruction atom on {u}", ea.has_obstruction_atom(ea.make_simplicial(u)),
                     max(u) >= 2)
    for u in X.S4_SHAPES:
        for v, _ in orientations(u):
            res = ea.exists_s1s4(v)
            ok &= report(f"S1-S4 on {v}", [res.exists, res.certificate], [False, "exhaustive"])

    for seed in RELABEL_SEEDS:
        rng = random.Random(f"tables/{seed}")
        inputs = {"cube-meet": cube_meet(X.CUBE_RANK, rng),
                  "hsum-sigma": hsum_sigma(X.HSUM_CHAINS, rng)}
        for label, obj in inputs.items():
            op = ea.op_from_json(json.loads(json.dumps(obj)))
            rep = ea.check_axioms(op, 5)
            verdicts = tuple(rep.results[ax] is None for ax in sorted(rep.results))
            ok &= report(f"{label} verdicts, labelling {seed}", verdicts, X.TABLE_VERDICTS[label])
            for ax, w in rep.results.items():
                if w is not None:
                    ok &= report(f"{label} {ax} witness {w} replays",
                                 ea.replay_witness(op, ax, w), True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
