"""Frozen expected outputs, each with the second route that confirmed it.

`python3 perfbench/freeze.py` re-derives every value here by its second route
and exits non-zero on any disagreement.

* S3 counts: the count on a shape equals the count on its coordinate swap
  (a swap is an isomorphism of the box); (2,2) -> 2000 is also frozen in
  tests/test_search.py.
* S3 operation sets: the sorted list of product tables, relabelled into the
  shape's listed coordinate order, hashes to the same digest from every
  orientation.
* S4 verdicts: the obstruction-atom theorem.  A box whose largest coordinate
  is at least 2 has an atom of isotropic index >= 2 and carries no S1-S4
  operation, so `exists` must be False (or None when a budget trips).
* Table verdicts: the S1..S5 pass/fail pattern is the same under every
  relabelling of the carrier, and every witness replays.
"""

S3_COUNTS = {
    (4, 1): 13133,
    (5, 2): 6277,
    (6, 4): 1541,
    (2, 2): 2000,
    (4, 2): 1277,
    (3, 1): 695,
    (5, 4): 569,
    (5, 3): 515,
    (4, 3): 191,
}

# sha256 of json.dumps(sorted(tables)) with tables in the listed orientation.
S3_TABLE_DIGESTS = {
    (2, 2): "25e4d5847ac7c55f9979a4cfba396ebaa28ef0e60e43eca0755728fcbd0db66d",
    (4, 2): "285e191af1bfc2d95c170ae69e0218e7dd7372ee441e925e93ffb026ff15b264",
}

S4_SHAPES = ((4, 1), (2, 2), (3, 1))
S4_BUDGET_SHAPE = (2, 1, 1)
S4_BUDGET = 5 * 10**3

# S1..S5 verdicts: True = pass.
TABLE_VERDICTS = {
    "cube-meet": (True, True, True, True, True),
    "hsum-sigma": (True, True, True, False, False),
}
CUBE_RANK = 8
HSUM_CHAINS = tuple(range(2, 17))  # C2 .. C16 glued at 0 and 1: 122 elements

PAPER_ROWS = 54
