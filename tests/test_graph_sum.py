"""S1-S3 counts on boxes by a second route: a sum over annihilation graphs.

In an S1-S3 operation on a box E_u, elements of equal support have equal
zero-column classes (test_search_oracle checks this on the pool-index
oracle's listings).  Call the class of support {j} N(j).  S3 between
singletons makes N symmetric, a looped graph G on the r coordinates, and
the class of support s is its common neighbourhood CN_G(s), the j adjacent
to every i in s.  Conversely every graph gives classes that pass S3, since
"s x t lies inside the edges" is symmetric in s and t.  So

    count(u) = sum over G of prod over s != {} of W_u(CN_G(s)) ** m_s

where W_u(Z) is the number of nonzero u-subunital matrices with zero-column
set exactly Z, and m_s = prod_{i in s} u_i is the number of elements of
support s, less 1 for the top.  u = (1) has no middle element: its count is 1.

W_u comes from the per-row lists of maps.enumerate_rows, not from the
library's search or its candidate lists.  The search walks the same graphs
(search._s3_assignments), and a test below reads them off it one by one.
"""

import hashlib
from functools import reduce
from math import prod
from operator import and_

import pytest

from effectalg import enumerate_s1sk, search
from effectalg.maps import enumerate_rows


def class_sizes(u):
    """W_u: per zero-column set Z (bit j for column j), the number of
    nonzero u-subunital matrices whose zero columns are exactly Z."""
    full = (1 << len(u)) - 1
    sizes = {full: 1}  # the empty product of rows: every column zero so far
    for ui in u:
        row_zeros = [sum(1 << j for j, a in enumerate(row) if not a)
                     for row in enumerate_rows(u, ui)]
        folded = {}
        for z, count in sizes.items():
            for rz in row_zeros:
                folded[z & rz] = folded.get(z & rz, 0) + count
        sizes = folded
    sizes[full] -= 1  # the zero matrix
    return sizes


def graph_terms(u):
    """Yield (N(i) per coordinate i as a bitmask, the graph's term) for every
    looped graph on the coordinates."""
    r = len(u)
    full = (1 << r) - 1
    sizes = class_sizes(u)
    m = [prod(u[i] for i in range(r) if s >> i & 1) - (s == full) for s in range(full + 1)]
    pairs = [(i, j) for i in range(r) for j in range(i, r)]
    for graph in range(1 << len(pairs)):
        neighbours = [0] * r
        for bit, (i, j) in enumerate(pairs):
            if graph >> bit & 1:
                neighbours[i] |= 1 << j
                neighbours[j] |= 1 << i
        common = [full] * (full + 1)
        term = 1
        for s in range(1, full + 1):
            low = s & -s
            common[s] = common[s ^ low] & neighbours[low.bit_length() - 1]
            if m[s]:
                term *= sizes.get(common[s], 0) ** m[s]
                if not term:
                    break
        yield tuple(neighbours), term


def graph_count(u):
    if tuple(u) == (1,):
        return 1
    return sum(term for _, term in graph_terms(u))


BOXES = [(1,), (2,), (3,), (1, 1), (2, 1), (3, 1), (2, 2), (3, 3), (5, 4), (9, 2),
         (1, 1, 1), (2, 1, 1), (2, 2, 1), (2, 2, 2), (3, 2, 1),
         (1, 1, 1, 1), (2, 1, 1, 1), (2, 2, 1, 1), (1, 1, 1, 1, 1), (2, 1, 1, 1, 1)]


@pytest.mark.parametrize("u", BOXES, ids=lambda u: ",".join(map(str, u)))
def test_the_graph_sum_matches_the_class_search(u):
    assert graph_count(u) == enumerate_s1sk(u, 3, cap=0).count


@pytest.mark.parametrize("u", [u for u in BOXES if u != (1,)],
                         ids=lambda u: ",".join(map(str, u)))
def test_the_walk_yields_the_graphs_of_the_sum(u):
    # the search's coordinate walk, read graph by graph: exactly the graphs
    # with a nonzero term, each once and weighted by its term, with the set
    # of every support its common neighbourhood (every column at the empty
    # support, element 0's).  (1) has no middle element and no graph to walk
    pool = search._Pool(u)
    full = (1 << len(u)) - 1
    walked = {}
    for common, weight in search._s3_assignments(pool, search._candidates(pool, 3),
                                                 10**9, charge_leaves=False):
        neighbours = tuple(common[1 << i] for i in range(len(u)))
        assert neighbours not in walked, (u, neighbours)
        walked[neighbours] = weight
        assert common[0] == full
        for s in range(1, full + 1):
            assert common[s] == reduce(and_, (nb for i, nb in enumerate(neighbours) if s >> i & 1))
    assert walked == {nb: term for nb, term in graph_terms(u) if term}


B5_DIGEST = "7ffdf23d9fd44033fced078e942aed5b0b3b6cea554980c6cc458dbdadf9497c"


def test_frozen_graph_counts():
    assert graph_count((2, 1, 1)) == 1_023_774_248
    assert graph_count((2, 2, 1)) == 8_233_439_892_096
    assert graph_count((1, 1, 1, 1)) == 9_244_438_626_396_048_335_732_736
    # B5's 76-digit count, pinned by the sha256 of its decimal text; CI's
    # B5 step pins the CLI's count by the same digest
    text = str(graph_count((1, 1, 1, 1, 1)))
    assert len(text) == 76
    assert hashlib.sha256(text.encode()).hexdigest() == B5_DIGEST


def test_the_boolean_square_splits_by_graph():
    # the paper's 34 on B2: 9 with the edge between the two atoms p and q,
    # where p o q = 0, and 25 without it, 4 + 6 + 6 + 9 by the loops at p
    # (p o p = 0) and q (q o q = 0)
    def key(neighbours):
        return (neighbours[0] >> 1 & 1, neighbours[0] & 1, neighbours[1] >> 1 & 1)

    by_graph = {key(nb): term for nb, term in graph_terms((1, 1))}
    assert sum(t for (edge, _, _), t in by_graph.items() if edge) == 9
    assert [by_graph[0, loop_p, loop_q] for loop_p in (0, 1) for loop_q in (0, 1)] == [
        4, 6, 6, 9]
    # the library's 34 operations, read through p o q, p o p and q o q
    p, q = 1, 2
    listed = {}
    for op in enumerate_s1sk((1, 1), 3).operations:
        table = op.product_table()
        graph = (int(table[p][q] == 0), int(table[p][p] == 0), int(table[q][q] == 0))
        listed[graph] = listed.get(graph, 0) + 1
    assert listed == {g: t for g, t in by_graph.items() if t}
