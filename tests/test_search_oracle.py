"""The zero-column-class search core against the pool-index search it replaced.

pool_index_survivors below is the earlier depth-first search, kept here as an
oracle: it narrows, per element, the bitmask of pool matrices still allowed,
one node per matrix tried.  The library narrows sets of zero-column classes
instead, and counts S1-S3 operations by class weights.  Listing must give the
same operations in the same order, every count must agree, and a node budget
must trip exactly where the oracle's does.
"""

import pytest

from effectalg import NodeBudgetExceeded, enumerate_s1sk, exists_s1s4, make_simplicial
from effectalg import search
from effectalg.maps import enumerate_subunital
from effectalg.operations import _identity, check_s4, check_s5, matrix_actions


def pool_index_survivors(alg, pool, k, node_budget, stats=None):
    """Yield (pool indices of rows 0..N-2, product table) for every S1..Sk
    operation, depth-first over pool indices; stats["nodes"] gets the node
    count of a complete run."""
    n = alg.size
    npool = len(pool)
    action = matrix_actions(alg, pool)
    top_row = tuple(range(n))
    zmask = [0] * npool
    rows_zero_at = [0] * n
    for mi, act in enumerate(action):
        for b, t in enumerate(act):
            if t == 0:
                zmask[mi] |= 1 << b
                rows_zero_at[b] |= 1 << mi
    leaf_checks = (check_s4, check_s5)[:k - 3]
    top_zero = rows_zero_at[n - 1]
    allowed = [top_zero] + [((1 << npool) - 1) & ~top_zero] * (n - 2)
    if not all(allowed):
        return
    last = n - 2
    choice = [0] * (n - 1)
    allowed_at = [allowed] + [None] * last
    untried = [allowed[0]] + [0] * last
    nodes = 0
    pos = 0
    while pos >= 0:
        m = untried[pos]
        if not m:
            pos -= 1
            continue
        low = m & -m
        untried[pos] = m ^ low
        mi = low.bit_length() - 1
        nodes += 1
        if nodes > node_budget:
            raise NodeBudgetExceeded("over budget", nodes=nodes)
        choice[pos] = mi
        if pos == last:
            table = tuple(action[i] for i in choice) + (top_row,)
            if not any(check(alg, table) for check in leaf_checks):
                yield tuple(choice), table
            continue
        zm = zmask[mi]
        narrowed = allowed_at[pos].copy()
        for a in range(pos + 1, n - 1):
            if (zm >> a) & 1:
                na = narrowed[a] & rows_zero_at[pos]
            else:
                na = narrowed[a] & ~rows_zero_at[pos]
            if na == 0:
                break
            narrowed[a] = na
        else:
            pos += 1
            allowed_at[pos] = narrowed
            untried[pos] = narrowed[pos]
    if stats is not None:
        stats["nodes"] = nodes


def _oracle(u, k, node_budget=10**9):
    """(pool, survivors, nodes of the complete run); a budget trip raises."""
    alg = make_simplicial(u)
    pool = [M.rows for M in enumerate_subunital(u, u)]
    stats = {}
    leaves = list(pool_index_survivors(alg, pool, k, node_budget, stats))
    return pool, leaves, stats["nodes"]


SHAPES = [(1,), (2,), (3,), (4,), (1, 1), (2, 1), (3, 1), (2, 2), (4, 1), (3, 2)]


@pytest.mark.parametrize("u", SHAPES)
def test_listing_and_counts_match_the_oracle(u):
    ident = _identity(len(u))
    for k in (3, 4, 5):
        pool, leaves, _ = _oracle(u, k)
        res = enumerate_s1sk(u, k)
        assert res.count == len(leaves), (u, k)
        assert res.certificate == "exhaustive"
        # same operations in the same order, with the same matrices
        assert [op.product_table() for op in res.operations] == [t for _, t in leaves]
        assert [op.matrices for op in res.operations] == [
            tuple(pool[i] for i in choice) + (ident,) for choice, _ in leaves]
        assert enumerate_s1sk(u, k, cap=0).count == len(leaves), (u, k)


def _outcome(count, u, k, budget):
    try:
        return "done", count(u, k, budget)
    except NodeBudgetExceeded as exc:
        return "budget", exc.nodes


def test_budget_trips_where_the_oracle_trips():
    def oracle_count(u, k, budget):
        return len(_oracle(u, k, budget)[1])

    def library_count(u, k, budget):
        return enumerate_s1sk(u, k, node_budget=budget).count

    for u in [(2, 2), (3, 1), (2, 1, 1)]:
        for k in (4, 5):
            for budget in (1, 37, 1000, 5000):
                want = _outcome(oracle_count, u, k, budget)
                assert _outcome(library_count, u, k, budget) == want, (u, k, budget)
                undecided = exists_s1s4(u, node_budget=budget).exists is None
                assert undecided == (want[0] == "budget"), (u, k, budget)


def test_node_count_of_a_complete_run_matches_the_oracle():
    # a complete run of T nodes passes at budget T and trips at T - 1; at
    # k = 3 the listing pass is the one with the oracle's nodes
    for u in [(2, 2), (3, 1)]:
        for k in (3, 4, 5):
            _, leaves, total = _oracle(u, k)
            assert enumerate_s1sk(u, k, node_budget=total).count == len(leaves)
            with pytest.raises(NodeBudgetExceeded) as exc:
                enumerate_s1sk(u, k, node_budget=total - 1)
            assert exc.value.nodes == total


def test_frozen_class_counts():
    # (3, 3) and (1, 1, 1) were each confirmed once by a complete run of the
    # oracle above with no budget (about 2 s and 40 s)
    res = enumerate_s1sk((3, 3), 3, cap=0)
    assert (res.count, res.certificate, res.operations) == (500224, "exhaustive", None)
    assert enumerate_s1sk((1, 1, 1), 3, cap=0).count == 14250600


def test_a_long_chain_does_not_recurse():
    # 1499 rows deep: a recursive search would overflow the interpreter stack
    assert enumerate_s1sk((1500,), 3, cap=0).count == 1


def test_counting_builds_no_table(monkeypatch):
    def no_tables(*args, **kwargs):
        raise AssertionError("a product table was built for a count")

    monkeypatch.setattr(search, "matrix_actions", no_tables)
    for cap in (0, 33):
        res = enumerate_s1sk((1, 1), 3, cap=cap)
        assert (res.count, res.operations) == (34, None)
    monkeypatch.undo()
    # a count equal to the cap is listed in full
    assert len(enumerate_s1sk((1, 1), 3, cap=34).operations) == 34
