"""The coordinate-walk search core against the pool-index search it replaced.

pool_index_survivors below is the earlier depth-first search, kept here as an
oracle: it narrows, per element, the bitmask of pool matrices still allowed,
one node per matrix tried.  The library instead walks the coordinates,
picking one neighbourhood of a looped graph at each, with one node per
neighbourhood tried, and counts S1-S3 operations by graph weights.  Listing
must give the same operations in the same order, every count must agree,
and the leaves an S4/S5 search charges to its node budget must be the
oracle's leaves.  The oracle's own listings check the support lemma the
walk rests on; tests/test_graph_sum.py checks the walk graph by graph.

For k >= 4 the library tries for row a only pool matrices with M u = a (S4 at
the instance (a, 0)).  Without masks the oracle walks every S3 leaf and is the
survivor-identity check; with right_unit_masks, computed here from the
matrices themselves, it walks the library's smaller tree node for node.

The oracle's pool is enumerate_subunital's list of SubunitalMatrix rows, and
its product-table rows come from coordinate_actions, which forms every M x as
a coordinate tuple and looks up its index.  The library builds its pool from
the per-row lists, reads its zero columns and M u indices as folds over the
row choices, and expands each action row from M's column indices; all of
these are compared with the oracle's directly below.
"""

import json
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from effectalg import (CapExceeded, NodeBudgetExceeded, enumerate_s1sk, exists_s1s4,
                       from_full_table, has_obstruction_atom, make_simplicial, meet_boolean,
                       sigma_universal, tau_perm)
from effectalg import maps, search
from effectalg.algebra import Shape
from effectalg.cli import main
from effectalg.maps import enumerate_subunital
from effectalg.operations import _identity, check_s4, check_s5, matrix_actions


def coordinate_actions(alg, matrices):
    """Per matrix, the index of M x for every x in canonical order, each M x
    formed as a coordinate tuple: the reference for matrix_actions."""
    coords = alg.shape.all_coords
    index_of = alg.shape.index_of
    return tuple(
        tuple(index_of(tuple(sum(m * c for m, c in zip(row, x)) for row in M))
              for x in coords)
        for M in matrices
    )


def right_unit_masks(alg, pool):
    """Per element a in 0..N-2, the bitmask of pool indices with M u = a."""
    u = alg.shape.u
    image = [tuple(sum(m * c for m, c in zip(row, u)) for row in M) for M in pool]
    return [sum(1 << mi for mi, x in enumerate(image) if x == coords)
            for coords in alg.shape.all_coords[:-1]]


def pool_index_survivors(alg, pool, k, stats=None, masks=None):
    """Yield (pool indices of rows 0..N-2, product table) for every S1..Sk
    operation, depth-first over pool indices, row a restricted to masks[a]
    when masks is given; stats["leaves"] gets the number of S3 leaves of a
    complete run."""
    n = alg.size
    npool = len(pool)
    action = coordinate_actions(alg, pool)
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
    if masks is not None:
        allowed = [a & m for a, m in zip(allowed, masks)]
    if not all(allowed):
        return
    last = n - 2
    choice = [0] * (n - 1)
    allowed_at = [allowed] + [None] * last
    untried = [allowed[0]] + [0] * last
    leaves = 0
    pos = 0
    while pos >= 0:
        m = untried[pos]
        if not m:
            pos -= 1
            continue
        low = m & -m
        untried[pos] = m ^ low
        mi = low.bit_length() - 1
        choice[pos] = mi
        if pos == last:
            leaves += 1
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
        stats["leaves"] = leaves


def _oracle(u, k, filtered=False):
    """(pool, survivors, S3 leaves of the complete run).  filtered restricts
    rows by right_unit_masks, as the library does for k >= 4."""
    alg = make_simplicial(u)
    pool = [M.rows for M in enumerate_subunital(u, u)]
    masks = right_unit_masks(alg, pool) if filtered else None
    stats = {"leaves": 0}  # kept when the search ends before its first node
    survivors = list(pool_index_survivors(alg, pool, k, stats, masks))
    return pool, survivors, stats["leaves"]


SHAPES = [(1,), (2,), (3,), (4,), (1, 1), (2, 1), (3, 1), (2, 2), (4, 1), (3, 2)]


@pytest.mark.parametrize("u", SHAPES)
def test_listing_and_counts_match_the_oracle(u):
    alg, ident = make_simplicial(u), _identity(len(u))
    for k in (3, 4, 5):
        pool, leaves, _ = _oracle(u, k)
        res = enumerate_s1sk(u, k)
        assert res.count == len(leaves), (u, k)
        assert res.certificate == "exhaustive"
        # same operations in the same order, with the same matrices
        assert [op.product_table() for op in res.operations] == [t for _, t in leaves]
        assert [from_full_table(alg, op.product_table()) for op in res.operations] == [
            tuple(pool[i] for i in choice) + (ident,) for choice, _ in leaves]
        assert enumerate_s1sk(u, k, cap=0).count == len(leaves), (u, k)
        if k >= 4:
            # the right-unit masks drop no S1-Sk operation
            assert _oracle(u, k, filtered=True)[1] == leaves, (u, k)


@pytest.mark.parametrize("u", SHAPES)
def test_elements_of_equal_support_take_equal_classes(u):
    # the lemma the walk rests on, read off the oracle's listing with
    # no library search: in an S1-S3 operation, S3 between a and b of support
    # {j} says j lies in Z_a iff supp(a) lies in Z_b, so elements of equal
    # support have equal zero-column classes
    alg = make_simplicial(u)
    pool = [M.rows for M in enumerate_subunital(u, u)]
    zero_columns = [sum(1 << j for j in range(len(u)) if not any(row[j] for row in M))
                    for M in pool]
    supports = [sum(1 << j for j, x in enumerate(coords) if x)
                for coords in alg.shape.all_coords]
    for choice, _ in pool_index_survivors(alg, pool, 3):
        class_of = {}
        for s, i in zip(supports, choice):
            assert class_of.setdefault(s, zero_columns[i]) == zero_columns[i], (u, choice)


def _trips(run, budget):
    """Whether run(budget) crosses its node budget; a trip reports budget + 1."""
    try:
        run(budget)
    except NodeBudgetExceeded as exc:
        assert exc.nodes == budget + 1
        return True
    return False


def _complete_nodes(run):
    """T, the nodes of a complete run: the least budget run finishes within."""
    lo, hi = -1, 0  # run trips at lo (none at -1) and finishes at hi
    while _trips(run, hi):
        lo, hi = hi, 2 * hi + 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if _trips(run, mid) else (lo, mid)
    return hi


def _listing(u, k):
    return lambda budget: enumerate_s1sk(u, k, node_budget=budget).count


def _counting(u):
    return lambda budget: enumerate_s1sk(u, 3, cap=0, node_budget=budget).count


def test_node_count_of_a_complete_run_matches_the_oracle():
    # a complete run of T nodes passes at budget T and trips at T - 1,
    # reporting T.  T is the neighbourhoods tried at coordinates plus, at
    # k >= 4, one node per leaf, so T less the nodes of the walk alone is
    # the oracle's count of S3 leaves over the right-unit-filtered tree at
    # k >= 4, and nothing at k = 3, where a listing charges no leaf
    runs = [(u, 3) for u in [(2, 2), (3, 1)]]
    runs += [(u, k) for u in [(1, 1), (3, 1), (2, 1, 1), (1, 1, 1)] for k in (4, 5)]
    totals = {}
    for u, k in runs:
        _, survivors, leaves = _oracle(u, k, filtered=k >= 4)
        run = _listing(u, k)
        total = _complete_nodes(run)
        assert run(total) == len(survivors), (u, k)
        assert total == 0 or _trips(run, total - 1), (u, k)
        pool = search._Pool(u)
        candidates = search._candidates(pool, k)
        walked = _complete_nodes(lambda budget: list(search._s3_assignments(
            pool, candidates, budget, charge_leaves=False)))
        assert total - walked == (leaves if k >= 4 else 0), (u, k)
        totals[u, k] = total
    # (2, 2) and (3, 1) list in 8 neighbourhoods tried each; (1, 1) and
    # (1, 1, 1) keep one survivor each at k = 4 and 5
    assert totals == {((2, 2), 3): 8, ((3, 1), 3): 8, ((1, 1), 4): 6, ((1, 1), 5): 6,
                      ((3, 1), 4): 1, ((3, 1), 5): 1, ((2, 1, 1), 4): 4, ((2, 1, 1), 5): 4,
                      ((1, 1, 1), 4): 44, ((1, 1, 1), 5): 44}
    assert [len(_oracle(u, k, filtered=True)[1]) for u in [(1, 1), (1, 1, 1)]
            for k in (4, 5)] == [1, 1, 1, 1]


def test_budget_trips_below_the_node_count_of_a_complete_run():
    # from a complete run's T nodes up every budget finishes, with the
    # oracle's count, and below T every budget trips; on an obstructed box
    # exists_s1s4 is undecided exactly below T
    trips = 0
    for u in [(2, 2), (3, 1), (2, 1, 1), (1, 1, 1), (2, 1, 1, 1)]:
        obstructed = has_obstruction_atom(make_simplicial(u))
        for k in (4, 5):
            count = len(_oracle(u, k, filtered=True)[1])
            run = _listing(u, k)
            total = _complete_nodes(run)
            for budget in (1, 37, 1000, 5000):
                assert _trips(run, budget) if budget < total else run(budget) == count
                if obstructed:
                    undecided = exists_s1s4(u, node_budget=budget).exists is None
                    assert undecided == (budget < total), (u, k, budget)
                trips += budget < total
    # (2, 1, 1) and (2, 1, 1, 1) trip at budget 1, (1, 1, 1) also at 37
    assert trips == 8
    # a k = 3 listing trips below the count-only run's T and finishes at it
    for u in [(2, 2), (3, 1)]:
        count = len(_oracle(u, 3)[1])
        run = _listing(u, 3)
        total = _complete_nodes(_counting(u))
        for budget in (1, total - 1, total, 37):
            assert _trips(run, budget) if budget < total else run(budget) == count


@pytest.mark.parametrize("u", [(2, 2), (3, 1), (1, 1), (2, 1, 1)])
def test_a_k3_listing_takes_the_nodes_of_its_count(u):
    # a graph's weight is its number of operations, so a k = 3 listing
    # charges no node per leaf: it finishes at exactly the count-only run's
    # nodes, with every operation counted listed when the count is within
    # cap.  (2, 1, 1) has 1,023,774,248, over the default cap, and lists none
    total = _complete_nodes(_counting(u))
    assert _complete_nodes(_listing(u, 3)) == total
    res = enumerate_s1sk(u, 3, node_budget=total)
    if res.count <= search.DEFAULT_OP_CAP:
        assert len(res.operations) == res.count
    else:
        assert (u, res.count, res.operations) == ((2, 1, 1), 1_023_774_248, None)


def test_an_index_level_obstruction_ends_the_search_at_zero_nodes():
    # on (2, 2) no pool matrix has M u = (1, 0), so no S1-S4 row exists for
    # that element and the search ends before its first node
    alg = make_simplicial((2, 2))
    pool = [M.rows for M in enumerate_subunital((2, 2), (2, 2))]
    assert right_unit_masks(alg, pool)[alg.shape.index_of((1, 0))] == 0
    res = exists_s1s4((2, 2), node_budget=0)
    assert (res.exists, res.certificate) == (False, "exhaustive")


def test_frozen_s4_s5_counts_on_boolean_boxes():
    # the meet is the only S1-S4 (and S1-S5) operation on B2 and B3.  (1, 1)
    # is confirmed by the unfiltered oracle in the listing test above; (1, 1, 1)
    # was confirmed once by a complete unfiltered oracle run over its
    # 14,250,600 S3 leaves, with S5 checked on its S4 survivors
    for u in [(1, 1), (1, 1, 1)]:
        meet = meet_boolean(make_simplicial(u)).product_table()
        for k in (4, 5):
            res = enumerate_s1sk(u, k)
            assert (res.count, res.certificate) == (1, "exhaustive"), (u, k)
            assert res.operations[0].product_table() == meet, (u, k)


@pytest.mark.parametrize("u", [(2, 1, 1), (1, 2, 1), (2, 2, 1), (3, 1, 1), (2, 2, 2),
                               (2, 1, 1, 1), (2, 2, 1, 1), (3, 1, 1, 1), (2, 2, 2, 1)])
def test_frozen_s1s4_nonexistence_on_obstructed_rank_3_and_4_boxes(u):
    # the obstruction-atom theorem is the second route
    assert has_obstruction_atom(make_simplicial(u))
    res = exists_s1s4(u)
    assert (res.exists, res.certificate, res.witness) == (False, "exhaustive", None)


def test_frozen_s1s4_nonexistence_on_a_rank_5_box():
    # 10,000 pool matrices; the obstruction-atom theorem is the second route
    u = (2, 1, 1, 1, 1)
    assert has_obstruction_atom(make_simplicial(u))
    res = exists_s1s4(u)
    assert (res.exists, res.certificate, res.witness) == (False, "exhaustive", None)


@pytest.mark.parametrize("u", [(2, 1, 1, 1, 1, 1), (2, 2, 1, 1, 1, 1)])
def test_frozen_s1s4_nonexistence_on_rank_6_boxes(u):
    # 171,072 and 180,625 pool matrices, decided before the first leaf; the
    # obstruction-atom theorem is the second route
    assert has_obstruction_atom(make_simplicial(u))
    res = exists_s1s4(u)
    assert (res.exists, res.certificate, res.witness) == (False, "exhaustive", None)


def test_frozen_class_counts():
    # (3, 3) and (1, 1, 1) were each confirmed once by a complete run of the
    # oracle above with no budget (about 2 s and 40 s)
    res = enumerate_s1sk((3, 3), 3, cap=0)
    assert (res.count, res.certificate, res.operations) == (500224, "exhaustive", None)
    assert enumerate_s1sk((1, 1, 1), 3, cap=0).count == 14250600


def test_a_long_chain_does_not_recurse():
    # 1499 rows deep: a recursive search would overflow the interpreter stack
    assert enumerate_s1sk((1500,), 3, cap=0).count == 1


ACTION_SHAPES = [(1,), (2,), (3,), (4,), (2, 2), (3, 1), (4, 2), (1, 1, 1), (2, 1, 1),
                 (1, 1, 1, 1), (2, 1, 1, 1)]


@pytest.mark.parametrize("u", ACTION_SHAPES)
def test_pool_actions_match_the_coordinate_route(u):
    pool = search._Pool(u)
    alg, matrices = pool.alg, pool.matrices
    want = coordinate_actions(alg, matrices)
    assert pool.actions == want
    assert matrix_actions(alg, matrices) == want


def assert_pool_matches_the_matrix_route(u):
    """The pool against enumerate_subunital's SubunitalMatrix rows: the same
    matrices in the same order, the identity's position, and the candidates
    of search._candidates at k = 3 and 4, with each matrix's zero columns,
    M u index and zero/nonzero split read off the entries."""
    pool = search._Pool(u)
    shape = pool.alg.shape
    n = shape.size
    matrices = [M.rows for M in enumerate_subunital(u, u)]
    assert pool.matrices == matrices
    assert pool.top == matrices.index(_identity(len(u)))
    zero_columns = [sum(1 << j for j in range(len(u)) if not any(row[j] for row in M))
                    for M in matrices]
    nonzero = [int(any(map(any, M))) for M in matrices]
    images = [shape.index_of(tuple(sum(map(mul, row, u)) for row in M)) for M in matrices]
    # at k = 3 kind 0 is the zero matrix and kind 1 every other one; at k = 4
    # kind a is the matrices with M u = a, for a below the top
    for k, kind_of_matrix, n_kinds, want_kind_of in [
            (3, nonzero, 2, [0] + [1] * (n - 2)),
            (4, images, n - 1, list(range(n - 1)))]:
        kinds, kind_of = search._candidates(pool, k)
        assert kind_of == want_kind_of
        want = [{} for _ in range(n_kinds)]
        for i, (z, t) in enumerate(zip(zero_columns, kind_of_matrix)):
            if t < n_kinds:
                want[t].setdefault(z, []).append(i)
        assert kinds == want


@pytest.mark.parametrize("u", ACTION_SHAPES + [(3, 1, 2), (1, 2, 3)])
def test_pool_matches_the_matrix_route(u):
    assert_pool_matches_the_matrix_route(u)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(1, 3), min_size=1, max_size=3).map(tuple))
def test_pool_matches_the_matrix_route_on_random_boxes(u):
    assert_pool_matches_the_matrix_route(u)


@pytest.mark.parametrize("u", [(2, 2), (4, 1), (2, 1, 1), (1, 1, 1, 1)])
def test_candidate_lists_match_the_matrix_route(u):
    # per element, keyed by zero-column set, ascending pool indices: at k = 3
    # the zero matrix for element 0 and every other matrix for the rest, at
    # k >= 4 the right-unit masks
    pool = search._Pool(u)
    n = pool.alg.size
    matrices = [M.rows for M in enumerate_subunital(u, u)]
    zero_columns = [sum(1 << j for j in range(len(u)) if not any(row[j] for row in M))
                    for M in matrices]
    zero = 1 << matrices.index(tuple((0,) * len(u) for _ in u))
    everything = (1 << len(matrices)) - 1
    for k, want in [(3, [zero] + [everything ^ zero] * (n - 2)),
                    (4, right_unit_masks(pool.alg, matrices))]:
        kinds, kind_of = search._candidates(pool, k)
        assert len(kind_of) == n - 1
        for t, mask in zip(kind_of, want):
            for z, members in kinds[t].items():
                assert members == sorted(set(members)) != []
                assert all(zero_columns[i] == z for i in members)
            assert sum(1 << i for members in kinds[t].values() for i in members) == mask


def test_pool_refusals_keep_their_counts(capsys):
    # an oversized pool is refused with its exact count
    with pytest.raises(CapExceeded) as exc:
        enumerate_s1sk((1,) * 7, 4)
    assert exc.value.count == 2097152
    with pytest.raises(CapExceeded) as exc:
        exists_s1s4((2, 1, 1, 1, 1, 1, 1))
    assert exc.value.count == 3411821
    assert main(["enumerate", "--u", "1,1,1,1,1,1,1", "--axioms", "s1s4",
                 "--count-only"]) == 3
    assert json.loads(capsys.readouterr().out) == {"error": "cap_exceeded",
                                                   "count": "2097152"}
    # a Boolean box needs no pool: its witness is the meet
    res = exists_s1s4((1,) * 7)
    assert (res.exists, res.certificate) == (True, "witness")


@pytest.mark.parametrize("u", [(1,), (3,), (1, 1), (2, 1), (2, 2), (1, 1, 1), (3, 1, 2)])
def test_named_operation_tables_match_the_coordinate_route(u):
    # each named operation's table against the coordinate actions of its
    # matrices, built here from their definitions
    alg = make_simplicial(u)
    r, n = len(u), alg.size
    axes = range(r)
    zero, ident = ((0,) * r,) * r, _identity(r)
    cases = [(sigma_universal(alg), (zero,) + (ident,) * (n - 1))]
    if all(ui == 1 for ui in u):
        diagonals = tuple(tuple(tuple(x[i] if i == j else 0 for j in axes) for i in axes)
                          for x in alg.shape.all_coords)
        cases.append((meet_boolean(alg), diagonals))
    if len(u) > 1 and len(set(u)) == 1:
        perm = tuple(range(r, 0, -1))
        P = tuple(tuple(int(j == perm[i] - 1) for j in axes) for i in axes)
        cases.append((tau_perm(alg, perm), (zero,) + (P,) * (n - 2) + (ident,)))
    for op, matrices in cases:
        assert op.product_table() == coordinate_actions(alg, matrices), op


def test_an_early_ending_s1s4_search_builds_no_table(monkeypatch):
    def no_tables(*args, **kwargs):
        raise AssertionError("a product table was built before the first leaf")

    monkeypatch.setattr(Shape, "linear_indices", no_tables)
    for u in [(2, 2), (4, 1), (3, 1), (2, 1, 1), (2, 1, 1, 1)]:
        res = exists_s1s4(u)
        assert (res.exists, res.certificate) == (False, "exhaustive"), u


def test_the_search_builds_no_subunital_matrix(monkeypatch):
    def no_matrices(cls, *args, **kwargs):
        raise AssertionError("a SubunitalMatrix was built on the search path")

    monkeypatch.setattr(maps.SubunitalMatrix, "__new__", no_matrices)
    with pytest.raises(AssertionError):
        next(enumerate_subunital((1,), (1,)))
    for u in [(2, 2), (3, 1), (2, 1, 1), (2, 1, 1, 1, 1)]:
        res = exists_s1s4(u)
        assert (res.exists, res.certificate) == (False, "exhaustive"), u
    res = enumerate_s1sk((2, 2), 3)
    assert (res.count, len(res.operations)) == (2000, 2000)
    res = enumerate_s1sk((1, 1), 5)
    assert [op.product_table() for op in res.operations] == [
        meet_boolean(make_simplicial((1, 1))).product_table()]


def test_counting_builds_no_table(monkeypatch):
    def no_tables(*args, **kwargs):
        raise AssertionError("a product table was built for a count")

    monkeypatch.setattr(Shape, "linear_indices", no_tables)
    for cap in (0, 33):
        res = enumerate_s1sk((1, 1), 3, cap=cap)
        assert (res.count, res.operations) == (34, None)
    monkeypatch.undo()
    # a count equal to the cap is listed in full
    assert len(enumerate_s1sk((1, 1), 3, cap=34).operations) == 34
