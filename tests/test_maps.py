"""Additive maps and their matrix classification.

The brute-force route (raw image tables filtered by the additivity equation)
is the oracle here; the matrix route must reproduce it exactly on every shape
small enough to brute-force.
"""

import math
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from effectalg import (
    CapExceeded,
    Elem,
    NotAdditive,
    Shape,
    SubunitalMatrix,
    additive_maps_bruteforce,
    count_subunital,
    enumerate_subunital,
    is_subunital,
    make_simplicial,
    matrix_of_map,
)
from effectalg.maps import broken_pair, count_rows, enumerate_rows

small_shapes = st.lists(st.integers(1, 3), min_size=1, max_size=3).map(tuple)


def test_row_enumeration_is_lexicographic_and_complete():
    rows = enumerate_rows((2, 1), 2)
    assert rows == [(0, 0), (0, 1), (0, 2), (1, 0)]
    assert count_rows((2, 1), 2) == 4


@given(small_shapes, st.integers(0, 4))
def test_row_count_matches_the_listing(u, budget):
    rows = enumerate_rows(u, budget)
    assert len(rows) == count_rows(u, budget)
    assert rows == sorted(rows)
    assert all(sum(a * ui for a, ui in zip(row, u)) <= budget for row in rows)


def test_rows_refuse_a_negative_budget():
    for rows in (enumerate_rows, count_rows):
        with pytest.raises(ValueError, match="budget must be nonnegative"):
            rows((1,), -1)


def test_row_counts_on_large_budgets():
    # rows alpha >= 0 with sum(alpha) <= b number C(b + r, r), and with
    # 2 a + 3 c <= b one for each c and each a <= (b - 3 c) // 2
    assert count_rows((1, 1, 1, 1), 999_999) == math.comb(1_000_003, 4)
    b = 10**6 - 1
    assert count_rows((2, 3), b) == sum((b - 3 * c) // 2 + 1 for c in range(b // 3 + 1))
    assert count_rows((10**6,), 5) == 1


def test_matrix_counts_refuse_boxes_over_the_carrier_limit():
    with pytest.raises(CapExceeded) as exc:
        count_subunital((1,), (10**11,))
    assert exc.value.count == 10**11 + 1
    with pytest.raises(CapExceeded):
        count_subunital((10**6,), (1,))
    with pytest.raises(ValueError):
        count_subunital((0,))


def test_matrix_counts():
    for n in (1, 2, 3, 4):
        assert count_subunital((n,)) == 2
    assert count_subunital((1, 1)) == 9
    assert count_subunital((1, 1, 1)) == 64
    assert count_subunital((2, 1)) == 8


def test_homogeneous_count_is_r_plus_1_to_the_r():
    for r in (1, 2, 3):
        for k in (1, 2, 3):
            assert count_subunital((k,) * r) == (r + 1) ** r


def test_enumeration_matches_the_count_and_is_deterministic():
    for u in [(1,), (3,), (1, 1), (2, 1)]:
        first = [M.rows for M in enumerate_subunital(u)]
        assert len(first) == len(set(first)) == count_subunital(u)
        assert first == [M.rows for M in enumerate_subunital(u)]
        assert all(is_subunital(rows, u) for rows in first)


def test_enumeration_cap_refusal_reports_the_count():
    with pytest.raises(CapExceeded) as exc:
        list(enumerate_subunital((1, 1), cap=8))
    assert exc.value.count == 9


def test_subunital_matrix_rejects_bad_rows():
    dom = Shape((2, 1))
    with pytest.raises(ValueError):
        SubunitalMatrix(((1, 1), (0, 0)), dom, dom)  # 2 + 1 > 2 on row 1
    with pytest.raises(ValueError):
        SubunitalMatrix(((0, -1), (0, 0)), dom, dom)
    with pytest.raises(ValueError):
        SubunitalMatrix(((0, 0),), dom, dom)


def test_is_subunital_edges():
    assert not is_subunital(((2,),), (2,), (3,))
    assert is_subunital(((1,),), (2,), (2,))
    assert not is_subunital(((0, -1), (0, 0)), (1, 1))
    with pytest.raises(ValueError):
        is_subunital(((0,),), (1, 1))


@given(small_shapes, st.data())
def test_matrix_action_lands_in_the_codomain(u, data):
    ms = list(enumerate_subunital(u, u, cap=10**4))
    M = data.draw(st.sampled_from(ms))
    alg = make_simplicial(u)
    x = alg.element(data.draw(st.integers(0, alg.size - 1)))
    y = M.apply(x)
    assert all(0 <= c <= ui for c, ui in zip(y.coords, u))


@settings(max_examples=30)
@given(small_shapes, st.data())
def test_matrix_action_is_additive(u, data):
    ms = list(enumerate_subunital(u, u, cap=10**4))
    M = data.draw(st.sampled_from(ms))
    alg = make_simplicial(u)
    i = data.draw(st.integers(0, alg.size - 1))
    j = data.draw(st.integers(0, alg.size - 1))
    k = alg.oplus_index(i, j)
    if k is None:
        return
    left = M.apply(alg.element(k))
    right = tuple(a + b for a, b in zip(
        M.apply(alg.element(i)).coords,
        M.apply(alg.element(j)).coords,
    ))
    assert left.coords == right


def test_bruteforce_equals_matrix_route():
    """The raw function filter and the matrix action agree map for map."""
    for u in [(1,), (2,), (3,), (1, 1), (2, 1)]:
        alg = make_simplicial(u)
        brute = set(additive_maps_bruteforce(alg, alg))
        via_matrices = {
            tuple(M.apply(x).index for x in alg.elements())
            for M in enumerate_subunital(u, u)
        }
        assert brute == via_matrices
        assert len(brute) == count_subunital(u)


def test_bruteforce_across_different_shapes():
    dom, cod = make_simplicial((2,)), make_simplicial((1, 1))
    brute = set(additive_maps_bruteforce(dom, cod))
    via = {tuple(M.apply(x).index for x in dom.elements())
           for M in enumerate_subunital((2,), (1, 1))}
    assert brute == via
    assert len(brute) == count_subunital((2,), (1, 1))


def test_bruteforce_cap():
    alg = make_simplicial((2, 2))
    with pytest.raises(CapExceeded):
        additive_maps_bruteforce(alg, alg, cap=100)


def test_bruteforce_refuses_past_4300_digits():
    # 2001 ** 2001 candidate functions: CapExceeded with no count, not a
    # ValueError from writing the count into the message
    big = make_simplicial((2000,))
    with pytest.raises(CapExceeded) as exc:
        additive_maps_bruteforce(big, big)
    assert exc.value.count is None


def test_matrix_of_map_round_trip():
    alg = make_simplicial((2, 1))
    for M in enumerate_subunital((2, 1)):
        images = [M.apply(x) for x in alg.elements()]
        back = matrix_of_map(alg, alg, images)
        assert isinstance(back, SubunitalMatrix)
        assert back.rows == M.rows


def test_matrix_of_map_refutes_with_a_replaying_witness():
    chain, b2 = make_simplicial((2,)), make_simplicial((1, 1))
    # send 0,1,2 to 0,1,0: then t(1 (+) 1) = 0 but t(1) (+) t(1) = 2.  Sent to
    # 0, e1, e2 in B2 the map is linear in the index, but its matrix sends
    # u = (2,) to (2, 0), outside the box
    for cod, picks in [(chain, (0, 1, 0)), (b2, (0, 1, 2))]:
        images = [cod.element(i) for i in picks]
        got = matrix_of_map(chain, cod, images)
        assert isinstance(got, NotAdditive)
        x, y = got.witness
        assert (x.coords, y.coords) == ((1,), (1,))
        k = chain.oplus_index(x.index, y.index)
        assert k is not None
        t = cod.oplus_index(images[x.index].index, images[y.index].index)
        assert t is None or t != images[k].index


def _reference_broken_pair(dom, cod, images):
    # the plain i <= j loop over oplus_index, with no sum table
    for i in range(dom.size):
        for j in range(i, dom.size):
            k = dom.oplus_index(i, j)
            if k is not None and cod.oplus_index(images[i], images[j]) != images[k]:
                return (i, j)
    return None


@pytest.mark.parametrize("u, v", [((2,), (1, 1)), ((1, 1), (2,)),
                                  ((2, 1), (1, 1)), ((1, 1), (2, 1))])
def test_broken_pair_between_different_boxes(u, v):
    # every map of the domain into the codomain: the walk gives the least
    # broken pair, None exactly on the additive maps, and matrix_of_map's
    # refutation names that pair
    dom, cod = make_simplicial(u), make_simplicial(v)
    additive = set(additive_maps_bruteforce(dom, cod))
    refuted = 0
    for images in product(range(cod.size), repeat=dom.size):
        pair = broken_pair(dom, cod, images)
        assert pair == _reference_broken_pair(dom, cod, images), images
        assert (pair is None) == (images in additive), images
        got = matrix_of_map(dom, cod, [cod.element(i) for i in images])
        if pair is None:
            assert isinstance(got, SubunitalMatrix)
        else:
            assert got == NotAdditive(tuple(map(dom.element, pair)))
            refuted += 1
    assert refuted and len(additive) == count_subunital(u, v)


def test_a_refutation_reads_both_sum_tables():
    # on (99, 99), 10,000 elements: (x1, x2) |-> (x1, g(x2)), with g the
    # identity but for g(2) = 3, first breaks at (e2, e2), so walking to it
    # reads about (n + 1) N pairs.  The walk reads the sum tables, and is
    # refused before any pair; an action still gets its matrix with no table
    alg = make_simplicial((99, 99))
    g = {2: 3}
    images = [Elem((x1, g.get(x2, x2)), alg.shape)
              for x1, x2 in (x.coords for x in alg.elements())]
    with pytest.raises(CapExceeded) as exc:
        matrix_of_map(alg, alg, images)
    assert exc.value.count == 10**8
    ident = matrix_of_map(alg, alg, list(alg.elements()))
    assert ident == SubunitalMatrix(((1, 0), (0, 1)), alg.shape, alg.shape)


def test_matrix_of_map_input_validation():
    alg = make_simplicial((1,))
    with pytest.raises(ValueError):
        matrix_of_map(alg, alg, [alg.element(0)])
    other = make_simplicial((1, 1))
    with pytest.raises(ValueError):
        matrix_of_map(alg, alg, [other.element(0), other.element(1)])


def _picks(M):
    # a coordinate picker's rows are zero or unit vectors
    return all(sum(row) <= 1 for row in M.rows)


def test_homogeneous_maps_are_exactly_the_coordinate_pickers():
    for u in [(1, 1), (2, 2), (1, 1, 1), (3, 3)]:
        ms = list(enumerate_subunital(u))
        assert all(map(_picks, ms))
        r = len(u)
        assert len(ms) == (r + 1) ** r


def test_mixed_shapes_admit_non_picker_maps():
    non = [M.rows for M in enumerate_subunital((2, 1)) if not _picks(M)]
    assert non == [((0, 2), (0, 0)), ((0, 2), (0, 1))]


@pytest.mark.parametrize("bad", [1, True, None])
def test_apply_takes_only_elems(bad):
    # an index, a bool or None is no element of the domain, as for boxes
    M = next(enumerate_subunital((2,), (2,)))
    with pytest.raises(ValueError, match=r"is not an element of the matrix domain \(2,\)"):
        M.apply(bad)


def test_apply_checks_the_domain():
    M = SubunitalMatrix(((1,),), Shape((2,)), Shape((2,)))
    with pytest.raises(ValueError):
        M.apply(Elem((1, 0), Shape((1, 1))))
