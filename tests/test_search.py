"""Search-layer behavior, cross-checked three independent ways.

1. _b2_reference below re-derives every count on the four-element Boolean box
   from scratch: it builds all 729 one-matrix-per-element candidate tables and
   filters them with predicates written directly from the axiom statements,
   sharing no code with the library checker.
2. full_bruteforce_ops filters raw N x N tables, exercising the checker with
   no matrix or search machinery in the loop.  Its one-pass classifier,
   bruteforce_prefixes, which generates only the products of the rows that
   pass S1 alone, is checked here against the plain per-k loop over every
   table (_per_k_reference below).
3. The unpruned route (enumerate all S1+S2 families, then check) must agree
   with the pruned backtracking search wherever both are affordable.

The exact survivor counts frozen here were computed by route 1 or 2 first and
only then compared against the library.
"""

import hashlib
import json
from functools import lru_cache
from itertools import product

import pytest

from effectalg import (
    CapExceeded,
    NodeBudgetExceeded,
    Operation,
    SearchResult,
    bruteforce_prefixes,
    check_axioms,
    classify_b2,
    count_s1s2,
    enumerate_s1,
    enumerate_s1s2,
    enumerate_s1sk,
    exists_s1s4,
    from_full_table,
    full_bruteforce_ops,
    load_fixture,
    make_simplicial,
    meet_boolean,
    sigma_universal,
    tau_perm,
)
from effectalg import operations, search
from effectalg.errors import COUNT_LIMIT, capped_power, count_text, refuse_over
from effectalg.operations import AXIOM_NAMES, matrix_actions

B2_ELEMS = [(0, 0), (1, 0), (0, 1), (1, 1)]
B2_MEET_TABLE = ((0, 0, 0, 0), (0, 1, 0, 1), (0, 0, 2, 2), (0, 1, 2, 3))


@lru_cache(maxsize=1)
def _b2_reference():
    """Survivor tables per axiom prefix on the four-element Boolean box,
    computed from first principles."""
    idx = {e: i for i, e in enumerate(B2_ELEMS)}

    def osum(i, j):
        s = tuple(a + b for a, b in zip(B2_ELEMS[i], B2_ELEMS[j]))
        return idx[s] if max(s) <= 1 else None

    sums = [[osum(i, j) for j in range(4)] for i in range(4)]
    orth = [idx[(1 - e[0], 1 - e[1])] for e in B2_ELEMS]

    mats = [m for m in product(range(2), repeat=4)
            if m[0] + m[1] <= 1 and m[2] + m[3] <= 1]
    assert len(mats) == 9

    def act(m, e):
        return idx[(m[0] * e[0] + m[1] * e[1], m[2] * e[0] + m[3] * e[1])]

    def s3(t):
        return all(not (t[a][b] == 0 and t[b][a] != 0)
                   for a in range(4) for b in range(4))

    def s4(t):
        for a in range(4):
            for b in range(4):
                if t[a][b] != t[b][a]:
                    continue
                if t[a][orth[b]] != t[orth[b]][a]:
                    return False
                if any(t[a][t[b][c]] != t[t[a][b]][c] for c in range(4)):
                    return False
        return True

    def s5(t):
        for a in range(4):
            for b in range(4):
                for c in range(4):
                    if t[c][a] != t[a][c] or t[c][b] != t[b][c]:
                        continue
                    ab = t[a][b]
                    if t[c][ab] != t[ab][c]:
                        return False
                    k = sums[a][b]
                    if k is not None and t[c][k] != t[k][c]:
                        return False
        return True

    ident = (1, 0, 0, 1)
    survivors = {3: set(), 4: set(), 5: set()}
    for family in product(mats, repeat=3):
        rows = family + (ident,)
        t = tuple(tuple(act(m, B2_ELEMS[b]) for b in range(4)) for m in rows)
        if s3(t):
            survivors[3].add(t)
            if s4(t):
                survivors[4].add(t)
                if s5(t):
                    survivors[5].add(t)
    return survivors


def test_reference_counts_on_the_boolean_box():
    ref = _b2_reference()
    assert len(ref[3]) == 34
    assert len(ref[4]) == 1
    assert len(ref[5]) == 1
    assert ref[4] == ref[5] == {B2_MEET_TABLE}


def test_search_reproduces_the_reference_on_the_boolean_box():
    ref = _b2_reference()
    for k in (3, 4, 5):
        res = enumerate_s1sk((1, 1), k)
        assert res.count == len(ref[k])
        assert {op.product_table() for op in res.operations} == ref[k]
        assert res.certificate == "exhaustive"


def test_s1s2_counts():
    assert count_s1s2((1,)) == 2
    assert count_s1s2((2,)) == 4
    assert count_s1s2((3,)) == 8
    assert count_s1s2((4,)) == 16
    assert count_s1s2((1, 1)) == 729
    assert count_s1s2((2, 1)) == 32768


def test_s1s2_enumeration_matches_its_count_and_passes():
    for u in [(1,), (2,), (3,), (1, 1)]:
        ops = list(enumerate_s1s2(u))
        assert len(ops) == count_s1s2(u)
        assert len({op.product_table() for op in ops}) == len(ops)
        assert all(check_axioms(op, 2).all_pass for op in ops)
        # the table assembled from the pool actions is the action of the
        # matrices recovered from its rows
        assert all(matrix_actions(op.algebra, from_full_table(op.algebra, op.product_table()))
                   == op.product_table() for op in ops)


def test_s1_enumeration():
    for u, want in [((1,), 4), ((2,), 8)]:
        ops = list(enumerate_s1(u))
        assert len(ops) == want
        assert all(check_axioms(op, 1).all_pass for op in ops)
        assert all(matrix_actions(op.algebra, from_full_table(op.algebra, op.product_table()))
                   == op.product_table() for op in ops)
    with pytest.raises(CapExceeded):
        enumerate_s1((1, 1), cap=100)


def test_s1s2_cap_refusal_carries_the_exact_count():
    with pytest.raises(CapExceeded) as exc:
        enumerate_s1s2((1, 1), cap=10)
    assert exc.value.count == 729


def test_counts_past_4300_digits_are_refused_as_over_a_cap():
    # Python writes no int of more than 4300 digits as text
    assert count_text(10**4300 - 1) == "9" * 4300
    with pytest.raises(CapExceeded) as exc:
        count_text(10**4300)
    assert exc.value.count is None
    # 9 ** 10200 S1+S2 operations on (100, 100): exact as a number, refused
    # as a listing or as JSON
    assert count_s1s2((100, 100)) == 9**10200
    with pytest.raises(CapExceeded) as exc:
        enumerate_s1s2((100, 100))
    assert exc.value.count is None
    res = SearchResult(u=(100, 100), k=2, count=9**10200, certificate="formula",
                       operations=None)
    with pytest.raises(CapExceeded):
        res.to_json()
    # a box over the carrier limit: refused before #M(u) or the power is computed
    with pytest.raises(CapExceeded):
        count_s1s2((10**9, 10**9))


def test_s1s3_counts_past_4300_digits_are_refused_on_the_way():
    # every class weight is at least 1, so a path weight capped at COUNT_LIMIT
    # only ever feeds a count that is refused, and each count below stays
    # exact: (100, 100) has 10,317 bits, pinned by the digest of its text
    count = enumerate_s1sk((100, 100), 3, cap=0).count
    assert count.bit_length() == 10317
    assert hashlib.sha256(str(count).encode()).hexdigest() == (
        "c91d18f6ff15226b1d9978d7d15f4ade90cb511c601ec9a022b3fa3bf8e3966d")
    # (200, 200) has 40,634 bits: refused once the running count gets there
    with pytest.raises(CapExceeded) as exc:
        enumerate_s1sk((200, 200), 3, cap=0)
    assert exc.value.count is None


def test_refusal_helpers_keep_only_writable_counts():
    assert CapExceeded("x", count=10**4300).count is None
    assert CapExceeded("x", count=10**4300 - 1).count == 10**4300 - 1
    refuse_over(5, 5, "items")
    with pytest.raises(CapExceeded) as exc:
        refuse_over(6, 5, "items")
    assert exc.value.count == 6
    with pytest.raises(CapExceeded) as exc:
        refuse_over(10**4300, 5, "items")
    assert exc.value.count is None and "14285-bit number of items" in str(exc.value)
    # exact below the 2 ** exp rule, however many digits; refused at it
    assert capped_power(9, 10200, None, "items") == 9**10200
    assert capped_power(3, 4, 81, "items") == 81
    with pytest.raises(CapExceeded) as exc:
        capped_power(3, 4, 80, "items")
    assert exc.value.count == 81
    limit_exp = COUNT_LIMIT.bit_length()
    assert capped_power(2, limit_exp - 1, None, "items") == 2 ** (limit_exp - 1)
    with pytest.raises(CapExceeded) as exc:
        capped_power(2, limit_exp, None, "items")
    assert exc.value.count is None
    # 0 ** exp and 1 ** exp are written, whatever exp
    assert capped_power(1, 10**12, 1, "items") == 1
    assert capped_power(0, 10**12, 1, "items") == 0
    # 2 ** 20000 S1+S2 operations on (20000,): past the rule, before any power
    with pytest.raises(CapExceeded) as exc:
        count_s1s2((20000,))
    assert exc.value.count is None


def test_raw_table_oracle_refuses_past_4300_digits():
    # 100 ** 10000 candidate tables: CapExceeded with no count, not a ValueError
    # from writing the count into the message
    with pytest.raises(CapExceeded) as exc:
        bruteforce_prefixes(make_simplicial((99,)))
    assert exc.value.count is None
    # 2048 ** (2048 * 2048): refused before the power is computed
    with pytest.raises(CapExceeded) as exc:
        bruteforce_prefixes(make_simplicial((2047,)))
    assert exc.value.count is None


def test_s1s2_enumeration_is_deterministic():
    runs = [[op.product_table() for op in enumerate_s1s2((2,))] for _ in range(2)]
    assert runs[0] == runs[1]


def test_enumerate_s1sk_validates_k():
    for k in (1, 2, 6, True, 3.0):
        with pytest.raises(ValueError, match="k must be in 3..5"):
            enumerate_s1sk((1,), k)


def test_counts_stay_exact_when_the_ops_list_is_dropped():
    res = enumerate_s1sk((1, 1), 3, cap=10)
    assert res.count == 34
    assert res.operations is None
    assert res.certificate == "exhaustive"


def test_frozen_counts_on_wider_boxes():
    # counts confirmed by the unpruned filter route below before freezing
    for u, want in [((2, 1), 57), ((2, 2), 2000)]:
        assert enumerate_s1sk(u, 3).count == want
    for u in [(2, 1), (2, 2)]:
        assert enumerate_s1sk(u, 4).count == 0
        assert enumerate_s1sk(u, 5).count == 0


def test_pruned_search_agrees_with_the_unpruned_filter():
    for u in [(2,), (3,), (1, 1), (2, 1)]:
        reports = [(op, check_axioms(op, 5)) for op in enumerate_s1s2(u, cap=40000)]
        for k in (3, 4, 5):
            filtered = [op for op, rep in reports
                        if all(rep.passed(ax) for ax in AXIOM_NAMES[:k])]
            res = enumerate_s1sk(u, k, cap=40000)
            assert res.count == len(filtered), (u, k)
            assert ({op.product_table() for op in res.operations}
                    == {op.product_table() for op in filtered}), (u, k)


def test_kept_survivors_are_consistent_operations():
    # each kept survivor carries the table the search assembled from its pool
    # matrices' actions; the matrices recovered from its rows must give the
    # same table, and it must pass
    for u, k in [((2, 2), 3), ((4, 1), 3), ((1, 1), 4), ((1, 1), 5)]:
        alg = make_simplicial(u)
        res = enumerate_s1sk(u, k)
        assert res.operations is not None and len(res.operations) == res.count
        for op in res.operations:
            # the table is not range-checked when it is built, so check it here
            assert all(0 <= v < alg.size for row in op.product_table() for v in row)
            assert check_axioms(op, k).all_pass, (u, k)
            assert matrix_actions(alg, from_full_table(alg, op.product_table())) \
                == op.product_table()


def test_search_agrees_with_raw_table_bruteforce():
    for u in [(1,), (2,)]:
        alg = make_simplicial(u)
        for k in (1, 2, 3, 4, 5):
            brute = set(full_bruteforce_ops(alg, k))
            if k == 1:
                structured = {op.product_table() for op in enumerate_s1(u)}
            elif k == 2:
                structured = {op.product_table() for op in enumerate_s1s2(u)}
            else:
                structured = {op.product_table()
                              for op in enumerate_s1sk(u, k).operations}
            assert brute == structured, (u, k)


def test_bruteforce_counts_on_the_two_chain():
    alg = make_simplicial((1,))
    assert [len(full_bruteforce_ops(alg, k)) for k in (1, 2, 3, 4, 5)] == [4, 2, 1, 1, 1]


def _per_k_reference(alg, k):
    """The tables passing S1..Sk, by building every table as an Operation and
    running check_axioms(op, k) on it, one pass per k."""
    n = alg.size
    out = []
    for flat in product(range(n), repeat=n * n):
        op = Operation(alg, table=tuple(flat[i * n:(i + 1) * n] for i in range(n)))
        if check_axioms(op, k).all_pass:
            out.append(op.product_table())
    return out


def test_one_pass_oracle_matches_the_per_k_reference():
    algebras = [make_simplicial((1,)), make_simplicial((2,)),
                load_fixture("c1"), load_fixture("c2")]
    for alg in algebras:
        by_prefix = bruteforce_prefixes(alg)
        assert len(by_prefix) == 5
        for k in (1, 2, 3, 4, 5):
            want = _per_k_reference(alg, k)
            # same tables in the same canonical order, through both entry points
            assert by_prefix[k - 1] == want, (alg, k)
            assert full_bruteforce_ops(alg, k) == want


def test_raw_table_oracle_on_the_four_element_boxes():
    # 4 ** 16 nominal tables, over the default cap; with the S1 rows filtered
    # first only 9 ** 4 = 6561 (B2) and 2 ** 4 = 16 (C3) are generated
    b2 = make_simplicial((1, 1))
    by_prefix = bruteforce_prefixes(b2, cap=4 ** 16)
    assert [len(tables) for tables in by_prefix] == [6561, 729, 34, 1, 1]
    # the paper's 34, by raw tables and by the S3-pruned search
    assert (set(by_prefix[2])
            == {op.product_table() for op in enumerate_s1sk((1, 1), 3).operations})
    meet = meet_boolean(2).product_table()
    assert by_prefix[3] == [meet]
    assert by_prefix[4] == [meet]

    c3 = make_simplicial((3,))
    by_prefix = bruteforce_prefixes(c3, cap=4 ** 16)
    assert [len(tables) for tables in by_prefix] == [16, 8, 1, 0, 0]
    assert by_prefix[2][0] == sigma_universal(c3).product_table()

    for alg in (b2, c3):
        with pytest.raises(CapExceeded) as exc:
            bruteforce_prefixes(alg)
        assert exc.value.count == 4 ** 16


def test_bruteforce_cap_refusal(monkeypatch):
    def no_tables(*args, **kwargs):
        raise AssertionError("a table was generated before the cap check")

    # the refusal must come before any table is generated or built
    monkeypatch.setattr(search, "product", no_tables)
    monkeypatch.setattr(search, "additive_maps_bruteforce", no_tables)
    alg = make_simplicial((1, 1))
    with pytest.raises(CapExceeded) as exc:
        full_bruteforce_ops(alg, 1, cap=100)
    assert exc.value.count == 4 ** 16
    with pytest.raises(CapExceeded):
        bruteforce_prefixes(alg, cap=4 ** 16 - 1)
    for upto in (0, 6, True, 3.0):
        with pytest.raises(ValueError, match="upto must be in 1..5"):
            bruteforce_prefixes(make_simplicial((1,)), upto)


def test_b2_classification_blocks():
    cls = classify_b2()
    assert cls.total == 34
    assert len(cls.block_v_zero) == 9
    assert len(cls.block_v_nonzero) == 25
    assert sorted(cls.block_v_zero + cls.block_v_nonzero) == list(range(34))

    diagonal_zero = {(1, 0), (2, 0), (3, 0)}
    crossing = {(0, 1), (0, 2), (0, 3), (1, 2), (2, 1)}
    # within each block the two value pairs range over the same possibilities,
    # independently of one another
    v0 = [(cls.records[i].uvst[0], cls.records[i].uvst[1]) for i in cls.block_v_zero]
    v0q = [(cls.records[i].uvst[3], cls.records[i].uvst[2]) for i in cls.block_v_zero]
    assert set(v0) == diagonal_zero and set(v0q) == diagonal_zero
    assert len(set(zip(v0, v0q))) == 9
    vn = [(cls.records[i].uvst[0], cls.records[i].uvst[1]) for i in cls.block_v_nonzero]
    vnq = [(cls.records[i].uvst[3], cls.records[i].uvst[2]) for i in cls.block_v_nonzero]
    assert set(vn) == crossing and set(vnq) == crossing
    assert len(set(zip(vn, vnq))) == 25


def test_b2_classification_contains_the_named_operations():
    cls = classify_b2()
    tables = {rec.op.product_table() for rec in cls.records}
    assert meet_boolean(2).product_table() in tables
    assert tau_perm((1, 1), (2, 1)).product_table() in tables
    meet_rec = next(rec for rec in cls.records
                    if rec.op.product_table() == B2_MEET_TABLE)
    assert meet_rec.uvst == (1, 0, 0, 2)


def test_s1s4_existence_negative_cases_are_exhaustive():
    for u in [(2,), (3,), (2, 1)]:
        res = exists_s1s4(u)
        assert res.exists is False
        assert res.certificate == "exhaustive"
        assert res.witness is None


def test_s1s4_existence_positive_cases_carry_verified_witnesses():
    for u in [(1,), (1, 1), (1, 1, 1)]:
        res = exists_s1s4(u)
        assert res.exists is True
        assert res.certificate == "witness"
        assert check_axioms(res.witness, 4).all_pass
        assert res.witness.product_table() == meet_boolean(len(u)).product_table()


def test_s1s4_existence_refuses_an_oversized_boolean_box_before_building_the_meet(
        monkeypatch):
    # the witness is checked against S1, which reads the sum table; B12's
    # 4096 elements are over the 2048-element sum-table limit, so the meet
    # refuses the box before its matrix family is built
    def never(*args, **kwargs):
        raise AssertionError("the meet was built on a box over the sum-table limit")

    monkeypatch.setattr(operations, "Operation", never)
    with pytest.raises(CapExceeded) as exc:
        exists_s1s4((1,) * 12)
    assert exc.value.count == 4096 ** 2


def test_s1s4_existence_reports_undecided_on_a_tiny_budget():
    # (2, 1, 1, 1) needs 14 nodes; (2, 2) is decided before its first one
    res = exists_s1s4((2, 1, 1, 1), node_budget=2)
    assert res.exists is None
    assert res.certificate == "undecided"
    assert res.witness is None


def test_the_leaf_filter_checks_s4_with_the_shared_check(monkeypatch):
    # the leaves pass S1, and the filter checks S4..Sk with the ladder that
    # check_axioms takes once S1 has passed; the c-set of its S4 check is
    # pinned by behaviour in test_operations.  A stand-in for that check sees
    # a k >= 4 search's leaves, none of a k = 3 listing, and decides them.
    assert search.CHECKS_GIVEN_S1 is operations.CHECKS_GIVEN_S1
    real = operations.CHECKS_GIVEN_S1[3]
    assert real is operations.check_s4_given_s1
    seen = []

    def spy(alg, table):
        seen.append(table)
        return real(alg, table)

    def use_s4(check):
        ladder = list(operations.CHECKS_GIVEN_S1)
        ladder[3] = check
        monkeypatch.setattr(search, "CHECKS_GIVEN_S1", tuple(ladder))

    use_s4(spy)
    for u, k in [((1, 1, 1), 4), ((1, 1), 5)]:
        seen.clear()
        assert enumerate_s1sk(u, k).count == 1
        assert meet_boolean(len(u)).product_table() in seen
    seen.clear()
    assert enumerate_s1sk((1, 1), 3).count == 34
    assert seen == []
    use_s4(lambda alg, table: (0, 0))
    assert enumerate_s1sk((1, 1, 1), 4).count == 0


def test_a_chain_of_a_hundred_thousand_elements_counts_in_linear_time():
    # the search walks the chain's one coordinate, not each of its 10^5
    # elements; the set-up is linear in the elements
    assert enumerate_s1sk((10**5,), 3, cap=0).count == 1


def test_node_budget_exception():
    with pytest.raises(NodeBudgetExceeded) as exc:
        enumerate_s1sk((2, 2), 3, node_budget=5)
    assert exc.value.nodes > 5


def test_search_result_json():
    res = enumerate_s1sk((2,), 3)
    obj = res.to_json()
    assert obj["count"] == "1"
    assert obj["certificate"] == "exhaustive"
    # the tables go to the encoder as they are, row tuples, and encode as
    # the arrays list rows would
    assert obj["operations"] == [((0, 0, 0), (0, 1, 2), (0, 1, 2))]
    assert json.dumps(obj["operations"]) == "[[[0, 0, 0], [0, 1, 2], [0, 1, 2]]]"
    assert "operations" not in res._replace(operations=None).to_json()


@pytest.mark.parametrize("u, k", [((2, 2), 3), ((4, 1), 3), ((1, 1), 4), ((1, 1), 5)])
def test_search_result_json_text_is_that_of_list_rows(u, k):
    # to_json hands the row tuples to the encoder, which writes them as the
    # arrays that list rows give, byte for byte
    res = enumerate_s1sk(u, k)
    obj = res.to_json()
    as_lists = dict(obj, operations=[[list(row) for row in op.product_table()]
                                     for op in res.operations])
    assert len(obj["operations"]) == res.count > 0
    assert json.dumps(obj) == json.dumps(as_lists)


def test_existence_json():
    pos = exists_s1s4((1, 1))
    obj = pos.to_json()
    assert obj["exists"] is True and obj["certificate"] == "witness"
    assert obj["witness"] == [list(r) for r in B2_MEET_TABLE]
    neg = exists_s1s4((2,))
    assert "witness" not in neg.to_json()
