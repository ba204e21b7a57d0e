"""Acceptance gate: ten criteria, exact equality, one test per criterion.

Run with -v to get one pass/fail line per criterion.  Every expected number
here is frozen; nothing is recomputed from the module under test except the
value being judged.
"""

from effectalg import (
    additive_maps_bruteforce,
    check_axioms,
    classify_b2,
    count_subunital,
    enumerate_s1,
    enumerate_s1s2,
    enumerate_s1sk,
    enumerate_subunital,
    exists_s1s4,
    full_bruteforce_ops,
    load_fixture,
    make_simplicial,
    meet_boolean,
    right_unit_holds,
    run_suite,
    sigma_universal,
    tau_perm,
)

BOOLEAN_SHAPES = [(1,), (1, 1), (1, 1, 1)]
OBSTRUCTED_SHAPES = [(2,), (3,), (4,), (2, 1), (2, 2)]


def test_criterion_01_subunital_matrix_counts():
    for n in (1, 2, 3, 4):
        assert count_subunital((n,)) == 2
    assert count_subunital((1, 1)) == 9
    assert count_subunital((1, 1, 1)) == 64
    assert count_subunital((2, 1)) == 8


def test_criterion_02_additive_map_oracle_equivalence():
    for u in [(1,), (2,), (3,), (1, 1), (2, 1)]:
        alg = make_simplicial(u)
        brute = set(additive_maps_bruteforce(alg, alg))
        structured = {tuple(M.apply(x).index for x in alg.elements())
                      for M in enumerate_subunital(u, u)}
        assert brute == structured, u


def test_criterion_03_s1s2_counts_with_full_check():
    for u, want in [((1,), 2), ((2,), 4), ((3,), 8), ((1, 1), 729)]:
        ops = list(enumerate_s1s2(u, cap=1000))
        assert len(ops) == want, u
        assert all(check_axioms(op, 2).all_pass for op in ops), u


def test_criterion_04_chain_s1s3_uniqueness():
    for n in (1, 2, 3, 4):
        res = enumerate_s1sk((n,), 3)
        assert res.count == 1, n
        assert (res.operations[0].product_table()
                == sigma_universal(make_simplicial((n,))).product_table()), n


def test_criterion_05_boolean_box_classification():
    cls = classify_b2()
    assert cls.total == 34
    assert len(cls.block_v_zero) == 9
    assert len(cls.block_v_nonzero) == 25
    for rec in cls.records:
        pp, pq, qp, qq = rec.uvst
        assert (pq == 0) == (qp == 0)


def test_criterion_06_s1s4_existence():
    for u in OBSTRUCTED_SHAPES:
        res = exists_s1s4(u)
        assert res.exists is False, u
        assert res.certificate == "exhaustive", u
    for u in BOOLEAN_SHAPES:
        res = exists_s1s4(u)
        assert res.exists is True and res.certificate == "witness", u
        assert check_axioms(res.witness, 5).all_pass, u


def test_criterion_07_sigma_passes_s1_to_s3_on_every_fixture():
    fixtures = [load_fixture(name) for name in ("c1", "c2", "c3", "c4", "mo2")]
    fixtures += [make_simplicial(u) for u in [(1, 1), (2, 1), (1, 1, 1)]]
    for alg in fixtures:
        assert check_axioms(sigma_universal(alg), 3).all_pass, alg


def test_criterion_08_right_unit_on_the_s1s4_witnesses():
    for u in BOOLEAN_SHAPES:
        res = exists_s1s4(u)
        assert res.witness is not None, u
        assert right_unit_holds(res.witness) == (True, None), u


def test_criterion_09_permutation_twist_flexibility():
    for u in [(1, 1), (2, 2)]:
        twist = tau_perm(u, (2, 1))
        assert check_axioms(twist, 3).all_pass, u
        assert (twist.product_table()
                != sigma_universal(make_simplicial(u)).product_table()), u


def test_criterion_10_bruteforce_oracle_reproduces_the_searches():
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


def test_reproduction_suite_agrees():
    report = run_suite()
    assert report.ok, [row.name for row in report.rows if row.status == "FAIL"]
    assert len(report.rows) == 54
