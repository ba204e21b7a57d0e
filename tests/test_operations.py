"""Binary operations, the S1..S5 battery, witnesses and their replay."""

import time
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from effectalg import (
    CapExceeded,
    Operation,
    TableAlgebra,
    bruteforce_prefixes,
    check_axioms,
    chain_table,
    enumerate_s1sk,
    from_full_table,
    make_simplicial,
    meet_boolean,
    mo2,
    op_from_json,
    replay_witness,
    right_unit_holds,
    sigma_universal,
    tau_perm,
    validate_table_algebra,
)
from effectalg import operations
from effectalg.fixtures import load_fixture
from effectalg.maps import broken_pair
from effectalg.operations import NotS1, check_s1, check_s4, check_s4_given_s1

small_shapes = st.lists(st.integers(1, 3), min_size=1, max_size=3).map(tuple)


def test_operation_needs_exactly_one_representation():
    # an operation is its table; matrices come in only as op_from_json's
    # "rows", which checks them
    alg = make_simplicial((1,))
    box, ident = alg.to_json(), [[1]]
    with pytest.raises(TypeError):
        Operation(alg)
    with pytest.raises(TypeError):
        Operation(alg, matrices=[((0,),), ((1,),)])
    with pytest.raises(ValueError):
        op_from_json({"algebra": box, "rows": {"0": ident}})  # one matrix short
    with pytest.raises(ValueError, match="matrix for element 0 is not u-subunital"):
        op_from_json({"algebra": box, "rows": {"0": [[2]], "1": ident}})
    with pytest.raises(ValueError, match="need a simplicial algebra"):
        op_from_json({"algebra": chain_table(1).to_json(), "rows": {"0": [[0]], "1": ident}})
    with pytest.raises(ValueError):
        Operation(alg, [[0, 2], [0, 1]])
    with pytest.raises(ValueError):
        Operation(alg, [[0, 0]])


@pytest.mark.parametrize("entry", [0.5, 1.0, True, False])
def test_matrix_entries_must_be_integers(entry):
    # a float entry would reach the action rows, and a bool would pass as 0
    # or 1; both are refused before any row is built
    obj = {"algebra": make_simplicial((2,)).to_json(),
           "rows": {"0": [[0]], "1": [[entry]], "2": [[1]]}}
    with pytest.raises(ValueError) as exc:
        op_from_json(obj)
    assert str(exc.value) == "each of rows must be a list of integer rows"


def test_matrix_and_table_routes_compute_the_same_products():
    alg = make_simplicial((2, 1))
    op = sigma_universal(alg)
    zero, ident = [[0, 0], [0, 0]], [[1, 0], [0, 1]]
    rows = {str(a): zero if a == alg.zero_index else ident for a in range(alg.size)}
    matrix_op = op_from_json({"algebra": alg.to_json(), "rows": rows})
    table_op = Operation(op.algebra, op.product_table())
    for a in range(alg.size):
        for b in range(alg.size):
            assert op.apply(a, b) == matrix_op.apply(a, b) == table_op.apply(a, b)


def test_sigma_table_on_the_three_chain():
    op = sigma_universal(make_simplicial((2,)))
    assert op.product_table() == ((0, 0, 0), (0, 1, 2), (0, 1, 2))


@settings(max_examples=25)
@given(small_shapes)
def test_sigma_passes_s1_to_s3_on_every_box(u):
    assert check_axioms(sigma_universal(make_simplicial(u)), 3).all_pass


def test_sigma_passes_s1_to_s3_on_tables():
    for alg in (chain_table(1), chain_table(4), mo2()):
        assert check_axioms(sigma_universal(alg), 3).all_pass


def test_sigma_fails_s4_at_the_first_orthosupplement_clause():
    # a = 1 commutes with b = 0, but 1 o 0' = 1 o top = top while top o 1 = 1
    for alg in (make_simplicial((2,)), mo2()):
        rep = check_axioms(sigma_universal(alg), 4)
        assert rep.witness("s4") == (1, 0)
        assert replay_witness(sigma_universal(alg), "s4", (1, 0))


def test_meet_is_the_componentwise_minimum():
    op = meet_boolean(2)
    assert op.product_table() == ((0, 0, 0, 0), (0, 1, 0, 1), (0, 0, 2, 2), (0, 1, 2, 3))
    alg = op.algebra
    for x in alg.elements():
        for y in alg.elements():
            expected = tuple(min(a, b) for a, b in zip(x.coords, y.coords))
            assert alg.element(op.apply(x.index, y.index)).coords == expected


def test_meet_passes_the_whole_battery():
    for r in (1, 2, 3):
        assert check_axioms(meet_boolean(r), 5).all_pass


def test_meet_rejects_non_boolean_shapes():
    with pytest.raises(ValueError):
        meet_boolean(make_simplicial((2, 1)))
    with pytest.raises(ValueError):
        meet_boolean(mo2())
    # a rank is an int: a bool or a float is refused, not read as one
    for r in (True, 2.0, "2"):
        with pytest.raises(ValueError):
            meet_boolean(r)


def test_meet_refuses_a_large_rank_before_building_its_shape():
    # the box of rank r has 2**r elements, counted where the count can be
    # written; the refusal costs no time or memory that grows with r
    for r, count in [(20, 2**20), (14000, 2**14000), (40000, None), (10**9, None)]:
        start = time.perf_counter()
        with pytest.raises(CapExceeded) as exc:
            meet_boolean(r)
        assert time.perf_counter() - start < 0.01, r
        assert exc.value.count == count, r
    for r in (0, -3):
        with pytest.raises(ValueError):
            meet_boolean(r)


def test_tau_swap_on_the_four_element_box():
    op = tau_perm((1, 1), (2, 1))
    assert op.product_table() == ((0, 0, 0, 0), (0, 2, 1, 3), (0, 2, 1, 3), (0, 1, 2, 3))
    rep = check_axioms(op, 5)
    assert rep.passed("s1") and rep.passed("s2") and rep.passed("s3")
    assert rep.witness("s4") == (1, 0)
    assert rep.witness("s5") == (1, 1, 1)
    assert replay_witness(op, "s4", (1, 0))
    assert replay_witness(op, "s5", (1, 1, 1))


def test_tau_with_the_identity_permutation_is_sigma():
    for u in [(1, 1), (2, 2), (1, 1, 1)]:
        assert (tau_perm(u, tuple(range(1, len(u) + 1))).product_table()
                == sigma_universal(make_simplicial(u)).product_table())


def test_tau_differs_from_sigma_under_a_real_swap():
    for u in [(1, 1), (2, 2)]:
        assert (tau_perm(u, (2, 1)).product_table()
                != sigma_universal(make_simplicial(u)).product_table())


def test_tau_input_validation():
    with pytest.raises(ValueError):
        tau_perm((2, 1), (2, 1))  # not homogeneous
    with pytest.raises(ValueError):
        tau_perm((1, 1), (1, 1))  # not a permutation
    with pytest.raises(ValueError):
        tau_perm((1, 1), (0, 1))
    with pytest.raises(ValueError):
        tau_perm(mo2(), (2, 1))  # not a box
    # a bool or a float is no permutation entry, though it compares equal to one
    for perm in [(2, True), (2.0, 1.0), (2, 1.0)]:
        with pytest.raises(ValueError, match="is not a permutation"):
            tau_perm((1, 1), perm)


def test_apply_takes_element_indices_only():
    op = meet_boolean(2)
    assert op.apply(1, 3) == 1
    # -1 would wrap to the top, and a bool is no index
    for a, b in [(1, -1), (-1, 1), (True, 1), (1, False), (4, 0), (0, 1.0)]:
        with pytest.raises(ValueError):
            op.apply(a, b)


def test_axiom_witnesses_on_hand_built_tables():
    c1 = make_simplicial((1,))
    zero_op = Operation(c1, table=[[0, 0], [0, 0]])
    rep = check_axioms(zero_op, 2)
    assert rep.witness("s2") == (1,)
    assert replay_witness(zero_op, "s2", (1,))

    const = Operation(c1, table=[[0, 1], [0, 1]])
    rep = check_axioms(const, 3)
    assert rep.witness("s3") == (1, 0)
    assert replay_witness(const, "s3", (1, 0))

    c2 = make_simplicial((2,))
    bent = Operation(c2, table=[[0, 0, 0], [0, 1, 0], [0, 1, 2]])
    rep = check_axioms(bent, 1)
    assert rep.witness("s1") == (1, 1, 1)
    assert replay_witness(bent, "s1", (1, 1, 1))


def test_s4_given_s1_compares_the_composition_clause_at_the_atoms():
    # every row of this B2 table is additive, so S1 holds; S4 fails only in
    # its composition clause, first at c = 2, an atom.  At c = 0 both sides
    # are 0 for every commuting pair and the b'-clause holds throughout, so
    # an S4 check comparing the composition clause at zero alone passes it
    alg = make_simplicial((1, 1))
    table = ((0, 0, 0, 0), (0, 2, 0, 2), (0, 0, 1, 1), (0, 2, 1, 3))
    op = Operation(alg, table=table)
    rep = check_axioms(op, 4)
    assert rep.passed("s1") and rep.passed("s3")
    assert rep.witness("s4") == (1, 1, 2)
    assert replay_witness(op, "s4", (1, 1, 2))
    assert 2 in alg.atom_indices()
    assert check_s4_given_s1(alg, table) == check_s4(alg, table) == (1, 1, 2)
    ortho = alg.ortho_table()
    for a, b in product(range(alg.size), repeat=2):
        if table[a][b] == table[b][a]:
            assert table[a][ortho[b]] == table[ortho[b]][a]
            assert table[a][table[b][0]] == table[table[a][b]][0]


# a 4-element table that breaks associativity at (a, b, c) = (1, 1, 2) and has
# no atoms: every nonzero element is a sum of two others
NOT_ASSOCIATIVE = [[0, 1, 2, 3], [1, 2, 3, None], [2, 3, 1, None], [3, None, None, None]]


def test_s1_screens_at_the_atoms_only_where_the_laws_hold():
    row = (0, 0, 0, 1)  # 1 (+) 2 = 3, but f(1) (+) f(2) = 0 != f(3)
    alg = TableAlgebra(4, 0, 3, NOT_ASSOCIATIVE)
    assert alg.atom_indices() == ()
    assert operations._atom_screen(alg) is None
    assert check_s1(alg, (row,)) == (0, 1, 2)
    report = validate_table_algebra(alg)
    assert report.checks["associativity"] == {"a": 1, "b": 1, "c": 2}
    assert operations._atom_screen(alg) is None
    assert check_s1(alg, (row,)) == (0, 1, 2)
    # and no screen is kept where the laws are not known to hold
    assert alg._screen is None
    # the gate is what keeps the witness: with no atoms, a screen applied to
    # this table passes every row
    ungated = TableAlgebra(4, 0, 3, NOT_ASSOCIATIVE)
    ungated._laws_hold = True
    assert check_s1(ungated, (row,)) is None

    box = make_simplicial((1, 1))
    table = box.to_table()
    assert operations._atom_screen(box) is not None
    assert operations._atom_screen(table) is None
    assert table._screen is None
    assert validate_table_algebra(table).ok
    assert operations._atom_screen(table) is not None
    assert operations._atom_screen(load_fixture("mo2")) is not None
    # each carrier keeps its own screen, built once
    assert operations._atom_screen(box) is box._screen is operations._atom_screen(box)
    assert table._screen is not box._screen


SCREENED_ALGEBRAS = {
    **{str(u): make_simplicial(u) for u in [(2,), (4,), (1, 1), (2, 1)]},
    **{name: load_fixture(name) for name in ("c3", "c4", "mo2")},
}


@pytest.mark.parametrize("name", sorted(SCREENED_ALGEBRAS))
def test_atom_screen_passes_exactly_the_additive_rows(name):
    # every map of the carrier into itself, so a row that breaks additivity
    # only at the last atom, or only at one x, is among them
    alg = SCREENED_ALGEBRAS[name]
    passes = operations._atom_screen(alg)
    additive = 0
    for row in product(range(alg.size), repeat=alg.size):
        walked = broken_pair(alg, alg, row)
        assert passes(row) == (walked is None), row
        assert check_s1(alg, (row,)) == (None if walked is None else (0, *walked))
        additive += walked is None
    assert additive > 1


def test_raw_table_oracle_does_not_use_the_atom_screen(monkeypatch):
    alg = load_fixture("c2")
    want = bruteforce_prefixes(alg)

    def screen(alg):
        raise AssertionError("the atom screen was used")

    monkeypatch.setattr(operations, "_atom_screen", screen)
    with pytest.raises(AssertionError, match="atom screen"):
        check_s1(alg, sigma_universal(alg).product_table())
    got = bruteforce_prefixes(alg)
    assert got == want
    assert got[0]


def test_check_axioms_rejects_bad_upto():
    op = sigma_universal(make_simplicial((1,)))
    for upto in (0, 6, True, 3.0):
        with pytest.raises(ValueError, match="upto must be in 1..5"):
            check_axioms(op, upto)


def test_check_axioms_refuses_an_oversized_algebra_before_its_product_table(monkeypatch):
    # 47 x 47 = 2209 elements, over the 2048-element sum table limit; an
    # operation built from a table is refused by check_axioms, whose S1 check
    # asks for the sum table first, and a named one, or one read from
    # matrices, before its action rows are built
    alg = make_simplicial((46, 46))
    n = alg.size
    op = Operation(alg, ((0,) * n,) * n)
    with pytest.raises(CapExceeded) as exc:
        check_axioms(op, 1)
    assert exc.value.count == 2209 ** 2

    def no_rows(*args):
        raise AssertionError("action rows were built before the cap check")

    monkeypatch.setattr(operations, "matrix_actions", no_rows)
    rows = {str(a): [[1, 0], [0, 1]] for a in range(n)}
    for build in (lambda: sigma_universal(alg), lambda: tau_perm(alg, (2, 1)),
                  lambda: op_from_json({"algebra": alg.to_json(), "rows": rows})):
        with pytest.raises(CapExceeded) as exc:
            build()
        assert exc.value.count == 2209 ** 2


def test_report_json_shape():
    rep = check_axioms(sigma_universal(make_simplicial((2,))), 4)
    assert rep.to_json() == {
        "s1": "pass",
        "s2": "pass",
        "s3": "pass",
        "s4": {"fail": {"a": 1, "b": 0}},
    }


def test_every_reported_witness_replays():
    """Whatever the checker blames, re-evaluating that instance must confirm."""
    res = enumerate_s1sk((1, 1), 3)
    for op in res.operations:
        rep = check_axioms(op, 5)
        for axiom in ("s4", "s5"):
            w = rep.witness(axiom)
            if w is not None:
                assert replay_witness(op, axiom, w), (axiom, w)


def test_replay_rejects_non_violations():
    meet = meet_boolean(2)
    assert not replay_witness(meet, "s2", (1,))
    assert not replay_witness(meet, "s3", (1, 2))
    assert not replay_witness(meet, "s4", (1, 2))
    assert not replay_witness(meet, "s5", (1, 2, 3))
    tau = tau_perm((1, 1), (2, 1))
    # hypothesis fails at (1, 2): p and q do not commute under the swap
    assert not replay_witness(tau, "s5", (1, 2, 0))
    with pytest.raises(ValueError):
        replay_witness(meet, "s9", (0,))


def test_replay_rejects_instances_outside_the_axiom_hypothesis():
    # S1 speaks only of defined sums: on B2, p (+) p is undefined
    meet = meet_boolean(2)
    assert meet.algebra.oplus_table()[1][1] is None
    assert not replay_witness(meet, "s1", (0, 1, 1))
    # S5 needs c to commute with a: under the swap q o p = q but p o q = p,
    # and q commutes neither with p nor with p o 1 = 1, so only the
    # hypothesis keeps (p, 1, q) from replaying
    tau = tau_perm((1, 1), (2, 1))
    prod = tau.product_table()
    assert prod[2][1] != prod[1][2]
    assert prod[2][prod[1][3]] != prod[prod[1][3]][2]
    assert not replay_witness(tau, "s5", (1, 3, 2))


@pytest.mark.parametrize("axiom, witness", [
    ("s2", (-1,)),      # would wrap to the top, which S2 does not move
    ("s3", (True, 0)),  # a bool is no element index
    ("s1", (0, 0, 99)),
    ("s5", (0, 1, 2.0)),
    ("s4", (1,)),
    ("s1", (0, 1)),
    (["s1"], (0, 1, 2)),  # unhashable, so no dict lookup may see it
    ("s3", 5),
    ("s1", None),
    ("s2", {0}),          # a set has no order to read a tuple in
])
def test_replay_refuses_witnesses_that_are_not_elements(axiom, witness):
    with pytest.raises(ValueError,
                       match="element index|wrong length|unknown axiom|not a sequence"):
        replay_witness(meet_boolean(2), axiom, witness)


def test_right_unit():
    assert right_unit_holds(meet_boolean(3)) == (True, None)
    assert right_unit_holds(sigma_universal(make_simplicial((1,)))) == (True, None)
    assert right_unit_holds(sigma_universal(make_simplicial((3,)))) == (False, 1)
    assert right_unit_holds(sigma_universal(make_simplicial((6,)))) == (False, 1)


@given(small_shapes)
def test_right_unit_under_sigma_fails_exactly_past_two_elements(u):
    # sigma sends (a, 1) to 1, so any element besides 0 and 1 violates a o 1 = a,
    # and element index 1 is the least such
    alg = make_simplicial(u)
    holds, witness = right_unit_holds(sigma_universal(alg))
    assert holds == (alg.size <= 2)
    assert witness == (None if holds else 1)


def test_commutes():
    # row (1,0) of tau is the swap P, so (1,0) o (1,1) = P(1,1) = (1,1),
    # while the identity top row gives (1,1) o (1,0) = (1,0)
    tau = tau_perm((1, 1), (2, 1))
    assert (tau.apply(1, 3), tau.apply(3, 1)) == (3, 1)
    # on B2 the index bits are the coordinates, so the meet is bitwise and
    meet = meet_boolean(2)
    for a in range(4):
        for b in range(4):
            assert meet.apply(a, b) == meet.apply(b, a) == a & b


def test_from_full_table_recovers_matrix_families():
    zero, ident = ((0, 0), (0, 0)), ((1, 0), (0, 1))
    cases = [
        (sigma_universal(make_simplicial((2, 1))), (zero,) + (ident,) * 5),
        (meet_boolean(2), (zero, ((1, 0), (0, 0)), ((0, 0), (0, 1)), ident)),
        (tau_perm((2, 2), (2, 1)), (zero,) + (((0, 1), (1, 0)),) * 7 + (ident,)),
    ]
    for op, matrices in cases:
        assert from_full_table(op.algebra, op.product_table()) == matrices


def test_from_full_table_refutes_non_additive_rows():
    alg = make_simplicial((2,))
    got = from_full_table(alg, ((0, 0, 0), (0, 1, 0), (0, 1, 2)))
    assert isinstance(got, NotS1)
    assert got.row == 1
    x, y = got.witness
    assert (x.index, y.index) == (1, 1)
    # row 0 is linear in the index, but its matrix sends u to (2, 0), outside
    # the box
    b2 = make_simplicial((1, 1))
    got = from_full_table(b2, ((0, 1, 1, 2),) * 3 + ((0, 1, 2, 3),))
    assert got == NotS1(row=0, witness=(b2.element(1), b2.element(2)))
    with pytest.raises(ValueError):
        from_full_table(chain_table(2), ((0, 0, 0), (0, 1, 2), (0, 1, 2)))


def test_operation_json_round_trips():
    tau = tau_perm((1, 1), (2, 1))
    obj = tau.to_json()
    assert set(obj) == {"algebra", "table"}
    assert op_from_json(obj).product_table() == tau.product_table()
    # the matrices of its rows, read back as "rows", give the same table
    matrices = from_full_table(tau.algebra, tau.product_table())
    rows = {str(a): [list(r) for r in M] for a, M in enumerate(matrices)}
    assert set(rows) == {"0", "1", "2", "3"}
    again = op_from_json({"algebra": obj["algebra"], "rows": rows})
    assert again.product_table() == tau.product_table()

    sigma = sigma_universal(mo2())
    table_op = Operation(sigma.algebra, sigma.product_table())
    again = op_from_json(table_op.to_json())
    assert again.product_table() == table_op.product_table()


def test_operation_json_errors():
    alg = make_simplicial((1,))
    op = sigma_universal(alg)
    with pytest.raises(ValueError):
        op_from_json({"table": [[0, 0], [0, 1]]})
    with pytest.raises(ValueError):
        op_from_json({"algebra": alg.to_json()})
    with pytest.raises(ValueError):
        op_from_json({"algebra": op.algebra.to_json(), "rows": {"0": [[0]]}})
    with pytest.raises(ValueError):
        op_from_json({"algebra": chain_table(1).to_json(),
                      "rows": {"0": [[0]], "1": [[1]]}})
