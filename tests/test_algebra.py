"""Carrier-level behavior: boxes, tables, the laws, atoms, JSON forms."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from effectalg import (
    CapExceeded,
    Elem,
    InvalidTableAlgebra,
    Shape,
    SimplicialAlgebra,
    TableAlgebra,
    algebra_from_json,
    atoms,
    chain_table,
    fixture_path,
    has_obstruction_atom,
    isotropic_index,
    leq,
    load_algebra,
    load_fixture,
    make_simplicial,
    mo2,
    op_from_json,
    oplus,
    orthosupplement,
    validate_table_algebra,
)

small_shapes = st.lists(st.integers(1, 3), min_size=1, max_size=3).map(tuple)


def test_shape_rejects_bad_coordinates():
    with pytest.raises(ValueError):
        Shape(())
    with pytest.raises(ValueError):
        Shape((0,))
    with pytest.raises(ValueError):
        Shape((2, -1))
    with pytest.raises(ValueError):
        Shape((True,))
    with pytest.raises(ValueError):
        Shape((1.0,))


def test_out_of_range_inputs_are_refused():
    with pytest.raises(ValueError, match="index 3 out of range"):
        Shape((2,)).coords_of(3)
    with pytest.raises(ValueError, match="unknown fixture 'nope'"):
        fixture_path("nope")
    with pytest.raises(ValueError, match="chains need n >= 1"):
        chain_table(0)


def test_canonical_order_on_a_mixed_box():
    # coordinate 1 varies fastest, so (2,1) runs (0,0),(1,0),(2,0),(0,1),...
    alg = make_simplicial((2, 1))
    assert [x.coords for x in alg.elements()] == [
        (0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (2, 1)
    ]
    assert alg.zero_index == 0
    assert alg.one_index == alg.size - 1 == 5


@given(small_shapes)
def test_index_coords_round_trip(u):
    shape = Shape(u)
    for i in range(shape.size):
        assert shape.index_of(shape.coords_of(i)) == i


@given(small_shapes, st.data())
def test_sum_defined_exactly_below_the_top(u, data):
    alg = make_simplicial(u)
    i = data.draw(st.integers(0, alg.size - 1))
    j = data.draw(st.integers(0, alg.size - 1))
    x, y = alg.element(i), alg.element(j)
    s = tuple(a + b for a, b in zip(x.coords, y.coords))
    z = oplus(alg, x, y)
    if all(c <= ui for c, ui in zip(s, u)):
        assert z is not None and z.coords == s
    else:
        assert z is None


@given(small_shapes)
def test_orthosupplement_reverses_the_index_order(u):
    alg = make_simplicial(u)
    table = alg.ortho_table()
    for i in range(alg.size):
        x = alg.element(i)
        xp = orthosupplement(alg, x)
        assert xp.index == table[i] == alg.size - 1 - i
        assert oplus(alg, x, xp) == alg.one


@given(small_shapes, st.data())
def test_leq_agrees_with_coordinatewise_order(u, data):
    alg = make_simplicial(u)
    i = data.draw(st.integers(0, alg.size - 1))
    j = data.draw(st.integers(0, alg.size - 1))
    x, y = alg.element(i), alg.element(j)
    expected = all(a <= b for a, b in zip(x.coords, y.coords))
    assert leq(alg, x, y) is expected
    # and on the exported table the sum-scan route must agree
    assert leq(alg.to_table(), i, j) is expected


@settings(max_examples=30)
@given(small_shapes)
def test_every_box_validates_as_a_table(u):
    report = validate_table_algebra(make_simplicial(u).to_table())
    assert report.ok, report.first_failure()


def test_box_carrier_limit():
    with pytest.raises(CapExceeded):
        make_simplicial((10**6,))
    with pytest.raises(CapExceeded):
        make_simplicial((2049,)).oplus_table()


def test_fixture_algebras_validate():
    for name in ("mo2", "c1", "c2", "c3", "c4"):
        alg = load_fixture(name)
        assert validate_table_algebra(alg).ok, name


def test_orthosupplement_refuses_an_element_of_another_box():
    with pytest.raises(ValueError, match="different box"):
        orthosupplement(make_simplicial((2,)), make_simplicial((1,)).element(1))


def test_leq_refuses_an_element_of_another_box():
    alg = make_simplicial((2, 1))
    stranger = make_simplicial((1, 2)).element(1)
    with pytest.raises(ValueError, match="different box"):
        leq(alg, stranger, alg.one)
    with pytest.raises(ValueError, match="different box"):
        leq(alg, alg.zero, stranger)


def test_isotropic_index_refuses_an_element_of_another_box():
    with pytest.raises(ValueError, match="different box"):
        isotropic_index(make_simplicial((4, 2)), make_simplicial((1,)).element(1))


def test_chain_fixtures_match_the_generated_tables():
    for n in (1, 2, 3, 4):
        assert load_fixture(f"c{n}").to_json() == chain_table(n).to_json()
    # a chain is the box [0, n], so it shares the box sum-table limit
    for n in (2048, 10**5):
        with pytest.raises(CapExceeded):
            chain_table(n)


def test_mo2_sum_structure():
    alg = mo2()
    s = alg.sum_table
    # only 0-sums and the two complement pairs are defined off the diagonal
    assert s[1][2] == s[2][1] == 5
    assert s[3][4] == s[4][3] == 5
    assert s[1][3] is None and s[1][4] is None and s[2][3] is None
    assert alg.ortho_table() == (5, 2, 1, 4, 3, 0)


def test_commutativity_witness():
    t = [[0, 1], [None, 1]]
    report = validate_table_algebra(TableAlgebra(2, 0, 1, t))
    assert report.checks["commutativity"] == {"a": 0, "b": 1}
    assert not report.ok
    assert report.first_failure().startswith("commutativity fails")


def test_associativity_witness_catches_definedness_disagreement():
    # 1 (+) 2 = 3 but 2 (+) 1 undefined, so (1+1)+1 is undefined while 1+(1+1)
    # is not; the scan blames the least triple
    t = [[0, 1, 2, 3], [1, 2, 3, None], [2, None, None, None], [3, None, None, None]]
    report = validate_table_algebra(TableAlgebra(4, 0, 3, t))
    assert report.checks["associativity"] == {"a": 1, "b": 1, "c": 1}


def test_orthosupplement_witness_lists_partners():
    t = [[0, 1, 2], [1, None, None], [2, None, None]]
    report = validate_table_algebra(TableAlgebra(3, 0, 2, t))
    assert report.checks["orthosupplement"] == {"a": 1, "partners": []}


def test_zero_one_witness():
    # 1 (+) 1 defined at a nonzero a breaks the zero-one law
    t = [[0, 1], [1, 1]]
    report = validate_table_algebra(TableAlgebra(2, 0, 1, t))
    assert report.checks["zero_one"] == {"a": 1}


def test_positivity_witness():
    t = [[0, 1], [1, 0]]
    report = validate_table_algebra(TableAlgebra(2, 0, 1, t))
    assert report.checks["positivity"] == {"a": 1, "b": 1}


def test_validation_reads_the_constructor_listing(monkeypatch):
    # the constructor lists each row's domain and sums as it checks the
    # row's entries; the validation reads that listing and lists no row again,
    # whether the laws hold or fail
    from effectalg import algebra

    listed = []

    def row_domain(row):
        listed.append(row)
        return real(row)

    real = algebra._row_domain
    monkeypatch.setattr(algebra, "_row_domain", row_domain)
    verdicts = []
    for rows in (make_simplicial((2, 1)).oplus_table(), [[0, 1], [1, 0]]):
        listed.clear()
        alg = TableAlgebra(len(rows), 0, len(rows) - 1, rows)
        assert len(listed) == alg.size
        assert alg._domains == [real(row) for row in alg.sum_table]
        listed.clear()
        verdicts.append(validate_table_algebra(alg).ok)
        assert listed == []
    assert verdicts == [True, False]


def test_atoms_of_boxes_are_unit_vectors_with_their_heights():
    alg = make_simplicial((2, 3))
    recs = atoms(alg)
    assert [(rec.atom.coords, rec.ord) for rec in recs] == [((1, 0), 2), ((0, 1), 3)]


def test_atoms_of_tables():
    assert [(rec.atom, rec.ord) for rec in atoms(chain_table(3))] == [(1, 3)]
    assert [(rec.atom, rec.ord) for rec in atoms(mo2())] == [
        (1, 1), (2, 1), (3, 1), (4, 1)
    ]


def test_box_atoms_and_generators_read_no_sum_table(monkeypatch):
    # 4096 elements, over the 2048-element sum-table limit: the atoms and the
    # sum generators come from the shape
    def refuse(self):
        raise AssertionError("the sum table was read")

    monkeypatch.setattr(SimplicialAlgebra, "oplus_table", refuse)
    alg = make_simplicial((1,) * 12)
    units = tuple(1 << i for i in range(12))
    assert alg.atom_indices() == units
    assert alg.sum_generators() == (0,) + units
    assert [(alg.index(rec.atom), rec.ord) for rec in atoms(alg)] == [(p, 1) for p in units]
    assert not has_obstruction_atom(alg)


@pytest.mark.parametrize("bad", [-1, 6, True])
def test_table_elements_are_int_indices_in_range(bad):
    # mo2 has six elements; a bool is refused though it compares as an int
    alg = mo2()
    calls = [lambda: oplus(alg, bad, 0), lambda: oplus(alg, 0, bad),
             lambda: orthosupplement(alg, bad), lambda: leq(alg, bad, 5),
             lambda: leq(alg, 0, bad), lambda: isotropic_index(alg, bad)]
    for call in calls:
        with pytest.raises(ValueError, match="not an element index below 6"):
            call()


@pytest.mark.parametrize("bad", [1, True, None])
def test_box_elements_are_elems_of_the_box(bad):
    # the box twin of the test above: an index is no element of a box
    alg = make_simplicial((2,))
    calls = [lambda: oplus(alg, bad, alg.zero), lambda: oplus(alg, alg.zero, bad),
             lambda: orthosupplement(alg, bad), lambda: leq(alg, bad, alg.one),
             lambda: leq(alg, alg.zero, bad), lambda: isotropic_index(alg, bad)]
    for call in calls:
        with pytest.raises(ValueError, match=r"is not an element of the box \(2,\)"):
            call()


@pytest.mark.parametrize("bad, message", [(True, "not an element index"),
                                          (1.0, "not an element index"),
                                          (-1, "out of range"), (3, "out of range")])
def test_box_element_takes_an_int_index_in_range(bad, message):
    with pytest.raises(ValueError, match=message):
        make_simplicial((2,)).element(bad)


@pytest.mark.parametrize("bad", [-1, 6, True, 1.0, None])
def test_index_level_sums_take_int_indices_in_range_on_both_carriers(bad):
    # a negative index would wrap round, and a bool compares as an int; the
    # box has six elements too, so each bad value is bad on both carriers
    for alg in [mo2(), make_simplicial((5,))]:
        for i, j in [(bad, 0), (0, bad)]:
            with pytest.raises(ValueError, match="not an element index below 6"):
                alg.oplus_index(i, j)


def test_isotropic_index():
    alg = make_simplicial((4, 2))
    assert isotropic_index(alg, alg.element(1)) == 4
    assert isotropic_index(alg, Elem((1, 1), alg.shape)) == 2
    with pytest.raises(ValueError):
        isotropic_index(alg, alg.zero)
    assert isotropic_index(chain_table(3), 1) == 3
    with pytest.raises(ValueError):
        isotropic_index(chain_table(3), 0)


def test_obstruction_atoms():
    assert not has_obstruction_atom(make_simplicial((1, 1, 1)))
    assert has_obstruction_atom(make_simplicial((2, 1)))
    assert has_obstruction_atom(chain_table(2))
    assert not has_obstruction_atom(chain_table(1))
    assert not has_obstruction_atom(mo2())


def test_json_round_trips(tmp_path):
    box = make_simplicial((2, 1))
    assert algebra_from_json(box.to_json()).to_json() == box.to_json()

    table = mo2()
    again = algebra_from_json(table.to_json())
    assert again.to_json() == table.to_json()
    # undefined sums travel as -1
    assert table.to_json()["sum"][1][1] == -1

    path = tmp_path / "alg.json"
    path.write_text(json.dumps(box.to_json()))
    assert load_algebra(path).to_json() == box.to_json()


def test_loading_an_invalid_table_raises_with_a_report():
    bad = {"type": "table", "size": 2, "zero": 0, "one": 1, "sum": [[0, 1], [1, 1]]}
    with pytest.raises(InvalidTableAlgebra) as exc:
        algebra_from_json(bad)
    assert exc.value.report.checks["zero_one"] == {"a": 1}
    # the message names the first failing law in scan order
    assert "orthosupplement fails at" in str(exc.value)


def test_json_decode_errors():
    with pytest.raises(ValueError):
        algebra_from_json({"type": "mystery"})
    with pytest.raises(ValueError):
        algebra_from_json({"type": "simplicial"})
    with pytest.raises(ValueError):
        algebra_from_json({"type": "table", "size": 2})
    # only the int -1 marks an undefined sum: -1.0 equals it but is a float
    chain = {"type": "table", "size": 2, "zero": 0, "one": 1, "sum": [[0, 1], [1, -1.0]]}
    with pytest.raises(ValueError, match="sum entry -1.0 is not None or an index below 2"):
        algebra_from_json(chain)


@pytest.mark.parametrize("bad", [-1.0, True, False, 2, -2, 2.0, None, "1"])
def test_decode_refuses_what_is_no_entry(bad):
    # the sum table's -1 is the int -1 only; a float equal to an index, a
    # bool and an index out of range are refused with the entry named, in a
    # sum table and in a product table (whose -1 is refused too)
    chain = {"type": "table", "size": 2, "zero": 0, "one": 1, "sum": [[0, 1], [1, -1]]}
    refused = dict(chain, sum=[[0, 1], [1, bad]])
    if bad is None:
        # a JSON null is taken as undefined, like -1
        assert algebra_from_json(refused).sum_table == algebra_from_json(chain).sum_table
    else:
        message = f"sum entry {bad!r} is not None or an index below 2$"
        with pytest.raises(ValueError, match=message):
            algebra_from_json(refused)
    for entry in (bad, -1):
        table = [[0, 0], [0, entry]]
        with pytest.raises(ValueError, match=f"table entry {entry!r} is not an index below 2$"):
            op_from_json({"algebra": chain, "table": table})
    assert op_from_json({"algebra": chain, "table": [[0, 0], [0, 1]]}).product_table()[1] == (0, 1)


def test_table_wellformedness_errors():
    with pytest.raises(ValueError):
        TableAlgebra(0, 0, 0, [])
    with pytest.raises(ValueError):
        TableAlgebra(2, 0, 2, [[0, 1], [1, None]])
    with pytest.raises(ValueError):
        TableAlgebra(2, 0, 1, [[0, 1]])
    with pytest.raises(ValueError):
        TableAlgebra(2, 0, 1, [[0, 9], [1, None]])


def test_ortho_on_an_unvalidated_table_demands_uniqueness():
    t = [[0, 1, 2], [1, None, None], [2, None, None]]
    alg = TableAlgebra(3, 0, 2, t)
    with pytest.raises(ValueError, match="validate"):
        alg.ortho_table()
