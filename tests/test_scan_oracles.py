"""The row-level axiom and associativity scans against the element-by-element
loops they replaced.

The reference functions below are the plain triple loops, kept here as
oracles: every scan must report exactly the same least witness (or None) on
every table, including tables that fail late, fail in definedness only, or
have a single element.  That covers the restricted scans too: S4's
composition clause read only at the sum generators once S1 holds;
associativity read only where one side is defined, decided a row at a time
by down-sets, and by counts on the rows that cancel, with the rows that do
not cancel and the domains that are no down-sets tested on their own;
S5 with the centre masked out, on products whose centre is proper; the
byte paths of S1's atom screen and S3 (the zero pattern against its
transpose), on tables on either side of the sizes where they take over,
with the path each size takes checked as well; and the commuting flags
that S4 and S5 share, read whole and resumed, on either side of 256
elements.

The box sum and orthosupplement tables are read by index arithmetic (i + j
when no coordinate carries, N - 1 - i); the coordinate-tuple loops they
replaced are kept below as their references.

Two raw-table oracles that stop early are checked here too.  S1 reads each
row on its own (the row-locality lemma that bruteforce_prefixes rests on),
and additive_maps_bruteforce, which drops a partial image table at its first
broken sum, must return the same list as the filter over every function and,
on the table fixtures whose self-maps are bruteforce_prefixes' S1 rows, as
the broken_pair walk over every row.
"""

import math
import random
from itertools import islice, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from effectalg import (
    AtomRecord,
    Operation,
    TableAlgebra,
    additive_maps_bruteforce,
    atoms,
    chain_table,
    check_axioms,
    enumerate_s1sk,
    enumerate_subunital,
    isotropic_index,
    make_simplicial,
    meet_boolean,
    mo2,
    sigma_universal,
    tau_perm,
    validate_table_algebra,
)
from effectalg import operations
from effectalg.fixtures import load_fixture
from effectalg.maps import broken_pair
from effectalg.operations import (
    check_s1,
    check_s3,
    check_s4,
    check_s4_given_s1,
    check_s5,
    matrix_actions,
)


def oplus_table_reference(alg):
    """The box sum table by coordinates: x + y where it stays below u."""
    u = alg.shape.u
    coords = alg.shape.all_coords
    rows = []
    for a in coords:
        row = []
        for b in coords:
            s = tuple(x + y for x, y in zip(a, b))
            row.append(None if any(c > ui for c, ui in zip(s, u))
                       else alg.shape.index_of(s))
        rows.append(tuple(row))
    return tuple(rows)


def ortho_table_reference(alg):
    """The box orthosupplements by coordinates: u - x."""
    u = alg.shape.u
    return tuple(alg.shape.index_of(tuple(ui - c for c, ui in zip(x, u)))
                 for x in alg.shape.all_coords)


def s1_reference(alg, prod):
    n = alg.size
    sums = alg.oplus_table()
    for a, row in enumerate(prod):
        for b in range(n):
            sb = sums[b]
            ab = row[b]
            for c in range(b, n):
                k = sb[c]
                if k is None:
                    continue
                t = sums[ab][row[c]]
                if t is None or t != row[k]:
                    return (a, b, c)
    return None


def s3_reference(alg, prod):
    n, zero = alg.size, alg.zero_index
    for a in range(n):
        for b in range(n):
            if prod[a][b] == zero and prod[b][a] != zero:
                return (a, b)
    return None


def s4_reference(alg, prod):
    n = alg.size
    ortho = alg.ortho_table()
    for a in range(n):
        row = prod[a]
        for b in range(n):
            if row[b] != prod[b][a]:
                continue
            bp = ortho[b]
            if row[bp] != prod[bp][a]:
                return (a, b)
            rowb = prod[b]
            ab = row[b]
            for c in range(n):
                if row[rowb[c]] != prod[ab][c]:
                    return (a, b, c)
    return None


def s5_reference(alg, prod):
    n = alg.size
    sums = alg.oplus_table()
    for a in range(n):
        rowa = prod[a]
        for b in range(n):
            ab = rowa[b]
            k = sums[a][b]
            for c in range(n):
                rowc = prod[c]
                if rowc[a] != rowa[c] or rowc[b] != prod[b][c]:
                    continue
                if rowc[ab] != prod[ab][c]:
                    return (a, b, c)
                if k is not None and rowc[k] != prod[k][c]:
                    return (a, b, c)
    return None


def atoms_reference(alg):
    """The atoms of a table by the order relation: the nonzero elements with
    no nonzero strict lower bound b, where b (+) c = a for some c."""
    n = alg.size
    below = [set() for _ in range(n)]
    for b in range(n):
        if b == alg.zero_index:
            continue
        for c in range(n):
            a = alg.sum_table[b][c]
            if a is not None and a != b:
                below[a].add(b)
    return [AtomRecord(a, isotropic_index(alg, a))
            for a in range(n)
            if a != alg.zero_index and not below[a]]


def additive_maps_reference(dom, cod):
    """All additive maps dom -> cod as image index tuples, by testing each of
    the |cod| ** |dom| functions against every defined sum, in canonical
    function order."""
    n, m = dom.size, cod.size
    pairs = []
    for i in range(n):
        for j in range(i, n):
            k = dom.oplus_index(i, j)
            if k is not None:
                pairs.append((i, j, k))
    ov = cod.oplus_table()
    out = []
    for f in product(range(m), repeat=n):
        for i, j, k in pairs:
            t = ov[f[i]][f[j]]
            if t is None or t != f[k]:
                break
        else:
            out.append(f)
    return out


def validation_reference(alg):
    """The checks of validate_table_algebra, law by law, as plain loops."""
    n = alg.size
    s = alg.sum_table
    zero, one = alg.zero_index, alg.one_index

    def commutativity():
        for a in range(n):
            for b in range(n):
                if s[a][b] != s[b][a]:
                    return {"a": a, "b": b}
        return None

    def associativity():
        for a in range(n):
            for b in range(n):
                ab = s[a][b]
                for c in range(n):
                    bc = s[b][c]
                    left = None if ab is None else s[ab][c]
                    right = None if bc is None else s[a][bc]
                    if (left is None) != (right is None) or left != right:
                        return {"a": a, "b": b, "c": c}
        return None

    def orthosupplement_law():
        for a in range(n):
            partners = [b for b in range(n) if s[a][b] == one]
            if len(partners) != 1:
                return {"a": a, "partners": partners}
        return None

    def zero_one():
        for a in range(n):
            if s[a][one] is not None and a != zero:
                return {"a": a}
        return None

    def positivity():
        for a in range(n):
            for b in range(n):
                if s[a][b] == zero and (a != zero or b != zero):
                    return {"a": a, "b": b}
        return None

    return {
        "commutativity": commutativity(),
        "associativity": associativity(),
        "orthosupplement": orthosupplement_law(),
        "zero_one": zero_one(),
        "positivity": positivity(),
    }


SCANS = {"s1": (check_s1, s1_reference), "s3": (check_s3, s3_reference),
         "s4": (check_s4, s4_reference), "s5": (check_s5, s5_reference)}


def assert_same_witnesses(alg, tables):
    """Each scan, and check_axioms, which takes the restricted S4 scan
    whenever S1 holds, against the reference loops."""
    for prod in tables:
        results = check_axioms(Operation(alg, table=prod), 5).results
        for name, (scan, reference) in SCANS.items():
            want = reference(alg, prod)
            assert scan(alg, prod) == want, (scan.__name__, prod)
            assert results[name] == want, (name, prod)


def random_tables(n, rng, count):
    return [tuple(tuple(rng.randrange(n) for _ in range(n)) for _ in range(n))
            for _ in range(count)]


def perturbed(table, rng, count, max_cells=3):
    """Copies of `table` with one to max_cells entries changed at random."""
    n = len(table)
    out = []
    for _ in range(count):
        rows = [list(row) for row in table]
        for _ in range(rng.randint(1, max_cells)):
            rows[rng.randrange(n)][rng.randrange(n)] = rng.randrange(n)
        out.append(tuple(tuple(row) for row in rows))
    return out


def cube_meet(rank, rng, perm=None):
    """The Boolean cube 2^rank as a relabelled table algebra (x (+) y = x | y
    on disjoint bitmasks) and its meet table x o y = x & y; with `perm`, the
    twisted meet x o y = P(x & y), where P moves coordinate i to perm[i]."""
    n = 1 << rank
    lab = list(range(n))
    rng.shuffle(lab)
    twist = list(range(n)) if perm is None else [
        sum(1 << perm[i] for i in range(rank) if x >> i & 1) for x in range(n)]
    sums = [[None] * n for _ in range(n)]
    table = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            if a & b == 0:
                sums[lab[a]][lab[b]] = lab[a | b]
            table[lab[a]][lab[b]] = lab[twist[a & b]]
    alg = TableAlgebra(n, lab[0], lab[n - 1], sums)
    return alg, tuple(tuple(row) for row in table)


def hsum_sigma(chains, rng):
    """The chains C_n (n in `chains`) glued at 0 and 1, relabelled, with the
    sigma table (0 o b = 0, a o b = b otherwise)."""
    elems = ["zero", "one"] + [(i, k) for i, m in enumerate(chains) for k in range(1, m)]
    n = len(elems)
    lab = list(range(n))
    rng.shuffle(lab)

    def add(x, y):
        if x == "zero":
            return y
        if y == "zero":
            return x
        if x == "one" or y == "one" or x[0] != y[0]:
            return None
        k, top = x[1] + y[1], chains[x[0]]
        return (x[0], k) if k < top else ("one" if k == top else None)

    sums = [[None] * n for _ in range(n)]
    table = [[0] * n for _ in range(n)]
    for a, x in enumerate(elems):
        for b, y in enumerate(elems):
            z = add(x, y)
            sums[lab[a]][lab[b]] = None if z is None else lab[elems.index(z)]
            table[lab[a]][lab[b]] = lab[0] if x == "zero" else lab[b]
    alg = TableAlgebra(n, lab[0], lab[1], sums)
    return alg, tuple(tuple(row) for row in table)


def test_every_product_table_on_the_three_chain():
    alg = make_simplicial((2,))
    n = alg.size
    tables = [tuple(flat[i * n:(i + 1) * n] for i in range(n))
              for flat in product(range(n), repeat=n * n)]
    assert len(tables) == 19683
    assert_same_witnesses(alg, tables)


def test_random_and_perturbed_sigma_tables_on_boxes():
    for u in [(1, 1), (2, 1), (2, 2), (3, 1), (1, 1, 1)]:
        rng = random.Random(f"scan-oracles/{u}")
        alg = make_simplicial(u)
        sigma = sigma_universal(alg).product_table()
        tables = [sigma] + random_tables(alg.size, rng, 150) + perturbed(sigma, rng, 300)
        assert_same_witnesses(alg, tables)


def test_search_survivors_and_named_operations():
    # tables that pass S1-S3, and some S4/S5, so the scans run to the end
    for u in [(1, 1), (2, 1), (3, 1)]:
        tables = [op.product_table() for op in enumerate_s1sk(u, 3).operations]
        assert_same_witnesses(make_simplicial(u), tables)
    for r in (1, 2, 3):
        meet = meet_boolean(r)
        rng = random.Random(f"scan-oracles/meet/{r}")
        table = meet.product_table()
        assert_same_witnesses(meet.algebra, [table] + perturbed(table, rng, 100))
    for u, perm in [((1, 1), (2, 1)), ((2, 2), (2, 1)), ((1, 1, 1), (2, 3, 1))]:
        tau = tau_perm(u, perm)
        assert_same_witnesses(tau.algebra, [tau.product_table()])


def test_fixture_table_algebras():
    for name in ("c1", "c2", "c3", "c4", "mo2"):
        alg = load_fixture(name)
        rng = random.Random(f"scan-oracles/{name}")
        sigma = sigma_universal(alg).product_table()
        tables = [sigma] + random_tables(alg.size, rng, 100) + perturbed(sigma, rng, 200)
        assert_same_witnesses(alg, tables)


def test_rows_given_as_lists():
    alg = make_simplicial((2, 1))
    rng = random.Random("scan-oracles/lists")
    sigma = sigma_universal(alg).product_table()
    tables = [[list(row) for row in t] for t in [sigma] + perturbed(sigma, rng, 100)]
    assert_same_witnesses(alg, tables)


def test_list_tables_changed_between_calls():
    # the byte paths share one join per check_axioms call, not across calls:
    # a list table changed in place is read afresh by the next call, whether
    # it is handed to the checks or to a new Operation
    rng = random.Random("scan-oracles/changed-lists")
    for alg, table in (cube_meet(4, rng), cube_meet(5, rng), hsum_sigma((4, 5, 8), rng)):
        assert validate_table_algebra(alg).ok
        rows = as_lists(table)
        zero = alg.zero_index
        a, b = next((a, b) for a in range(alg.size) for b in range(alg.size)
                    if a != b and table[a][b] != zero and table[b][a] != zero)
        assert_same_witnesses(alg, [rows])
        before = check_axioms(Operation(alg, table=rows), 5).results
        assert before["s3"] is None
        rows[a][b] = zero
        assert_same_witnesses(alg, [rows])
        assert check_axioms(Operation(alg, table=rows), 5).results["s3"] == (a, b)
        rows[a][b] = table[a][b]
        assert_same_witnesses(alg, [rows])
        assert check_axioms(Operation(alg, table=rows), 5).results == before


def test_size_one_table_algebra():
    alg = TableAlgebra(1, 0, 0, [[0]])
    assert validate_table_algebra(alg).checks == validation_reference(alg)
    assert_same_witnesses(alg, [((0,),), [[0]]])


def test_relabelled_cube_and_horizontal_sum():
    rng = random.Random("scan-oracles/tables")
    for alg, table in (cube_meet(5, rng), hsum_sigma((2, 3, 4), rng)):
        assert validate_table_algebra(alg).ok
        assert_same_witnesses(alg, [table] + perturbed(table, rng, 20, max_cells=2))


def flipped_sum_tables(alg, rng, count):
    """Copies of the sum table with one to three cells changed: a defined
    sum made undefined, an undefined one defined, or a result moved; half
    of the changes are mirrored so commutativity still holds."""
    n = alg.size
    out = []
    for _ in range(count):
        rows = [list(row) for row in alg.sum_table]
        for _ in range(rng.randint(1, 3)):
            a, b = rng.randrange(n), rng.randrange(n)
            v = rows[a][b]
            if v is None:
                v = rng.randrange(n)
            elif rng.random() < 0.5:
                v = None
            else:
                v = rng.randrange(n)
            rows[a][b] = v
            if rng.random() < 0.5:
                rows[b][a] = v
        out.append(TableAlgebra(n, alg.zero_index, alg.one_index, rows))
    return out


def test_validation_reports_on_flipped_sum_tables():
    rng = random.Random("scan-oracles/sums")
    bases = [chain_table(1), chain_table(3), mo2(), make_simplicial((2, 1)).to_table(),
             make_simplicial((1, 1, 1)).to_table(), cube_meet(5, rng)[0],
             hsum_sigma((2, 3, 4), rng)[0]]
    for base in bases:
        assert validate_table_algebra(base).checks == validation_reference(base)
        count = 10 if base.size > 16 else 60
        for alg in flipped_sum_tables(base, rng, count):
            assert validate_table_algebra(alg).checks == validation_reference(alg)


def twisted_meets(rank, rng, count):
    """Relabelled cubes with x o y = P(x & y), P a random permutation of the
    coordinates.  Each row is additive and the product is commutative, so S1
    holds and S4 can fail only in its composition clause; the relabelling
    puts atoms above composite elements."""
    out = []
    for _ in range(count):
        perm = list(range(rank))
        rng.shuffle(perm)
        out.append(cube_meet(rank, rng, perm))
    return out


def test_s4_composition_failures_outside_the_generators():
    rng = random.Random("scan-oracles/twists")
    outside = 0
    for rank in (2, 3, 4):
        for alg, table in twisted_meets(rank, rng, 30):
            assert validate_table_algebra(alg).ok
            results = check_axioms(Operation(alg, table=table), 4).results
            assert results["s1"] is None
            want = s4_reference(alg, table)
            assert results["s4"] == want
            if want is not None and len(want) == 3 and want[2] not in alg.sum_generators():
                outside += 1
    # the least failing c is often a composite element, not zero or an atom
    assert outside >= 20


def test_generators_fall_back_to_every_element_where_they_do_not_generate():
    # {0, x, y} with x (+) x = y and y (+) y = x: both x and y are sums of two
    # others, so zero alone is left, and it does not generate x or y
    alg = TableAlgebra(3, 0, 1, [[0, 1, 2], [1, 2, None], [2, None, 1]])
    assert alg.sum_generators() == (0, 1, 2)
    # the additive maps are zero, the identity and the swap of x and y; with
    # zero as the only generator the composition-clause failures among these
    # tables would be missed
    rows = [(0, 0, 0), (0, 1, 2), (0, 2, 1)]
    outside = 0
    for prod in product(rows, repeat=3):
        results = check_axioms(Operation(alg, table=prod), 4).results
        assert results["s1"] is None
        want = s4_reference(alg, prod)
        assert results["s4"] == want
        outside += want is not None and len(want) == 3
    assert outside > 0
    # a sum table that is not commutative falls back as well
    skew = TableAlgebra(3, 0, 1, [[0, 1, 2], [1, 2, None], [2, 0, None]])
    assert skew.sum_generators() == (0, 1, 2)


def test_validation_opens_both_atom_rules_and_changes_no_result():
    # before validate_table_algebra a table's c-set is every element and S1
    # walks every pair of every row; after it, the c-set is zero and the
    # atoms and S1 screens at the atoms
    cube = make_simplicial((1, 1, 1)).to_table()
    assert cube.sum_generators() == tuple(range(8))
    assert validate_table_algebra(cube).ok
    assert cube.sum_generators() == (0, 1, 2, 4)
    rng = random.Random("scan-oracles/gate")
    cases = [case for rank in (2, 3, 4) for case in twisted_meets(rank, rng, 10)]
    # the B2 table whose first S4 failure is at an atom, c = 2
    cases.append((make_simplicial((1, 1)).to_table(),
                  ((0, 0, 0, 0), (0, 2, 0, 2), (0, 0, 1, 1), (0, 2, 1, 3))))
    failures = 0
    for alg, prod in cases:
        op = Operation(alg, table=prod)
        before = check_axioms(op, 5).results
        assert validate_table_algebra(alg).ok
        assert len(alg.sum_generators()) < alg.size
        assert check_axioms(op, 5).results == before
        failures += before["s4"] is not None
    assert before["s4"] == (1, 1, 2)
    assert failures >= 10


def test_restricted_s4_scan_on_lists_and_one_element():
    rng = random.Random("scan-oracles/s4-lists")
    for alg, t in twisted_meets(3, rng, 20):
        rows = [list(row) for row in t]
        assert (check_s4_given_s1(alg, rows) == check_s4_given_s1(alg, t)
                == s4_reference(alg, t))
    one = TableAlgebra(1, 0, 0, [[0]])
    assert one.sum_generators() == (0,)
    assert check_axioms(Operation(one, table=[[0]]), 5).all_pass
    assert check_s4_given_s1(one, [[0]]) is None


def s4_at_generators(alg, prod):
    """s4_reference with the composition clause compared at the sum
    generators only, and a pair that fails there rescanned over every c:
    check_s4_given_s1's rule as a plain loop, for S1 tables on which
    s4_reference, with every c, takes too long to pass."""
    n = alg.size
    ortho = alg.ortho_table()
    gens = alg.sum_generators()
    for a in range(n):
        row = prod[a]
        for b in range(n):
            if row[b] != prod[b][a]:
                continue
            bp = ortho[b]
            if row[bp] != prod[bp][a]:
                return (a, b)
            rowb, row_ab = prod[b], prod[row[b]]
            if any(row[rowb[c]] != row_ab[c] for c in gens):
                return (a, b, next(c for c in range(n) if row[rowb[c]] != row_ab[c]))
    return None


def as_lists(table):
    return [list(row) for row in table]


def test_s4_on_either_side_of_the_byte_gather_boundary():
    # S4 reads rows as bytes up to 256 elements and gathers per b above
    # that: the cube 2^8 has 256 elements, the cube 2^9 512, and the
    # horizontal sums of chains 256 and 257.  Every table below fails within
    # its first two rows, where s4_reference ends quickly, except the
    # meets, which pass and are checked at the generators
    rng = random.Random("scan-oracles/boundary")
    for rank in (8, 9):
        alg, meet = cube_meet(rank, rng)
        assert validate_table_algebra(alg).ok
        assert alg.size == 1 << rank
        for table in (meet, as_lists(meet)):
            assert check_s4_given_s1(alg, table) is None
        assert s4_at_generators(alg, meet) is None
        if rank == 8:
            assert check_s4(alg, meet) is None
        for table in perturbed(meet, rng, 4, max_cells=2):
            want = s4_reference(alg, table)
            assert want is not None
            assert check_s4(alg, table) == check_s4(alg, as_lists(table)) == want
            assert check_axioms(Operation(alg, table=table), 4).results["s4"] == want
        composite = 0
        for twisted, table in twisted_meets(rank, rng, 3):
            assert validate_table_algebra(twisted).ok
            want = s4_reference(twisted, table)
            assert len(want) == 3
            assert (check_s4_given_s1(twisted, table) == check_s4(twisted, table)
                    == check_s4_given_s1(twisted, as_lists(table)) == want)
            composite += want[2] not in twisted.sum_generators()
        assert composite == 3
    for chains in ((127, 129), (128, 129)):
        # the sigma table passes S1 and fails S4's b'-clause
        alg, table = hsum_sigma(chains, rng)
        assert validate_table_algebra(alg).ok
        assert alg.size == sum(chains) - len(chains) + 2
        want = s4_reference(alg, table)
        assert len(want) == 2
        results = check_axioms(Operation(alg, table=table), 4).results
        assert results["s1"] is None and results["s4"] == want
        assert check_s4(alg, table) == check_s4_given_s1(alg, as_lists(table)) == want


def test_s4_on_one_and_two_elements():
    one = TableAlgebra(1, 0, 0, [[0]])
    for table in (((0,),), [[0]]):
        assert check_s4(one, table) is None and check_s4_given_s1(one, table) is None
    for alg in (make_simplicial((1,)), chain_table(1)):
        for flat in product(range(2), repeat=4):
            table = (flat[:2], flat[2:])
            want = s4_reference(alg, table)
            assert check_s4(alg, table) == check_s4(alg, as_lists(table)) == want
        assert check_s4_given_s1(alg, ((0, 0), (0, 1))) is None


def bent_meet(rank, a, b, value):
    """The meet on the Boolean box 2^rank, exported as a validated table
    (index = bitmask, 0 the zero, 2^rank - 1 the top), with a o b set to value."""
    alg = make_simplicial((1,) * rank).to_table()
    assert validate_table_algebra(alg).ok
    table = as_lists(meet_boolean(rank).product_table())
    table[a][b] = value
    return alg, table


@pytest.mark.parametrize("rank", [3, 8, 9])
def test_s4_witness_order_on_bent_meets(rank):
    # each witness is read row by row, b by b, the b'-clause before the
    # composition clause; rank 8 takes the byte path, rank 9 the gathers
    n = 1 << rank

    def clauses(alg, table, a, b):
        """(commutes, b'-clause fails, composition fails at some c)"""
        row, bp = table[a], alg.ortho_table()[b]
        return (row[b] == table[b][a], row[bp] != table[bp][a],
                any(row[table[b][c]] != table[row[b]][c] for c in range(n)))

    # both clauses fail at the least pair, (0, 1): the b'-clause is reported
    alg, table = bent_meet(rank, 0, n - 2, n - 2)
    assert clauses(alg, table, 0, 1) == (True, True, True)
    # the composition clause fails at (0, 2) and the b'-clause only at
    # (0, n - 2), a larger b: the composition witness is reported
    alg2, table2 = bent_meet(rank, 0, 1, 1)
    assert clauses(alg2, table2, 0, 2) == (True, False, True)
    assert clauses(alg2, table2, 0, n - 2)[:2] == (True, True)
    # the b'-clause fails at (1, n - 3), and the composition clause breaks
    # only at (1, 2), a pair that does not commute, so it does not count
    alg3, table3 = bent_meet(rank, 2, 1, 1)
    commutes, _, composition_fails = clauses(alg3, table3, 1, 2)
    assert not commutes and composition_fails
    assert clauses(alg3, table3, 1, n - 3) == (True, True, False)
    for alg, table, want in ((alg, table, (0, 1)), (alg2, table2, (0, 2, 1)),
                             (alg3, table3, (1, n - 3))):
        assert s4_reference(alg, table) == want
        assert check_s4(alg, table) == want
        assert check_axioms(Operation(alg, table=table), 4).results["s4"] == want


def test_the_byte_path_takes_every_table_up_to_256_elements(monkeypatch):
    # both paths give the same witnesses, so only the path taken shows where
    # the switch between them is
    def refuse(*args):
        raise AssertionError("S4 took the wrong path")

    rng = random.Random("scan-oracles/switch")
    monkeypatch.setattr(operations, "_s4_gathers", refuse)
    alg, table = hsum_sigma((127, 129), rng)
    assert alg.size == 256
    assert check_s4(alg, table) == s4_reference(alg, table)
    monkeypatch.undo()
    monkeypatch.setattr(operations, "_s4_bytes", refuse)
    alg, table = hsum_sigma((128, 129), rng)
    assert alg.size == 257
    assert check_s4(alg, table) == s4_reference(alg, table)


def s1_by_rows(alg, prod):
    """s1_reference one distinct row at a time: a row's verdict depends on
    that row alone, so tables of 256 elements with few distinct rows are
    checked in a fraction of the full loop's time."""
    verdicts = {}
    for a, row in enumerate(prod):
        row = tuple(row)
        if row not in verdicts:
            verdicts[row] = s1_reference(alg, (row,))
        if verdicts[row] is not None:
            return (a, *verdicts[row][1:])
    return None


def zero_below_the_diagonal(table, zero, rng):
    """A copy of a table with a symmetric zero pattern, such as sigma, with
    b o a set to zero for some a < b where a o b is not zero, and (b, a).
    The least pair at which the zero pattern and its transpose differ is
    then (a, b), which is in the transpose only, and the S3 witness is the
    later (b, a), the one pair of the pattern outside the transpose."""
    n = len(table)
    while True:
        a, b = sorted(rng.sample(range(n), 2))
        if zero not in (a, b) and table[a][b] != zero:
            rows = as_lists(table)
            rows[b][a] = zero
            return rows, (b, a)


# Carriers on either side of the byte paths' gates: check_s1's screen and
# check_s3 read a table as bytes from operations._BYTES_FROM to 256 elements,
# and the commuting flags of S4 and S5 come from the joined table at every
# size up to 256.  Horizontal sums of chains, validated, with their sigma
# tables
GATE_SIZES = {15: (4, 5, 7), 16: (4, 5, 8), 256: (127, 129), 257: (128, 129)}


@pytest.mark.parametrize("size", sorted(GATE_SIZES))
def test_s1_s3_s5_on_either_side_of_the_byte_gates(size, monkeypatch):
    assert operations._BYTES_FROM == 16
    rng = random.Random(f"scan-oracles/gates/{size}")
    alg, sigma = hsum_sigma(GATE_SIZES[size], rng)
    assert alg.size == size and validate_table_algebra(alg).ok
    zero = alg.zero_index
    assert check_s3(alg, sigma) is None
    asymmetric = [zero_below_the_diagonal(sigma, zero, rng) for _ in range(3)]
    for table, witness in asymmetric:
        assert check_s3(alg, table) == witness
    tables = [sigma, as_lists(sigma)] + perturbed(sigma, rng, 4, max_cells=2)
    tables += [table for table, _ in asymmetric] + random_tables(size, rng, 1)
    # which path each check takes: S1's screen is built by the byte or the
    # gather builder, and S3 and S5 join the table into bytes on their byte
    # paths
    calls = {"joins": 0, "_byte_screen": 0, "_gather_screen": 0}

    def flat(joined):
        calls["joins"] += joined._flat is None
        return real_flat(joined)

    def spy(name, real):
        def wrapped(*args):
            calls[name] += 1
            return real(*args)
        return wrapped

    real_flat = operations._Joined.flat
    monkeypatch.setattr(operations._Joined, "flat", flat)
    for name in ("_byte_screen", "_gather_screen"):
        monkeypatch.setattr(operations, name, spy(name, getattr(operations, name)))
    s3_failures = 0
    for table in tables:
        want_s3 = s3_reference(alg, table)
        assert check_s1(alg, table) == s1_by_rows(alg, table)
        assert check_s3(alg, table) == want_s3
        assert check_s5(alg, table) == s5_reference(alg, table)
        s3_failures += want_s3 is not None
    assert s3_failures >= 3
    by_bytes = 16 <= size <= 256
    # the carrier builds its screen once, on the first check_s1; each check
    # joins the table it reads, S3 from 16 elements and S5 up to 256
    assert calls == {"joins": (by_bytes + (size <= 256)) * len(tables),
                     "_byte_screen": int(by_bytes),
                     "_gather_screen": int(not by_bytes)}


@pytest.mark.parametrize("size", sorted(GATE_SIZES) + [512])
def test_commuting_flags_read_whole_and_resumed(size):
    rng = random.Random(f"scan-oracles/commuting/{size}")
    if size == 512:
        alg, table = bent_meet(9, 2, 1, 1)
        tables = [table, meet_boolean(9).product_table()]
    else:
        alg, sigma = hsum_sigma(GATE_SIZES[size], rng)
        tables = [sigma, as_lists(sigma)] + perturbed(sigma, rng, 2)
    tables += random_tables(size, rng, 1)
    for table in tables:
        want = [bytes(table[a][b] == table[b][a] for b in range(size))
                for a in range(size)]
        assert list(operations._Joined(table).commuting()) == want
        joined = operations._Joined(table)
        # a scan that stops after a few rows, then two that resume
        assert list(islice(joined.commuting(), 3)) == want[:3]
        rest = joined.commuting()
        assert list(islice(rest, 5)) == want[:5]
        assert list(joined.commuting()) == want
        assert list(rest) == want[5:]
        assert len(joined._flags) == size


def test_s4_and_s5_share_the_commuting_flags_above_256_elements(monkeypatch):
    # above 256 elements each row's flags are row a against column a by
    # operator.eq; on the zero table S4 reads every row, and S5 builds none
    # again
    alg, _ = hsum_sigma(GATE_SIZES[257], random.Random("scan-oracles/share"))
    n = alg.size
    zeros = ((alg.zero_index,) * n,) * n
    compared = []

    def eq(x, y):
        compared.append(1)
        return x == y

    monkeypatch.setattr(operations, "eq", eq)
    report = check_axioms(Operation(alg, table=zeros), 5)
    # every axiom but S2 holds
    assert [name for name, w in report.results.items() if w is not None] == ["s2"]
    assert len(compared) == n * n


def parity_row(alg, v):
    """On a box, v at the elements with an odd coordinate sum and zero (index
    0) elsewhere.  Where v (+) v is undefined this row is not additive, yet
    it passes every atom sum if an undefined f(p) (+) f(x) is read as the
    byte 0: at an odd x, f(p) (+) f(x) = v (+) v and f(x (+) p) = 0."""
    return tuple(v if sum(alg.shape.coords_of(x)) % 2 else 0 for x in range(alg.size))


@pytest.mark.parametrize("u", [(15,), (3, 3), (1, 1, 1, 1), (2, 2, 2), (1,) * 8])
def test_byte_screen_passes_exactly_the_additive_rows(u):
    # the byte screen against the walk, on boxes and their validated tables
    # of 16 to 256 elements; test_operations checks every row of smaller
    # carriers, where the itemgetter screen runs
    box = make_simplicial(u)
    table = box.to_table()
    assert validate_table_algebra(table).ok
    n = box.size
    assert operations._BYTES_FROM <= n <= 256
    rng = random.Random(f"scan-oracles/screen/{u}")
    if len(u) < 8:
        matrices = list(enumerate_subunital(u))
        picked = rng.sample(matrices, min(40, len(matrices)))
        additive = list(matrix_actions(box, [M.rows for M in picked]))
    else:
        additive = list(meet_boolean(len(u)).product_table()[::8])
    rows = list(additive)
    for row in rng.choices(additive, k=40):
        row = list(row)
        row[rng.randrange(n)] = rng.randrange(n)
        rows.append(tuple(row))
    rows += [tuple(rng.randrange(n) for _ in range(n)) for _ in range(20)]
    rows += [parity_row(box, n - 1), parity_row(box, n - 2)]
    for alg in (box, table):
        passes = operations._atom_screen(alg)
        verdicts = []
        for row in rows:
            walked = broken_pair(alg, alg, row)
            assert passes(row) == (walked is None), row
            assert check_s1(alg, (row,)) == (None if walked is None else (0, *walked))
            verdicts.append(walked is None)
        assert verdicts[:len(additive)] == [True] * len(additive)
        assert verdicts[-2:] == [False, False]
        assert verdicts.count(False) > 20


def test_validation_records_the_orthosupplements():
    # once the orthosupplement law holds, ortho_table() reads what the
    # validation recorded instead of counting the top in every row again
    for u in [(1,), (3,), (2, 1), (1, 1, 1), (2, 3), (1,) * 8]:
        box = make_simplicial(u)
        table = box.to_table()
        assert table._ortho is None
        assert validate_table_algebra(table).ok
        assert table._ortho == ortho_table_reference(box)
        assert table.ortho_table() == ortho_table_reference(box)
    # the law holds and associativity does not: recorded all the same
    rows = [[0, 1, 2, 3], [1, 2, 3, None], [2, 3, 1, None], [3, None, None, None]]
    alg = TableAlgebra(4, 0, 3, rows)
    report = validate_table_algebra(alg)
    assert report.checks["associativity"] == {"a": 1, "b": 1, "c": 2}
    assert report.checks["orthosupplement"] is None
    assert alg._ortho == TableAlgebra(4, 0, 3, rows).ortho_table() == (3, 2, 1, 0)
    # the law fails: nothing is recorded, and ortho_table() still refuses
    alg = TableAlgebra(3, 0, 2, [[0, 1, 2], [1, 2, 2], [2, 2, None]])
    assert validate_table_algebra(alg).checks["orthosupplement"] == {"a": 1, "partners": [1, 2]}
    assert alg._ortho is None
    with pytest.raises(ValueError, match="element 1 has 2 orthosupplements"):
        alg.ortho_table()


def atoms_by_below_sets(alg):
    """The validation's rule on any table: the x != 0 such that every b with
    b (+) c = x for some c is 0 or x.  On an effect algebra, which cancels,
    these are the atoms; elsewhere they may differ from the pairs rule."""
    n, zero = alg.size, alg.zero_index
    below = [set() for _ in range(n)]
    for b, row in enumerate(alg.sum_table):
        for x in row:
            if x is not None:
                below[x].add(b)
    return tuple(x for x in range(n) if x != zero and below[x] <= {zero, x})


def unvalidated_copy(alg):
    return TableAlgebra(alg.size, alg.zero_index, alg.one_index, alg.sum_table)


def test_validation_records_the_atoms():
    # a passing validation records the atoms from its below-sets, so
    # atom_indices() builds no orthogonal_pairs() memo, and gives what the
    # pairs rule gives on a fresh copy that was never validated
    rng = random.Random("scan-oracles/recorded-atoms")
    bases = [chain_table(1), chain_table(3), chain_table(9), mo2()]
    bases += [load_fixture(name) for name in ("c1", "c2", "c3", "c4")]
    bases += [make_simplicial(u).to_table() for u in ((2, 1), (1, 1, 1), (3, 3), (1,) * 8)]
    bases += [cube_meet(5, rng)[0], hsum_sigma((2, 3, 4), rng)[0]]
    bases += [hsum_sigma(chains, rng)[0] for chains in GATE_SIZES.values()]
    assert sorted({alg.size for alg in bases} & set(GATE_SIZES)) == sorted(GATE_SIZES)
    for base in bases:
        pairs_rule = unvalidated_copy(base).atom_indices()
        alg = unvalidated_copy(base)
        assert validate_table_algebra(alg).ok
        assert alg._atoms == pairs_rule
        assert alg.atom_indices() == pairs_rule and alg._pairs is None
        assert [rec.atom for rec in atoms_reference(alg)] == list(pairs_rule)
    # a failed validation records nothing, and the pairs rule still answers,
    # on tables where the below-set rule gives other elements too
    differ = 0
    for base in bases[:12]:
        for alg in flipped_sum_tables(base, rng, 30):
            if validate_table_algebra(alg).ok:
                continue
            assert alg._atoms is None
            pairs_rule = unvalidated_copy(alg).atom_indices()
            assert alg.atom_indices() == pairs_rule
            differ += atoms_by_below_sets(alg) != pairs_rule
    assert differ >= 10


def test_generators_are_zero_and_the_atoms():
    def shapes(limit, prefix=()):
        if prefix:
            yield prefix
        size = math.prod(ui + 1 for ui in prefix)
        for ui in range(1, limit):
            if size * (ui + 1) <= limit:
                yield from shapes(limit, prefix + (ui,))

    boxes = [make_simplicial(u) for u in shapes(64)]
    assert len(boxes) == 440
    for alg in boxes:
        assert alg.sum_generators() == (0,) + tuple(rec.atom.index for rec in atoms(alg))
        # the shape's unit vectors against the split rule on the exported table
        table = alg.to_table()
        assert alg.atom_indices() == table.atom_indices()
        assert validate_table_algebra(table).ok
        assert alg.sum_generators() == table.sum_generators()
        assert ([(alg.index(rec.atom), rec.ord) for rec in atoms(alg)]
                == [(rec.atom, rec.ord) for rec in atoms(table)])
    rng = random.Random("scan-oracles/generators")
    tables = [mo2(), cube_meet(4, rng)[0], hsum_sigma((2, 3, 4), rng)[0]]
    tables += [load_fixture(name) for name in ("c1", "c2", "c3", "c4")]
    tables += [chain_table(n) for n in (1, 2, 5, 9)]
    for alg in tables:
        assert validate_table_algebra(alg).ok
        want = sorted({alg.zero_index} | {rec.atom for rec in atoms(alg)})
        assert alg.sum_generators() == tuple(want)


def test_atoms_match_the_below_set_loop_on_tables():
    # the split rule and the below-set rule agree wherever the sum is
    # commutative and cancellative, so on every effect algebra
    rng = random.Random("scan-oracles/atoms")
    tables = [load_fixture(name) for name in ("mo2", "c1", "c2", "c3", "c4")]
    tables += [chain_table(n) for n in (1, 2, 5, 9)]
    tables += [cube_meet(rank, rng)[0] for rank in (1, 2, 3, 4, 5)]
    tables += [hsum_sigma(chains, rng)[0] for chains in ((2, 3, 4), (1, 3), (6,), (2, 2, 2))]
    tables += [alg for rank in (2, 3, 4) for alg, _ in twisted_meets(rank, rng, 5)]
    tables += [make_simplicial(u).to_table() for u in ((2, 1), (1, 1, 1), (3, 2), (1, 2, 1))]
    for alg in tables:
        assert validate_table_algebra(alg).ok
        assert atoms(alg) == atoms_reference(alg)


def undefined_sums(alg, rng, count):
    """Copies of the sum table with one to four defined sums a (+) b, and
    b (+) a with them, made undefined.  Where both sides of the associative
    law are still defined they still agree, so the law can fail only in
    definedness."""
    n = alg.size
    defined = [(a, b) for a in range(n) for b in range(a, n) if alg.sum_table[a][b] is not None]
    out = []
    for _ in range(count):
        rows = [list(row) for row in alg.sum_table]
        for a, b in rng.sample(defined, min(len(defined), rng.randint(1, 4))):
            rows[a][b] = rows[b][a] = None
        out.append(TableAlgebra(n, alg.zero_index, alg.one_index, rows))
    return out


def random_partial_sums(n, rng, count):
    """Random sum tables, each entry undefined with a random probability;
    every other one mirrored so that it is commutative."""
    out = []
    for i in range(count):
        p = rng.random()
        rows = [[None if rng.random() < p else rng.randrange(n) for _ in range(n)]
                for _ in range(n)]
        if i % 2:
            rows = [[rows[min(a, b)][max(a, b)] for b in range(n)] for a in range(n)]
        out.append(TableAlgebra(n, rng.randrange(n), rng.randrange(n), rows))
    return out


def test_validation_on_tables_that_fail_in_definedness_only():
    rng = random.Random("scan-oracles/definedness")
    bases = [chain_table(3), mo2(), make_simplicial((2, 1)).to_table(),
             make_simplicial((1, 1, 1)).to_table(), cube_meet(4, rng)[0],
             hsum_sigma((2, 3, 4), rng)[0]]
    failures = 0
    for base in bases:
        for alg in undefined_sums(base, rng, 40):
            report = validate_table_algebra(alg)
            assert report.checks == validation_reference(alg)
            w = report.checks["associativity"]
            if w is not None:
                failures += 1
                s, (a, b, c) = alg.sum_table, (w["a"], w["b"], w["c"])
                left = None if s[a][b] is None else s[s[a][b]][c]
                right = None if s[b][c] is None else s[a][s[b][c]]
                assert (left is None) != (right is None)
    assert failures >= 100


def test_validation_on_random_partial_sum_tables():
    rng = random.Random("scan-oracles/partial")
    for n in (1, 2, 3, 4, 6, 9):
        for alg in random_partial_sums(n, rng, 60):
            assert validate_table_algebra(alg).checks == validation_reference(alg)
    for rows in ([[0]], [[None]]):
        alg = TableAlgebra(1, 0, 0, rows)
        assert validate_table_algebra(alg).checks == validation_reference(alg)


def merged_sums(alg, rng, count):
    """Copies of the sum table in which a row b, and its column, sends two
    of its defined c to the same sum, so that row b does not cancel."""
    n = alg.size
    s = alg.sum_table
    wide = [b for b in range(n) if n - s[b].count(None) >= 2]
    out = []
    for _ in range(count):
        rows = [list(row) for row in s]
        b = rng.choice(wide)
        c1, c2 = rng.sample([c for c in range(n) if s[b][c] is not None], 2)
        rows[b][c2] = rows[c2][b] = s[b][c1]
        out.append(TableAlgebra(n, alg.zero_index, alg.one_index, rows))
    return out


def test_validation_on_rows_that_do_not_cancel():
    # {0, x, 1} with x (+) x = x (+) 1 = 1, so row x does not cancel.  At
    # (x, x, 1) the left side (x (+) x) (+) 1 = 1 (+) 1 is undefined and the
    # right side x (+) (x (+) 1) = x (+) 1 is not, although row x's sums
    # that x can take, {x, 1}, are as many as D[x (+) x] = D[1] = {0, x}:
    # that count decides a pair only where the row cancels
    alg = TableAlgebra(3, 0, 2, [[0, 1, 2], [1, 2, 2], [2, 2, None]])
    report = validate_table_algebra(alg)
    assert report.checks == validation_reference(alg)
    assert report.checks["associativity"] == {"a": 1, "b": 1, "c": 2}
    rng = random.Random("scan-oracles/merged")
    bases = [chain_table(4), mo2(), make_simplicial((2, 1)).to_table(),
             make_simplicial((1, 1, 1)).to_table(), hsum_sigma((2, 3), rng)[0]]
    fallbacks = 0
    for base in bases:
        for alg in merged_sums(base, rng, 40):
            report = validate_table_algebra(alg)
            assert report.checks == validation_reference(alg)
            w = report.checks["associativity"]
            if w is not None and alg.sum_table[w["a"]][w["b"]] is not None:
                sums = [v for v in alg.sum_table[w["b"]] if v is not None]
                fallbacks += len(set(sums)) < len(sums)
    # failures at a defined pair whose row b does not cancel
    assert fallbacks >= 40


def test_validation_where_a_domain_is_not_a_down_set():
    # the chain {0, 1, 2} without 0 (+) 1: D[0] = {0, 2} holds 2 = 1 (+) 1 but
    # not 1, so the undefined pair (0, 1) fails at c = 1, where
    # 0 (+) (1 (+) 1) = 2 is defined and (0 (+) 1) (+) 1 is not.  It is the
    # least witness, though row 0's defined pairs hold
    alg = TableAlgebra(3, 0, 2, [[0, None, 2], [None, 2, None], [2, None, None]])
    report = validate_table_algebra(alg)
    assert report.checks == validation_reference(alg)
    assert report.checks["associativity"] == {"a": 0, "b": 1, "c": 1}
    # the same with 0 (+) p removed for an atom p: no sum b (+) c with b and
    # c nonzero is p, so every pair (0, b) before (0, p) holds
    for base in (chain_table(4), mo2(), make_simplicial((1, 1, 1)).to_table()):
        zero = base.zero_index
        for p in base.atom_indices():
            rows = [list(row) for row in base.sum_table]
            rows[zero][p] = rows[p][zero] = None
            alg = TableAlgebra(base.size, zero, base.one_index, rows)
            w = validate_table_algebra(alg).checks["associativity"]
            assert w == validation_reference(alg)["associativity"]
            assert (w["a"], w["b"]) == (zero, p)


def test_validation_of_exported_boolean_boxes():
    for r in (6, 7):
        table = make_simplicial((1,) * r).to_table()
        report = validate_table_algebra(table)
        assert report.ok
        assert report.checks == validation_reference(table)
    rng = random.Random("scan-oracles/b6")
    for alg in flipped_sum_tables(make_simplicial((1,) * 6).to_table(), rng, 10):
        assert validate_table_algebra(alg).checks == validation_reference(alg)


def centre(prod):
    """The c with c o x = x o c for every x."""
    n = len(prod)
    return [c for c in range(n) if all(prod[c][x] == prod[x][c] for x in range(n))]


def test_s5_failures_with_a_proper_centre():
    # on the swap twist of (1,1) only 0 commutes with every element
    tau = tau_perm((1, 1), (2, 1))
    table = tau.product_table()
    assert centre(table) == [0]
    assert check_s5(tau.algebra, table) == s5_reference(tau.algebra, table) == (1, 1, 1)
    # a perturbed meet: a few elements leave the centre, the rest stay
    rng = random.Random("scan-oracles/centre")
    proper = 0
    for r in (3, 4):
        meet = meet_boolean(r)
        alg = meet.algebra
        for prod in perturbed(meet.product_table(), rng, 60):
            want = s5_reference(alg, prod)
            assert check_s5(alg, prod) == want
            proper += want is not None and 0 < len(centre(prod)) < alg.size
    assert proper >= 40


ROW_LEMMA_ALGEBRAS = {
    **{str(u): make_simplicial(u) for u in [(1,), (2,), (1, 1)]},
    **{name: load_fixture(name) for name in ("c1", "c2", "c3", "mo2")},
}


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_s1_reads_each_row_on_its_own(data):
    # a table passes S1 exactly when each row passes as a one-row table, and
    # a failing table's witness is the first failing row's, at that row
    alg = ROW_LEMMA_ALGEBRAS[data.draw(st.sampled_from(sorted(ROW_LEMMA_ALGEBRAS)))]
    n = alg.size
    cell = st.integers(0, n - 1)
    if data.draw(st.booleans()):
        table = data.draw(st.lists(st.lists(cell, min_size=n, max_size=n),
                                   min_size=n, max_size=n))
    else:
        table = [list(row) for row in sigma_universal(alg).product_table()]
        for a, b, v in data.draw(st.lists(st.tuples(cell, cell, cell), max_size=3)):
            table[a][b] = v
    table = tuple(map(tuple, table))
    own = [check_s1(alg, (row,)) for row in table]
    failing = [a for a, w in enumerate(own) if w is not None]
    if failing:
        a = failing[0]
        assert check_s1(alg, table) == (a,) + own[a][1:]
    else:
        assert check_s1(alg, table) is None


def test_additive_map_filter_matches_the_loop_over_every_function():
    shapes = [(1,), (2,), (3,), (1, 1), (2, 1), (1, 2)]
    pairs = [(u, u) for u in shapes] + [((1,), (2,)), ((2,), (1, 1)), ((1, 1), (2,))]
    for u, v in pairs:
        dom, cod = make_simplicial(u), make_simplicial(v)
        want = additive_maps_reference(dom, cod)
        assert want, (u, v)
        assert additive_maps_bruteforce(dom, cod) == want, (u, v)
    # on the table carriers too, whose self-maps are the S1 rows of
    # bruteforce_prefixes: the same rows as the loop and as the walk filter
    # over every row, in the same order
    for name in ("c1", "c2", "c3", "c4", "mo2"):
        alg = load_fixture(name)
        want = additive_maps_reference(alg, alg)
        walked = [row for row in product(range(alg.size), repeat=alg.size)
                  if broken_pair(alg, alg, row) is None]
        assert walked == want, name
        assert additive_maps_bruteforce(alg, alg) == want, name
    assert len(want) == 53


def assert_box_tables_match_the_coordinates(u):
    alg = make_simplicial(u)
    sums = oplus_table_reference(alg)
    assert alg.oplus_table() == sums, u
    assert alg.ortho_table() == ortho_table_reference(alg), u
    n = alg.size
    assert [[alg.oplus_index(i, j) for j in range(n)] for i in range(n)] == list(map(list, sums))


def test_box_sums_and_orthosupplements_match_the_coordinates_on_small_boxes():
    boxes = [u for r in (1, 2, 3) for u in product(range(1, 5), repeat=r)]
    assert len(boxes) == 84
    for u in boxes:
        assert_box_tables_match_the_coordinates(u)


@settings(max_examples=40, deadline=None)
@given(st.one_of(st.lists(st.integers(1, 6), min_size=1, max_size=3),
                 st.lists(st.integers(1, 2), min_size=4, max_size=5)).map(tuple))
def test_box_sums_and_orthosupplements_match_the_coordinates_on_random_boxes(u):
    assert_box_tables_match_the_coordinates(u)


def test_box_sum_of_an_index_outside_the_box_is_refused():
    # a bare levels[-1] would wrap round to the top element
    for u in [(1,), (2, 1), (1, 1, 1)]:
        alg = make_simplicial(u)
        n = alg.size
        for i, j in [(-1, 0), (0, -1), (n, 0), (0, n), (-1, n)]:
            with pytest.raises(ValueError, match="out of range"):
                alg.oplus_index(i, j)
