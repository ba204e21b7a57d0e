"""The row-level axiom and associativity scans against the element-by-element
loops they replaced.

The reference functions below are the plain triple loops, kept here as
oracles: every scan must report exactly the same least witness (or None) on
every table, including tables that fail late, fail in definedness only, or
have a single element.
"""

import random
from itertools import product

from effectalg import (
    TableAlgebra,
    chain_table,
    enumerate_s1sk,
    make_simplicial,
    meet_boolean,
    mo2,
    sigma_universal,
    tau_perm,
    validate_table_algebra,
)
from effectalg.fixtures import load_fixture
from effectalg.operations import check_s1, check_s4, check_s5


def s1_reference(alg, prod):
    n = alg.size
    sums = alg.oplus_table()
    for a in range(n):
        row = prod[a]
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


SCANS = ((check_s1, s1_reference), (check_s4, s4_reference), (check_s5, s5_reference))


def assert_same_witnesses(alg, tables):
    for prod in tables:
        for scan, reference in SCANS:
            assert scan(alg, prod) == reference(alg, prod), (scan.__name__, prod)


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


def cube_meet(rank, rng):
    """The Boolean cube 2^rank as a relabelled table algebra (x (+) y = x | y
    on disjoint bitmasks) and its meet table x o y = x & y."""
    n = 1 << rank
    lab = list(range(n))
    rng.shuffle(lab)
    sums = [[None] * n for _ in range(n)]
    table = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            if a & b == 0:
                sums[lab[a]][lab[b]] = lab[a | b]
            table[lab[a]][lab[b]] = lab[a & b]
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
