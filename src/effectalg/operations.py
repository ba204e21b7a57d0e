"""Total binary operations on finite effect algebras and the axiom battery.

An operation is its full N x N table of result indices.  Matrices are an
input format and a derived view: on a box, op_from_json reads one u-subunital
matrix per element (its "rows") and expands each into its action row
(matrix_actions), and from_full_table recovers the matrices of a table's rows
or refutes S1.  check_axioms evaluates the sequential-product axioms:

  S1  every left translation b |-> a o b is additive;
  S2  1 o a = a;
  S3  a o b = 0 implies b o a = 0;
  S4  if a o b = b o a, then a o b' = b' o a and a o (b o c) = (a o b) o c
      for every c;
  S5  if c commutes with a and with b, then c commutes with a o b, and with
      a (+) b whenever that sum is defined.

A failed axiom reports the lexicographically least witness tuple in canonical
element order (for S1 the orthogonal pair is scanned with b <= c, which still
finds the least witness because the instance is symmetric in b and c; for S4
the b'-clause is tried before the associativity clause).  The scans read
whole rows: S1 screens each row at the atoms, x (+) p for every atom p, where
the carrier's laws are known to hold (alg._laws_hold), and walks every
defined sum of a row the screen rejects or of any row elsewhere; S3 reads,
per row a, the b with a o b = 0 that do not commute with a (check_s3 states
why that decides S3); S4 flags, for every b at once, the b that commute with
a and break a clause, and rescans the least of them over every c; S5
intersects per-element commutant bitmasks with the centre (the elements that
commute with every element, which never break S5) masked out, so that a row
whose commutant is central is skipped (check_s5 states why).  S3, S4 and S5
read one set of commuting flags, per row a the b that commute with a,
which check_axioms builds once for the three.  One size test chooses the
format (_format): _Joined(prod) is a _Bytes view up to 256 elements, where
an entry fits a byte and rows are byte strings read by bytes.translate from
the table joined into one, and a _Wide view above, read by itemgetter
gathers and map(eq).  Each view holds all of its format's reads, S1's
screen builder among them (_atom_screen keeps the screen on the carrier).
Each scan looks at single entries only to pick the least witness in a
failing row, so the witnesses are those of the plain element-by-element scan.

Once S1 has passed, check_axioms checks S4 as check_s4_given_s1 does, which
compares the composition clause at fewer c, again only where alg._laws_hold,
the one gate of both atom rules; the rule that makes this exact is stated
there, and the searches' leaf filter takes the same checks (CHECKS_GIVEN_S1).
The public check_s4 compares every c.  replay_witness re-evaluates a witness
tuple against the operation.
"""

from __future__ import annotations

from functools import cache, reduce
from itertools import repeat
from operator import and_, eq, itemgetter, ne
from typing import Iterator, NamedTuple, Optional, Sequence, Union

from .algebra import (
    CARRIER_LIMIT,
    Elem,
    FiniteEffectAlgebra,
    Shape,
    SimplicialAlgebra,
    TableAlgebra,
    _is_grid,
    _is_int,
    _reader,
    _row_domain,
    algebra_from_json,
    make_simplicial,
)
from .errors import capped_power
from .maps import NotAdditive, _classify, broken_pair, is_subunital

Matrix = tuple[tuple[int, ...], ...]
Table = Sequence[Sequence[int]]

AXIOM_NAMES = ("s1", "s2", "s3", "s4", "s5")
# witness tuple lengths, for replay_witness; S4's b'-clause has two entries
_WITNESS_LENGTHS = {"s1": (3,), "s2": (1,), "s3": (2,), "s4": (2, 3), "s5": (3,)}
# byte 0 or 1 to the digit "0" or "1", for reading a row of bits as a numeral
_BINARY_DIGITS = bytes.maketrans(b"\x00\x01", b"01")
# byte 0 to 1 and every other byte to 0: the equal entries of two XORed rows
_ZERO_TO_ONE = b"\x01" + bytes(255)


class Operation:
    """A total binary operation a o b on a finite effect algebra, stored as
    its N x N product table of result indices."""

    def __init__(self, algebra: FiniteEffectAlgebra, table: Table,
                 *, _assembled: bool = False):
        self.algebra = algebra
        # an assembled table is valid by construction, so not re-checked: a
        # kept survivor's action rows (search._Pool.operation), the action
        # rows of checked matrices (op_from_json), or a named operation's
        self._table = table if _assembled else _checked_table(table, algebra.size)

    def __repr__(self):
        return f"Operation({self.algebra!r}, table)"

    def apply(self, a: int, b: int) -> int:
        """Index of a o b; ValueError unless a and b are element indices."""
        check = self.algebra._checked_index
        return self.product_table()[check(a)][check(b)]

    def product_table(self) -> tuple[tuple[int, ...], ...]:
        """The full N x N result table, a tuple of row tuples."""
        return self._table

    def to_json(self) -> dict:
        return {"algebra": self.algebra.to_json(),
                "table": [list(row) for row in self._table]}


def _checked_table(table: Table, n: int) -> tuple[tuple[int, ...], ...]:
    """table as a tuple of row tuples; ValueError unless it is n x n of indices below n."""
    if len(table) != n:
        raise ValueError(f"expected {n} table rows, got {len(table)}")
    rows = []
    for row in table:
        if len(row) != n:
            raise ValueError(f"expected table rows of length {n}")
        for v in row:
            # plain ints pass without the _is_int call
            if not (type(v) is int or _is_int(v)) or not 0 <= v < n:
                raise ValueError(f"table entry {v!r} is not an index below {n}")
        rows.append(tuple(row))
    return tuple(rows)


def op_from_json(obj: dict) -> Operation:
    if not isinstance(obj, dict) or "algebra" not in obj:
        raise ValueError('operation JSON needs an "algebra" field')
    alg = algebra_from_json(obj["algebra"])
    if "table" in obj:
        if not _is_grid(obj["table"]):
            raise ValueError('"table" must be a list of rows')
        return Operation(alg, obj["table"])
    if "rows" in obj:
        if not isinstance(alg, SimplicialAlgebra):
            raise ValueError("matrix-family operations need a simplicial algebra")
        rows = obj["rows"]
        expected = {str(a) for a in range(alg.size)}
        if not isinstance(rows, dict) or set(rows) != expected:
            raise ValueError(f"rows must have exactly the keys 0..{alg.size - 1}")
        if not all(_is_grid(M) and all(_is_int(m) for row in M for m in row)
                   for M in rows.values()):
            raise ValueError("each of rows must be a list of integer rows")
        matrices = tuple(tuple(tuple(r) for r in rows[str(a)]) for a in range(alg.size))
        u = alg.shape.u
        for a, M in enumerate(matrices):
            if not is_subunital(M, u, u):
                raise ValueError(f"matrix for element {a} is not u-subunital")
        # the axiom checks read the sum table, so its cap (CapExceeded, count
        # N^2) refuses a box over the sum-table limit before N action rows
        # are built
        alg.oplus_table()
        return Operation(alg, matrix_actions(alg, matrices), _assembled=True)
    raise ValueError('operation JSON needs a "table" or "rows" field')


def matrix_actions(alg: SimplicialAlgebra,
                   matrices: Sequence[Matrix]) -> tuple[tuple[int, ...], ...]:
    """Per matrix, the index of M x for every element x of the box in
    canonical order: the product-table row of an element whose left
    translation is M.
    Each row is expanded from M's column indices (see column_indices); its
    entries lie in the box because M x <= M u <= u."""
    shape = alg.shape
    return tuple(tuple(shape.linear_indices(column_indices(shape, M))) for M in matrices)


def column_indices(shape: Shape, M: Matrix) -> tuple[int, ...]:
    """w_j = the index of column j of M (of M e_j) in the box of shape, so
    that index(M x) = sum_j x_j w_j: M u's index is sum_j u_j w_j, and
    column j is zero exactly when w_j = 0."""
    return tuple(map(shape.index_of, zip(*M)))


def _identity(r: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(r)) for i in range(r))


def sigma_universal(alg: FiniteEffectAlgebra) -> Operation:
    """The universal operation: a o b = 0 when a = 0, else b.  The axiom
    checks read the sum table, so it is asked for first: its cap
    (CapExceeded, count N^2) refuses an algebra over the sum-table limit
    before anything of size N is built."""
    alg.oplus_table()
    n, zero = alg.size, alg.zero_index
    zeros, ident = (zero,) * n, tuple(range(n))
    return Operation(alg, tuple(zeros if a == zero else ident for a in range(n)),
                     _assembled=True)


def tau_perm(u, perm: Sequence[int]) -> Operation:
    """The permutation twist on a homogeneous box: a o x is 0 at a = 0, x at
    a = u, and Px in between, where P permutes coordinates by the 1-based
    `perm` (coordinate i of Px is coordinate perm[i] of x).  ValueError where
    the twist is not defined."""
    if isinstance(u, TableAlgebra):
        raise ValueError("permutation twists are only defined on boxes")
    alg = u if isinstance(u, SimplicialAlgebra) else make_simplicial(u)
    shape = alg.shape
    if not shape.is_homogeneous():
        raise ValueError(f"permutation twists need a homogeneous shape, got {shape.u}")
    perm = tuple(perm)
    r = shape.r
    if not all(map(_is_int, perm)) or sorted(perm) != list(range(1, r + 1)):
        raise ValueError(f"{perm} is not a permutation of 1..{r}")
    P = tuple(tuple(1 if j == perm[i] - 1 else 0 for j in range(r)) for i in range(r))
    # the sum table first, as in sigma_universal; on a box 0 and the top
    # are the first and last indices
    alg.oplus_table()
    n = shape.size
    (twist,) = matrix_actions(alg, (P,))
    return Operation(alg, ((0,) * n,) + (twist,) * (n - 2) + (tuple(range(n)),),
                     _assembled=True)


def meet_boolean(r) -> Operation:
    """Componentwise minimum on the Boolean box (1, ..., 1); a o b = a AND b.
    r is the box or its rank; ValueError where the meet is not defined.  A
    rank whose box has over CARRIER_LIMIT elements is refused (CapExceeded,
    count 2**r) before its shape is built."""
    if isinstance(r, TableAlgebra):
        raise ValueError("the meet operation is only defined on boxes")
    if isinstance(r, SimplicialAlgebra):
        alg = r
    elif _is_int(r):
        # a rank below 1 passes the cap and is refused by Shape
        capped_power(2, r, CARRIER_LIMIT, f"elements in the box [0, (1,) * {r}]")
        alg = make_simplicial((1,) * r)
    else:
        raise ValueError(f"the meet operation needs a box or an integer rank, got {r!r}")
    u = alg.shape.u
    if any(ui != 1 for ui in u):
        raise ValueError(f"the meet operation needs u = (1,...,1), got {u}")
    # the sum table first, as in sigma_universal; on the Boolean box an index
    # is the bitmask of its coordinates, so the meet is a AND b
    alg.oplus_table()
    ids = range(alg.size)
    return Operation(alg, tuple(tuple(map(a.__and__, ids)) for a in ids), _assembled=True)


class AxiomReport(NamedTuple):
    """Per-axiom verdicts for s1..s<upto>; a value of None means the axiom
    holds, otherwise it is the least witness tuple."""

    upto: int
    results: dict[str, Optional[tuple[int, ...]]]

    @property
    def all_pass(self) -> bool:
        return all(w is None for w in self.results.values())

    def passed(self, axiom: str) -> bool:
        return self.results[axiom] is None

    def witness(self, axiom: str) -> Optional[tuple[int, ...]]:
        return self.results[axiom]

    def to_json(self) -> dict:
        out = {}
        for name in AXIOM_NAMES[: self.upto]:
            w = self.results[name]
            out[name] = "pass" if w is None else {"fail": dict(zip("abc", w))}
        return out


# check_s1 .. check_s5 return the least witness tuple against one axiom on a
# product table, in the scan orders described at the top of this module, or
# None when the axiom holds.
def check_s1(alg: FiniteEffectAlgebra, prod: Table) -> Optional[tuple[int, ...]]:
    """S1, row by row: each row is screened at the atoms where the rule below
    applies, and a row the screen rejects, or every row where it does not
    apply, is walked over all orthogonal pairs (maps.broken_pair).

    The atom rule: on an effect algebra, a row f with f(x (+) p) =
    f(x) (+) f(p) for every atom p and every x orthogonal to p is additive.
    Every nonzero y is y1 (+) p with p an atom, and x (+) y = (x (+) y1) (+) p,
    so f(x (+) y) = f(x) (+) f(y) follows by induction on the number of atoms
    in y (at y = 0, f(0) = 0 by cancellation at x = 0).  The rule needs
    associativity and atoms that generate, so it is used only where
    alg._laws_hold: on a box, or on a table that validate_table_algebra has
    passed.  It reads 8 x 128 pairs per row on the Boolean cube 2^8, where
    the walk reads 3,281.  A rejected row is walked in full, so the first
    failing row and its least witness are the walk's.

    On the cube, read as bytes (_Bytes.screen), the screen takes 1.7-1.8 ms
    a table once the carrier's screen is built, against 8.5-12 ms with
    itemgetter gathers, and 2.2-2.3 ms on a freshly validated table, whose
    atoms the validation recorded (finding them by the pairs rule of
    atom_indices took 1.1-1.6 ms more; in process, Python 3.11, a shared
    2-vCPU VM).
    """
    passes = _atom_screen(alg)
    for a, row in enumerate(prod):
        if passes is None or not passes(row):
            w = broken_pair(alg, alg, row)
            if w is not None:
                return (a, *w)
    return None


def _atom_screen(alg: FiniteEffectAlgebra):
    """check_s1's screen on alg: a predicate that is True when a row passes at
    every atom sum x (+) p; None where alg._laws_hold is False.  It is built
    on first use, by the screen builder of the format alg's size takes
    (_format), and kept in the carrier's _screen slot, which is filled only
    while _laws_hold.  The atoms are the shape's unit vectors on a box and
    on a table those that validate_table_algebra recorded, so the set-up
    reads no pair of the sum table beyond the atoms' rows: row p stands for
    column p, since the sum commutes wherever _laws_hold."""
    if not alg._laws_hold:
        return None
    if alg._screen is None:
        alg._screen = _format(alg.size).screen(alg)
    return alg._screen


def check_s2(alg: FiniteEffectAlgebra, prod: Table) -> Optional[tuple[int, ...]]:
    row = prod[alg.one_index]
    for a in range(alg.size):
        if row[a] != a:
            return (a,)
    return None


def check_s3(alg: FiniteEffectAlgebra, prod: Table) -> Optional[tuple[int, ...]]:
    """S3 from the commuting flags (_Joined.commuting).

    The rule: where a o b = 0, b o a = 0 too exactly when a and b commute,
    so S3 fails at (a, b) exactly when a o b = 0 and the two do not
    commute.  A row that commutes with every b passes; in any other, the
    zero flags (zeros) less the commuting flags, one integer with byte b
    for b, give the failing b, the least of them the plain loop's witness.
    Within check_axioms S3 builds the flags that S4 and S5 then read."""
    return _s3(alg, _Joined(prod))


def _s3(alg: FiniteEffectAlgebra, joined: _Joined) -> Optional[tuple[int, ...]]:
    zeros = joined.zeros(alg.zero_index)
    for a, comm in enumerate(joined.commuting()):
        if 0 in comm:
            bad = int.from_bytes(zeros(a), "little") & ~int.from_bytes(comm, "little")
            if bad:
                return (a, (bad & -bad).bit_length() - 1 >> 3)
    return None


def check_s4(alg: FiniteEffectAlgebra, prod: Table) -> Optional[tuple[int, ...]]:
    return _s4_scan(alg, prod, range(alg.size), _Joined(prod))


def _s4_scan(alg: FiniteEffectAlgebra, prod: Table, cs: Sequence[int],
             joined: _Joined) -> Optional[tuple[int, ...]]:
    """S4 a row a at a time, with the composition clause compared only at
    the c in `cs` (increasing indices).  Exact when every c is in `cs`, and
    on the terms of check_s4_given_s1.

    Each row gives, as one integer with byte b standing for b, the b that
    commute with a and fail a clause: the b'-clause where b' does not
    commute with a, the composition clause where a o (b o c) differs from
    (a o b) o c at some c in `cs`.  The lowest set byte is the least failing
    b, the scan's pair; its b'-clause is tried first and the composition
    clause rescanned over every c, so the witness is the plain scan's.
    Hence the composition clause is compared only at the commuting b below
    the row's least b'-clause failure, and not at all when that failure is
    at the row's least commuting b.  The view reads the commuting flags at
    the orthosupplements (primed) and gives the composition clause."""
    ortho = alg.ortho_table()
    primed, composition = joined.primed(ortho), joined.composition(cs)
    for a, comm in enumerate(joined.commuting()):
        commuting = int.from_bytes(comm, "little")
        bad = commuting & ~int.from_bytes(primed(comm), "little")
        below = commuting & (bad & -bad) - 1 if bad else commuting
        if below:
            # a composition flag is any nonzero byte (an XOR in the byte
            # view), so the mask is 0xff at each b that below flags
            bad |= below * 255 & composition(a)
        if bad:
            b = (bad & -bad).bit_length() - 1 >> 3
            row, bp = prod[a], ortho[b]
            if row[bp] != prod[bp][a]:
                return (a, b)
            rowb, row_ab = prod[b], prod[row[b]]
            for c in range(alg.size):
                if row[rowb[c]] != row_ab[c]:
                    return (a, b, c)
    return None


def _format(n: int) -> type:
    """_Bytes up to 256 elements, where an entry fits a byte; _Wide above."""
    return _Bytes if n <= 256 else _Wide


class _Joined:
    """A product table as S3, S4 and S5 read it, in the view of its format
    (_format); check_axioms makes one per call, which the three share, and
    each public check its own.  A view gives the commuting flags (_row),
    S3's zero flags (zeros), S4's flags at the orthosupplements (primed)
    and composition clause, and S1's screen builder (screen)."""

    __slots__ = ("prod", "_flags")

    def __new__(cls, prod: Table):
        return object.__new__(_format(len(prod)))

    def commuting(self) -> Iterator[bytes]:
        """Per a, byte b 1 where a o b = b o a and 0 elsewhere, the view's
        _row(a).  A row is built when a scan first reads it and kept, in row
        order, so a scan that stops early builds no more, and a later or
        interleaved scan reads the rows built so far and builds the rest."""
        built, row = self._flags, self._row
        for a in range(len(self.prod)):
            if a == len(built):
                built.append(row(a))
            yield built[a]


class _Bytes(_Joined):
    """The view of a table of at most 256 elements: its rows joined into one
    byte string, flat, so that row a and column a are slices of it (XORed for
    the commuting flags), read by bytes.translate, whose 256-byte tables are
    padded past n.  The join costs less than S4's columns built one by one,
    so it is made even for the searches' leaves, which mostly fail early."""

    __slots__ = ("flat",)

    def __init__(self, prod: Table):
        self.prod, self._flags, self.flat = prod, [], b"".join(map(bytes, prod))

    def _row(self, a: int) -> bytes:
        flat, n = self.flat, len(self.prod)
        xor = (int.from_bytes(flat[a * n:a * n + n], "little")
               ^ int.from_bytes(flat[a::n], "little"))
        return xor.to_bytes(n, "little").translate(_ZERO_TO_ONE)

    def zeros(self, zero: int):
        n, flags = len(self.prod), self.flat.translate(bytes(zero) + b"\x01" + bytes(255 - zero))
        return lambda a: flags[a * n:a * n + n]

    def primed(self, ortho: Sequence[int]):
        pad, at_ortho = bytes(256 - len(self.prod)), bytes(ortho)
        return lambda comm: at_ortho.translate(comm + pad)

    def composition(self, cs: Sequence[int]):
        """_s4_scan's composition clause: a function of a whose integer has
        byte b nonzero where a o (b o c) differs from (a o b) o c at some c
        in cs.  For each c, column c translated by row a is a o (b o c) and
        row a translated by column c is (a o b) o c, for every b."""
        flat, n = self.flat, len(self.prod)
        pad = bytes(256 - n)
        cols = [flat[c::n] for c in cs]
        cols_pad = [col + pad for col in cols]

        def composition(a: int) -> int:
            # a o (b o c) and (a o b) o c for every b, one c after another
            row = flat[a * n:a * n + n]
            got = b"".join(map(bytes.translate, cols, repeat(row + pad)))
            want = b"".join(map(row.translate, cols_pad))
            broken = 0
            if got != want:
                for i in range(0, len(got), n):
                    broken |= (int.from_bytes(got[i:i + n], "little")
                               ^ int.from_bytes(want[i:i + n], "little"))
            return broken

        return composition

    @staticmethod
    def screen(alg: FiniteEffectAlgebra):
        """S1's screen, where a row f is a byte string.  For each atom p it
        is read by bytes.translate at the x orthogonal to p, giving f(x), and
        at the sums x (+) p, giving f(x (+) p); row f(p) of the sum table,
        read at every f(x) the same way, gives f(p) (+) f(x) and whether each
        is defined.  Row f passes at p when those sums equal f(x (+) p) and
        every one of them is defined: the byte 0 stands in for an undefined
        sum, and may equal f(x (+) p)."""
        sums = alg.oplus_table()
        atoms = [(p, *map(bytes, _row_domain(sums[p]))) for p in alg.atom_indices()]
        pad = bytes(256 - alg.size)

        @cache
        def sum_row(v: int) -> tuple[bytes, bytes]:
            """Row v of the sum table as two bytes.translate tables, built on
            first use: the sums, 0 where undefined, and the defined flags."""
            row = sums[v]
            return (bytes([0 if k is None else k for k in row]) + pad,
                    bytes([k is not None for k in row]) + pad)

        def passes(row: Sequence[int]) -> bool:
            f = bytes(row) + pad
            for p, xs, ks in atoms:
                fx = xs.translate(f)
                summed, defined = sum_row(row[p])
                if fx.translate(summed) != ks.translate(f) or 0 in fx.translate(defined):
                    return False
            return True

        return passes


class _Wide(_Joined):
    """The view of a table of more than 256 elements, where an entry no longer
    fits a byte: rows are read by itemgetter gathers and compared by map(eq) or
    map(ne), giving 0/1 bytes, row a with column a for the commuting flags, the
    columns taken one at a time from zip(*prod), none ahead of the rows read."""

    __slots__ = ("_columns",)

    def __init__(self, prod: Table):
        self.prod, self._flags, self._columns = prod, [], zip(*prod)

    def _row(self, a: int) -> bytes:
        # commuting() asks for the rows in order, so column a is the next
        return bytes(map(eq, self.prod[a], next(self._columns)))

    def zeros(self, zero: int):
        return lambda a: bytes(map(eq, self.prod[a], repeat(zero)))

    def primed(self, ortho: Sequence[int]):
        at_ortho = itemgetter(*ortho)
        return lambda comm: bytes(at_ortho(comm))

    def composition(self, cs: Sequence[int]):
        """_s4_scan's composition clause, with 0/1 bytes: for every b, row a
        read at b o c for the c in cs (a o (b o c)) is compared in C with
        row a o b read at cs ((a o b) o c), one tuple per b.  With at most
        32 c, one itemgetter reads row a at every b o c and zip cuts the
        result into one tuple per b; with more, the cut costs more than a
        call, so one itemgetter per b is mapped over b.  The getters and the
        rows read at cs are built before the first row."""
        prod = self.prod
        n, m = len(prod), len(cs)
        if m <= 32:
            picked = [tuple(map(row_k.__getitem__, cs)) for row_k in prod]
            every = itemgetter(*[row_b[c] for row_b in prod for c in cs])

            def composed(row):
                return zip(*[iter(every(row))] * m)
        else:
            at_cs = tuple if m == n else itemgetter(*cs)
            picked = list(map(at_cs, prod))
            through = [itemgetter(*at_cs(row_b)) for row_b in prod]
            call = itemgetter.__call__

            def composed(row):
                return map(call, through, repeat(row))

        def composition(a: int) -> int:
            row = prod[a]
            broken = bytes(map(ne, composed(row), map(picked.__getitem__, row)))
            return int.from_bytes(broken, "little")

        return composition

    @staticmethod
    def screen(alg: FiniteEffectAlgebra):
        """S1's screen read by itemgetter: per atom p, one getter reads a row
        at the x orthogonal to p and one at the sums x (+) p
        (algebra._reader)."""
        sums = alg.oplus_table()
        getters = [(p, *map(_reader, _row_domain(sums[p]))) for p in alg.atom_indices()]

        def passes(row: Sequence[int]) -> bool:
            for p, at_xs, at_ks in getters:
                # f(p) (+) f(x) against f(x (+) p); None differs from every index
                if itemgetter(*at_xs(row))(sums[row[p]]) != at_ks(row):
                    return False
            return True

        return passes


def check_s4_given_s1(alg: FiniteEffectAlgebra, prod: Table) -> Optional[tuple[int, ...]]:
    """check_s4 on a table every row of which passes S1, with the same witness.

    The S1 rule of S4, stated here only: under S1, c |-> a o (b o c) and
    c |-> (a o b) o c are additive, and additive maps that agree on zero and
    the atoms agree everywhere, so the composition clause is compared only at
    alg.sum_generators(): zero and the atoms where alg._laws_hold, 9 of 256
    entries per pair on the Boolean cube 2^8, and every element elsewhere,
    as on a table that validate_table_algebra has not passed.  Zero alone
    would not do: a o (b o 0) = 0 = (a o b) o 0 under S1.

    The c-set is read a row a at a time, for every b at once (_s4_scan):
    per row of the cube, 9 translations of column c by row a against 9 of
    row a by column c, where a per-pair loop would make 256 gathers of 9
    entries.  Above 256 elements, itemgetter gathers over b take the place
    of the translations (_Wide.composition).
    """
    return _s4_scan(alg, prod, alg.sum_generators(), _Joined(prod))


def check_s5(alg: FiniteEffectAlgebra, prod: Table) -> Optional[tuple[int, ...]]:
    """S5 by commutant bitmasks, with the centre masked out.

    The centre rule: a c that commutes with every element is in every
    commutant, so it commutes with a o b and with a (+) b too and never
    breaks S5.  Dropping it from comm[a] changes no failing c, and a row
    whose commutant lies inside the centre is skipped, so on a commutative
    product, such as the meet, S5 costs only the commutant build.  That
    build reads the commuting flags (_Joined.commuting), which on up to 256
    elements XOR row a with column a of the joined table: on the cube 2^8
    S5 takes 1.0-1.2 ms, against 2.3-3.0 ms with map(eq) over zip(*prod).
    """
    return _s5(alg, prod, _Joined(prod))


def _s5(alg: FiniteEffectAlgebra, prod: Table, joined: _Joined) -> Optional[tuple[int, ...]]:
    n = alg.size
    sums = alg.oplus_table()
    # comm[x] has bit c set when c o x = x o c.  The c that break S5 at (a, b)
    # commute with a and b but not with a o b or with a defined a (+) b, and
    # the least of them is the lowest set bit.  Row x is compared with column
    # x in one step, and the 0/1 bytes of the comparison, reversed so that
    # bit c is read last, are read as a binary numeral.  Commuting is
    # symmetric, so the AND of every comm[x] holds the centre.
    comm = [int(f[::-1].translate(_BINARY_DIGITS), 2) for f in joined.commuting()]
    off_centre = ~reduce(and_, comm)
    for a in range(n):
        comm_a = comm[a] & off_centre
        if not comm_a:
            continue
        rowa, suma = prod[a], sums[a]
        for b in range(n):
            both = comm_a & comm[b]
            if not both:
                continue
            k = suma[b]
            keep = comm[rowa[b]] if k is None else comm[rowa[b]] & comm[k]
            bad = both & ~keep
            if bad:
                return (a, b, (bad & -bad).bit_length() - 1)
    return None


AXIOM_CHECKS = (check_s1, check_s2, check_s3, check_s4, check_s5)
# the same once S1 has passed, as the searches' leaf filter and check_axioms take them
CHECKS_GIVEN_S1 = (check_s1, check_s2, check_s3, check_s4_given_s1, check_s5)


def check_axioms(op: Operation, upto: int) -> AxiomReport:
    """Evaluate axioms S1..S<upto> exactly, collecting least witnesses.

    Each axiom short-circuits at its first violation but every axiom up to
    `upto` is evaluated.  S3, S4 and S5 share one _Joined, so a table of at
    most 256 elements is joined into bytes once per call, and at every size
    each row's commuting flags are built once for the three, by the first
    that reads the row.
    """
    if not _is_int(upto) or not 1 <= upto <= 5:
        raise ValueError(f"upto must be in 1..5, got {upto}")
    alg = op.algebra
    prod = op.product_table()
    results = {"s1": check_s1(alg, prod)}
    if upto >= 2:
        results["s2"] = check_s2(alg, prod)
    if upto >= 3:
        joined = _Joined(prod)
        results["s3"] = _s3(alg, joined)
    if upto >= 4:
        # check_s4_given_s1's c-set once S1 holds, check_s4's otherwise
        cs = range(alg.size) if results["s1"] is not None else alg.sum_generators()
        results["s4"] = _s4_scan(alg, prod, cs, joined)
    if upto == 5:
        results["s5"] = _s5(alg, prod, joined)
    return AxiomReport(upto=upto, results=results)


def replay_witness(op: Operation, axiom: str, witness: Sequence[int]) -> bool:
    """Re-evaluate one axiom instance; True iff the violation reproduces.
    ValueError for an unknown axiom, a witness that is not a sequence or is
    of the wrong length for its axiom, or an entry that is no element
    index."""
    alg = op.algebra
    if not isinstance(axiom, str) or axiom not in _WITNESS_LENGTHS:
        raise ValueError(f"unknown axiom {axiom!r}")
    lengths = _WITNESS_LENGTHS[axiom]
    if not isinstance(witness, Sequence):
        raise ValueError(f"{witness!r} is not a sequence of element indices")
    w = tuple(map(alg._checked_index, witness))
    if len(w) not in lengths:
        raise ValueError(f"{w} has the wrong length for an {axiom} witness")
    prod = op.product_table()
    sums = alg.oplus_table()
    zero, one = alg.zero_index, alg.one_index
    if axiom == "s1":
        a, b, c = w
        k = sums[b][c]
        if k is None:
            return False
        t = sums[prod[a][b]][prod[a][c]]
        return t is None or t != prod[a][k]
    if axiom == "s2":
        (a,) = w
        return prod[one][a] != a
    if axiom == "s3":
        a, b = w
        return prod[a][b] == zero and prod[b][a] != zero
    if axiom == "s4":
        if len(w) == 2:
            a, b = w
            bp = alg.ortho_table()[b]
            return prod[a][b] == prod[b][a] and prod[a][bp] != prod[bp][a]
        a, b, c = w
        return (prod[a][b] == prod[b][a]
                and prod[a][prod[b][c]] != prod[prod[a][b]][c])
    a, b, c = w  # s5
    if prod[c][a] != prod[a][c] or prod[c][b] != prod[b][c]:
        return False
    ab = prod[a][b]
    if prod[c][ab] != prod[ab][c]:
        return True
    k = sums[a][b]
    return k is not None and prod[c][k] != prod[k][c]


def right_unit_holds(op: Operation) -> tuple[bool, Optional[int]]:
    """Whether a o 1 = a for every a; on failure also the least violating a."""
    prod = op.product_table()
    one = op.algebra.one_index
    for a in range(op.algebra.size):
        if prod[a][one] != a:
            return (False, a)
    return (True, None)


class NotS1(NamedTuple):
    """Refutation: row `row` of the table is not an additive left translation."""

    row: int
    witness: tuple[Elem, Elem]


def from_full_table(alg: SimplicialAlgebra,
                    table: Sequence[Sequence[int]]) -> Union[tuple[Matrix, ...], NotS1]:
    """Recover the matrices of a product table's rows, one per element in
    canonical order, or refute S1.

    Each row is classified as matrix_of_map does; the first non-additive row
    (with its orthogonal-pair witness) refutes S1.
    """
    if not isinstance(alg, SimplicialAlgebra):
        raise ValueError("matrix families are only defined on boxes")
    rows = _checked_table(table, alg.size)
    matrices = []
    for a, row in enumerate(rows):
        got = _classify(alg, alg, row)
        if isinstance(got, NotAdditive):
            return NotS1(row=a, witness=got.witness)
        matrices.append(got)
    return tuple(matrices)
