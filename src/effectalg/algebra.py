"""Finite effect algebras: simplicial intervals in Z^r and explicit sum tables.

An effect algebra is a set with a partial commutative and associative sum, a
zero and a one, a unique orthosupplement a' satisfying a (+) a' = 1, and the
law that a (+) 1 defined forces a = 0.  Two concrete carriers live here, on
one base, FiniteEffectAlgebra, that memoizes what derives from the sum table:

* SimplicialAlgebra -- the integer box [0, u] in Z^r, where x (+) y equals
  x + y when x + y <= u coordinatewise and is undefined otherwise;
* TableAlgebra -- an arbitrary finite carrier given by an explicit partial
  sum table, checked against the laws by validate_table_algebra.

Elements of a box are numbered 0 .. N-1 in mixed-radix order with coordinate 1
varying fastest, so index 0 is the zero vector and index N-1 is u itself.
Index-level sums use None for "undefined"; the JSON form uses the integer -1.
"""

from __future__ import annotations

import json
import math
from functools import cached_property
from operator import itemgetter, mul
from typing import Callable, Iterator, NamedTuple, Optional, Sequence, Union

from .errors import InvalidTableAlgebra, refuse_over

# Refuse to build boxes with more elements than this.
CARRIER_LIMIT = 10**6
# Largest carrier for which a full N x N sum table will be materialized.
SUM_TABLE_LIMIT = 2048

# Per element b, the pairs (c, b (+) c) with c >= b whose sum is defined.
SumPairs = tuple[tuple[tuple[int, int], ...], ...]


def _is_int(v) -> bool:
    """An integer that is not a bool (JSON true/false decode to bools)."""
    return isinstance(v, int) and not isinstance(v, bool)


def _is_grid(obj) -> bool:
    """A JSON list of lists."""
    return isinstance(obj, list) and all(isinstance(row, list) for row in obj)


def _bits(indices) -> int:
    """The bitmask with bit i set for each i in `indices` (repeats allowed)."""
    m = 0
    for i in indices:
        m |= 1 << i
    return m


def _nothing(row) -> tuple:
    """What itemgetter over an empty index set would give."""
    return ()


def _row_domain(row) -> tuple[list[int], list[int]]:
    """For a sum-table row b: its domain, the c with b (+) c defined, in c
    order, and the sums b (+) c there."""
    dom = [c for c, v in enumerate(row) if v is not None]
    return dom, [row[c] for c in dom]


def _reader(indices: list[int]) -> Callable:
    """A getter that reads any row at indices, as a tuple.  A one-index list
    is read twice, since itemgetter of one index gives a scalar; an empty
    one reads ()."""
    if not indices:
        return _nothing
    return itemgetter(*indices * (2 if len(indices) == 1 else 1))


class _ShapeFields(NamedTuple):
    u: tuple[int, ...]


class Shape(_ShapeFields):
    """A box shape u = (u_1, ..., u_r), every u_i >= 1.

    It declares no __slots__, so its instances keep the __dict__ that the
    cached properties below are stored in."""

    def __new__(cls, u: Sequence[int]):
        self = super().__new__(cls, tuple(u))
        if not self.u:
            raise ValueError("shape needs at least one coordinate")
        for ui in self.u:
            if not _is_int(ui) or ui < 1:
                raise ValueError(f"shape coordinates must be integers >= 1, got {ui!r}")
        return self

    @property
    def r(self) -> int:
        return len(self.u)

    @cached_property
    def size(self) -> int:
        return math.prod(ui + 1 for ui in self.u)

    @cached_property
    def _places(self) -> tuple[int, ...]:
        places, p = [], 1
        for ui in self.u:
            places.append(p)
            p *= ui + 1
        return tuple(places)

    @cached_property
    def levels(self) -> list[int]:
        """The coordinate sum of every index.  Adding indices adds coordinates,
        and every carry lowers the coordinate sum, so x (+) y is the index
        i + j exactly when i + j < size and levels[i] + levels[j] == levels[i + j]."""
        return self.linear_indices((1,) * self.r)

    @cached_property
    def all_coords(self) -> tuple[tuple[int, ...], ...]:
        """The coordinates of every index, in canonical order."""
        return tuple(self.coords_of(i) for i in range(self.size))

    def index_of(self, coords: Sequence[int]) -> int:
        return sum(map(mul, coords, self._places))

    def linear_indices(self, w: Sequence[int]) -> list[int]:
        """sum_j x_j w[j] for every x of the box in canonical order, by the
        mixed-radix expansion, coordinate 1 first.  The index is linear in
        the coordinates, so when w[j] is the index of column j of a matrix M
        (of M e_j), this is the index of M x for every x."""
        out = [0]
        for ui, wj in zip(self.u, w):
            out = [v + c * wj for c in range(ui + 1) for v in out]
        return out

    def coords_of(self, index: int) -> tuple[int, ...]:
        if not 0 <= index < self.size:
            raise ValueError(f"index {index} out of range for shape {self.u}")
        out = []
        for ui in self.u:
            index, c = divmod(index, ui + 1)
            out.append(c)
        return tuple(out)

    def is_homogeneous(self) -> bool:
        return len(set(self.u)) == 1


class _ElemFields(NamedTuple):
    coords: tuple[int, ...]
    shape: Shape


class Elem(_ElemFields):
    """An element of the box [0, u], stored by coordinates."""

    __slots__ = ()

    def __new__(cls, coords: Sequence[int], shape: Shape):
        self = super().__new__(cls, tuple(coords), shape)
        if len(self.coords) != shape.r:
            raise ValueError(f"expected {shape.r} coordinates, got {len(self.coords)}")
        for c, ui in zip(self.coords, shape.u):
            if not _is_int(c) or not 0 <= c <= ui:
                raise ValueError(f"coordinate {c!r} outside [0, {ui}]")
        return self

    @property
    def index(self) -> int:
        return self.shape.index_of(self.coords)


class FiniteEffectAlgebra:
    """The index-level interface of both carriers: elements 0 .. size-1, a
    zero and a one, the sum table oplus_table() (None where undefined) and
    the orthosupplements ortho_table(), each defined by the carrier, which
    also maps its elements to indices and back with index(x) and element(k).
    The tables derived from the sum table are memoized here.

    _laws_hold is True when the carrier is known to satisfy the
    effect-algebra laws: always on a box, and on a table once
    validate_table_algebra has found them to hold.  It is the one gate of
    the two rules that rest on every element being a sum of atoms, check_s1's
    atom screen and check_s4_given_s1's c-set (sum_generators()): each is
    used only then.  _screen is where the checker keeps that screen, built
    once per carrier while _laws_hold (operations._atom_screen); the carrier
    never reads it."""

    _laws_hold = False

    def __init__(self, size: int, zero: int, one: int):
        self.size = size
        self.zero_index = zero
        self.one_index = one
        self._ortho: Optional[tuple[int, ...]] = None
        self._pairs: Optional[SumPairs] = None
        self._screen = None
        self._atoms: Optional[tuple[int, ...]] = None
        self._gens: Optional[tuple[int, ...]] = None

    def _checked_index(self, k: int) -> int:
        """k, provided it is an element index: an int, not a bool, below size."""
        if not _is_int(k):
            raise ValueError(f"{k!r} is not an element index below {self.size}")
        if not 0 <= k < self.size:
            raise ValueError(f"index {k} out of range: not an element index below {self.size}")
        return k

    def orthogonal_pairs(self) -> SumPairs:
        """Per b, the defined sums (c, b (+) c) with c >= b, in c order, memoized."""
        if self._pairs is None:
            n = self.size
            self._pairs = tuple(
                tuple((c, row[c]) for c in range(b, n) if row[c] is not None)
                for b, row in enumerate(self.oplus_table())
            )
        return self._pairs

    def atom_indices(self) -> tuple[int, ...]:
        """The atoms, in index order, memoized: the nonzero elements that are
        no sum b (+) c with b and c both different from the element (the
        pairs rule, read off orthogonal_pairs()).  In an effect algebra,
        whose sum is commutative and cancellative, these are exactly the
        minimal nonzero elements.  On a table that validate_table_algebra
        has passed they are the ones it recorded, and no pair is read."""
        if self._atoms is None:
            split = [False] * self.size
            for b, row_pairs in enumerate(self.orthogonal_pairs()):
                for c, k in row_pairs:
                    if b != k and c != k:
                        split[k] = True
            self._atoms = tuple(x for x, s in enumerate(split)
                                if not s and x != self.zero_index)
        return self._atoms

    def sum_generators(self) -> tuple[int, ...]:
        """Zero and the atoms, in index order, where _laws_hold (memoized);
        every element otherwise.

        Every element of an effect algebra is a sum of atoms, so two maps
        that are additive over orthogonal_pairs() agree everywhere once they
        agree on the elements returned.
        """
        if not self._laws_hold:
            return tuple(range(self.size))
        if self._gens is None:
            self._gens = tuple(sorted((self.zero_index, *self.atom_indices())))
        return self._gens


def _check_carrier(shape: Shape) -> None:
    """Refuse (CapExceeded) a box of more than CARRIER_LIMIT elements."""
    refuse_over(shape.size, CARRIER_LIMIT, f"elements in the box [0, {shape.u}]")


class SimplicialAlgebra(FiniteEffectAlgebra):
    """The interval [0, u] in Z^r under truncated vector addition."""

    noun = "box"
    _laws_hold = True

    def __init__(self, shape: Shape):
        _check_carrier(shape)
        super().__init__(shape.size, 0, shape.size - 1)
        self.shape = shape
        self.zero = Elem((0,) * shape.r, shape)
        self.one = Elem(shape.u, shape)
        self._sums: Optional[tuple[tuple[Optional[int], ...], ...]] = None

    def __repr__(self):
        return f"SimplicialAlgebra(u={self.shape.u})"

    def element(self, index: int) -> Elem:
        return Elem(self.shape.coords_of(self._checked_index(index)), self.shape)

    def index(self, x: Elem) -> int:
        """A box's element is an Elem of this box."""
        if not isinstance(x, Elem):
            raise ValueError(f"{x!r} is not an element of the box {self.shape.u}")
        if x.shape != self.shape:
            raise ValueError("element belongs to a different box")
        return x.index

    def atom_indices(self) -> tuple[int, ...]:
        """The unit vectors e_i, read off the shape: e_i has index place_i."""
        return self.shape._places

    def elements(self) -> Iterator[Elem]:
        """All elements in canonical index order."""
        for i in range(self.size):
            yield self.element(i)

    def oplus_index(self, i: int, j: int) -> Optional[int]:
        self._checked_index(i)
        self._checked_index(j)
        levels = self.shape.levels
        k = i + j
        return k if k < self.size and levels[i] + levels[j] == levels[k] else None

    def oplus_table(self) -> tuple[tuple[Optional[int], ...], ...]:
        """Full index-level sum table, memoized; None marks undefined sums."""
        if self._sums is None:
            n = self.size
            refuse_over(n * n, SUM_TABLE_LIMIT**2, f"sum-table entries for {n} elements")
            levels = self.shape.levels
            # the rule of oplus_index, row i read only where i + j < n
            self._sums = tuple(
                tuple(i + j if li + lj == levels[i + j] else None
                      for j, lj in enumerate(levels[:n - i])) + (None,) * i
                for i, li in enumerate(levels))
        return self._sums

    def ortho_table(self) -> tuple[int, ...]:
        """x' = u - x, whose index is N - 1 - i since the index is linear."""
        if self._ortho is None:
            self._ortho = tuple(range(self.size - 1, -1, -1))
        return self._ortho

    def to_table(self) -> "TableAlgebra":
        """Export the box as an explicit sum table (validation is the caller's call)."""
        return TableAlgebra(self.size, self.zero_index, self.one_index, self.oplus_table())

    def to_json(self) -> dict:
        return {"type": "simplicial", "u": list(self.shape.u)}

    def element_json(self, x: Elem) -> list[int]:
        return list(x.coords)


class TableAlgebra(FiniteEffectAlgebra):
    """A finite effect-algebra candidate given by an explicit partial sum table.

    The constructor checks only well-formedness: table dimensions, index
    ranges, entries int-or-None.  Whether the laws actually hold is decided
    by validate_table_algebra; loading from JSON runs that check eagerly.
    The constructor lists each row's domain and sums (_row_domain) as it
    checks the row's defined entries, and keeps the listing for the
    validation.
    """

    noun = "table algebra"

    def __init__(self, size: int, zero: int, one: int,
                 sum_table: Sequence[Sequence[Optional[int]]]):
        if not _is_int(size) or size < 1:
            raise ValueError(f"size must be a positive integer, got {size!r}")
        for name, v in (("zero", zero), ("one", one)):
            if not _is_int(v) or not 0 <= v < size:
                raise ValueError(f"{name} index {v!r} out of range for size {size}")
        if len(sum_table) != size:
            raise ValueError(f"sum table must have {size} rows, got {len(sum_table)}")
        rows, domains = [], []
        for row in sum_table:
            if len(row) != size:
                raise ValueError(f"sum table rows must have {size} entries")
            domain = _row_domain(row)
            for v in domain[1]:
                if not (type(v) is int or _is_int(v)) or not 0 <= v < size:
                    raise ValueError(f"sum entry {v!r} is not None or an index below {size}")
            rows.append(tuple(row))
            domains.append(domain)
        super().__init__(size, zero, one)
        self.sum_table = tuple(rows)
        self._domains = domains

    def __repr__(self):
        return f"TableAlgebra(size={self.size})"

    def index(self, x: int) -> int:
        """A table's element is its own index."""
        return self._checked_index(x)

    element = index

    def elements(self) -> Iterator[int]:
        return iter(range(self.size))

    def oplus_index(self, i: int, j: int) -> Optional[int]:
        return self.sum_table[self._checked_index(i)][self._checked_index(j)]

    def oplus_table(self) -> tuple[tuple[Optional[int], ...], ...]:
        return self.sum_table

    def ortho_table(self) -> tuple[int, ...]:
        """Orthosupplement of each element; requires the table to determine it uniquely."""
        if self._ortho is None:
            one = self.one_index
            out = []
            for a, row in enumerate(self.sum_table):
                count = row.count(one)
                if count != 1:
                    raise ValueError(
                        f"element {a} has {count} orthosupplements; "
                        "validate the table first"
                    )
                out.append(row.index(one))
            self._ortho = tuple(out)
        return self._ortho

    def to_json(self) -> dict:
        return {
            "type": "table",
            "size": self.size,
            "zero": self.zero_index,
            "one": self.one_index,
            "sum": [[-1 if v is None else v for v in row] for row in self.sum_table],
        }

    def element_json(self, x: int) -> int:
        return x


class AtomRecord(NamedTuple):
    """A minimal nonzero element together with its isotropic index ord."""

    atom: Union[Elem, int]
    ord: int


class ValidationReport(NamedTuple):
    """Outcome of checking a sum table against the effect-algebra laws.

    `checks` maps each law name to None (holds) or a witness dict giving the
    first violating instance in canonical scan order.
    """

    size: int
    checks: dict[str, Optional[dict]]

    LAWS = ("commutativity", "associativity", "orthosupplement", "zero_one", "positivity")

    @property
    def ok(self) -> bool:
        return all(w is None for w in self.checks.values())

    def first_failure(self) -> str:
        for law in self.LAWS:
            w = self.checks.get(law)
            if w is not None:
                return f"{law} fails at {w}"
        return "all laws hold"

    def to_json(self) -> dict:
        out: dict = {"valid": self.ok}
        for law in self.LAWS:
            w = self.checks.get(law)
            out[law] = "pass" if w is None else {"fail": w}
        return out


def make_simplicial(u: Union[Shape, Sequence[int]]) -> SimplicialAlgebra:
    """Build the box [0, u]; refuses carriers above CARRIER_LIMIT."""
    shape = u if isinstance(u, Shape) else Shape(tuple(u))
    return SimplicialAlgebra(shape)


def oplus(alg: FiniteEffectAlgebra, x, y):
    """Partial sum; None when undefined.  Elems on boxes, indices on tables."""
    k = alg.oplus_index(alg.index(x), alg.index(y))
    return None if k is None else alg.element(k)


def orthosupplement(alg: FiniteEffectAlgebra, x):
    """The unique x' with x (+) x' = 1."""
    return alg.element(alg.ortho_table()[alg.index(x)])


def leq(alg: FiniteEffectAlgebra, x, y) -> bool:
    """True iff some z satisfies x (+) z = y."""
    i, j = alg.index(x), alg.index(y)
    if isinstance(alg, SimplicialAlgebra):
        # the only candidate z has index j - i
        return j >= i and alg.oplus_index(i, j - i) == j
    return j in alg.sum_table[i]


def isotropic_index(alg: FiniteEffectAlgebra, x) -> int:
    """ord(x): the largest n for which the n-fold sum x (+) ... (+) x exists.

    Undefined (raises ValueError) at x = 0, where every multiple exists.
    """
    i = alg.index(x)
    if i == alg.zero_index:
        raise ValueError("ord(0) is undefined")
    if isinstance(alg, SimplicialAlgebra):
        return min(ui // c for c, ui in zip(x.coords, alg.shape.u) if c)
    n, s = 1, i
    while True:
        t = alg.sum_table[s][i]
        if t is None:
            return n
        s, n = t, n + 1
        if n > alg.size:
            raise RuntimeError("multiples of a nonzero element failed to terminate; "
                               "the table is not an effect algebra")


def atoms(alg: FiniteEffectAlgebra) -> list[AtomRecord]:
    """The atoms, alg.atom_indices(), with their isotropic indices: on a box
    the unit vectors e_i, with ord(e_i) = u_i."""
    return [AtomRecord(x, isotropic_index(alg, x))
            for x in map(alg.element, alg.atom_indices())]


def has_obstruction_atom(alg: FiniteEffectAlgebra) -> bool:
    """True iff some atom has isotropic index >= 2."""
    return any(rec.ord >= 2 for rec in atoms(alg))


def validate_table_algebra(alg: TableAlgebra) -> ValidationReport:
    """Check the sum table against the effect-algebra laws.

    Reports the first witness per failed law, scanning elements in index
    order: commutativity over pairs (a, b); associativity with definedness
    agreement over triples (a, b, c); unique orthosupplement per element;
    the zero-one law (a (+) 1 defined forces a = 0); and positivity
    (a (+) b = 0 forces a = b = 0) as a derived sanity check.

    Each law is tested a row at a time and single entries are read only in a
    failing row, to pick its least witness, so the witnesses are those of the
    plain element-by-element scan.  Each row b's domain D[b], the c for
    which b (+) c is defined, and the sums there are read from the listing
    the constructor made as it checked the entries.  Commutativity compares
    row a with column a in C, the zero-one law reads the top's column, and
    the orthosupplement and positivity laws read only the defined sums
    (6,561 of the 65,536 entries on the cube 2^8).

    Associativity reads only the entries that can break it: at a pair
    (a, b) one side is defined only at some c in D[b] or in D[a (+) b].  So
    when a (+) b is undefined the pair holds iff no b (+) c with c in D[b]
    is summable with a, and when a (+) b = k it holds iff D[k] lies inside
    D[b] and the two sides agree, undefined included, on D[b].  Two rules
    decide most pairs without that comparison:

    * Down-sets.  Every undefined pair of row a holds iff D[a] is closed
      downward: each b with b (+) c in D[a] for some c is itself in D[a].
      That is the undefined-pair test above read for every b outside D[a]
      at once, so when it holds only the b in D[a] are scanned (6,561 of
      the 65,536 pairs on the Boolean cube 2^8).  Otherwise some b outside
      D[a] has b (+) c in D[a], and (a, b, c) breaks the law, so the whole
      row is scanned, each undefined pair by the plain comparison, and the
      scan ends in that row.
    * Counts, on a row b that cancels (its defined sums are distinct, as on
      every effect algebra).  c |-> b (+) c is then one-to-one on D[b], so
      the c in D[b] with a (+) (b (+) c) defined number as many as the
      sums of row b in D[a].  The pair (a, b) holds iff D[k] lies inside
      D[b], that number is |D[k]|, and a (+) (b (+) c) = k (+) c for every c
      in D[k]: the last puts D[k] among those c, and the count leaves no
      other.  This reads |D[k]| entries, not |D[b]|.  A row that does not
      cancel keeps the comparison on D[b].

    The verdict is recorded on the algebra (see FiniteEffectAlgebra), and
    so are the orthosupplements where their law holds, for ortho_table().
    Only when every law holds are the atoms recorded, for atom_indices():
    the x != 0 whose below[x] (the b with b (+) c = x for some c) holds
    only 0 and x, which on an effect algebra, as it cancels, is the pairs
    rule.
    """
    n = alg.size
    s = alg.sum_table
    zero, one = alg.zero_index, alg.one_index
    domains = alg._domains
    # mask[b] has the bits of D[b], size[b] is |D[b]| and reach[b] has the
    # bits of every defined b (+) c; at_dom[b](row) reads row at D[b], and
    # own[b] is at_dom[b](row b).  below[x] has the bit of every b with
    # x = b (+) c for some c, and cancels[b] says that c |-> b (+) c is
    # one-to-one; only a row that does not cancel gets through[b], a reader
    # of any row at each b (+) c in D[b]'s order
    mask, size, reach, at_dom, own, cancels = ([] for _ in range(6))
    through = {}
    below = [0] * n
    for b, (row, (dom, sums)) in enumerate(zip(s, domains)):
        at = _reader(dom)
        mask.append(_bits(dom))
        size.append(len(dom))
        reach.append(_bits(sums))
        at_dom.append(at)
        own.append(at(row))
        cancel = len(set(sums)) == len(sums)
        cancels.append(cancel)
        if not cancel:
            through[b] = _reader(sums)
        bit = 1 << b
        for x in sums:
            below[x] |= bit
    checks: dict[str, Optional[dict]] = {}

    def commutativity():
        for a, (row, col) in enumerate(zip(s, zip(*s))):
            if row != col:
                for b in range(n):
                    if row[b] != col[b]:
                        return {"a": a, "b": b}
        return None

    def associativity():
        for a, (row_a, (dom_a, _)) in enumerate(zip(s, domains)):
            mask_a = mask[a]
            under = 0
            for x in dom_a:
                under |= below[x]
            # with D[a] closed downward every undefined pair of row a holds;
            # otherwise one breaks, and the scan ends in this row
            bs = range(n) if under & ~mask_a else dom_a
            for b in bs:
                k = row_a[b]
                if k is not None and not mask[k] & ~mask[b]:
                    if cancels[b]:
                        # the count, then row a at b (+) c against row k at
                        # c for c in D[k], which an empty D[k] skips
                        if ((reach[b] & mask_a).bit_count() == size[k]
                                and (not size[k]
                                     or itemgetter(*at_dom[k](s[b]))(row_a) == own[k])):
                            continue
                    elif at_dom[b](s[k]) == through[b](row_a):
                        continue
                row_b = s[b]
                for c in range(n):
                    bc = row_b[c]
                    if ((None if k is None else s[k][c])
                            != (None if bc is None else row_a[bc])):
                        return {"a": a, "b": b, "c": c}
        return None

    def orthosupplement_law():
        for a, (dom, sums) in enumerate(domains):
            if sums.count(one) != 1:
                return {"a": a, "partners": [b for b, k in zip(dom, sums) if k == one]}
        alg._ortho = tuple(dom[sums.index(one)] for dom, sums in domains)
        return None

    def zero_one():
        for a in range(n):
            if s[a][one] is not None and a != zero:
                return {"a": a}
        return None

    def positivity():
        for a, (dom, sums) in enumerate(domains):
            if zero in sums:
                for b, k in zip(dom, sums):
                    if k == zero and (a != zero or b != zero):
                        return {"a": a, "b": b}
        return None

    checks["commutativity"] = commutativity()
    checks["associativity"] = associativity()
    checks["orthosupplement"] = orthosupplement_law()
    checks["zero_one"] = zero_one()
    checks["positivity"] = positivity()
    report = ValidationReport(size=n, checks=checks)
    alg._laws_hold = report.ok
    if report.ok:
        alg._atoms = tuple(x for x in range(n)
                           if x != zero and not below[x] & ~(1 << zero | 1 << x))
    return report


def algebra_from_json(obj: dict) -> FiniteEffectAlgebra:
    """Decode an algebra object; table inputs are validated eagerly.

    A table whose size is over SUM_TABLE_LIMIT is refused (CapExceeded)
    before its sum table is read.
    """
    if not isinstance(obj, dict):
        raise ValueError("algebra JSON must be an object")
    kind = obj.get("type")
    if kind == "simplicial":
        u = obj.get("u")
        if not isinstance(u, list):
            raise ValueError('simplicial algebra needs a "u" list')
        return make_simplicial(u)
    if kind == "table":
        for key in ("size", "zero", "one", "sum"):
            if key not in obj:
                raise ValueError(f'table algebra needs a "{key}" field')
        size = obj["size"]
        if _is_int(size):
            refuse_over(size, SUM_TABLE_LIMIT, "elements in a table algebra")
        raw = obj["sum"]
        if not _is_grid(raw):
            raise ValueError('"sum" must be a list of rows')
        # only the int -1 means undefined (no bool equals -1); -1.0 is left
        # for the constructor to refuse, like any other float
        table = [[None if v == -1 and (type(v) is int or isinstance(v, int)) else v for v in row]
                 for row in raw]
        alg = TableAlgebra(size, obj["zero"], obj["one"], table)
        report = validate_table_algebra(alg)
        if not report.ok:
            raise InvalidTableAlgebra(report)
        return alg
    raise ValueError(f"unknown algebra type {kind!r}")


def load_algebra(path) -> FiniteEffectAlgebra:
    with open(path, "r", encoding="utf-8") as fh:
        return algebra_from_json(json.load(fh))
