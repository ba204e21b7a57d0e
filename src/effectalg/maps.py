"""Additive maps between boxes and their matrix classification.

A total map t : [0, u] -> [0, v] is additive when t(x (+) y) = t(x) (+) t(y)
for every defined sum.  Additive maps are exactly the actions x |-> M x of
nonnegative integer matrices M with M u <= v ("(u, v)-subunital").  Since row
i of M only has to satisfy row_i . u <= v_i, the matrices can be counted and
enumerated row by row.

additive_maps_bruteforce filters raw image tables with no matrix machinery at
all, on any finite effect algebra; it exists so the classification can be
cross-checked against it, and search.bruteforce_prefixes takes its S1 rows
from it.  It assigns images in index order and drops a partial table at its
first broken sum, so it never lists the functions a broken prefix rules out.
"""

from __future__ import annotations

import math
from itertools import accumulate, chain, product
from operator import mul
from typing import Iterator, NamedTuple, Optional, Sequence, Union

from .algebra import Elem, FiniteEffectAlgebra, Shape, SimplicialAlgebra, _check_carrier, _is_int
from .errors import capped_power, refuse_over

DEFAULT_MATRIX_CAP = 10**6
DEFAULT_FUNCTION_CAP = 10**7


def enumerate_rows(u: Sequence[int], budget: int) -> list[tuple[int, ...]]:
    """All nonnegative integer rows alpha with alpha . u <= budget, in
    lexicographic order."""
    u = tuple(u)
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    out: list[tuple[int, ...]] = []
    row = [0] * len(u)

    def rec(i: int, rem: int):
        if i == len(u):
            out.append(tuple(row))
            return
        for a in range(rem // u[i] + 1):
            row[i] = a
            rec(i + 1, rem - a * u[i])
        row[i] = 0

    rec(0, budget)
    return out


def count_rows(u: Sequence[int], budget: int) -> int:
    """Count rows alpha >= 0 with alpha . u <= budget without listing them:
    f(i, b) = f(i + 1, b) + f(i, b - u_i) counts the rows over coordinates
    i.. within b, as running sums along each residue class mod u_i."""
    u = tuple(u)
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    f = [1] * (budget + 1)
    for ui in reversed(u):
        for c in range(min(ui, budget + 1)):
            f[c::ui] = accumulate(f[c::ui])
    return f[budget]


def count_subunital(u: Sequence[int], v: Optional[Sequence[int]] = None) -> int:
    """#M(u, v): the product over codomain rows of the per-row counts.
    Refuses (CapExceeded) a u or v box over CARRIER_LIMIT elements."""
    u = tuple(u)
    v = u if v is None else tuple(v)
    _check_carrier(Shape(u))
    _check_carrier(Shape(v))
    return math.prod(count_rows(u, vi) for vi in v)


class _SubunitalMatrixFields(NamedTuple):
    rows: tuple[tuple[int, ...], ...]
    domain: Shape
    codomain: Shape


class SubunitalMatrix(_SubunitalMatrixFields):
    """A nonnegative integer matrix M with M u <= v, acting [0, u] -> [0, v]."""

    __slots__ = ()

    def __new__(cls, rows: Sequence[Sequence[int]], domain: Shape, codomain: Shape):
        rows = tuple(tuple(r) for r in rows)
        if not all(map(_is_int, chain.from_iterable(rows))):
            raise ValueError(f"matrix entries must be integers, got {rows}")
        if not is_subunital(rows, domain.u, codomain.u):
            raise ValueError(f"rows {rows} are not subunital for u = {domain.u}, "
                             f"v = {codomain.u}")
        return super().__new__(cls, rows, domain, codomain)

    def apply(self, x: Elem) -> Elem:
        if not isinstance(x, Elem) or x.shape != self.domain:
            raise ValueError(f"{x!r} is not an element of the matrix domain {self.domain.u}")
        y = tuple(sum(m * c for m, c in zip(row, x.coords)) for row in self.rows)
        return Elem(y, self.codomain)

    def to_json(self) -> dict:
        return {
            "rows": [list(r) for r in self.rows],
            "u": list(self.domain.u),
            "v": list(self.codomain.u),
        }


def is_subunital(rows: Sequence[Sequence[int]], u: Sequence[int],
                 v: Optional[Sequence[int]] = None) -> bool:
    """Raw check that rows form a (u, v)-subunital matrix; dimension mismatch raises."""
    u = tuple(u)
    v = u if v is None else tuple(v)
    if len(rows) != len(v):
        raise ValueError(f"expected {len(v)} rows, got {len(rows)}")
    for row, vi in zip(rows, v):
        if len(row) != len(u):
            raise ValueError(f"expected rows of length {len(u)}")
        if min(row, default=0) < 0 or sum(map(mul, row, u)) > vi:
            return False
    return True


def subunital_row_lists(u: Sequence[int], v: Optional[Sequence[int]] = None,
                        cap: int = DEFAULT_MATRIX_CAP) -> list[list[tuple[int, ...]]]:
    """Per row i, the rows alpha with alpha . u <= v_i (enumerate_rows): the
    (u, v)-subunital matrices are exactly their product.  Refuses up front
    when that product has more than cap matrices."""
    u = tuple(u)
    v = u if v is None else tuple(v)
    refuse_over(count_subunital(u, v), cap, "subunital matrices")
    return [enumerate_rows(u, vi) for vi in v]


def enumerate_subunital(u: Sequence[int], v: Optional[Sequence[int]] = None,
                        cap: int = DEFAULT_MATRIX_CAP) -> Iterator[SubunitalMatrix]:
    """Yield every (u, v)-subunital matrix, rows chosen lexicographically with
    the last row varying fastest.  Refuses up front when the count exceeds cap."""
    u = tuple(u)
    v = u if v is None else tuple(v)
    pools = subunital_row_lists(u, v, cap)
    dom, cod = Shape(u), Shape(v)
    return (SubunitalMatrix(rows, dom, cod) for rows in product(*pools))


class NotAdditive(NamedTuple):
    """Refutation certificate: an orthogonal pair the map table breaks."""

    witness: tuple[Elem, Elem]


def additive_maps_bruteforce(dom: FiniteEffectAlgebra, cod: FiniteEffectAlgebra,
                             cap: int = DEFAULT_FUNCTION_CAP) -> list[tuple[int, ...]]:
    """All additive maps dom -> cod by filtering raw image tables, each the
    tuple of its images' indices, t(x) at x's index.

    Deliberately matrix-free: images are assigned in index order, and each
    defined sum (i, j, i (+) j) is tested against t(x (+) y) = t(x) (+) t(y)
    as soon as its largest index has an image, so a partial table is dropped
    at its first broken sum and only its additive extensions are tried.
    Tables come back in canonical function order (the image of the last
    element varies fastest).  The cap counts all |cod|**|dom| functions.
    """
    n, m = dom.size, cod.size
    capped_power(m, n, cap, "candidate functions")
    # checks[t]: the defined sums whose largest index is t
    checks: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            k = dom.oplus_index(i, j)
            if k is not None:
                checks[max(j, k)].append((i, j, k))
    ov = cod.oplus_table()
    partial: list[tuple[int, ...]] = [()]
    for t in range(n):
        extended = (f + (x,) for f in partial for x in range(m))
        # an undefined sum (None) differs from every index
        partial = [f for f in extended if all(ov[f[i]][f[j]] == f[k] for i, j, k in checks[t])]
    return partial


def matrix_of_map(dom: SimplicialAlgebra, cod: SimplicialAlgebra,
                  images: Sequence[Elem]) -> Union[SubunitalMatrix, NotAdditive]:
    """Classify a total map as a matrix action or refute its additivity.

    `images` lists t(x) for x in canonical index order.  On success the
    returned matrix M satisfies t(x) = M x for every x, with columns read off
    the unit vectors.  On failure the certificate carries the first orthogonal
    pair (x, y), in lexicographic index order, with t(x (+) y) != t(x) (+) t(y)
    (broken_pair, so a refutation is refused on a box over SUM_TABLE_LIMIT).
    """
    images = list(images)
    if len(images) != dom.size:
        raise ValueError(f"expected {dom.size} images, got {len(images)}")
    for t in images:
        if not isinstance(t, Elem) or t.shape != cod.shape:
            raise ValueError("images must be elements of the codomain")
    got = _classify(dom, cod, [t.index for t in images])
    return got if isinstance(got, NotAdditive) else SubunitalMatrix(got, dom.shape, cod.shape)


def _classify(dom: SimplicialAlgebra, cod: SimplicialAlgebra,
              images: Sequence[int]) -> Union[tuple[tuple[int, ...], ...], NotAdditive]:
    """The rows of the (u, v)-subunital M with t(x) = M x for every x, where
    t(x) is the codomain index images[x], found with no sum table read; when
    t is no such action, the NotAdditive record of its broken_pair."""
    # the atoms are the unit vectors e_i in order; w[i] is the index of
    # t(e_i), the i-th column of M
    w = [images[p] for p in dom.atom_indices()]
    # The index is linear in the coordinates on [0, v].  So t = M exactly
    # when M u = t(u), which puts every M x in [0, v], and t(x) is
    # sum_i x_i w[i] as an index for every x: the expansion Shape.linear_indices
    # that operations.matrix_actions builds every product-table row with.
    if dom.shape.linear_indices(w) == list(images):
        ccoords = cod.shape.all_coords
        rows = tuple(zip(*[ccoords[wi] for wi in w]))
        if tuple(sum(map(mul, row, dom.shape.u)) for row in rows) == ccoords[images[-1]]:
            return rows
    # every additive map between boxes is a matrix action, so t breaks a sum
    pair = broken_pair(dom, cod, images)
    if pair is None:
        raise AssertionError("map disagrees with its unit-vector matrix yet no "
                             "orthogonal pair fails; this should be impossible")
    return NotAdditive(tuple(map(dom.element, pair)))


def broken_pair(dom: FiniteEffectAlgebra, cod: FiniteEffectAlgebra,
                images: Sequence[int]) -> Optional[tuple[int, int]]:
    """The least orthogonal pair (b, c), b <= c, of dom at which the map
    b |-> images[b] into cod breaks additivity, or None: the one walk of
    dom.orthogonal_pairs(), whose pair check_s1, matrix_of_map and
    from_full_table all report.  It reads only the two sum tables, so a
    carrier over SUM_TABLE_LIMIT is refused (CapExceeded) first."""
    sums = cod.oplus_table()
    for b, row_pairs in enumerate(dom.orthogonal_pairs()):
        sums_b = sums[images[b]]
        for c, k in row_pairs:
            # an undefined sum (None) differs from every index
            if sums_b[images[c]] != images[k]:
                return (b, c)
    return None
