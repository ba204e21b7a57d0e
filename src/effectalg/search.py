"""Exhaustive searches over operations satisfying axiom prefixes S1..Sk.

The S1+S2 candidate space on a box is a Cartesian product: one u-subunital
matrix per element with the top row pinned to the identity, so it can be
counted by formula and enumerated directly.  For S3 and beyond one S3-pruned
search keeps the bidirectional zero condition (M_a b = 0 iff M_b a = 0).
For a nonnegative matrix M, M x = 0 exactly when supp(x) lies in M's
zero-column set Z, so the condition sees a row only through Z.  At b of
support {j} it says j lies in Z_a iff supp(a) lies in N(j) = Z_b, so
Z_a = CN(supp a), the j whose N(j) holds supp(a), and S3 between singletons
makes N symmetric: a looped graph on the r coordinates.  Conversely every
graph passes, as "s x t lies in the edges" is symmetric in s and t.  So the
search walks the coordinates, not the elements: at j it picks N(j) and
weighs every support whose highest coordinate is j.  Its input is a few
kinds of pool matrices, each listed by zero-column set, and the kind each
element's row takes.  One walk serves every k.  At k = 3 a graph's weight
is its number of operations, the product of its elements' list lengths,
so a count needs no matrix, and a listing expands, after the walk, only the
graphs taken while the running count was within cap: each leaf is an
operation, the tuple of its rows' pool indices, and no table is built.  At
k >= 4 each graph is expanded as the walk yields it, and each leaf's table
is assembled from the pool matrices' actions and filtered by S4 and S5 as
operations.CHECKS_GIVEN_S1 checks it (every leaf passes S1; see
check_s4_given_s1).  Survivors stay pool-index tuples through the canonical
sort, and each kept one becomes an Operation by one gather of its action
rows (_Pool.operation), whose row tuples SearchResult.to_json hands to the
encoder as they are; no survivor keeps its matrices, which
operations.from_full_table recovers from its table.  A node is one
neighbourhood tried at one coordinate, and at k >= 4 each leaf is one node
more.  An S4/S5 search lists for row a only the pool matrices with M u = a:
with the zero and identity rows pinned, any other row breaks S4 at the
instance (a, 0), so this removes no survivor, and an element with no such
matrix (as on (2, 2), where M u = (1, 0) has no solution) ends the search
at 0 nodes.

Row i of a u-subunital M only has to satisfy row_i . u <= u_i, so the pool
is the product of r per-row lists, and the box index is linear in the
coordinates.  The two numbers the search reads of every matrix before a
leaf are therefore folds over its row choices, computed in one walk of the
pool, one row at a time and never from matrix entries: the zero-column set
(column j is zero iff it is zero in every row), which keys its lists, and
the index of M u, which gives the S4 row filter.  The matrices are listed,
and the pool's actions built (operations.matrix_actions), only at the first
listing or leaf, so a search that ends before one (every obstructed box
tried so far) builds neither, and no search builds a SubunitalMatrix.
Nonexistence results are exhaustive or explicitly undecided, never guessed.

bruteforce_prefixes is the independent oracle, on raw N x N index tables
with no matrix machinery at all.  S1 reads each row of a table on its own,
so the S1 tables are exactly the products of the additive rows, which
maps.additive_maps_bruteforce generates pruned by prefix, sharing no atom
rule with check_s1's screen; the tables are generated as such, in canonical
order, and each runs through check_s2, check_s3, ... until its first
failure, so every axiom prefix S1..Sk is classified at once.
full_bruteforce_ops is its list for one k.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property
from itertools import chain, product
from operator import itemgetter, mul
from typing import Iterator, NamedTuple, Optional, Sequence

from .algebra import FiniteEffectAlgebra, Shape, _is_int, has_obstruction_atom, make_simplicial
from .errors import (
    COUNT_LIMIT,
    CapExceeded,
    NodeBudgetExceeded,
    capped_power,
    count_text,
)
from .maps import additive_maps_bruteforce, count_subunital, subunital_row_lists
from .operations import (
    AXIOM_CHECKS,
    CHECKS_GIVEN_S1,
    Matrix,
    Operation,
    Table,
    _identity,
    check_axioms,
    matrix_actions,
    meet_boolean,
)

DEFAULT_OP_CAP = 10**5
DEFAULT_NODE_BUDGET = 10**7
DEFAULT_TABLE_CAP = 10**7


class SearchResult(NamedTuple):
    """Outcome of an operation search on the box [0, u] at axiom prefix k.

    A NamedTuple like the other records.  certificate is "exhaustive" or
    "formula"; operations is None when the count exceeded the cap, and a
    caller drops a listing with res._replace(operations=None).  to_json
    gives each operation's product table as it is, a tuple of row tuples,
    which json encodes as the arrays that list rows would give."""

    u: tuple[int, ...]
    k: int
    count: int
    certificate: str
    operations: Optional[list[Operation]]

    def to_json(self) -> dict:
        out: dict = {
            "u": list(self.u),
            "k": self.k,
            "count": count_text(self.count),
            "certificate": self.certificate,
        }
        if self.operations is not None:
            out["operations"] = [op.product_table() for op in self.operations]
        return out


class S4Existence(NamedTuple):
    """Whether some S1-S4 operation exists on [0, u].

    exists is None when the search ran out of node budget; the certificate is
    then "undecided".  A positive answer carries a verified witness operation;
    a negative one certifies an exhaustive search.
    """

    u: tuple[int, ...]
    exists: Optional[bool]
    certificate: str  # "witness", "exhaustive" or "undecided"
    witness: Optional[Operation]

    def to_json(self) -> dict:
        out: dict = {
            "u": list(self.u),
            "exists": self.exists,
            "certificate": self.certificate,
        }
        if self.witness is not None:
            out["witness"] = [list(row) for row in self.witness.product_table()]
        return out


class B2Record(NamedTuple):
    """One survivor on the four-element Boolean box and the values
    (u, v, s, t) = (p o p, p o q, q o p, q o q) of its rows at p = (1,0) and
    q = (0,1), which determine its additive rows there."""

    op: Operation
    uvst: tuple[int, int, int, int]


class B2Classification(NamedTuple):
    records: list[B2Record]
    block_v_zero: list[int]
    block_v_nonzero: list[int]

    @property
    def total(self) -> int:
        return len(self.records)


def count_s1s2(u: Sequence[int]) -> int:
    """#M(u) ** (N - 1): free matrix choices everywhere except the top row.
    Exact, but refused (capped_power) once 2 ** (N - 1) alone is unwritable."""
    u = tuple(u)
    return capped_power(count_subunital(u, u), Shape(u).size - 1, None, "S1+S2 operations")


class _Pool:
    """The box [0, u] and its u-subunital matrices, the choices for each row
    of an operation: the product of the per-row lists (maps.enumerate_rows),
    in enumerate_subunital's order (last row fastest), subunital by
    construction.  Everything is built on first use, and the search reads
    only rows (_candidates) and supports before its first leaf, so a count
    by graphs, or a search that ends before its first leaf, lists no matrix
    and builds no action row."""

    def __init__(self, u: Sequence[int]):
        self.alg = make_simplicial(u)

    @cached_property
    def rows(self) -> list[list[tuple[int, ...]]]:
        """Per row i, the rows alpha with alpha . u <= u_i, lexicographic.
        A pool over maps.DEFAULT_MATRIX_CAP is refused first, with its count."""
        return subunital_row_lists(self.alg.shape.u)

    @cached_property
    def matrices(self) -> list[Matrix]:
        return list(product(*self.rows))

    @cached_property
    def actions(self) -> Table:
        return matrix_actions(self.alg, self.matrices)

    @cached_property
    def supports(self) -> list[int]:
        """Per element, in canonical order, the bitmask of its nonzero
        coordinates."""
        supports = [0]
        for j, uj in enumerate(self.alg.shape.u):
            supports = [s | (c > 0) << j for c in range(uj + 1) for s in supports]
        return supports

    @cached_property
    def top(self) -> int:
        """The pool index of the identity, the top row under S2: the mixed
        radix number of the unit row's position in each row list."""
        index = 0
        for choices, e in zip(self.rows, _identity(self.alg.shape.r)):
            index = index * len(choices) + choices.index(e)
        return index

    def operation(self, rows: Sequence[int]) -> Operation:
        """The operation whose row a is the action of pool matrix rows[a],
        its product table gathered by one itemgetter.  It is not re-checked:
        every entry of an action row is the index of some M x <= M u <= u, so
        it lies in the box.  A box has at least two elements, so the getter
        gives a tuple."""
        return Operation(self.alg, itemgetter(*rows)(self.actions), _assembled=True)


def _matrix_families(u: Sequence[int], pin_top: bool, cap: int) -> Iterator[Operation]:
    """Every choice of one u-subunital matrix per element, elements in
    canonical order with the later element's choice varying faster; pin_top
    fixes the top row to the identity (axiom S2)."""
    u = tuple(u)
    free = Shape(u).size - int(pin_top)
    capped_power(count_subunital(u, u), free, cap,
                 "S1+S2 operations" if pin_top else "S1 operations")
    pool = _Pool(u)
    top = [(pool.top,)] if pin_top else []
    return map(pool.operation, product(*[range(len(pool.matrices))] * free, *top))


def enumerate_s1(u: Sequence[int], cap: int = DEFAULT_OP_CAP) -> Iterator[Operation]:
    """All matrix families with no row constraint at all (axiom S1 only)."""
    return _matrix_families(u, False, cap)


def enumerate_s1s2(u: Sequence[int], cap: int = DEFAULT_OP_CAP) -> Iterator[Operation]:
    """All S1+S2 operations: the S1 families with the top row pinned to the
    identity."""
    return _matrix_families(u, True, cap)


# (kinds, kind_of): see _candidates
_Candidates = tuple[list[dict[int, list[int]]], list[int]]


def _candidates(pool: _Pool, k: int) -> _Candidates:
    """The matrices each row of 0..N-2 may take, from one walk of the pool:
    (kinds, kind_of).  kinds[t][z] lists, ascending, the pool indices of
    kind t whose zero-column set is z, a key only when it has a member; and
    row a may take exactly the matrices of kind kind_of[a].

    The walk folds each matrix's zero-column set (column j is zero iff it is
    zero in every row) and, for k >= 4, the index of M u, sum_i (row_i . u)
    place_i, one row of the pool at a time: every partial fold meets every
    choice of the next row, so the last row varies fastest, as in the pool.

    M u = 0 only for the zero matrix, alone in the set with every column
    zero.  At k = 3 kind 0 is the zero matrix, for row 0, and kind 1 every
    other matrix, since S2 and S3 give a o 1 = 0 iff a = 0.  For k >= 4 kind
    a is the matrices with M u = a, for row a, by S1, S2 and S4's b'-clause,
    not S3: at (0, 0) it gives 0 o 1 = 1 o 0 = 0 (S2), so row 0 is zero; then
    a o 0 = 0 = 0 o a, and at (a, 0) it demands a o 1 = 1 o a = a, whatever
    the other rows are."""
    shape = pool.alg.shape
    n, full = shape.size, (1 << shape.r) - 1
    # per matrix, its zero-column set and its kind: the index of M u for
    # k >= 4, whether it is nonzero for k = 3
    zeros, kind_at = [full], [0]
    for i, choices in enumerate(pool.rows):
        row_zeros = [sum(1 << j for j, m in enumerate(row) if not m) for row in choices]
        zeros = [x & y for x in zeros for y in row_zeros]
        if k > 3:
            row_units = [sum(map(mul, row, shape.u)) * shape._places[i] for row in choices]
            kind_at = [x + y for x in kind_at for y in row_units]
    if k == 3:
        kind_at = [int(z != full) for z in zeros]
        n_kinds, kind_of = 2, [0] + [1] * (n - 2)
    else:
        n_kinds, kind_of = n - 1, list(range(n - 1))
    kinds: list[dict[int, list[int]]] = [{} for _ in range(n_kinds)]
    for i, (z, t) in enumerate(zip(zeros, kind_at)):
        if t < n_kinds:
            kinds[t].setdefault(z, []).append(i)
    return kinds, kind_of


def _capped_power(base: int, exp: int) -> int:
    """min(base ** exp, COUNT_LIMIT), not computed when its lower bound
    2 ** (exp * (base.bit_length() - 1)) already reaches COUNT_LIMIT."""
    if exp * (base.bit_length() - 1) >= COUNT_LIMIT.bit_length():
        return COUNT_LIMIT
    return min(base**exp, COUNT_LIMIT)


def _s3_assignments(pool: _Pool, candidates: _Candidates, node_budget: int,
                    charge_leaves: bool) -> Iterator[tuple[list[int], int]]:
    """Yield (CN_G(s) per support s, weight) for every looped graph G on the
    coordinates (module docstring) under which each nonempty support below
    the top has members in its elements' kinds (_candidates).  The walk
    picks N(j) for j = 0..r-1 among the sets with members at support {j}
    whose bits below j agree with the neighbourhoods already picked (i in
    N(j) iff j in N(i)), then weighs each support s whose highest coordinate
    is j by CN(s) = CN(s - {i}) & N(i), i its lowest coordinate, and backs
    up at the first with no member.  The yielded list is indexed by support
    bitmask and reused: copy it to keep it.  At the empty support, element
    0's, it holds every column, the zero matrix's set.

    A set's weight for a support is the product, one power per kind, each
    capped at COUNT_LIMIT, of its members in the kinds of the support's
    elements; a graph's weight, the product over supports capped at
    COUNT_LIMIT, is the number of leaves (matrix assignments) it stands for.
    A capped weight only feeds a count at or past COUNT_LIMIT, since every
    set weighed has a member.  One node is one neighbourhood tried at one
    coordinate; with charge_leaves, for a search that builds tables (k >= 4),
    one leaf is one node more.  Crossing node_budget raises, reporting
    node_budget + 1 nodes, as a search charging one node at a time would.
    """
    kinds, kind_of = candidates
    if not all(kinds[t] for t in set(kind_of)):
        return
    # per nonempty support below the top, the weight of each set: the
    # product over its elements' kinds t, m elements each, of the size of
    # kinds[t][z] ** m, over the sets z with members in every such kind
    weight_of: dict[int, dict[int, int]] = {}
    for (s, t), m in Counter(zip(pool.supports, kind_of)).items():
        if s:
            ws = {z: len(zs) if m == 1 else _capped_power(len(zs), m)
                  for z, zs in kinds[t].items()}
            weight_of[s] = ({z: w * ws[z] for z, w in weight_of[s].items() if z in ws}
                            if s in weight_of else ws)
    r = pool.alg.shape.r
    # u = (1) has no element between 0 and the top, so no coordinate to walk
    depth = r if weight_of else 0
    # per coordinate j, the sets with members at support {j}, by their bits
    # below j
    options: list[dict[int, list[int]]] = [{} for _ in range(depth)]
    for j in range(depth):
        for z in weight_of[1 << j]:
            options[j].setdefault(z & ((1 << j) - 1), []).append(z)
    common = [(1 << r) - 1] * (1 << r)
    over = f"S3 search exceeded the node budget {node_budget}"
    nodes = 0

    def walk(j: int, weight: int) -> Iterator[tuple[list[int], int]]:
        nonlocal nodes
        if j == depth:
            if charge_leaves:
                nodes += weight
                if nodes > node_budget:
                    raise NodeBudgetExceeded(over, nodes=node_budget + 1)
            yield common, weight
            return
        below = sum(1 << i for i in range(j) if common[1 << i] >> j & 1)
        for z in options[j].get(below, ()):
            nodes += 1
            if nodes > node_budget:
                raise NodeBudgetExceeded(over, nodes=node_budget + 1)
            common[1 << j] = z
            w = weight
            for s in range(1 << j, 2 << j):
                low = s & -s
                c = common[s] = common[s ^ low] & common[low]
                if s in weight_of:
                    x = weight_of[s].get(c)
                    if x is None:
                        break
                    w = min(w * x, COUNT_LIMIT)
            else:
                yield from walk(j + 1, w)

    yield from walk(0, 1)


def _s1sk(pool: _Pool, k: int, cap: int,
          node_budget: int) -> tuple[int, Optional[list[Operation]]]:
    """(count, operations) of S1..Sk on the pool's box, by the one walk of
    _s3_assignments (module docstring); operations is None when the count
    exceeds cap.  The count is refused (CapExceeded, with no count) as soon
    as its running sum reaches COUNT_LIMIT, which Python cannot write as
    text.  A graph's leaves, the product of its elements' lists for their
    supports' sets, are built at k = 3 only for a graph taken while that sum
    is within cap, and at k >= 4 for every graph, to filter them."""
    alg = pool.alg
    later = CHECKS_GIVEN_S1[3:k]
    kinds, kind_of = candidates = _candidates(pool, k)

    def leaves(common: list[int]) -> Iterator[tuple[int, ...]]:
        return product(*[kinds[t][common[s]] for t, s in zip(kind_of, pool.supports)],
                       (pool.top,))

    def passes(rows: tuple[int, ...]) -> bool:
        table = tuple(map(pool.actions.__getitem__, rows))
        for check in later:
            if check(alg, table) is not None:
                return False
        return True

    count, kept = 0, []
    for common, weight in _s3_assignments(pool, candidates, node_budget, charge_leaves=k > 3):
        if later:
            survivors = list(filter(passes, leaves(common)))
            weight = len(survivors)
        count += weight
        if count >= COUNT_LIMIT:
            raise CapExceeded(f"S1-S{k} operations on {alg.shape.u}: more than 4300 digits")
        if count <= cap:
            kept.append(survivors if later else leaves(common))
    if count > cap:
        return count, None
    # the survivors come grouped by graph
    return count, list(map(pool.operation, sorted(chain.from_iterable(kept))))


def enumerate_s1sk(u: Sequence[int], k: int, cap: int = DEFAULT_OP_CAP,
                   node_budget: int = DEFAULT_NODE_BUDGET) -> SearchResult:
    """All operations passing S1..Sk for k in 3..5 (_s1sk).  The count is
    exact; the operations list is dropped (None) when the count exceeds
    cap, and is otherwise in canonical order: by the pool index of each
    row, row 0 first."""
    if not _is_int(k) or k not in (3, 4, 5):
        raise ValueError(f"k must be in 3..5, got {k}")
    u = tuple(u)
    count, ops = _s1sk(_Pool(u), k, cap, node_budget)
    return SearchResult(u=u, k=k, count=count, certificate="exhaustive", operations=ops)


def exists_s1s4(u: Sequence[int],
                node_budget: int = DEFAULT_NODE_BUDGET) -> S4Existence:
    """Decide whether [0, u] carries an S1-S4 operation.

    Boolean shapes get the componentwise meet as an explicit witness (re-run
    through the checker before being returned).  Every other shape has an
    obstruction atom, so the search of enumerate_s1sk at k = 4 and cap 0,
    with row a restricted to the pool matrices with M u = a (S4 at (a, 0)),
    is run to exhaustion expecting no survivor; each of its leaves is still
    checked against S4.  A budget trip reports undecided rather than
    guessing.
    """
    u = tuple(u)
    pool = _Pool(u)
    if not has_obstruction_atom(pool.alg):
        op = meet_boolean(pool.alg)
        if not check_axioms(op, 4).all_pass:
            raise RuntimeError("componentwise meet failed S1-S4 on a Boolean box; "
                               "internal inconsistency")
        return S4Existence(u=u, exists=True, certificate="witness", witness=op)

    try:
        count, _ = _s1sk(pool, 4, 0, node_budget)
    except NodeBudgetExceeded:
        return S4Existence(u=u, exists=None, certificate="undecided", witness=None)
    if count:
        raise RuntimeError(f"an S1-S4 operation turned up on the obstructed shape {u}; "
                           "internal inconsistency")
    return S4Existence(u=u, exists=False, certificate="exhaustive", witness=None)


def classify_b2(node_budget: int = DEFAULT_NODE_BUDGET) -> B2Classification:
    """Classify the S1-S3 survivors on the four-element Boolean box.

    Each survivor must consist of the zero row at 0, the identity row at the
    top, and additive rows A at p = (1,0) and B at q = (0,1) whose values
    (u, v, s, t) = (A p, A q, B p, B q) satisfy the cross-zero condition
    v = 0 iff s = 0.  Survivors are partitioned by that zero pattern into
    blocks of 9 and 25; any structural violation is an internal error.
    """
    res = enumerate_s1sk((1, 1), 3, node_budget=node_budget)
    p, q = 1, 2  # canonical indices of (1,0) and (0,1)
    records = []
    for op in res.operations:
        table = op.product_table()
        if table[0] != (0, 0, 0, 0) or table[3] != (0, 1, 2, 3):
            raise RuntimeError("survivor lacks the zero/identity row structure; "
                               "internal inconsistency")
        uvst = (table[p][p], table[p][q], table[q][p], table[q][q])
        if uvst[:2] == (0, 0) or uvst[2:] == (0, 0):
            raise RuntimeError("survivor has a zero row at p or q; internal inconsistency")
        if (uvst[1] == 0) != (uvst[2] == 0):
            raise RuntimeError("survivor violates the cross-zero condition; "
                               "internal inconsistency")
        records.append(B2Record(op=op, uvst=uvst))
    v_zero = [i for i, rec in enumerate(records) if rec.uvst[1] == 0]
    v_nonzero = [i for i, rec in enumerate(records) if rec.uvst[1] != 0]
    if len(v_zero) != 9 or len(v_nonzero) != 25:
        raise RuntimeError(f"expected blocks of 9 and 25, got {len(v_zero)} and "
                           f"{len(v_nonzero)}")
    return B2Classification(records=records, block_v_zero=v_zero, block_v_nonzero=v_nonzero)


def bruteforce_prefixes(alg: FiniteEffectAlgebra, upto: int = 5,
                        cap: int = DEFAULT_TABLE_CAP) -> list[list[Table]]:
    """Classify ALL N x N tables by the longest axiom prefix they pass.

    Entry k - 1 of the result lists the tables passing S1..Sk, for k in
    1..upto, in canonical function order (last cell varying fastest), each
    a tuple of row tuples of element indices.  S1 reads each row of a table
    on its own, so a table passes S1 exactly when each of its rows does:
    the additive rows, in lexicographic order, are those of
    maps.additive_maps_bruteforce(alg, alg) (no atom rule), and their
    product is every S1 table, in canonical order, with no other table
    generated.  Each runs through check_s2, check_s3, ... until its first
    failure, so it is checked once for every k.  The cap counts all
    N**(N*N) tables, filtered or not, and bounds the row generator too,
    whose N**N rows are fewer.  The independent oracle for the structured
    searches: table representation only, no matrices anywhere.
    """
    if not _is_int(upto) or not 1 <= upto <= 5:
        raise ValueError(f"upto must be in 1..5, got {upto}")
    n = alg.size
    capped_power(n, n * n, cap, "candidate tables")
    rows = additive_maps_bruteforce(alg, alg, cap)
    passing: list[list[Table]] = [[] for _ in range(upto)]
    later = tuple(zip(passing[1:], AXIOM_CHECKS[1:upto]))
    for table in product(rows, repeat=n):
        passing[0].append(table)
        for tables, check in later:
            if check(alg, table) is not None:
                break
            tables.append(table)
    return passing


def full_bruteforce_ops(alg: FiniteEffectAlgebra, k: int,
                        cap: int = DEFAULT_TABLE_CAP) -> list[Table]:
    """All N x N tables passing S1..Sk, each a tuple of row tuples, in
    canonical function order: the last list of bruteforce_prefixes(alg, k,
    cap)."""
    return bruteforce_prefixes(alg, k, cap)[k - 1]
