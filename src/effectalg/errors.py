"""Exceptions shared across the package, and the one rule for refusing work
over a size limit."""

from __future__ import annotations

# Python writes no int of more than 4300 decimal digits as text (its default
# int_max_str_digits), so a count at or past this bound is refused as over a
# cap instead of being printed.
COUNT_LIMIT = 10**4300


class CapExceeded(RuntimeError):
    """An enumeration was refused because it would produce more than `cap` items.

    `count` carries the exact number of items the enumeration would have produced,
    when that number is cheap to compute up front and below COUNT_LIMIT, so
    that it can be written as text (None otherwise).
    """

    def __init__(self, message: str, count: int | None = None):
        super().__init__(message)
        self.count = count if count is not None and count < COUNT_LIMIT else None


def count_text(count: int) -> str:
    """count in decimal; CapExceeded, with no count, at or past COUNT_LIMIT."""
    if count >= COUNT_LIMIT:
        raise CapExceeded(f"a count of {count.bit_length()} bits has more than 4300 digits")
    return str(count)


def refuse_over(count: int, limit: int, what: str) -> None:
    """CapExceeded, carrying count, when count is over limit; `what` names the
    items counted.  The message writes count only where Python can."""
    if count > limit:
        shown = str(count) if count < COUNT_LIMIT else f"a {count.bit_length()}-bit number of"
        raise CapExceeded(f"{shown} {what}, over the limit {limit}", count=count)


def capped_power(base: int, exp: int, limit: int | None, what: str) -> int:
    """base ** exp exactly, refused (refuse_over) when over limit, if one is
    given.  Once base >= 2 and 2 ** exp alone reaches COUNT_LIMIT the power
    is refused, with no count, before it is computed."""
    if base >= 2 and exp >= COUNT_LIMIT.bit_length():
        raise CapExceeded(f"at least 2 ** {exp} {what}, more than 4300 digits")
    total = base**exp
    if limit is not None:
        refuse_over(total, limit, what)
    return total


class NodeBudgetExceeded(RuntimeError):
    """A backtracking search crossed its node budget before finishing.

    `nodes` is the number of nodes visited, the one that crossed the budget
    included: neighbourhoods tried at coordinates, plus, in an S4/S5 search,
    its leaves.
    """

    def __init__(self, message: str, nodes: int | None = None):
        super().__init__(message)
        self.nodes = nodes


class InvalidTableAlgebra(ValueError):
    """A sum table failed effect-algebra validation; `report` says which law broke."""

    def __init__(self, report):
        super().__init__("table is not an effect algebra: " + report.first_failure())
        self.report = report
