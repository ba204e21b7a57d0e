"""Exceptions shared across the package."""

from __future__ import annotations


class CapExceeded(RuntimeError):
    """An enumeration was refused because it would produce more than `cap` items.

    `count` carries the exact number of items the enumeration would have produced,
    when that number is cheap to compute up front (None otherwise).
    """

    def __init__(self, message: str, count: int | None = None):
        super().__init__(message)
        self.count = count


# Python writes no int of more than 4300 decimal digits as text (its default
# int_max_str_digits), so a count at or past this bound is refused as over a
# cap instead of being printed.
COUNT_LIMIT = 10**4300


def count_text(count: int) -> str:
    """count in decimal; CapExceeded, with no count, at or past COUNT_LIMIT."""
    if count >= COUNT_LIMIT:
        raise CapExceeded(f"a count of {count.bit_length()} bits has more than 4300 digits")
    return str(count)


class NodeBudgetExceeded(RuntimeError):
    """A backtracking search crossed its node budget before finishing.

    `nodes` is the number of row assignments attempted before giving up.
    """

    def __init__(self, message: str, nodes: int | None = None):
        super().__init__(message)
        self.nodes = nodes


class InvalidTableAlgebra(ValueError):
    """A sum table failed effect-algebra validation; `report` says which law broke."""

    def __init__(self, report):
        super().__init__("table is not an effect algebra: " + report.first_failure())
        self.report = report
