"""Bundled test-fixture algebras, loaded and validated from package data."""

from __future__ import annotations

import json

from .algebra import FiniteEffectAlgebra, TableAlgebra, algebra_from_json, make_simplicial

FIXTURE_NAMES = ("mo2", "c1", "c2", "c3", "c4")


def fixture_path(name: str):
    """Filesystem location of a bundled fixture (handy for CLI --file tests)."""
    if name not in FIXTURE_NAMES:
        raise ValueError(f"unknown fixture {name!r}; have {FIXTURE_NAMES}")
    # imported on first use: on Python 3.12 importlib.resources imports
    # inspect, which `import effectalg` otherwise never needs
    from importlib import resources

    return resources.files(__package__).joinpath(f"fixtures/{name}.json")


def load_fixture(name: str) -> FiniteEffectAlgebra:
    """Load a bundled algebra; table fixtures are validated on load."""
    text = fixture_path(name).read_text(encoding="utf-8")
    return algebra_from_json(json.loads(text))


def mo2() -> TableAlgebra:
    """The six-element horizontal sum {0, a, a', b, b', 1}: only a (+) a' = 1,
    b (+) b' = 1 and sums with 0 are defined."""
    return load_fixture("mo2")


def chain_table(n: int) -> TableAlgebra:
    """The chain {0, ..., n} as the box [0, n]'s sum table, refused past SUM_TABLE_LIMIT."""
    if n < 1:
        raise ValueError(f"chains need n >= 1, got {n}")
    return make_simplicial((n,)).to_table()
