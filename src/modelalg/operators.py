"""Composition operators with deliberately distinct algebraic profiles.

union      -- concatenate, dropping constraints already present on the left
strict     -- union, plus a completeness constraint for every shared class
override   -- right side wins on conflicting attribute types
intersect  -- keep only constraints present in both models
paranoid   -- union, plus the *left* model's completeness for shared classes
              (deliberately breaks consistency preservation)
"""

from __future__ import annotations

from itertools import filterfalse
from typing import Callable

from .syntax import AttrComplete, AttrTyped, Model, _interned


def _union(first: tuple, present, m2: Model) -> tuple:
    """first, then the constraints of m2 that are not in present (first's set)."""
    return first + tuple(filterfalse(present.__contains__, m2.constraints))


def union_merge(m1: Model, m2: Model) -> Model:
    return Model._trusted(_union(m1.constraints, m1.constraint_set, m2))


def _declared_pairs(models, cls: str) -> dict[str, str] | None:
    """Attribute->type pairs declared for cls across the models, in first
    occurrence order; None when two different types are declared for one
    attribute."""
    pairs: dict[str, str] = {}
    for m in models:
        for a, t in m.declared.get(cls, ()):
            if pairs.setdefault(a, t) != t:
                return None
    return pairs


def _complete_shared(m1: Model, m2: Model, sources) -> Model:
    """The union, plus a completeness constraint for every class both models
    mention, listing the attribute types that the source models declare."""
    present, second = m1.constraint_set, m2.constraint_set
    cands = []
    for cls in m1.declared:
        pairs = _declared_pairs(sources, cls) if cls in m2.declared else None
        if pairs is None:
            continue  # not shared, or conflicting types: the union is already unsatisfiable
        # validated already: the pairs come from the sources' constraints
        cand = _interned(AttrComplete, (cls, tuple(pairs.items())))
        if cand not in present and cand not in second:  # cands differ by class
            cands.append(cand)
    return Model._trusted(_union(m1.constraints, present, m2) + tuple(cands))


def strict_merge(m1: Model, m2: Model) -> Model:
    return _complete_shared(m1, m2, (m1, m2))


def override_merge(m1: Model, m2: Model) -> Model:
    winners = {
        (c.cls, c.attr): c.type for c in m2.constraints if isinstance(c, AttrTyped)
    }
    lost = {
        c for c in m1.constraints
        if isinstance(c, AttrTyped) and winners.get((c.cls, c.attr), c.type) != c.type
    }
    residue = tuple(filterfalse(lost.__contains__, m1.constraints)) if lost else m1.constraints
    return Model._trusted(_union(residue, set(residue), m2))


def intersect_merge(m1: Model, m2: Model) -> Model:
    second = m2.constraint_set
    return Model._trusted(tuple({c: None for c in m1.constraints if c in second}))  # a repeated c, once


def paranoid_merge(m1: Model, m2: Model) -> Model:
    return _complete_shared(m1, m2, (m1,))


Operator = Callable[[Model, Model], Model]

OPERATORS: dict[str, Operator] = {
    "union": union_merge,
    "strict": strict_merge,
    "override": override_merge,
    "intersect": intersect_merge,
    "paranoid": paranoid_merge,
}


def get_operator(name: str) -> Operator:
    try:
        return OPERATORS[name]
    except KeyError:
        raise ValueError(f"unknown operator {name!r}; choose from {sorted(OPERATORS)}") from None
