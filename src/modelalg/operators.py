"""Composition operators with deliberately distinct algebraic profiles.

union      -- concatenate, dropping constraints already present on the left
strict     -- union, plus a completeness constraint for every shared class
override   -- right side wins on conflicting attribute types
intersect  -- keep only constraints present in both models
paranoid   -- union, plus the *left* model's completeness for shared classes
              (deliberately breaks consistency preservation)
"""

from __future__ import annotations

from typing import Callable

from .syntax import AttrComplete, AttrTyped, Model, mentioned_classes


def union_merge(m1: Model, m2: Model) -> Model:
    present = set(m1.constraints)
    return Model(m1.constraints + tuple(c for c in m2.constraints if c not in present))


def _declared_pairs(models, cls: str) -> dict[str, str] | None:
    """Attribute->type pairs declared for cls across the models, in first
    occurrence order; None when two different types are declared for one
    attribute."""
    pairs: dict[str, str] = {}
    for m in models:
        for c in m.constraints:
            if isinstance(c, AttrTyped) and c.cls == cls:
                items = ((c.attr, c.type),)
            elif isinstance(c, AttrComplete) and c.cls == cls:
                items = c.attrs
            else:
                continue
            for a, t in items:
                if pairs.setdefault(a, t) != t:
                    return None
    return pairs


def _complete_shared(m1: Model, m2: Model, sources) -> Model:
    """The union, plus a completeness constraint for every class both models
    mention, listing the attribute types that the source models declare."""
    out = list(union_merge(m1, m2).constraints)
    second = set(mentioned_classes(m2))
    for cls in mentioned_classes(m1):
        pairs = _declared_pairs(sources, cls) if cls in second else None
        if pairs is None:
            continue  # not shared, or conflicting types: the union is already unsatisfiable
        cand = AttrComplete(cls, tuple(pairs.items()))
        if cand not in out:
            out.append(cand)
    return Model(tuple(out))


def strict_merge(m1: Model, m2: Model) -> Model:
    return _complete_shared(m1, m2, (m1, m2))


def override_merge(m1: Model, m2: Model) -> Model:
    winners = {
        (c.cls, c.attr): c.type for c in m2.constraints if isinstance(c, AttrTyped)
    }
    residue = tuple(
        c
        for c in m1.constraints
        if not (isinstance(c, AttrTyped) and winners.get((c.cls, c.attr), c.type) != c.type)
    )
    return union_merge(Model(residue), m2)


def intersect_merge(m1: Model, m2: Model) -> Model:
    second = set(m2.constraints)
    out = []
    for c in m1.constraints:
        if c in second and c not in out:
            out.append(c)
    return Model(tuple(out))


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
