import dataclasses
import pickle

import pytest
from hypothesis import given, settings

from modelalg import (
    AttrComplete,
    AttrTyped,
    ClassExists,
    Model,
    build_universe,
    denotation,
    get_operator,
    intersect_merge,
    override_merge,
    paranoid_merge,
    parse_strict,
    strict_merge,
    syntactic_eq,
    union_merge,
    OPERATORS,
)

from .strategies import TINY_UNIVERSE, models

NAME = parse_strict("class Person { name: String }")
AGE = parse_strict("class Person { age: Int }")
NAME_INT = parse_strict("class Person { name: Int }")
OTHER = parse_strict("class Account { name: String }")


def _auto(*ms):
    return build_universe(ms)


# --- union ------------------------------------------------------------------


def test_union_person_name_age():
    merged = union_merge(NAME, AGE)
    assert merged.constraints == (
        ClassExists("Person"),
        AttrTyped("Person", "name", "String"),
        AttrTyped("Person", "age", "Int"),
    )
    u = _auto(NAME, AGE)
    assert denotation(merged, u) == denotation(NAME, u) & denotation(AGE, u)


def test_union_with_empty_is_identity_both_sides():
    assert union_merge(NAME, Model(())) == NAME
    assert union_merge(Model(()), NAME) == NAME


def test_union_not_syntactically_commutative():
    assert not syntactic_eq(union_merge(NAME, OTHER), union_merge(OTHER, NAME))
    u = _auto(NAME, OTHER)
    assert denotation(union_merge(NAME, OTHER), u) == denotation(union_merge(OTHER, NAME), u)


def test_union_keeps_right_duplicates_not_in_left():
    doubled = Model(NAME.constraints + NAME.constraints[1:])
    assert union_merge(Model(()), doubled) == doubled


# --- strict -----------------------------------------------------------------


def test_strict_appends_completeness():
    merged = strict_merge(NAME, AGE)
    assert merged.constraints[-1] == AttrComplete(
        "Person", (("name", "String"), ("age", "Int"))
    )
    u = _auto(NAME, AGE)
    ds = denotation(merged, u)
    di = denotation(NAME, u) & denotation(AGE, u)
    assert ds.issubset(di) and ds != di  # adds information beyond the intersection


def test_strict_disjoint_classes_is_union():
    assert strict_merge(NAME, OTHER) == union_merge(NAME, OTHER)


def test_strict_conflict_denotes_nothing():
    merged = strict_merge(NAME, NAME_INT)
    u = _auto(NAME, NAME_INT)
    assert denotation(merged, u).is_empty


# --- override ---------------------------------------------------------------


def test_override_right_wins_on_conflict():
    merged = override_merge(NAME, NAME_INT)
    assert AttrTyped("Person", "name", "String") not in merged.constraints
    assert AttrTyped("Person", "name", "Int") in merged.constraints
    u = _auto(NAME, NAME_INT)
    d = denotation(merged, u)
    assert d.issubset(denotation(NAME_INT, u))
    assert not d.issubset(denotation(NAME, u))


def test_override_without_conflict_is_union():
    assert override_merge(NAME, AGE) == union_merge(NAME, AGE)


def test_override_empty_left_is_right():
    assert override_merge(Model(()), NAME) == NAME


# --- intersect --------------------------------------------------------------


def test_intersect_keeps_common_constraints():
    merged = intersect_merge(NAME, AGE)
    assert merged.constraints == (ClassExists("Person"),)
    u = _auto(NAME, AGE)
    d = denotation(merged, u)
    for m in (NAME, AGE):
        dm = denotation(m, u)
        assert dm.issubset(d) and dm != d


def test_intersect_self_is_dedup():
    doubled = Model(NAME.constraints + NAME.constraints[:1])
    merged = intersect_merge(doubled, doubled)
    assert merged == NAME
    u = _auto(NAME)
    assert denotation(merged, u) == denotation(doubled, u)


def test_intersect_disjoint_is_empty_model():
    assert intersect_merge(NAME, parse_strict("class Account { age: Int }")) == Model(())


# --- paranoid ---------------------------------------------------------------


def test_paranoid_breaks_consistency():
    merged = paranoid_merge(NAME, AGE)
    assert AttrComplete("Person", (("name", "String"),)) in merged.constraints
    u = _auto(NAME, AGE)
    assert denotation(merged, u).is_empty
    assert not (denotation(NAME, u) & denotation(AGE, u)).is_empty


def test_paranoid_disjoint_classes_is_union():
    assert paranoid_merge(NAME, OTHER) == union_merge(NAME, OTHER)


def test_paranoid_self_merge_consistent():
    merged = paranoid_merge(NAME, NAME)
    u = _auto(NAME)
    assert not denotation(merged, u).is_empty


# --- registry ---------------------------------------------------------------


def test_registry_complete():
    assert set(OPERATORS) == {"union", "strict", "override", "intersect", "paranoid"}
    assert get_operator("union") is union_merge


def test_unknown_operator():
    import pytest

    with pytest.raises(ValueError):
        get_operator("mystery")


# --- cross-operator invariants ---------------------------------------------


@settings(max_examples=60)
@given(models, models)
def test_operators_total_and_deterministic(m1, m2):
    for op in OPERATORS.values():
        out = op(m1, m2)
        assert op(m1, m2) == out


@settings(max_examples=60)
@given(models, models)
def test_union_is_set_union(m1, m2):
    merged = union_merge(m1, m2)
    assert set(merged.constraints) == set(m1.constraints) | set(m2.constraints)


@settings(max_examples=60)
@given(models, models)
def test_strict_refines_union(m1, m2):
    u = TINY_UNIVERSE
    assert denotation(strict_merge(m1, m2), u).issubset(denotation(union_merge(m1, m2), u))


@settings(max_examples=60)
@given(models, models)
def test_inputs_refine_intersect(m1, m2):
    u = TINY_UNIVERSE
    d = denotation(intersect_merge(m1, m2), u)
    assert denotation(m1, u).issubset(d)
    assert denotation(m2, u).issubset(d)


# --- the operators against a scanning reference -----------------------------
# The operators read the cached per-model views `declared` and
# `constraint_set`.  The reference below scans the constraint tuples instead,
# as the operators did before the views existed.


def _ref_union(m1, m2):
    present = set(m1.constraints)
    return Model(m1.constraints + tuple(c for c in m2.constraints if c not in present))


def _ref_classes(m):
    out = []
    for c in m.constraints:
        if c.cls not in out:
            out.append(c.cls)
    return out


def _ref_declared_pairs(models, cls):
    pairs = {}
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


def _ref_complete_shared(m1, m2, sources):
    out = list(_ref_union(m1, m2).constraints)
    second = set(_ref_classes(m2))
    for cls in _ref_classes(m1):
        pairs = _ref_declared_pairs(sources, cls) if cls in second else None
        if pairs is None:
            continue
        cand = AttrComplete(cls, tuple(pairs.items()))
        if cand not in out:
            out.append(cand)
    return Model(tuple(out))


def _ref_override(m1, m2):
    winners = {(c.cls, c.attr): c.type for c in m2.constraints if isinstance(c, AttrTyped)}
    residue = tuple(
        c
        for c in m1.constraints
        if not (isinstance(c, AttrTyped) and winners.get((c.cls, c.attr), c.type) != c.type)
    )
    return _ref_union(Model(residue), m2)


def _ref_intersect(m1, m2):
    second = set(m2.constraints)
    out = []
    for c in m1.constraints:
        if c in second and c not in out:
            out.append(c)
    return Model(tuple(out))


REFERENCE_OPERATORS = {
    "union": _ref_union,
    "strict": lambda m1, m2: _ref_complete_shared(m1, m2, (m1, m2)),
    "override": _ref_override,
    "intersect": _ref_intersect,
    "paranoid": lambda m1, m2: _ref_complete_shared(m1, m2, (m1,)),
}


def _revalidated(m):
    """m rebuilt through the validating public constructors."""
    return Model(tuple(type(c)(*c) for c in m.constraints))


@settings(max_examples=200)
@given(models, models, models)
def test_operators_match_scanning_reference(m1, m2, m3):
    for name, op in OPERATORS.items():
        ref = REFERENCE_OPERATORS[name]
        out = op(m1, m2)
        assert out.constraints == ref(m1, m2).constraints, name
        # composed models, whose views are built from operator output, as inputs
        assert op(out, m3).constraints == ref(out, m3).constraints, name
        assert op(m3, out).constraints == ref(m3, out).constraints, name


@settings(max_examples=200)
@given(models, models)
def test_operator_outputs_equal_revalidated_copies(m1, m2):
    for name, op in OPERATORS.items():
        out = op(m1, m2)
        copy = _revalidated(out)
        assert copy == out, name
        assert [type(c) for c in copy.constraints] == [type(c) for c in out.constraints]


@settings(max_examples=200)
@given(models)
def test_views_agree_with_a_scan(m):
    assert m.constraint_set == frozenset(m.constraints)
    assert list(m.declared) == _ref_classes(m)
    for cls, items in m.declared.items():
        scanned = []
        for c in m.constraints:
            if isinstance(c, AttrTyped) and c.cls == cls:
                scanned.append((c.attr, c.type))
            elif isinstance(c, AttrComplete) and c.cls == cls:
                scanned.extend(c.attrs)
        assert items == tuple(scanned)


@settings(max_examples=100)
@given(models)
def test_built_views_leave_equality_hashing_and_pickling_alone(m):
    fresh = Model(m.constraints)
    key, text = hash(fresh), repr(fresh)
    m.declared, m.constraint_set  # build both views on m only
    assert m == fresh and fresh == m
    assert hash(m) == key
    assert repr(m) == text
    for pickled in (m, fresh):
        back = pickle.loads(pickle.dumps(pickled))
        assert back == m and hash(back) == key
        assert back.declared == m.declared and back.constraint_set == m.constraint_set
    with pytest.raises(dataclasses.FrozenInstanceError):
        m.declared = {}
