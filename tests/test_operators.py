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
