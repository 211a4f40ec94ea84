import copy
import dataclasses
import pickle
import time
from collections import namedtuple

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from modelalg import (
    AttrComplete,
    AttrTyped,
    ClassExists,
    Corpus,
    Denotation,
    Model,
    Universe,
    UniverseCapError,
    UniverseError,
    build_universe,
    classify,
    denotation,
    is_consistent,
    is_uninformative,
    normalize,
    parse_strict,
    refines,
    semantically_eq,
    universe_from_spec,
)
from modelalg.semantics import EXACT_DIGITS

from .oracle import EnumOracle, enumerate_systems, naive_denotation, satisfies, to_bitset
from .strategies import ATTRS, CLASSES, PADDED_UNIVERSE, TINY_UNIVERSE, TYPES, constraints, models

PERSON = parse_strict("class Person { name: String }")
WORKED = Universe(("Person", "X"), ("name",), ("String",))


# --- universe construction --------------------------------------------------


def test_build_universe_person_defaults():
    u = build_universe([PERSON])
    assert u.class_pool == ("Person", "_C1")
    assert u.attr_pool == ("name", "_a1")
    assert u.type_pool == ("String", "_T1")


def test_build_universe_no_models():
    u = build_universe([])
    assert (u.class_pool, u.attr_pool, u.type_pool) == (("_C1",), ("_a1",), ("_T1",))
    assert u.system_count == 3


def test_worked_universe_count():
    assert WORKED.system_count == 9


def test_count_formula():
    u = Universe(("A", "B", "C"), ("x", "y"), ("S",))
    assert u.system_count == (1 + (1 + 1) ** 2) ** 3


def test_cap_exceeded():
    with pytest.raises(UniverseCapError) as exc:
        Universe(tuple(f"C{i}" for i in range(10)), ("a", "b", "c"), ("S", "T"), cap=1 << 20)
    assert str(exc.value.system_count) in str(exc.value)
    assert str(exc.value.cap) in str(exc.value)


def test_cap_compares_exactly_at_the_boundary():
    u = Universe(("A", "B"), ("x",), ("S",), cap=None)
    assert u.system_count == 9
    assert u.count_at_most(9) == 9 and u.count_at_most(8) is None
    assert Universe(("A", "B"), ("x",), ("S",), cap=9).system_count == 9
    with pytest.raises(UniverseCapError) as exc:
        Universe(("A", "B"), ("x",), ("S",), cap=8)
    assert str(exc.value) == "universe has 9 systems, exceeding the cap of 8"


def _pools(classes, attrs, types):
    return (tuple(f"C{i}" for i in range(classes)), tuple(f"a{i}" for i in range(attrs)),
            tuple(f"T{i}" for i in range(types)))


@pytest.mark.parametrize("classes, attrs", [(1, 14280), (1, 14290), (2, 7140), (2, 7145), (3, 40)])
def test_count_text_exact_up_to_its_digit_limit(classes, attrs):
    # one type: 1 + 2**attrs states per class, about 0.301 * attrs * classes digits
    u = Universe(*_pools(classes, attrs, 1), cap=None)
    count = u.system_count
    assert count == (1 + 2**attrs) ** classes
    if count < 10**EXACT_DIGITS:
        assert u.count_text() == str(count)
    else:
        n = u.count_text().removeprefix("about 10^")
        assert 10 ** int(n) <= count < 10 ** (int(n) + 1)


def test_astronomical_cap_refusal_builds_no_huge_count():
    start = time.perf_counter()
    with pytest.raises(UniverseCapError) as exc:
        Universe(*_pools(3000, 3000, 3000))
    assert time.perf_counter() - start < 2
    assert str(exc.value) == "universe has about 10^31295393 systems, exceeding the cap of 1048576"
    assert "system_count" not in vars(exc.value.universe)


def test_universe_pickle_and_replace_round_trip():
    u = Universe(("Person", "X"), ("name", "age"), ("String",), cap=None)
    derived = (u.attr_state_radix, u.class_state_count, u.system_count, u.full_class_mask)
    assert derived == (2, 5, 25, 0b11111)
    mine = denotation(PERSON, u)
    for other in (pickle.loads(pickle.dumps(u)), copy.deepcopy(u), dataclasses.replace(u)):
        assert other == u and hash(other) == hash(u) and repr(other) == repr(u)
        assert (other.attr_state_radix, other.class_state_count, other.system_count, other.full_class_mask) == derived
        theirs = denotation(PERSON, other)
        assert theirs == mine and theirs is not mine and theirs.universe is other
    assert repr(u) == "Universe(class_pool=('Person', 'X'), attr_pool=('name', 'age'), type_pool=('String',), cap=None)"
    wider = dataclasses.replace(u, type_pool=("String", "Int"), cap=1 << 20)
    assert wider != u
    assert (wider.attr_state_radix, wider.class_state_count, wider.system_count) == (3, 10, 100)
    with pytest.raises(UniverseCapError):
        dataclasses.replace(u, cap=24)


def test_duplicate_pool_name_rejected():
    with pytest.raises(UniverseError):
        Universe(("A", "A"), ("x",), ("S",))


def test_negative_fresh_counts_rejected():
    with pytest.raises(ValueError):
        build_universe([], fresh_classes=-1)


def test_universe_from_spec():
    u = universe_from_spec({"classes": ["Person", "X"], "attrs": ["name"], "types": ["String"]})
    assert u == WORKED


@pytest.mark.parametrize("spec", [
    {"classes": "PQ", "attrs": ["a"], "types": ["B"]},  # a string is not split into names
    {"classes": ["P"], "attrs": {"a": 1}, "types": ["B"]},
    {"classes": ["P"], "attrs": ["a"], "types": None},
    ["P", "a", "B"],
])
def test_universe_spec_pools_must_be_lists(spec):
    with pytest.raises(UniverseError, match="needs 'classes', 'attrs' and 'types' lists"):
        universe_from_spec(spec)


# --- enumeration ------------------------------------------------------------


def test_enumerate_count_and_distinct():
    systems = list(enumerate_systems(WORKED))
    assert len(systems) == 9
    assert len(set(systems)) == 9


def test_first_system_all_absent():
    first = next(iter(enumerate_systems(WORKED)))
    assert all(first.class_attrs(c) is None for c in WORKED.class_pool)


def test_enumeration_reproducible():
    assert list(enumerate_systems(WORKED)) == list(enumerate_systems(WORKED))


def test_system_indices_match_enumeration_order():
    for i, s in enumerate(enumerate_systems(WORKED)):
        assert s.index == i


# --- satisfies --------------------------------------------------------------


def _system(u, **attrs_by_class):
    states = []
    for cls in u.class_pool:
        spec = attrs_by_class.get(cls)
        if spec is None:
            states.append(0)
        else:
            radix = u.attr_state_radix
            v = 0
            for a in u.attr_pool:
                d = 0 if a not in spec else u.type_pool.index(spec[a]) + 1
                v = v * radix + d
            states.append(v + 1)
    from modelalg import System

    return System(u, tuple(states))


def test_satisfies_attr_typed():
    s = _system(WORKED, Person={"name": "String"})
    assert satisfies(s, AttrTyped("Person", "name", "String"))


def test_satisfies_class_exists_absent():
    s = _system(WORKED, Person={"name": "String"})
    assert not satisfies(s, ClassExists("X"))


def test_satisfies_complete_rejects_extra_attr():
    u = TINY_UNIVERSE
    s = _system(u, Person={"name": "String", "age": "Int"})
    assert not satisfies(s, AttrComplete("Person", (("name", "String"),)))
    assert satisfies(s, AttrComplete("Person", (("name", "String"), ("age", "Int"))))


def test_satisfies_out_of_universe_errors():
    s = _system(WORKED, Person={"name": "String"})
    with pytest.raises(UniverseError):
        satisfies(s, ClassExists("Ghost"))


# --- denotation -------------------------------------------------------------


def test_person_denotes_three_of_nine():
    assert denotation(PERSON, WORKED).size == 3


def test_empty_model_denotes_everything():
    d = denotation(Model(()), WORKED)
    assert d.size == 9 and d.is_full


def test_contradiction_denotes_nothing():
    u = TINY_UNIVERSE
    m = Model((AttrTyped("Person", "name", "String"), AttrTyped("Person", "name", "Int")))
    assert denotation(m, u).is_empty


def test_denotation_out_of_universe():
    with pytest.raises(UniverseError):
        denotation(Model((ClassExists("Ghost"),)), WORKED)


@pytest.mark.parametrize("constraint, message", [
    (ClassExists("Ghost"), "class 'Ghost' not in universe"),
    (AttrTyped("Person", "age", "String"), "attribute 'age' not in universe"),
    (AttrTyped("Person", "name", "Int"), "type 'Int' not in universe"),
    (AttrComplete("Person", (("name", "Int"),)), "type 'Int' not in universe"),
], ids=("class", "attribute", "type", "complete"))
def test_denotation_names_checked_on_every_call(constraint, message):
    u = Universe(("Person", "X"), ("name",), ("String",))  # fresh, so nothing is cached
    m = Model((ClassExists("Person"), constraint))
    for _ in range(2):
        with pytest.raises(UniverseError, match=message):
            denotation(m, u)
    assert denotation(PERSON, u).size == 3  # a valid model is still denoted


def test_denotation_names_checked_after_a_cached_valid_constraint():
    u = Universe(("Person", "X"), ("name",), ("String",))
    assert denotation(PERSON, u).size == 3  # caches both of PERSON's constraints
    m = Model(PERSON.constraints + (AttrTyped("Person", "age", "String"),))
    for _ in range(2):
        with pytest.raises(UniverseError, match="^attribute 'age' not in universe$"):
            denotation(m, u)


@pytest.mark.parametrize("order", ((0, 1, 2), (1, 0, 2), (2, 1, 0)))
def test_denotation_error_names_first_invalid_constraint_in_model_order(order):
    u = Universe(("Person", "X"), ("name",), ("String",))
    denotation(PERSON, u)
    invalid = {
        0: (AttrTyped("Person", "age", "String"), "attribute 'age' not in universe"),
        1: (ClassExists("Ghost"), "class 'Ghost' not in universe"),
        2: (AttrComplete("X", (("name", "Int"),)), "type 'Int' not in universe"),
    }
    m = Model(PERSON.constraints + tuple(invalid[k][0] for k in order))
    with pytest.raises(UniverseError, match=f"^{invalid[order[0]][1]}$"):
        denotation(m, u)


def test_classify_over_universe_missing_a_corpus_name():
    corpus = Corpus((PERSON, parse_strict("class Person { age: Int }")), "test")
    with pytest.raises(UniverseError, match="attribute 'age' not in universe"):
        classify("union", corpus, WORKED)


def test_denotation_matches_naive_oracle_worked():
    for m in (PERSON, Model(()), parse_strict("class X { }")):
        assert set(denotation(m, WORKED).indices()) == naive_denotation(m, WORKED)


def test_bitset_view():
    d = denotation(PERSON, WORKED)
    bits = to_bitset(d)
    assert bits.bit_count() == d.size
    idx = list(d.indices())
    assert idx == sorted(idx)
    assert all(bits >> i & 1 for i in idx)


# --- predicates -------------------------------------------------------------


def test_is_consistent():
    assert is_consistent(PERSON, WORKED)
    assert is_consistent(Model(()), WORKED)
    u = TINY_UNIVERSE
    m = Model((AttrTyped("Person", "name", "String"), AttrTyped("Person", "name", "Int")))
    assert not is_consistent(m, u)


def test_is_uninformative():
    assert is_uninformative(Model(()), WORKED)
    assert not is_uninformative(PERSON, WORKED)
    doubled = Model(PERSON.constraints + PERSON.constraints[:1])
    assert is_uninformative(doubled, WORKED) == is_uninformative(PERSON, WORKED)


def test_refines():
    u = TINY_UNIVERSE
    both = parse_strict("class Person { name: String, age: Int }")
    name_only = parse_strict("class Person { name: String }")
    name_int = parse_strict("class Person { name: Int }")
    assert refines(both, name_only, u)
    assert refines(both, Model(()), u)
    assert not refines(name_only, name_int, u)


def test_denotations_of_different_universes_do_not_mix():
    other = Universe(("Person",), ("name",), ("String",))
    mine, theirs = denotation(PERSON, WORKED), denotation(PERSON, other)
    with pytest.raises(UniverseError):
        mine.issubset(theirs)
    with pytest.raises(UniverseError):
        mine & theirs


# --- canonical denotations -------------------------------------------------

PERSON_NO_ATTRS = AttrComplete("Person", ())
PERSON_NAME = AttrTyped("Person", "name", "String")


@settings(max_examples=150)
@given(models, models, st.randoms(use_true_random=False))
@example(Model((PERSON_NO_ATTRS,)), Model((ClassExists("Person"), PERSON_NO_ATTRS)), None)
@example(Model((PERSON_NO_ATTRS, PERSON_NAME)), Model((AttrComplete("Account", ()), AttrTyped("Account", "age", "Int"))), None)
def test_one_denotation_object_per_set(m1, m2, rnd):
    u = TINY_UNIVERSE
    d1, d2 = denotation(m1, u), denotation(m2, u)
    assert (d1 is d2) == (d1 == d2) == (naive_denotation(m1, u) == naive_denotation(m2, u))
    if rnd is not None:
        # the same constraints in another order, some of them twice
        variant = list(m1.constraints) + rnd.sample(m1.constraints, rnd.randint(0, len(m1.constraints)))
        rnd.shuffle(variant)
        assert denotation(Model(tuple(variant)), u) is d1
    if d1.is_empty:
        assert d1 is denotation(Model((PERSON_NO_ATTRS, PERSON_NAME)), u)
        assert d1.class_masks == (0,) * len(u.class_pool)


@settings(max_examples=150)
@given(models, models)
def test_meet_is_the_canonical_structural_meet(m1, m2):
    u = TINY_UNIVERSE
    d1, d2 = denotation(m1, u), denotation(m2, u)
    meet = d1 & d2
    assert meet == Denotation(u, tuple(a & b for a, b in zip(d1.class_masks, d2.class_masks)))
    assert set(meet.indices()) == naive_denotation(m1, u) & naive_denotation(m2, u)
    assert meet is denotation(Model(m1.constraints + m2.constraints), u)
    assert (d2 & d1) is meet and (meet & d1) is meet


def test_every_empty_denotation_is_one_object():
    u = Universe(CLASSES, ATTRS, TYPES)
    person_only = denotation(Model((PERSON_NO_ATTRS,)), u)
    named = denotation(Model((PERSON_NAME,)), u)
    account_clash = Model((AttrTyped("Account", "age", "Int"), AttrComplete("Account", (("age", "String"),))))
    empties = [
        person_only & named,
        named & person_only,
        denotation(Model((PERSON_NAME, PERSON_NO_ATTRS)), u),
        denotation(account_clash, u),
        denotation(Model((PERSON_NO_ATTRS, PERSON_NAME) + account_clash.constraints), u),
        denotation(account_clash, u) & denotation(Model(()), u),
    ]
    assert all(d is empties[0] for d in empties)
    assert empties[0].is_empty and empties[0].size == 0
    assert not person_only.is_empty and not named.is_empty


@settings(max_examples=50)
@given(models, models)
def test_equal_universes_never_share_denotations(m1, m2):
    u1 = Universe(CLASSES, ATTRS, TYPES)
    u2 = Universe(CLASSES, ATTRS, TYPES)
    assert u1 == u2 and u1 is not u2
    for m in (m1, m2):
        d1, d2 = denotation(m, u1), denotation(m, u2)
        assert d1 == d2 and d1 is not d2
        assert d1.universe is u1 and d2.universe is u2
        assert (d1 & d2) is d1 and (d2 & d1) is d2
    meet1 = denotation(m1, u1) & denotation(m2, u1)
    meet2 = denotation(m1, u2) & denotation(m2, u2)
    assert meet1 == meet2 and meet1 is not meet2 and meet2.universe is u2


def test_enum_oracle_rejects_an_unknown_constraint_kind():
    unknown = namedtuple("Unknown", "cls")("Person")
    with pytest.raises(TypeError, match="unknown constraint kind: Unknown"):
        EnumOracle(TINY_UNIVERSE).den(Model((unknown,)))


def test_semantically_eq_order_insensitive():
    u = TINY_UNIVERSE
    a = Model((ClassExists("Person"), ClassExists("Account")))
    b = Model((ClassExists("Account"), ClassExists("Person")))
    assert semantically_eq(a, b, u)
    assert semantically_eq(a, a, u)
    assert not semantically_eq(PERSON, Model(()), u)


# --- property suites --------------------------------------------------------


@settings(max_examples=60)
@given(models)
def test_denotation_matches_naive_oracle(m):
    assert set(denotation(m, TINY_UNIVERSE).indices()) == naive_denotation(m, TINY_UNIVERSE)


@settings(max_examples=60, deadline=None)
@given(models)
def test_denotation_matches_enum_oracle_padded(m):
    oracle = _padded_oracle()
    got = denotation(m, PADDED_UNIVERSE)
    want = oracle.den(m)
    assert got.size == oracle.count(want)
    if got.size and PADDED_UNIVERSE.system_count <= 1 << 20:
        import numpy as np

        idx = np.flatnonzero(want)
        assert list(got.indices()) == idx.tolist()


_ORACLE_CACHE = {}


def _padded_oracle():
    if "o" not in _ORACLE_CACHE:
        _ORACLE_CACHE["o"] = EnumOracle(PADDED_UNIVERSE)
    return _ORACLE_CACHE["o"]


@settings(max_examples=100)
@given(models, constraints)
def test_monotone_refinement(m, c):
    extended = Model(m.constraints + (c,))
    assert denotation(extended, TINY_UNIVERSE).issubset(denotation(m, TINY_UNIVERSE))


@settings(max_examples=100)
@given(models)
def test_permutation_invariance(m):
    permuted = Model(tuple(reversed(m.constraints)))
    assert semantically_eq(m, permuted, TINY_UNIVERSE)


@settings(max_examples=100)
@given(models)
def test_duplicate_invariance(m):
    if not m.constraints:
        return
    doubled = Model(m.constraints + (m.constraints[0],))
    assert semantically_eq(m, doubled, TINY_UNIVERSE)


@settings(max_examples=100)
@given(models)
def test_normalize_preserves_semantics(m):
    assert semantically_eq(m, normalize(m), TINY_UNIVERSE)


def test_cardinality_law():
    assert denotation(Model(()), TINY_UNIVERSE).size == TINY_UNIVERSE.system_count
