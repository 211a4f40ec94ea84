import copy
import dataclasses
import itertools
import pickle
import time
import weakref
from collections import namedtuple
from math import log10

import numpy as np
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
    System,
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
    render,
    semantically_eq,
    universe_from_spec,
)
from modelalg import OPERATORS, cli, default_corpus
from modelalg.algebra import _flat_verdicts
from modelalg.semantics import EXACT_DIGITS, _count_text, count_text

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


@pytest.mark.parametrize("padding, kind", [((0, 9, 10**9), "class"), ((9, 0, 10**9), "attribute"), ((1, 1, 0), "type")])
def test_build_universe_reports_the_first_empty_pool_from_the_sizes(padding, kind):
    pools = [[f"_P{i}" for i in range(1, min(n, 9) + 1)] for n in padding]
    with pytest.raises(UniverseError, match=f"^empty {kind} pool$"):
        Universe(*pools)
    with pytest.raises(UniverseError, match=f"^empty {kind} pool$"):
        build_universe([], *padding)  # builds none of the 10**9 names


def test_worked_universe_count():
    assert WORKED.system_count == 9


def test_count_formula():
    u = Universe(("A", "B", "C"), ("x", "y"), ("S",))
    assert u.system_count == (1 + (1 + 1) ** 2) ** 3


def test_cap_exceeded():
    with pytest.raises(UniverseCapError) as exc:
        Universe(tuple(f"C{i}" for i in range(10)), ("a", "b", "c"), ("S", "T"), cap=1 << 20)
    assert "296196766695424" in str(exc.value)  # (1 + 3**3) ** 10
    assert str(exc.value.cap) in str(exc.value)


def test_cap_compares_exactly_at_the_boundary():
    u = Universe(("A", "B"), ("x",), ("S",), cap=None)
    assert u.system_count == 9
    assert Universe(("A", "B"), ("x",), ("S",), cap=9).system_count == 9
    with pytest.raises(UniverseCapError) as exc:
        Universe(("A", "B"), ("x",), ("S",), cap=8)
    assert str(exc.value) == "universe has 9 systems, exceeding the cap of 8"


def test_listing_a_cap_free_universe_past_the_default_cap_is_refused():
    u = build_universe(default_corpus().models, 2, 2, 2, cap=None)
    assert u.system_count == 153_566_799_376
    full = denotation(Model(()), u)
    for listing in (full.systems, full.system_texts, full.indices):
        with pytest.raises(UniverseCapError) as exc:
            next(iter(listing()))
        assert str(exc.value) == "universe has 153566799376 systems, exceeding the cap of 1048576"
        assert exc.value.universe is u


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
        assert _count_text(*u.sizes) == str(count)
    else:
        n = _count_text(*u.sizes).removeprefix("about 10^")
        assert 10 ** int(n) <= count < 10 ** (int(n) + 1)


@pytest.mark.parametrize("attrs, classes", [
    *itertools.product((3000, 5000, 7777, 20000), (1, 2, 3, 7)),
    # few states per class, many classes: the 1 + of each class's count matters
    *itertools.product((1, 2, 3), (10**4, 10**5, 10**7)),
    # (types + 1) ** attrs a power of ten, near EXACT_DIGITS digits
    *itertools.product((512, 1024, 4300, 4301), (1, 3, 10**4)),
])
def test_count_text_exponent_from_the_pool_sizes_alone(attrs, classes):
    # the "about 10^N" form takes N from attrs * log10(types + 1) when
    # (types + 1) ** attrs is past EXACT_DIGITS digits, instead of building
    # it; on this grid it gives the N of the exact form
    for types in range(1, 39):
        text = _count_text(classes, attrs, types)
        if text.startswith("about"):
            assert text == f"about 10^{int(classes * log10(1 + (types + 1) ** attrs))}"


def test_count_text_writes_counts_past_the_digit_limit_as_a_power_of_ten():
    assert count_text(0) == "0"
    assert count_text(10**EXACT_DIGITS - 1) == "9" * EXACT_DIGITS
    assert count_text(10**EXACT_DIGITS) == f"about 10^{EXACT_DIGITS}"
    assert count_text(3 * 10**20000 + 7) == "about 10^20000"
    u = Universe(*_pools(1000, 20, 3), cap=None)
    assert u.describe() == f"1000 classes x 20 attrs x 3 types ({count_text(u.system_count)} systems)"
    assert count_text(u.system_count) == _count_text(*u.sizes) == "about 10^12041"


def test_astronomical_cap_refusal_builds_no_huge_count():
    start = time.perf_counter()
    with pytest.raises(UniverseCapError) as exc:
        Universe(*_pools(3000, 3000, 3000))
    assert time.perf_counter() - start < 2
    assert str(exc.value) == "universe has about 10^31295393 systems, exceeding the cap of 1048576"
    assert "system_count" not in vars(exc.value.universe)


def test_universe_pickle_and_replace_round_trip():
    u = Universe(("Person", "X"), ("name", "age"), ("String",), cap=None)
    derived = (u.attr_state_radix, u.class_state_count, u.system_count)
    assert derived == (2, 5, 25)
    mine = denotation(PERSON, u)
    for other in (pickle.loads(pickle.dumps(u)), copy.deepcopy(u), dataclasses.replace(u)):
        assert other == u and hash(other) == hash(u) and repr(other) == repr(u)
        assert (other.attr_state_radix, other.class_state_count, other.system_count) == derived
        theirs = denotation(PERSON, other)
        assert theirs == mine and theirs is not mine and theirs.universe is other
    assert repr(u) == "Universe(class_pool=('Person', 'X'), attr_pool=('name', 'age'), type_pool=('String',), cap=None)"
    wider = dataclasses.replace(u, type_pool=("String", "Int"), cap=1 << 20)
    assert wider != u
    assert (wider.attr_state_radix, wider.class_state_count, wider.system_count) == (3, 10, 100)
    with pytest.raises(UniverseCapError):
        dataclasses.replace(u, cap=24)


def test_copied_denotations_are_canonical_in_the_copied_universe():
    # a universe pickles and copies as its pools and cap, so copied denotations are rebuilt in the copy
    models = default_corpus().models
    u = build_universe(models)
    mine = [denotation(m, u) for m in models] + [u.empty]
    classify("strict", default_corpus(), u)
    assert pickle.dumps(u) == pickle.dumps(Universe(u.class_pool, u.attr_pool, u.type_pool, u.cap))
    assert all(a is b for a, b in zip(copy.copy(mine), mine))
    for other, theirs in (pickle.loads(pickle.dumps((u, mine))), copy.deepcopy((u, mine))):
        assert other == u and other is not u and all(d.universe is other for d in theirs)
        # meets first, before any denotation() call of the copy interns its class values
        assert [(a & b, a.issubset(b)) for a in theirs for b in theirs] == [
            (a & b, a.issubset(b)) for a in mine for b in mine]
        assert theirs == mine and theirs[-1] is other.empty
        assert all(d is denotation(m, other) for d, m in zip(theirs, models))


def test_the_universe_holds_its_denotations_weakly():
    u = build_universe([PERSON])
    d = denotation(PERSON, u)
    dead, keys = weakref.ref(d), len(u._den_cache)
    del d
    assert dead() is None
    again = denotation(PERSON, u)
    assert again is denotation(PERSON, u) and len(u._den_cache) == keys
    gone = weakref.ref(u)
    del u, again
    assert gone() is None


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


def test_equal_denotations_hash_alike_however_built():
    # a Denotation built outside _canonical, here by replace, hashes by what it denotes
    u = build_universe([PERSON])
    e, f = dataclasses.replace(denotation(PERSON, u), values={}), denotation(Model(()), u)
    assert e == f and hash(e) == hash(f) and len({e, f}) == 1


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
# every pool attribute of TINY_UNIVERSE fixed by typed constraints: the exact map's set
PERSON_TYPED = Model((ClassExists("Person"), PERSON_NAME, AttrTyped("Person", "age", "Int")))


@settings(max_examples=150)
@given(models, models, st.randoms(use_true_random=False))
@example(Model((PERSON_NO_ATTRS,)), Model((ClassExists("Person"), PERSON_NO_ATTRS)), None)
@example(Model((PERSON_NO_ATTRS, PERSON_NAME)), Model((AttrComplete("Account", ()), AttrTyped("Account", "age", "Int"))), None)
@example(Model((AttrComplete("Person", (("name", "String"), ("age", "Int"))),)), PERSON_TYPED, None)
@example(Model((AttrComplete("Person", (("name", "String"),)),)), PERSON_TYPED, None)
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
        assert d1 is u.empty and d1.size == 0 and not list(d1.systems())


@settings(max_examples=150)
@given(models, models)
def test_meet_is_the_canonical_structural_meet(m1, m2):
    u = TINY_UNIVERSE
    d1, d2 = denotation(m1, u), denotation(m2, u)
    meet = d1 & d2
    assert set(meet.indices()) == set(d1.indices()) & set(d2.indices())
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


# --- class values ----------------------------------------------------------


small_corpora = st.lists(models, min_size=1, max_size=4).map(lambda ms: Corpus(tuple(ms), "test"))


@settings(max_examples=25, deadline=None)
@given(small_corpora, st.integers(2, 6))
def test_verdicts_do_not_depend_on_the_padding(corpus, k):
    # with one pool attribute named by no model, only an exact map fixes every
    # attribute, and it fixes that one absent, so no relation between class
    # values depends on the pool sizes
    for op in OPERATORS:
        small = classify(op, corpus, build_universe(corpus.models, 1, 1, 1), seed=3)
        padded = classify(op, corpus, build_universe(corpus.models, k, k, k, cap=None), seed=3)
        assert _flat_verdicts(small) == _flat_verdicts(padded)


def _oracle_text(oracle, j) -> str:
    """System j of the oracle's universe written as `sm --list` writes it,
    from the oracle's own per-class and per-attribute digits."""
    u, parts = oracle.u, []
    for cls, state in zip(u.class_pool, oracle.digits[j]):
        pairs = [f"{a}: {u.type_pool[d - 1]}" for a, d in zip(u.attr_pool, oracle.attr_digit[state]) if d]
        parts.append(f"{cls} absent" if state == 0 else f"{cls}{{{', '.join(pairs)}}}")
    return "; ".join(parts)


def test_sm_list_prints_the_oracle_enumeration(tmp_path, capsys):
    listed = 0
    for i, m in enumerate(default_corpus().models):
        u = build_universe([m])
        oracle = EnumOracle(u)
        members = np.flatnonzero(oracle.den(m))
        want = [_oracle_text(oracle, j) for j in members]
        assert want == [str(System(u, tuple(map(int, oracle.digits[j])))) for j in members]
        path = tmp_path / f"m{i}.mcd"
        path.write_text(render(m), encoding="utf-8")
        assert cli.main(["sm", "--list", str(path)]) == 0
        head, *lines = capsys.readouterr().out.splitlines()
        assert head.startswith(f"{len(want)} of {u.system_count}, ")
        assert lines == want
        listed += len(lines)
    assert listed > 10**4


def test_one_listing_decodes_each_class_state_once(monkeypatch):
    decoded, decode = [], Universe.decode_class_state
    monkeypatch.setattr(Universe, "decode_class_state", lambda u, state: decoded.append(state) or decode(u, state))
    columns = products = 0
    for m in default_corpus().models:
        d = denotation(m, build_universe([m]))
        decoded.clear()
        texts = [text.split("; ") for text in d.system_texts()]
        # a class's column: the distinct states it takes in the listing
        column_lengths = [len(set(parts)) for parts in zip(*texts)]
        assert len(decoded) == sum(column_lengths)
        columns, products = columns + sum(column_lengths), products + len(texts) * len(d.universe.class_pool)
    assert columns * 10 < products


def test_sm_list_writes_str_of_each_listed_system(tmp_path, capsys):
    models = default_corpus().models
    assert any(not is_consistent(m, build_universe([m])) for m in models)
    for i, m in enumerate(models):
        path = tmp_path / f"m{i}.mcd"
        path.write_text(render(m), encoding="utf-8")
        assert cli.main(["sm", "--list", str(path)]) == 0
        _, *lines = capsys.readouterr().out.splitlines()
        assert lines == [str(s) for s in denotation(m, build_universe([m])).systems()]


def _closed_form_sizes(u: Universe) -> dict:
    """Model -> its system count in u, for models of default-corpus names."""
    classes, attrs, types = u.sizes
    states = 1 + (types + 1) ** attrs
    return {
        Model(()): states**classes,
        Model((ClassExists("Person"),)): (states - 1) * states ** (classes - 1),
        Model((PERSON_NAME,)): (types + 1) ** (attrs - 1) * states ** (classes - 1),
        Model((PERSON_NAME, AttrTyped("Account", "age", "Int"))): (
            (types + 1) ** (2 * attrs - 2) * states ** (classes - 2)),
        Model((AttrComplete("Person", (("name", "String"),)),)): states ** (classes - 1),
        Model((PERSON_NO_ATTRS, PERSON_NAME)): 0,
    }


def test_cap_free_universe_of_a_hundred_fresh_names_each():
    corpus = default_corpus()
    u = build_universe(corpus.models, 100, 100, 100, cap=None)
    small = build_universe(corpus.models)
    closed_forms = _closed_form_sizes(u)
    start = time.perf_counter()
    dens = [denotation(m, u) for m in corpus.models]
    meets = [a & b for a in dens for b in dens]
    subsets = [a.issubset(b) for a in dens for b in dens]
    flags = [(d.is_full, d.is_empty) for d in dens + meets]
    sizes = [denotation(m, u).size for m in closed_forms] + [d.size for d in dens]
    assert time.perf_counter() - start < 1
    assert sizes[: len(closed_forms)] == list(closed_forms.values())  # compared as ints, never as text
    # the same relations as in the 1/1/1-padded universe
    small_dens = [denotation(m, small) for m in corpus.models]
    assert subsets == [a.issubset(b) for a in small_dens for b in small_dens]
    assert flags == [(d.is_full, d.is_empty) for d in small_dens + [a & b for a in small_dens for b in small_dens]]


def test_cap_free_universe_of_a_hundred_thousand_fresh_classes():
    # a denotation holds only the classes its constraints fix, so its work
    # follows the constraints, not the pool
    corpus = default_corpus()
    u = build_universe(corpus.models, 100_000, 1, 1, cap=None)
    small = build_universe(corpus.models)
    start = time.perf_counter()
    dens = [denotation(m, u) for m in corpus.models]
    meets = [a & b for a in dens for b in dens]
    subsets = [a.issubset(b) for a in dens for b in dens]
    flags = [(d.is_full, d.is_empty) for d in dens + meets]
    assert time.perf_counter() - start < 1
    small_dens = [denotation(m, small) for m in corpus.models]
    assert subsets == [a.issubset(b) for a in small_dens for b in small_dens]
    assert flags == [(d.is_full, d.is_empty) for d in small_dens + [a & b for a in small_dens for b in small_dens]]
    # the sizes' powers have about 600,000 bits, so they are left out of the timed work
    closed_forms = _closed_form_sizes(u)
    assert [denotation(m, u).size for m in closed_forms] == list(closed_forms.values())


def test_sizes_in_a_universe_of_three_hundred_fresh_names_each():
    u = build_universe(default_corpus().models, 300, 300, 300, cap=None)
    closed_forms = _closed_form_sizes(u)
    start = time.perf_counter()
    sizes = [denotation(m, u).size for m in closed_forms]
    # a product of one factor per pool class takes seconds here
    assert time.perf_counter() - start < 1
    assert sizes == list(closed_forms.values())


def test_denotations_of_equal_universes_hash_alike():
    u1, u2 = Universe(CLASSES, ATTRS, TYPES), Universe(CLASSES, ATTRS, TYPES)
    for m in (Model(()), PERSON, Model((PERSON_NO_ATTRS,)), Model((PERSON_NO_ATTRS, PERSON_NAME))):
        d1, d2 = denotation(m, u1), denotation(m, u2)
        assert d1 == d2 and hash(d1) == hash(d2) and len({d1, d2}) == 1
