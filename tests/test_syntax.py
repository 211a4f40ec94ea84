import copy
import gc
import operator
import pickle
import re
import time

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from modelalg import (
    AttrComplete,
    AttrTyped,
    ClassExists,
    CorpusBounds,
    Model,
    ParseError,
    normalize,
    parse,
    parse_strict,
    render,
    strict_merge,
    syntactic_eq,
    syntax,
)

from .strategies import constraints, models


def test_parse_person_example():
    m = parse_strict("class Person { name: String }")
    assert m.constraints == (
        ClassExists("Person"),
        AttrTyped("Person", "name", "String"),
    )


def test_parse_empty_text():
    m = parse_strict("")
    assert m.constraints == ()


def test_parse_complete_decl():
    m = parse_strict("complete class Point { x: Int, y: Int }")
    assert m.constraints == (
        ClassExists("Point"),
        AttrTyped("Point", "x", "Int"),
        AttrTyped("Point", "y", "Int"),
        AttrComplete("Point", (("x", "Int"), ("y", "Int"))),
    )


def test_parse_comments_and_whitespace():
    text = "// header\nclass A { }  // trailing\n\nclass B { x: T }\n"
    m = parse_strict(text)
    assert m.constraints == (ClassExists("A"), ClassExists("B"), AttrTyped("B", "x", "T"))


def test_parse_duplicate_attr_is_error():
    model, diags = parse("class P { n: String, n: Int }")
    assert model is None
    errors = diags  # every diagnostic is an error
    assert errors and "duplicate attribute" in errors[0].message
    assert errors[0].line == 1 and errors[0].col > 1


def test_parse_bad_character():
    model, diags = parse("class P @ { }")
    assert model is None
    assert diags


def test_parse_missing_brace_recovers_to_next_decl():
    model, diags = parse("class P \nclass Q { }")
    assert model is None
    assert diags


def test_parse_strict_raises():
    with pytest.raises(ParseError):
        parse_strict("class {")


def test_diagnostic_format():
    _, diags = parse("class P { n String }")
    assert str(diags[0]).startswith("error: ")
    assert " at 1:" in str(diags[0])


def test_attr_complete_duplicate_names_unconstructible():
    with pytest.raises(ValueError):
        AttrComplete("P", (("n", "String"), ("n", "Int")))


def test_invalid_identifier_unconstructible():
    with pytest.raises(ValueError):
        ClassExists("_C1")
    # the reserved words cannot be names, so that every model can be written as text
    with pytest.raises(ValueError, match="invalid class name: 'class'"):
        ClassExists("class")
    with pytest.raises(ValueError, match="invalid attribute name: 'complete'"):
        AttrTyped("P", "complete", "T")
    with pytest.raises(ValueError, match="invalid type name: 'class'"):
        AttrComplete("P", (("a", "class"),))


@given(constraints, constraints)
def test_constraints_are_equal_and_hash_equal_exactly_when_kind_and_fields_are(a, b):
    same = type(a) is type(b) and tuple(a) == tuple(b)
    assert (a == b) is same and (a != b) is not same
    assert (a is b) is same and (hash(a) == hash(b)) is same


def test_constraints_cannot_be_ordered():
    for pair in ([ClassExists("P"), AttrTyped("P", "a", "T")], [ClassExists("Q"), ClassExists("P")]):
        with pytest.raises(TypeError):
            sorted(pair)
    for compare in (operator.lt, operator.le, operator.gt, operator.ge):
        with pytest.raises(TypeError):
            compare(ClassExists("P"), ClassExists("P"))


@given(constraints)
def test_equal_fields_give_equal_hashes(c):
    twin = type(c)(*c)
    assert twin == c and hash(twin) == hash(c)


@pytest.mark.parametrize("c, field", [
    (ClassExists("P"), "cls"),
    (AttrTyped("P", "a", "T"), "attr"),
    (AttrComplete("P", ()), "attrs"),
])
def test_constraints_are_immutable(c, field):
    with pytest.raises(AttributeError):
        setattr(c, field, "Q")


def test_constraint_repr():
    assert repr(ClassExists("P")) == "ClassExists(cls='P')"
    assert repr(AttrTyped("P", "a", "T")) == "AttrTyped(cls='P', attr='a', type='T')"
    assert repr(AttrComplete("P", [("a", "T")])) == "AttrComplete(cls='P', attrs=(('a', 'T'),))"


def _invalid(valid, field, value):
    """valid with one field set to value, made by going round the constructor."""
    return tuple.__new__(type(valid), [value if name == field else f for name, f in zip(valid._fields, valid)])


# the ways to build a constraint from another, its constructor aside
BUILDS = {
    "_make": lambda c: type(c)._make(list(c)),
    "_replace": lambda c: c._replace(cls=c.cls),
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda c: pickle.loads(pickle.dumps(c)),
    **{f"pickle-{p}": lambda c, p=p: pickle.loads(pickle.dumps(c, p)) for p in (0, 1)},  # these ignore __getnewargs__
}
VALID = (ClassExists("P"), AttrTyped("P", "a", "T"), AttrComplete("P", (("a", "T"),)))


@pytest.mark.parametrize("valid, field, value", [
    (VALID[0], "cls", "1P"),
    (VALID[1], "type", "_T"),
    (VALID[2], "attrs", (("a", "T"), ("a", "U"))),
])
@pytest.mark.parametrize("how", sorted(BUILDS))
def test_every_way_of_building_a_constraint_validates(valid, field, value, how):
    with pytest.raises(ValueError):
        BUILDS[how](_invalid(valid, field, value))


@pytest.mark.parametrize("c", VALID, ids=lambda c: type(c).__name__)
@pytest.mark.parametrize("how", sorted(BUILDS))
def test_every_way_of_rebuilding_a_constraint_returns_the_interned_one(c, how):
    assert BUILDS[how](c) is c is syntax._INTERNED[tuple(c)]


def test_parse_expand_normalize_and_trusted_return_the_interned_constraints():
    model = parse_strict("complete class P { a: T }")
    trusted = strict_merge(Model(VALID[:2]), Model(VALID[1:2])).constraints  # union, plus P's completeness
    expanded = syntax.expand([("P", (("a", "T"),), True)])
    for built in (model.constraints, normalize(Model(VALID)).constraints, expanded, trusted):
        assert len(built) == 3 and all(b is c for b, c in zip(built, VALID))


@given(models.map(render))
def test_parsing_a_text_again_adds_no_constraints(text):
    parse(text)
    count = len(syntax._INTERNED)
    parse(text)
    assert len(syntax._INTERNED) == count


@pytest.mark.parametrize("text", ("class P { a: T }", "class P { a: T, a: U } $"), ids=("model", "diagnostics"))
@pytest.mark.parametrize("enabled", (True, False), ids=("collector-on", "collector-off"))
def test_parse_pauses_the_collector_and_leaves_it_as_it_found_it(monkeypatch, text, enabled):
    paused = []
    declaration = syntax._declaration
    monkeypatch.setattr(syntax, "_declaration", lambda *args: paused.append(not gc.isenabled()) or declaration(*args))
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        model, diags = parse(text)
        assert gc.isenabled() == enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert (model is None) == bool(diags) and paused and all(paused)


def test_syntactic_eq_order_sensitive():
    a = Model((ClassExists("A"), ClassExists("B")))
    b = Model((ClassExists("B"), ClassExists("A")))
    assert not syntactic_eq(a, b)
    assert syntactic_eq(a, a)


def test_render_bare_class():
    assert render(Model((ClassExists("A"),))) == "class A { }\n"


def test_render_person():
    m = parse_strict("class Person { name: String }")
    assert render(m) == "class Person { name: String }\n"


def test_render_inserts_implied_class_exists():
    m = Model((AttrTyped("C", "a", "T"),))
    assert render(m) == "class C { a: T }\n"
    assert normalize(m).constraints == (ClassExists("C"), AttrTyped("C", "a", "T"))


def test_render_empty_model():
    assert render(Model(())) == ""


def test_round_trip_of_parsed_text_is_identity():
    text = "class Person { name: String }\ncomplete class Point { x: Int }\n"
    m = parse_strict(text)
    assert parse_strict(render(m)) == m


@given(models)
def test_round_trip_equals_normalize(m):
    assert parse_strict(render(m)) == normalize(m)


@given(models)
def test_normalize_idempotent(m):
    assert normalize(normalize(m)) == normalize(m)


@given(models)
def test_parse_deterministic(m):
    text = render(m)
    assert parse_strict(text) == parse_strict(text)


SOUP = ("class", "complete", "P", "a", "T", "x_1", "classes", "{", "}", ":", ",", "//", "/",
        " ", "\n", "\r", "\t", "\x0b", "\x85", "\u2028", "\ufeff", "@", "1", "\xe9")


BLANKS = st.lists(st.sampled_from(("\n", " ", "\t", "\r", "\x0b", "\x85", "\u2028", "// P { a: T, }\n", "//\r\n")),
                  min_size=1, max_size=3).map("".join)


@given(models, st.data())
def test_parse_accepts_every_well_formed_text(m, data):
    words = render(m).replace("complete class", "complete\nclass").split(" ")
    text = data.draw(BLANKS) + "".join(word + data.draw(BLANKS) for word in words)
    assert parse(text) == (normalize(m), [])


def test_parse_accepts_names_that_start_with_a_keyword():
    text = "complete class classes{completed:class_}//c"
    assert parse(text) == (Model(syntax.expand([("classes", (("completed", "class_"),), True)])), [])


@given(st.text(st.characters(exclude_categories=())))
@example("complete")
@example("class P { }\ncomplete // c")
def test_parse_never_raises_and_its_diagnostics_point_into_the_text(text):
    model, diags = parse(text)
    assert (model is None) == bool(diags)
    lines = text.split("\n")
    for d in diags:
        assert 1 <= d.line <= len(lines) and 1 <= d.col <= len(lines[d.line - 1]) + 1


def test_long_malformed_declaration_reports_quickly():
    text = "class P { " + "".join(f"a{i}: T, " for i in range(20_000)) + "}"
    start = time.perf_counter()
    model, diags = parse(text)
    assert time.perf_counter() - start < 2
    assert model is None and [str(d) for d in diags] == [f"error: expected attribute name at 1:{len(text)}"]


@pytest.mark.parametrize("text, count, last", [
    ("@\n" * 200_000, 200_000, "error: unexpected character '@' at 200000:1"),
    ("class { }\n" * 50_000, 50_000, "error: expected class name at 50000:7"),
], ids=("stray-characters", "malformed-declarations"))
def test_many_diagnostics_report_quickly(text, count, last):
    # each diagnostic's line must not be found by rescanning the text before it
    start = time.perf_counter()
    model, diags = parse(text)
    assert time.perf_counter() - start < 2
    assert model is None and len(diags) == count and str(diags[-1]) == last


@given(st.one_of(st.lists(st.sampled_from(SOUP)).map("".join), models.map(render)))
@example("complete class P { a: T, b: U }\nclass Q { }")
def test_parsed_constraints_are_as_their_constructors_build_them(text):
    # parse expands declarations without validation; the constructors validate
    model, _ = parse(text)
    for c in model.constraints if model else ():
        assert type(c)(*c) == c


@given(models)
def test_normalized_constraints_are_as_their_constructors_build_them(m):
    for c in normalize(m).constraints:
        assert type(c)(*c) == c


@pytest.mark.parametrize("bounds, message", [
    ((("bad name",), ("a",), ("T",)), "invalid class name: 'bad name'"),
    ((("P",), ("_a",), ("T",)), "invalid attribute name: '_a'"),
    ((("P",), ("a",), ("T", 1)), "invalid type name: 1"),
    ((("P",), ("a", "b", "a"), ("T",), True), "duplicate attribute 'a' in corpus bounds"),
    # a repeated name expands distinct choices to one model, so sampling could run out of models
    ((("P", "P"), ("x",), ("T",)), "duplicate class 'P' in corpus bounds"),
    ((("P", "Q"), ("a", "a"), ("T",)), "duplicate attribute 'a' in corpus bounds"),
    ((("P",), ("a",), ("T", "T")), "duplicate type 'T' in corpus bounds"),
    # the reserved words are not names, so a generated model could not be written as text
    ((("class",), ("a",), ("T",)), "invalid class name: 'class'"),
    ((("P",), ("complete",), ("T",)), "invalid attribute name: 'complete'"),
    ((("P",), ("a",), ("T", "class")), "invalid type name: 'class'"),
])
def test_corpus_bounds_reject_names_the_constructors_reject(bounds, message):
    # generated models are expanded from the bounds' names without validation
    with pytest.raises(ValueError, match=re.escape(message)):
        CorpusBounds(*bounds)
    with pytest.raises(ValueError, match=re.escape("duplicate attribute 'a' in corpus bounds")):
        CorpusBounds(("P",), ("a", "b", "a"), ("T",), include_complete=False)
