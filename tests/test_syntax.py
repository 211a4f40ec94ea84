import copy
import pickle
from unittest import mock

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from modelalg import (
    AttrComplete,
    AttrTyped,
    ClassExists,
    Model,
    ParseError,
    normalize,
    parse,
    parse_strict,
    render,
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
    errors = [d for d in diags if d.severity == "error"]
    assert errors and "duplicate attribute" in errors[0].message
    assert errors[0].line == 1 and errors[0].col > 1


def test_parse_bad_character():
    model, diags = parse("class P @ { }")
    assert model is None
    assert any(d.severity == "error" for d in diags)


def test_parse_missing_brace_recovers_to_next_decl():
    model, diags = parse("class P \nclass Q { }")
    assert model is None
    assert any(d.severity == "error" for d in diags)


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


@given(constraints, constraints)
def test_constraints_of_different_kinds_never_equal(a, b):
    if type(a) is not type(b):
        assert a != b


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


BUILDS = {
    "_make": lambda valid, field, value: type(valid)._make(list(_invalid(valid, field, value))),
    "_replace": lambda valid, field, value: valid._replace(**{field: value}),
    "copy": lambda valid, field, value: copy.copy(_invalid(valid, field, value)),
    "pickle": lambda valid, field, value: pickle.loads(pickle.dumps(_invalid(valid, field, value))),
}


@pytest.mark.parametrize("valid, field, value", [
    (ClassExists("P"), "cls", "1P"),
    (AttrTyped("P", "a", "T"), "type", "_T"),
    (AttrComplete("P", (("a", "T"),)), "attrs", (("a", "T"), ("a", "U"))),
])
@pytest.mark.parametrize("how", sorted(BUILDS))
def test_every_way_of_building_a_constraint_validates(valid, field, value, how):
    with pytest.raises(ValueError):
        BUILDS[how](valid, field, value)


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


def _one_pass(text):
    """What parse returns for text from its one-pass match, or None where
    the match declines and parse hands text to the token parser."""
    with mock.patch.object(syntax, "_parse_tokens", return_value=None):
        return parse(text)


SOUP = ("class", "complete", "P", "a", "T", "x_1", "classes", "{", "}", ":", ",", "//", "/",
        " ", "\n", "\r", "\t", "\x0b", "\x85", "\u2028", "\ufeff", "@", "1", "\xe9")


@given(st.lists(st.sampled_from(SOUP)).map("".join))
@example("// class P { } class\nQ { }")
@example("class P { a: T, a: T }")
@example("class P { a: T, }")
@example("completeclass P { }")
@example("class class { }")
@example("class P { a: complete }")
def test_one_pass_parse_agrees_with_the_token_parser(text):
    fast = _one_pass(text)
    if fast is not None:
        assert fast == syntax._parse_tokens(text) and fast[0] is not None


BLANKS = st.lists(st.sampled_from(("\n", " ", "\t", "\r", "\x0b", "\x85", "\u2028", "// P { a: T, }\n", "//\r\n")),
                  min_size=1, max_size=3).map("".join)


@given(models, st.data())
def test_one_pass_parse_accepts_every_well_formed_text(m, data):
    words = render(m).replace("complete class", "complete\nclass").split(" ")
    text = data.draw(BLANKS) + "".join(word + data.draw(BLANKS) for word in words)
    assert _one_pass(text) == (normalize(m), [])


def test_one_pass_parse_accepts_names_that_start_with_a_keyword():
    text = "complete class classes{completed:class_}//c"
    assert _one_pass(text) == (Model(syntax.expand([("classes", (("completed", "class_"),), True)])), [])


@given(st.text(st.characters(exclude_categories=())))
@example("complete")
@example("class P { }\ncomplete // c")
def test_parse_never_raises_and_its_diagnostics_point_into_the_text(text):
    model, diags = parse(text)
    assert (model is None) == any(d.severity == "error" for d in diags)
    lines = text.split("\n")
    for d in diags:
        assert 1 <= d.line <= len(lines) and 1 <= d.col <= len(lines[d.line - 1]) + 1
