import pytest
from hypothesis import given

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
)

from .strategies import models


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
