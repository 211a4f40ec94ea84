"""The concrete class-model language: constraints, models, parser, printer.

A model is an ordered list of atomic constraints.  Order matters for
syntactic equality (and hence for the syntactic halves of the property
tables) but never for the semantics, which is a pure conjunction.
"""

from __future__ import annotations

import re
from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property

IDENT_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")


def _check_ident(name: str, what: str) -> None:
    if not isinstance(name, str) or not IDENT_RE.match(name):
        raise ValueError(f"invalid {what} name: {name!r}")


class _Atom:
    """Base of the constraints, tuples so that hashing and equality run in C
    (kinds differ in length, so never compare equal).  ``_make``, and
    ``_replace`` through it, validate in ``__new__`` as copy and pickle do."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class ClassExists(_Atom, namedtuple("ClassExists", "cls")):
    __slots__ = ()

    def __new__(_cls, cls: str):
        _check_ident(cls, "class")
        return tuple.__new__(_cls, (cls,))


class AttrTyped(_Atom, namedtuple("AttrTyped", "cls attr type")):
    __slots__ = ()

    def __new__(_cls, cls: str, attr: str, type: str):
        _check_ident(cls, "class")
        _check_ident(attr, "attribute")
        _check_ident(type, "type")
        return tuple.__new__(_cls, (cls, attr, type))


class AttrComplete(_Atom, namedtuple("AttrComplete", "cls attrs")):
    """The class has exactly the given attributes, with exactly these types."""

    __slots__ = ()

    def __new__(_cls, cls: str, attrs: tuple[tuple[str, str], ...]):
        attrs = tuple((a, t) for a, t in attrs)
        _check_ident(cls, "class")
        seen = set()
        for a, t in attrs:
            _check_ident(a, "attribute")
            _check_ident(t, "type")
            if a in seen:
                raise ValueError(f"duplicate attribute {a!r} in completeness constraint")
            seen.add(a)
        return tuple.__new__(_cls, (cls, attrs))

    @classmethod
    def _trusted(_cls, cls: str, attrs: tuple[tuple[str, str], ...]):
        """Build without validation, from names and (attribute, type) pairs
        taken from already validated constraints, with no attribute twice."""
        return tuple.__new__(_cls, (cls, attrs))

    def attr_map(self) -> dict[str, str]:
        return dict(self.attrs)


Constraint = ClassExists | AttrTyped | AttrComplete


@dataclass(frozen=True)
class Model:
    """An ordered tuple of constraints.  `constraint_set` and `declared` are
    views derived from the constraints and built on first use.  They are
    read-only (callers must not mutate them) and take no part in equality,
    hashing or repr, which see `constraints` only."""

    constraints: tuple[Constraint, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "constraints", tuple(self.constraints))

    @cached_property
    def constraint_set(self) -> frozenset:
        return frozenset(self.constraints)

    @cached_property
    def declared(self) -> dict[str, tuple[tuple[str, str], ...]]:
        """For each class in first-mention order, the (attribute, type) pairs
        that its AttrTyped and AttrComplete constraints declare, in order."""
        out: dict[str, list] = {}
        for c in self.constraints:
            items = out.setdefault(c.cls, [])
            if isinstance(c, AttrTyped):
                items.append((c.attr, c.type))
            elif isinstance(c, AttrComplete):
                items.extend(c.attrs)
        return {cls: tuple(items) for cls, items in out.items()}


@dataclass(frozen=True)
class Diagnostic:
    severity: str  # "error" | "warning"
    message: str
    line: int
    col: int

    def __str__(self) -> str:
        return f"{self.severity}: {self.message} at {self.line}:{self.col}"


class ParseError(Exception):
    def __init__(self, diagnostics: list[Diagnostic]):
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(str(d) for d in diagnostics) or "parse error")


def syntactic_eq(m1: Model, m2: Model) -> bool:
    """Concrete-representation equality: same constraints, same order."""
    return m1.constraints == m2.constraints


def mentioned_classes(m: Model) -> list[str]:
    """Class names in first-mention order."""
    return list(m.declared)


_Decl = namedtuple("_Decl", "cls attrs complete")


def expand(decls) -> tuple[Constraint, ...]:
    """The constraints that (class, attribute pairs, complete) declarations
    stand for: ClassExists, one AttrTyped per pair in written order, and a
    trailing AttrComplete for a complete declaration."""
    out: list[Constraint] = []
    for cls, attrs, complete in decls:
        out.append(ClassExists(cls))
        out.extend(AttrTyped(cls, a, t) for a, t in attrs)
        if complete:
            out.append(AttrComplete(cls, attrs))
    return tuple(out)


# --- lexer -----------------------------------------------------------------

_KEYWORDS = {"class", "complete"}


# kind: IDENT, LBRACE, RBRACE, COLON, COMMA, KW_CLASS, KW_COMPLETE or EOF
_Token = namedtuple("_Token", "kind text line col")


_PUNCT = {"{": "LBRACE", "}": "RBRACE", ":": "COLON", ",": "COMMA"}
_LEX_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*|[{}:,]|//[^\n]*|[ \t\r]+|\n|.")


def _lex(text: str) -> tuple[list[_Token], list[Diagnostic]]:
    tokens: list[_Token] = []
    diags: list[Diagnostic] = []
    line, col = 1, 1
    for match in _LEX_RE.finditer(text):
        tok = match.group()
        tline, tcol = line, col
        if tok == "\n":
            line += 1
            col = 1
            continue
        col += len(tok)
        if tok.isspace() or tok.startswith("//"):
            continue
        if tok in _PUNCT:
            tokens.append(_Token(_PUNCT[tok], tok, tline, tcol))
        elif tok in _KEYWORDS:
            tokens.append(_Token("KW_" + tok.upper(), tok, tline, tcol))
        elif IDENT_RE.match(tok):
            tokens.append(_Token("IDENT", tok, tline, tcol))
        else:
            diags.append(Diagnostic("error", f"unexpected character {tok!r}", tline, tcol))
    tokens.append(_Token("EOF", "", line, col))
    return tokens, diags


# --- parser ----------------------------------------------------------------


def parse(text: str) -> tuple[Model | None, list[Diagnostic]]:
    """Parse source text; returns (model, diagnostics).  The model is None
    exactly when an error diagnostic was produced.

    Each declaration expands to constraints as `expand` says.
    """
    tokens, diags = _lex(text)
    decls: list[_Decl] = []
    i = 0

    def err(msg: str, tok: _Token) -> None:
        diags.append(Diagnostic("error", msg, tok.line, tok.col))

    def recover() -> None:
        nonlocal i
        while tokens[i].kind not in ("KW_CLASS", "KW_COMPLETE", "EOF"):
            i += 1

    while tokens[i].kind != "EOF":
        complete = False
        if tokens[i].kind == "KW_COMPLETE":
            complete = True
            i += 1
        if tokens[i].kind != "KW_CLASS":
            err(f"expected 'class', found {tokens[i].text!r}", tokens[i])
            i += 1
            recover()
            continue
        i += 1
        if tokens[i].kind != "IDENT":
            err("expected class name", tokens[i])
            recover()
            continue
        cls = tokens[i].text
        i += 1
        if tokens[i].kind != "LBRACE":
            err("expected '{'", tokens[i])
            recover()
            continue
        i += 1
        attrs: list[tuple[str, str]] = []
        decl_ok = True
        if tokens[i].kind == "IDENT":
            while True:
                if tokens[i].kind != "IDENT":
                    err("expected attribute name", tokens[i])
                    decl_ok = False
                    break
                attr_tok = tokens[i]
                attr = attr_tok.text
                i += 1
                if tokens[i].kind != "COLON":
                    err("expected ':' after attribute name", tokens[i])
                    decl_ok = False
                    break
                i += 1
                if tokens[i].kind != "IDENT":
                    err("expected type name", tokens[i])
                    decl_ok = False
                    break
                typ = tokens[i].text
                i += 1
                if any(a == attr for a, _ in attrs):
                    err(f"duplicate attribute {attr!r} in declaration of {cls!r}", attr_tok)
                    decl_ok = False
                else:
                    attrs.append((attr, typ))
                if tokens[i].kind == "COMMA":
                    i += 1
                    continue
                break
        if not decl_ok:
            recover()
            continue
        if tokens[i].kind != "RBRACE":
            err("expected '}'", tokens[i])
            recover()
            continue
        i += 1
        decls.append(_Decl(cls, tuple(attrs), complete))

    if any(d.severity == "error" for d in diags):
        return None, diags
    return Model(expand(decls)), diags


def parse_strict(text: str) -> Model:
    model, diags = parse(text)
    if model is None:
        raise ParseError([d for d in diags if d.severity == "error"])
    return model


# --- printing --------------------------------------------------------------


def _group(m: Model) -> list[_Decl]:
    """Greedy regrouping of a constraint list into declarations.

    Only contiguous runs consistent with the expansion rule collapse into one
    declaration; anything else opens a fresh declaration (whose expansion
    re-introduces the implied ClassExists / AttrTyped constraints).
    """
    decls: list[_Decl] = []
    cur_cls: str | None = None
    cur_attrs: list[tuple[str, str]] = []
    open_decl = False

    def close() -> None:
        nonlocal open_decl
        if open_decl:
            decls.append(_Decl(cur_cls, tuple(cur_attrs), False))
            open_decl = False

    for c in m.constraints:
        if isinstance(c, ClassExists):
            close()
            cur_cls, cur_attrs, open_decl = c.cls, [], True
        elif isinstance(c, AttrTyped):
            if open_decl and cur_cls == c.cls and all(a != c.attr for a, _ in cur_attrs):
                cur_attrs.append((c.attr, c.type))
            else:
                close()
                cur_cls, cur_attrs, open_decl = c.cls, [(c.attr, c.type)], True
        else:  # AttrComplete
            if open_decl and cur_cls == c.cls and tuple(cur_attrs) == c.attrs:
                decls.append(_Decl(cur_cls, c.attrs, True))
                open_decl = False
            else:
                close()
                decls.append(_Decl(c.cls, c.attrs, True))
    close()
    return decls


def normalize(m: Model) -> Model:
    """Insert the constraints implied by the rendering of m, so that
    parse(render(m)) == normalize(m) holds for every well-formed model.
    Semantics-preserving: every inserted constraint is implied by one of m's."""
    return Model(expand(_group(m)))


def render(m: Model) -> str:
    """Canonical source text; re-parses to normalize(m)."""
    lines = []
    for d in _group(m):
        kw = "complete class" if d.complete else "class"
        body = ", ".join(f"{a}: {t}" for a, t in d.attrs)
        lines.append(f"{kw} {d.cls} {{ {body} }}" if body else f"{kw} {d.cls} {{ }}")
    return "\n".join(lines) + ("\n" if lines else "")
