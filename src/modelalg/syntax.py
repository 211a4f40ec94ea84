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

_NAME = r"[A-Za-z][A-Za-z0-9_]*"
IDENT_RE = re.compile(_NAME + r"\Z")


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

    @classmethod
    def _trusted(cls, constraints: tuple) -> Model:
        """Build from a tuple of constraints, skipping `__init__` (an operator's result)."""
        m = object.__new__(cls)
        object.__setattr__(m, "constraints", constraints)
        return m

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
    """A parse error in the source text, at a 1-based line and column."""

    message: str
    line: int
    col: int

    def __str__(self) -> str:
        return f"error: {self.message} at {self.line}:{self.col}"


class ParseError(Exception):
    def __init__(self, diagnostics: list[Diagnostic]):
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(str(d) for d in diagnostics) or "parse error")


def syntactic_eq(m1: Model, m2: Model) -> bool:
    """Concrete-representation equality: same constraints, same order."""
    return m1.constraints == m2.constraints


_Decl = namedtuple("_Decl", "cls attrs complete")


def expand(decls) -> tuple[Constraint, ...]:
    """The constraints that (class, attribute pairs, complete) declarations
    stand for: ClassExists, one AttrTyped per pair in written order, and a
    trailing AttrComplete for a complete declaration.  Built without validation:
    names must be identifiers, pairs a tuple of (attribute, type) tuples, and
    a complete declaration must not repeat an attribute."""
    out: list[Constraint] = []
    for cls, attrs, complete in decls:
        out.append(tuple.__new__(ClassExists, (cls,)))
        out.extend(tuple.__new__(AttrTyped, (cls, a, t)) for a, t in attrs)
        if complete:
            out.append(AttrComplete._trusted(cls, attrs))
    return tuple(out)


# --- lexer -----------------------------------------------------------------

_KEYWORDS = {"class", "complete"}


# kind: IDENT, LBRACE, RBRACE, COLON, COMMA, KW_CLASS, KW_COMPLETE or EOF
_Token = namedtuple("_Token", "kind text line col")


_PUNCT = {"{": "LBRACE", "}": "RBRACE", ":": "COLON", ",": "COMMA"}
# the last alternative captures any other single character
_LEX_RE = re.compile(_NAME + r"|[{}:,]|//[^\n]*|[ \t\r]+|\n|(.)")


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
        if match.lastindex:
            diags.append(Diagnostic(f"unexpected character {tok!r}", tline, tcol))
        elif tok in _PUNCT:
            tokens.append(_Token(_PUNCT[tok], tok, tline, tcol))
        elif tok in _KEYWORDS:
            tokens.append(_Token("KW_" + tok.upper(), tok, tline, tcol))
        else:
            tokens.append(_Token("IDENT", tok, tline, tcol))
    tokens.append(_Token("EOF", "", line, col))
    return tokens, diags


# --- parser ----------------------------------------------------------------

# One declaration of a well-formed text, after the blanks and comments that
# lead up to it, or else the blanks and comments that end the text.  The
# pattern accepts exactly what the token parser accepts without an error,
# except that it lets a repeated attribute through, which `parse` checks.
# Blanks are the characters `str.isspace` accepts, as in `_lex`; a comment
# must run to the end of its line, so that backtracking cannot end it early
# and read the rest of the line as source.
_SEP = r"(?:\s|//[^\n]*(?![^\n]))"
_IDENT = rf"(?!(?:{'|'.join(sorted(_KEYWORDS))})(?![A-Za-z0-9_])){_NAME}"
_PAIR = rf"{_IDENT}{_SEP}*:{_SEP}*{_IDENT}"
_DECL_RE = re.compile(
    rf"{_SEP}*(?:(?:(complete){_SEP}+)?class{_SEP}+({_IDENT}){_SEP}*"
    rf"\{{({_SEP}*(?:{_PAIR}{_SEP}*(?:,{_SEP}*{_PAIR}{_SEP}*)*)?)\}}|\Z)"
)
# the (attribute, type) pairs of a matched body; a comment yields ("", "")
_PAIRS_RE = re.compile(rf"//[^\n]*|({_NAME}){_SEP}*:{_SEP}*({_NAME})")


def parse(text: str) -> tuple[Model | None, list[Diagnostic]]:
    """Parse source text; returns (model, diagnostics).  Every diagnostic is
    an error, and the model is None exactly when there is one.

    Each declaration expands to constraints as `expand` says.  A well-formed
    text is matched one declaration at a time; any other text goes to the
    token parser, which alone reports diagnostics and recovers from errors.
    """
    decls: list[_Decl] = []
    pos = 0
    while m := _DECL_RE.match(text, pos):
        complete, cls, body = m.groups()
        if cls is None:
            return Model(expand(decls)), []
        attrs = tuple(pair for pair in _PAIRS_RE.findall(body) if pair[0])
        if len(dict(attrs)) != len(attrs):
            break
        decls.append(_Decl(cls, attrs, complete is not None))
        pos = m.end()
    return _parse_tokens(text)


def _parse_tokens(text: str) -> tuple[Model | None, list[Diagnostic]]:
    """`parse` by lexing and walking the tokens, with diagnostics.

    Each grammar step is one `take`.  After the first error in a declaration,
    the rest of it is skipped up to the next 'class', 'complete' or the end.
    A repeated attribute is reported at its name; the rest of the pair list
    is still read, and then the declaration is dropped.
    """
    tokens, diags = _lex(text)
    decls: list[_Decl] = []
    i = 0

    def err(msg: str, tok: _Token) -> None:
        diags.append(Diagnostic(msg, tok.line, tok.col))

    def take(kind: str, expected: str) -> str | None:
        """Consume the next token and return its text if it has this kind;
        else report what was expected there and return None."""
        nonlocal i
        tok = tokens[i]
        if tok.kind != kind:
            err(f"expected {expected}", tok)
            return None
        i += 1
        return tok.text

    def pair_list(cls: str) -> dict[str, str] | None:
        """The attribute pairs up to the '}', or None after an error in them."""
        nonlocal i
        attrs: dict[str, str] = {}
        ok = True
        more = tokens[i].kind == "IDENT"
        while more:
            name = tokens[i]
            if not (
                take("IDENT", "attribute name")
                and take("COLON", "':' after attribute name")
                and (typ := take("IDENT", "type name"))
            ):
                return None
            if name.text in attrs:
                err(f"duplicate attribute {name.text!r} in declaration of {cls!r}", name)
                ok = False
            attrs[name.text] = typ
            more = tokens[i].kind == "COMMA"
            if more:
                i += 1
        return attrs if ok else None

    while tokens[i].kind != "EOF":
        complete = tokens[i].kind == "KW_COMPLETE"
        if complete:
            i += 1
        if take("KW_CLASS", f"'class', found {tokens[i].text!r}") is None:
            if tokens[i].kind != "EOF":  # a trailing 'complete' leaves only EOF
                i += 1
        elif (
            (cls := take("IDENT", "class name"))
            and take("LBRACE", "'{'")
            and (attrs := pair_list(cls)) is not None
            and take("RBRACE", "'}'")
        ):
            decls.append(_Decl(cls, tuple(attrs.items()), complete))
            continue
        while tokens[i].kind not in ("KW_CLASS", "KW_COMPLETE", "EOF"):
            i += 1

    return (None, diags) if diags else (Model(expand(decls)), [])


def parse_strict(text: str) -> Model:
    model, diags = parse(text)
    if model is None:
        raise ParseError(diags)
    return model


# --- printing --------------------------------------------------------------


def _group(m: Model) -> list[_Decl]:
    """Greedy regrouping of a constraint list into declarations.

    Only contiguous runs consistent with the expansion rule collapse into one
    declaration; anything else opens a fresh declaration (whose expansion
    re-introduces the implied ClassExists / AttrTyped constraints).
    """
    decls: list[_Decl] = []
    cls, attrs = None, None  # the open declaration's class and {attribute: type}, if one is open
    for c in m.constraints:
        if attrs is not None and c.cls == cls:
            if isinstance(c, AttrTyped) and c.attr not in attrs:
                attrs[c.attr] = c.type
                continue
            if isinstance(c, AttrComplete) and tuple(attrs.items()) == c.attrs:
                decls.append(_Decl(cls, c.attrs, True))
                attrs = None
                continue
        if attrs is not None:
            decls.append(_Decl(cls, tuple(attrs.items()), False))
        if isinstance(c, AttrComplete):
            decls.append(_Decl(c.cls, c.attrs, True))
            attrs = None
        else:
            cls, attrs = c.cls, {c.attr: c.type} if isinstance(c, AttrTyped) else {}
    if attrs is not None:
        decls.append(_Decl(cls, tuple(attrs.items()), False))
    return decls


def normalize(m: Model) -> Model:
    """Insert the constraints implied by the rendering of m, so that
    parse(render(m)) == normalize(m) holds for every well-formed model.
    Semantics-preserving: every inserted constraint is implied by one of m's."""
    return Model(expand(_group(m)))


def _lines(m: Model):
    """The lines of render(m), one per declaration."""
    for cls, attrs, complete in _group(m):
        kw = "complete class" if complete else "class"
        body = ", ".join([f"{a}: {t}" for a, t in attrs])
        yield f"{kw} {cls} {{ {body} }}" if body else f"{kw} {cls} {{ }}"


def render(m: Model) -> str:
    """Canonical source text; re-parses to normalize(m)."""
    return "".join([line + "\n" for line in _lines(m)])


def _show(m: Model) -> str:
    """render(m) on one line, or "<empty>" for the empty model."""
    return " ".join(_lines(m)) or "<empty>"
