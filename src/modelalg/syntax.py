"""The concrete class-model language: constraints, models, parser, printer.

A model is an ordered list of atomic constraints.  Order matters for
syntactic equality (and hence for the syntactic halves of the property
tables) but never for the semantics, which is a pure conjunction.
"""

from __future__ import annotations

import gc
import re
import string
from bisect import bisect_right
from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property, wraps
from itertools import accumulate

_NAME = r"[A-Za-z][A-Za-z0-9_]*"
IDENT_RE = re.compile(_NAME + r"\Z")
_KEYWORDS = {"class", "complete"}


def _collector_paused(f):
    """f, run with the cyclic garbage collector paused and then put back as
    it was: for calls that build many objects and leave no cyclic garbage."""
    @wraps(f)
    def paused(*args, **kwargs):
        enabled = gc.isenabled()
        gc.disable()
        try:
            return f(*args, **kwargs)
        finally:
            if enabled:
                gc.enable()
    return paused


def _is_name(name) -> bool:
    """Whether name can be written as a class, attribute or type name."""
    return isinstance(name, str) and IDENT_RE.match(name) is not None and name not in _KEYWORDS


def _check_ident(name: str, what: str) -> None:
    if not _is_name(name):
        raise ValueError(f"invalid {what} name: {name!r}")


class _Atom:
    """Base of the constraints: hash-consed tuples.  Each constructor, and
    ``_make``, ``_replace``, copy and pickle through ``__new__``, validates and
    returns the one object `_INTERNED` holds for its fields, so equality and
    hashing are identity's (kinds differ in arity, so never share fields) and no
    order is defined.  `pairs` is the (attribute, type) pairs a constraint declares."""

    __slots__ = ()
    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__
    __lt__, __le__, __gt__, __ge__ = object.__lt__, object.__le__, object.__gt__, object.__ge__

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def __reduce__(self):
        return type(self), tuple(self)


_INTERNED: dict[tuple, _Atom] = {}  # fields -> the constraint, for the life of the process


def _interned(kind: type, fields: tuple) -> _Atom:
    return _INTERNED.get(fields) or _INTERNED.setdefault(fields, tuple.__new__(kind, fields))


class ClassExists(_Atom, namedtuple("ClassExists", "cls")):
    __slots__ = ()
    pairs = ()

    def __new__(_cls, cls: str):
        _check_ident(cls, "class")
        return _interned(_cls, (cls,))


class AttrTyped(_Atom, namedtuple("AttrTyped", "cls attr type")):
    __slots__ = ()
    pairs = property(lambda self: ((self.attr, self.type),))

    def __new__(_cls, cls: str, attr: str, type: str):
        _check_ident(cls, "class")
        _check_ident(attr, "attribute")
        _check_ident(type, "type")
        return _interned(_cls, (cls, attr, type))


class AttrComplete(_Atom, namedtuple("AttrComplete", "cls attrs")):
    """The class has exactly the given attributes, with exactly these types."""

    __slots__ = ()
    pairs = property(lambda self: self.attrs)

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
        return _interned(_cls, (cls, attrs))


Constraint = ClassExists | AttrTyped | AttrComplete


@dataclass(frozen=True)
class Model:
    """An ordered tuple of constraints.  `constraint_set`, `declared` and `line`
    are views derived from the constraints and built on first use.  They are
    read-only (callers must not mutate them) and take no part in equality,
    hashing or repr, which see `constraints` only."""

    constraints: tuple[Constraint, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "constraints", tuple(self.constraints))

    @classmethod
    def _trusted(cls, constraints: tuple) -> Model:
        """Build from a tuple of constraints, skipping `__init__` (an operator's or `expand`'s result)."""
        m = object.__new__(cls)
        m.__dict__["constraints"] = constraints
        return m

    @cached_property
    def constraint_set(self) -> frozenset:
        return frozenset(self.constraints)

    @cached_property
    def declared(self) -> dict[str, tuple[tuple[str, str], ...]]:
        """For each class in first-mention order, the (attribute, type) pairs
        that its constraints declare, in order."""
        out: dict[str, list] = {}
        for c in self.constraints:
            out.setdefault(c.cls, []).extend(c.pairs)
        return {cls: tuple(items) for cls, items in out.items()}

    @cached_property
    def line(self) -> str:
        """render(self) on one line, or "<empty>" for the empty model."""
        return " ".join(_lines(self)) or "<empty>"


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


def expand(decls) -> tuple[Constraint, ...]:
    """The constraints that (class, attribute pairs, complete) declarations
    stand for: ClassExists, one AttrTyped per pair in written order, and a
    trailing AttrComplete for a complete declaration.  Built without validation:
    names must be identifiers, pairs a tuple of (attribute, type) tuples, and
    a complete declaration must not repeat an attribute."""
    out: list[Constraint] = []
    for cls, attrs, complete in decls:
        out.append(_interned(ClassExists, (cls,)))
        out.extend(_interned(AttrTyped, (cls, a, t)) for a, t in attrs)
        if complete:
            out.append(_interned(AttrComplete, (cls, attrs)))
    return tuple(out)


# --- parser ----------------------------------------------------------------

# A name, a punctuation mark, a comment or a stray character.  Blanks are the
# characters `str.isspace` accepts; no quantifier nests, so the scan is linear.
_TOKEN_RE = re.compile(_NAME + r"|[{}:,]|//[^\n]*|\S")
_GRAMMAR_STARTS = frozenset(string.ascii_letters + "{}:,")  # first characters of the tokens read
_NOT_NAMES = _KEYWORDS | {"{", "}", ":", ",", ""}  # "" is the end


@_collector_paused
def parse(text: str) -> tuple[Model | None, list[Diagnostic]]:
    """Parse source text; returns (model, diagnostics).  Every diagnostic is
    an error, and the model is None exactly when there is one.

    Each declaration expands to constraints as `expand` says.  Stray characters
    are reported first, and the rest is read as if they were absent.
    """
    found = _TOKEN_RE.findall(text)
    toks = [t for t in found if t[0] in _GRAMMAR_STARTS]
    toks.append("")
    # a stray character is a dropped token that is not a comment; found goes
    # before the walk, so a long text's token list is not held twice at peak
    strays = len(toks) <= len(found) and any(t[:2] != "//" for t in found if t[0] not in _GRAMMAR_STARTS)
    del found
    errs: list[tuple[int, str]] = []  # (index in toks, message)
    decls: list[tuple] = []
    i = 0
    while toks[i]:
        decl, i = _declaration(toks, i, errs)
        if decl:
            decls.append(decl)
        else:  # skip the rest of the declaration
            while toks[i] not in ("class", "complete", ""):
                i += 1
    if errs or strays:
        return None, _diagnostics(text, errs)
    return Model._trusted(expand(decls)), []


def _declaration(toks: list[str], i: int, errs: list[tuple[int, str]]) -> tuple[tuple | None, int]:
    """The declaration at token i and the index after it; or, after appending
    (token index, message) to errs, None and the index to skip from.  A repeated
    attribute is reported at its name, and the declaration read on and dropped."""
    complete = toks[i] == "complete"
    i += complete
    if toks[i] != "class":
        errs.append((i, f"expected 'class', found {toks[i]!r}"))
        return None, i + (toks[i] != "")  # only a trailing 'complete' leaves the end here
    cls = toks[i + 1]
    if cls in _NOT_NAMES:
        errs.append((i + 1, "expected class name"))
        return None, i + 1
    if toks[i + 2] != "{":
        errs.append((i + 2, "expected '{'"))
        return None, i + 2
    i += 3
    attrs, repeated = {}, False
    more = toks[i] not in _NOT_NAMES
    while more:
        name = toks[i]
        if name in _NOT_NAMES:
            errs.append((i, "expected attribute name"))
            return None, i
        if toks[i + 1] != ":":
            errs.append((i + 1, "expected ':' after attribute name"))
            return None, i + 1
        if toks[i + 2] in _NOT_NAMES:
            errs.append((i + 2, "expected type name"))
            return None, i + 2
        if name in attrs:
            errs.append((i, f"duplicate attribute {name!r} in declaration of {cls!r}"))
            repeated = True
        attrs[name] = toks[i + 2]
        i += 3
        more = toks[i] == ","
        i += more
    if repeated:
        return None, i
    if toks[i] != "}":
        errs.append((i, "expected '}'"))
        return None, i
    return (cls, tuple(attrs.items()), complete), i + 1


def _diagnostics(text: str, errs: list[tuple[int, str]]) -> list[Diagnostic]:
    """One diagnostic per stray character, then one per (token index, message)
    of errs; the index counts the tokens parse reads, and the end after them."""
    tokens = [(m.start(), m.group()) for m in _TOKEN_RE.finditer(text)]
    starts = [pos for pos, t in tokens if t[0] in _GRAMMAR_STARTS] + [len(text)]  # of the tokens read, and the end
    located = [(pos, f"unexpected character {t!r}")
               for pos, t in tokens if t[0] not in _GRAMMAR_STARTS and t[:2] != "//"]
    located += [(starts[j], message) for j, message in errs]
    line_starts = [0, *accumulate(len(line) + 1 for line in text.split("\n"))]
    return [Diagnostic(message, line := bisect_right(line_starts, pos), pos - line_starts[line - 1] + 1)
            for pos, message in located]


def parse_strict(text: str) -> Model:
    model, diags = parse(text)
    if model is None:
        raise ParseError(diags)
    return model


# --- printing --------------------------------------------------------------


def _group(m: Model) -> list[tuple]:
    """Greedy regrouping of a constraint list into declarations.

    Only contiguous runs consistent with the expansion rule collapse into one
    declaration; anything else opens a fresh declaration (whose expansion
    re-introduces the implied ClassExists / AttrTyped constraints).
    """
    decls: list[tuple] = []
    cls, attrs = None, None  # the open declaration's class and {attribute: type}, if one is open
    for c in m.constraints:
        if attrs is not None and c.cls == cls:
            if isinstance(c, AttrTyped) and c.attr not in attrs:
                attrs[c.attr] = c.type
                continue
            if isinstance(c, AttrComplete) and tuple(attrs.items()) == c.attrs:
                decls.append((cls, c.attrs, True))
                attrs = None
                continue
        if attrs is not None:
            decls.append((cls, tuple(attrs.items()), False))
        if isinstance(c, AttrComplete):
            decls.append((c.cls, c.attrs, True))
            attrs = None
        else:
            cls, attrs = c.cls, {c.attr: c.type} if isinstance(c, AttrTyped) else {}
    if attrs is not None:
        decls.append((cls, tuple(attrs.items()), False))
    return decls


def normalize(m: Model) -> Model:
    """Insert the constraints implied by the rendering of m, so that
    parse(render(m)) == normalize(m) holds for every well-formed model.
    Semantics-preserving: every inserted constraint is implied by one of m's."""
    return Model._trusted(expand(_group(m)))


def _lines(m: Model):
    """The lines of render(m), one per declaration."""
    for cls, attrs, complete in _group(m):
        kw = "complete class" if complete else "class"
        body = ", ".join([f"{a}: {t}" for a, t in attrs])
        yield f"{kw} {cls} {{ {body} }}" if body else f"{kw} {cls} {{ }}"


def render(m: Model) -> str:
    """Canonical source text; re-parses to normalize(m)."""
    return "".join([line + "\n" for line in _lines(m)])
