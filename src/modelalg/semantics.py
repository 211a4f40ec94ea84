"""Set-valued loose semantics over a finite, enumerable system universe.

A Universe fixes finite pools of class, attribute, and type names.  A system
assigns to every pool class either "absent" or a partial attribute->type map
over the pools.  A model denotes the set of systems satisfying all of its
constraints.

Because each constraint mentions exactly one class, every denotation is a
product of per-class state sets.  It stores a *class value* only for the
classes its constraints name: "present, with these (attr, type) pairs fixed
and the rest free" (a frozenset), where type None fixes the attribute absent,
so "exactly this attribute map" is the frozenset fixing every pool attribute.
Every other class takes every state (ANY); a class with no state (NONE)
empties the denotation.  Meet, subset and size cost the constraints, not the
pools, so they stay exact far beyond the enumeration cap, below which alone systems
are listed.  A universe hands out one Denotation object per distinct denotation while
that object is alive, so two live ones are equal exactly when they are identical.
"""

from __future__ import annotations

import itertools
import json
import weakref
from dataclasses import dataclass, field
from functools import cached_property
from math import log10

from .syntax import AttrComplete, Constraint, Model, _is_name

DEFAULT_CAP = 1 << 20
# counts up to this many digits are written out in full; CPython's default
# limit on int-to-str conversion is the same
EXACT_DIGITS = 4300
_EXACT_BOUND = 10**EXACT_DIGITS
# the class values of every state and of no state; singletons survive pickle and copy
ANY, NONE = None, False


class UniverseError(ValueError):
    pass


def _bounded_pow(base: int, exp: int, bound: int) -> int | None:
    """base ** exp for base >= 2, or None once a partial product exceeds
    bound, so no number much larger than bound is built."""
    result = 1
    for _ in range(exp):
        result *= base
        if result > bound:
            return None
    return result


def _count_at_most(classes: int, attrs: int, types: int, bound: int) -> int | None:
    """The system count of nonempty pools of these sizes if it is at most
    bound, else None."""
    states = _bounded_pow(types + 1, attrs, bound)
    return None if states is None else _bounded_pow(1 + states, classes, bound)


def count_text(n: int) -> str:
    """A count n >= 0 as witnesses, reports and messages write it: in decimal up to
    EXACT_DIGITS digits, else "about 10^N" with N the floor of log10(n)."""
    return str(n) if n < _EXACT_BOUND else f"about 10^{int(log10(n))}"


def _count_text(classes: int, attrs: int, types: int) -> str:
    """count_text of the system count of nonempty pools of these sizes,
    without building the count past EXACT_DIGITS digits."""
    bound = _EXACT_BOUND - 1
    count = _count_at_most(classes, attrs, types, bound)
    if count is not None:
        return str(count)
    states = _bounded_pow(types + 1, attrs, bound)
    # past the bound, 1 + states and states differ below a float's precision
    per_class = attrs * log10(types + 1) if states is None else log10(1 + states)
    return f"about 10^{int(classes * per_class)}"


class UniverseCapError(UniverseError):
    """The system count of pools of the given (class, attribute, type) sizes
    exceeds the cap.  `universe` is None when `build_universe` refused before
    building the pools."""

    def __init__(self, sizes: tuple[int, int, int], cap: int, universe: "Universe | None" = None):
        self.sizes = sizes
        self.cap = cap
        self.universe = universe
        super().__init__(f"universe has {_count_text(*sizes)} systems, exceeding the cap of {cap}")


def _check_cap(sizes: tuple[int, int, int], cap: int | None, universe: "Universe | None" = None) -> None:
    """Refuse pools of these sizes if their system count exceeds cap; None caps nothing."""
    if cap is not None and _count_at_most(*sizes, cap) is None:
        raise UniverseCapError(sizes, cap, universe)


@dataclass(frozen=True)
class Universe:
    class_pool: tuple[str, ...]
    attr_pool: tuple[str, ...]
    type_pool: tuple[str, ...]
    cap: int | None = DEFAULT_CAP
    _den_cache: dict = field(default_factory=dict, init=False, compare=False, repr=False)
    _con_cache: dict = field(default_factory=dict, init=False, compare=False, repr=False)
    _meet_cache: dict = field(default_factory=dict, init=False, compare=False, repr=False)
    _size_cache: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "class_pool", tuple(self.class_pool))
        object.__setattr__(self, "attr_pool", tuple(self.attr_pool))
        object.__setattr__(self, "type_pool", tuple(self.type_pool))
        for kind, pool in (("class", self.class_pool), ("attribute", self.attr_pool), ("type", self.type_pool)):
            if not pool:
                raise UniverseError(f"empty {kind} pool")
            if len(set(pool)) != len(pool):
                raise UniverseError(f"duplicate names in {kind} pool: {pool}")
        _check_cap(self.sizes, self.cap, self)

    @property
    def sizes(self) -> tuple[int, int, int]:
        return len(self.class_pool), len(self.attr_pool), len(self.type_pool)

    @cached_property
    def attr_state_radix(self) -> int:
        # per attribute: absent, or one of the pool types
        return len(self.type_pool) + 1

    @cached_property
    def class_state_count(self) -> int:
        # per class: absent, or present with any attribute map
        return 1 + self.attr_state_radix ** len(self.attr_pool)

    @cached_property
    def system_count(self) -> int:
        return self.class_state_count ** len(self.class_pool)

    @property
    def empty(self) -> "Denotation":  # the universe's one empty denotation
        return _canonical(self, None)

    def __reduce__(self):  # weak references do not pickle: a copy starts with empty caches
        return Universe, (self.class_pool, self.attr_pool, self.type_pool, self.cap)

    def class_index(self, name: str) -> int:
        try:
            return self.class_pool.index(name)
        except ValueError:
            raise UniverseError(f"class {name!r} not in universe") from None

    def decode_class_state(self, state: int) -> tuple[tuple[str, str], ...] | None:
        """None for absent, else the (attr, type) pairs in attr-pool order."""
        if state == 0:
            return None
        v, pairs = state - 1, []
        for a in reversed(self.attr_pool):  # attr_pool[0] is the most significant digit
            v, d = divmod(v, self.attr_state_radix)
            if d != 0:
                pairs.append((a, self.type_pool[d - 1]))
        return tuple(reversed(pairs))

    def describe(self) -> str:
        return (
            f"{len(self.class_pool)} classes x {len(self.attr_pool)} attrs x "
            f"{len(self.type_pool)} types ({count_text(self.system_count)} systems)"
        )


@dataclass(frozen=True)
class System:
    universe: Universe
    states: tuple[int, ...]  # one class-state index per pool class

    def class_attrs(self, cls: str) -> dict[str, str] | None:
        state = self.states[self.universe.class_index(cls)]
        pairs = self.universe.decode_class_state(state)
        return None if pairs is None else dict(pairs)

    @property
    def index(self) -> int:
        idx = 0
        for s in self.states:
            idx = idx * self.universe.class_state_count + s
        return idx

    def __str__(self) -> str:
        return "; ".join([_state_text(self.universe, ci, s) for ci, s in enumerate(self.states)])


def _state_text(u: Universe, ci: int, state: int) -> str:
    """Pool class ci in this state as a listed system shows it."""
    cls, pairs = u.class_pool[ci], u.decode_class_state(state)
    return f"{cls} absent" if pairs is None else f"{cls}{{{', '.join(f'{a}: {t}' for a, t in pairs)}}}"


def _intern(u: Universe, v):
    """u's one object for class value v.  u._meet_cache maps it to its row: a
    dict from other values to their meet with it, which maps v itself to v."""
    return u._meet_cache.setdefault(v, {v: v})[v]


def _value_states(u: Universe, v):
    """The per-class states class value v allows, ascending; for listing only."""
    if v is ANY:
        return range(u.class_state_count)
    radix, n, fixed, digits = u.attr_state_radix, len(u.attr_pool), dict(v), (None,) + u.type_pool
    places = [[d * radix ** (n - 1 - j) for d in ((digits.index(fixed[a]),) if a in fixed else range(radix))]
              for j, a in enumerate(u.attr_pool)]  # attr_pool[0] is the most significant digit
    return [1 + sum(ds) for ds in itertools.product(*places)]


@dataclass(frozen=True)
class Denotation:
    """A product of per-class state sets, built only by _canonical:
    `values` maps the pool index of each class the constraints name to its interned
    class value (see the module docstring); it is None in the empty denotation."""

    universe: Universe
    values: dict | None

    def __hash__(self) -> int:  # not the universe's: that would hash its pools
        return hash(None if self.values is None else frozenset(self.values.items()))

    def __reduce__(self):  # a copy is its universe copy's canonical Denotation
        return _canonical, (self.universe, self.values)

    @property
    def is_empty(self) -> bool:
        return self.values is None

    @property
    def is_full(self) -> bool:
        return self.values == {}

    @cached_property
    def size(self) -> int:
        # memoized per universe by (free classes, free attributes): at padding 300 a power has 750,000 bits
        u, values = self.universe, self.values
        if values is None:
            return 0
        free = len(u.class_pool) - len(values), sum(len(u.attr_pool) - len(v) for v in values.values())
        size = u._size_cache.get(free)
        if size is None:
            size = u._size_cache[free] = u.class_state_count ** free[0] * u.attr_state_radix ** free[1]
        return size

    def issubset(self, other: "Denotation") -> bool:
        u = self.universe
        if u is not other.universe and u != other.universe:
            raise UniverseError("denotations belong to different universes")
        if self.values is None or other.values is None:
            return self.values is None
        mine = self.values
        for ci, b in other.values.items():
            a = mine.get(ci)  # None where self leaves the class free, so with states outside b
            if a is None or not b <= a:  # a's states lie in b's exactly when a fixes all of b's pairs
                return False
        return True

    def __and__(self, other: "Denotation") -> "Denotation":
        u = self.universe
        if u is not other.universe and u != other.universe:
            raise UniverseError("denotations belong to different universes")
        if self.values is None or other.values is None:
            return u.empty
        return _met(u, dict(self.values), other.values.items())

    def _member_states(self, texts: bool = False):
        """Member state tuples, or with texts their per-class texts, in the canonical enumeration order."""
        if self.is_empty:
            return
        u = self.universe
        if u.cap is None:  # a capped universe passed its cap when built
            _check_cap(u.sizes, DEFAULT_CAP, u)
        columns = [_value_states(u, self.values.get(ci, ANY)) for ci in range(len(u.class_pool))]
        if texts:
            columns = [[_state_text(u, ci, s) for s in states] for ci, states in enumerate(columns)]
        yield from itertools.product(*columns)

    def system_texts(self):
        """str(s) for s in self.systems(), without building the systems."""
        return map("; ".join, self._member_states(texts=True))

    def indices(self):
        """Member system indices, ascending in the canonical enumeration order."""
        return (s.index for s in self.systems())

    def systems(self):
        for states in self._member_states():
            yield System(self.universe, states)


def _constraint_value(u: Universe, c: Constraint) -> tuple:
    """(class index, interned class value) for one constraint not yet in
    u._con_cache; it is validated here and cached only if valid."""
    ci = u.class_index(c.cls)
    exact, pairs = isinstance(c, AttrComplete), c.pairs
    for a, t in pairs:
        if a not in u.attr_pool:
            raise UniverseError(f"attribute {a!r} not in universe")
        if t not in u.type_pool:
            raise UniverseError(f"type {t!r} not in universe")
    # an exact map fixes every attribute it does not list absent (type None)
    fixed = {**dict.fromkeys(u.attr_pool), **dict(pairs)} if exact else dict(pairs)
    return u._con_cache.setdefault(c, (ci, _intern(u, frozenset(fixed.items()))))


def _canonical(u: Universe, values: dict | None) -> Denotation:
    """u's one live Denotation with these values (None: its empty one); u._den_cache holds it weakly."""
    key = None if values is None else frozenset(values.items())
    ref = u._den_cache.get(key)
    d = None if ref is None else ref()
    if d is None:  # values are interned again only for a pickled or copied Denotation's sake
        d = Denotation(u, values and {ci: _intern(u, v) for ci, v in values.items()})
        u._den_cache[key] = weakref.ref(d)
    return d


def _met(u: Universe, values: dict, pairs) -> Denotation:
    """u's one Denotation of fresh dict values met with each (class index, interned value) pair."""
    meets = u._meet_cache
    for ci, v in pairs:
        w = values.setdefault(ci, v)
        if w is not v:  # else w & v is w
            r = meets[w].get(v)
            if r is None:  # the meet, interned and cached in w's row: NONE where an attribute is fixed two ways
                r = w | v
                r = meets[w][v] = NONE if len({attr for attr, _ in r}) < len(r) else _intern(u, r)
            values[ci] = r
            if r is NONE:
                return u.empty
    return _canonical(u, values)


def denotation(m: Model, u: Universe) -> Denotation:
    """u's one Denotation for the exact set of systems satisfying every constraint of m."""
    con_cache = u._con_cache  # resolve all first, so an unknown name raises after a contradiction too
    return _met(u, {}, [con_cache.get(c) or _constraint_value(u, c) for c in m.constraints])


def is_consistent(m: Model, u: Universe) -> bool:
    return not denotation(m, u).is_empty


def is_uninformative(m: Model, u: Universe) -> bool:
    return denotation(m, u).is_full


def refines(m2: Model, m1: Model, u: Universe) -> bool:
    return denotation(m2, u).issubset(denotation(m1, u))


def semantically_eq(m1: Model, m2: Model, u: Universe) -> bool:
    return denotation(m1, u) == denotation(m2, u)


def build_universe(
    models,
    fresh_classes: int = 1,
    fresh_attrs: int = 1,
    fresh_types: int = 1,
    cap: int | None = DEFAULT_CAP,
) -> Universe:
    """Pools = names occurring in the models (first-occurrence order) plus
    synthetic fresh names approximating the openness of loose semantics."""
    if min(fresh_classes, fresh_attrs, fresh_types) < 0:
        raise ValueError("fresh-name counts must be >= 0")
    classes, attrs, types = {}, {}, {}  # name -> None, in first-occurrence order
    for m in models:
        for c in m.constraints:
            classes[c.cls] = None
            for a, t in c.pairs:
                attrs[a] = types[t] = None
    # fresh names start with "_", so they cannot repeat a parsed name, and the
    # pool sizes alone decide an empty pool, as Universe reports it, and the
    # cap before any fresh name is built
    sizes = (len(classes) + fresh_classes, len(attrs) + fresh_attrs, len(types) + fresh_types)
    if 0 in sizes:
        raise UniverseError(f"empty {('class', 'attribute', 'type')[sizes.index(0)]} pool")
    _check_cap(sizes, cap)
    classes.update(dict.fromkeys(f"_C{i}" for i in range(1, fresh_classes + 1)))
    attrs.update(dict.fromkeys(f"_a{i}" for i in range(1, fresh_attrs + 1)))
    types.update(dict.fromkeys(f"_T{i}" for i in range(1, fresh_types + 1)))
    return Universe(tuple(classes), tuple(attrs), tuple(types), cap=cap)


def universe_from_spec(spec: dict) -> Universe:
    pools = [spec.get(k) for k in ("classes", "attrs", "types")] if isinstance(spec, dict) else [None]
    if not all(isinstance(pool, list) for pool in pools):
        raise UniverseError("universe spec needs 'classes', 'attrs' and 'types' lists")
    for name in itertools.chain(*pools):
        if not _is_name(name):
            raise UniverseError(f"invalid name in universe spec: {name!r}")
    return Universe(*pools)


def load_universe(path) -> Universe:
    with open(path, encoding="utf-8") as fh:
        try:
            spec = json.load(fh)
        except (ValueError, RecursionError) as exc:  # malformed or too deeply nested JSON, or text
            raise UniverseError(f"universe spec {path} is not valid JSON: {exc}") from None
    return universe_from_spec(spec)
