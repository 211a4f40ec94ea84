"""Set-valued loose semantics over a finite, enumerable system universe.

A Universe fixes finite pools of class, attribute, and type names.  A system
assigns to every pool class either "absent" or a partial attribute->type map
over the pools.  A model denotes the set of systems satisfying all of its
constraints.

Because each constraint mentions exactly one class, every denotation is a
product of per-class state sets.  Denotations are therefore stored factored
(one bitset of per-class states per pool class), which keeps intersection,
subset, equality, and cardinality exact even for universes far beyond the
enumeration cap.  Listing a denotation's systems is only available below
the cap.  A universe hands out one Denotation object per distinct
denotation, so two denotations of a universe are equal exactly when they
are the same object.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from functools import cached_property
from math import log10, prod

from .syntax import IDENT_RE, AttrComplete, AttrTyped, ClassExists, Constraint, Model

DEFAULT_CAP = 1 << 20
# counts up to this many digits are written out in full; CPython's default
# limit on int-to-str conversion is the same
EXACT_DIGITS = 4300


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


def _count_text(classes: int, attrs: int, types: int) -> str:
    """The system count of nonempty pools of these sizes in decimal, or
    "about 10^N" beyond EXACT_DIGITS digits."""
    count = _count_at_most(classes, attrs, types, 10**EXACT_DIGITS - 1)
    if count is None:
        return f"about 10^{int(classes * log10(1 + (types + 1) ** attrs))}"
    return str(count)


class UniverseCapError(UniverseError):
    """The system count of pools of the given (class, attribute, type) sizes
    exceeds the cap.  `universe` is None when `build_universe` refused before
    building the pools.  `system_count` is computed only when asked for,
    since it may have millions of digits."""

    def __init__(self, sizes: tuple[int, int, int], cap: int, universe: "Universe | None" = None):
        self.sizes = sizes
        self.cap = cap
        self.universe = universe
        super().__init__(f"universe has {_count_text(*sizes)} systems, exceeding the cap of {cap}")

    @property
    def system_count(self) -> int:
        classes, attrs, types = self.sizes
        return (1 + (types + 1) ** attrs) ** classes


@dataclass(frozen=True)
class Universe:
    class_pool: tuple[str, ...]
    attr_pool: tuple[str, ...]
    type_pool: tuple[str, ...]
    cap: int | None = DEFAULT_CAP
    _den_cache: dict = field(default_factory=dict, init=False, compare=False, repr=False)
    _con_cache: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "class_pool", tuple(self.class_pool))
        object.__setattr__(self, "attr_pool", tuple(self.attr_pool))
        object.__setattr__(self, "type_pool", tuple(self.type_pool))
        for kind, pool in (("class", self.class_pool), ("attribute", self.attr_pool), ("type", self.type_pool)):
            if not pool:
                raise UniverseError(f"empty {kind} pool")
            if len(set(pool)) != len(pool):
                raise UniverseError(f"duplicate names in {kind} pool: {pool}")
        if self.cap is not None and self.count_at_most(self.cap) is None:
            raise UniverseCapError(self.sizes, self.cap, self)

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

    def count_at_most(self, bound: int) -> int | None:
        """system_count if it is at most bound, else None."""
        return _count_at_most(*self.sizes, bound)

    def count_text(self) -> str:
        """system_count in decimal, or "about 10^N" beyond EXACT_DIGITS digits."""
        return _count_text(*self.sizes)

    @cached_property
    def full_class_mask(self) -> int:
        return (1 << self.class_state_count) - 1

    def class_index(self, name: str) -> int:
        try:
            return self.class_pool.index(name)
        except ValueError:
            raise UniverseError(f"class {name!r} not in universe") from None

    def decode_class_state(self, state: int) -> tuple[tuple[str, str], ...] | None:
        """None for absent, else the (attr, type) pairs in attr-pool order."""
        if state == 0:
            return None
        v = state - 1
        radix = self.attr_state_radix
        digits = []
        for _ in self.attr_pool:
            digits.append(v % radix)
            v //= radix
        digits.reverse()  # attr_pool[0] is the most significant digit
        return tuple(
            (a, self.type_pool[d - 1]) for a, d in zip(self.attr_pool, digits) if d != 0
        )

    def describe(self) -> str:
        return (
            f"{len(self.class_pool)} classes x {len(self.attr_pool)} attrs x "
            f"{len(self.type_pool)} types ({self.system_count} systems)"
        )


def _enumeration_guard(u: Universe) -> None:
    limit = u.cap if u.cap is not None else DEFAULT_CAP
    if u.count_at_most(limit) is None:
        raise UniverseCapError(u.sizes, limit, u)


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
        parts = []
        for cls, state in zip(self.universe.class_pool, self.states):
            pairs = self.universe.decode_class_state(state)
            if pairs is None:
                parts.append(f"{cls} absent")
            else:
                parts.append(f"{cls}{{{', '.join(f'{a}: {t}' for a, t in pairs)}}}")
        return "; ".join(parts)


def _check_names(u: Universe, c: Constraint) -> None:
    if c.cls not in u.class_pool:
        raise UniverseError(f"class {c.cls!r} not in universe")
    pairs = ()
    if isinstance(c, AttrTyped):
        pairs = ((c.attr, c.type),)
    elif isinstance(c, AttrComplete):
        pairs = c.attrs
    for a, t in pairs:
        if a not in u.attr_pool:
            raise UniverseError(f"attribute {a!r} not in universe")
        if t not in u.type_pool:
            raise UniverseError(f"type {t!r} not in universe")


@dataclass(frozen=True)
class Denotation:
    """A product of per-class state sets; the empty denotation is canonically
    all-zero so equality and hashing are structural."""

    universe: Universe
    class_masks: tuple[int, ...]

    def __post_init__(self):
        masks = tuple(self.class_masks)
        if any(m == 0 for m in masks):
            masks = (0,) * len(masks)
        object.__setattr__(self, "class_masks", masks)

    @property
    def is_empty(self) -> bool:
        return self.class_masks[0] == 0  # __post_init__ zeroes every mask if one is zero

    @property
    def is_full(self) -> bool:
        full = self.universe.full_class_mask
        return all(m == full for m in self.class_masks)

    @cached_property
    def size(self) -> int:
        if self.is_empty:
            return 0
        return prod(m.bit_count() for m in self.class_masks)

    def issubset(self, other: "Denotation") -> bool:
        if self.universe is not other.universe and self.universe != other.universe:
            raise UniverseError("denotations belong to different universes")
        if self.is_empty:
            return True
        return all(a & ~b == 0 for a, b in zip(self.class_masks, other.class_masks))

    def __and__(self, other: "Denotation") -> "Denotation":
        if self.universe is not other.universe and self.universe != other.universe:
            raise UniverseError("denotations belong to different universes")
        return _canonical(self.universe, [a & b for a, b in zip(self.class_masks, other.class_masks)])

    def _member_states(self):
        """Member state tuples in the canonical enumeration order."""
        if self.is_empty:
            return
        _enumeration_guard(self.universe)
        count = self.universe.class_state_count
        yield from itertools.product(
            *([s for s in range(count) if mask >> s & 1] for mask in self.class_masks)
        )

    def indices(self):
        """Member system indices, ascending in the canonical enumeration order."""
        for states in self._member_states():
            yield System(self.universe, states).index

    def systems(self):
        for states in self._member_states():
            yield System(self.universe, states)


def _constraint_mask(u: Universe, c: Constraint) -> tuple[int, int]:
    """(class index, bitset of allowed per-class states) for one constraint
    not yet in u._con_cache; it is validated here and cached only if valid."""
    _check_names(u, c)
    ci = u.class_index(c.cls)
    count = u.class_state_count
    radix = u.attr_state_radix
    n_attrs = len(u.attr_pool)
    if isinstance(c, ClassExists):
        mask = ((1 << count) - 1) & ~1
    elif isinstance(c, AttrTyped):
        j = u.attr_pool.index(c.attr)
        want = u.type_pool.index(c.type) + 1
        step = radix ** (n_attrs - 1 - j)
        mask = 0
        for state in range(1, count):
            if (state - 1) // step % radix == want:
                mask |= 1 << state
    else:  # AttrComplete: exactly one matching state
        digits = [0] * n_attrs
        for a, t in c.attrs:
            digits[u.attr_pool.index(a)] = u.type_pool.index(t) + 1
        v = 0
        for d in digits:
            v = v * radix + d
        mask = 1 << (v + 1)
    result = u._con_cache[c] = (ci, mask)
    return result


def _canonical(u: Universe, masks: list) -> Denotation:
    """The universe's one Denotation with these class masks."""
    key = (0,) * len(masks) if 0 in masks else tuple(masks)
    d = u._den_cache.get(key)
    if d is None:
        d = u._den_cache[key] = Denotation(u, key)
    return d


def denotation(m: Model, u: Universe) -> Denotation:
    """The exact set of universe systems satisfying every constraint of m, as
    u's one Denotation object for that set."""
    con_cache = u._con_cache
    masks = [u.full_class_mask] * len(u.class_pool)
    for c in m.constraints:
        ci, cm = con_cache.get(c) or _constraint_mask(u, c)
        masks[ci] &= cm
    return _canonical(u, masks)


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
    classes: list[str] = []
    attrs: list[str] = []
    types: list[str] = []

    def add(pool: list[str], name: str) -> None:
        if name not in pool:
            pool.append(name)

    for m in models:
        for c in m.constraints:
            add(classes, c.cls)
            if isinstance(c, AttrTyped):
                add(attrs, c.attr)
                add(types, c.type)
            elif isinstance(c, AttrComplete):
                for a, t in c.attrs:
                    add(attrs, a)
                    add(types, t)
    # fresh names start with "_", so they cannot repeat a parsed name, and the
    # pool sizes alone decide the cap before any fresh name is built; an
    # empty pool is left for Universe to report
    sizes = (len(classes) + fresh_classes, len(attrs) + fresh_attrs, len(types) + fresh_types)
    if cap is not None and min(sizes) and _count_at_most(*sizes, cap) is None:
        raise UniverseCapError(sizes, cap)
    classes += [f"_C{i}" for i in range(1, fresh_classes + 1)]
    attrs += [f"_a{i}" for i in range(1, fresh_attrs + 1)]
    types += [f"_T{i}" for i in range(1, fresh_types + 1)]
    return Universe(tuple(classes), tuple(attrs), tuple(types), cap=cap)


def universe_from_spec(spec: dict, cap: int | None = DEFAULT_CAP) -> Universe:
    pools = [spec.get(k) for k in ("classes", "attrs", "types")] if isinstance(spec, dict) else [None]
    if not all(isinstance(pool, list) for pool in pools):
        raise UniverseError("universe spec needs 'classes', 'attrs' and 'types' lists")
    for name in itertools.chain(*pools):
        if not isinstance(name, str) or not IDENT_RE.match(name):
            raise UniverseError(f"invalid name in universe spec: {name!r}")
    return Universe(*pools, cap=cap)


def load_universe(path, cap: int | None = DEFAULT_CAP) -> Universe:
    with open(path, encoding="utf-8") as fh:
        try:
            spec = json.load(fh)
        except ValueError as exc:  # malformed JSON or text
            raise UniverseError(f"universe spec {path} is not valid JSON: {exc}") from None
    return universe_from_spec(spec, cap=cap)
