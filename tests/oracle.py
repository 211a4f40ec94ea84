"""Independent ground-truth oracles.

`naive_denotation` literally enumerates every system and evaluates every
constraint against it, one system at a time, with the reference semantics
`enumerate_systems` and `satisfies` defined here.  `EnumOracle` does the same
per-system evaluation vectorized with numpy so it stays usable on the
quarter-million-system default universe.  Neither shares the production
code path, which never enumerates (it works on factored per-class sets).
"""

from __future__ import annotations

import itertools

import numpy as np

from modelalg import (
    AttrComplete,
    AttrTyped,
    ClassExists,
    Model,
    System,
    UniverseError,
    parse_strict,
)

MAX_ENUMERATED_SYSTEMS = 1 << 20


def enumerate_systems(u):
    """All systems in canonical mixed-radix order (first pool class is the
    most significant digit).  Index 0 is the all-absent system."""
    if u.system_count > MAX_ENUMERATED_SYSTEMS:
        raise ValueError(f"universe too large to enumerate: {u.system_count}")
    for states in itertools.product(range(u.class_state_count), repeat=len(u.class_pool)):
        yield System(u, states)


def satisfies(s: System, c) -> bool:
    """Whether system s satisfies constraint c, read off its attribute map."""
    u = s.universe
    pairs = ()
    if isinstance(c, AttrTyped):
        pairs = ((c.attr, c.type),)
    elif isinstance(c, AttrComplete):
        pairs = c.attrs
    for a, t in pairs:
        if a not in u.attr_pool or t not in u.type_pool:
            raise UniverseError(f"{c!r} names an attribute or type not in the universe")
    attrs = s.class_attrs(c.cls)  # raises UniverseError for a class not in the universe
    if isinstance(c, ClassExists):
        return attrs is not None
    if isinstance(c, AttrTyped):
        return attrs is not None and attrs.get(c.attr) == c.type
    return attrs is not None and attrs == dict(c.attrs)


def to_bitset(d) -> int:
    """A denotation as one int, with bit i set for each member system index i."""
    bits = 0
    for idx in d.indices():
        bits |= 1 << idx
    return bits


def naive_denotation(m, u) -> frozenset[int]:
    return frozenset(
        i
        for i, s in enumerate(enumerate_systems(u))
        if all(satisfies(s, c) for c in m.constraints)
    )


def parse_witness(text: str) -> Model:
    return Model(()) if text == "<empty>" else parse_strict(text)


class EnumOracle:
    """Vectorized exhaustive-enumeration semantics for one universe."""

    def __init__(self, u, max_systems: int = MAX_ENUMERATED_SYSTEMS):
        if u.system_count > max_systems:
            raise ValueError(f"universe too large for enumeration oracle: {u.system_count}")
        self.u = u
        n = len(u.class_pool)
        count = u.system_count
        radix_cls = u.class_state_count
        idx = np.arange(count, dtype=np.int64)
        self.digits = np.empty((count, n), dtype=np.int32)
        for i in range(n):
            self.digits[:, i] = (idx // radix_cls ** (n - 1 - i)) % radix_cls
        n_attrs = len(u.attr_pool)
        radix = u.attr_state_radix
        self.present = np.zeros(radix_cls, dtype=bool)
        self.present[1:] = True
        self.attr_digit = np.zeros((radix_cls, n_attrs), dtype=np.int32)
        v = np.arange(radix_cls - 1)
        for j in range(n_attrs):
            self.attr_digit[1:, j] = (v // radix ** (n_attrs - 1 - j)) % radix
        self._cache: dict = {}

    def _constraint_sat(self, c) -> np.ndarray:
        u = self.u
        col = self.digits[:, u.class_pool.index(c.cls)]
        if isinstance(c, ClassExists):
            return self.present[col]
        if isinstance(c, AttrTyped):
            j = u.attr_pool.index(c.attr)
            want = u.type_pool.index(c.type) + 1
            table = self.present & (self.attr_digit[:, j] == want)
            return table[col]
        if not isinstance(c, AttrComplete):
            raise TypeError(f"unknown constraint kind: {type(c).__name__}")
        digits = [0] * len(u.attr_pool)
        for a, t in c.attrs:
            digits[u.attr_pool.index(a)] = u.type_pool.index(t) + 1
        state = 0
        for d in digits:
            state = state * u.attr_state_radix + d
        return col == state + 1

    def den(self, m) -> np.ndarray:
        key = frozenset(m.constraints)
        packed = self._cache.get(key)
        if packed is not None:
            return np.unpackbits(packed, count=self.u.system_count).astype(bool)
        sat = np.ones(self.u.system_count, dtype=bool)
        for c in m.constraints:
            sat &= self._constraint_sat(c)
        if len(self._cache) > 4096:
            self._cache.clear()
        self._cache[key] = np.packbits(sat)
        return sat

    @staticmethod
    def subset(a: np.ndarray, b: np.ndarray) -> bool:
        return not bool((a & ~b).any())

    @staticmethod
    def eq(a: np.ndarray, b: np.ndarray) -> bool:
        return bool((a == b).all())

    @staticmethod
    def count(a: np.ndarray) -> int:
        return int(a.sum())
