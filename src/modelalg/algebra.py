"""The property checker: classifies a composition operator against every row
of the composition-property table (Table 1: the set relations of
`TABLE1_PAIR_ROWS` and the coincidences `Com` and `Ass`) and the
special-elements table (`TABLE2`, all coincidences), audits the tables'
dependency columns, builds the semantic quotient of a corpus, and checks that
composition is a congruence for it.

All verdicts are relative to a finite corpus and universe: a false verdict is
definitive and carries witnesses, kept as the models and sets involved and
rendered when first read; a true verdict means "no counterexample in this
corpus/universe" (with sampling recorded when the check is not exhaustive).
"""

from __future__ import annotations

import itertools
import random
from collections import defaultdict
from dataclasses import dataclass
from functools import lru_cache

from .operators import get_operator
from .semantics import Denotation, Universe, build_universe, count_text, denotation
from .syntax import AttrComplete, AttrTyped, ClassExists, Model, _check_ident, _collector_paused, expand
# render is not called here; perfbench/tracing.py times it under this name too
from .syntax import render  # noqa: F401

MAX_WITNESSES = 10  # a verdict keeps its first failures, rendered when read; associativity stops when both are full
TRIPLE_SAMPLES = 10_000  # associativity checks all n**3 triples if at most this many, else samples this many


# Table 1's set relations as data: (property, failure predicate, relation text,
# the positions in _PAIR_SETS of the sets a witness shows).  The predicate takes
# a pair's sets in _PAIR_SETS order.
_PAIR_SETS = ("sm(op(m1,m2))", "sm(m1)", "sm(m2)", "sm(m1) & sm(m2)")
TABLE1_PAIR_ROWS = (
    ("PP_l", lambda dab, d1, d2, meet: not dab.issubset(d1), "sm(op(m1,m2)) is a subset of sm(m1)", (0, 1, 2)),
    ("PP_r", lambda dab, d1, d2, meet: not dab.issubset(d2), "sm(op(m1,m2)) is a subset of sm(m2)", (0, 1, 2)),
    ("PP", lambda dab, d1, d2, meet: not dab.issubset(meet),
     "sm(op(m1,m2)) is a subset of sm(m1) & sm(m2)", (0, 1, 2)),
    ("FPP", lambda dab, d1, d2, meet: dab is not meet, "sm(op(m1,m2)) equals sm(m1) & sm(m2)", (0, 3)),
    ("CP", lambda dab, d1, d2, meet: dab.is_empty and not meet.is_empty,
     "sm(m1) & sm(m2) nonempty implies sm(op(m1,m2)) nonempty", (3, 0)),
)

# Coincidences as data: a relation and the terms, built from corpus models m1,
# m2, m3 or from a corpus model m1 and a candidate element m, that must all
# coincide, checked syntactically (as the row's property) and semantically (as
# its "_sm" or "_comp" twin).  A third entry names the terms in witnesses.
TABLE1_COINCIDENCES = (
    ("Com", ("op(m1,m2)", "op(m2,m1)")),
    ("Ass", ("op(op(m1,m2),m3)", "op(m1,op(m2,m3))"), ("left", "right")),
)
TABLE2 = (
    ("Rn", ("op(m1,m)", "m1")),
    ("Ln", ("op(m,m1)", "m1")),
    ("N", ("op(m1,m)", "op(m,m1)", "m1")),
    ("Ra", ("op(m1,m)", "m")),
    ("La", ("op(m,m1)", "m")),
    ("A", ("op(m1,m)", "op(m,m1)", "m")),
    ("Ri", ("op(op(m1,m),m)", "op(m1,m)")),
    ("Li", ("op(m,op(m,m1))", "op(m1,m)")),  # as printed in the paper, not op(m,m1)
    ("I", ("op(m,op(m,m1))", "op(op(m1,m),m)", "op(m1,m)")),
)


def _compile(prop: str, twin: str, terms: tuple[str, ...], labels=None) -> tuple:
    """A coincidence row as the checks use it: property, twin, terms, the terms
    compared (a two-term row repeats its last term), the relation texts, the
    name of each term a witness shows (None for a corpus model or element),
    and the names of the terms' sets that a twin witness shows."""
    sm = [f"sm({t})" for t in terms]
    if len(terms) == 2:
        relations = f"{terms[0]} syntactically equals {terms[1]}", f"{sm[0]} equals {sm[1]}"
    else:
        relations = " = ".join(terms) + " syntactically", " = ".join(sm)
    names, sizes = (labels, labels) if labels else (terms, sm)
    shown = tuple(name if t.startswith("op(") else None for t, name in zip(terms, names))
    return (prop, twin, terms, (*terms, terms[-1])[:3], *relations, shown, tuple(sizes))


def _props(rows) -> tuple:
    return (*(row[0] for row in rows), *(row[1] for row in rows))


def _twins(rows) -> tuple:  # a coincidence implies its twin: equal ids denote the same set
    return tuple(((row[0],), "=>", row[1]) for row in rows)


_COM, _ASS = _TABLE1_ROWS = tuple(_compile(p, p + "_sm", *rest) for p, *rest in TABLE1_COINCIDENCES)
_ELEMENT_ROWS = tuple(_compile(p, p + "_comp", terms) for p, terms in TABLE2)
# Table 2's terms as _check_element computes them, and each row with the positions it compares
_ELEMENT_TERMS = ("m1", "m", "op(m1,m)", "op(m,m1)", "op(op(m1,m),m)", "op(m,op(m,m1))")
_ELEMENT_CHECKS = tuple((row, tuple(map(_ELEMENT_TERMS.index, row[3]))) for row in _ELEMENT_ROWS)
TABLE1_PROPS = (*(row[0] for row in TABLE1_PAIR_ROWS), *_props(_TABLE1_ROWS))
TABLE2_PROPS = _props(_ELEMENT_ROWS)

# Table 1's dependency column: (premises, connective, conclusion).
TABLE1_DEPENDENCIES = (
    (("PP_l", "PP_r"), "<=>", "PP"),
    (("FPP",), "=>", "PP"),
    (("FPP",), "=>", "CP"),
    *_twins(_TABLE1_ROWS),
)

# Table 2's dependency column, generated from its rows: a three-term relation
# holds exactly when the two-term relations over its terms do, syntactically
# (k = 0) and semantically (k = 1), and a syntactic relation implies its twin.
_IFFS = [
    ([r for r in _ELEMENT_ROWS if len(r[2]) == 2 and set(r[2]) <= set(row[2])], row)
    for row in _ELEMENT_ROWS
    if len(row[2]) == 3
]
TABLE2_DEPENDENCIES = (
    *((tuple(r[k] for r in pre), "<=>", row[k]) for k in (0, 1) for pre, row in _IFFS),
    *_twins(_ELEMENT_ROWS),
)


@dataclass(frozen=True, slots=True)
class Witness:
    models: tuple[str, ...]  # rendered sources, in quantifier order
    relation: str  # the relation that was expected to hold
    observed: str  # summary of the sets actually computed


@dataclass(frozen=True)
class Verdict:
    prop: str
    holds: bool
    witnesses: tuple[Witness, ...]
    exhaustive: bool
    checked: int  # tuples the quantifier ranges over, also where a settled check stopped early

    def __getattr__(self, name):  # until read, a checker's false verdict keeps `_kept`, see _failures
        if name != "witnesses" or "_kept" not in self.__dict__:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        witnesses = self.__dict__["witnesses"] = tuple([Witness(*failure) for failure in _failures(self)])
        self.__dict__.pop("_kept", None)  # only now: a read that starts meanwhile, say in another thread, renders too
        return witnesses

    def __reduce__(self):  # pickle and copy the rendered witnesses, not the kept models
        return Verdict, (self.prop, self.holds, self.witnesses, self.exhaustive, self.checked)


@dataclass(frozen=True)
class Corpus:
    models: tuple[Model, ...]
    origin: str

    def __post_init__(self):
        object.__setattr__(self, "models", tuple(self.models))
        if not self.models:
            raise ValueError("corpus must be nonempty")


@dataclass(frozen=True)
class Partition:
    corpus: Corpus
    classes: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class OperatorReport:
    operator: str
    universe: Universe
    corpus: Corpus
    table1: dict
    table2: tuple  # ((model index, {prop: Verdict}), ...)
    implication_audit: tuple[str, ...]
    theorems: dict


@dataclass(frozen=True)
class StabilityReport:
    operator: str
    stable: bool
    differing: tuple[str, ...]


class _Composer:
    """The context of one check: an operator, given by name, over a corpus and
    a universe, on interned models.  Each distinct model is interned once, by
    its constraints, to an int id, so two ids are equal exactly when their
    models are syntactically equal.  The corpus is interned on construction;
    `ids` holds its ids in corpus order.  Compositions are memoized per left
    operand, `rows[a][b]` being the id of op(a, b), and each id's denotation
    is computed once.  `den`, and `&` on what it returns, give the universe's
    canonical Denotation objects (one per distinct denotation, see
    `semantics`), so the checks compare semantics by `is`, and compute none
    where the ids already agree (equal ids denote the same set)."""

    def __init__(self, op: str, corpus: Corpus, u: Universe):
        self.op = get_operator(op)
        self.u = u
        self.by_constraints: dict = {}  # constraints -> id
        self.models: list[Model] = []  # id -> model
        self.dens: list = []  # id -> denotation, None until first needed
        self.rows: defaultdict = defaultdict(dict)  # id a -> {id b: id of op(a, b)}, for a ever on the left
        self.ids = [self.intern(m) for m in corpus.models]

    def intern(self, m: Model) -> int:
        i = self.by_constraints.get(m.constraints)
        if i is None:
            i = self.by_constraints[m.constraints] = len(self.models)
            self.models.append(m)
            self.dens.append(None)
        return i

    def __call__(self, a: int, b: int) -> int:
        r = self.rows[a].get(b)
        if r is None:
            r = self.rows[a][b] = self.intern(self.op(self.models[a], self.models[b]))
        return r

    def den(self, i: int) -> Denotation:
        d = self.dens[i]
        if d is None:
            d = self.dens[i] = denotation(self.models[i], self.u)
        return d

    def show(self, i: int) -> str:
        return self.models[i].line


def _failures(v: Verdict) -> list:
    """v's witnesses as (models, relation, observed) texts, for its first read and the JSON writer.  Until
    then a checker's false verdict keeps each failure in `_kept` as (models, relation, names, values), and
    observed is |name|=size for each denotation value, else name=model text for each value named not None."""
    if (kept := v.__dict__.get("_kept")) is None:
        return [(w.models, w.relation, w.observed) for w in v.witnesses]
    return [(models, relation,
             ", ".join([f"|{name}|={count_text(d.size)}" for name, d in zip(names, values)])
             if isinstance(values[0], Denotation) else "; ".join([f"{n}={m.line}" for n, m in zip(names, values) if n]))
            for models, relation, names, values in kept]


def _verdict(prop, failures: list, checked, exhaustive) -> Verdict:
    v = Verdict(prop, not failures, (), exhaustive, checked)
    if failures:  # rendered when read, see _failures
        del v.__dict__["witnesses"]
        v.__dict__["_kept"] = failures
    return v


def _mismatch(comp: _Composer, row: tuple, fails: dict, models: tuple, ids: tuple) -> None:
    """Record models (ids `models`) on which a coincidence row's terms (ids `ids`, two or three)
    do not share one id: the row fails there, and so does its twin where the canonical denotations
    differ too (equal ids denote the same set), each kept with the terms' models or sets and
    rendered when read.  It is still called once both verdicts hold MAX_WITNESSES failures: a full
    verdict skips only its record and, for a twin, the denotation comparison."""
    prop, twin, _, _, relation, twin_relation, shown, sizes = row
    if len(fails[prop]) < MAX_WITNESSES:
        fails[prop].append((tuple(map(comp.show, models)), relation, shown, tuple(map(comp.models.__getitem__, ids))))
    if len(fails[twin]) < MAX_WITNESSES and not comp.den(ids[0]) is comp.den(ids[1]) is comp.den(ids[-1]):
        fails[twin].append((tuple(map(comp.show, models)), twin_relation, sizes, tuple(map(comp.den, ids))))


@lru_cache(maxsize=8)
def _sample_triples(n: int, seed: int) -> tuple:
    """The seeded associativity sample, drawn once per (n, seed) and shared:
    every operator classified over one corpus checks the same triples."""
    rng = random.Random(seed)
    return tuple((rng.randrange(n), rng.randrange(n), rng.randrange(n)) for _ in range(TRIPLE_SAMPLES))


# --- table 1 ---------------------------------------------------------------


def _check_pairs(comp: _Composer) -> dict:
    """Every TABLE1_PAIR_ROWS verdict and Com's, from one row-major pass over the corpus pairs."""
    n = len(comp.ids)
    fails: dict[str, list] = {p: [] for p in TABLE1_PROPS}
    for i, a in enumerate(comp.ids):
        da = comp.den(a)  # sm(m1), once per row
        for j, b in enumerate(comp.ids):
            ab, db = comp(a, b), comp.den(b)
            sets = comp.den(ab), da, db, da & db  # in _PAIR_SETS order
            for prop, failed, relation, shown in TABLE1_PAIR_ROWS:
                if len(fails[prop]) < MAX_WITNESSES and failed(*sets):
                    fails[prop].append(((comp.show(a), comp.show(b)), relation,
                                        tuple(_PAIR_SETS[k] for k in shown), tuple(sets[k] for k in shown)))
            if i < j and ab != (ba := comp(b, a)):
                _mismatch(comp, _COM, fails, (a, b), (ab, ba))
    return {**{prop: _verdict(prop, fails[prop], n * n, True) for prop, *_ in TABLE1_PAIR_ROWS},
            **{p: _verdict(p, fails[p], n * (n - 1) // 2, True) for p in _COM[:2]}}


# nothing in src/ calls these names; perfbench/tracing.py rebinds them to time the pair pass
_check_pp = _check_fpp = _check_cp = _check_commutativity = _check_pairs


def _check_associativity(comp: _Composer, seed: int) -> dict:
    ids = comp.ids
    n = len(ids)
    # op(m_i, m_j) for every pair, memo hits after the pair pass, so a triple composes twice
    pairs = [[comp(a, b) for b in ids] for a in ids]
    if n**3 <= TRIPLE_SAMPLES:
        triples = itertools.product(range(n), repeat=3)
        exhaustive, checked = True, n**3
    else:
        triples = _sample_triples(n, seed)
        exhaustive, checked = False, TRIPLE_SAMPLES
    fails: dict[str, list] = {p: [] for p in _ASS[:2]}
    for i, j, k in triples:
        left = comp(pairs[i][j], ids[k])
        right = comp(ids[i], pairs[j][k])
        if left != right:
            _mismatch(comp, _ASS, fails, (ids[i], ids[j], ids[k]), (left, right))
            if len(fails["Ass_sm"]) == MAX_WITNESSES:  # an Ass_sm failure is an Ass failure, so both are settled
                break
    return {p: _verdict(p, fails[p], checked, exhaustive) for p in _ASS[:2]}


# --- table 2 ---------------------------------------------------------------


def _check_element(comp: _Composer, e: int) -> dict:
    """Table 2 for the candidate element with id e, against every corpus model."""
    fails: dict[str, list] = {p: [] for p in TABLE2_PROPS}
    for i in comp.ids:
        rm, lm = comp(i, e), comp(e, i)
        terms = (i, e, rm, lm, comp(rm, e), comp(e, lm))
        models = (i, e)
        for row, (a, b, c) in _ELEMENT_CHECKS:
            x, y, z = terms[a], terms[b], terms[c]
            if not x == y == z:
                _mismatch(comp, row, fails, models, (x, y, z))
    return {p: _verdict(p, fails[p], len(comp.ids), True) for p in TABLE2_PROPS}


# --- public single checks --------------------------------------------------


def check_pairs(op, corpus: Corpus, u: Universe) -> dict:
    return _check_pairs(_Composer(op, corpus, u))


def check_associativity(op, corpus: Corpus, u: Universe, seed: int = 42) -> dict:
    return _check_associativity(_Composer(op, corpus, u), seed)


def check_element(op, m: Model, corpus: Corpus, u: Universe) -> dict:
    comp = _Composer(op, corpus, u)
    return _check_element(comp, comp.intern(m))


# --- quotient and congruence ----------------------------------------------


def quotient(corpus: Corpus, u: Universe) -> Partition:
    """Corpus models grouped by equal denotation; class order follows the
    first member's corpus index."""
    groups: dict = {}
    for i, m in enumerate(corpus.models):
        groups.setdefault(denotation(m, u), []).append(i)
    return Partition(corpus, tuple(tuple(v) for v in groups.values()))


def _congruence(comp: _Composer, partition: Partition) -> Verdict:
    """Congruence over a partition of the composer's corpus."""
    ids = comp.ids
    failures = []
    checked = 0
    for ci in partition.classes:
        for cj in partition.classes:
            ri, rj = ids[ci[0]], ids[cj[0]]
            dr = comp.den(comp(ri, rj))
            for a in ci:
                for b in cj:
                    checked += 1
                    d = comp.den(comp(ids[a], ids[b]))
                    if d is not dr and len(failures) < MAX_WITNESSES:
                        failures.append(((comp.show(ids[a]), comp.show(ids[b]), comp.show(ri), comp.show(rj)),
                                         "sm(op(ma,mb)) equals sm(op(rep_i,rep_j)) for all"
                                         " representatives ma, mb of the two classes",
                                         ("sm(op(ma,mb))", "sm(op(rep_i,rep_j))"), (d, dr)))
    return _verdict("congruence", failures, checked, True)


def congruence_check(op, partition: Partition, u: Universe) -> Verdict:
    return _congruence(_Composer(op, partition.corpus, u), partition)


# --- implication audit -----------------------------------------------------


def _implication_audit(table1: dict, table2) -> tuple[str, ...]:
    checks = [("", TABLE1_DEPENDENCIES, table1)]
    checks += [(f"element {idx}: ", TABLE2_DEPENDENCIES, props) for idx, props in table2]
    bad = []
    for tag, dependencies, verdicts in checks:
        for premises, connective, conclusion in dependencies:
            a = all(verdicts[p].holds for p in premises)
            b = verdicts[conclusion].holds
            if (a != b) if connective == "<=>" else (a and not b):
                bad.append(f"{tag}{' & '.join(premises)} {connective} {conclusion}")
    return tuple(bad)


# --- classification --------------------------------------------------------


@_collector_paused
def classify(op_id: str, corpus: Corpus, u: Universe, seed: int = 42) -> OperatorReport:
    comp = _Composer(op_id, corpus, u)
    table1 = {**_check_pairs(comp), **_check_associativity(comp, seed)}
    table1 = {p: table1[p] for p in TABLE1_PROPS}

    table2 = tuple((i, _check_element(comp, e)) for i, e in enumerate(comp.ids))

    audit = _implication_audit(table1, table2)

    part = quotient(corpus, u)
    cong = _congruence(comp, part)
    fpp = table1["FPP"].holds
    i_comp_all = all(props["I_comp"].holds for _, props in table2)
    theorems = {
        "t1": {
            "applicable": fpp,
            "holds": (not fpp)
            or (table1["Com_sm"].holds and table1["Ass_sm"].holds and i_comp_all),
        },
        "t2": {
            "applicable": fpp,
            "congruence": cong.holds,
            "holds": (not fpp) or cong.holds,
        },
    }
    return OperatorReport(op_id, u, corpus, table1, table2, audit, theorems)


# --- corpus generation -----------------------------------------------------


@dataclass(frozen=True)
class CorpusBounds:
    class_names: tuple[str, ...]
    attr_names: tuple[str, ...]
    type_names: tuple[str, ...]
    include_complete: bool = False

    def __post_init__(self):  # generated models are expanded from these names without validation
        for what, names in (("class", self.class_names), ("attribute", self.attr_names), ("type", self.type_names)):
            for i, name in enumerate(names):
                _check_ident(name, what)
                if name in names[:i]:  # it would expand distinct choices to one model
                    raise ValueError(f"duplicate {what} {name!r} in corpus bounds")


DEFAULT_BOUNDS = CorpusBounds(
    class_names=("Person", "Account"),
    attr_names=("name", "age"),
    type_names=("String", "Int"),
    include_complete=True,
)


def _class_states(bounds: CorpusBounds) -> list:
    """Canonical per-class states: absent, or an attribute map with an
    optional completeness flag."""
    states: list = [None]
    for combo in itertools.product((None, *bounds.type_names), repeat=len(bounds.attr_names)):
        pairs = tuple((a, t) for a, t in zip(bounds.attr_names, combo) if t is not None)
        states.append((pairs, False))
        if bounds.include_complete:
            states.append((pairs, True))
    return states


def _model_at(bounds: CorpusBounds, states: list, index: int) -> Model:
    digits = []
    for _ in bounds.class_names:
        digits.append(index % len(states))
        index //= len(states)
    digits.reverse()
    decls = [(cls, *states[d]) for cls, d in zip(bounds.class_names, digits) if states[d] is not None]
    return Model._trusted(expand(decls))


def _contradictory_model(bounds: CorpusBounds) -> Model | None:
    """An attribute typed two ways, or typed and left out of a completeness constraint, if expressible."""
    if not (bounds.class_names and bounds.attr_names and bounds.type_names):
        return None
    cls, attr, types = bounds.class_names[0], bounds.attr_names[0], bounds.type_names
    typed = (ClassExists(cls), AttrTyped(cls, attr, types[0]))
    if len(types) >= 2:
        return Model(typed + (AttrTyped(cls, attr, types[1]),))
    return Model(typed + (AttrComplete(cls, ()),)) if bounds.include_complete else None


def generate_corpus(
    bounds: CorpusBounds,
    seed: int = 42,
    max_models: int = 40,
    extra_models: tuple[Model, ...] = (),
    inject_variants: bool = False,
) -> Corpus:
    """Deterministic corpus within the given bounds: full enumeration when it
    fits into max_models, else seeded sampling.  Always contains the empty
    model, and a contradictory model whenever one is expressible."""
    states = _class_states(bounds)
    total = len(states) ** len(bounds.class_names)
    models: dict = {}  # constraints -> the first model with them

    def add(m: Model) -> None:
        models.setdefault(m.constraints, m)

    add(Model(()))
    for m in extra_models:
        add(m)
    contradictory = _contradictory_model(bounds)
    if contradictory is not None:
        add(contradictory)
    if total <= max_models:
        for i in range(total):
            add(_model_at(bounds, states, i))
    else:
        rng = random.Random(seed)
        while len(models) < max_models:
            add(_model_at(bounds, states, rng.randrange(total)))
    if inject_variants:
        rich = [m for m in models.values() if len(m.constraints) >= 2][:3]
        for m in rich:
            add(Model(tuple(reversed(m.constraints))))
            add(Model(m.constraints + (m.constraints[0],)))
    origin = (
        f"generated(seed={seed},classes={len(bounds.class_names)},"
        f"attrs={len(bounds.attr_names)},types={len(bounds.type_names)},"
        f"complete={bounds.include_complete},n={len(models)})"
    )
    return Corpus(tuple(models.values()), origin)


def default_corpus(seed: int = 42) -> Corpus:
    """The default checking corpus: seeded samples within the default bounds
    plus hand-picked merge scenarios and permutation/duplication variants."""
    person = "Person"
    seeds = (
        Model((ClassExists(person), AttrTyped(person, "name", "String"))),
        Model((ClassExists(person), AttrTyped(person, "age", "Int"))),
        Model((ClassExists(person), AttrTyped(person, "name", "Int"))),
        Model((ClassExists(person), AttrTyped(person, "name", "String"), AttrTyped(person, "age", "Int"))),
    )
    return generate_corpus(
        DEFAULT_BOUNDS, seed=seed, max_models=30, extra_models=seeds, inject_variants=True
    )


# --- stability -------------------------------------------------------------


def _flat_verdicts(report: OperatorReport) -> dict[str, bool]:
    flat = {f"table1.{p}": v.holds for p, v in report.table1.items()}
    for idx, props in report.table2:
        for p, v in props.items():
            flat[f"table2[{idx}].{p}"] = v.holds
    flat["theorems.t1"] = report.theorems["t1"]["holds"]
    flat["theorems.t2"] = report.theorems["t2"]["holds"]
    return flat


def stability_check(op_id: str, corpus: Corpus, seed: int = 42) -> StabilityReport:
    """Re-classify under 1/0/1 and 1/1/1 fresh-name padding and compare every
    boolean verdict, listing those that differ in report order: past one
    unnamed pool attribute, only an exact map fixes every attribute, and it
    fixes that one absent, so no verdict depends on the pool sizes (see
    `semantics`).  A corpus that names no attribute has no padding-0
    universe, and is stable: it has an unnamed attribute at any padding."""
    u1 = build_universe(corpus.models, 1, 1, 1)
    if len(u1.attr_pool) == 1:  # only the fresh attribute
        return StabilityReport(op_id, True, ())
    f0 = _flat_verdicts(classify(op_id, corpus, build_universe(corpus.models, 1, 0, 1), seed))
    f1 = _flat_verdicts(classify(op_id, corpus, u1, seed))
    differing = tuple(k for k in f0 if f0[k] != f1[k])
    return StabilityReport(op_id, not differing, differing)
