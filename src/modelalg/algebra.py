"""The property checker: classifies a composition operator against every row
of the composition-property table and the special-elements table, audits the
tables' dependency columns, builds the semantic quotient of a corpus, and
checks that composition is a congruence for it.

All verdicts are relative to a finite corpus and universe: a false verdict is
definitive and carries witnesses; a true verdict means "no counterexample in
this corpus/universe" (with sampling recorded when the check is not
exhaustive).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import lru_cache

from .operators import Operator, get_operator
from .semantics import Denotation, Universe, build_universe, denotation
from .syntax import (
    AttrComplete,
    AttrTyped,
    ClassExists,
    Model,
    expand,
    render,
)

MAX_WITNESSES = 10
TRIPLE_SAMPLES = 10_000
EXHAUSTIVE_TRIPLE_LIMIT = 20

TABLE1_PROPS = ("PP_l", "PP_r", "PP", "FPP", "CP", "Com", "Ass", "Com_sm", "Ass_sm")

# Table 2 as data.  Each row names a special-element relation and the terms,
# built from a corpus model m1 and the candidate element m, that must all
# coincide.  Every row is checked syntactically (as the row's property) and
# semantically (as its "_comp" twin).
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
TABLE2_PROPS = tuple(p for p, _ in TABLE2) + tuple(p + "_comp" for p, _ in TABLE2)

# Table 1's dependency column: (premises, connective, conclusion).
TABLE1_DEPENDENCIES = (
    (("PP_l", "PP_r"), "<=>", "PP"),
    (("FPP",), "=>", "PP"),
    (("FPP",), "=>", "CP"),
    (("Com",), "=>", "Com_sm"),
    (("Ass",), "=>", "Ass_sm"),
)

# Table 2's dependency column, generated from TABLE2: a three-term relation
# holds exactly when the two-term relations over its terms do, syntactically
# and semantically, and a syntactic relation implies its semantic twin.
_IFFS = [
    (tuple(p for p, pair in TABLE2 if len(pair) == 2 and set(pair) <= set(terms)), prop)
    for prop, terms in TABLE2
    if len(terms) == 3
]
TABLE2_DEPENDENCIES = (
    *((pre, "<=>", prop) for pre, prop in _IFFS),
    *((tuple(p + "_comp" for p in pre), "<=>", prop + "_comp") for pre, prop in _IFFS),
    *(((p,), "=>", p + "_comp") for p, _ in TABLE2),
)


@dataclass(frozen=True)
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
    checked: int  # tuples examined


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

    @property
    def representatives(self) -> tuple[int, ...]:
        return tuple(cls[0] for cls in self.classes)


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


def _show(m: Model) -> str:
    text = render(m).replace("\n", " ").strip()
    return text or "<empty>"


class _Composer:
    """The context of one check: an operator (given by name or as a callable)
    over a corpus and a universe, on interned models.  Each distinct model is
    interned once, by its constraints, to an int id, so two ids are equal
    exactly when their models are syntactically equal.  The corpus is interned
    on construction; `ids` holds its ids in corpus order.  Compositions are
    memoized by id pair, and each id's denotation is computed once.  `den` and
    `meet` return the universe's canonical Denotation objects (one per distinct
    denotation, see `semantics`), so the checks compare semantics by `is`, and
    compute none where the ids already agree (equal ids denote the same set)."""

    def __init__(self, op: str | Operator, corpus: Corpus, u: Universe):
        self.op = get_operator(op) if isinstance(op, str) else op
        self.u = u
        self.by_constraints: dict = {}  # constraints -> id
        self.models: list[Model] = []  # id -> model
        self.dens: list = []  # id -> denotation, None until first needed
        self.meets: dict = {}  # (id, id) -> den(a) & den(b)
        self.texts: dict = {}  # id -> one-line source, for the ids a witness shows
        self.results: dict = {}  # (id, id) -> id of the composition
        self.ids = [self.intern(m) for m in corpus.models]

    def intern(self, m: Model) -> int:
        i = self.by_constraints.get(m.constraints)
        if i is None:
            i = self.by_constraints[m.constraints] = len(self.models)
            self.models.append(m)
            self.dens.append(None)
        return i

    def __call__(self, a: int, b: int) -> int:
        r = self.results.get((a, b))
        if r is None:
            r = self.results[a, b] = self.intern(self.op(self.models[a], self.models[b]))
        return r

    def den(self, i: int) -> Denotation:
        d = self.dens[i]
        if d is None:
            d = self.dens[i] = denotation(self.models[i], self.u)
        return d

    def meet(self, a: int, b: int) -> Denotation:
        d = self.meets.get((a, b))
        if d is None:
            d = self.meets[a, b] = self.den(a) & self.den(b)
        return d

    def show(self, i: int) -> str:
        t = self.texts.get(i)
        if t is None:
            t = self.texts[i] = _show(self.models[i])
        return t


def _keep(witnesses: list, make) -> None:
    """Record one failing tuple.  Its witness is built, by make(), only while
    the verdict keeps fewer than MAX_WITNESSES, so the kept witnesses are the
    first failures in iteration order and no other witness is built."""
    if len(witnesses) < MAX_WITNESSES:
        witnesses.append(make())


def _verdict(prop, witnesses, checked, exhaustive) -> Verdict:
    return Verdict(prop, not witnesses, tuple(witnesses), exhaustive, checked)


@lru_cache(maxsize=8)
def _sample_triples(n: int, seed: int, count: int = TRIPLE_SAMPLES) -> tuple:
    """The seeded associativity sample, drawn once per (n, seed, count) and
    shared: every operator classified over one corpus checks the same triples."""
    rng = random.Random(seed)
    return tuple((rng.randrange(n), rng.randrange(n), rng.randrange(n)) for _ in range(count))


# --- table 1 ---------------------------------------------------------------


def _check_pp(comp: _Composer) -> dict:
    wl, wr, wb = [], [], []
    for a in comp.ids:
        for b in comp.ids:
            dc, d1, d2 = comp.den(comp(a, b)), comp.den(a), comp.den(b)
            rows = (wl, d1, "sm(m1)"), (wr, d2, "sm(m2)"), (wb, comp.meet(a, b), "sm(m1) & sm(m2)")
            for kept, bound, name in rows:
                if not dc.issubset(bound):
                    _keep(kept, lambda: Witness(
                        (comp.show(a), comp.show(b)), f"sm(op(m1,m2)) is a subset of {name}",
                        f"|sm(op(m1,m2))|={dc.size}, |sm(m1)|={d1.size}, |sm(m2)|={d2.size}"))
    n2 = len(comp.ids) ** 2
    return {
        "PP_l": _verdict("PP_l", wl, n2, True),
        "PP_r": _verdict("PP_r", wr, n2, True),
        "PP": _verdict("PP", wb, n2, True),
    }


def _check_fpp(comp: _Composer) -> Verdict:
    failures = []
    for a in comp.ids:
        for b in comp.ids:
            dc, di = comp.den(comp(a, b)), comp.meet(a, b)
            if dc is not di:
                _keep(failures, lambda: Witness(
                    (comp.show(a), comp.show(b)), "sm(op(m1,m2)) equals sm(m1) & sm(m2)",
                    f"|sm(op(m1,m2))|={dc.size}, |sm(m1) & sm(m2)|={di.size}"))
    return _verdict("FPP", failures, len(comp.ids) ** 2, True)


def _check_cp(comp: _Composer) -> Verdict:
    failures = []
    for a in comp.ids:
        for b in comp.ids:
            di = comp.meet(a, b)
            if di.is_empty:
                continue
            if comp.den(comp(a, b)).is_empty:
                _keep(failures, lambda: Witness(
                    (comp.show(a), comp.show(b)),
                    "sm(m1) & sm(m2) nonempty implies sm(op(m1,m2)) nonempty",
                    f"|sm(m1) & sm(m2)|={di.size}, |sm(op(m1,m2))|=0"))
    return _verdict("CP", failures, len(comp.ids) ** 2, True)


def _check_commutativity(comp: _Composer) -> dict:
    syn, sem = [], []
    ids = comp.ids
    n = len(ids)
    for i in range(n):
        for j in range(i + 1, n):
            a, b = ids[i], ids[j]
            ab, ba = comp(a, b), comp(b, a)
            if ab != ba:
                _keep(syn, lambda: Witness(
                    (comp.show(a), comp.show(b)), "op(m1,m2) syntactically equals op(m2,m1)",
                    f"op(m1,m2)={comp.show(ab)}; op(m2,m1)={comp.show(ba)}"))
                da, db = comp.den(ab), comp.den(ba)
                if da is not db:
                    _keep(sem, lambda: Witness(
                        (comp.show(a), comp.show(b)), "sm(op(m1,m2)) equals sm(op(m2,m1))",
                        f"|sm(op(m1,m2))|={da.size}, |sm(op(m2,m1))|={db.size}"))
    checked = n * (n - 1) // 2
    return {
        "Com": _verdict("Com", syn, checked, True),
        "Com_sm": _verdict("Com_sm", sem, checked, True),
    }


def _check_associativity(comp: _Composer, seed: int) -> dict:
    ids = comp.ids
    n = len(ids)
    if n <= EXHAUSTIVE_TRIPLE_LIMIT:
        triples = itertools.product(range(n), repeat=3)
        exhaustive, checked = True, n**3
    else:
        triples = _sample_triples(n, seed)
        exhaustive, checked = False, TRIPLE_SAMPLES
    syn, sem = [], []
    for i, j, k in triples:
        a, b, c = ids[i], ids[j], ids[k]
        left = comp(comp(a, b), c)
        right = comp(a, comp(b, c))
        if left != right:
            _keep(syn, lambda: Witness(
                (comp.show(a), comp.show(b), comp.show(c)),
                "op(op(m1,m2),m3) syntactically equals op(m1,op(m2,m3))",
                f"left={comp.show(left)}; right={comp.show(right)}"))
            dl, dr = comp.den(left), comp.den(right)
            if dl is not dr:
                _keep(sem, lambda: Witness(
                    (comp.show(a), comp.show(b), comp.show(c)),
                    "sm(op(op(m1,m2),m3)) equals sm(op(m1,op(m2,m3)))",
                    f"|left|={dl.size}, |right|={dr.size}"))
    return {
        "Ass": _verdict("Ass", syn, checked, exhaustive),
        "Ass_sm": _verdict("Ass_sm", sem, checked, exhaustive),
    }


# --- table 2 ---------------------------------------------------------------


def _element_row(prop: str, terms: tuple[str, ...]) -> tuple:
    """A TABLE2 row as _check_element uses it: the terms, the terms compared
    (a two-term row repeats its last term, so that every row compares three),
    the composition terms a syntactic witness shows, and the syntactic and
    semantic relation texts."""
    sm = [f"sm({t})" for t in terms]
    if len(terms) == 2:
        relations = f"{terms[0]} syntactically equals {terms[1]}", f"{sm[0]} equals {sm[1]}"
    else:
        relations = " = ".join(terms) + " syntactically", " = ".join(sm)
    shown = [t for t in terms if t.startswith("op(")]
    return prop, terms, (*terms, terms[-1])[:3], shown, *relations


_ELEMENT_ROWS = [_element_row(prop, terms) for prop, terms in TABLE2]


def _check_element(comp: _Composer, e: int) -> dict:
    """Table 2 for the candidate element with id e, against every corpus model."""
    fails: dict[str, list[Witness]] = {p: [] for p in TABLE2_PROPS}
    for i in comp.ids:
        rm, lm = comp(i, e), comp(e, i)
        terms = {"m1": i, "m": e, "op(m1,m)": rm, "op(m,m1)": lm,
                 "op(op(m1,m),m)": comp(rm, e), "op(m,op(m,m1))": comp(e, lm)}
        for prop, names, (a, b, c), shown, syn_relation, sem_relation in _ELEMENT_ROWS:
            x, y, z = terms[a], terms[b], terms[c]
            if not x == y == z:
                _keep(fails[prop], lambda: Witness(
                    (comp.show(i), comp.show(e)), syn_relation,
                    "; ".join([f"{t}={comp.show(terms[t])}" for t in shown])))
                if not comp.den(x) is comp.den(y) is comp.den(z):
                    _keep(fails[prop + "_comp"], lambda: Witness(
                        (comp.show(i), comp.show(e)), sem_relation,
                        ", ".join([f"|sm({t})|={comp.den(terms[t]).size}" for t in names])))
    return {p: _verdict(p, fails[p], len(comp.ids), True) for p in TABLE2_PROPS}


# --- public single checks --------------------------------------------------


def check_pp(op, corpus: Corpus, u: Universe) -> dict:
    return _check_pp(_Composer(op, corpus, u))


def check_fpp(op, corpus: Corpus, u: Universe) -> Verdict:
    return _check_fpp(_Composer(op, corpus, u))


def check_cp(op, corpus: Corpus, u: Universe) -> Verdict:
    return _check_cp(_Composer(op, corpus, u))


def check_commutativity(op, corpus: Corpus, u: Universe) -> dict:
    return _check_commutativity(_Composer(op, corpus, u))


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
                    if d is not dr:
                        _keep(failures, lambda: Witness(
                            (comp.show(ids[a]), comp.show(ids[b]), comp.show(ri), comp.show(rj)),
                            "sm(op(ma,mb)) equals sm(op(rep_i,rep_j)) for all"
                            " representatives ma, mb of the two classes",
                            f"|sm(op(ma,mb))|={d.size}, |sm(op(rep_i,rep_j))|={dr.size}"))
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


def classify(op_id: str, corpus: Corpus, u: Universe, seed: int = 42) -> OperatorReport:
    comp = _Composer(op_id, corpus, u)
    table1 = {**_check_pp(comp), "FPP": _check_fpp(comp), "CP": _check_cp(comp),
              **_check_commutativity(comp), **_check_associativity(comp, seed)}
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
    return Model(expand(decls))


def _contradictory_model(bounds: CorpusBounds) -> Model | None:
    cls = bounds.class_names[0]
    attr = bounds.attr_names[0] if bounds.attr_names else None
    if attr is not None and len(bounds.type_names) >= 2:
        t1, t2 = bounds.type_names[0], bounds.type_names[1]
        return Model((ClassExists(cls), AttrTyped(cls, attr, t1), AttrTyped(cls, attr, t2)))
    if attr is not None and bounds.include_complete:
        return Model((ClassExists(cls), AttrTyped(cls, attr, bounds.type_names[0]), AttrComplete(cls, ())))
    return None


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
    models: list[Model] = []
    seen: set = set()

    def add(m: Model) -> None:
        if m.constraints not in seen:
            seen.add(m.constraints)
            models.append(m)

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
        rich = [m for m in models if len(m.constraints) >= 2][:3]
        for m in rich:
            add(Model(tuple(reversed(m.constraints))))
            add(Model(m.constraints + (m.constraints[0],)))
    origin = (
        f"generated(seed={seed},classes={len(bounds.class_names)},"
        f"attrs={len(bounds.attr_names)},types={len(bounds.type_names)},"
        f"complete={bounds.include_complete},n={len(models)})"
    )
    return Corpus(tuple(models), origin)


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
    """Re-classify under 1/1/1 and 2/2/2 fresh-name padding and compare every
    boolean verdict.  The padded universe is exempted from the enumeration cap
    because denotations stay in factored form."""
    u1 = build_universe(corpus.models, 1, 1, 1)
    u2 = build_universe(corpus.models, 2, 2, 2, cap=None)
    f1 = _flat_verdicts(classify(op_id, corpus, u1, seed))
    f2 = _flat_verdicts(classify(op_id, corpus, u2, seed))
    differing = tuple(sorted(k for k in f1 if f1[k] != f2[k]))
    return StabilityReport(op_id, not differing, differing)
