"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Every numeric or boolean claim here is exact (zero tolerance). Verdicts
produced by the checker are re-validated against the independent
enumeration oracle in tests/oracle.py wherever a criterion demands it.
"""

import hashlib
import random
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

import modelalg
from modelalg import (
    AttrComplete,
    AttrTyped,
    ClassExists,
    Model,
    Universe,
    build_universe,
    classify,
    congruence_check,
    default_corpus,
    denotation,
    get_operator,
    parse,
    quotient,
    render,
    semantically_eq,
    union_merge,
)
from modelalg.algebra import _flat_verdicts
from modelalg.operators import OPERATORS
from modelalg.report import report_to_json, report_to_text

from .oracle import EnumOracle, parse_witness
from .strategies import ATTRS, CLASSES, TINY_UNIVERSE, TYPES
from .test_syntax import SOUP

ALL_OPS = ("union", "strict", "override", "intersect", "paranoid")


def _line(num: int, label: str, ok: bool) -> None:
    # bypass pytest capture so the per-criterion line always reaches the log
    print(f"[acceptance {num}] {label}: {'PASS' if ok else 'FAIL'}", file=sys.__stdout__)


@pytest.fixture(scope="module")
def corpus():
    return default_corpus()


@pytest.fixture(scope="module")
def universe(corpus):
    return build_universe(corpus.models)


@pytest.fixture(scope="module")
def oracle(universe):
    return EnumOracle(universe)


@pytest.fixture(scope="module")
def reports(corpus, universe):
    out = {}
    for op in ALL_OPS:
        start = time.monotonic()
        out[op] = classify(op, corpus, universe)
        out[f"{op}_seconds"] = time.monotonic() - start
    return out


def _oracle_den(oracle, op, m1, m2):
    return oracle.den(get_operator(op)(m1, m2))


def test_criterion_1_union_classification(corpus, universe, oracle, reports):
    rep = reports["union"]
    t1 = rep.table1
    ok = t1["FPP"].holds and t1["Com_sm"].holds and t1["Ass_sm"].holds
    ok = ok and all(props["I_comp"].holds for _, props in rep.table2)
    ok = ok and reports["union_seconds"] < 60.0

    # oracle agreement, verdict for verdict
    dens = {m: oracle.den(m) for m in corpus.models}
    ok = ok and all(
        oracle.eq(_oracle_den(oracle, "union", a, b), dens[a] & dens[b])
        for a in corpus.models
        for b in corpus.models
    )
    ok = ok and all(
        oracle.eq(
            _oracle_den(oracle, "union", a, b), _oracle_den(oracle, "union", b, a)
        )
        for i, a in enumerate(corpus.models)
        for b in corpus.models[i + 1 :]
    )
    rng = random.Random(42)
    n = len(corpus.models)
    for _ in range(300):
        a, b, c = (corpus.models[rng.randrange(n)] for _ in range(3))
        left = union_merge(union_merge(a, b), c)
        right = union_merge(a, union_merge(b, c))
        if not oracle.eq(oracle.den(left), oracle.den(right)):
            ok = False
            break
    ok = ok and all(oracle.eq(_oracle_den(oracle, "union", m, m), dens[m]) for m in corpus.models)

    _line(1, "union is FPP, Com_sm, Ass_sm, I_comp on the default corpus", ok)
    assert ok


def test_criterion_2_congruence_and_quotient(corpus, universe):
    part = quotient(corpus, universe)
    ok = congruence_check("union", part, universe).holds

    # every injected permutation/duplication variant shares a class with
    # some other corpus model, so no variant sits in a singleton class
    by_index = {i: cls for cls in part.classes for i in cls}
    for i, m in enumerate(corpus.models):
        variant_of = [
            j
            for j, other in enumerate(corpus.models)
            if j != i and set(other.constraints) == set(m.constraints)
        ]
        if variant_of and not all(j in by_index[i] for j in variant_of):
            ok = False
    _line(2, "union composition is a congruence and variants collapse in the quotient", ok)
    assert ok


def test_criterion_3_lattice_coverage(oracle, reports):
    checks = []

    strict = reports["strict"].table1
    checks.append(strict["PP"].holds and not strict["FPP"].holds and strict["FPP"].witnesses)
    for w in strict["FPP"].witnesses:
        m1, m2 = (parse_witness(t) for t in w.models[:2])
        got = _oracle_den(oracle, "strict", m1, m2)
        checks.append(not oracle.eq(got, oracle.den(m1) & oracle.den(m2)))

    override = reports["override"].table1
    checks.append(override["PP_r"].holds and not override["PP_l"].holds and override["PP_l"].witnesses)
    for w in override["PP_l"].witnesses:
        m1, m2 = (parse_witness(t) for t in w.models[:2])
        got = _oracle_den(oracle, "override", m1, m2)
        checks.append(not oracle.subset(got, oracle.den(m1)))

    intersect = reports["intersect"].table1
    checks.append(not intersect["PP"].holds and intersect["PP"].witnesses)
    for w in intersect["PP"].witnesses:
        m1, m2 = (parse_witness(t) for t in w.models[:2])
        got = _oracle_den(oracle, "intersect", m1, m2)
        checks.append(not oracle.subset(got, oracle.den(m1) & oracle.den(m2)))

    paranoid = reports["paranoid"].table1
    checks.append(not paranoid["CP"].holds and paranoid["CP"].witnesses)
    named_pair = ("class Person { name: String }", "class Person { age: Int }")
    checks.append(any(w.models[:2] == named_pair for w in paranoid["CP"].witnesses))
    for w in paranoid["CP"].witnesses:
        m1, m2 = (parse_witness(t) for t in w.models[:2])
        d1, d2 = oracle.den(m1), oracle.den(m2)
        checks.append(oracle.count(d1) > 0 and oracle.count(d2) > 0)
        checks.append(oracle.count(d1 & d2) > 0)
        checks.append(oracle.count(_oracle_den(oracle, "paranoid", m1, m2)) == 0)

    ok = all(bool(c) for c in checks)
    _line(3, "the five operators cover distinct property-lattice cells with sound witnesses", ok)
    assert ok


def test_criterion_4_special_elements(corpus, universe, oracle, reports):
    rep = reports["union"]
    table2 = dict(rep.table2)
    empty_idx = corpus.models.index(Model(()))
    contra_idx = next(
        i for i, m in enumerate(corpus.models) if denotation(m, universe).is_empty
    )

    empty_row = table2[empty_idx]
    contra_row = table2[contra_idx]
    ok = empty_row["N_comp"].holds and empty_row["Rn"].holds and empty_row["Ln"].holds
    ok = ok and contra_row["A_comp"].holds

    empty, contra = corpus.models[empty_idx], corpus.models[contra_idx]
    for m in corpus.models:
        dm = oracle.den(m)
        ok = ok and oracle.eq(_oracle_den(oracle, "union", m, empty), dm)
        ok = ok and oracle.eq(_oracle_den(oracle, "union", empty, m), dm)
        dc = oracle.den(contra)
        ok = ok and oracle.eq(_oracle_den(oracle, "union", m, contra), dc)
        ok = ok and oracle.eq(_oracle_den(oracle, "union", contra, m), dc)
    _line(4, "empty model is the neutral element and the contradiction absorbs, per oracle", ok)
    assert ok


def test_criterion_5_commutative_only_semantically(universe, oracle, reports):
    t1 = reports["union"].table1
    ok = not t1["Com"].holds and t1["Com_sm"].holds and t1["Com"].witnesses
    for w in t1["Com"].witnesses:
        m1, m2 = (parse_witness(t) for t in w.models[:2])
        ab, ba = union_merge(m1, m2), union_merge(m2, m1)
        ok = ok and render(ab) != render(ba)
        ok = ok and oracle.eq(oracle.den(ab), oracle.den(ba))
        ok = ok and semantically_eq(ab, ba, universe)
    _line(5, "union commutes semantically but not syntactically, witnesses verified", ok)
    assert ok


def test_criterion_6_implication_audit_clean(reports):
    ok = all(reports[op].implication_audit == () for op in ALL_OPS)
    _line(6, "implication audit is empty for all five operators", ok)
    assert ok


def _random_model(rng):
    n = rng.randrange(0, 7)
    cons = []
    for _ in range(n):
        cls = rng.choice(CLASSES)
        roll = rng.random()
        if roll < 0.3:
            cons.append(ClassExists(cls))
        elif roll < 0.85:
            cons.append(AttrTyped(cls, rng.choice(ATTRS), rng.choice(TYPES)))
        else:
            picked = rng.sample(ATTRS, rng.randrange(0, len(ATTRS) + 1))
            cons.append(AttrComplete(cls, tuple((a, rng.choice(TYPES)) for a in picked)))
    return Model(tuple(cons))


def test_criterion_7_semantics_unit_laws(corpus, universe):
    ok = denotation(Model(()), universe).size == universe.system_count

    worked = Universe(("Person", "X"), ("name",), ("String",))
    person = Model((ClassExists("Person"), AttrTyped("Person", "name", "String")))
    ok = ok and worked.system_count == 9
    ok = ok and denotation(person, worked).size == 3

    rng = random.Random(1234)
    u = TINY_UNIVERSE
    for _ in range(1000):
        m = _random_model(rng)
        d = denotation(m, u)

        extra = _random_model(rng).constraints[:1] or (ClassExists(rng.choice(CLASSES)),)
        ok = ok and denotation(Model(m.constraints + extra), u).issubset(d)

        shuffled = list(m.constraints)
        rng.shuffle(shuffled)
        ok = ok and denotation(Model(tuple(shuffled)), u) == d

        if m.constraints:
            doubled = Model(m.constraints + (m.constraints[0],))
            ok = ok and denotation(doubled, u) == d
        if not ok:
            break
    _line(7, "unit laws plus 1000-model monotonicity/permutation/duplication suites", ok)
    assert ok


def test_criterion_8_stability(corpus, reports):
    # the default universe pads 1/1/1; 2/2/2 is past the cap, which classify never needs
    padded = build_universe(corpus.models, 2, 2, 2, cap=None)
    ok = all(_flat_verdicts(classify(op, corpus, padded)) == _flat_verdicts(reports[op]) for op in ALL_OPS)
    _line(8, "verdicts identical under 1/1/1 and 2/2/2 fresh-name padding, all operators", ok)
    assert ok


def test_criterion_9_byte_identical_reports():
    docs = []
    for _ in range(2):
        corpus = default_corpus()
        universe = build_universe(corpus.models)
        docs.append(report_to_json(classify("union", corpus, universe)).encode())
    ok = docs[0] == docs[1]
    _line(9, "two fresh classify runs serialize to byte-identical reports", ok)
    assert ok


# sha256 of report_to_json and report_to_text for each operator on the
# default corpus.  A change that keeps behaviour must keep these bytes.
GOLDEN_REPORTS = {
    "union": (
        "fa0487223035644da6368a7faa3198770105e99903d33e68d0c44ec0b3c61631",
        "8c3d35bd4a9b909011f864484f7393c35c2918432172d0d397e53ec86cccdf1f",
    ),
    "strict": (
        "18777dcfb204829ffc5f3812317636f63970a22de86db91aeb9a1ba6835a3f53",
        "a0c158a1fdf2899ebb1605a121fc2050c5bc3ea5867d2fc59bfc6932004280c9",
    ),
    "override": (
        "3a42afc59f92e767aa194f26ac96a35bd37e4263a44e62470caf036bc28e80fc",
        "b853ef5a01d88b8aae8752a05bb53d1af7005e3c1058e62cdda020ceb97b6402",
    ),
    "intersect": (
        "ace27bc62e27a64ad18b961e00424562ccea1bc56021ebb58d48840d02a99026",
        "4e5c577b3b9255433e93db5a3c568660c53d37a53ad0993f993b32bbf125a238",
    ),
    "paranoid": (
        "1c59a93addc8686ea5728d70c971f21c12c0df4b627246fdd0451e865134d21d",
        "b29d66f2143a1635898ecadd29c03eb10271dcc39ae3192d2699c14cb3686d06",
    ),
}


@pytest.mark.parametrize("op", ALL_OPS)
def test_golden_report_bytes(reports, op):
    rep = reports[op]
    got = tuple(
        hashlib.sha256(text.encode("utf-8")).hexdigest()
        for text in (report_to_json(rep), report_to_text(rep))
    )
    assert got == GOLDEN_REPORTS[op]


# The benchmark's frozen copy of the program (perfbench/reference/), imported
# read-only.  The default corpus samples associativity; these small corpora
# take the exhaustive path, so every triple's verdict reaches the report.
REFERENCE_DIR = Path(__file__).resolve().parents[1] / "perfbench" / "reference"
SMALL_BOUNDS = (
    (("P",), ("n", "m"), ("S", "T"), True),
    (("P", "Q"), ("n",), ("S", "T"), True),
)


@pytest.fixture(scope="module")
def reference():
    sys.path.insert(0, str(REFERENCE_DIR))
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        import modelalg_ref
        import modelalg_ref.report
    finally:
        sys.dont_write_bytecode = dont_write
        sys.path.remove(str(REFERENCE_DIR))
    return modelalg_ref


def _small_reports(pkg, bounds) -> list[str]:
    corpus = pkg.generate_corpus(pkg.CorpusBounds(*bounds), seed=7, max_models=12)
    assert len(corpus.models) <= 12
    docs = []
    for padding, cap in (((1, 1, 1), pkg.DEFAULT_CAP), ((2, 2, 2), None)):
        for op in ALL_OPS:
            u = pkg.build_universe(corpus.models, *padding, cap=cap)
            docs.append(pkg.report.report_to_json(pkg.classify(op, corpus, u)))
    return docs


@pytest.mark.parametrize("bounds", SMALL_BOUNDS, ids=("one-class", "two-class"))
def test_exhaustive_reports_match_frozen_reference(reference, bounds):
    got = _small_reports(modelalg, bounds)
    assert '"exhaustive": false' not in "".join(got)
    assert got == _small_reports(reference, bounds)


# Whole declarations and their pieces, so that drawn texts also reach the pair
# lists, the '}' check and the recovery after each kind of error.
PARSE_FRAGMENTS = ("class P {", "complete class Q {", "a: T,", "a: T", "b: x_1,", "}", "class P { }", "a:", ",")


@settings(max_examples=400, deadline=None)
@given(st.one_of(
    st.lists(st.sampled_from(SOUP + PARSE_FRAGMENTS)).map("".join),
    st.text(st.characters(exclude_categories=())),
))
@example("class P { a: T, a: T, b T } x class Q { , } complete }")
@example("class P { a: T, } class { } complete class Q { a: T b: T }")
@example("// class P { } class\nQ { }")
@example("class P { a: T, a: T }")
@example("class P { a: T, }")
@example("completeclass P { }")
@example("class class { }")
@example("class P { a: complete }")
def test_parse_agrees_with_frozen_reference(reference, text):
    try:
        want_model, want_diags = reference.syntax.parse(text)
    except IndexError:  # the reference's bug on a trailing 'complete'
        reject()
    model, diags = parse(text)
    assert [str(d) for d in diags] == [str(d) for d in want_diags]
    assert (model is None) == (want_model is None)
    if model is not None:
        assert [repr(c) for c in model.constraints] == [repr(c) for c in want_model.constraints]
