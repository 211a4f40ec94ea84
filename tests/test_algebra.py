import copy
import dataclasses
import gc
import itertools
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modelalg import (
    AttrComplete,
    AttrTyped,
    ClassExists,
    Corpus,
    CorpusBounds,
    Model,
    build_universe,
    check_associativity,
    check_element,
    check_pairs,
    classify,
    congruence_check,
    default_corpus,
    denotation,
    generate_corpus,
    intersect_merge,
    normalize,
    parse_strict,
    quotient,
    render,
    stability_check,
    union_merge,
)
from modelalg import algebra
from modelalg.operators import OPERATORS
from modelalg.algebra import (
    MAX_WITNESSES,
    TABLE1_PROPS,
    TABLE2_PROPS,
    Verdict,
    Witness,
    _implication_audit,
)
from modelalg.report import report_to_json

from .oracle import EnumOracle, parse_witness
from .strategies import TINY_UNIVERSE, models

@given(models)
def test_show_is_render_on_one_line(m):
    assert m.line == (render(m).replace("\n", " ").strip() or "<empty>")
    assert parse_strict(render(m)) == normalize(m)


SMALL_BOUNDS = CorpusBounds(("P",), ("n", "m"), ("S", "T"), include_complete=True)


@pytest.fixture(scope="module")
def small_corpus():
    return generate_corpus(SMALL_BOUNDS, max_models=50)


@pytest.fixture(scope="module")
def small_universe(small_corpus):
    return build_universe(small_corpus.models)


@pytest.fixture(scope="module")
def small_oracle(small_universe):
    return EnumOracle(small_universe)


# --- corpus generation ------------------------------------------------------


def test_tiny_bounds_enumerates_exactly_three_models():
    bounds = CorpusBounds(("P",), ("n",), ("String",), include_complete=False)
    corpus = generate_corpus(bounds)
    assert [m.constraints for m in corpus.models] == [
        (),
        (ClassExists("P"),),
        (ClassExists("P"), AttrTyped("P", "n", "String")),
    ]


def test_corpus_deterministic():
    a = generate_corpus(SMALL_BOUNDS, seed=7)
    b = generate_corpus(SMALL_BOUNDS, seed=7)
    assert a == b


def test_corpus_contains_empty_and_contradiction(small_corpus):
    assert Model(()) in small_corpus.models
    u = build_universe(small_corpus.models)
    assert any(denotation(m, u).is_empty for m in small_corpus.models)


@pytest.mark.parametrize("bounds", [((), ("x",), ("T",)), (("P",), ("x",), (), True), (("P",), (), ("T",), True)])
def test_bounds_with_an_empty_list_express_no_contradiction(bounds):
    corpus = generate_corpus(CorpusBounds(*bounds), max_models=8)
    u = build_universe(corpus.models)
    assert Model(()) in corpus.models and not any(denotation(m, u).is_empty for m in corpus.models)


def test_sampled_corpus_respects_max_models():
    bounds = CorpusBounds(("P", "Q"), ("n", "m"), ("S", "T"), include_complete=True)
    corpus = generate_corpus(bounds, max_models=12)
    assert len(corpus.models) == 12


def test_default_corpus_contents():
    corpus = default_corpus()
    assert len(corpus.models) >= 30
    assert parse_strict("class Person { name: String }") in corpus.models
    assert parse_strict("class Person { age: Int }") in corpus.models


def test_empty_corpus_rejected():
    with pytest.raises(ValueError):
        Corpus((), "empty")


# --- table 1 checks ---------------------------------------------------------


PP_PROPS = ("PP_l", "PP_r", "PP")


def test_union_pp_all_true(small_corpus, small_universe):
    verdicts = check_pairs("union", small_corpus, small_universe)
    assert all(verdicts[p].holds for p in PP_PROPS)
    assert all(v.exhaustive for v in verdicts.values())


def test_intersect_pp_false_with_witness(small_corpus, small_universe, small_oracle):
    verdicts = check_pairs("intersect", small_corpus, small_universe)
    assert not verdicts["PP"].holds
    w = verdicts["PP"].witnesses[0]
    m1, m2 = parse_witness(w.models[0]), parse_witness(w.models[1])
    from modelalg import intersect_merge

    merged = small_oracle.den(intersect_merge(m1, m2))
    both = small_oracle.den(m1) & small_oracle.den(m2)
    assert not small_oracle.subset(merged, both)


def test_pp_trivial_on_empty_model_corpus(small_universe):
    corpus = Corpus((Model(()),), "single")
    verdicts = check_pairs("paranoid", corpus, small_universe)
    assert all(verdicts[p].holds for p in PP_PROPS)


def test_fpp(small_corpus, small_universe):
    assert check_pairs("union", small_corpus, small_universe)["FPP"].holds
    strict = check_pairs("strict", small_corpus, small_universe)["FPP"]
    assert not strict.holds and strict.witnesses


def test_cp(small_corpus, small_universe):
    assert check_pairs("union", small_corpus, small_universe)["CP"].holds
    assert check_pairs("intersect", small_corpus, small_universe)["CP"].holds
    paranoid = check_pairs("paranoid", small_corpus, small_universe)["CP"]
    assert not paranoid.holds and paranoid.witnesses


def test_commutativity(small_corpus, small_universe):
    verdicts = check_pairs("union", small_corpus, small_universe)
    assert not verdicts["Com"].holds
    assert verdicts["Com_sm"].holds


def test_commutativity_single_model_corpus(small_universe):
    corpus = Corpus((parse_strict("class P { n: S }"),), "single")
    verdicts = check_pairs("union", corpus, small_universe)
    assert verdicts["Com"].holds


def test_override_not_semantically_commutative(small_universe, small_corpus):
    assert not check_pairs("override", small_corpus, small_universe)["Com_sm"].holds


def test_associativity_exhaustive_below_threshold(small_universe):
    corpus = Corpus(
        (
            Model(()),
            parse_strict("class P { n: S }"),
            parse_strict("class P { m: T }"),
        ),
        "three",
    )
    verdicts = check_associativity("union", corpus, small_universe)
    assert verdicts["Ass"].holds and verdicts["Ass"].exhaustive
    assert verdicts["Ass_sm"].holds
    assert verdicts["Ass"].checked == 27


def test_associativity_samples_above_threshold():
    bounds = CorpusBounds(("P", "Q"), ("n", "m"), ("S", "T"), include_complete=True)
    corpus = generate_corpus(bounds, max_models=25)
    assert len(corpus.models) > 20
    universe = build_universe(corpus.models)
    verdicts = check_associativity("union", corpus, universe)
    assert not verdicts["Ass_sm"].exhaustive
    assert verdicts["Ass_sm"].checked == 10_000
    assert verdicts["Ass"].holds and verdicts["Ass_sm"].holds


@pytest.mark.parametrize("size, exhaustive, checked", [(20, True, 8_000), (21, True, 9_261), (22, False, 10_000)])
def test_associativity_is_exhaustive_exactly_when_the_triples_fit_the_sample(size, exhaustive, checked):
    bounds = CorpusBounds(("P", "Q"), ("n", "m"), ("S", "T"), include_complete=True)
    corpus = generate_corpus(bounds, max_models=size)
    assert len(corpus.models) == size
    for v in check_associativity("union", corpus, build_universe(corpus.models)).values():
        assert (v.exhaustive, v.checked) == (exhaustive, checked)


def test_sample_triples_is_a_fresh_seeded_draw():
    for n, seed in ((36, 42), (25, 7)):
        rng = random.Random(seed)
        fresh = [(rng.randrange(n), rng.randrange(n), rng.randrange(n)) for _ in range(10_000)]
        sample = algebra._sample_triples(n, seed)
        assert isinstance(sample, tuple)
        assert list(sample) == fresh
        assert algebra._sample_triples(n, seed) is sample


def test_shared_sample_leaves_associativity_verdicts_alone():
    bounds = CorpusBounds(("P", "Q"), ("n", "m"), ("S", "T"), include_complete=True)
    corpus = generate_corpus(bounds, max_models=25)
    universe = build_universe(corpus.models)
    algebra._sample_triples.cache_clear()
    classify("union", corpus, universe)
    after_union = classify("strict", corpus, universe).table1
    algebra._sample_triples.cache_clear()
    alone = classify("strict", corpus, universe).table1
    for prop in ("Ass", "Ass_sm"):
        assert not alone[prop].exhaustive
        assert after_union[prop] == alone[prop]
    assert not alone["Ass"].holds and alone["Ass"].witnesses


# --- table 2 checks ---------------------------------------------------------


def test_empty_model_neutral_for_union(small_corpus, small_universe):
    verdicts = check_element("union", Model(()), small_corpus, small_universe)
    for prop in ("Rn", "Ln", "N", "N_comp", "Rn_comp", "Ln_comp"):
        assert verdicts[prop].holds, prop


def test_contradiction_absorbing_for_union(small_corpus, small_universe):
    contradiction = Model(
        (ClassExists("P"), AttrTyped("P", "n", "S"), AttrTyped("P", "n", "T"))
    )
    verdicts = check_element("union", contradiction, small_corpus, small_universe)
    for prop in ("Ra_comp", "La_comp", "A_comp"):
        assert verdicts[prop].holds, prop
    assert not verdicts["Ra"].holds  # syntactic absorption fails


def test_every_model_idempotent_vs_union(small_corpus, small_universe):
    for m in small_corpus.models[:5]:
        assert check_element("union", m, small_corpus, small_universe)["I_comp"].holds


def test_element_verdict_rows_complete(small_corpus, small_universe):
    verdicts = check_element("union", Model(()), small_corpus, small_universe)
    assert tuple(verdicts) == TABLE2_PROPS


# --- classify ---------------------------------------------------------------


def test_classify_union(small_corpus, small_universe):
    report = classify("union", small_corpus, small_universe)
    assert tuple(report.table1) == TABLE1_PROPS
    holds = {p: v.holds for p, v in report.table1.items()}
    assert holds["FPP"] and holds["CP"] and holds["Com_sm"] and holds["Ass_sm"]
    assert not holds["Com"]
    assert report.implication_audit == ()
    assert report.theorems["t1"]["holds"] and report.theorems["t2"]["holds"]
    assert len(report.table2) == len(small_corpus.models)


def test_classify_strict(small_corpus, small_universe):
    report = classify("strict", small_corpus, small_universe)
    holds = {p: v.holds for p, v in report.table1.items()}
    assert holds["PP"] and not holds["FPP"]
    assert report.implication_audit == ()


def test_false_verdicts_carry_witnesses(small_corpus, small_universe):
    report = classify("paranoid", small_corpus, small_universe)
    for v in report.table1.values():
        if not v.holds:
            assert v.witnesses


# --- witnesses --------------------------------------------------------------


@pytest.mark.parametrize("op", ("union", "strict", "override", "intersect", "paranoid"))
def test_witnesses_built_only_when_kept(monkeypatch, op):
    built = []
    witness = algebra.Witness

    def counted(*args):
        built.append(args)
        return witness(*args)

    monkeypatch.setattr(algebra, "Witness", counted)
    corpus = default_corpus()
    report = classify(op, corpus, build_universe(corpus.models))
    verdicts = _report_verdicts(report)
    kept = [w for v in verdicts for w in v.witnesses]
    assert kept and [w for v in verdicts for w in v.witnesses] == kept
    # each kept witness was built once, on the first read, and the second read built none
    assert built == [(w.models, w.relation, w.observed) for w in kept]


@pytest.mark.parametrize("op", sorted(OPERATORS))
def test_the_records_of_one_failing_tuple_share_one_texts_tuple(op):
    # one model per text, and few enough for exhaustive associativity, so within one
    # check equal texts name one failing tuple
    models = tuple({m.line: m for m in reversed(default_corpus().models)}.values())[:21]
    corpus = Corpus(models, "distinct texts")
    report = classify(op, corpus, build_universe(corpus.models))
    ass = {"Ass", "Ass_sm"}
    checks = [[v for p, v in report.table1.items() if p not in ass], [report.table1[p] for p in ass]]
    checks += [list(props.values()) for _, props in report.table2]
    records = distinct = 0
    for verdicts in checks:
        texts = [record[0] for v in verdicts for record in vars(v).get("_kept", ())]
        assert len({id(t) for t in texts}) == len(set(texts))
        records, distinct = records + len(texts), distinct + len(set(texts))
    assert records > distinct > 0


def test_first_failures_kept_in_order():
    def contradiction(*extra):
        return Model((ClassExists("P"), *extra))

    corpus = Corpus((
        contradiction(AttrTyped("P", "n", "S"), AttrTyped("P", "n", "T")),
        contradiction(AttrTyped("P", "m", "S"), AttrTyped("P", "m", "T")),
        contradiction(AttrTyped("P", "n", "S"), AttrComplete("P", ())),
        contradiction(AttrTyped("P", "m", "T"), AttrComplete("P", (("n", "S"),))),
        Model(()),
        parse_strict("class P { n: S }"),
    ), "contradictions")
    u = build_universe(corpus.models)
    failures = [
        (m1, m2)
        for m1 in corpus.models
        for m2 in corpus.models
        if not denotation(intersect_merge(m1, m2), u).issubset(denotation(m1, u) & denotation(m2, u))
    ]
    assert len(failures) > MAX_WITNESSES == 10
    verdict = check_pairs("intersect", corpus, u)["PP"]
    assert verdict.holds is False and verdict.checked == len(corpus.models) ** 2
    assert len(verdict.witnesses) == MAX_WITNESSES
    assert [w.models for w in verdict.witnesses] == [(a.line, b.line) for a, b in failures[:10]]


# --- canonical and lazy denotations -----------------------------------------


@settings(max_examples=60, deadline=None)
@given(st.lists(models, min_size=1, max_size=4), st.sampled_from(sorted(OPERATORS)))
def test_composer_denotations_are_canonical(corpus_models, op):
    u = TINY_UNIVERSE
    comp = algebra._Composer(op, Corpus(tuple(corpus_models), "drawn"), u)
    for a in comp.ids:
        for b in comp.ids:
            comp(a, b)
    ids = range(len(comp.models))
    for i in ids:
        for j in ids:
            same = denotation(comp.models[i], u) == denotation(comp.models[j], u)
            assert (comp.den(i) is comp.den(j)) == same
            meet = comp.den(i) & comp.den(j)
            assert all((meet is comp.den(k)) == (meet == comp.den(k)) for k in ids)


def _element_terms(comp, m1: int, m: int) -> dict:
    """The ids of Table 2's terms for corpus model m1 and element m."""
    return {"m1": m1, "m": m, "op(m1,m)": comp(m1, m), "op(m,m1)": comp(m, m1),
            "op(op(m1,m),m)": comp(comp(m1, m), m), "op(m,op(m,m1))": comp(m, comp(m, m1))}


def _keepable(comp, den, differing: list) -> list:
    """Of one check's (row, models, terms) tuples whose term ids differ, in check order, those
    its recorder can still keep, as (row, model texts, terms): each row's until its twin holds
    MAX_WITNESSES witnesses, the twin failing where the terms' denotations differ too."""
    twin_fails, kept = {}, []
    for prop, models, terms in differing:
        if twin_fails.setdefault(prop, 0) < MAX_WITNESSES:
            kept.append((prop, tuple(map(comp.show, models)), terms))
            twin_fails[prop] += len({id(den(t)) for t in terms}) > 1
    return kept


@pytest.mark.parametrize("op", ("union", "strict"))
def test_coincidences_denote_nothing_where_the_ids_agree(monkeypatch, op):
    corpus = default_corpus()
    comp = algebra._Composer(op, corpus, build_universe(corpus.models))
    ids = comp.ids
    algebra._check_pairs(comp)  # denotes the corpus and its pairwise compositions
    calls = []
    real = algebra.denotation
    monkeypatch.setattr(algebra, "denotation", lambda m, u: calls.append(m) or real(m, u))
    # every denotation a coincidence check asks for is asked inside its one
    # failure path, and that path sees exactly the tuples whose ids differ
    # while the row's twin can still keep a witness
    seen, inside, outside = [], [], []
    mismatch, den = algebra._mismatch, comp.den

    def recorded(comp, row, texts, terms, syn, sem):
        # Table 2 hands a two-term row's terms with the last one repeated
        seen.append((row[0], texts, terms[:len(row[2])]))
        inside.append(row)
        mismatch(comp, row, texts, terms, syn, sem)
        inside.pop()

    monkeypatch.setattr(algebra, "_mismatch", recorded)
    monkeypatch.setattr(comp, "den", lambda i: den(i) if inside else outside.append(i) or den(i))
    verdicts = algebra._check_associativity(comp, 42)
    assert verdicts["Ass"].checked == 10_000
    assert verdicts["Ass"].holds == (op == "union") == (calls == [])
    expected, settled = [], 0
    for i, j, k in algebra._sample_triples(len(ids), 42):
        a, b, c = ids[i], ids[j], ids[k]
        if (left := comp(comp(a, b), c)) != (right := comp(a, comp(b, c))):
            expected.append(("Ass", (comp.show(a), comp.show(b), comp.show(c)), (left, right)))
            settled += den(left) is not den(right)
            if settled == MAX_WITNESSES:  # Ass_sm holds its witnesses, and so does Ass: the check stops
                break
    assert (settled == MAX_WITNESSES) == (op == "strict")
    for e in ids:
        algebra._check_element(comp, e)
        differing = []
        for m1 in ids:
            terms = _element_terms(comp, m1, e)
            differing += [(prop, (m1, e), tuple(terms[t] for t in names))
                          for prop, names in algebra.TABLE2 if len({terms[t] for t in names}) > 1]
        expected += _keepable(comp, den, differing)
    assert outside == []
    algebra._check_pairs(comp)  # its set rows denote every pair
    expected += _keepable(comp, den, [("Com", (a, b), (comp(a, b), comp(b, a)))
                                      for i, a in enumerate(ids) for b in ids[i + 1:] if comp(a, b) != comp(b, a)])
    assert seen == expected


@pytest.mark.parametrize("op, most", (("strict", 1_611), ("paranoid", 2_253)))
def test_a_verdict_with_all_its_witnesses_does_no_more_work(monkeypatch, op, most):
    corpus = default_corpus()
    u = build_universe(corpus.models)
    calls = []
    real = algebra.denotation
    monkeypatch.setattr(algebra, "denotation", lambda m, u: calls.append(m) or real(m, u))
    classify(op, corpus, u)
    assert len(calls) <= most
    # a twin that keeps MAX_WITNESSES witnesses compares no denotations: no check
    # calls the recorder for it, while a full row whose twin has room still does
    comp = algebra._Composer(op, corpus, u)
    full, inside, late = [], [], []
    mismatch, den = algebra._mismatch, comp.den

    def recorded(comp, row, texts, terms, syn, sem):
        full.append((len(syn) >= MAX_WITNESSES, len(sem) >= MAX_WITNESSES))
        inside.append(full[-1][1])
        mismatch(comp, row, texts, terms, syn, sem)
        inside.pop()

    monkeypatch.setattr(algebra, "_mismatch", recorded)
    monkeypatch.setattr(comp, "den", lambda i: (inside and inside[-1] and late.append(i)) or den(i))
    algebra._check_pairs(comp)
    algebra._check_associativity(comp, 42)
    for e in comp.ids:
        algebra._check_element(comp, e)
    # strict makes 5,697 calls, 2,657 of them with the row full; paranoid 5,702 and 2,538
    assert late == [] and not any(twin for _, twin in full) and full.count((True, False)) > 2_000


@pytest.mark.parametrize("op", ("union", "strict"))
def test_associativity_composes_twice_per_triple(monkeypatch, op):
    corpus = default_corpus()
    comp = algebra._Composer(op, corpus, build_universe(corpus.models))
    algebra._check_pairs(comp)
    calls = []
    call = algebra._Composer.__call__
    monkeypatch.setattr(algebra._Composer, "__call__", lambda self, a, b: calls.append(a) or call(self, a, b))
    assert algebra._check_associativity(comp, 42)["Ass"].checked == algebra.TRIPLE_SAMPLES
    # the n x n pairs once, read from the pair pass's memo, then op(ab, c) and op(a, bc)
    n = len(comp.ids)
    assert len(calls) <= n * n + 2 * algebra.TRIPLE_SAMPLES


def _first(witnesses: list, make) -> None:
    if len(witnesses) < MAX_WITNESSES:
        witnesses.append(make())


def _eager_associativity(comp, seed: int) -> dict:
    """Ass and Ass_sm with both denotations of every triple computed and
    compared structurally."""
    ids, u = comp.ids, comp.u
    n = len(ids)
    exhaustive = n**3 <= algebra.TRIPLE_SAMPLES
    triples = itertools.product(range(n), repeat=3) if exhaustive else algebra._sample_triples(n, seed)
    syn, sem = [], []
    for i, j, k in triples:
        a, b, c = ids[i], ids[j], ids[k]
        left, right = comp(comp(a, b), c), comp(a, comp(b, c))
        dl, dr = denotation(comp.models[left], u), denotation(comp.models[right], u)
        shown = (comp.show(a), comp.show(b), comp.show(c))
        if left != right:
            _first(syn, lambda: Witness(
                shown, "op(op(m1,m2),m3) syntactically equals op(m1,op(m2,m3))",
                f"left={comp.show(left)}; right={comp.show(right)}"))
        if dl != dr:
            _first(sem, lambda: Witness(
                shown, "sm(op(op(m1,m2),m3)) equals sm(op(m1,op(m2,m3)))",
                f"|left|={dl.size}, |right|={dr.size}"))
    checked = n**3 if exhaustive else algebra.TRIPLE_SAMPLES
    return {p: Verdict(p, not w, tuple(w), exhaustive, checked) for p, w in (("Ass", syn), ("Ass_sm", sem))}


def _eager_element(comp, e: int) -> dict:
    """Table 2 for element e with every term's denotation computed up front
    and compared structurally."""
    fails = {p: [] for p in TABLE2_PROPS}
    for i in comp.ids:
        terms = _element_terms(comp, i, e)
        dens = {t: denotation(comp.models[x], comp.u) for t, x in terms.items()}
        for prop, names in algebra.TABLE2:
            if len(names) == 2:
                syn_relation = f"{names[0]} syntactically equals {names[1]}"
                sem_relation = f"sm({names[0]}) equals sm({names[1]})"
            else:
                syn_relation = f"{names[0]} = {names[1]} = {names[2]} syntactically"
                sem_relation = f"sm({names[0]}) = sm({names[1]}) = sm({names[2]})"
            if len({terms[t] for t in names}) > 1:
                _first(fails[prop], lambda: Witness(
                    (comp.show(i), comp.show(e)), syn_relation,
                    "; ".join(f"{t}={comp.show(terms[t])}" for t in names if t.startswith("op("))))
            if any(dens[t] != dens[names[0]] for t in names):
                _first(fails[prop + "_comp"], lambda: Witness(
                    (comp.show(i), comp.show(e)), sem_relation,
                    ", ".join(f"|sm({t})|={dens[t].size}" for t in names)))
    return {p: Verdict(p, not w, tuple(w), True, len(comp.ids)) for p, w in fails.items()}


def _eager_pairs(comp) -> dict:
    """Table 1's pair properties with every denotation computed up front and
    compared structurally: row-major order, Com and Com_sm over i < j only."""
    ids, u = comp.ids, comp.u
    n = len(ids)
    fails = {p: [] for p in ("PP_l", "PP_r", "PP", "FPP", "CP", "Com", "Com_sm")}
    for i, a in enumerate(ids):
        for j, b in enumerate(ids):
            ab, ba = comp(a, b), comp(b, a)
            d1, d2, dab, dba = (denotation(comp.models[x], u) for x in (a, b, ab, ba))
            meet = d1 & d2
            shown = (comp.show(a), comp.show(b))
            sizes = f"|sm(op(m1,m2))|={dab.size}, |sm(m1)|={d1.size}, |sm(m2)|={d2.size}"
            for prop, bound, name in (("PP_l", d1, "sm(m1)"), ("PP_r", d2, "sm(m2)"), ("PP", meet, "sm(m1) & sm(m2)")):
                if not dab.issubset(bound):
                    _first(fails[prop], lambda: Witness(shown, f"sm(op(m1,m2)) is a subset of {name}", sizes))
            if dab != meet:
                _first(fails["FPP"], lambda: Witness(
                    shown, "sm(op(m1,m2)) equals sm(m1) & sm(m2)",
                    f"|sm(op(m1,m2))|={dab.size}, |sm(m1) & sm(m2)|={meet.size}"))
            if not meet.is_empty and dab.is_empty:
                _first(fails["CP"], lambda: Witness(
                    shown, "sm(m1) & sm(m2) nonempty implies sm(op(m1,m2)) nonempty",
                    f"|sm(m1) & sm(m2)|={meet.size}, |sm(op(m1,m2))|=0"))
            if i < j and ab != ba:
                _first(fails["Com"], lambda: Witness(
                    shown, "op(m1,m2) syntactically equals op(m2,m1)",
                    f"op(m1,m2)={comp.show(ab)}; op(m2,m1)={comp.show(ba)}"))
            if i < j and dab != dba:
                _first(fails["Com_sm"], lambda: Witness(
                    shown, "sm(op(m1,m2)) equals sm(op(m2,m1))",
                    f"|sm(op(m1,m2))|={dab.size}, |sm(op(m2,m1))|={dba.size}"))
    checked = {p: n * (n - 1) // 2 if p.startswith("Com") else n * n for p in fails}
    return {p: Verdict(p, not w, tuple(w), True, checked[p]) for p, w in fails.items()}


# the "few" corpus has fewer than MAX_WITNESSES commutativity failures, so
# the first ten witnesses alone would not show a pair seen twice
EAGER_CORPORA = (
    default_corpus(),
    generate_corpus(SMALL_BOUNDS, max_models=50),
    generate_corpus(CorpusBounds(("P",), ("n",), ("S", "T"))),
)


@pytest.mark.parametrize("op", sorted(OPERATORS))
@pytest.mark.parametrize("corpus", EAGER_CORPORA, ids=("sampled", "exhaustive", "few"))
def test_lazy_checks_equal_eager_reference(op, corpus):
    u = build_universe(corpus.models)
    comp, eager = algebra._Composer(op, corpus, u), algebra._Composer(op, corpus, u)
    assert algebra._check_pairs(comp) == _eager_pairs(eager)
    verdicts = algebra._check_associativity(comp, 42)
    assert verdicts == _eager_associativity(eager, 42)
    assert verdicts["Ass_sm"].holds == (op in ("intersect", "override", "union"))
    for e in comp.ids:
        assert algebra._check_element(comp, e) == _eager_element(eager, e)


# beyond EAGER_CORPORA at seed 42: the default corpus sampled at another
# seed, and two classes' 21 models, whose 9,261 triples are all checked
ASSOCIATIVITY_CORPORA = (
    (default_corpus(), 7),
    (generate_corpus(CorpusBounds(("P", "Q"), ("n", "m"), ("S", "T"), include_complete=True), max_models=21), 42),
)


@pytest.mark.parametrize("op", sorted(OPERATORS))
@pytest.mark.parametrize("corpus, seed", ASSOCIATIVITY_CORPORA, ids=("sampled-seed7", "exhaustive-21"))
def test_associativity_stopped_early_equals_eager_reference(op, corpus, seed):
    u = build_universe(corpus.models)
    comp, eager = algebra._Composer(op, corpus, u), algebra._Composer(op, corpus, u)
    assert algebra._check_associativity(comp, seed) == _eager_associativity(eager, seed)


@settings(max_examples=60, deadline=None)
@given(st.lists(models, min_size=1, max_size=8), st.sampled_from(sorted(OPERATORS)))
def test_associativity_equals_eager_reference_on_small_corpora(corpus_models, op):
    corpus = Corpus(tuple(corpus_models), "drawn")
    comp, eager = algebra._Composer(op, corpus, TINY_UNIVERSE), algebra._Composer(op, corpus, TINY_UNIVERSE)
    assert algebra._check_associativity(comp, 42) == _eager_associativity(eager, 42)


@pytest.mark.parametrize("op, fewest, most", (
    ("union", 4_408, 4_408), ("strict", 1, 500), ("override", 4_167, 4_167),
    ("intersect", 0, 0), ("paranoid", 1, 900),
))
def test_associativity_composes_until_both_verdicts_are_settled(op, fewest, most):
    corpus = default_corpus()
    comp = algebra._Composer(op, corpus, build_universe(corpus.models))
    algebra._check_pairs(comp)
    before = len(comp.models)
    verdicts = algebra._check_associativity(comp, 42)
    assert fewest <= len(comp.models) - before <= most
    # a check whose Ass_sm never takes MAX_WITNESSES witnesses composes every sampled triple
    ids, triples = comp.ids, algebra._sample_triples(len(comp.ids), 42)
    covered = all(ids[k] in comp.rows[comp(ids[i], ids[j])] and comp(ids[j], ids[k]) in comp.rows[ids[i]]
                  for i, j, k in triples)
    assert covered == (len(verdicts["Ass_sm"].witnesses) < MAX_WITNESSES) == (op in ("union", "override", "intersect"))


# --- implication audit ------------------------------------------------------


def test_property_tables_are_consistent():
    # set rows, then coincidences, then their twins
    coincidences = [row[0] for row in algebra.TABLE1_COINCIDENCES]
    assert TABLE1_PROPS == (*(row[0] for row in algebra.TABLE1_PAIR_ROWS),
                            *coincidences, *(p + "_sm" for p in coincidences))
    assert TABLE2_PROPS == (*(p for p, _ in algebra.TABLE2), *(p + "_comp" for p, _ in algebra.TABLE2))
    assert len(TABLE1_PROPS) == len(set(TABLE1_PROPS)) == 9
    for dependencies, names in ((algebra.TABLE1_DEPENDENCIES, TABLE1_PROPS),
                                (algebra.TABLE2_DEPENDENCIES, TABLE2_PROPS)):
        for premises, _, conclusion in dependencies:
            assert set(premises) | {conclusion} <= set(names)


# Violations reported when one verdict of an otherwise all-true (flip to
# false) or all-false (flip to true) table is flipped.
T1_FLIP_TO_FALSE = {
    "PP_l": ["PP_l & PP_r <=> PP"],
    "PP_r": ["PP_l & PP_r <=> PP"],
    "PP": ["PP_l & PP_r <=> PP", "FPP => PP"],
    "FPP": [],
    "CP": ["FPP => CP"],
    "Com": [],
    "Ass": [],
    "Com_sm": ["Com => Com_sm"],
    "Ass_sm": ["Ass => Ass_sm"],
}
T1_FLIP_TO_TRUE = {
    "PP_l": [],
    "PP_r": [],
    "PP": ["PP_l & PP_r <=> PP"],
    "FPP": ["FPP => PP", "FPP => CP"],
    "CP": [],
    "Com": ["Com => Com_sm"],
    "Ass": ["Ass => Ass_sm"],
    "Com_sm": [],
    "Ass_sm": [],
}
T2_FLIP_TO_FALSE = {
    "Rn": ["Rn & Ln <=> N"],
    "Ln": ["Rn & Ln <=> N"],
    "N": ["Rn & Ln <=> N"],
    "Ra": ["Ra & La <=> A"],
    "La": ["Ra & La <=> A"],
    "A": ["Ra & La <=> A"],
    "Ri": ["Ri & Li <=> I"],
    "Li": ["Ri & Li <=> I"],
    "I": ["Ri & Li <=> I"],
    "Rn_comp": ["Rn_comp & Ln_comp <=> N_comp", "Rn => Rn_comp"],
    "Ln_comp": ["Rn_comp & Ln_comp <=> N_comp", "Ln => Ln_comp"],
    "N_comp": ["Rn_comp & Ln_comp <=> N_comp", "N => N_comp"],
    "Ra_comp": ["Ra_comp & La_comp <=> A_comp", "Ra => Ra_comp"],
    "La_comp": ["Ra_comp & La_comp <=> A_comp", "La => La_comp"],
    "A_comp": ["Ra_comp & La_comp <=> A_comp", "A => A_comp"],
    "Ri_comp": ["Ri_comp & Li_comp <=> I_comp", "Ri => Ri_comp"],
    "Li_comp": ["Ri_comp & Li_comp <=> I_comp", "Li => Li_comp"],
    "I_comp": ["Ri_comp & Li_comp <=> I_comp", "I => I_comp"],
}
T2_FLIP_TO_TRUE = {
    "Rn": ["Rn => Rn_comp"],
    "Ln": ["Ln => Ln_comp"],
    "N": ["Rn & Ln <=> N", "N => N_comp"],
    "Ra": ["Ra => Ra_comp"],
    "La": ["La => La_comp"],
    "A": ["Ra & La <=> A", "A => A_comp"],
    "Ri": ["Ri => Ri_comp"],
    "Li": ["Li => Li_comp"],
    "I": ["Ri & Li <=> I", "I => I_comp"],
    "Rn_comp": [],
    "Ln_comp": [],
    "N_comp": ["Rn_comp & Ln_comp <=> N_comp"],
    "Ra_comp": [],
    "La_comp": [],
    "A_comp": ["Ra_comp & La_comp <=> A_comp"],
    "Ri_comp": [],
    "Li_comp": [],
    "I_comp": ["Ri_comp & Li_comp <=> I_comp"],
}


def _verdicts(props, holds: bool, flipped=()) -> dict:
    return {p: Verdict(p, holds != (p in flipped), (), True, 1) for p in props}


@pytest.mark.parametrize("base", [True, False])
@pytest.mark.parametrize("prop", TABLE1_PROPS)
def test_audit_reports_each_table1_dependency(prop, base):
    expected = (T1_FLIP_TO_FALSE if base else T1_FLIP_TO_TRUE)[prop]
    table1 = _verdicts(TABLE1_PROPS, base, {prop})
    table2 = ((4, _verdicts(TABLE2_PROPS, base)),)
    assert _implication_audit(table1, table2) == tuple(expected)


@pytest.mark.parametrize("base", [True, False])
@pytest.mark.parametrize("prop", TABLE2_PROPS)
def test_audit_reports_each_table2_dependency(prop, base):
    expected = (T2_FLIP_TO_FALSE if base else T2_FLIP_TO_TRUE)[prop]
    table1 = _verdicts(TABLE1_PROPS, base)
    table2 = ((0, _verdicts(TABLE2_PROPS, base)), (7, _verdicts(TABLE2_PROPS, base, {prop})))
    assert _implication_audit(table1, table2) == tuple(f"element 7: {v}" for v in expected)


def test_audit_order_table1_then_elements_iffs_before_implications():
    syntactic = TABLE2_PROPS[:9]
    table1 = _verdicts(TABLE1_PROPS, True, {"CP"})
    table2 = (
        (3, _verdicts(TABLE2_PROPS, True, {"N", "I_comp"})),
        (1, _verdicts(TABLE2_PROPS, True, set(TABLE2_PROPS[9:]))),
    )
    assert _implication_audit(table1, table2) == (
        "FPP => CP",
        "element 3: Rn & Ln <=> N",
        "element 3: Ri_comp & Li_comp <=> I_comp",
        "element 3: I => I_comp",
        *(f"element 1: {p} => {p}_comp" for p in syntactic),
    )


# --- quotient and congruence ------------------------------------------------


def test_quotient_groups_permutations(small_universe, small_corpus):
    a = parse_strict("class P { n: S }")
    b = Model(tuple(reversed(a.constraints)))
    doubled = Model(a.constraints + a.constraints[:1])
    distinct = parse_strict("class P { m: T }")
    corpus = Corpus((a, b, doubled, distinct), "variants")
    part = quotient(corpus, small_universe)
    assert part.classes == ((0, 1, 2), (3,))


def test_quotient_singletons(small_universe):
    corpus = Corpus((Model(()), parse_strict("class P { n: S }")), "two")
    part = quotient(corpus, small_universe)
    assert part.classes == ((0,), (1,))


def test_congruence_union(small_corpus, small_universe):
    part = quotient(small_corpus, small_universe)
    assert congruence_check("union", part, small_universe).holds


def test_congruence_trivial_on_singletons(small_universe):
    corpus = Corpus((Model(()), parse_strict("class P { n: S }")), "two")
    part = quotient(corpus, small_universe)
    assert congruence_check("paranoid", part, small_universe).holds


def test_congruence_failure_witnesses_replay_against_the_oracle():
    # in the first corpus the first two models are contradictory in different classes, so they
    # form one semantic class; on the default corpus every operator is a congruence
    contradictions = Corpus(tuple(map(parse_strict, (
        "class P { n: S } class P { n: T }", "class Q { m: S } class Q { m: T }", "class P { n: S }"))), "congruence")
    for corpus, count, shared, expected in (
        (contradictions, 2, ((0, 1),), ["intersect", "override"]),
        (default_corpus(), 30, ((1, 30, 31), (2, 32, 33), (3, 34, 35)), []),
    ):
        u = build_universe(corpus.models)
        oracle = EnumOracle(u)
        part = quotient(corpus, u)
        assert len(part.classes) == count and tuple(c for c in part.classes if len(c) > 1) == shared
        rep = {i: c[0] for c in part.classes for i in c}
        members = {i for c in shared for i in c}
        pairs = [(a, b) for a, b in itertools.product(rep, repeat=2) if a in members or b in members]
        ms, failing = corpus.models, []
        for op, f in sorted(OPERATORS.items()):
            verdict = congruence_check(op, part, u)
            if verdict.holds:
                # every pair with a member of a class of several models composes as its representatives do
                for a, b in pairs:
                    assert oracle.eq(oracle.den(f(ms[a], ms[b])), oracle.den(f(ms[rep[a]], ms[rep[b]])))
                continue
            failing.append(op)
            for w in verdict.witnesses:
                ma, mb, ra, rb = map(parse_witness, w.models)
                assert oracle.eq(oracle.den(ma), oracle.den(ra)) and oracle.eq(oracle.den(mb), oracle.den(rb))
                dm, dr = oracle.den(f(ma, mb)), oracle.den(f(ra, rb))
                assert not oracle.eq(dm, dr)
                assert w.observed == f"|sm(op(ma,mb))|={dm.sum()}, |sm(op(rep_i,rep_j))|={dr.sum()}"
        assert failing == expected


@pytest.mark.parametrize("op", sorted(OPERATORS))
def test_single_checks_agree_with_classify(op, small_corpus, small_universe):
    c, u = small_corpus, small_universe
    rep = classify(op, c, u)
    assert {**check_pairs(op, c, u), **check_associativity(op, c, u)} == rep.table1
    for idx, props in rep.table2:
        assert check_element(op, c.models[idx], c, u) == props
    assert congruence_check(op, quotient(c, u), u).holds == rep.theorems["t2"]["congruence"]


@pytest.mark.parametrize("op", sorted(OPERATORS))
def test_classify_composes_only_through_the_operator_table(monkeypatch, op):
    # perfbench/tracing.py times compositions by wrapping the OPERATORS entries,
    # so every memo miss of the composer must call the entry
    calls, composers = [], []
    entry = OPERATORS[op]

    class Recorded(algebra._Composer):
        def __init__(self, *args):
            super().__init__(*args)
            composers.append(self)

    monkeypatch.setitem(OPERATORS, op, lambda m1, m2: calls.append(1) or entry(m1, m2))
    monkeypatch.setattr(algebra, "_Composer", Recorded)
    corpus = default_corpus()
    classify(op, corpus, build_universe(corpus.models))
    assert len(composers) == 1 and len(calls) == sum(map(len, composers[0].rows.values())) > 0


# --- the collector pause ----------------------------------------------------


@pytest.mark.parametrize("raises", (False, True), ids=("returns", "raises"))
@pytest.mark.parametrize("enabled", (True, False), ids=("collector-on", "collector-off"))
def test_classify_leaves_the_collector_as_it_found_it(monkeypatch, small_corpus, small_universe, enabled, raises):
    paused = []
    check = algebra._check_element

    def recorded(comp, e):
        paused.append(not gc.isenabled())
        if raises:
            raise RuntimeError("check failed")
        return check(comp, e)

    monkeypatch.setattr(algebra, "_check_element", recorded)
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        if raises:
            with pytest.raises(RuntimeError, match="check failed"):
                classify("strict", small_corpus, small_universe)
        else:
            classify("strict", small_corpus, small_universe)
        assert gc.isenabled() == enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert paused and all(paused)


@pytest.mark.parametrize("op", sorted(OPERATORS))
def test_classify_and_its_report_make_no_reference_cycles(op):
    # the premise of pausing the collector: nothing a classification, its report and
    # its universe leave is a cycle, so dropping them frees all by reference counting,
    # both while its verdicts keep their failures unrendered and once read
    corpus = default_corpus()
    was = gc.isenabled()
    gc.collect()
    gc.disable()  # no automatic pass may free a cycle before the count
    try:
        for read in (False, True):
            u = build_universe(corpus.models)
            report = classify(op, corpus, u)
            if read:
                assert all(v.witnesses is not None for v in _report_verdicts(report))
            text = report_to_json(report)
            assert u.attr_pool and text and any("_kept" in vars(v) for v in _report_verdicts(report)) != read
            del u, text, report
            assert gc.collect() == 0
    finally:
        if was:
            gc.enable()


def _report_verdicts(report) -> list:
    return [*report.table1.values(), *(v for _, props in report.table2 for v in props.values())]


def _unread_com() -> Verdict:
    # union's Com fails on the default corpus; a fresh verdict keeps its failures unrendered
    corpus = default_corpus()
    v = check_pairs("union", corpus, build_universe(corpus.models))["Com"]
    assert not v.holds and "_kept" in vars(v)
    return v


def _reaches(obj, kind) -> bool:
    """Whether any object reachable from obj, not going through a class, is a `kind`."""
    seen, todo = set(), [obj]
    while todo:
        o = todo.pop()
        if isinstance(o, kind):
            return True
        if id(o) not in seen and not isinstance(o, type):
            seen.add(id(o))
            todo.extend(gc.get_referents(o))
    return False


COPIES = {
    **{f"pickle-{p}": lambda v, p=p: pickle.loads(pickle.dumps(v, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)},
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
}


@pytest.mark.parametrize("how", COPIES)
def test_an_unread_verdict_pickles_and_copies_as_its_rendered_tuple(how):
    # an unread verdict keeps the models its failures name, but not the composer and its memo
    v = _unread_com()
    assert _reaches(v, Model) and not _reaches(v, algebra._Composer)
    copied = COPIES[how](v)
    assert type(copied) is Verdict and "_kept" not in vars(copied)
    assert copied == Verdict(v.prop, v.holds, v.witnesses, v.exhaustive, v.checked)
    assert not _reaches(copied, (Model, algebra._Composer)) and not _reaches(v, Model)  # reading v let them go


def test_a_verdict_read_while_it_renders_gets_the_same_witnesses(monkeypatch):
    # as a read in another thread would, between the first read's start and its end
    v = _unread_com()
    inner = []
    witness = algebra.Witness

    def nested(*args):
        if not inner:
            inner.append("started")
            inner.append(v.witnesses)
        return witness(*args)

    monkeypatch.setattr(algebra, "Witness", nested)
    assert v.witnesses == inner[1] and "_kept" not in vars(v)


def test_an_unread_verdict_compares_hashes_prints_and_replaces_as_its_rendered_self():
    rendered = _unread_com()
    assert rendered.witnesses and rendered.witnesses is rendered.witnesses and "_kept" not in vars(rendered)
    reads = (
        lambda v: v == rendered and rendered == v,
        lambda v: hash(v) == hash(rendered),
        lambda v: repr(v) == repr(rendered),
        lambda v: dataclasses.replace(v, checked=1) == dataclasses.replace(rendered, checked=1),
        lambda v: dataclasses.astuple(v) == dataclasses.astuple(rendered),
    )
    for read in reads:
        assert read(_unread_com())
    unread = _unread_com()
    for v in (unread, rendered):
        with pytest.raises(AttributeError, match="^'Verdict' object has no attribute 'witness'$"):
            v.witness
    assert "_kept" in vars(unread) and not hasattr(rendered, "_kept")


# --- stability --------------------------------------------------------------


def test_stability_union_small_corpus(small_corpus):
    report = stability_check("union", small_corpus)
    assert report.stable and report.differing == ()


@pytest.mark.parametrize("op, count, first", (
    ("union", 0, ()),
    ("strict", 24, ("table2[4].Ri_comp", "table2[4].Li_comp", "table2[4].I_comp")),
    ("paranoid", 10, ("table2[4].Ri_comp", "table2[6].Ri_comp")),
), ids=("union-0", "strict-24", "paranoid-10"))
def test_stability_compares_against_no_fresh_attribute(op, count, first):
    # without a fresh attribute, every pool attribute is one a model names
    report = stability_check(op, default_corpus())
    assert report.stable == (count == 0) and len(report.differing) == count
    # in report order: Table 2 by model index, then by row
    assert report.differing[:len(first)] == first

    def position(key):
        idx, prop = key.removeprefix("table2[").split("].")
        return int(idx), TABLE2_PROPS.index(prop)

    assert list(report.differing) == sorted(report.differing, key=position)


def test_stability_of_a_corpus_that_names_no_attribute(monkeypatch):
    corpus = Corpus((Model(()), parse_strict("class P { }"), parse_strict("complete class Q { }")), "no attributes")
    with pytest.raises(ValueError, match="empty attribute pool"):
        build_universe(corpus.models, 1, 0, 1)
    monkeypatch.setattr(algebra, "classify", None)  # decided without classifying
    assert stability_check("strict", corpus) == algebra.StabilityReport("strict", True, ())
