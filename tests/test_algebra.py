import itertools
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
    check_commutativity,
    check_cp,
    check_element,
    check_fpp,
    check_pp,
    classify,
    congruence_check,
    default_corpus,
    denotation,
    generate_corpus,
    intersect_merge,
    parse_strict,
    quotient,
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
    _show,
)

from .oracle import EnumOracle, parse_witness
from .strategies import TINY_UNIVERSE, models

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


def test_union_pp_all_true(small_corpus, small_universe):
    verdicts = check_pp("union", small_corpus, small_universe)
    assert all(v.holds for v in verdicts.values())
    assert all(v.exhaustive for v in verdicts.values())


def test_intersect_pp_false_with_witness(small_corpus, small_universe, small_oracle):
    verdicts = check_pp("intersect", small_corpus, small_universe)
    assert not verdicts["PP"].holds
    w = verdicts["PP"].witnesses[0]
    m1, m2 = parse_witness(w.models[0]), parse_witness(w.models[1])
    from modelalg import intersect_merge

    merged = small_oracle.den(intersect_merge(m1, m2))
    both = small_oracle.den(m1) & small_oracle.den(m2)
    assert not small_oracle.subset(merged, both)


def test_pp_trivial_on_empty_model_corpus(small_universe):
    corpus = Corpus((Model(()),), "single")
    verdicts = check_pp("paranoid", corpus, small_universe)
    assert all(v.holds for v in verdicts.values())


def test_fpp(small_corpus, small_universe):
    assert check_fpp("union", small_corpus, small_universe).holds
    strict = check_fpp("strict", small_corpus, small_universe)
    assert not strict.holds and strict.witnesses


def test_cp(small_corpus, small_universe):
    assert check_cp("union", small_corpus, small_universe).holds
    assert check_cp("intersect", small_corpus, small_universe).holds
    paranoid = check_cp("paranoid", small_corpus, small_universe)
    assert not paranoid.holds and paranoid.witnesses


def test_commutativity(small_corpus, small_universe):
    verdicts = check_commutativity("union", small_corpus, small_universe)
    assert not verdicts["Com"].holds
    assert verdicts["Com_sm"].holds


def test_commutativity_single_model_corpus(small_universe):
    corpus = Corpus((parse_strict("class P { n: S }"),), "single")
    verdicts = check_commutativity("union", corpus, small_universe)
    assert verdicts["Com"].holds


def test_override_not_semantically_commutative(small_universe, small_corpus):
    assert not check_commutativity("override", small_corpus, small_universe)["Com_sm"].holds


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
    verdicts = [*report.table1.values(), *(v for _, props in report.table2 for v in props.values())]
    assert len(built) == sum(len(v.witnesses) for v in verdicts)


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
    verdict = check_pp("intersect", corpus, u)["PP"]
    assert verdict.holds is False and verdict.checked == len(corpus.models) ** 2
    assert len(verdict.witnesses) == MAX_WITNESSES
    assert [w.models for w in verdict.witnesses] == [(_show(a), _show(b)) for a, b in failures[:10]]


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
            meet = comp.meet(i, j)
            assert meet == comp.den(i) & comp.den(j)
            assert comp.meet(i, j) is meet
            assert all((meet is comp.den(k)) == (meet == comp.den(k)) for k in ids)


def test_associativity_denotes_nothing_where_the_ids_agree(monkeypatch):
    corpus = default_corpus()
    comp = algebra._Composer("union", corpus, build_universe(corpus.models))
    algebra._check_pp(comp)  # denotes the corpus and its pairwise compositions
    calls = []
    real = algebra.denotation
    monkeypatch.setattr(algebra, "denotation", lambda m, u: calls.append(m) or real(m, u))
    verdicts = algebra._check_associativity(comp, 42)
    assert verdicts["Ass"].holds and verdicts["Ass"].checked == 10_000
    assert calls == []


def _first(witnesses: list, make) -> None:
    if len(witnesses) < MAX_WITNESSES:
        witnesses.append(make())


def _eager_associativity(comp, seed: int) -> dict:
    """Ass and Ass_sm with both denotations of every triple computed and
    compared structurally."""
    ids, u = comp.ids, comp.u
    n = len(ids)
    exhaustive = n <= algebra.EXHAUSTIVE_TRIPLE_LIMIT
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
        rm, lm = comp(i, e), comp(e, i)
        terms = {"m1": i, "m": e, "op(m1,m)": rm, "op(m,m1)": lm,
                 "op(op(m1,m),m)": comp(rm, e), "op(m,op(m,m1))": comp(e, lm)}
        dens = {t: denotation(comp.models[x], comp.u) for t, x in terms.items()}
        for prop, names, (a, b, c), shown, syn_relation, sem_relation in algebra._ELEMENT_ROWS:
            if not terms[a] == terms[b] == terms[c]:
                _first(fails[prop], lambda: Witness(
                    (comp.show(i), comp.show(e)), syn_relation,
                    "; ".join(f"{t}={comp.show(terms[t])}" for t in shown)))
            if not dens[a] == dens[b] == dens[c]:
                _first(fails[prop + "_comp"], lambda: Witness(
                    (comp.show(i), comp.show(e)), sem_relation,
                    ", ".join(f"|sm({t})|={dens[t].size}" for t in names)))
    return {p: Verdict(p, not w, tuple(w), True, len(comp.ids)) for p, w in fails.items()}


@pytest.mark.parametrize("op", ("strict", "paranoid"))
@pytest.mark.parametrize("corpus", (default_corpus(), generate_corpus(SMALL_BOUNDS, max_models=50)),
                         ids=("sampled", "exhaustive"))
def test_lazy_checks_equal_eager_reference(op, corpus):
    u = build_universe(corpus.models)
    comp, eager = algebra._Composer(op, corpus, u), algebra._Composer(op, corpus, u)
    verdicts = algebra._check_associativity(comp, 42)
    assert verdicts == _eager_associativity(eager, 42)
    assert not verdicts["Ass_sm"].holds
    for e in comp.ids:
        assert algebra._check_element(comp, e) == _eager_element(eager, e)


# --- implication audit ------------------------------------------------------

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
    assert part.representatives == (0, 3)


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


def test_congruence_witness_is_sound(small_corpus, small_universe, small_oracle):
    # non-FPP operators may break the congruence; when they do, the witness
    # must re-validate against the oracle
    part = quotient(small_corpus, small_universe)
    for op in ("strict", "override", "paranoid", "intersect"):
        verdict = congruence_check(op, part, small_universe)
        if verdict.holds:
            continue
        w = verdict.witnesses[0]
        ma, mb, ra, rb = (parse_witness(t) for t in w.models)
        from modelalg import get_operator

        f = get_operator(op)
        assert not small_oracle.eq(small_oracle.den(f(ma, mb)), small_oracle.den(f(ra, rb)))


@pytest.mark.parametrize("op", sorted(OPERATORS))
def test_single_checks_agree_with_classify(op, small_corpus, small_universe):
    c, u = small_corpus, small_universe
    rep = classify(op, c, u)
    single = {
        **check_pp(op, c, u), "FPP": check_fpp(op, c, u), "CP": check_cp(op, c, u),
        **check_commutativity(op, c, u), **check_associativity(op, c, u),
    }
    assert single == rep.table1
    for idx, props in rep.table2:
        assert check_element(op, c.models[idx], c, u) == props
    assert congruence_check(op, quotient(c, u), u).holds == rep.theorems["t2"]["congruence"]


# --- stability --------------------------------------------------------------


def test_stability_union_small_corpus(small_corpus):
    report = stability_check("union", small_corpus)
    assert report.stable and report.differing == ()
