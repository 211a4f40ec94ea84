import json
import time
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from modelalg import (
    OPERATORS, Corpus, Verdict, Witness, algebra, build_universe, check_pairs, classify, default_corpus, parse_strict,
    quotient, report, stability_check, syntax,
)
from modelalg.report import _write_json, partition_to_text, report_to_dict, report_to_json, report_to_text
from modelalg.semantics import count_text

from .strategies import TINY_UNIVERSE, models

# every code point, lone surrogates included
strings = st.text(st.characters(exclude_categories=()))
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-(2**100), 2**100) | strings,
    lambda children: st.lists(children, max_size=4) | st.dictionaries(strings, children, max_size=4),
    max_leaves=30,
)
witnesses = st.builds(Witness, st.lists(strings, max_size=4).map(tuple), strings, strings)
verdicts = st.builds(
    Verdict, strings, st.booleans(), st.lists(witnesses, max_size=3).map(tuple), st.booleans(), st.integers(0, 2**70)
)
AWKWARD = ("\"quoted\" and \\ back", "\x00\x1f\t\n\x7f", "caf\xe9 ≠ \U0001f600", "\ud800 \udfff")


def verdict_dict(v: Verdict) -> dict:
    """The plain data a Verdict is written as."""
    return {
        "holds": v.holds,
        "witnesses": [
            {"models": list(w.models), "relation": w.relation, "observed": w.observed}
            for w in v.witnesses
        ],
        "sampling": {"exhaustive": v.exhaustive, "checked": v.checked},
    }


# a verdict on its own, and where Table 1 and Table 2 put one in a report
AT_REPORT_DEPTHS = (
    lambda v: v,
    lambda v: {"operator": "op", "table1": {"PP_l": v, "FPP": v}},
    lambda v: {"table2": [{"model": "", "props": {"id_l": v}}, {"model": "m", "props": {"id_l": v, "ann": v}}]},
)


def write(value) -> str:
    out: list[str] = []
    _write_json(value, out, "\n", {})
    return "".join(out)


@given(json_values)
@example({"caf\xe9": ["\x00\x1f\t\"\\", "\ud800", "\U0001f600"], "e": {}, "l": [], "n": [-(2**70), 0, True, None]})
@example([])
@example({})
def test_writer_matches_json_dumps(value):
    assert write(value) == json.dumps(value, indent=2)


@given(verdicts)
@example(Verdict("P", True, (), True, 0))
@example(Verdict("P", False, (Witness((), "", ""),), False, 10000))
@example(Verdict("P", False, (Witness(AWKWARD, AWKWARD[0], AWKWARD[3]), Witness(AWKWARD[1:2], *AWKWARD[1:3])), True, 1))
def test_verdict_written_as_its_plain_dict(v):
    for wrap in AT_REPORT_DEPTHS:
        assert write(wrap(v)) == json.dumps(wrap(verdict_dict(v)), indent=2)


def test_report_written_as_its_plain_dict():
    models = [parse_strict(src) for src in ("", "class A { x: T }", "class A {}\nclass A { x: T }", "class B {}")]
    corpus = Corpus(models, "test")
    rep = classify("override", corpus, build_universe(models))
    assert report_to_json(rep) == json.dumps(report_to_dict(rep), default=verdict_dict, indent=2) + "\n"


def _unread(rep) -> list:
    verdicts = [*rep.table1.values(), *(v for _, props in rep.table2 for v in props.values())]
    return [v for v in verdicts if "_kept" in vars(v)]


@settings(max_examples=40, deadline=None)
@given(st.lists(models, min_size=1, max_size=6), st.sampled_from(sorted(OPERATORS)))
def test_a_report_is_written_alike_from_its_failures_and_from_its_witnesses(corpus_models, op):
    rep = classify(op, Corpus(tuple(corpus_models), "drawn"), TINY_UNIVERSE)
    unread = _unread(rep)
    fresh = report_to_json(rep)
    assert all("_kept" in vars(v) for v in unread)  # writing read no verdict
    for v in unread:
        assert v.witnesses
    assert _unread(rep) == []
    assert report_to_json(rep) == fresh == json.dumps(report_to_dict(rep), default=verdict_dict, indent=2) + "\n"


def test_an_unread_verdict_is_written_by_its_witness_count_whatever_its_holds():
    corpus = default_corpus()
    v = check_pairs("union", corpus, build_universe(corpus.models))["Com"]
    object.__setattr__(v, "holds", True)  # as test_verdict_written_as_its_plain_dict may draw one
    written = [write(wrap(v)) for wrap in AT_REPORT_DEPTHS]
    assert "_kept" in vars(v)
    assert written == [json.dumps(wrap(verdict_dict(v)), indent=2) for wrap in AT_REPORT_DEPTHS]


@pytest.mark.parametrize("op", sorted(OPERATORS))
def test_a_json_report_and_stability_build_no_witness(monkeypatch, op):
    built = []
    witness = algebra.Witness
    monkeypatch.setattr(algebra, "Witness", lambda *args: built.append(args) or witness(*args))
    corpus = default_corpus()
    rep = classify(op, corpus, build_universe(corpus.models))
    assert report_to_json(rep) and _unread(rep)
    assert stability_check(op, corpus).operator == op
    assert built == []


def test_equal_models_at_two_depths_are_written_at_their_own_depths():
    corpus = default_corpus()
    rep = classify("union", corpus, build_universe(corpus.models))
    shown = [[record[0] for v in verdicts for record in vars(v).get("_kept", ())]
             for verdicts in (rep.table1.values(), (v for _, props in rep.table2 for v in props.values()))]
    assert set(shown[0]) & set(shown[1])  # a Table 1 and a Table 2 witness show the same models
    assert report_to_json(rep) == json.dumps(report_to_dict(rep), default=verdict_dict, indent=2) + "\n"


@pytest.mark.parametrize("op", sorted(OPERATORS))
def test_each_models_array_is_encoded_once_per_depth(monkeypatch, op):
    corpus = default_corpus()
    rep = classify(op, corpus, build_universe(corpus.models))
    depth, arrays, encoded = [], set(), Counter()
    write_verdict, encode = report._write_verdict, report.encode_basestring_ascii

    def verdict(v, out, newline, memo):
        arrays.update((texts, newline) for texts, _, _ in algebra._failures(v))
        depth.append(newline)
        write_verdict(v, out, newline, memo)
        depth.pop()

    def counted(s):
        if depth:  # inside a verdict
            encoded[s, depth[-1]] += 1
        return encode(s)

    monkeypatch.setattr(report, "_write_verdict", verdict)
    monkeypatch.setattr(report, "encode_basestring_ascii", counted)
    report_to_json(rep)
    expected = Counter((text, newline) for texts, newline in arrays for text in texts)
    assert {key: n for key, n in encoded.items() if key in expected} == expected
    assert sum(len(v.__dict__["_kept"]) for v in _unread(rep)) > len(arrays)


@pytest.mark.parametrize("value", [1.5, {"a": [1.5]}, {1, 2}, (1, 2), {1: "a"}, [{None: 0}], b"x"])
def test_writer_rejects_what_reports_never_hold(value):
    with pytest.raises(TypeError):
        write(value)


def test_reports_on_a_universe_whose_counts_pass_the_digit_limit():
    corpus = default_corpus()
    u = build_universe(corpus.models, 100, 100, 100, cap=None)
    start = time.perf_counter()
    rep = classify("union", corpus, u)
    text, json_text = report_to_text(rep), report_to_json(rep)
    assert time.perf_counter() - start < 2
    total = count_text(u.system_count)
    assert total.startswith("about 10^") and json.loads(json_text)["universe"]["system_count"] == total
    assert f"({total} systems)" in text
    assert "|=about 10^" in json_text  # the sizes of Table 2's semantic witnesses


def test_each_model_is_written_on_one_line_once(monkeypatch):
    # the checker's witnesses and both text reports share each model's one-line view
    written = []  # holds every model written, so no two of them share an id
    lines = syntax._lines
    monkeypatch.setattr(syntax, "_lines", lambda m: written.append(m) or lines(m))
    corpus = default_corpus()
    u = build_universe(corpus.models)
    for op in OPERATORS:
        report_to_text(classify(op, corpus, u))
    partition_to_text(quotient(corpus, u))
    assert written and len({id(m) for m in written}) == len(written)
