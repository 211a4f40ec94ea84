import argparse
import json
import os
import time
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from modelalg import Model, algebra, cli
from modelalg.cli import main

PERSON_NAME = "class Person { name: String }\n"
PERSON_AGE = "class Person { age: Int }\n"
WORKED_UNIVERSE = {"classes": ["Person", "X"], "attrs": ["name"], "types": ["String"]}


@pytest.fixture
def files(tmp_path):
    (tmp_path / "name.mcd").write_text(PERSON_NAME)
    (tmp_path / "age.mcd").write_text(PERSON_AGE)
    (tmp_path / "empty.mcd").write_text("")
    (tmp_path / "bad.mcd").write_text("class {")
    (tmp_path / "universe.json").write_text(json.dumps(WORKED_UNIVERSE))
    return tmp_path


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


def run_refused(capsys, *argv):
    """Exit code and stderr of a run that ends in an input error, whether it
    is reported by argparse (SystemExit) or by main's return code."""
    try:
        code = main([str(a) for a in argv])
    except SystemExit as exc:
        code = exc.code
    return code, capsys.readouterr().err


def test_compose_union(files, capsys):
    code, out, _ = run(capsys, "compose", "--operator", "union", files / "name.mcd", files / "age.mcd")
    assert code == 0
    assert out == "class Person { name: String, age: Int }\n"


def test_compose_with_empty_rerenders(files, capsys):
    code, out, _ = run(capsys, "compose", "--operator", "union", files / "empty.mcd", files / "name.mcd")
    assert code == 0
    assert out == PERSON_NAME


def test_compose_malformed_input(files, capsys):
    code, out, err = run(capsys, "compose", "--operator", "union", files / "bad.mcd", files / "name.mcd")
    assert code == 2
    assert "error:" in err and " at 1:" in err


def test_trailing_complete_exits_2(files, capsys):
    (files / "trailing.mcd").write_text("class P { }\ncomplete\n")
    code, out, err = run(capsys, "sm", files / "trailing.mcd")
    assert (code, out) == (2, "")
    assert err == f"{files / 'trailing.mcd'}: error: expected 'class', found '' at 3:1\n"


def test_compose_missing_file(files, capsys):
    code, _, err = run(capsys, "compose", "--operator", "union", files / "nope.mcd", files / "name.mcd")
    assert code == 2


def test_sm_worked_universe(files, capsys):
    code, out, _ = run(capsys, "sm", files / "name.mcd", "--universe", files / "universe.json")
    assert code == 0
    assert out == "3 of 9, consistent\n"


def test_sm_list_members(files, capsys):
    code, out, _ = run(capsys, "sm", files / "name.mcd", "--universe", files / "universe.json", "--list")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 4  # summary + 3 systems
    assert all("Person{name: String}" in line for line in lines[1:])


def test_sm_empty_model_no_information(files, capsys):
    code, out, _ = run(capsys, "sm", files / "empty.mcd", "--universe", files / "universe.json")
    assert code == 0
    assert out == "9 of 9, no information\n"


def test_sm_contradiction(files, capsys):
    (files / "contra.mcd").write_text("class P { n: String }\nclass P { n: Int }\n")
    code, out, _ = run(capsys, "sm", files / "contra.mcd")
    assert code == 0
    assert out.startswith("0 of ") and out.endswith("inconsistent\n")


def test_sm_cap_exceeded_exits_3(files, capsys):
    huge = {
        "classes": [f"C{i}" for i in range(10)],
        "attrs": ["a", "b", "c"],
        "types": ["S", "T"],
    }
    (files / "huge.json").write_text(json.dumps(huge))
    code, _, err = run(capsys, "sm", files / "name.mcd", "--universe", files / "huge.json")
    assert code == 3
    assert "exceeding the cap" in err


# the N of each refusal's "about 10^N", int(classes * log10(1 + (types + 1) ** attrs)),
# for the pools of name.mcd and of the default corpus
REFUSED_EXPONENT = {
    "100,100,100": (20489, 20941), "1000,1000,1000": (3006872, 3013318), "3000,3000,3000": (31317564, 31339742),
    "5000000,0,0": (2385606, 5000002), "0,5000000,0": (1505150, 4771214), "0,100000000,0": (30102999, 95424252),
}


@pytest.mark.parametrize("padding", list(REFUSED_EXPONENT))
@pytest.mark.parametrize("command", [
    ("sm", "name.mcd"), ("check", "consistent", "name.mcd"), ("classify", "--operator", "union"), ("quotient",),
])
def test_astronomical_universe_refused_quickly(files, capsys, command, padding):
    argv = [files / a if a.endswith(".mcd") else a for a in command]
    start = time.perf_counter()
    code, out, err = run(capsys, *argv, "--padding", padding)
    elapsed = time.perf_counter() - start
    n = REFUSED_EXPONENT[padding][command[0] in ("classify", "quotient")]
    assert (code, out, err) == (3, "", f"error: universe has about 10^{n} systems, exceeding the cap of 1048576\n")
    assert elapsed < 2


def test_empty_pool_refused_quickly(files, capsys):
    (files / "p.mcd").write_text("class P { }\n")
    start = time.perf_counter()
    assert run(capsys, "sm", files / "p.mcd", "--padding", "0,0,3000000") == (2, "", "error: empty attribute pool\n")
    assert time.perf_counter() - start < 2


def test_check_refines(files, capsys):
    (files / "both.mcd").write_text("class Person { name: String, age: Int }\n")
    code, out, _ = run(capsys, "check", "refines", files / "both.mcd", files / "name.mcd")
    assert code == 0 and out == "true\n"
    code, out, _ = run(capsys, "check", "refines", files / "name.mcd", files / "both.mcd")
    assert code == 0 and out == "false\n"


def test_check_consistent_and_eq(files, capsys):
    code, out, _ = run(capsys, "check", "consistent", files / "name.mcd")
    assert code == 0 and out == "true\n"
    (files / "permuted.mcd").write_text("class Person { }\nclass Person { name: String }\n")
    code, out, _ = run(capsys, "check", "eq", files / "name.mcd", files / "permuted.mcd")
    assert code == 0 and out == "true\n"


def test_check_uninformative(files, capsys):
    code, out, _ = run(capsys, "check", "uninformative", files / "empty.mcd")
    assert code == 0 and out == "true\n"


@pytest.mark.parametrize("predicate, count", [
    ("consistent", 3), ("uninformative", 2), ("refines", 1), ("eq", 3),
])
def test_check_wrong_number_of_models(files, capsys, predicate, count):
    code, out, err = run(capsys, "check", predicate, *[files / "name.mcd"] * count)
    assert code == 2 and out == ""
    assert err.startswith(f"check {predicate} needs exactly ") and err.count("\n") == 1


@pytest.mark.parametrize("spec, message", [
    (json.dumps({"classes": ["Person"], "attrs": ["name"]}), "needs 'classes', 'attrs' and 'types'"),
    ("classes: [Person]", "is not valid JSON"),
    (json.dumps({"classes": ["bad name"], "attrs": ["name"], "types": ["String"]}),
     "invalid name in universe spec: 'bad name'"),
    (json.dumps({"classes": ["Person", "class"], "attrs": ["name"], "types": ["String"]}),
     "invalid name in universe spec: 'class'"),
    (json.dumps({"classes": ["Person"], "attrs": ["name", "complete"], "types": ["String"]}),
     "invalid name in universe spec: 'complete'"),
    pytest.param("[" * 100_000 + "]" * 100_000, "is not valid JSON", id="deeply-nested"),
])
def test_bad_universe_spec_exits_2(files, capsys, spec, message):
    (files / "spec.json").write_text(spec)
    code, err = run_refused(capsys, "sm", files / "name.mcd", "--universe", files / "spec.json")
    assert code == 2
    assert err.startswith("error: ") and message in err and err.count("\n") == 1


def test_unreadable_universe_spec_exits_2(files, capsys):
    missing = files / "missing.json"
    code, err = run_refused(capsys, "sm", files / "name.mcd", "--universe", missing)
    assert code == 2
    assert err.startswith(f"cannot read universe spec {missing}: ") and err.count("\n") == 1


def test_negative_padding_exits_2(files, capsys):
    code, err = run_refused(capsys, "sm", files / "name.mcd", "--padding=-1,0,0")
    assert code == 2
    assert "Traceback" not in err
    assert err.rstrip("\n").splitlines()[-1].endswith("padding counts must be >= 0")


def test_unwritable_output_exits_2(files, capsys):
    target = files / "no_such_dir" / "out.mcd"
    code, err = run_refused(capsys, "compose", "--operator", "union",
                            files / "name.mcd", files / "age.mcd", "--output", target)
    assert code == 2
    assert err.startswith(f"cannot write {target}: ") and err.count("\n") == 1


def test_jobs_option_removed(files, capsys):
    code, err = run_refused(capsys, "compose", "--operator", "union",
                            files / "name.mcd", files / "age.mcd", "--jobs", "2")
    assert code == 2 and "unrecognized arguments: --jobs" in err


@pytest.mark.parametrize("command", [
    ("compose", "--operator", "union", "name.mcd", "age.mcd"),
    ("sm", "name.mcd"),
    ("check", "refines", "name.mcd", "age.mcd"),
])
def test_seed_option_only_where_read(files, capsys, command):
    argv = [files / a if a.endswith(".mcd") else a for a in command]
    code, err = run_refused(capsys, *argv, "--seed", "1")
    assert code == 2 and "unrecognized arguments: --seed 1" in err


@pytest.mark.parametrize("command", [("sm", "name.mcd"), ("classify", "--operator", "union", "--corpus", "corpus")])
def test_padding_with_universe_file_exits_2(files, capsys, command):
    (files / "corpus").mkdir()
    (files / "corpus" / "a.mcd").write_text(PERSON_NAME)
    argv = [files / a if a.endswith(".mcd") or a == "corpus" else a for a in command]
    code, out, err = run(capsys, *argv, "--universe", files / "universe.json", "--padding", "2,2,2")
    assert code == 2 and out == ""
    assert err == "--padding applies only to --universe auto, not to a universe file\n"


def test_padding_defaults_to_one_fresh_name_each(files, capsys):
    default = run(capsys, "sm", files / "name.mcd")
    assert run(capsys, "sm", files / "name.mcd", "--universe", "auto", "--padding", "1,1,1") == default
    assert run(capsys, "sm", files / "name.mcd", "--padding", "0,0,0") != default


def test_universe_pool_not_a_list_exits_2(files, capsys):
    (files / "pq.mcd").write_text("class P { a: B }\n")
    (files / "spec.json").write_text(json.dumps({"classes": "PQ", "attrs": "a", "types": "B"}))
    code, out, err = run(capsys, "sm", files / "pq.mcd", "--universe", files / "spec.json")
    assert code == 2 and out == ""
    assert err == "error: universe spec needs 'classes', 'attrs' and 'types' lists\n"


@pytest.mark.parametrize("command", [("sm",), ("check", "consistent"), ("quotient", "--corpus")])
def test_non_utf8_model_exits_2(files, capsys, command):
    corpus_dir = files / "corpus"
    corpus_dir.mkdir()
    path = corpus_dir / "latin1.mcd"
    path.write_bytes("class Caf\xe9 { }\n".encode("latin-1"))
    target = corpus_dir if command[0] == "quotient" else path
    code, out, err = run(capsys, *command, target)
    assert code == 2 and out == ""
    assert err.startswith(f"{path}: ") and "can't decode byte 0xe9" in err and err.count("\n") == 1


def test_classify_corpus_dir_json(files, capsys):
    corpus_dir = files / "corpus"
    corpus_dir.mkdir()
    (corpus_dir / "a.mcd").write_text(PERSON_NAME)
    (corpus_dir / "b.mcd").write_text(PERSON_AGE)
    (corpus_dir / "c.mcd").write_text("")
    code, out, _ = run(capsys, "classify", "--operator", "union", "--corpus", corpus_dir, "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {
        "operator", "universe", "corpus", "table1", "table2", "implication_audit", "theorems",
    }
    assert doc["operator"] == "union"
    assert doc["implication_audit"] == []
    assert doc["table1"]["FPP"]["holds"] is True
    assert len(doc["table2"]) == 3


def test_classify_text_output(files, capsys):
    corpus_dir = files / "corpus"
    corpus_dir.mkdir()
    (corpus_dir / "a.mcd").write_text(PERSON_NAME)
    (corpus_dir / "b.mcd").write_text(PERSON_AGE)
    code, out, _ = run(capsys, "classify", "--operator", "paranoid", "--corpus", corpus_dir)
    assert code == 0
    assert "Table 1" in out and "CP" in out and "implication audit: ok" in out


def test_classify_deterministic_bytes(files, capsys, tmp_path):
    corpus_dir = files / "corpus"
    corpus_dir.mkdir()
    (corpus_dir / "a.mcd").write_text(PERSON_NAME)
    (corpus_dir / "b.mcd").write_text(PERSON_AGE)
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    for out in (out1, out2):
        code = main(["classify", "--operator", "strict", "--corpus", str(corpus_dir),
                     "--format", "json", "--output", str(out)])
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_quotient_output(files, capsys):
    corpus_dir = files / "corpus"
    corpus_dir.mkdir()
    (corpus_dir / "a.mcd").write_text(PERSON_NAME)
    (corpus_dir / "b.mcd").write_text("class Person { }\nclass Person { name: String }\n")
    (corpus_dir / "c.mcd").write_text(PERSON_AGE)
    code, out, _ = run(capsys, "quotient", "--corpus", corpus_dir)
    assert code == 0
    assert out.startswith("2 semantic classes over 3 models")
    assert "#0 #1" in out


def test_corpus_write(files, capsys, tmp_path):
    out_dir = tmp_path / "corpus_out"
    code, out, _ = run(capsys, "corpus", "--out", out_dir)
    assert code == 0
    written = sorted(out_dir.glob("*.mcd"))
    assert len(written) >= 30
    assert written[0].read_text() == ""  # the empty model comes first


def test_corpus_out_uncreatable_exits_2(files, capsys):
    target = files / "name.mcd" / "sub"  # below a regular file
    code, err = run_refused(capsys, "corpus", "--out", target)
    assert code == 2
    assert "Traceback" not in err
    assert err.startswith(f"cannot write corpus to {target}: ") and err.count("\n") == 1


def test_corpus_out_and_output_exits_2(files, capsys):
    code, out, err = run(capsys, "corpus", "--out", files / "d", "--output", files / "f.txt")
    assert code == 2 and out == ""
    assert err == "give --out DIR or --output FILE, not both\n"
    assert not (files / "d").exists() and not (files / "f.txt").exists()


def test_classify_universe_missing_a_corpus_name_exits_2(files, capsys):
    corpus_dir = files / "corpus"
    corpus_dir.mkdir()
    (corpus_dir / "a.mcd").write_text(PERSON_NAME)
    (corpus_dir / "b.mcd").write_text(PERSON_AGE)  # 'age' is not in the universe
    code, err = run_refused(capsys, "classify", "--operator", "union", "--corpus", corpus_dir,
                            "--universe", files / "universe.json")
    assert code == 2
    assert err == "error: attribute 'age' not in universe\n"


def test_stability_small(files, capsys):
    corpus_dir = files / "corpus"
    corpus_dir.mkdir()
    (corpus_dir / "a.mcd").write_text(PERSON_NAME)
    (corpus_dir / "b.mcd").write_text(PERSON_AGE)
    code, out, _ = run(capsys, "stability", "--operator", "union", "--corpus", corpus_dir)
    assert code == 0
    assert out == "union: stable\n"


def test_stability_lists_the_differing_verdicts(capsys):
    code, out, _ = run(capsys, "stability", "--operator", "strict")
    lines = out.splitlines()
    assert code == 0 and len(lines) == 25
    assert lines[0] == "strict: unstable"
    assert lines[1] == "  table2[4].Ri_comp" and lines[-1] == "  table2[29].I_comp"


def test_failed_implication_audit_exits_4(files, capsys, monkeypatch):
    corpus_dir = files / "corpus"
    corpus_dir.mkdir()
    (corpus_dir / "a.mcd").write_text(PERSON_NAME)
    monkeypatch.setattr(algebra, "_implication_audit", lambda table1, table2: ("FPP => PP",))
    code, out, err = run(capsys, "classify", "--operator", "union", "--corpus", corpus_dir)
    assert code == 4
    assert "\nimplication audit: VIOLATIONS\n  FPP => PP\ntheorem 1 " in out
    assert err == "error: implication audit failed (checker self-defect)\n"


def test_unknown_operator_rejected(files, capsys):
    with pytest.raises(SystemExit):
        main(["compose", "--operator", "mystery", str(files / "name.mcd"), str(files / "age.mcd")])


# --- reading model files -----------------------------------------------------

BYTE_PIECES = (b"\r", b"\n", b"\r\n", b"\r\r\n", b"\xef\xbb\xbf", b"\x00", b"\xe9", b"\xc3\xa9", b"\xff",
               b"\xe2\x80\xa8", b"class P { a: T }", b" ")


@given(st.one_of(st.binary(), st.lists(st.sampled_from(BYTE_PIECES)).map(b"".join)), st.booleans())
@example(b"class P { }\r\nclass Q { }\r\r\n\r", False)
@example(b"\xef\xbb\xbfclass P { }\x00\n", True)
@example(b"class P {\r\xe9 }", False)
def test_model_files_read_as_read_text_reads_them(tmp_path_factory, data, listed):
    path = tmp_path_factory.getbasetemp() / "read.mcd"
    path.write_bytes(data)
    try:
        expected = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        expected = f"{path}: {exc}"
    with mock.patch.object(cli, "parse_strict", lambda text: text):  # return the text read
        try:
            got = cli._load_model(str(path), listed=listed)
        except cli.CliError as exc:
            got = str(exc)
    assert got == expected


ODD_NAMES = (".h.mcd", "UP.MCD", "x.mcd.bak", ".mcd", "a b.mcd", "\xe9t\xe9.mcd", "b.mcd", "a.mcd", "Z.mcd")


def _listed(corpus: str) -> list[str]:
    """The paths _load_corpus passes to _load_model for --corpus corpus."""
    seen = []
    with mock.patch.object(cli, "_load_model", lambda path, listed=False: seen.append(path) or Model()):
        cli._load_corpus(argparse.Namespace(corpus=corpus))
    return seen


@pytest.mark.parametrize("spelling", ["{d}", "{d}/", "./{d}", "{d}//", "."])
def test_corpus_listing_is_sorted_glob(tmp_path, monkeypatch, spelling):
    monkeypatch.chdir(tmp_path)
    d = Path("corpus")
    d.mkdir()
    (d / "sub.mcd").mkdir()
    for name in ODD_NAMES:
        (d / name).write_text("")
    corpus = spelling.format(d=d)
    if corpus == ".":
        monkeypatch.chdir(d)
    assert _listed(corpus) == [str(p) for p in sorted(Path(corpus).glob("*.mcd"))]
    assert len(_listed(corpus)) == 8


@pytest.mark.parametrize("spelling", [".", "{d}/", "./{d}", "{d}"])
def test_malformed_corpus_file_named_as_directory_joins_it(tmp_path, monkeypatch, capsys, spelling):
    monkeypatch.chdir(tmp_path)
    d = Path("corpus")
    d.mkdir()
    (d / "a.mcd").write_text(PERSON_NAME)
    (d / "m.mcd").write_text("class P {\r\n  x\n}")
    corpus = spelling.format(d=d)
    if corpus == ".":
        monkeypatch.chdir(d)
    shown = str(Path(corpus) / "m.mcd")
    assert shown == ("m.mcd" if corpus == "." else "corpus/m.mcd")
    assert run(capsys, "quotient", "--corpus", corpus) == (2, "", f"{shown}: error: expected ':' after attribute name at 3:1\n")


def test_argv_model_paths_go_through_path(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    Path("m.mcd").write_text("class {")
    assert run(capsys, "sm", "m.mcd/") == (2, "", "m.mcd/: error: expected class name at 1:7\n")
    assert run(capsys, "sm", "./m.mcd") == (2, "", "./m.mcd: error: expected class name at 1:7\n")
    assert run(capsys, "sm", "") == (2, "", "cannot read : [Errno 21] Is a directory: '.'\n")
    assert run(capsys, "sm", "a//b.mcd") == (2, "", "cannot read a//b.mcd: [Errno 2] No such file or directory: 'a/b.mcd'\n")


def test_unlistable_corpus_exits_2(files, capsys, monkeypatch):
    def refuse(path):
        raise PermissionError(13, "Permission denied", path)

    monkeypatch.setattr(os, "listdir", refuse)
    assert run(capsys, "quotient", "--corpus", files) == (2, "", f"no .mcd files in {files}\n")
