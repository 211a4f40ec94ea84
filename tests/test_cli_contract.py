"""The CLI's contract across requests: every argv exits 0, 2, 3 or 4 without a
traceback, the one parser of a process serves every request alike, and a
fresh interpreter prints what an in-process call prints."""

import contextlib
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import modelalg
from modelalg import cli
from modelalg.operators import OPERATORS

SRC = str(Path(modelalg.__file__).resolve().parents[1])
LATIN1_MODEL = "class Caf\xe9 { name: String }\n".encode("latin-1")
SPECS = {
    "universe.json": {"classes": ["Person", "Account", "X"], "attrs": ["name", "age"], "types": ["String", "Int"]},
    "huge.json": {"classes": [f"C{i}" for i in range(10)], "attrs": ["a", "b", "c"], "types": ["S", "T"]},
    "missing_key.json": {"classes": ["Person"], "attrs": ["name"]},
    "not_list.json": {"classes": "Person", "attrs": ["name"], "types": ["String"]},
    "bad_name.json": {"classes": ["bad name"], "attrs": ["name"], "types": ["String"]},
    "empty_pool.json": {"classes": [], "attrs": ["name"], "types": ["String"]},
    "duplicate.json": {"classes": ["Person", "Person"], "attrs": ["name"], "types": ["String"]},
    "list.json": ["Person", "name", "String"],
}


@pytest.fixture
def workspace(tmp_path, monkeypatch):
    """Model files, corpus directories and universe specs, good and bad, in
    the working directory, so that argvs name them by relative paths."""
    monkeypatch.chdir(tmp_path)
    models = {"name.mcd": "class Person { name: String }\n", "age.mcd": "class Person { age: Int }\nclass Account {}\n"}
    for directory in ("adir.mcd", "corpus", "empty_dir", "bad_corpus"):
        Path(directory).mkdir()
    for name, text in models.items():
        Path(name).write_text(text)
        Path("corpus", name).write_text(text)
    Path("bad.mcd").write_text("class {")
    Path("latin1.mcd").write_bytes(LATIN1_MODEL)
    Path("bad_corpus", "latin1.mcd").write_bytes(LATIN1_MODEL)
    for name, spec in SPECS.items():
        Path(name).write_text(json.dumps(spec))
    Path("malformed.json").write_text("classes: [Person]")
    Path("latin1.json").write_bytes(b'{"classes": ["Caf\xe9"]}')
    return tmp_path


def call(argv):
    """(exit code, stdout, stderr, whether argparse exited) of one in-process request."""
    out, err = io.StringIO(), io.StringIO()
    exited = False
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code, exited = exc.code, True
    return code, out.getvalue(), err.getvalue(), exited


# --- argv fuzzing -------------------------------------------------------------

MODELS = ("name.mcd", "age.mcd", "bad.mcd", "latin1.mcd", "adir.mcd", "missing.mcd")
counts = st.integers(0, 3000)  # up to and past the counts that once crashed or hung the cap refusal
OPTIONS = {
    "--operator": st.sampled_from(sorted(OPERATORS)),
    "--universe": st.sampled_from(("auto", *SPECS, "malformed.json", "latin1.json", "missing.json", "adir.mcd")),
    "--padding": st.tuples(counts, counts, counts).map(lambda t: ",".join(map(str, t))),
    # never the default corpus, whose classify and stability runs take a good part of a second
    "--corpus": st.sampled_from(("corpus", "bad_corpus", "empty_dir", "missing_dir", "name.mcd")),
    "--output": st.sampled_from(("out.txt", "adir.mcd", "no_dir/out.txt")),
    "--out": st.sampled_from(("out_dir", "name.mcd")),
    "--format": st.sampled_from(("text", "json")),
    "--seed": st.sampled_from(("0", "7", "-3")),
}
# values argparse refuses
BAD_VALUES = {
    "--operator": ("nope",), "--padding": ("1,1", "1,1,1,1", "a,b,c", "-1,0,0", ""),
    "--format": ("xml",), "--seed": ("x",),
}
# command -> (leading positional choices, number of models, the options it takes)
SHAPES = {
    "compose": ((), 2, ("--output",)),
    "sm": ((), 1, ("--universe", "--padding", "--output")),
    "check": (("refines", "eq", "consistent", "uninformative"), 2, ("--universe", "--padding", "--output")),
    "classify": ((), 0, ("--format", "--seed", "--universe", "--padding", "--output")),
    "quotient": ((), 0, ("--seed", "--universe", "--padding", "--output")),
    "corpus": ((), 0, ("--out", "--seed", "--output")),
    "stability": ((), 0, ("--seed", "--output")),
}


@st.composite
def argvs(draw):
    """Mostly well-formed requests of one subcommand, each with its own
    options in any order; half of them are then spoilt for argparse by
    a wrong number of models, a bad value, a stray option, --help
    or an unknown subcommand."""
    command = draw(st.sampled_from(tuple(SHAPES)))
    leading, models, takes = SHAPES[command]
    argv = [command]
    if leading:
        argv.append(draw(st.sampled_from(leading)))
    argv += draw(st.lists(st.sampled_from(MODELS), min_size=models, max_size=models))
    if command in ("compose", "classify", "stability"):
        argv += ["--operator", draw(OPTIONS["--operator"])]
    if command in ("classify", "quotient", "stability"):
        argv += ["--corpus", draw(OPTIONS["--corpus"])]
    for flag in draw(st.lists(st.sampled_from(takes), unique=True)):
        argv += [flag, draw(OPTIONS[flag])]
    if command == "sm" and "--padding" not in argv and draw(st.booleans()):
        # not with --padding: a padded universe under the cap can list a million systems
        argv.append("--list")
    spoil = draw(st.sampled_from((None, "model", "value", "flag", "command", None, None, None)))
    if spoil == "model":
        argv.append(draw(st.sampled_from(MODELS)))
    elif spoil == "value":
        flag = draw(st.sampled_from(tuple(BAD_VALUES)))
        argv += [flag, draw(st.sampled_from(BAD_VALUES[flag]))]
    elif spoil == "flag":
        argv += draw(st.sampled_from((["--help"], ["--nope"], ["--out", "out_dir"])))
    elif spoil == "command":
        argv[0] = draw(st.sampled_from(("nope", "--help", "--nope")))
    return argv


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=argvs())
def test_every_argv_keeps_the_exit_code_contract(workspace, argv):
    code, _, err, exited = call(argv)
    assert code in ({0, 2} if exited else {0, 2, 3, 4}), (argv, err)
    assert "Traceback" not in err, (argv, err)


# --- the command's own parser ---------------------------------------------------


def parsed(parse, argv):
    """parse(argv)'s Namespace, or the exit code and the stdout and stderr
    bytes with which argparse ended it."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return parse(argv)
        except SystemExit as exc:
            return exc.code, out.getvalue().encode(), err.getvalue().encode()


# help, a lone '--', an unknown command, arguments left over, an abbreviated
# option and missing arguments
PARSER_EDGES = (
    [], ["-h"], ["--help"], ["compose", "-h"], ["--"], ["--", "sm", "name.mcd"], ["nope"], ["nope", "name.mcd"],
    ["sm", "name.mcd", "age.mcd"], ["check", "eq", "name.mcd", "--list"], ["corpus", "extra"],
    ["compose", "--oper", "union", "name.mcd", "age.mcd"], ["compose", "--o", "union", "name.mcd", "age.mcd"],
    ["compose", "--", "name.mcd", "age.mcd", "--operator", "union"], ["compose", "--operator=union", "--", "-x", "y"],
    ["sm"], ["check"], ["classify"], ["compose", "name.mcd", "age.mcd"], ["sm", "name.mcd", "--padding"],
)


@settings(max_examples=300, deadline=None)
@given(argv=st.one_of(argvs(), st.sampled_from(PARSER_EDGES)))
def test_command_parser_parses_as_the_full_parser(argv):
    assert parsed(cli._parse, argv) == parsed(cli._parser().parse_args, argv)


# --- one parser per process ---------------------------------------------------

# (argv, exit code): a success of every subcommand, argparse errors, input
# errors main() reports, cap refusals and help
REQUESTS = (
    (["compose", "--operator", "union", "name.mcd", "age.mcd"], 0),
    (["compose", "--operator", "strict", "age.mcd", "name.mcd", "--output", "out.txt"], 0),
    (["sm", "name.mcd"], 0),
    (["sm", "--list", "name.mcd", "--universe", "universe.json"], 0),
    (["sm", "age.mcd", "--padding", "0,1,0"], 0),
    (["check", "refines", "name.mcd", "age.mcd"], 0),
    (["check", "consistent", "age.mcd"], 0),
    (["classify", "--operator", "paranoid", "--corpus", "corpus", "--format", "json"], 0),
    (["classify", "--operator", "override", "--corpus", "corpus"], 0),
    (["quotient", "--corpus", "corpus"], 0),
    (["corpus", "--seed", "3"], 0),
    (["corpus", "--out", "out_dir"], 0),
    (["stability", "--operator", "intersect", "--corpus", "corpus"], 0),
    ([], 2),
    (["compose", "--operator", "nope", "name.mcd", "age.mcd"], 2),
    (["sm"], 2),
    (["sm", "name.mcd", "--padding", "1,1"], 2),
    (["sm", "name.mcd", "--padding", "a,b,c"], 2),
    (["classify", "--corpus", "corpus"], 2),
    (["check", "refines", "name.mcd"], 2),
    (["compose", "--operator", "union", "missing.mcd", "name.mcd"], 2),
    (["sm", "latin1.mcd"], 2),
    (["sm", "name.mcd", "--universe", "universe.json", "--padding", "1,1,1"], 2),
    (["quotient", "--corpus", "empty_dir"], 2),
    (["sm", "name.mcd", "--universe", "bad_name.json"], 2),
    (["sm", "name.mcd", "--universe", "huge.json"], 3),
    (["check", "eq", "name.mcd", "age.mcd", "--padding", "3000,3000,3000"], 3),
    (["quotient", "--corpus", "corpus", "--padding", "100,100,100"], 3),
    (["--help"], 0),
    (["sm", "--help"], 0),
    (["classify", "--help"], 0),
)


def test_one_parser_serves_every_request_alike(workspace, monkeypatch):
    built = []
    build = cli.build_parser

    def counting_build():
        built.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", counting_build)
    cli._parser.cache_clear()
    try:
        first = [call(argv) for argv, _ in REQUESTS]
        order = random.Random(9).sample(range(len(REQUESTS)), len(REQUESTS))
        second = dict(zip(order, (call(REQUESTS[i][0]) for i in order)))
    finally:
        cli._parser.cache_clear()
    assert len(built) == 1
    for i, ((argv, expected), result) in enumerate(zip(REQUESTS, first)):
        assert result[0] == expected and "Traceback" not in result[2], (argv, result)
        assert second[i] == result, argv


def test_build_parser_still_returns_a_new_parser():
    assert cli.build_parser() is not cli.build_parser()
    assert cli._parser() is cli._parser()


# --- a fresh interpreter --------------------------------------------------------


@pytest.mark.parametrize("argv", [
    ["--help"],
    ["sm", "name.mcd"],
    ["sm", "--list", "age.mcd"],
    ["compose", "--operator", "override", "name.mcd", "age.mcd"],
])
def test_fresh_interpreter_prints_what_main_prints(workspace, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")  # the width argparse wraps help text to
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run([sys.executable, "-m", "modelalg.cli", *argv], capture_output=True, env=env, timeout=60)
    code, out, err, _ = call(argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out.encode(), err.encode())
    assert code == 0 and out
