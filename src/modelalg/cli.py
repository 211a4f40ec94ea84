"""Command-line front end.

Exit codes: 0 success (verdicts are data, not failures), 2 input error,
3 universe cap exceeded, 4 checker self-audit failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import cache
from pathlib import Path

from . import algebra, report as reporting
from .operators import OPERATORS
from .semantics import (
    UniverseCapError,
    UniverseError,
    build_universe,
    denotation,
    is_consistent,
    is_uninformative,
    load_universe,
    refines,
    semantically_eq,
)
from .syntax import ParseError, parse_strict, render


class CliError(Exception):
    """An input error: main prints it and returns 2."""


def _padding(text: str) -> tuple[int, int, int]:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("padding must be three comma-separated counts, e.g. 1,1,1")
    try:
        c, a, t = (int(p) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError("padding counts must be integers") from None
    if min(c, a, t) < 0:
        raise argparse.ArgumentTypeError("padding counts must be >= 0")
    return c, a, t


def _load_model(path: str, listed: bool = False):
    """The model in the file, read as UTF-8 with universal newlines.  A path
    from the command line goes through Path, so that 'm.mcd/' names m.mcd."""
    try:
        with open(path if listed else Path(path), "rb", buffering=0) as f:
            text = f.read().decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise CliError(f"{path}: {exc}") from exc
    try:
        return parse_strict(text)
    except ParseError as exc:
        msgs = "\n".join(f"{path}: {d}" for d in exc.diagnostics)
        raise CliError(msgs) from exc


def _resolve_universe(models, args):
    if args.universe == "auto":
        return build_universe(models, *(args.padding or ()))
    if args.padding is not None:
        raise CliError("--padding applies only to --universe auto, not to a universe file")
    try:
        return load_universe(args.universe)
    except OSError as exc:
        raise CliError(f"cannot read universe spec {args.universe}: {exc}") from exc


def _load_corpus(args) -> algebra.Corpus:
    if args.corpus == "default":
        return algebra.default_corpus(seed=args.seed)
    directory = Path(args.corpus)
    if not directory.is_dir():
        raise CliError(f"corpus directory not found: {directory}")
    try:  # the names and order of sorted(directory.glob("*.mcd"))
        names = sorted(n for n in os.listdir(directory) if n.endswith(".mcd"))
    except OSError:
        names = []
    if not names:
        raise CliError(f"no .mcd files in {directory}")
    prefix = str(directory / "_")[:-1]  # so that prefix + name == str(directory / name)
    models = tuple(_load_model(prefix + n, listed=True) for n in names)
    return algebra.Corpus(models, f"files({directory})")


def _emit(text: str, args) -> None:
    if args.output:
        try:
            Path(args.output).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise CliError(f"cannot write {args.output}: {exc}") from exc
    else:
        sys.stdout.write(text)


def cmd_compose(args) -> int:
    m1 = _load_model(args.inputs[0])
    m2 = _load_model(args.inputs[1])
    composed = OPERATORS[args.operator](m1, m2)
    _emit(render(composed), args)
    return 0


def cmd_sm(args) -> int:
    m = _load_model(args.input)
    u = _resolve_universe([m], args)
    d = denotation(m, u)
    total = u.system_count
    if d.is_full:
        status = "no information"
    elif d.is_empty:
        status = "inconsistent"
    else:
        status = "consistent"
    lines = [f"{d.size} of {total}, {status}"]
    if args.list:
        lines.extend(d.system_texts())
    _emit("\n".join(lines) + "\n", args)
    return 0


# predicate -> (number of models, test over the models and the universe)
_CHECKS = {
    "refines": (2, refines),
    "eq": (2, semantically_eq),
    "consistent": (1, is_consistent),
    "uninformative": (1, is_uninformative),
}


def cmd_check(args) -> int:
    arity, test = _CHECKS[args.predicate]
    if len(args.inputs) != arity:
        count = "one model" if arity == 1 else "two models"
        raise CliError(f"check {args.predicate} needs exactly {count}")
    models = [_load_model(p) for p in args.inputs]
    u = _resolve_universe(models, args)
    result = test(*models, u)
    _emit(("true" if result else "false") + "\n", args)
    return 0


def cmd_classify(args) -> int:
    corpus = _load_corpus(args)
    u = _resolve_universe(corpus.models, args)
    rep = algebra.classify(args.operator, corpus, u, seed=args.seed)
    if args.format == "json":
        _emit(reporting.report_to_json(rep), args)
    else:
        _emit(reporting.report_to_text(rep), args)
    if rep.implication_audit:
        print("error: implication audit failed (checker self-defect)", file=sys.stderr)
        return 4
    return 0


def cmd_quotient(args) -> int:
    corpus = _load_corpus(args)
    u = _resolve_universe(corpus.models, args)
    part = algebra.quotient(corpus, u)
    _emit(reporting.partition_to_text(part), args)
    return 0


def cmd_corpus(args) -> int:
    if args.out is not None and args.output is not None:
        raise CliError("give --out DIR or --output FILE, not both")
    corpus = algebra.default_corpus(seed=args.seed)
    if args.out:
        out = Path(args.out)
        try:
            out.mkdir(parents=True, exist_ok=True)
            for i, m in enumerate(corpus.models):
                (out / f"model_{i:03d}.mcd").write_text(render(m), encoding="utf-8")
        except OSError as exc:
            raise CliError(f"cannot write corpus to {out}: {exc}") from exc
        print(f"wrote {len(corpus.models)} models to {out}")
    else:
        chunks = [f"// model {i}\n{render(m)}" for i, m in enumerate(corpus.models)]
        _emit("\n".join(chunks), args)
    return 0


def cmd_stability(args) -> int:
    corpus = _load_corpus(args)
    rep = algebra.stability_check(args.operator, corpus, seed=args.seed)
    _emit(reporting.stability_to_text(rep), args)
    return 0


def _add_common(sub, universe=True, corpus=False, seed=False) -> None:
    if seed or corpus:  # seeds the default corpus, and classify's sampled checks
        sub.add_argument("--seed", type=int, default=42)
    sub.add_argument("--output", default=None, help="write output to a file instead of stdout")
    if universe:
        sub.add_argument("--universe", default="auto", help="'auto' or a JSON universe spec path")
        sub.add_argument("--padding", type=_padding, default=None,
                         help="fresh class,attr,type name counts for auto universes (default 1,1,1)")
    if corpus:
        sub.add_argument("--corpus", default="default", help="'default' or a directory of .mcd files")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="modelalg")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("compose", help="compose two models and print the result")
    p.add_argument("--operator", required=True, choices=sorted(OPERATORS))
    p.add_argument("inputs", nargs=2, metavar="MODEL.mcd")
    _add_common(p, universe=False)
    p.set_defaults(func=cmd_compose)

    p = subs.add_parser("sm", help="evaluate the denotation of a model")
    p.add_argument("input", metavar="MODEL.mcd")
    p.add_argument("--list", action="store_true", help="list every member system")
    _add_common(p)
    p.set_defaults(func=cmd_sm)

    p = subs.add_parser("check", help="pairwise semantic predicates")
    p.add_argument("predicate", choices=tuple(_CHECKS))
    p.add_argument("inputs", nargs="+", metavar="MODEL.mcd")
    _add_common(p)
    p.set_defaults(func=cmd_check)

    p = subs.add_parser("classify", help="classify an operator against the property tables")
    p.add_argument("--operator", required=True, choices=sorted(OPERATORS))
    p.add_argument("--format", choices=("text", "json"), default="text")
    _add_common(p, corpus=True)
    p.set_defaults(func=cmd_classify)

    p = subs.add_parser("quotient", help="partition a corpus by semantic equality")
    _add_common(p, corpus=True)
    p.set_defaults(func=cmd_quotient)

    p = subs.add_parser("corpus", help="emit the default generated corpus")
    p.add_argument("--out", default=None, help="directory to write .mcd files into")
    _add_common(p, universe=False, seed=True)
    p.set_defaults(func=cmd_corpus)

    p = subs.add_parser("stability", help="compare verdicts under 1/0/1 and 1/1/1 padding")
    p.add_argument("--operator", required=True, choices=sorted(OPERATORS))
    _add_common(p, universe=False, corpus=True)
    p.set_defaults(func=cmd_stability)

    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """The parser every main() call of the process uses, built on the first
    call.  Parsing leaves it as it was, and a request's inputs are read
    afresh by its command."""
    return build_parser()


def _parse(argv: list[str]) -> argparse.Namespace:
    """_parser().parse_args(argv), parsed by the command argv[0] names, to which
    the full parser would hand every later argument; the full parser runs only
    when argv[0] names no command or the command leaves arguments over."""
    parser = _parser()
    command = parser._subparsers._group_actions[0].choices.get(argv[0]) if argv else None
    if command is not None:
        args, rest = command.parse_known_args(argv[1:])
        if not rest:
            args.command = argv[0]
            return args
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else list(argv))
    try:
        return args.func(args)
    except CliError as exc:
        print(exc, file=sys.stderr)
        return 2
    except UniverseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, UniverseCapError) else 2


if __name__ == "__main__":
    sys.exit(main())
