"""Command-line driver and REPL.

One-shot mode runs a single subcommand against a knowledge base,
optionally preloaded with ``--kb``:

    pkb --kb demo.pkb query "(foo $x)" --cutoff 0.5

With no subcommand an interactive session starts; the same commands
work line by line and assertions persist for the session. ``--trace``
(or the environment variable PKB_TRACE=1) streams inference trace lines
to stderr.

Query answers print one per line, ``<bindings> <value>``, sorted by
value descending then binding text; the exit code is 0 when there was
at least one answer, 1 when none, 2 on any error.
"""

from __future__ import annotations

import argparse
import os
import shlex
import sys

from .backward import truep
from .errors import PkbError
from .kb import ENGINE_VARIABLES, KnowledgeBase
from .sexpr import parse_sentence, parse_truth
from .terms import format_bindings
from .truth import TAG_NAMES, format_real

_METHODS = {"lookup": "lookup", "bc": "backward-chain", "resolution": "resolution"}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pkb",
        description="Probabilistic knowledge base: load, assert, query.",
    )
    parser.add_argument("--kb", metavar="FILE", help="knowledge base file to preload")
    parser.add_argument("--trace", action="store_true", help="stream inference traces to stderr")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("load", help="load a knowledge base file")
    p.add_argument("file")

    p = sub.add_parser("query", help="query a sentence through control dispatch")
    p.add_argument("sentence")
    p.add_argument("--tag", default="t", choices=TAG_NAMES)
    p.add_argument("--cutoff", type=float, default=1.0)
    p.add_argument("--method", choices=sorted(_METHODS))

    p = sub.add_parser("assert", help="combine new evidence for a sentence")
    p.add_argument("sentence")
    p.add_argument("tv", metavar="truth-value")

    p = sub.add_parser("set", help="replace the asserted evidence for a sentence")
    p.add_argument("sentence")
    p.add_argument("tv", metavar="truth-value")

    p = sub.add_parser("why", help="show live justifications for a sentence")
    p.add_argument("sentence")

    p = sub.add_parser("setvar", help="set an engine variable for this session")
    p.add_argument("name", choices=list(ENGINE_VARIABLES))
    p.add_argument("value", type=float)

    return parser


def _render_answers(answers) -> list[str]:
    rows = []
    for bindings, value in answers:
        rows.append((-value, format_bindings(bindings), value))
    rows.sort(key=lambda r: (r[0], r[1]))
    return [f"{text} {format_real(value)}" for _neg, text, value in rows]


def _cmd_load(kb: KnowledgeBase, args, out) -> int:
    kb.load_file(args.file)
    return 0


def _cmd_query(kb: KnowledgeBase, args, out) -> int:
    goal = parse_sentence(args.sentence)
    method = _METHODS[args.method] if args.method else None
    answers = truep(kb, goal, args.tag, args.cutoff, method=method)
    for line in _render_answers(answers):
        print(line, file=out)
    return 0 if answers else 1


def _cmd_assert(kb: KnowledgeBase, args, out) -> int:
    kb.stash(parse_sentence(args.sentence), parse_truth(args.tv))
    return 0


def _cmd_set(kb: KnowledgeBase, args, out) -> int:
    kb.set_truth(parse_sentence(args.sentence), parse_truth(args.tv))
    return 0


def _cmd_why(kb: KnowledgeBase, args, out) -> int:
    sentence = parse_sentence(args.sentence)
    justifications = kb.why(sentence)
    for j in justifications:
        print(
            f"rule={j.rule_id} bind={format_bindings(j.bindings)} "
            f"premise={j.premise_tv_at_firing} contrib={j.contribution}",
            file=out,
        )
    return 0 if justifications else 1


def _cmd_setvar(kb: KnowledgeBase, args, out) -> int:
    kb.set_variable(args.name, args.value)
    return 0


_HANDLERS = {
    "load": _cmd_load,
    "query": _cmd_query,
    "assert": _cmd_assert,
    "set": _cmd_set,
    "why": _cmd_why,
    "setvar": _cmd_setvar,
}


def _dispatch(kb: KnowledgeBase, args, out, err) -> int:
    try:
        return _HANDLERS[args.command](kb, args, out)
    except (PkbError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=err)
        return 2


def _repl(kb: KnowledgeBase, parser, out, err) -> int:
    print("pkb interactive session; 'help' lists commands, 'quit' leaves.", file=out)
    while True:
        try:
            line = input("pkb> ")
        except EOFError:
            print("", file=out)
            return 0
        except KeyboardInterrupt:
            print("", file=out)
            return 0
        line = line.strip()
        if not line:
            continue
        if line in ("quit", "exit"):
            return 0
        if line == "help":
            parser.print_help(out)
            continue
        try:
            words = shlex.split(line)
        except ValueError as exc:
            print(f"error: {exc}", file=err)
            continue
        try:
            args = parser.parse_args(words)
        except SystemExit:
            continue  # argparse already printed its complaint
        if args.command is None:
            print("error: expected a command; try 'help'", file=err)
            continue
        _dispatch(kb, args, out, err)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    trace = None
    if args.trace or os.environ.get("PKB_TRACE") == "1":
        trace = lambda line: print(line, file=sys.stderr)  # noqa: E731
    kb = KnowledgeBase(trace=trace)

    if args.kb:
        try:
            kb.load_file(args.kb)
        except (PkbError, OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    if args.command is None:
        return _repl(kb, parser, sys.stdout, sys.stderr)
    return _dispatch(kb, args, sys.stdout, sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
