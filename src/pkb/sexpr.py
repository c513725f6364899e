"""Reader and printer for the knowledge-base text format.

A ``.pkb`` file is a sequence of statements; ``;`` starts a comment that
runs to the end of the line. The statement forms are:

    (fact <sentence> (a . b))
    (rule <premise> <consequence> (a . b))
    (clause (or <literal> ...) (a . b))
    (control <pattern> lookup|backward-chain|resolution)
    (setvar <name> <number>)

Variables are written ``$name``. A word that reads as a finite real is
a number; any other word, ``inf`` and ``nan`` among them, is a symbol.
Truth values are dotted pairs of decimal reals. A fact or rule
consequence wrapped in ``(not ...)`` is normalized at read time: the
wrapper is stripped and the truth value swapped, so printing always
emits the normalized form. Printing and parsing round-trip:
parse(print(s)) == s for every valid statement.

One regular expression splits the text into tokens, which are plain
strings. Tokens carry no position: a `ParseError`'s line and column are
worked out from the text only when a parse fails.
"""

from __future__ import annotations

import re
from collections import namedtuple
from math import isfinite

from .errors import ParseError
from .terms import (
    Compound,
    Number,
    Symbol,
    Term,
    Variable,
    normalize_negation,
)
from .truth import TruthValue, format_real, negate

CONTROL_METHODS = ("lookup", "backward-chain", "resolution")


def _unknown_method(method: str) -> str:
    return f"unknown method {method!r}; expected one of {', '.join(CONTROL_METHODS)}"


def check_method(method: str):
    """Raise ValueError unless ``method`` is one of `CONTROL_METHODS`."""
    if method not in CONTROL_METHODS:
        raise ValueError(_unknown_method(method))


_MAX_DEPTH = 400


# ---------------------------------------------------------------------------
# Statements


FactStatement = namedtuple("FactStatement", "sentence tv")
RuleStatement = namedtuple("RuleStatement", "premise consequence tv")
# Literals in source order: (atom, True) for positive, (atom, False)
# for negated.
ClauseStatement = namedtuple("ClauseStatement", "literals tv")
ControlStatement = namedtuple("ControlStatement", "pattern method")
SetVarStatement = namedtuple("SetVarStatement", "name value")

Statement = FactStatement | RuleStatement | ClauseStatement | ControlStatement | SetVarStatement


# ---------------------------------------------------------------------------
# Parser

# A token is "(", ")" or a word: a run of characters that are neither
# whitespace nor one of "();". A comment matches with an empty group.
_TOKEN = re.compile(r";[^\n]*|([()]|[^\s();]+)")

_NOT_ATOMS = ("(", ")", ".", "")


class _Parser:
    """Recursive descent over the token strings; ``""`` ends the input."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = [*filter(None, _TOKEN.findall(text)), ""]
        self.pos = 0

    def next(self) -> str:
        # A caller that gets the end marker fails at once, so nothing
        # reads past it.
        self.pos += 1
        return self.tokens[self.pos - 1]

    def fail(self, message: str, index: int):
        """Raise a ParseError at token ``index``, the only place a
        position is worked out: from the token's offset in the text."""
        starts = [match.start() for match in _TOKEN.finditer(self.text) if match[1]]
        offset = starts[index] if index < len(starts) else len(self.text)
        line = self.text.count("\n", 0, offset) + 1
        raise ParseError(message, line, offset - self.text.rfind("\n", 0, offset))

    def expect(self, kind: str) -> str:
        """The next token, which must be ``kind``, or any atom for kind "atom"."""
        tok = self.next()
        if tok != kind and (kind != "atom" or tok in _NOT_ATOMS):
            self.fail(f"expected {kind!r}, got {tok or 'end of input'!r}", self.pos - 1)
        return tok

    # -- terms --------------------------------------------------------------

    def term(self, depth: int = 0) -> Term:
        if depth > _MAX_DEPTH:
            self.fail("expression nested too deeply", self.pos)
        tok = self.next()
        if tok == "(":
            start = self.pos - 1
            elements = []
            while self.tokens[self.pos] != ")":
                if not self.tokens[self.pos]:
                    self.fail("unclosed '('", self.pos)
                if self.tokens[self.pos] == ".":
                    self.fail("'.' is only valid inside a truth pair", self.pos)
                elements.append(self.term(depth + 1))
            self.pos += 1
            if not elements:
                self.fail("empty '()' is not a term", start)
            return Compound(tuple(elements))
        if tok in _NOT_ATOMS:
            self.fail(f"unexpected {tok!r}", self.pos - 1)
        if tok.startswith("$"):
            if tok == "$":
                self.fail("variable name missing after '$'", self.pos - 1)
            return Variable(tok[1:])
        if tok[0].isalpha():  # of float spellings, only inf and nan start with a letter
            return Symbol(tok)
        try:
            value = float(tok)
        except ValueError:
            return Symbol(tok)
        return Number(value) if isfinite(value) else Symbol(tok)

    def real(self) -> float:
        tok = self.expect("atom")
        try:
            return float(tok)
        except ValueError:
            self.fail(f"expected a number, got {tok!r}", self.pos - 1)

    def truth_pair(self) -> TruthValue:
        self.expect("(")
        a = self.real()
        self.expect(".")
        b = self.real()
        self.expect(")")
        return TruthValue(a, b)

    # -- statements ----------------------------------------------------------

    def literal(self) -> tuple:
        atom = self.term()
        core, flipped = normalize_negation(atom)
        return core, not flipped

    def statement(self) -> Statement:
        self.expect("(")
        kind = self.expect("atom")
        if kind == "fact":
            sentence = self.term()
            tv = self.truth_pair()
            core, flipped = normalize_negation(sentence)
            stmt = FactStatement(core, negate(tv) if flipped else tv)
        elif kind == "rule":
            premise = self.term()
            consequence = self.term()
            tv = self.truth_pair()
            core, flipped = normalize_negation(consequence)
            stmt = RuleStatement(premise, core, negate(tv) if flipped else tv)
        elif kind == "clause":
            self.expect("(")
            or_at = self.pos
            word = self.expect("atom")
            if word != "or":
                self.fail(f"expected 'or', got {word!r}", or_at)
            literals = []
            while self.tokens[self.pos] not in (")", ""):
                literals.append(self.literal())
            self.expect(")")
            if not literals:
                self.fail("clause needs at least one literal", or_at)
            tv = self.truth_pair()
            stmt = ClauseStatement(tuple(literals), tv)
        elif kind == "control":
            pattern = self.term()
            method = self.expect("atom")
            if method not in CONTROL_METHODS:
                self.fail(_unknown_method(method), self.pos - 1)
            stmt = ControlStatement(pattern, method)
        elif kind == "setvar":
            name = self.expect("atom")
            value = self.real()
            stmt = SetVarStatement(name, value)
        else:
            self.fail(f"unknown statement kind {kind!r}", self.pos - 1)
        self.expect(")")
        return stmt


def parse_kb(text: str) -> list[Statement]:
    """Parse a whole knowledge-base text into its statements."""
    parser = _Parser(text)
    statements = []
    while parser.tokens[parser.pos]:
        statements.append(parser.statement())
    return statements


def _parse_whole(text: str, rule, what: str):
    parser = _Parser(text)
    value = rule(parser)
    if parser.tokens[parser.pos]:
        parser.fail(f"trailing input after {what}", parser.pos)
    return value


def parse_sentence(text: str) -> Term:
    """Parse a single sentence/pattern, e.g. a query typed at the CLI."""
    return _parse_whole(text, _Parser.term, "sentence")


def parse_truth(text: str) -> TruthValue:
    """Parse a dotted truth pair like ``(0.3 . 0.2)``."""
    return _parse_whole(text, _Parser.truth_pair, "truth value")


# ---------------------------------------------------------------------------
# Printer


def _format_literal(literal: tuple) -> str:
    atom, positive = literal
    return str(atom) if positive else f"(not {atom})"


def print_statement(stmt: Statement) -> str:
    """Canonical one-line text for a statement; parses back to ``stmt``."""
    if isinstance(stmt, FactStatement):
        return f"(fact {stmt.sentence} {stmt.tv})"
    if isinstance(stmt, RuleStatement):
        return f"(rule {stmt.premise} {stmt.consequence} {stmt.tv})"
    if isinstance(stmt, ClauseStatement):
        lits = " ".join(_format_literal(lit) for lit in stmt.literals)
        return f"(clause (or {lits}) {stmt.tv})"
    if isinstance(stmt, ControlStatement):
        return f"(control {stmt.pattern} {stmt.method})"
    if isinstance(stmt, SetVarStatement):
        return f"(setvar {stmt.name} {format_real(stmt.value)})"
    raise TypeError(f"not a statement: {stmt!r}")
