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

The text is split into tokens, which are plain strings, by ``str.split``
once comments are cut out and parentheses spaced. Tokens carry no
position: a `ParseError`'s line and column are worked out from the text,
with one regular expression, only when a parse fails.
"""

from __future__ import annotations

import re
from collections import namedtuple

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
# Only `_Parser.fail` scans with it: the parser splits the same tokens
# out with str.split, which splits where the pattern's \s matches.
_TOKEN = re.compile(r";[^\n]*|([()]|[^\s();]+)")
_COMMENT = re.compile(r";[^\n]*")

_NOT_ATOMS = ("(", ")", ".", "")


class _Parser:
    """Reads the token strings forward from index ``pos``; ``""`` ends
    the input. A term is read on an explicit stack, not by recursion."""

    def __init__(self, text: str):
        self.text = text
        if ";" in text:
            text = _COMMENT.sub("", text)
        self.tokens = [*text.replace("(", " ( ").replace(")", " ) ").split(), ""]
        self.pos = 0
        self.words = {}  # word token -> the term it reads as, in this parse

    def fail(self, message: str, index: int):
        """Raise a ParseError at token ``index``, the only place a
        position is worked out: from the token's offset in the text."""
        starts = [match.start() for match in _TOKEN.finditer(self.text) if match[1]]
        offset = starts[index] if index < len(starts) else len(self.text)
        line = self.text.count("\n", 0, offset) + 1
        raise ParseError(message, line, offset - self.text.rfind("\n", 0, offset))

    def expect(self, kind: str, index: int) -> str:
        """The token at ``index``, which must be ``kind``, or any word for kind "atom"."""
        tok = self.tokens[index]
        if tok != kind and (kind != "atom" or tok in _NOT_ATOMS):
            self.fail(f"expected {kind!r}, got {tok or 'end of input'!r}", index)
        return tok

    def real(self, index: int) -> float:
        tok = self.expect("atom", index)
        try:
            return float(tok)
        except ValueError:
            self.fail(f"expected a number, got {tok!r}", index)

    # -- terms --------------------------------------------------------------

    def word(self, index: int) -> Term:
        """The Symbol, Variable or Number that the token at ``index`` reads as."""
        tok = self.tokens[index]
        if tok in _NOT_ATOMS:
            self.fail(f"unexpected {tok!r}", index)
        if tok.startswith("$"):
            if tok == "$":
                self.fail("variable name missing after '$'", index)
            term = Variable(tok[1:])
        elif tok[0].isalpha():  # of float spellings, only inf and nan start with a letter
            term = Symbol(tok)
        else:
            try:
                term = Number(tok)
            except ValueError:  # not a finite real (see `Number`)
                term = Symbol(tok)
        self.words[tok] = term
        return term

    def term(self) -> Term:
        tokens, words, pos = self.tokens, self.words, self.pos
        self.pos = pos + 1
        if tokens[pos] != "(":
            return words.get(tokens[pos]) or self.word(pos)
        open_compounds = []  # (start, elements) of each enclosing compound
        start, elements = pos, []
        while True:
            pos += 1
            tok = tokens[pos]
            if tok == ")":
                if not elements:
                    self.fail("empty '()' is not a term", start)
                term = Compound(tuple(elements))
                if not open_compounds:
                    self.pos = pos + 1
                    return term
                start, elements = open_compounds.pop()
                elements.append(term)
            elif not tok:
                self.fail("unclosed '('", pos)
            elif tok == ".":
                self.fail("'.' is only valid inside a truth pair", pos)
            elif len(open_compounds) >= _MAX_DEPTH:
                self.fail("expression nested too deeply", pos)
            elif tok == "(":
                open_compounds.append((start, elements))
                start, elements = pos, []
            else:
                elements.append(words.get(tok) or self.word(pos))

    def truth_pair(self) -> TruthValue:
        """``( a . b )``, read as one window of five tokens. Only a window
        that is no pair is gone through token by token, for the error."""
        pos = self.pos
        try:
            left, a, dot, b, right = self.tokens[pos : pos + 5]
            pair = left == "(" and dot == "." and right == ")" and (float(a), float(b))
        except ValueError:
            pair = None
        if not pair:
            self.expect("(", pos)
            self.real(pos + 1)
            self.expect(".", pos + 2)
            self.real(pos + 3)
            self.expect(")", pos + 4)  # not ")", or the window were a pair
        self.pos = pos + 5
        return TruthValue(*pair)

    # -- statements ----------------------------------------------------------

    def statement(self) -> Statement:
        tokens, pos = self.tokens, self.pos
        self.expect("(", pos)
        kind = self.expect("atom", pos + 1)
        self.pos = pos + 2
        if kind == "fact":
            core, flipped = normalize_negation(self.term())
            tv = self.truth_pair()
            stmt = FactStatement(core, negate(tv) if flipped else tv)
        elif kind == "rule":
            premise = self.term()
            core, flipped = normalize_negation(self.term())
            tv = self.truth_pair()
            stmt = RuleStatement(premise, core, negate(tv) if flipped else tv)
        elif kind == "clause":
            pos += 2
            self.expect("(", pos)
            if self.expect("atom", pos + 1) != "or":
                self.fail(f"expected 'or', got {tokens[pos + 1]!r}", pos + 1)
            self.pos = pos + 2
            literals = []
            while tokens[self.pos] not in (")", ""):
                core, flipped = normalize_negation(self.term())
                literals.append((core, not flipped))
            self.expect(")", self.pos)
            self.pos += 1
            if not literals:
                self.fail("clause needs at least one literal", pos + 1)
            stmt = ClauseStatement(tuple(literals), self.truth_pair())
        elif kind == "control":
            pattern = self.term()
            method = self.expect("atom", self.pos)
            if method not in CONTROL_METHODS:
                self.fail(_unknown_method(method), self.pos)
            self.pos += 1
            stmt = ControlStatement(pattern, method)
        elif kind == "setvar":
            stmt = SetVarStatement(self.expect("atom", pos + 2), self.real(pos + 3))
            self.pos = pos + 4
        else:
            self.fail(f"unknown statement kind {kind!r}", pos + 1)
        self.expect(")", self.pos)
        self.pos += 1
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
