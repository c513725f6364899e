"""Reader and printer for the knowledge-base text format.

A ``.pkb`` file is a sequence of statements; ``;`` starts a comment that
runs to the end of the line. The statement forms are:

    (fact <sentence> (a . b))
    (rule <premise> <consequence> (a . b))
    (clause (or <literal> ...) (a . b))
    (control <pattern> lookup|backward-chain|resolution)
    (setvar <name> <number>)

Variables are written ``$name``. Truth values are dotted pairs of
decimal reals. A fact or rule consequence wrapped in ``(not ...)`` is
normalized at read time: the wrapper is stripped and the truth value
swapped, so printing always emits the normalized form. Printing and
parsing round-trip: parse(print(s)) == s for every valid statement.
"""

from __future__ import annotations

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
# Tokenizer

_LPAREN = "("
_RPAREN = ")"
_DOT = "."
_ATOM = "atom"
_EOF = "eof"


class _Token:
    __slots__ = ("kind", "text", "line", "column")

    def __init__(self, kind, text, line, column):
        self.kind = kind
        self.text = text
        self.line = line
        self.column = column


def _tokenize(text: str):
    tokens = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c.isspace():
            col += 1
            i += 1
            continue
        if c == ";":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if c in "()":
            tokens.append(_Token(c, c, line, col))
            col += 1
            i += 1
            continue
        start, start_col = i, col
        while i < n and not text[i].isspace() and text[i] not in "();":
            i += 1
            col += 1
        word = text[start:i]
        if word == ".":
            tokens.append(_Token(_DOT, word, line, start_col))
        else:
            tokens.append(_Token(_ATOM, word, line, start_col))
    tokens.append(_Token(_EOF, "", line, col))
    return tokens


# ---------------------------------------------------------------------------
# Parser


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != _EOF:
            self.pos += 1
        return tok

    def fail(self, message: str, tok: _Token | None = None):
        tok = tok or self.peek()
        raise ParseError(message, tok.line, tok.column)

    def expect(self, kind: str) -> _Token:
        tok = self.next()
        if tok.kind != kind:
            shown = tok.text or "end of input"
            self.fail(f"expected {kind!r}, got {shown!r}", tok)
        return tok

    # -- terms --------------------------------------------------------------

    def atom(self, tok: _Token) -> Term:
        word = tok.text
        if word.startswith("$"):
            if len(word) == 1:
                self.fail("variable name missing after '$'", tok)
            return Variable(word[1:])
        try:
            return Number(float(word))
        except ValueError:
            return Symbol(word)

    def term(self, depth: int = 0) -> Term:
        if depth > _MAX_DEPTH:
            self.fail("expression nested too deeply")
        tok = self.next()
        if tok.kind == _ATOM:
            return self.atom(tok)
        if tok.kind == _LPAREN:
            elements = []
            while True:
                nxt = self.peek()
                if nxt.kind == _RPAREN:
                    self.next()
                    break
                if nxt.kind == _EOF:
                    self.fail("unclosed '('", nxt)
                if nxt.kind == _DOT:
                    self.fail("'.' is only valid inside a truth pair", nxt)
                elements.append(self.term(depth + 1))
            if not elements:
                self.fail("empty '()' is not a term", tok)
            return Compound(tuple(elements))
        self.fail(f"unexpected {tok.text!r}", tok)

    def real(self) -> float:
        tok = self.expect(_ATOM)
        try:
            return float(tok.text)
        except ValueError:
            self.fail(f"expected a number, got {tok.text!r}", tok)

    def truth_pair(self) -> TruthValue:
        self.expect(_LPAREN)
        a = self.real()
        self.expect(_DOT)
        b = self.real()
        self.expect(_RPAREN)
        return TruthValue(a, b)

    # -- statements ----------------------------------------------------------

    def literal(self) -> tuple:
        atom = self.term()
        core, flipped = normalize_negation(atom)
        return core, not flipped

    def statement(self) -> Statement:
        self.expect(_LPAREN)
        head = self.expect(_ATOM)
        kind = head.text
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
            self.expect(_LPAREN)
            or_tok = self.expect(_ATOM)
            if or_tok.text != "or":
                self.fail(f"expected 'or', got {or_tok.text!r}", or_tok)
            literals = []
            while self.peek().kind not in (_RPAREN, _EOF):
                literals.append(self.literal())
            self.expect(_RPAREN)
            if not literals:
                self.fail("clause needs at least one literal", or_tok)
            tv = self.truth_pair()
            stmt = ClauseStatement(tuple(literals), tv)
        elif kind == "control":
            pattern = self.term()
            method_tok = self.expect(_ATOM)
            if method_tok.text not in CONTROL_METHODS:
                self.fail(
                    f"unknown method {method_tok.text!r}; expected one of {', '.join(CONTROL_METHODS)}",
                    method_tok,
                )
            stmt = ControlStatement(pattern, method_tok.text)
        elif kind == "setvar":
            name = self.expect(_ATOM).text
            value = self.real()
            stmt = SetVarStatement(name, value)
        else:
            self.fail(f"unknown statement kind {kind!r}", head)
        self.expect(_RPAREN)
        return stmt


def parse_kb(text: str) -> list[Statement]:
    """Parse a whole knowledge-base text into its statements."""
    parser = _Parser(text)
    statements = []
    while parser.peek().kind != _EOF:
        statements.append(parser.statement())
    return statements


def parse_sentence(text: str) -> Term:
    """Parse a single sentence/pattern, e.g. a query typed at the CLI."""
    parser = _Parser(text)
    term = parser.term()
    if parser.peek().kind != _EOF:
        parser.fail("trailing input after sentence")
    return term


def parse_truth(text: str) -> TruthValue:
    """Parse a dotted truth pair like ``(0.3 . 0.2)``."""
    parser = _Parser(text)
    tv = parser.truth_pair()
    if parser.peek().kind != _EOF:
        parser.fail("trailing input after truth value")
    return tv


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
