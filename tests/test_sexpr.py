"""Parser and printer tests: golden corpus, round trips, fuzzing."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pkb.errors import ParseError, RangeError
from pkb.sexpr import (
    _MAX_DEPTH,
    _TOKEN,
    ClauseStatement,
    ControlStatement,
    FactStatement,
    RuleStatement,
    SetVarStatement,
    _Parser,
    parse_kb,
    parse_sentence,
    parse_truth,
    print_statement,
)
from pkb.terms import Compound, Number, Symbol, Variable, compound, sym, var
from pkb.truth import TruthValue

GOLDEN = """
; a comment line
(fact (foo fred) (0.3 . 0.2))
(fact (foo harry) (0.7 . 0.0))
(fact (not (goo fred)) (1 . 0))        ; normalizes to (goo fred) (0 . 1)
(fact parity (0.5 . 0.25))
(rule (bird $x) (flies $x) (0.7 . 0.0))
(rule (ostrich $x) (flies $x) (0 . 1))
(rule (and (p $x) (q $x)) (r $x) (0.9 . 0.05))
(rule (foo $x) (not (goo $x)) (1 . 0))
(clause (or p (not q) r) (0.8 . 0.1))
(clause (or (edge a b)) (1 . 0))
(control (foo $x) resolution)
(control (goo $x) backward-chain)
(setvar inference-cutoff 0.1)
(setvar accept-as-true 0.9)
"""


class TestParse:
    def test_fact(self):
        (stmt,) = parse_kb("(fact (foo fred) (0.3 . 0.2))")
        assert stmt == FactStatement(compound(sym("foo"), sym("fred")), TruthValue(0.3, 0.2))

    def test_rule_with_variable(self):
        (stmt,) = parse_kb("(rule (bird $x) (flies $x) (0.7 . 0.0))")
        assert stmt.premise == compound(sym("bird"), var("x"))
        assert stmt.consequence == compound(sym("flies"), var("x"))
        assert stmt.tv == TruthValue(0.7, 0.0)

    def test_negated_fact_normalizes(self):
        (stmt,) = parse_kb("(fact (not (foo fred)) (1 . 0))")
        assert stmt == FactStatement(compound(sym("foo"), sym("fred")), TruthValue(0.0, 1.0))

    def test_negated_consequence_normalizes(self):
        (stmt,) = parse_kb("(rule (foo $x) (not (goo $x)) (1 . 0))")
        assert stmt.consequence == compound(sym("goo"), var("x"))
        assert stmt.tv == TruthValue(0.0, 1.0)

    def test_clause_literals(self):
        (stmt,) = parse_kb("(clause (or p (not q) r) (0.8 . 0.1))")
        assert stmt.literals == (
            (sym("p"), True),
            (sym("q"), False),
            (sym("r"), True),
        )

    def test_control(self):
        (stmt,) = parse_kb("(control (foo $x) resolution)")
        assert stmt == ControlStatement(compound(sym("foo"), var("x")), "resolution")

    def test_setvar(self):
        (stmt,) = parse_kb("(setvar inference-cutoff 0.05)")
        assert stmt == SetVarStatement("inference-cutoff", 0.05)

    def test_invalid_truth_pair_is_range_error(self):
        with pytest.raises(RangeError):
            parse_kb("(fact (foo fred) (0.9 . 0.3))")

    def test_negative_truth_component(self):
        with pytest.raises(RangeError):
            parse_kb("(fact (foo fred) (-0.1 . 0.3))")

    def test_syntax_error_carries_location(self):
        with pytest.raises(ParseError) as err:
            parse_kb("(fact (foo fred)\n  0.3)")
        assert err.value.line == 2

    def test_unknown_statement(self):
        with pytest.raises(ParseError):
            parse_kb("(blurb x)")

    def test_unclosed_paren(self):
        with pytest.raises(ParseError):
            parse_kb("(fact (foo fred) (0.3 . 0.2)")

    def test_dot_outside_truth_pair(self):
        with pytest.raises(ParseError):
            parse_kb("(fact (foo . fred) (0.3 . 0.2))")

    def test_bare_dollar(self):
        with pytest.raises(ParseError):
            parse_kb("(fact (foo $) (1 . 0))")

    def test_unknown_control_method(self):
        with pytest.raises(ParseError):
            parse_kb("(control (foo $x) magic)")

    def test_comments_and_whitespace(self):
        stmts = parse_kb("; nothing\n\n  (fact p (1 . 0)) ; trailing\n")
        assert len(stmts) == 1

    def test_deep_nesting_is_parse_error(self):
        text = "(fact " + "(" * 2000 + "p" + ")" * 2000 + " (1 . 0))"
        with pytest.raises(ParseError):
            parse_kb(text)


# One row per error site: entry point, input, message, line, column.
ERROR_POSITIONS = [
    (parse_kb, "(fact (foo\n  fred", "unclosed '('", 2, 7),
    (parse_kb, "(fact (foo . fred) (0.3 . 0.2))", "'.' is only valid inside a truth pair", 1, 12),
    (parse_kb, "(fact\n (foo $) (1 . 0))", "variable name missing after '$'", 2, 7),
    (parse_kb, "(fact () (1 . 0))", "empty '()' is not a term", 1, 7),
    (parse_kb, "(fact\n" + "(" * 500 + "p", "expression nested too deeply", 2, 402),
    (parse_sentence, " )", "unexpected ')'", 1, 2),
    (parse_kb, "(fact p (0.3 . x))", "expected a number, got 'x'", 1, 16),
    (parse_kb, "(fact p\n\t(0.3 0.2))", "expected '.', got '0.2'", 2, 7),
    (parse_kb, "(clause (and p) (1 . 0))", "expected 'or', got 'and'", 1, 10),
    (parse_kb, "(clause (or) (1 . 0))", "clause needs at least one literal", 1, 10),
    (
        parse_kb,
        "(control (foo $x)\n  magic)",
        "unknown method 'magic'; expected one of lookup, backward-chain, resolution",
        2,
        3,
    ),
    (parse_kb, "; header\n(blurb x)", "unknown statement kind 'blurb'", 2, 2),
    (parse_kb, "(fact p (1 . 0)", "expected ')', got 'end of input'", 1, 16),
    (parse_sentence, "(foo a) (goo b)", "trailing input after sentence", 1, 9),
    (parse_truth, "(0.3 . 0.2)\n  x", "trailing input after truth value", 2, 3),
    # End of input after a trailing comment is the end of the text.
    (parse_kb, "(fact p ; c", "expected '(', got 'end of input'", 1, 12),
    (parse_kb, "(fact p (1 . 0)\n; tail", "expected ')', got 'end of input'", 2, 7),
    # A sixth field names a row whose message an earlier row has.
    (parse_kb, "(fact (a (b (c d", "unclosed '('", 1, 17, "depth 3"),
    (parse_kb, "(fact (a (b . c)) (1 . 0))", "'.' is only valid inside a truth pair", 1, 13, "nested"),
    (parse_kb, "(rule p\n" + "(" * 500 + "q", "expression nested too deeply", 2, 402, "consequence"),
    (parse_kb, "(clause (or p\n" + "(" * 500 + "q", "expression nested too deeply", 2, 402, "literal"),
    (parse_kb, "(fact p (0.3 . 0.2 0.1))", "expected ')', got '0.1'", 1, 20),
    (parse_kb, "(fact p (0.3 .))", "expected 'atom', got ')'", 1, 15),
    (parse_kb, "(fact p (x . 0.2))", "expected a number, got 'x'", 1, 10, "belief"),
    (parse_kb, "(fact p (0.3 . 0.2", "expected ')', got 'end of input'", 1, 19, "pair cut off"),
    (parse_kb, "(fact p (0.3", "expected '.', got 'end of input'", 1, 13),
    (parse_kb, "(fact p ((0.3 . 0.2))", "expected 'atom', got '('", 1, 10),
]


@pytest.mark.parametrize(
    "parse, text, message, line, column",
    [row[:5] for row in ERROR_POSITIONS],
    ids=[row[2] if len(row) == 5 else f"{row[2]} ({row[5]})" for row in ERROR_POSITIONS],
)
def test_parse_error_position(parse, text, message, line, column):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert (str(err.value), err.value.line, err.value.column) == (f"{line}:{column}: {message}", line, column)


class TestSentenceHelpers:
    def test_parse_sentence(self):
        assert parse_sentence("(foo $x)") == compound(sym("foo"), var("x"))

    def test_parse_sentence_rejects_trailing(self):
        with pytest.raises(ParseError):
            parse_sentence("(foo a) (goo b)")

    def test_parse_truth(self):
        assert parse_truth("(0.3 . 0.2)") == TruthValue(0.3, 0.2)

    def test_numbers_in_sentences(self):
        got = parse_sentence("(age fred 42)")
        assert got == compound(sym("age"), sym("fred"), Number(42.0))

    @pytest.mark.parametrize("word", ["inf", "nan", "NaN", "-inf", "+Infinity", "-Infinity", "1e400", "-1e400"])
    def test_non_finite_words_are_symbols(self, word):
        assert parse_sentence(f"(foo {word})") == compound(sym("foo"), sym(word))
        (stmt,) = parse_kb(f"(fact (foo {word}) (1 . 0))")
        assert print_statement(stmt) == f"(fact (foo {word}) (1 . 0))"

    @pytest.mark.parametrize("word", ["-x", "+y", "1st"])
    def test_words_that_are_not_numbers_are_symbols(self, word):
        assert parse_sentence(f"(foo {word})") == compound(sym("foo"), sym(word))

    @pytest.mark.parametrize("word", ["1e300", "-0.5", "+7", "١٢"])
    def test_finite_words_are_numbers(self, word):
        assert parse_sentence(word) == Number(float(word))


class TestRoundTrip:
    def test_golden_corpus(self):
        statements = parse_kb(GOLDEN)
        assert len(statements) == 14
        for stmt in statements:
            text = print_statement(stmt)
            (back,) = parse_kb(text)
            assert back == stmt, text

    def test_print_normalized_rule(self):
        (stmt,) = parse_kb("(rule (foo $x) (not (goo $x)) (1 . 0))")
        assert print_statement(stmt) == "(rule (foo $x) (goo $x) (0 . 1))"

    @pytest.mark.parametrize(
        "value, text",
        [
            (0.0, "0"),
            (-7.0, "-7"),
            (2.0**53, "9007199254740992"),
            (9999999999999998.0, "9999999999999998"),
            (1e16, "1e+16"),
            (-1e17, "-1e+17"),
            (1e300, "1e+300"),
            (1.7976931348623157e308, "1.7976931348623157e+308"),
            (10**17 + 1, "1e+17"),  # an int payload is kept as its float
        ],
    )
    def test_integral_numbers_round_trip(self, value, text):
        sentence = compound(sym("foo"), Number(value))
        assert str(sentence) == f"(foo {text})"
        back = parse_sentence(str(sentence))
        assert back == sentence and isinstance(back.elements[1], Number)

    def test_deepest_term_prints_back(self):
        # the printer runs on an explicit stack, so the deepest term the
        # reader takes prints as it was read
        depth = _MAX_DEPTH - 1
        for text in (
            "(p " * depth + "a" + ")" * depth,
            "".join("(q $x 2.5 " if i % 2 else "(p " for i in range(depth)) + "a" + ")" * depth,
        ):
            assert str(parse_sentence(text)) == text

    def test_variable_prints_with_dollar(self):
        assert str(var("x")) == "$x"

    def test_truth_values_round_trip_exactly(self):
        for a, b in [(0.1, 0.2), (1 / 3, 1 / 7), (0.9999999, 1e-7)]:
            stmt = FactStatement(sym("p"), TruthValue(a, b))
            (back,) = parse_kb(print_statement(stmt))
            assert back.tv == stmt.tv

    @given(st.data())
    @settings(max_examples=200)
    def test_random_statements_round_trip(self, data):
        stmt = data.draw(_statements())
        (back,) = parse_kb(print_statement(stmt))
        assert back == stmt


_names = st.sampled_from(["p", "q", "foo", "goo", "alpha", "b1"])


@st.composite
def _sentences(draw, depth=0):
    if depth >= 2 or draw(st.booleans()):
        choice = draw(st.integers(min_value=0, max_value=2))
        if choice == 0:
            return Symbol(draw(_names))
        if choice == 1:
            return Variable(draw(st.sampled_from(["x", "y", "obj"])))
        return Number(float(draw(st.integers(min_value=-9, max_value=9))))
    head = Symbol(draw(_names))
    args = draw(st.lists(_sentences(depth=depth + 1), min_size=1, max_size=3))
    return Compound((head, *args))


@st.composite
def _tvs(draw):
    a = draw(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    b = draw(st.floats(min_value=0.0, max_value=1.0 - a, allow_nan=False))
    return TruthValue(a, b)


@st.composite
def _statements(draw):
    kind = draw(st.integers(min_value=0, max_value=4))
    if kind == 0:
        head = Symbol(draw(_names))
        args = draw(st.lists(_sentences(depth=1), min_size=0, max_size=3))
        sentence = Compound((head, *args)) if args else head
        return FactStatement(sentence, draw(_tvs()))
    if kind == 1:
        return RuleStatement(draw(_sentences()), draw(_sentences()), draw(_tvs()))
    if kind == 2:
        n = draw(st.integers(min_value=1, max_value=3))
        literals = tuple(
            (Symbol(draw(_names) + str(i)), draw(st.booleans())) for i in range(n)
        )
        return ClauseStatement(literals, draw(_tvs()))
    if kind == 3:
        return ControlStatement(draw(_sentences()), draw(st.sampled_from(["lookup", "backward-chain", "resolution"])))
    return SetVarStatement("inference-cutoff", draw(st.floats(min_value=0, max_value=1, allow_nan=False)))


# Characters and chunks fuzzed text is drawn from: among them
# whitespace beyond ASCII, a ";" glued to a word, and a comment that
# can end the input with no newline.
FUZZ_ALPHABET = [*"()$.;ab1 \n\t-efgor+notclausefactrule\"'", "\r", "\xa0", "\u3000", "\x1c", "ab;c", "; end"]


class TestFuzz:
    def test_fuzzed_input_never_crashes(self):
        rng = random.Random(20260808)
        for _ in range(10_000):
            text = "".join(rng.choice(FUZZ_ALPHABET) for _ in range(rng.randrange(0, 60)))
            try:
                parse_kb(text)
            except (ParseError, RangeError):
                pass

    def test_tokens_equal_the_token_pattern(self):
        # _TOKEN, with which error positions are worked out, is the oracle
        rng = random.Random(20261020)
        for _ in range(10_000):
            text = "".join(rng.choice(FUZZ_ALPHABET) for _ in range(rng.randrange(0, 60)))
            assert _Parser(text).tokens == [*filter(None, _TOKEN.findall(text)), ""], repr(text)
