"""Tests for fact storage, negation normalization, lookup and the ledger."""

import gc
import math
import os
import random
import subprocess
import sys
from operator import attrgetter
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import pkb.kb
from pkb.backward import prove, truep
from pkb.errors import NotFound, ParseError, RangeError, TautologicalResolvent, TotalConflict
from pkb.forward import Justification
from pkb.kb import ENGINE_VARIABLES, FactRecord, KnowledgeBase, make_rule, unwrap_query
from pkb.sexpr import CONTROL_METHODS, parse_sentence as S
from pkb.terms import (
    Compound,
    Number,
    Term,
    Variable,
    canonical_form,
    compound,
    format_bindings,
    index_key,
    normalize_negation,
    substitute,
    sym,
    unify,
    var,
    variables_in,
)
from pkb.truth import FALSE, TRUE, VACUOUS, TAG_NAMES, EngineConfig, TruthValue, tagged_answers

from kbgen import build_kb, random_tv, random_var_kb
from oracles import oracle_bottom_up, oracle_combine

TOL = 1e-9


def close(tv, pair, tol=TOL):
    return abs(tv.belief - pair[0]) <= tol and abs(tv.disbelief - pair[1]) <= tol


@pytest.fixture
def kb():
    return KnowledgeBase()


class TestStash:
    def test_negated_assertion_stores_swapped(self, kb):
        kb.stash(S("(not (foo fred))"), TRUE)
        assert kb.retrieve(S("(foo fred)")) == FALSE

    def test_vacuous_evidence_changes_nothing(self, kb):
        kb.stash(S("(foo fred)"), VACUOUS)
        assert kb.facts() == []
        kb.stash(S("(foo fred)"), TruthValue(0.3, 0.0))
        kb.stash(S("(foo fred)"), VACUOUS)
        assert kb.retrieve(S("(foo fred)")) == TruthValue(0.3, 0.0)

    def test_restash_combines(self, kb):
        kb.stash(S("(foo fred)"), TruthValue(0.3, 0.0))
        kb.stash(S("(foo fred)"), TruthValue(0.0, 0.2))
        expected = oracle_combine((0.3, 0.0), (0.0, 0.2))
        assert close(kb.retrieve(S("(foo fred)")), expected)

    def test_total_conflict_propagates(self, kb):
        kb.stash(S("(foo fred)"), TRUE)
        with pytest.raises(TotalConflict):
            kb.stash(S("(foo fred)"), FALSE)

    def test_non_ground_rejected(self, kb):
        with pytest.raises(ValueError):
            kb.stash(S("(foo $x)"), TRUE)

    @pytest.mark.parametrize("text", ["5", "((f) a)"])
    def test_non_sentence_rejected(self, kb, text):
        with pytest.raises(ValueError, match="not a sentence"):
            kb.stash(S(text), TRUE)

    def test_one_value_per_sentence_and_negation(self, kb):
        kb.stash(S("(foo fred)"), TruthValue(0.3, 0.2))
        direct = kb.retrieve(S("(foo fred)"))
        through_negation = kb.retrieve(S("(not (foo fred))"))
        assert direct.belief == through_negation.disbelief
        assert direct.disbelief == through_negation.belief


class TestSetTruth:
    def test_replaces(self, kb):
        kb.stash(S("(foo fred)"), TruthValue(0.4, 0.1))
        kb.set_truth(S("(foo fred)"), TruthValue(0.2, 0.3))
        assert kb.retrieve(S("(foo fred)")) == TruthValue(0.2, 0.3)

    def test_negation_flip(self, kb):
        kb.set_truth(S("(not (foo fred))"), TruthValue(0.7, 0.1))
        assert kb.retrieve(S("(foo fred)")) == TruthValue(0.1, 0.7)

    def test_identical_value_fires_no_chaining(self, kb):
        events = []
        kb.trace = events.append
        kb.add_rule(S("(foo $x)"), S("(goo $x)"), TRUE)
        kb.stash(S("(foo fred)"), TruthValue(0.5, 0.0))
        events.clear()
        kb.set_truth(S("(foo fred)"), TruthValue(0.5, 0.0))
        assert events == []

    def test_set_to_vacuous_removes_entry(self, kb):
        kb.stash(S("(foo fred)"), TruthValue(0.5, 0.0))
        kb.set_truth(S("(foo fred)"), VACUOUS)
        assert kb.facts() == []
        assert kb.retrieve(S("(foo fred)")) == VACUOUS


PROPOSITIONAL_KB = """
(rule raining wet (0.9 . 0))
(rule (and wet cold) icy (0.8 . 0))
(fact raining (0.5 . 0))
(fact cold (1 . 0))
"""

PROPOSITIONAL_RULES = [
    ([(S("raining"), True)], S("wet"), (0.9, 0.0)),
    ([(S("wet"), True), (S("cold"), True)], S("icy"), (0.8, 0.0)),
]


class TestPropositionalSentences:
    """Bare symbols as sentences, indexed under (name, 0)."""

    def test_engines_match_bottom_up_oracle(self, kb):
        kb.load_text(PROPOSITIONAL_KB)
        expected = oracle_bottom_up({S("raining"): (0.5, 0.0), S("cold"): (1.0, 0.0)}, PROPOSITIONAL_RULES)
        assert set(expected) == {S("raining"), S("wet"), S("cold"), S("icy")}
        for sentence, pair in expected.items():
            assert close(kb.retrieve(sentence), pair)
            assert kb.lookup(sentence, "t", 0.0) == [({}, kb.retrieve(sentence).belief)]
            ((bindings, tv),) = prove(kb, sentence)
            assert bindings == {} and close(tv, pair)
        (j,) = kb.why(S("icy"))
        assert (j.rule_id, j.premises) == ("r2", (S("wet"), S("cold")))
        assert close(j.contribution, expected[S("icy")])

    def test_vacuous_premise_drops_its_consequences(self, kb):
        kb.load_text(PROPOSITIONAL_KB)
        kb.set_truth(S("raining"), VACUOUS)
        expected = oracle_bottom_up({S("cold"): (1.0, 0.0)}, PROPOSITIONAL_RULES)
        assert [s for s, _record in kb.facts()] == list(expected) == [S("cold")]
        assert kb.retrieve(S("icy")) == VACUOUS and kb.why(S("icy")) == []


class TestRetrieve:
    def test_absent_is_vacuous(self, kb):
        assert kb.retrieve(S("(nothing here)")) == VACUOUS

    def test_negated_read(self, kb):
        kb.stash(S("(foo fred)"), TruthValue(0.3, 0.2))
        assert kb.retrieve(S("(not (foo fred))")) == TruthValue(0.2, 0.3)


class TestLookup:
    @pytest.fixture
    def two_facts(self, kb):
        kb.stash(S("(foo fred)"), TruthValue(0.3, 0.2))
        kb.stash(S("(foo harry)"), TruthValue(0.7, 0.0))
        return kb

    def test_cutoff_filters(self, two_facts):
        answers = two_facts.lookup(S("(foo $x)"), "t", 0.5)
        assert answers == [({var("x"): sym("harry")}, 0.7)]

    def test_not_wrapper_means_not_tag(self, two_facts):
        wrapped = two_facts.lookup(S("(not (foo fred))"), "t", 0.1)
        direct = two_facts.lookup(S("(foo fred)"), "not", 0.1)
        assert wrapped == direct == [({}, 0.2)]

    def test_unknown_wrapper(self, two_facts):
        answers = two_facts.lookup(S("(unknown (foo fred))"), "t", 0.4)
        assert answers == [({}, 0.5)]

    def test_absent_fact_yields_no_answers(self, two_facts):
        assert two_facts.lookup(S("(zzz q)"), "mass", 0.0) == []

    def test_mass_cutoff_zero_lists_matching_entries(self, two_facts):
        answers = two_facts.lookup(S("(foo $x)"), "mass", 0.0)
        assert {theta[var("x")].name for theta, _ in answers} == {"fred", "harry"}

    def test_answers_satisfy_contract(self, two_facts):
        for tag in ("t", "not", "unknown", "poss", "poss-not", "mass"):
            for cutoff in (0.0, 0.25, 0.6, 1.0):
                for _theta, value in two_facts.lookup(S("(foo $x)"), tag, cutoff):
                    assert value >= cutoff

    def test_cutoff_validation(self, two_facts):
        with pytest.raises(RangeError):
            two_facts.lookup(S("(foo $x)"), "t", 1.5)


LEAVES = [sym("a"), sym("b"), Number(1.0), Number(2.0), compound(sym("f"), sym("a")), compound(sym("f"), Number(1.0))]
X, Y, P = var("x"), var("y"), var("p")


def _match_kb(seed: int) -> KnowledgeBase:
    """A random `kbgen` KB plus facts of other shapes: two arguments,
    nested compounds and numbers."""
    rng = random.Random(seed)
    kb = build_kb(*random_var_kb(rng))
    for _ in range(rng.randrange(4, 16)):
        head = sym(rng.choice(["e", "g", "p0_0"]))
        args = [rng.choice(LEAVES) for _ in range(rng.randrange(1, 3))]
        kb.stash(Compound((head, *args)), random_tv(rng))
    return kb


def _scan(kb, pattern):
    """Reference matches: unify the pattern with every stored fact."""
    out = []
    for sentence, record in kb.facts():
        theta = unify(pattern, sentence, {})
        if theta is not None:
            out.append((theta, record.tv))
    return out


def _tagged_value(tag, tv):
    """The tag's projection of ``tv``, written out from its definition."""
    a, b = tv.belief, tv.disbelief
    return {"t": a, "not": b, "unknown": 1.0 - (a + b), "poss": 1.0 - b, "poss-not": 1.0 - a, "mass": a + b}[tag]


def _reference_matches(kb, pattern, wrapper, tag):
    """Reference `lookup` before the cutoff: (unifier, value) for each
    stored fact the pattern unifies with, in store order. Under a
    ``(not p)`` wrapper the value is the tag's on the swapped pair, under
    ``(unknown p)`` the uncommitted mass."""
    out = []
    for sentence, record in kb.facts():
        theta = unify(pattern, sentence, {})
        if theta is not None:
            tv = record.tv
            if wrapper == "not":
                tv = TruthValue(tv.disbelief, tv.belief)
            out.append((theta, _tagged_value("unknown" if wrapper == "unknown" else tag, tv)))
    return out


@st.composite
def open_patterns(draw):
    head = draw(st.sampled_from([sym("e"), sym("g"), sym("p0_0"), sym("p1_0"), P]))
    args = st.sampled_from([*LEAVES, X, Y, compound(sym("f"), X), Number(1)])
    return Compound((head, *draw(st.lists(args, min_size=1, max_size=2))))


NAMED_PATTERNS = [
    compound(sym("e"), X, X),  # a repeated variable
    compound(sym("e"), compound(sym("f"), X), Y),  # a nested compound
    compound(sym("e"), Number(1), Y),  # Number(1) against a stored 1.0
    compound(P, sym("a")),  # a variable head
    compound(P, X, X),
    X,
]


class TestMatchFacts:
    @given(seed=st.integers(0, 10**6), pattern=open_patterns() | st.sampled_from(NAMED_PATTERNS))
    def test_agrees_with_unify_scan(self, seed, pattern):
        kb = _match_kb(seed)
        variables = tuple(sorted(variables_in(pattern), key=attrgetter("name")))
        found = [
            ({} if values is None else dict(zip(variables, values)), record.tv)
            for _sentence, record, values in kb._match(pattern, variables)
        ]
        assert found == _scan(kb, pattern)

    @given(seed=st.integers(0, 10**6), pattern=st.sampled_from(NAMED_PATTERNS), tag=st.sampled_from(TAG_NAMES))
    def test_lookup_agrees_with_unify_scan(self, seed, pattern, tag):
        kb = _match_kb(seed)
        for cutoff in (0.0, 0.3):
            assert kb.lookup(pattern, tag, cutoff) == tagged_answers(_scan(kb, pattern), tag, cutoff)

    @given(
        seed=st.integers(0, 10**6),
        pattern=open_patterns() | st.sampled_from(NAMED_PATTERNS) | st.integers(0, 60),
        wrapper=st.sampled_from([None, "not", "unknown"]),
        tag=st.sampled_from(TAG_NAMES),
    )
    def test_lookup_agrees_with_closed_form_reference(self, seed, pattern, wrapper, tag):
        # An integer draws a ground pattern: the stored sentence at that
        # position, or one never stored past the end.
        kb = _match_kb(seed)
        if isinstance(pattern, int):
            stored = [sentence for sentence, _record in kb.facts()]
            pattern = stored[pattern] if pattern < len(stored) else S("(e b b b)")
        query = pattern
        if wrapper is not None:
            if wrapper == "unknown":
                tag = tag if tag in ("t", "not") else "t"  # the tags an (unknown p) wrapper folds into
            query = Compound((sym(wrapper), pattern))
        matched = _reference_matches(kb, pattern, wrapper, tag)
        for cutoff in sorted({0.0, 0.3, 1.0, *(value for _theta, value in matched)}):
            want = [(theta, value.hex()) for theta, value in matched if value >= cutoff]
            assert [(theta, value.hex()) for theta, value in kb.lookup(query, tag, cutoff)] == want

    def test_named_patterns_find_their_facts(self):
        kb = KnowledgeBase()
        for sentence in ("(e a a)", "(e a b)", "(e (f a) 2)", "(e 1 b)", "(g a)", "(e a)"):
            kb.stash(S(sentence), TruthValue(0.5, 0.0))
        found = {
            str(pattern): sorted(format_bindings(t) for t, _ in kb.lookup(pattern, "mass", 0.0))
            for pattern in NAMED_PATTERNS
        }
        assert found == {
            "(e $x $x)": ["{$x=a}"],
            "(e (f $x) $y)": ["{$x=a, $y=2}"],
            "(e 1 $y)": ["{$y=b}"],
            "($p a)": ["{$p=e}", "{$p=g}"],
            "($p $x $x)": ["{$p=e, $x=a}"],
            "$x": sorted(f"{{$x={s}}}" for s in ("(e a a)", "(e a b)", "(e (f a) 2)", "(e 1 b)", "(g a)", "(e a)")),
        }


class TestStoreIndex:
    @given(
        seed=st.integers(0, 10**6),
        writes=st.lists(st.tuples(st.sampled_from(["stash", "set_truth", "drop"]), st.integers(0, 60)), max_size=12),
    )
    def test_buckets_agree_with_the_store(self, seed, writes):
        # each write may add or drop facts, consequences included; a
        # dropped fact stored again goes to the end of its bucket, as it
        # does in the store
        rng = random.Random(seed)
        facts, rules = random_var_kb(rng)
        kb = build_kb(facts, rules)
        atoms = sorted({S(f"(p{level}_{i} {c})") for level in range(2) for i in range(2) for c in "abc"}, key=str)
        for kind, i in writes:
            atom = atoms[i % len(atoms)]
            if kind == "stash":
                kb.stash(atom, random_tv(rng))
            else:
                kb.set_truth(atom, VACUOUS if kind == "drop" else random_tv(rng))
        first = next((s for s, _ in kb.facts() if str(s).startswith("(p0_")), None)
        if first is not None:
            kb.set_truth(first, VACUOUS)  # a level-0 fact has no rule contribution, so this drops it
            assert kb.retrieve(first) == VACUOUS
            kb.stash(first, random_tv(rng))
        grouped = {}
        for sentence, _record in kb.facts():
            grouped.setdefault(index_key(sentence), []).append(sentence)
        assert {key: [f.sentence for f in bucket] for key, bucket in kb._fact_index.buckets.items() if bucket} == grouped
        for pattern in [S(f"({name} $x)") for name, _arity in grouped] + [compound(P, X), X]:
            assert kb.lookup(pattern, "mass", 0.0) == tagged_answers(_scan(kb, pattern), "mass", 0.0)

    def test_snapshots_keep_their_values_after_later_writes(self, kb):
        # the store writes its entries in place; `facts` copies them
        kb.add_rule(S("(p $x)"), S("(q $x)"), TruthValue(0.5, 0.0))
        for sentence in ("(p a)", "(p b)", "(p c)"):
            kb.stash(S(sentence), TruthValue(0.4, 0.0))
        snapshot = kb.facts()
        values = [(sentence, record.base, record.tv) for sentence, record in snapshot]
        assert [str(sentence) for sentence, _base, _tv in values] == ["(p a)", "(q a)", "(p b)", "(q b)", "(p c)", "(q c)"]
        assert all(type(record) is FactRecord for _sentence, record in snapshot)
        kb.stash(S("(p a)"), TruthValue(0.3, 0.1))
        kb.set_truth(S("(p b)"), TruthValue(0.9, 0.0))
        kb.set_truth(S("(p c)"), VACUOUS)  # drops (p c), and (q c) with it
        assert [(sentence, record.base, record.tv) for sentence, record in snapshot] == values
        assert [str(sentence) for sentence, _record in kb.facts()] == ["(p a)", "(q a)", "(p b)", "(q b)"]
        assert values[3][2] == TruthValue(0.2, 0.0) and kb.retrieve(S("(q b)")) == TruthValue(0.45, 0.0)


class TestUnwrapQuery:
    def test_plain(self):
        assert unwrap_query(S("(foo fred)"), "t") == (S("(foo fred)"), "t")

    def test_not_flips(self):
        assert unwrap_query(S("(not (foo fred))"), "t") == (S("(foo fred)"), "not")

    def test_double_not(self):
        assert unwrap_query(S("(not (not (foo fred)))"), "t") == (S("(foo fred)"), "t")

    def test_keyword_wrapper_sets_tag(self):
        assert unwrap_query(S("(poss (foo fred))"), "t") == (S("(foo fred)"), "poss")

    def test_not_around_keyword_uses_dual(self):
        assert unwrap_query(S("(not (poss (foo fred)))"), "t") == (S("(foo fred)"), "poss-not")

    def test_stops_at_wrapper_it_cannot_fold(self):
        assert unwrap_query(S("(poss (unknown p))"), "t") == (S("(unknown p)"), "poss")


class TestRules:
    def test_negated_consequence_normalized(self, kb):
        rule = kb.add_rule(S("(foo $x)"), S("(not (goo $x))"), TRUE)
        assert rule.consequence == S("(goo $x)")
        assert rule.rule_tv == FALSE

    def test_and_premise_splits(self, kb):
        rule = kb.add_rule(S("(and (p $x) (not (q $x)))"), S("(r $x)"), TRUE)
        assert rule.conjuncts == ((S("(p $x)"), True), (S("(q $x)"), False))

    def test_unbound_consequence_variable_rejected(self):
        with pytest.raises(ValueError):
            make_rule("r1", S("(p $x)"), S("(q $y)"), TRUE)

    def test_empty_and_premise_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            make_rule("r1", S("(and)"), S("(q)"), TRUE)

    def test_auto_ids(self, kb):
        r1 = kb.add_rule(S("(p $x)"), S("(q $x)"), TRUE)
        r2 = kb.add_rule(S("(q $x)"), S("(r $x)"), TRUE)
        assert (r1.id, r2.id) == ("r1", "r2")

    def test_rejected_rule_or_clause_takes_no_id(self, kb):
        kb.add_rule(S("(p $x)"), S("(q $x)"), TRUE)
        with pytest.raises(ValueError):
            kb.add_rule(S("(p $x)"), S("(q $y)"), TRUE)
        assert kb.add_rule(S("(q $x)"), S("(r $x)"), TRUE).id == f"r{len(kb.rules)}" == "r2"
        kb.add_clause([(S("(p a)"), True)], TRUE)
        with pytest.raises(TautologicalResolvent):
            kb.add_clause([(S("(p b)"), True), (S("(p b)"), False)], TRUE)
        assert kb.add_clause([(S("(q a)"), True)], TRUE).support == frozenset({"c2"})


class TestLedger:
    def test_round_trip(self, kb):
        j = Justification("r1", {var("x"): sym("fred")}, TRUE, TruthValue(0.7, 0.0), S("(goo fred)"))
        kb.record_justification(j, (sym("fred"),))
        assert kb.find_justification("r1", (sym("fred"),)) is j

    def test_find_on_empty_ledger(self, kb):
        assert kb.find_justification("r1", (sym("fred"),)) is None

    def test_distinct_bindings_kept_apart(self, kb):
        ja = Justification("r1", {var("x"): sym("a")}, TRUE, TruthValue(0.5, 0.0), S("(goo a)"))
        jb = Justification("r1", {var("x"): sym("b")}, TRUE, TruthValue(0.6, 0.0), S("(goo b)"))
        kb.record_justification(ja, (sym("a"),))
        kb.record_justification(jb, (sym("b"),))
        assert kb.find_justification("r1", (sym("a"),)) is ja
        assert kb.find_justification("r1", (sym("b"),)) is jb

    def test_retract_returns_contribution(self, kb):
        j = Justification("r1", {var("x"): sym("fred")}, TRUE, TruthValue(0.7, 0.0), S("(goo fred)"))
        kb.record_justification(j, (sym("fred"),))
        assert kb.retract_justification("r1", (sym("fred"),)) == TruthValue(0.7, 0.0)
        assert kb.find_justification("r1", (sym("fred"),)) is None

    def test_retract_missing_raises(self, kb):
        with pytest.raises(NotFound):
            kb.retract_justification("r9", ())

    def test_at_most_one_live_justification_per_key(self, kb):
        kb.add_rule(S("(foo $x)"), S("(goo $x)"), TruthValue(0.8, 0.0))
        kb.stash(S("(foo fred)"), TruthValue(0.5, 0.0))
        kb.set_truth(S("(foo fred)"), TruthValue(0.9, 0.0))
        kb.set_truth(S("(foo fred)"), TruthValue(0.4, 0.1))
        keys = [k for k in kb._ledger]
        assert len(keys) == len(set(keys)) == 1


    def test_ground_why_is_one_probe(self, kb, monkeypatch):
        kb.load_text(
            """
            (rule (u $x) (v $x) (0.9 . 0))
            (rule (p $x) (q $x) (0.8 . 0.1))
            (rule (and (t $x) (p $y)) (q $x) (0.5 . 0))
            (fact (p a) (0.7 . 0))
            (fact (p b) (0.6 . 0.1))
            (fact (t a) (0.9 . 0))
            """
        )
        for i in range(500):
            kb.stash(S(f"(u k{i})"), TruthValue(0.5, 0.1))
        assert len(kb._ledger) == 504

        def scan(sentence):
            found = [j for j in kb._ledger.values() if unify(sentence, j.consequence, {}) is not None]
            return sorted(found, key=lambda j: (j.rule_id, format_bindings(j.bindings)))

        calls = []

        def counting_unify(*args):
            calls.append(args)
            return unify(*args)

        monkeypatch.setattr(pkb.kb, "unify", counting_unify)
        for text in ("(q a)", "(not (q a))", "(q b)", "(v k7)", "(q zzz)"):
            got = kb.why(S(text))
            assert calls == []
            assert got == scan(normalize_negation(S(text))[0])
        assert [(j.rule_id, format_bindings(j.bindings)) for j in kb.why(S("(q a)"))] == [
            ("r2", "{$x=a}"),
            ("r3", "{$x=a, $y=a}"),
            ("r3", "{$x=a, $y=b}"),
        ]
        assert len(kb.why(S("(q $z)"))) == 4
        assert kb.why(S("(q $z)")) == scan(S("(q $z)"))
        assert len(calls) == 0


CONTROL_LEAVES = [sym("a"), sym("b"), sym("p"), Number(1.0), Number(2.0), X, Y]


@st.composite
def control_terms(draw, depth=0):
    """Control patterns and goals: ground, open, variable- or number-headed
    and nested compounds, bare variables, numbers and symbols, and the
    repeated variable ``(r $x $x)``."""
    if depth == 2 or draw(st.integers(0, 3)) == 0:
        return draw(st.sampled_from([*CONTROL_LEAVES, compound(sym("r"), X, X)]))
    head = draw(st.sampled_from([sym("p"), sym("q"), sym("r"), P, Number(1.0)]))
    return Compound((head, *draw(st.lists(control_terms(depth + 1), max_size=3))))


@st.composite
def rule_terms(draw):
    """(premise, consequence) of a rule over `control_terms`: one or two
    conjuncts, and a consequence with its variables missing from them
    replaced by ``a``."""
    conjuncts = draw(st.lists(control_terms(), min_size=1, max_size=2))
    consequence = draw(control_terms())
    bound = set().union(*map(variables_in, conjuncts))
    consequence = substitute(consequence, {v: sym("a") for v in variables_in(consequence) - bound})
    return Compound((sym("and"), *conjuncts)), consequence


def _meets(term, filed) -> bool:
    """Whether ``term`` meets an entry filed under ``filed``, as the
    `TermIndex` docstring states the rule."""
    key = index_key(term)
    if key is None or isinstance(filed, Variable):
        return True
    if isinstance(filed, Compound) and isinstance(filed.elements[0], Variable):
        return len(filed.elements) == key[1]
    return index_key(filed) == key


def _scan_dispatch(kb, goal):
    """Reference dispatch: the first control entry whose canonical
    pattern unifies with the goal, tried one by one."""
    for entry in kb.control_entries:
        if unify(canonical_form(entry.pattern), goal, {}) is not None:
            return entry.method
    return None


class TestControl:
    def test_first_match_wins(self, kb):
        kb.add_control(S("(foo $x)"), "resolution")
        kb.add_control(S("(foo fred)"), "lookup")
        assert kb.dispatch(S("(foo fred)")) == "resolution"

    def test_no_match_is_none(self, kb):
        kb.add_control(S("(goo $x)"), "lookup")
        assert kb.dispatch(S("(foo fred)")) is None

    def test_pattern_variables_kept_apart_from_goal(self, kb):
        kb.add_control(S("(foo $x b)"), "lookup")
        assert kb.dispatch(S("(foo a $x)")) == "lookup"

    def test_pattern_variables_never_clash_with_goal_variables(self):
        # in a new interpreter, so that the names a clash needs cannot
        # depend on what earlier tests in this process ran
        program = (
            "from pkb import KnowledgeBase, parse_sentence as S\n"
            "kb = KnowledgeBase()\n"
            "kb.load_text('(control (r $x a) resolution)')\n"
            "print(kb.dispatch(S('(r b $x__1)')), kb.dispatch(S('(r b $z)')))\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", program],
            env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert (result.stdout, result.stderr) == ("resolution resolution\n", "")

    def test_non_matching_entry_changes_nothing(self, kb):
        kb.add_control(S("(foo $x)"), "resolution")
        before = kb.dispatch(S("(foo fred)"))
        kb.add_control(S("(unrelated $y)"), "lookup")
        assert kb.dispatch(S("(foo fred)")) == before

    def test_unknown_method_is_rejected_and_adds_nothing(self, kb):
        with pytest.raises(ParseError) as parsed:
            kb.load_text("(control (p $x) bogus)")
        with pytest.raises(ValueError) as added:
            kb.add_control(S("(p $x)"), "bogus")
        assert str(parsed.value) == f"1:17: {added.value}"
        assert kb.control_entries == [] and kb.dispatch(S("(p a)")) is None

    @given(
        entries=st.lists(st.tuples(control_terms(), st.sampled_from(CONTROL_METHODS)), max_size=8),
        rules=st.lists(rule_terms(), max_size=8),
        data=st.data(),
    )
    def test_indexed_dispatch_equals_the_scan(self, entries, rules, data):
        # every index reader against a scan: dispatch against unify, the
        # rule indexes against the meet rule, which must keep every rule
        # that unifies with the goal
        kb = KnowledgeBase()
        for pattern, method in data.draw(st.permutations(entries)):
            kb.add_control(pattern, method)
        for premise, consequence in rules:
            kb.add_rule(premise, consequence, TRUE)
        for goal in data.draw(st.lists(control_terms(), min_size=1, max_size=6)):
            assert kb.dispatch(goal) == _scan_dispatch(kb, goal)
            touching = tuple(r for r in kb.rules if any(_meets(goal, core) for core, _ in r.conjuncts))
            assert kb.rules_touching(goal) == touching
            concluding = kb.rules_concluding(goal)
            assert concluding == [r for r in kb.rules if _meets(goal, r.consequence)]
            assert all(r in concluding for r in kb.rules if unify(canonical_form(r.consequence), goal, {}) is not None)
            assert all(
                r in touching
                for r in kb.rules
                if any(unify(canonical_form(core), goal, {}) is not None for core, _ in r.conjuncts)
            )

    def test_ground_goal_dispatch_makes_no_unify_call(self, kb, monkeypatch):
        calls = []
        monkeypatch.setattr(pkb.kb, "unify", lambda *args: calls.append(args) or unify(*args))
        for pattern, method in [("(foo a)", "lookup"), ("($p b)", "resolution"), ("$g", "backward-chain")]:
            kb.add_control(S(pattern), method)
        assert [kb.dispatch(S(g)) for g in ("(foo a)", "(foo b)", "(bar b)", "bar")] == [
            "lookup", "resolution", "resolution", "backward-chain"
        ]
        assert calls == []

    @pytest.mark.parametrize(
        "wildcard_at, expected",
        [
            (0, ["resolution", "resolution", "resolution"]),
            (1, ["lookup", "resolution", "resolution"]),
            (2, ["lookup", "backward-chain", "resolution"]),
        ],
    )
    def test_wildcard_row_wins_by_its_position(self, kb, wildcard_at, expected):
        rows = [("(foo a)", "lookup"), ("(foo $x)", "backward-chain")]
        rows.insert(wildcard_at, ("($p $x)", "resolution"))
        for pattern, method in rows:
            kb.add_control(S(pattern), method)
        assert [kb.dispatch(S(g)) for g in ("(foo a)", "(foo b)", "(goo b)")] == expected

    def test_open_goals_dispatch_through_unify(self, kb, monkeypatch):
        calls = []
        monkeypatch.setattr(pkb.kb, "unify", lambda *args: calls.append(args) or unify(*args))
        kb.add_control(S("(w $x)"), "lookup")
        kb.add_control(S("(v a)"), "resolution")
        kb.add_control(S("(v $x)"), "backward-chain")
        assert kb.dispatch(S("(v $x)")) == "resolution"
        assert len(calls) == 1
        assert kb.dispatch(S("$g")) == "lookup"
        assert len(calls) == 2


class TestSetVariable:
    def test_updates_config(self, kb):
        kb.set_variable("inference-cutoff", 0.2)
        kb.set_variable("accept-as-true", 0.9)
        kb.set_variable("max-chain-depth", 10)
        assert kb.config.inference_cutoff == 0.2
        assert kb.config.accept_as_true == 0.9
        assert kb.config.max_chain_depth == 10

    def test_unknown_name(self, kb):
        with pytest.raises(ValueError):
            kb.set_variable("mystery", 1.0)

    def test_out_of_range(self, kb):
        with pytest.raises(RangeError):
            kb.set_variable("accept-as-true", 0.0)

    @pytest.mark.parametrize("name", ["max-chain-depth", "inference-cutoff", "accept-as-true"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_leaves_config_unchanged(self, kb, name, value):
        before = kb.config.copy()
        with pytest.raises(RangeError):
            kb.set_variable(name, value)
        assert kb.config == before

    @pytest.mark.parametrize("value", [2.7, 0.5])
    def test_fractional_depth_leaves_config_unchanged(self, kb, value):
        before = kb.config.copy()
        with pytest.raises(RangeError, match="whole number"):
            kb.set_variable("max-chain-depth", value)
        assert kb.config == before

    def test_non_finite_in_a_file(self, kb):
        with pytest.raises(RangeError):
            kb.load_text("(setvar max-chain-depth 1e400)")
        assert kb.config.max_chain_depth == 64

    @pytest.mark.parametrize("name", list(ENGINE_VARIABLES))
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, 1e400, 0, 0.5, 2.7, -1, 10])
    def test_checks_are_the_constructors(self, kb, name, value):
        def raised(call):
            try:
                call()
            except RangeError as exc:
                return type(exc), str(exc)
            return None

        field = ENGINE_VARIABLES[name]
        before = kb.config
        expected = raised(lambda: EngineConfig(**{field: value}))
        assert raised(lambda: kb.set_variable(name, value)) == expected
        if expected is None:
            assert kb.config == EngineConfig(**{field: value})
        else:
            assert kb.config is before


class TestConfigAssignment:
    @pytest.mark.parametrize("value", [None, {}, {"inference_cutoff": 0.5}, (0.0, 1.0, 64)])
    def test_non_config_is_rejected_and_changes_nothing(self, kb, value):
        kb.load_text("(rule (p $x) (q $x) (0.5 . 0)) (fact (p a) (1 . 0)) (clause (or (r a)) (0.5 . 0))")
        assert prove(kb, S("(q a)")) == [({}, TruthValue(0.5, 0.0))]
        config, goals, saturation = kb.config, kb._goals, kb.saturation()
        with pytest.raises(TypeError):
            kb.config = value
        assert kb.config is config and kb._goals is goals and kb.saturation() is saturation
        kb.stash(S("(p b)"), TRUE)  # a mutator runs whole afterwards
        assert kb.retrieve(S("(q b)")) == TruthValue(0.5, 0.0)

    def test_equal_config_keeps_derived_state(self, kb):
        kb.load_text("(rule (p $x) (q $x) (0.5 . 0)) (fact (p a) (1 . 0))")
        prove(kb, S("(q a)"))
        goals = kb._goals
        kb.config = EngineConfig()
        assert kb._goals is goals
        kb.config = EngineConfig(accept_as_true=0.5)
        assert kb._goals is None


class TestNonFiniteWords:
    def test_nan_fact_is_retrievable(self, kb):
        kb.load_text("(fact (foo nan) (1 . 0)) (fact (foo inf) (0.5 . 0))")
        assert kb.retrieve(S("(foo nan)")) == TruthValue(1.0, 0.0)
        assert kb.lookup(S("(foo nan)")) == [({}, 1.0)]
        assert sorted(str(t[X]) for t, _ in kb.lookup(S("(foo $x)"), "t", 0.5)) == ["inf", "nan"]


class TestKeysAreNoPlainTuples:
    """A compound equals the plain tuple of its elements, so a dict that
    keyed both would take one for the other: no dict of the KB keys a
    plain tuple made only of terms."""

    def test_no_key_is_a_plain_tuple_of_terms(self):
        rng, filled = random.Random(3600), set()
        for _ in range(20):
            facts, rules = random_var_kb(rng)
            kb = build_kb(facts, rules)
            consequences = (substitute(c, {var("x"): sym("a")}) for _premise, c, _tv in rules)
            atoms = sorted({*facts, *consequences}, key=str)
            for atom in atoms:
                prove(kb, atom)
                prove(kb, Compound((atom[0], var("x"))))
            kb.stash(atoms[0], random_tv(rng))
            kb.set_truth(atoms[-1], random_tv(rng))
            prove(kb, atoms[-1])
            kb.add_clause([(atoms[0], True), (atoms[-1], False)], random_tv(rng))
            kb.add_clause([(atoms[-1], True)], random_tv(rng))
            truep(kb, atoms[0], "t", 0.0, method="resolution")
            _priority_fn, table, dependents = kb._goals
            dicts = {
                "facts": kb._facts, "ledger": kb._ledger, "by_premise": kb._by_premise,
                "by_consequence": kb._by_consequence, "goals": table, "dependents": dependents,
                "touching": kb._touching, "component_of": kb._component_of, "groups": kb._groups,
            }
            filled.update(name for name, d in dicts.items() if d)
            inner = [*kb._by_premise.values(), *kb._by_consequence.values(), *dependents.values()]
            for d in (*dicts.values(), *inner):
                for key in d:
                    assert not (type(key) is tuple and all(isinstance(e, Term) for e in key)), key
        assert filled == set(dicts)


class TestNoCycles:
    def test_a_dropped_kb_leaves_no_cyclic_garbage(self):
        # so that dropping one costs no collector pass in a later operation
        text = (
            "(control (link $c $s) resolution)\n(clause (or (link c s0)) (0.5 . 0))\n"
            "(clause (or (not (link c s0)) (link c s1)) (0.5 . 0))\n"
            "(rule (and (p $x) (q $x)) (r $x) (0.9 . 0))\n(fact (p a) (1 . 0))\n(fact (q a) (1 . 0))\n"
        )
        gc.collect()
        gc.disable()
        try:
            kb = KnowledgeBase()
            kb.load_text(text)
            for goal, method in [("(link c s1)", None), ("(r $x)", "backward-chain"), ("(p $x)", "lookup")]:
                assert truep(kb, S(goal), "t", 0.0, method=method)
            del kb
            assert gc.collect() == 0
        finally:
            gc.enable()
