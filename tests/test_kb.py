"""Tests for fact storage, negation normalization, lookup and the ledger."""

import pytest

from pkb.errors import NotFound, RangeError, TotalConflict
from pkb.kb import Justification, KnowledgeBase, make_rule, unwrap_query
from pkb.sexpr import parse_sentence as S
from pkb.terms import sym, var
from pkb.truth import FALSE, TRUE, VACUOUS, TruthValue

from oracles import oracle_combine

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

    def test_auto_ids(self, kb):
        r1 = kb.add_rule(S("(p $x)"), S("(q $x)"), TRUE)
        r2 = kb.add_rule(S("(q $x)"), S("(r $x)"), TRUE)
        assert (r1.id, r2.id) == ("r1", "r2")


class TestLedger:
    def test_round_trip(self, kb):
        theta = {var("x"): sym("fred")}
        j = Justification("r1", theta, TRUE, TruthValue(0.7, 0.0), S("(goo fred)"))
        kb.record_justification(j)
        assert kb.find_justification("r1", theta) is j

    def test_find_on_empty_ledger(self, kb):
        assert kb.find_justification("r1", {var("x"): sym("fred")}) is None

    def test_distinct_bindings_kept_apart(self, kb):
        ja = Justification("r1", {var("x"): sym("a")}, TRUE, TruthValue(0.5, 0.0), S("(goo a)"))
        jb = Justification("r1", {var("x"): sym("b")}, TRUE, TruthValue(0.6, 0.0), S("(goo b)"))
        kb.record_justification(ja)
        kb.record_justification(jb)
        assert kb.find_justification("r1", {var("x"): sym("a")}) is ja
        assert kb.find_justification("r1", {var("x"): sym("b")}) is jb

    def test_retract_returns_contribution(self, kb):
        theta = {var("x"): sym("fred")}
        j = Justification("r1", theta, TRUE, TruthValue(0.7, 0.0), S("(goo fred)"))
        kb.record_justification(j)
        assert kb.retract_justification("r1", theta) == TruthValue(0.7, 0.0)
        assert kb.find_justification("r1", theta) is None

    def test_retract_missing_raises(self, kb):
        with pytest.raises(NotFound):
            kb.retract_justification("r9", {})

    def test_at_most_one_live_justification_per_key(self, kb):
        kb.add_rule(S("(foo $x)"), S("(goo $x)"), TruthValue(0.8, 0.0))
        kb.stash(S("(foo fred)"), TruthValue(0.5, 0.0))
        kb.set_truth(S("(foo fred)"), TruthValue(0.9, 0.0))
        kb.set_truth(S("(foo fred)"), TruthValue(0.4, 0.1))
        keys = [k for k in kb._ledger]
        assert len(keys) == len(set(keys)) == 1


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

    def test_non_matching_entry_changes_nothing(self, kb):
        kb.add_control(S("(foo $x)"), "resolution")
        before = kb.dispatch(S("(foo fred)"))
        kb.add_control(S("(unrelated $y)"), "lookup")
        assert kb.dispatch(S("(foo fred)")) == before


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
