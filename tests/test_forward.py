"""Forward chaining: firing, retraction, cutoffs, rebuild equivalence."""

import random

import pytest

from pkb.errors import DepthExceeded
from pkb.kb import KnowledgeBase
from pkb.sexpr import parse_sentence as S
from pkb.truth import TRUE, VACUOUS, EngineConfig, TruthValue, combine

from kbgen import build_kb, ground_rules_to_terms, random_ground_kb, random_var_kb
from oracles import oracle_bottom_up

TOL = 1e-9


def tv_close(x, y, tol=TOL):
    return abs(x.belief - y.belief) <= tol and abs(x.disbelief - y.disbelief) <= tol


def final_values(kb):
    return {sentence: record.tv for sentence, record in kb.facts()}


def assert_kb_equal(kb_a, kb_b, tol=TOL):
    a, b = final_values(kb_a), final_values(kb_b)
    assert set(a) == set(b)
    for sentence in a:
        assert tv_close(a[sentence], b[sentence], tol), f"{sentence}: {a[sentence]} vs {b[sentence]}"


class TestBasicChaining:
    def test_certain_chain(self):
        kb = KnowledgeBase()
        kb.add_rule(S("(foo $x)"), S("(goo $x)"), TRUE)
        kb.stash(S("(foo fred)"), TRUE)
        assert kb.retrieve(S("(goo fred)")) == TRUE

    def test_two_level_chain(self):
        kb = KnowledgeBase()
        kb.add_rule(S("(foo $x)"), S("(goo $x)"), TruthValue(0.8, 0.0))
        kb.add_rule(S("(goo $x)"), S("(hoo $x)"), TruthValue(0.5, 0.0))
        kb.stash(S("(foo fred)"), TRUE)
        assert tv_close(kb.retrieve(S("(goo fred)")), TruthValue(0.8, 0.0))
        assert tv_close(kb.retrieve(S("(hoo fred)")), TruthValue(0.4, 0.0))

    def test_rule_added_after_facts_fires(self):
        kb = KnowledgeBase()
        kb.stash(S("(foo fred)"), TRUE)
        kb.add_rule(S("(foo $x)"), S("(goo $x)"), TruthValue(0.6, 0.0))
        assert tv_close(kb.retrieve(S("(goo fred)")), TruthValue(0.6, 0.0))

    def test_negated_consequence_rule(self):
        kb = KnowledgeBase()
        kb.add_rule(S("(foo $x)"), S("(not (goo $x))"), TRUE)
        kb.stash(S("(foo fred)"), TRUE)
        assert kb.retrieve(S("(goo fred)")) == TruthValue(0.0, 1.0)

    def test_conjunctive_premise(self):
        kb = KnowledgeBase()
        kb.add_rule(S("(and (p $x) (q $x))"), S("(r $x)"), TRUE)
        kb.stash(S("(p a)"), TruthValue(0.5, 0.0))
        assert kb.retrieve(S("(r a)")) == VACUOUS
        kb.stash(S("(q a)"), TruthValue(0.5, 0.0))
        assert tv_close(kb.retrieve(S("(r a)")), TruthValue(0.25, 0.0))

    def test_negated_conjunct_reads_swapped_value(self):
        kb = KnowledgeBase()
        kb.add_rule(S("(and (p $x) (not (q $x)))"), S("(r $x)"), TRUE)
        kb.stash(S("(p a)"), TRUE)
        kb.stash(S("(q a)"), TruthValue(0.0, 0.8))
        assert tv_close(kb.retrieve(S("(r a)")), TruthValue(0.8, 0.0))

    def test_one_firing_per_ground_instantiation(self):
        kb = KnowledgeBase()
        kb.add_rule(S("(p $x)"), S("(q marker)"), TruthValue(0.5, 0.0))
        kb.stash(S("(p a)"), TRUE)
        kb.stash(S("(p b)"), TRUE)
        expected = combine(TruthValue(0.5, 0.0), TruthValue(0.5, 0.0))
        assert tv_close(kb.retrieve(S("(q marker)")), expected)
        assert len(kb.why(S("(q marker)"))) == 2


class TestRetraction:
    def test_update_equals_fresh_kb(self):
        kb = KnowledgeBase()
        kb.add_rule(S("(foo $x)"), S("(goo $x)"), TruthValue(0.9, 0.05))
        kb.stash(S("(goo fred)"), TruthValue(0.2, 0.1))
        kb.stash(S("(foo fred)"), TruthValue(0.6, 0.2))
        kb.set_truth(S("(foo fred)"), TruthValue(0.3, 0.4))

        fresh = KnowledgeBase()
        fresh.add_rule(S("(foo $x)"), S("(goo $x)"), TruthValue(0.9, 0.05))
        fresh.stash(S("(goo fred)"), TruthValue(0.2, 0.1))
        fresh.stash(S("(foo fred)"), TruthValue(0.3, 0.4))
        assert_kb_equal(kb, fresh)

    def test_retracting_sole_support_removes_consequence(self):
        kb = KnowledgeBase()
        kb.add_rule(S("(foo $x)"), S("(goo $x)"), TruthValue(0.7, 0.0))
        kb.stash(S("(foo fred)"), TRUE)
        assert tv_close(kb.retrieve(S("(goo fred)")), TruthValue(0.7, 0.0))
        kb.set_truth(S("(foo fred)"), VACUOUS)
        assert kb.retrieve(S("(goo fred)")) == VACUOUS
        assert kb.why(S("(goo fred)")) == []

    def test_certain_contribution_retracts_via_rebuild(self):
        # A certain contribution cannot be uncombined; the consequence
        # must fall back to rebuilding from its remaining parts.
        kb = KnowledgeBase()
        kb.add_rule(S("(foo $x)"), S("(goo $x)"), TRUE)
        kb.stash(S("(goo fred)"), TruthValue(0.3, 0.0))
        kb.stash(S("(foo fred)"), TRUE)
        assert kb.retrieve(S("(goo fred)")) == TRUE
        kb.set_truth(S("(foo fred)"), VACUOUS)
        assert tv_close(kb.retrieve(S("(goo fred)")), TruthValue(0.3, 0.0))

    def test_downstream_consequences_update(self):
        kb = KnowledgeBase()
        kb.add_rule(S("(p $x)"), S("(q $x)"), TruthValue(0.8, 0.0))
        kb.add_rule(S("(q $x)"), S("(r $x)"), TruthValue(0.9, 0.0))
        kb.stash(S("(p a)"), TRUE)
        before = kb.retrieve(S("(r a)"))
        kb.set_truth(S("(p a)"), TruthValue(0.5, 0.0))
        after = kb.retrieve(S("(r a)"))
        assert tv_close(before, TruthValue(0.8 * 0.9, 0.0))
        assert tv_close(after, TruthValue(0.5 * 0.8 * 0.9, 0.0))


class TestCutoff:
    def test_weak_rule_not_fired_forward(self):
        kb = KnowledgeBase(config=EngineConfig(inference_cutoff=0.02))
        kb.add_rule(S("(foo $x)"), S("(goo $x)"), TruthValue(0.01, 0.0))
        kb.stash(S("(foo fred)"), TRUE)
        assert kb.retrieve(S("(goo fred)")) == VACUOUS
        assert kb.why(S("(goo fred)")) == []

    def test_small_premise_change_skips_refiring(self):
        events = []
        kb = KnowledgeBase(config=EngineConfig(inference_cutoff=0.05), trace=events.append)
        kb.add_rule(S("(foo $x)"), S("(goo $x)"), TruthValue(0.9, 0.0))
        kb.stash(S("(foo fred)"), TruthValue(0.5, 0.0))
        contribution_before = kb.why(S("(goo fred)"))[0].contribution
        events.clear()
        kb.set_truth(S("(foo fred)"), TruthValue(0.51, 0.0))
        assert any(line.startswith("SKIP rule=r1") for line in events)
        assert not any(line.startswith("FIRE") for line in events)
        assert kb.why(S("(goo fred)"))[0].contribution == contribution_before

    def test_stale_deltas_below_cutoff_at_quiescence(self):
        from pkb.forward import premise_value
        from pkb.truth import delta_mass, propagate

        rng = random.Random(7001)
        cutoff = 0.05
        for _ in range(20):
            facts, rules = random_var_kb(rng)
            kb = build_kb(facts, rules, config=EngineConfig(inference_cutoff=cutoff))
            for sentence in list(facts):
                kb.set_truth(sentence, random_tv_for(rng))
            rules_by_id = {rule.id: rule for rule in kb.rules}
            for (rule_id, _key), j in kb._ledger.items():
                rule = rules_by_id[rule_id]
                fresh = propagate(premise_value(kb, rule, j.bindings), rule.rule_tv)
                assert delta_mass(j.contribution, fresh) < cutoff


def random_tv_for(rng):
    from kbgen import random_tv

    return random_tv(rng)


class TestRebuildEquivalence:
    def test_random_interleavings(self):
        rng = random.Random(52001)
        for _ in range(60):
            facts, rules = random_var_kb(rng)
            kb = build_kb(facts, rules)
            # Interleave replacement updates over the base facts.
            final_base = dict(facts)
            sentences = list(facts)
            rng.shuffle(sentences)
            for sentence in sentences:
                if rng.random() < 0.7:
                    tv = random_tv_for(rng)
                    kb.set_truth(sentence, tv)
                    final_base[sentence] = tv
            fresh = build_kb(final_base, rules)
            assert_kb_equal(kb, fresh)

    def test_order_independence(self):
        rng = random.Random(52002)
        for _ in range(20):
            facts, rules = random_var_kb(rng)
            items = list(facts.items())
            orderings = [items, list(reversed(items)), rng.sample(items, len(items))]
            kbs = []
            for ordering in orderings:
                kb = build_kb({}, rules)
                for sentence, tv in ordering:
                    kb.stash(sentence, tv)
                kbs.append(kb)
            assert_kb_equal(kbs[0], kbs[1])
            assert_kb_equal(kbs[0], kbs[2])

    def test_matches_bottom_up_oracle(self):
        rng = random.Random(52003)
        for _ in range(40):
            facts, rules = random_ground_kb(rng)
            kb = build_kb(facts, ground_rules_to_terms(rules))
            base = {s: (tv.belief, tv.disbelief) for s, tv in facts.items()}
            oracle_rules = [
                (conjuncts, cons, (tv.belief, tv.disbelief)) for conjuncts, cons, tv in rules
            ]
            expected = oracle_bottom_up(base, oracle_rules)
            got = {s: (tv.belief, tv.disbelief) for s, tv in final_values(kb).items()}
            assert set(got) == set(expected)
            for sentence, pair in expected.items():
                assert got[sentence][0] == pytest.approx(pair[0], abs=TOL)
                assert got[sentence][1] == pytest.approx(pair[1], abs=TOL)

    def test_no_contribution_double_counted(self):
        rng = random.Random(52004)
        for _ in range(20):
            facts, rules = random_var_kb(rng)
            kb = build_kb(facts, rules)
            for sentence in list(facts):
                if rng.random() < 0.5:
                    kb.set_truth(sentence, random_tv_for(rng))
            by_consequence = {}
            for j in kb._ledger.values():
                by_consequence.setdefault(j.consequence, []).append(j.contribution)
            for sentence, record in kb.facts():
                acc = record.base
                for contribution in by_consequence.get(sentence, []):
                    acc = combine(acc, contribution)
                assert tv_close(acc, record.tv)


class TestIndexedPropagation:
    def test_variable_functor_premise_fires_and_retracts(self):
        events = []
        kb = KnowledgeBase(trace=events.append)
        kb.add_rule(S("($p a)"), S("(seen $p)"), TruthValue(0.6, 0.0))
        kb.stash(S("(foo a)"), TRUE)
        kb.stash(S("(foo b)"), TRUE)
        kb.stash(S("(bar a)"), TruthValue(0.5, 0.0))
        assert tv_close(kb.retrieve(S("(seen foo)")), TruthValue(0.6, 0.0))
        assert tv_close(kb.retrieve(S("(seen bar)")), TruthValue(0.3, 0.0))
        events.clear()
        kb.set_truth(S("(foo a)"), VACUOUS)
        assert events == ["RETRACT rule=r1 bind={$p=foo} contrib=(0.6 . 0)"]
        assert kb.retrieve(S("(seen foo)")) == VACUOUS
        assert tv_close(kb.retrieve(S("(seen bar)")), TruthValue(0.3, 0.0))

    def test_repeated_predicate_fires_once_per_binding(self):
        events = []
        kb = KnowledgeBase(trace=events.append)
        kb.add_rule(S("(and (p $x) (p $y))"), S("(r $x $y)"), TruthValue(0.5, 0.0))
        kb.stash(S("(p a)"), TRUE)
        events.clear()
        kb.stash(S("(p b)"), TRUE)
        assert sorted(events) == [
            "FIRE rule=r1 bind={$x=a, $y=b} contrib=(0.5 . 0)",
            "FIRE rule=r1 bind={$x=b, $y=a} contrib=(0.5 . 0)",
            "FIRE rule=r1 bind={$x=b, $y=b} contrib=(0.5 . 0)",
        ]
        for pair in ("a a", "a b", "b a", "b b"):
            assert kb.retrieve(S(f"(r {pair})")) == TruthValue(0.5, 0.0)
            assert len(kb.why(S(f"(r {pair})"))) == 1

    def test_dropped_premise_retracts_through_premise_index(self):
        events = []
        kb = KnowledgeBase(trace=events.append)
        kb.add_rule(S("(and (p $x) (q $x))"), S("(r $x)"), TruthValue(0.8, 0.0))
        kb.stash(S("(r a)"), TruthValue(0.2, 0.0))
        kb.stash(S("(q a)"), TRUE)
        kb.stash(S("(p a)"), TruthValue(0.5, 0.0))
        events.clear()
        kb.set_truth(S("(p a)"), VACUOUS)
        assert S("(p a)") not in dict(kb.facts())
        assert events == ["RETRACT rule=r1 bind={$x=a} contrib=(0.4 . 0)"]
        assert tv_close(kb.retrieve(S("(r a)")), TruthValue(0.2, 0.0))
        assert kb.why(S("(r a)")) == []


class TestCyclesAndDepth:
    def test_cyclic_rules_hit_depth_bound(self):
        kb = KnowledgeBase(config=EngineConfig(max_chain_depth=8))
        kb.add_rule(S("(p $x)"), S("(q $x)"), TruthValue(0.95, 0.0))
        kb.add_rule(S("(q $x)"), S("(p $x)"), TruthValue(0.95, 0.0))
        with pytest.raises(DepthExceeded):
            kb.stash(S("(p a)"), TruthValue(0.9, 0.0))

    def test_cutoff_contracts_cycles(self):
        kb = KnowledgeBase(config=EngineConfig(inference_cutoff=0.05, max_chain_depth=64))
        kb.add_rule(S("(p $x)"), S("(q $x)"), TruthValue(0.7, 0.0))
        kb.add_rule(S("(q $x)"), S("(p $x)"), TruthValue(0.7, 0.0))
        kb.stash(S("(p a)"), TruthValue(0.9, 0.0))
        assert kb.retrieve(S("(q a)")).belief > 0.5


class TestTrace:
    def test_fire_line_format(self):
        events = []
        kb = KnowledgeBase(trace=events.append)
        kb.add_rule(S("(foo $x)"), S("(goo $x)"), TruthValue(0.7, 0.0))
        kb.stash(S("(foo fred)"), TRUE)
        assert "FIRE rule=r1 bind={$x=fred} contrib=(0.7 . 0)" in events

    def test_retract_then_fire_on_update(self):
        events = []
        kb = KnowledgeBase(trace=events.append)
        kb.add_rule(S("(foo $x)"), S("(goo $x)"), TruthValue(0.7, 0.0))
        kb.stash(S("(foo fred)"), TRUE)
        events.clear()
        kb.set_truth(S("(foo fred)"), TruthValue(0.5, 0.0))
        kinds = [line.split()[0] for line in events]
        assert kinds == ["RETRACT", "FIRE"]
