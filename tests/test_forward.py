"""Forward chaining: firing, retraction, cutoffs, rebuild equivalence."""

import random
import sys

import pytest

import pkb.forward
import pkb.kb
from pkb.backward import prove
from pkb.errors import DepthExceeded
from pkb.kb import KnowledgeBase, Rule, make_rule
from pkb.sexpr import parse_sentence as S
from pkb.terms import Compound
from pkb.truth import TRUE, VACUOUS, EngineConfig, TruthValue, combine

from kbgen import (
    CONSTANTS,
    build_kb,
    ground_rules_to_terms,
    ground_var_rules,
    layered_dag_kb,
    random_ground_kb,
    random_tv,
    random_var_kb,
    statement_lines,
)
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

    def test_full_mass_contribution_keeps_base_evidence(self):
        # (0.9 . 0.1) at a certain premise leaves (q k) no uncommitted
        # mass to divide by; the rebuild keeps the base (0.4 . 0.4)
        kb = KnowledgeBase()
        kb.load_text("(rule (p $x) (q $x) (0.9 . 0.1)) (fact (q k) (0.4 . 0.4)) (fact (p k) (1 . 0))")
        kb.set_truth(S("(p k)"), TruthValue(0.5, 0.0))
        assert tv_close(kb.retrieve(S("(q k)")), TruthValue(0.5875, 0.2875))
        assert tv_close(kb.retrieve(S("(q k)")), kb.pooled_value(S("(q k)")))

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
        from pkb.terms import substitute
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
                premises = [substitute(core, j.bindings) for core, _positive in rule.conjuncts]
                fresh = propagate(premise_value(kb, rule, premises), rule.rule_tv)
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

    def test_full_mass_updates_equal_fresh_kb(self):
        rng = random.Random(52005)
        for _ in range(300):
            facts, rules = random_var_kb(rng, full_mass=True)
            kb = build_kb(facts, rules)
            final_base = dict(facts)
            for _round in range(3):
                for sentence in rng.sample(list(facts), len(facts)):
                    tv = TRUE if rng.random() < 0.5 else random_tv_for(rng)
                    kb.set_truth(sentence, tv)
                    final_base[sentence] = tv
                # stored keys too: retracting a last contribution leaves
                # the base exactly, not drift such as (0 . 1.1e-16)
                assert_kb_equal(kb, build_kb(final_base, rules))

    def test_dropped_facts_equal_fresh_kb(self):
        # set_truth to (0 . 0) drops a fact: its instances are then found
        # only through the ledger, not by seeding the rules' conjuncts
        rng = random.Random(52006)
        joins = 0
        for _ in range(120):
            facts, rules = random_var_kb(rng)
            if not any(premise.elements[0] == S("and") for premise, _c, _tv in rules):
                continue
            joins += 1
            kb = build_kb(facts, rules)
            final_base = dict(facts)
            pool = sorted({Compound((s.elements[0], c)) for s in facts for c in CONSTANTS}, key=str)
            for _step in range(12):
                sentence = rng.choice(pool)
                roll = rng.random()
                if roll < 0.35:
                    kb.set_truth(sentence, VACUOUS)
                    final_base.pop(sentence, None)
                elif roll < 0.7:
                    tv = random_tv_for(rng)
                    kb.stash(sentence, tv)
                    final_base[sentence] = combine(final_base.get(sentence, VACUOUS), tv)
                else:
                    tv = random_tv_for(rng)
                    kb.set_truth(sentence, tv)
                    final_base[sentence] = tv
            assert_kb_equal(kb, build_kb(final_base, rules))
        assert joins >= 40

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

    @pytest.mark.parametrize("kbs", ["var", "dag"])
    def test_write_sequences_equal_the_oracle(self, kbs):
        # stash, set_truth and add_rule in any order leave what the
        # bottom-up oracle makes of the final base and the rules added;
        # a write may hit any sentence, a consequence too
        rng = random.Random(16016)
        for _ in range(40 if kbs == "var" else 6):
            if kbs == "var":
                facts, rules = random_var_kb(rng, levels=4)
                constants = CONSTANTS
            else:
                facts, rules = layered_dag_kb(*rng.choice([(2, 6), (3, 4), (2, 10)]))
                constants = [S("k")]
            heads = {s.elements[0] for s in facts} | {c.elements[0] for _p, c, _tv in rules}
            pool = sorted({Compound((head, c)) for head in heads for c in constants}, key=str)
            held = rng.sample(rules, rng.randrange(len(rules) + 1))
            added = [rule for rule in rules if rule not in held]
            kb = KnowledgeBase(config=EngineConfig(max_chain_depth=1000))
            kb.load_text("\n".join(statement_lines(facts, added)))
            base = dict(facts)
            for _step in range(12):
                roll = rng.random()
                if held and roll < 0.3:
                    rule = held.pop()
                    kb.add_rule(*rule)
                    added.append(rule)
                    continue
                sentence, tv = rng.choice(pool), random_tv(rng)
                if roll < 0.65:
                    kb.stash(sentence, tv)
                    base[sentence] = combine(base.get(sentence, VACUOUS), tv)
                else:
                    tv = VACUOUS if rng.random() < 0.2 else tv
                    kb.set_truth(sentence, tv)
                    base[sentence] = tv
            expected = oracle_bottom_up(
                {s: (tv.belief, tv.disbelief) for s, tv in base.items() if not tv.is_vacuous()},
                ground_var_rules(added, constants),
            )
            got = final_values(kb)
            assert set(got) == set(expected)
            for sentence, (belief, disbelief) in expected.items():
                assert tv_close(got[sentence], TruthValue(belief, disbelief)), sentence


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

    @pytest.mark.parametrize("write", ["load", "add_rule", "stash"])
    def test_an_instance_whose_consequence_is_no_sentence_is_not_applied(self, write):
        # ($p $x) and $x can be bound to (1 a) and 1, which no write
        # accepts; those instances are not applied, so the store written
        # out as facts loads into a fresh KB and gives the same store
        rules = "(rule (isa $p $x) ($p $x) (0.8 . 0)) (rule (wrap $x) $x (0.8 . 0))"
        sentences = ("(isa 1 a)", "(isa foo a)", "(wrap 1)", "(wrap b)")
        facts = "".join(f"(fact {sentence} (0.5 . 0))" for sentence in sentences)
        kb = KnowledgeBase()
        if write == "load":
            kb.load_text(rules + facts)
        elif write == "add_rule":
            kb.load_text(facts)
            kb.load_text(rules)
        else:
            kb.load_text(rules)
            for sentence in sentences:
                kb.stash(S(sentence), TruthValue(0.5, 0.0))
        assert [rule.keyless for rule in kb.rules] == [True, True]
        assert sorted(map(str, final_values(kb))) == ["(foo a)", "(isa 1 a)", "(isa foo a)", "(wrap 1)", "(wrap b)", "b"]
        assert tv_close(kb.retrieve(S("(foo a)")), TruthValue(0.4, 0.0))
        fresh = KnowledgeBase()
        fresh.load_text("".join(f"(fact {sentence} {record.tv})" for sentence, record in kb.facts()))
        assert final_values(fresh) == final_values(kb)
        for sentence, record in kb.facts():  # each is a sentence a write accepts
            kb.set_truth(sentence, record.base)

    def test_only_a_consequence_with_no_index_key_is_checked(self):
        shapes = {"(q $x)": False, "q": False, "($x $y)": True, "$x": True, "(1 $x)": True}
        assert {text: make_rule("r1", S("(p $x $y)"), S(text), TRUE).keyless for text in shapes} == shapes


class TestInstanceWork:
    """A stored sentence that seeds conjunct i of a rule is not probed
    for conjunct i again: only the other conjuncts go to the store."""

    CHAIN = "".join(f"(rule (p{k} $x) (p{k + 1} $x) (0.9 . 0))" for k in range(5))

    @pytest.fixture
    def probes(self, monkeypatch):
        """The patterns `KnowledgeBase._match` is called with, in order."""
        patterns = []
        match = KnowledgeBase._match

        def counting(kb, pattern, variables):
            patterns.append(pattern)
            return match(kb, pattern, variables)

        monkeypatch.setattr(KnowledgeBase, "_match", counting)
        return patterns

    def test_a_single_conjunct_chain_probes_nothing(self, probes):
        kb = KnowledgeBase()
        kb.load_text(self.CHAIN)
        kb.stash(S("(p0 k)"), TruthValue(0.5, 0.0))
        assert tv_close(kb.retrieve(S("(p5 k)")), TruthValue(0.5 * 0.9**5, 0.0))
        assert probes == []

    def test_a_join_probes_only_the_other_conjunct(self, probes):
        kb = KnowledgeBase()
        kb.load_text(self.CHAIN + "(rule (and (p5 $x) (q $x)) (j $x) (0.8 . 0)) (fact (q k) (0.5 . 0))")
        probes.clear()
        kb.stash(S("(p0 k)"), TruthValue(0.5, 0.0))  # (p5 k) seeds one instance
        assert probes == [S("(q k)")]
        probes.clear()
        kb.stash(S("(q m)"), TruthValue(0.5, 0.0))  # seeds one, with no (p5 m) stored
        kb.stash(S("(q k)"), TruthValue(0.5, 0.0))  # seeds one, with (p5 k) stored
        assert probes == [S("(p5 m)"), S("(p5 k)")]
        assert kb.retrieve(S("(j m)")) == VACUOUS
        assert tv_close(kb.retrieve(S("(j k)")), TruthValue(0.5 * 0.9**5 * 0.75 * 0.8, 0.0))

    def test_rules_touching_is_kept_until_a_rule_is_added(self):
        kb = KnowledgeBase()
        kb.load_text(self.CHAIN)
        touching = kb.rules_touching(S("(p1 k)"))
        assert touching == (kb.rules[1],)
        assert kb.rules_touching(S("(p1 m)")) is touching
        kb.add_rule(S("(and (q $x) (p1 $x))"), S("(j $x)"), TruthValue(0.5, 0.0))
        assert kb.rules_touching(S("(p1 k)")) == (kb.rules[1], kb.rules[5])


class TestCyclesAndDepth:
    def test_cyclic_rules_hit_depth_bound(self):
        kb = KnowledgeBase(config=EngineConfig(max_chain_depth=8))
        kb.add_rule(S("(p $x)"), S("(q $x)"), TruthValue(0.95, 0.0))
        kb.add_rule(S("(q $x)"), S("(p $x)"), TruthValue(0.95, 0.0))
        with pytest.raises(DepthExceeded):
            kb.stash(S("(p a)"), TruthValue(0.9, 0.0))

    @pytest.mark.parametrize("write", ["stash", "set_truth", "add_rule"])
    def test_chain_deeper_than_the_interpreter_stack_runs_to_its_bound(self, write):
        # the chain runs off the batch's queue, not by recursion, so
        # max_chain_depth is its only bound: (pN k) is reached at depth N
        levels = 3 * sys.getrecursionlimit()
        last = S(f"(p{levels} k)")
        for bound in (levels + 1, levels):
            kb = KnowledgeBase(config=EngineConfig(max_chain_depth=bound))
            for level in range(levels - 1, 0, -1):
                kb.add_rule(S(f"(p{level} $x)"), S(f"(p{level + 1} $x)"), TruthValue(0.9, 0.0))
            first = S("(p0 $x)"), S("(p1 $x)"), TruthValue(0.9, 0.0)
            if write == "add_rule":
                kb.stash(S("(p0 k)"), TruthValue(0.5, 0.0))  # a new rule fires on what is stored
                args = first
            else:
                kb.add_rule(*first)
                args = S("(p0 k)"), TruthValue(0.5, 0.0)
            if bound > levels:
                getattr(kb, write)(*args)
                assert kb.retrieve(last).belief == pytest.approx(0.5 * 0.9**levels, rel=1e-9)
            else:
                with pytest.raises(DepthExceeded, match=rf"^chain depth {levels} exceeded at \(p{levels} k\)$"):
                    getattr(kb, write)(*args)

    def test_cycles_settle_at_their_forward_limit(self):
        # Forward chaining feeds a cycle's output back in as fresh
        # evidence, so values climb to the fixed point of that feedback.
        one = "(rule (p $x) (q $x) (1 . 0)) (rule (q $x) (p $x) (1 . 0)) (fact (p k) (0.5 . 0))"
        with pytest.raises(DepthExceeded):
            KnowledgeBase().load_text(one)
        kb = KnowledgeBase()
        kb.load_text("(setvar max-chain-depth 1000) " + one)
        assert kb.retrieve(S("(p k)")) == kb.retrieve(S("(q k)")) == TRUE

        nine = "(rule (a $x) (b $x) (0.9 . 0)) (rule (b $x) (a $x) (0.9 . 0)) (fact (a k) (0.5 . 0))"
        with pytest.raises(DepthExceeded):
            KnowledgeBase().load_text("(setvar max-chain-depth 80) " + nine)
        kb = KnowledgeBase()
        kb.load_text("(setvar max-chain-depth 81) " + nine)
        # a = 0.5 (+) 0.9 b and b = 0.9 a, so a = 0.5 / 0.595
        assert tv_close(kb.retrieve(S("(a k)")), TruthValue(0.5 / 0.595, 0.0), tol=1e-12)
        assert tv_close(kb.retrieve(S("(b k)")), TruthValue(0.45 / 0.595, 0.0), tol=1e-12)

    def test_two_loops_through_one_sentence_settle_in_waves(self):
        # a -> b -> a and a -> c -> a: each wave of the component is one
        # step deeper than the last, however many loops the sentence is on
        text = (
            "(rule (a $x) (b $x) (0.9 . 0)) (rule (b $x) (a $x) (0.9 . 0)) "
            "(rule (a $x) (c $x) (0.9 . 0)) (rule (c $x) (a $x) (0.9 . 0)) (fact (a k) (0.5 . 0))"
        )
        with pytest.raises(DepthExceeded):
            KnowledgeBase().load_text(text)
        kb = KnowledgeBase()
        kb.load_text("(setvar max-chain-depth 100) " + text)
        # a = 0.5 (+) 0.9 b (+) 0.9 c and b = c = 0.9 a
        assert tv_close(kb.retrieve(S("(a k)")), TruthValue(0.978487390333882, 0.0), tol=1e-12)
        assert tv_close(kb.retrieve(S("(b k)")), TruthValue(0.8806386513004938, 0.0), tol=1e-12)

    def test_each_wave_of_a_ring_fires_only_the_rules_reading_its_seeds(self, monkeypatch):
        # the first wave included: one stash into a 100-rule ring makes
        # one `_seeded` call a wave, not one for every rule of the ring
        calls = []
        seeded = pkb.forward._seeded
        monkeypatch.setattr(pkb.forward, "_seeded", lambda kb, rule, seeds: calls.append(rule.id) or seeded(kb, rule, seeds))
        kb = KnowledgeBase(config=EngineConfig(inference_cutoff=0.01))
        kb.load_text("".join(f"(rule (p{i} $x) (p{(i + 1) % 100} $x) (0.9 . 0))" for i in range(100)))
        assert calls == []
        kb.stash(S("(p0 k)"), TruthValue(0.5, 0.0))
        # 0.5 * 0.9**37 is below the cutoff, so the 38th rule changes nothing
        assert calls == [f"r{i}" for i in range(1, 39)]
        assert len(kb.facts()) == len(kb._ledger) + 1 == 38

    def test_cutoff_contracts_cycles(self):
        kb = KnowledgeBase(config=EngineConfig(inference_cutoff=0.05, max_chain_depth=64))
        kb.add_rule(S("(p $x)"), S("(q $x)"), TruthValue(0.7, 0.0))
        kb.add_rule(S("(q $x)"), S("(p $x)"), TruthValue(0.7, 0.0))
        kb.stash(S("(p a)"), TruthValue(0.9, 0.0))
        assert kb.retrieve(S("(q a)")).belief > 0.5


class TestBatchLoad:
    @pytest.mark.parametrize("write", ["load", "stash", "set_truth", "add_rule", "load_one_fact"])
    @pytest.mark.parametrize("facts_first", [False, True], ids=["rules_first", "facts_first_rules_reversed"])
    def test_dag_load_fires_each_instance_once(self, facts_first, write):
        # a layer-i sentence lies on 2 ** i paths from the facts, yet each
        # writer applies each instance it reaches once, on final values
        facts, rules = layered_dag_kb(2, 12)
        lines = statement_lines(facts, rules)
        if facts_first:
            lines = lines[: len(facts)] + lines[len(facts) :][::-1]
        else:
            lines = lines[len(facts) :] + lines[: len(facts)]
        events = []
        kb = KnowledgeBase(trace=events.append)
        base = dict(facts)
        first, pair = S("(l0_0 k)"), TruthValue(0.3, 0.1)
        if write == "add_rule":  # (l0_0 $x) -> (l1_0 $x) comes last
            kb.load_text("\n".join(line for line in lines if line != statement_lines({}, rules[:1])[0]))
            events.clear()
            kb.add_rule(*rules[0])
        else:
            kb.load_text("\n".join(lines))
            if write != "load":
                events.clear()
                if write == "stash":
                    kb.stash(first, pair)
                elif write == "set_truth":
                    kb.set_truth(first, pair)
                else:
                    kb.load_text("(fact (l0_0 k) (0.3 . 0.1))")
                base[first] = pair if write == "set_truth" else combine(base[first], pair)
        # a RETRACT comes before the FIRE of the same instance
        applied = [line.split(" contrib=")[0].split(" ", 1)[1] for line in events if not line.startswith("RETRACT")]
        assert len(applied) == len(set(applied)) <= 48
        if write == "load":
            assert [line.split()[0] for line in events] == ["FIRE"] * 48
        expected = oracle_bottom_up(
            {sentence: (tv.belief, tv.disbelief) for sentence, tv in base.items()},
            ground_var_rules(rules, [S("k")]),
        )
        got = final_values(kb)
        assert set(got) == set(expected)
        for sentence, (belief, disbelief) in expected.items():
            assert tv_close(got[sentence], TruthValue(belief, disbelief), tol=1e-12)

    @pytest.mark.parametrize("write", ["stash", "load"])
    def test_a_sentence_no_rule_reads_queues_nothing(self, write, monkeypatch):
        facts, rules = layered_dag_kb(2, 12)
        events, queued = [], []
        kb = KnowledgeBase(trace=events.append)
        kb.load_text("\n".join(statement_lines(facts, rules)))
        events.clear()
        push = pkb.forward.heappush
        monkeypatch.setattr(pkb.forward, "heappush", lambda heap, item: queued.append(item) or push(heap, item))
        if write == "stash":
            kb.stash(S("(m0_0 k)"), TruthValue(0.5, 0.0))
        else:
            kb.load_text("(fact (m0_0 k) (0.5 . 0))")
        assert kb.retrieve(S("(m0_0 k)")) == TruthValue(0.5, 0.0)
        assert events == [] and queued == []
        kb.stash(S("(l12_0 k)"), TruthValue(0.5, 0.0))  # read by no rule either
        assert events == [] and queued == []
        kb.stash(S("(l11_0 k)"), TruthValue(0.5, 0.0))  # read by r45 and r46
        assert queued == [kb._component_numbers()[kb.rules[44]], kb._component_numbers()[kb.rules[45]]]

    def test_add_rule_builds_no_components_while_no_change_is_read(self, monkeypatch):
        # a new rule that no rule reads is in no cycle, so it fires alone,
        # and building a chain rule by rule stays linear
        builds = []
        rule_components = KnowledgeBase._rule_components

        def counting(kb):
            if kb._components[0] != len(kb.rules):
                builds.append(len(kb.rules))
            return rule_components(kb)

        monkeypatch.setattr(KnowledgeBase, "_rule_components", counting)
        levels = 2000
        last, value = S(f"(p{levels} k)"), 0.5 * 0.9**levels
        kb = KnowledgeBase(config=EngineConfig(max_chain_depth=levels + 1))
        kb.stash(S("(p0 k)"), TruthValue(0.5, 0.0))
        for level in range(levels):  # each rule fires on what the one before derived
            kb.add_rule(S(f"(p{level} $x)"), S(f"(p{level + 1} $x)"), TruthValue(0.9, 0.0))
        assert builds == []
        assert kb.retrieve(last).belief == pytest.approx(value, rel=1e-9)
        kb = KnowledgeBase(config=EngineConfig(max_chain_depth=levels + 1))
        for level in reversed(range(levels)):  # nothing is stored, so nothing fires
            kb.add_rule(S(f"(p{level} $x)"), S(f"(p{level + 1} $x)"), TruthValue(0.9, 0.0))
        assert builds == []
        kb.stash(S("(p0 k)"), TruthValue(0.5, 0.0))
        assert builds == [levels]
        assert kb.retrieve(last).belief == pytest.approx(value, rel=1e-9)

    def test_rule_components_come_in_topological_order(self):
        kb = KnowledgeBase()
        kb.load_text(
            "(rule (b $x) (c $x) (0.5 . 0)) (rule (a $x) (b $x) (0.5 . 0))"  # r2 feeds r1
            " (rule (c $x) (d $x) (0.5 . 0)) (rule (d $x) (c $x) (0.5 . 0))"  # a 2-cycle fed by r1
            " (rule (p a) (p b) (0.5 . 0))"  # feeds itself
        )
        assert kb._rule_components() == [([1], False), ([0], False), ([2, 3], True), ([4], True)]

    def test_variable_headed_terms_meet_only_their_arity(self):
        # ($p $x) has arity 2, so it cannot feed its own premise (isa $p $x)
        # of arity 3, and ($p a) cannot match (foo a b)
        kb = KnowledgeBase()
        kb.load_text("(rule (isa $p $x) ($p $x) (0.8 . 0))")
        assert kb._rule_components() == [([0], False)]
        kb = KnowledgeBase()
        kb.load_text("(rule ($p a) (seen $p) (0.5 . 0))")
        assert kb.rules_touching(S("(foo a b)")) == ()
        assert kb.rules_touching(S("(foo a)")) == (kb.rules[0],)

    def test_second_load_equals_one_load(self):
        # the rules of the first load fire again only on what the second
        # changed, so no instance is applied twice and nothing is skipped
        rng = random.Random(52010)
        for _ in range(40):
            facts, rules = random_var_kb(rng, levels=4)
            lines = rng.sample(statement_lines(facts, rules), len(facts) + len(rules))
            split = rng.randrange(len(lines) + 1)
            whole = KnowledgeBase()
            whole.load_text("\n".join(lines))
            events = []
            kb = KnowledgeBase(trace=events.append)
            kb.load_text("\n".join(lines[:split]))
            kb.load_text("\n".join(lines[split:]))
            assert_kb_equal(kb, whole, tol=1e-12)
            assert not [line for line in events if line.startswith("SKIP")]

    def test_error_while_reading_fires_what_was_read(self):
        kb = KnowledgeBase()
        with pytest.raises(ValueError, match="not bound by the premise"):
            kb.load_text("(rule (p $x) (q $x) (0.5 . 0)) (fact (p a) (1 . 0)) (rule (p $x) (r $y) (1 . 0))")
        assert [rule.id for rule in kb.rules] == ["r1"]
        assert kb.retrieve(S("(q a)")) == TruthValue(0.5, 0.0)


class TestFirstUseCompilation:
    @pytest.fixture
    def compiled(self, monkeypatch):
        """The ids of the rules compiled, in the order first compiled."""
        ids = {}
        compile_rule = Rule.compile

        def recording(rule):
            ids.setdefault(rule.id)
            compile_rule(rule)

        monkeypatch.setattr(Rule, "compile", recording)
        return ids

    RULES = "(rule (p $x) (q $x) (0.5 . 0)) (rule (s $x) (t $x) (0.5 . 0))"

    def test_loading_compiles_no_rule_without_a_stored_instance(self, compiled):
        kb = KnowledgeBase()
        kb.load_text(self.RULES + " (fact (p a) (1 . 0))")
        assert list(compiled) == ["r1"]
        assert kb.retrieve(S("(q a)")) == TruthValue(0.5, 0.0)

    def test_a_write_compiles_the_rules_it_touches(self, compiled):
        kb = KnowledgeBase()
        kb.load_text(self.RULES)
        assert not compiled
        kb.stash(S("(p a)"), TRUE)
        assert list(compiled) == ["r1"]
        assert kb.retrieve(S("(q a)")) == TruthValue(0.5, 0.0)

    def test_a_later_load_compiles_the_older_rules_it_seeds(self, compiled):
        kb = KnowledgeBase()
        kb.load_text(self.RULES)
        kb.load_text("(fact (s a) (1 . 0)) (rule (q $x) (v $x) (0.5 . 0))")
        assert list(compiled) == ["r2"]
        assert kb.retrieve(S("(t a)")) == TruthValue(0.5, 0.0)

    @pytest.mark.parametrize("goal", ["(q a)", "(q $y)"])
    def test_prove_compiles_the_rules_concluding_its_goal(self, compiled, goal):
        kb = KnowledgeBase()
        kb.load_text(self.RULES)
        assert prove(kb, S(goal)) == []
        assert list(compiled) == ["r1"]

    def test_add_rule_compiles_a_rule_with_stored_instances(self, compiled):
        kb = KnowledgeBase()
        kb.stash(S("(p a)"), TRUE)
        kb.add_rule(S("(s $x)"), S("(t $x)"), TRUE)
        kb.add_rule(S("(and (p $x) (s $x))"), S("(t $x)"), TRUE)
        assert not compiled
        kb.add_rule(S("(p $x)"), S("(q $x)"), TRUE)
        assert list(compiled) == ["r3"]
        assert kb.retrieve(S("(q a)")) == TRUE

    def test_a_rule_below_the_cutoff_stays_uncompiled(self, compiled):
        kb = KnowledgeBase()
        kb.load_text("(setvar inference-cutoff 0.3) (rule (p $x) (q $x) (0.2 . 0)) (rule (r $x) (q $x) (0.9 . 0))")
        prove(kb, S("(q a)"))
        assert list(compiled) == ["r2"]

    def test_load_compiles_only_the_rules_that_fire(self, monkeypatch):
        # a backward-join-shaped text: 200 rules that nothing seeds, a
        # join and two rules over it
        calls = []
        for name in ("compile_matcher", "compile_builder"):
            original = getattr(pkb.kb, name)
            monkeypatch.setattr(pkb.kb, name, lambda *args, f=original, **kw: calls.append(args[0]) or f(*args, **kw))
        lines = [f"(rule (u{i} $x) (t{i} $x) (0.9 . 0))" for i in range(200)]
        lines += [
            "(rule (and (p $x) (q $x)) (r $x) (0.9 . 0))",
            "(rule (r $x) (s $x) (0.8 . 0))",
            "(rule (and (w $x) (p $x)) (v $x) (0.7 . 0))",
        ]
        lines += [f"(fact ({p} k{i}) (0.6 . 0.1))" for i in range(20) for p in "pq"]
        lines += [f"(fact (w k{i}) (0.5 . 0))" for i in range(0, 20, 10)]
        events = []
        kb = KnowledgeBase(trace=events.append)
        kb.load_text("\n".join(lines))
        fired = {line.split()[1] for line in events if line.startswith("FIRE")}
        assert fired == {"rule=r201", "rule=r202", "rule=r203"}
        # a matcher and a builder for each conjunct and for the consequence
        assert len(calls) == 2 * (3 + 2 + 3)

    def test_equals_compiling_every_rule_when_made(self, monkeypatch):
        def eager(*args):
            rule = make_rule(*args)
            rule.compile()
            return rule

        def run(lines, writes, goals):
            events = []
            kb = KnowledgeBase(trace=events.append)
            kb.load_text("\n".join(lines))
            for method, sentence, tv in writes:
                getattr(kb, method)(sentence, tv)
            answers = [prove(kb, goal) for goal in goals]
            store = [(s, r.base.belief.hex(), r.base.disbelief.hex(), r.tv.belief.hex(), r.tv.disbelief.hex())
                     for s, r in kb.facts()]
            return events, answers, store

        rng = random.Random(28028)
        for _ in range(40):
            facts, rules = random_var_kb(rng, levels=4)
            lines = rng.sample(statement_lines(facts, rules), len(facts) + len(rules))
            atoms = [*facts, *(Compound((s.elements[0], c)) for s in facts for c in CONSTANTS)]
            writes = [(rng.choice(["stash", "set_truth"]), rng.choice(atoms), random_tv(rng)) for _ in range(8)]
            goals = [consequence for _premise, consequence, _tv in rules]
            goals += [Compound((goal.elements[0], rng.choice(CONSTANTS))) for goal in goals]
            lazy = run(lines, writes, goals)
            with monkeypatch.context() as patch:
                patch.setattr(pkb.kb, "make_rule", eager)
                assert run(lines, writes, goals) == lazy


class TestTrace:
    def test_fire_line_format(self):
        events = []
        kb = KnowledgeBase(trace=events.append)
        kb.add_rule(S("(foo $x)"), S("(goo $x)"), TruthValue(0.7, 0.0))
        kb.stash(S("(foo fred)"), TRUE)
        assert "FIRE rule=r1 bind={$x=fred} contrib=(0.7 . 0)" in events

    @pytest.mark.parametrize("write", ["load", "stash"])
    def test_evidence_that_moves_no_value_fires_nothing(self, write):
        events = []
        kb = KnowledgeBase(trace=events.append)
        kb.load_text("(rule (p $x) (q $x) (0.5 . 0)) (fact (p a) (1 . 0))")
        events.clear()
        if write == "load":
            kb.load_text("(fact (p a) (0.5 . 0))")
        else:
            kb.stash(S("(p a)"), TruthValue(0.5, 0.0))
        assert events == []
        assert kb.retrieve(S("(p a)")) == TRUE

    def test_retract_then_fire_on_update(self):
        events = []
        kb = KnowledgeBase(trace=events.append)
        kb.add_rule(S("(foo $x)"), S("(goo $x)"), TruthValue(0.7, 0.0))
        kb.stash(S("(foo fred)"), TRUE)
        events.clear()
        kb.set_truth(S("(foo fred)"), TruthValue(0.5, 0.0))
        kinds = [line.split()[0] for line in events]
        assert kinds == ["RETRACT", "FIRE"]
