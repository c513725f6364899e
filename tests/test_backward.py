"""Backward chaining: accumulation, agenda, thresholds, truep dispatch."""

import random

import pytest

import pkb.backward
from pkb.backward import prove, truep
from pkb.errors import DepthExceeded
from pkb.kb import KnowledgeBase
from pkb.sexpr import parse_sentence as S
from pkb.terms import sym, var
from pkb.truth import TRUE, EngineConfig, TruthValue, combine

from kbgen import build_kb, ground_rules_to_terms, random_ground_kb
from oracles import oracle_bottom_up, oracle_combine

TOL = 1e-9


def tv_close(tv, pair, tol=TOL):
    return abs(tv.belief - pair[0]) <= tol and abs(tv.disbelief - pair[1]) <= tol


def prove_one(kb, text, **kwargs):
    answers = prove(kb, S(text), **kwargs)
    assert len(answers) == 1, answers
    return answers[0][1]


@pytest.fixture
def tweety_kb():
    kb = KnowledgeBase()
    kb.load_text(
        """
        (rule (bird $x) (flies $x) (0.7 . 0.0))
        (rule (ostrich $x) (flies $x) (0 . 1))
        (fact (bird Tweety) (1 . 0))
        (fact (ostrich Tweety) (1 . 0))
        """
    )
    return kb


class TestProve:
    def test_tweety_accumulates_both_rules(self, tweety_kb):
        got = prove_one(tweety_kb, "(flies Tweety)")
        assert tv_close(got, (0.0, 1.0))

    def test_negated_goal(self, tweety_kb):
        got = prove_one(tweety_kb, "(not (flies Tweety))")
        assert tv_close(got, (1.0, 0.0))

    def test_crook_via_ungrounded_subgoal(self):
        kb = KnowledgeBase()
        kb.load_text(
            """
            (rule (steals $person $object) (crook $person) (1 . 0))
            (fact (steals Nixon funds) (1 . 0))
            """
        )
        assert prove_one(kb, "(crook Nixon)") == TRUE

    def test_extra_premise_variable_combines_per_instance(self):
        kb = KnowledgeBase()
        kb.load_text(
            """
            (rule (steals $person $object) (crook $person) (0.5 . 0))
            (fact (steals Nixon funds) (1 . 0))
            (fact (steals Nixon votes) (1 . 0))
            """
        )
        expected = combine(TruthValue(0.5, 0.0), TruthValue(0.5, 0.0))
        got = prove_one(kb, "(crook Nixon)")
        assert tv_close(got, (expected.belief, expected.disbelief))

    def test_fact_and_rule_evidence_pool(self):
        kb = KnowledgeBase()
        kb.load_text(
            """
            (rule (p $x) (q $x) (0.6 . 0))
            (fact (p a) (1 . 0))
            (fact (q a) (0.3 . 0))
            """
        )
        expected = oracle_combine((0.3, 0.0), (0.6, 0.0))
        assert tv_close(prove_one(kb, "(q a)"), expected)

    def test_variable_goal_proves_per_binding(self):
        kb = KnowledgeBase()
        kb.load_text(
            """
            (rule (bird $x) (flies $x) (0.7 . 0.0))
            (rule (ostrich $x) (flies $x) (0 . 1))
            (fact (bird Tweety) (1 . 0))
            (fact (ostrich Tweety) (1 . 0))
            (fact (bird Robin) (1 . 0))
            """
        )
        answers = {theta[var("x")]: tv for theta, tv in prove(kb, S("(flies $x)"))}
        assert set(answers) == {sym("Tweety"), sym("Robin")}
        for constant, tv in answers.items():
            separately = prove_one(kb, f"(flies {constant})")
            assert tv_close(separately, (tv.belief, tv.disbelief))

    def test_conjunctive_premise_threads_bindings(self):
        kb = KnowledgeBase()
        kb.load_text(
            """
            (rule (and (parent $x $y) (parent $y $z)) (grandparent $x $z) (1 . 0))
            (fact (parent alice bob) (1 . 0))
            (fact (parent bob carol) (1 . 0))
            (fact (parent dave erin) (1 . 0))
            """
        )
        answers = prove(kb, S("(grandparent alice $z)"))
        assert len(answers) == 1
        assert answers[0][0][var("z")] == sym("carol")

    def test_cycle_terminates_and_contributes_vacuously(self):
        kb = KnowledgeBase()
        kb.add_rule(S("(q $x)"), S("(p $x)"), TruthValue(0.8, 0.0))
        kb.add_rule(S("(p $x)"), S("(q $x)"), TruthValue(0.8, 0.0))
        kb.stash(S("(p a)"), TruthValue(0.0, 0.5))
        # Disbelief does not propagate, and the loop back into an
        # ancestor goal adds nothing, so (q a) stays unprovable.
        assert prove(kb, S("(q a)")) == []
        assert tv_close(prove_one(kb, "(p a)"), (0.0, 0.5))

    def test_depth_bound(self):
        kb = KnowledgeBase(config=EngineConfig(max_chain_depth=5))
        for level in range(10):
            kb.add_rule(S(f"(p{level} $x)"), S(f"(p{level + 1} $x)"), TruthValue(0.9, 0.0))
        with pytest.raises(DepthExceeded):
            prove(kb, S("(p10 a)"))


class TestThresholds:
    def test_weak_rule_never_attempted(self):
        events = []
        kb = KnowledgeBase(config=EngineConfig(inference_cutoff=0.2))
        kb.load_text(
            """
            (rule (politician $p) (crook $p) (0.1 . 0.0))
            (fact (politician Jones) (1 . 0))
            (fact (crook Jones) (0.4 . 0))
            """
        )
        answers = prove(kb, S("(crook Jones)"), trace=events.append)
        assert len(answers) == 1
        assert tv_close(answers[0][1], (0.4, 0.0))  # fact evidence only
        assert not any("src=rule" in line for line in events)

    def test_accept_as_true_stops_early(self):
        events = []
        kb = KnowledgeBase(config=EngineConfig(accept_as_true=0.9))
        kb.add_rule(S("(strong $x)"), S("(goal $x)"), TruthValue(0.95, 0.0))
        kb.add_rule(S("(weak $x)"), S("(goal $x)"), TruthValue(0.5, 0.0))
        kb.stash(S("(strong m)"), TRUE)
        kb.stash(S("(weak m)"), TRUE)
        answers = prove(kb, S("(goal m)"), trace=events.append)
        rule_tasks = [
            line
            for line in events
            if line.startswith("TASK goal=(goal m)") and "src=rule" in line
        ]
        accepts = [line for line in events if line.startswith("ACCEPT goal=(goal m)")]
        assert len(rule_tasks) == 1
        assert accepts and "tag=t" in accepts[0]
        assert tv_close(answers[0][1], (0.95, 0.0))

    def test_accepted_value_meets_threshold(self):
        events = []
        kb = KnowledgeBase(config=EngineConfig(accept_as_true=0.8))
        kb.stash(S("(f a)"), TruthValue(0.85, 0.0))
        prove(kb, S("(f a)"), trace=events.append)
        accepts = [line for line in events if line.startswith("ACCEPT")]
        assert len(accepts) == 1
        value = float(accepts[0].split("at=")[1])
        assert value >= 0.8

    def test_disconfirmation_also_accepts(self):
        events = []
        kb = KnowledgeBase(config=EngineConfig(accept_as_true=0.9))
        kb.add_rule(S("(a $x)"), S("(goal $x)"), TruthValue(0.0, 0.95))
        kb.add_rule(S("(b $x)"), S("(goal $x)"), TruthValue(0.5, 0.0))
        kb.stash(S("(a m)"), TRUE)
        kb.stash(S("(b m)"), TRUE)
        prove(kb, S("(goal m)"), trace=events.append)
        accepts = [line for line in events if line.startswith("ACCEPT goal=(goal m)")]
        assert accepts and "tag=not" in accepts[0]


class TestLiveAnswerTable:
    def test_interleaved_contributions_not_double_counted(self):
        # Two rules feed one goal. With the answer table read at
        # execution time the result is the exact pool of both
        # contributions; an engine combining into a snapshot taken at
        # enqueue time would lose or double the first one.
        kb = KnowledgeBase()
        kb.add_rule(S("(a $x)"), S("(goal $x)"), TruthValue(0.6, 0.1))
        kb.add_rule(S("(b $x)"), S("(goal $x)"), TruthValue(0.3, 0.2))
        kb.stash(S("(a m)"), TRUE)
        kb.stash(S("(b m)"), TRUE)
        got = prove_one(kb, "(goal m)")
        expected = oracle_combine((0.6, 0.1), (0.3, 0.2))
        assert tv_close(got, expected)


def _fifo_priority(kind, rule=None):
    return 0.0


def _reversed_priority(kind, rule=None):
    if kind == "fact":
        return -1.0
    return -rule.rule_tv.mass


def _unrelated_rules(n):
    return [(S(f"(u{i} $x)"), S(f"(t{i} $x)"), TruthValue(0.5, 0.1)) for i in range(n)]


class TestOracleEquivalence:
    @staticmethod
    def check_random_kbs(rng, rounds, n_unrelated=0):
        priorities = [None, _fifo_priority, _reversed_priority]
        for _ in range(rounds):
            facts, rules = random_ground_kb(rng)
            rule_terms = ground_rules_to_terms(rules)
            for extra in _unrelated_rules(n_unrelated):
                rule_terms.insert(rng.randrange(len(rule_terms) + 1), extra)
            kb = build_kb(facts, rule_terms)
            base = {s: (tv.belief, tv.disbelief) for s, tv in facts.items()}
            oracle_rules = [
                (conjuncts, cons, (tv.belief, tv.disbelief)) for conjuncts, cons, tv in rules
            ]
            expected = oracle_bottom_up(base, oracle_rules)
            goals = set(expected) | set(base)
            for conjuncts, cons, _tv in oracle_rules:
                goals.add(cons)
            for goal in goals:
                want = expected.get(goal, (0.0, 0.0))
                for priority_fn in priorities:
                    answers = prove(kb, goal, priority_fn=priority_fn)
                    if want == (0.0, 0.0):
                        assert answers == []
                    else:
                        assert len(answers) == 1
                        assert tv_close(answers[0][1], want)

    def test_matches_bottom_up_oracle_under_three_priorities(self):
        self.check_random_kbs(random.Random(90210), 35)

    def test_matches_oracle_beside_unrelated_rules(self):
        self.check_random_kbs(random.Random(4242), 20, n_unrelated=20)


class TestConsequenceIndex:
    def test_variable_headed_consequence_still_contributes(self):
        events = []
        kb = KnowledgeBase()
        kb.load_text(
            """
            (rule (sparrow $x) (bird $x) (0.5 . 0))
            (rule (isa $p $x) ($p $x) (0.8 . 0))
            (fact (sparrow tweety) (1 . 0))
            (fact (isa bird tweety) (1 . 0))
            """
        )
        got = prove_one(kb, "(bird tweety)", trace=events.append)
        assert tv_close(got, oracle_combine((0.8, 0.0), (0.5, 0.0)))
        assert "TASK goal=(bird tweety) src=rule:r2 acc=(0.8 . 0)" in events

    def test_variable_headed_goal_consults_every_rule(self):
        kb = KnowledgeBase()
        kb.load_text(
            """
            (rule (bird $x) (flies $x) (0.7 . 0))
            (rule (penguin $x) (swims $x) (0.6 . 0))
            (fact (bird tweety) (1 . 0))
            (fact (penguin tweety) (1 . 0))
            """
        )
        goal = S("($p tweety)")
        assert kb.rules_concluding(goal) == kb.rules
        answers = {theta[var("p")].name: tv for theta, tv in prove(kb, goal)}
        assert set(answers) == {"bird", "penguin", "flies", "swims"}
        assert tv_close(answers["flies"], (0.7, 0.0))
        assert tv_close(answers["swims"], (0.6, 0.0))

    def test_equal_mass_rules_run_in_rule_order(self):
        events = []
        kb = KnowledgeBase()
        kb.load_text(
            """
            (rule (a $x) (goal $x) (0.5 . 0))
            (rule (u $x) (t $x) (0.5 . 0))
            (rule (isa $p $x) ($p $x) (0.5 . 0))
            (rule (b $x) (goal $x) (0.5 . 0))
            (fact (a m) (1 . 0))
            (fact (b m) (1 . 0))
            """
        )
        prove(kb, S("(goal m)"), trace=events.append)
        sources = [
            line.split()[3] for line in events if line.startswith("TASK goal=(goal m)")
        ]
        assert sources == ["src=fact", "src=rule:r1", "src=rule:r3", "src=rule:r4"]

    def test_unrelated_rules_add_no_work(self, monkeypatch):
        calls = []
        original = pkb.backward.rename_apart

        def counting(terms):
            calls.append(terms)
            return original(terms)

        monkeypatch.setattr(pkb.backward, "rename_apart", counting)

        def run(n_unrelated):
            kb = KnowledgeBase()
            for premise, consequence, tv in _unrelated_rules(n_unrelated):
                kb.add_rule(premise, consequence, tv)
            kb.add_rule(S("(and (p $x) (q $x))"), S("(r $x)"), TruthValue(0.9, 0.0))
            kb.stash(S("(p a)"), TruthValue(0.8, 0.1))
            kb.stash(S("(q a)"), TruthValue(0.7, 0.2))
            calls.clear()
            answers = prove(kb, S("(r a)"))
            return answers, len(calls)

        bare, bare_calls = run(0)
        crowded, crowded_calls = run(100)
        assert bare_calls > 0
        assert crowded_calls == bare_calls
        assert crowded == bare


class TestTruep:
    def test_stored_certain_fact(self):
        kb = KnowledgeBase()
        kb.stash(S("(foo fred)"), TRUE)
        assert truep(kb, S("(foo fred)"), "t", 1.0) == [({}, 1.0)]

    def test_tweety_not_tag(self, tweety_kb):
        answers = truep(tweety_kb, S("(flies Tweety)"), "not", 0.9)
        assert len(answers) == 1
        assert answers[0][1] == pytest.approx(1.0, abs=TOL)

    def test_lookup_example(self):
        kb = KnowledgeBase()
        kb.stash(S("(foo fred)"), TruthValue(0.3, 0.2))
        kb.stash(S("(foo harry)"), TruthValue(0.7, 0.0))
        assert truep(kb, S("(foo $x)"), "t", 0.5) == [({var("x"): sym("harry")}, 0.7)]

    def test_dispatch_lookup_transparent(self):
        kb = KnowledgeBase()
        kb.add_control(S("(foo $x)"), "lookup")
        kb.stash(S("(foo fred)"), TruthValue(0.3, 0.2))
        assert truep(kb, S("(foo $x)"), "t", 0.2) == kb.lookup(S("(foo $x)"), "t", 0.2)

    def test_default_cascade_falls_back_to_chaining(self):
        # Forward firing is suppressed by a high cutoff, so the store
        # has no answer and the cascade must prove the goal backward.
        kb = KnowledgeBase(config=EngineConfig(inference_cutoff=0.99))
        kb.add_rule(S("(p $x)"), S("(q $x)"), TruthValue(0.8, 0.0))
        kb.stash(S("(p a)"), TRUE)
        assert kb.retrieve(S("(q a)")).is_vacuous()
        kb.config = EngineConfig(inference_cutoff=0.0)
        answers = truep(kb, S("(q a)"), "t", 0.5)
        assert len(answers) == 1
        assert answers[0][1] == pytest.approx(0.8, abs=TOL)

    def test_dispatch_resolution(self):
        kb = KnowledgeBase()
        kb.load_text(
            """
            (control q resolution)
            (clause (or p) (1 . 0))
            (clause (or (not p) q) (1 . 0))
            """
        )
        answers = truep(kb, S("q"), "t", 0.9)
        assert answers == [({}, 1.0)]

    def test_explicit_method_override(self, tweety_kb):
        by_lookup = truep(tweety_kb, S("(flies Tweety)"), "t", 0.0, method="lookup")
        by_chain = truep(tweety_kb, S("(flies Tweety)"), "t", 0.0, method="backward-chain")
        assert len(by_lookup) == len(by_chain) == 1
        assert by_lookup[0][1] == pytest.approx(by_chain[0][1], abs=TOL)

    def test_negation_wrapped_goal(self, tweety_kb):
        answers = truep(tweety_kb, S("(not (flies Tweety))"), "t", 0.9)
        assert len(answers) == 1
        assert answers[0][1] == pytest.approx(1.0, abs=TOL)
