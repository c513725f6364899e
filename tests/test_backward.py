"""Backward chaining: accumulation, agenda, thresholds, truep dispatch."""

import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pkb.backward
import pkb.kb
import pkb.resolution
from pkb.backward import prove, truep
from pkb.errors import DepthExceeded, PkbError, RangeError
from pkb.kb import KnowledgeBase
from pkb.sexpr import parse_sentence as S
from pkb.terms import format_bindings, sym, var
from pkb.truth import TAG_NAMES, TRUE, VACUOUS, EngineConfig, TruthValue, combine

from kbgen import CONSTANTS, build_kb, ground_rules_to_terms, random_cyclic_kb, random_ground_kb, random_tv, random_var_kb
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


JOIN = """
(rule (and (p $x) (q $y)) (r $x $y) (0.9 . 0))
(fact (p a) (1 . 0)) (fact (p (f a)) (1 . 0)) (fact (q a) (1 . 0)) (fact (q b) (1 . 0))
"""


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

    @pytest.mark.parametrize(
        "text, goal, twin, answers",
        [
            (  # the rule's subgoal (r $u $u) is a variant of the goal
                "(rule (r $y $x) (r $x $y) (1 . 0)) (fact (r a a) (0.5 . 0))",
                "(r $u $u)", "(r a a)", {"{$u=a}": 0.5},
            ),
            (  # through (t (f $u)) back to a variant of the goal
                "(setvar max-chain-depth 1000)"
                " (rule (t $x) (r $x) (1 . 0)) (rule (r $y) (t $y) (1 . 0)) (fact (r (f a)) (0.5 . 0))",
                "(r (f $u))", "(r (f a))", {"{$u=a}": 0.5},
            ),
            (
                "(setvar max-chain-depth 1000)"
                " (rule (r $y $x) (r $x $y) (1 . 0)) (fact (r (f a) b) (0.5 . 0)) (fact (r b (f a)) (0.5 . 0))",
                "(r (f $u) $w)", "(r (f a) b)", {"{$u=a, $w=b}": 0.75},
            ),
        ],
    )
    def test_open_goal_on_a_cycle_counts_its_evidence_once(self, text, goal, twin, answers):
        kb = KnowledgeBase()
        kb.load_text(text)
        got = {format_bindings(theta): tv.belief for theta, tv in prove(kb, S(goal))}
        assert got == pytest.approx(answers)
        assert [tv.belief for _theta, tv in prove(kb, S(twin))] == pytest.approx(list(answers.values()))

    @pytest.mark.parametrize(
        "text, goal, answers",
        [
            (  # a repeated goal variable
                JOIN, "(r $u $u)", {"{$u=a}": 0.9},
            ),
            (  # a goal compound with a variable inside
                JOIN, "(r (f $u) $w)", {"{$u=a, $w=a}": 0.9, "{$u=a, $w=b}": 0.9},
            ),
            (  # $x fixed by (p $x) makes the second subgoal (r a a), not (r $u a)
                "(rule (and (p $x) (r $y $x)) (r $x $y) (0.8 . 0)) (fact (p a) (1 . 0))"
                " (fact (r a a) (0.5 . 0)) (fact (r b a) (0.4 . 0))",
                "(r $u $u)", {"{$u=a}": 0.7},
            ),
            (  # the goal's $u meets (f $x) in the head, so $z's subgoal holds (f $x)
                "(fact (r (f a) (f a)) (0.5 . 0)) (fact (r (f b) (f a)) (0.4 . 0))"
                " (rule (and (r (f $x) $z) (p $x)) (r $z (f $x)) (0.8 . 0)) (fact (p a) (1 . 0))",
                "(r $u $u)", {"{$u=(f a)}": 0.7},
            ),
            (  # (r (f $x) $z) meets the head as (r (f $x) (f $x2)), no variant of an ancestor
                "(fact (r (f a) (f a)) (0.5 . 0)) (fact (r (f b) (f a)) (0.4 . 0))"
                " (rule (and (r (f $x) $z) (p $x)) (r $z (f $x)) (0.8 . 0)) (fact (p a) (1 . 0))",
                "(r $u $w)", {"{$u=(f a), $w=(f a)}": 0.78, "{$u=(f b), $w=(f a)}": 0.4},
            ),
        ],
    )
    def test_open_goal_structure_narrows_every_subgoal(self, text, goal, answers):
        kb = KnowledgeBase()
        kb.load_text(text)
        got = {format_bindings(theta): tv.belief for theta, tv in prove(kb, S(goal))}
        assert got == pytest.approx(answers)

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

    def test_chain_deeper_than_the_interpreter_stack_runs_to_its_bound(self):
        # goals are solved on an explicit stack, so max_chain_depth is its
        # only bound: (pN k) is solved at depth N
        levels = 3 * sys.getrecursionlimit()
        kb = KnowledgeBase()
        kb.stash(S(f"(p{levels} k)"), TruthValue(0.5, 0.0))
        for level in range(levels - 1, -1, -1):  # so that each rule fires one step
            kb.add_rule(S(f"(p{level + 1} $x)"), S(f"(p{level} $x)"), TruthValue(0.9, 0.0))
        kb.config = EngineConfig(max_chain_depth=levels)
        with pytest.raises(DepthExceeded, match=rf"^chain depth {levels} exceeded at \(p{levels} k\)$"):
            prove(kb, S("(p0 k)"))
        assert kb._goals[1] == {}  # no goal of the failed call completed
        kb.config = EngineConfig(max_chain_depth=levels + 1)
        [(theta, tv)] = prove(kb, S("(p0 k)"))
        assert theta == {} and tv.belief == pytest.approx(0.5 * 0.9**levels, rel=1e-9)
        assert len(kb._goals[1]) == levels + 1


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
        kb.trace = events.append
        answers = prove(kb, S("(crook Jones)"))
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
        kb.trace = events.append
        answers = prove(kb, S("(goal m)"))
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
        kb.trace = events.append
        prove(kb, S("(f a)"))
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
        kb.trace = events.append
        prove(kb, S("(goal m)"))
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
        kb.trace = events.append
        got = prove_one(kb, "(bird tweety)")
        assert tv_close(got, oracle_combine((0.8, 0.0), (0.5, 0.0)))
        assert "TASK goal=(bird tweety) src=rule:r2 acc=(0.8 . 0)" in events

    def test_variable_headed_consequence_concludes_a_subgoal(self):
        # no rule is filed under bird, but r2 in the variable-head bucket
        # concludes (bird jenny): it is proved through r2, not answered
        # from the store alone
        events = []
        kb = KnowledgeBase()
        kb.load_text(
            """
            (rule (and (bird $x) (small $x)) (wren $x) (0.9 . 0))
            (rule (isa $p $x) ($p $x) (0.8 . 0))
            (fact (isa bird jenny) (1 . 0))
            (fact (small jenny) (0.5 . 0))
            """
        )
        kb.trace = events.append
        assert prove(kb, S("(wren jenny)")) == [({}, TruthValue(0.4 * 0.9, 0.0))]
        assert events == [
            "TASK goal=(wren jenny) src=fact acc=(0 . 0)",
            "TASK goal=(bird jenny) src=fact acc=(0 . 0)",
            "ACCEPT goal=(isa bird jenny) tag=t at=1.0",
            "TASK goal=(isa bird jenny) src=fact acc=(1 . 0)",
            "TASK goal=(bird jenny) src=rule:r2 acc=(0.8 . 0)",
            "TASK goal=(small jenny) src=fact acc=(0.5 . 0)",
            "TASK goal=(isa small jenny) src=fact acc=(0 . 0)",
            "TASK goal=(small jenny) src=rule:r2 acc=(0.5 . 0)",
            "TASK goal=(wren jenny) src=rule:r1 acc=(0.36000000000000004 . 0)",
            "TASK goal=(isa wren jenny) src=fact acc=(0 . 0)",
            "TASK goal=(wren jenny) src=rule:r2 acc=(0.36000000000000004 . 0)",
        ]

    def test_variable_headed_consequence_of_another_arity_runs_no_frame(self, monkeypatch):
        # ($p $x) cannot unify with a 3-ary goal, so (isa bird jenny) is
        # answered in place; (bird jenny) still meets r1 on a frame
        frames = []
        run_agenda = pkb.backward._run_agenda

        def recording(goal, *args):
            frames.append(str(goal))
            return run_agenda(goal, *args)

        monkeypatch.setattr(pkb.backward, "_run_agenda", recording)
        kb = KnowledgeBase()
        kb.load_text("(rule (isa $p $x) ($p $x) (0.8 . 0)) (fact (isa bird jenny) (1 . 0))")
        assert kb.rules_concluding(S("(isa bird jenny)")) == []
        assert kb.rules_concluding(S("bird")) == []
        assert kb.rules_concluding(S("(bird jenny)")) == kb.rules
        assert prove(kb, S("(isa bird jenny)")) == [({}, TRUE)]
        assert frames == []
        assert prove(kb, S("(bird jenny)")) == [({}, TruthValue(0.8, 0.0))]
        assert frames == ["(bird jenny)"]

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
        kb.trace = events.append
        prove(kb, S("(goal m)"))
        sources = [
            line.split()[3] for line in events if line.startswith("TASK goal=(goal m)")
        ]
        assert sources == ["src=fact", "src=rule:r1", "src=rule:r3", "src=rule:r4"]

    def test_unrelated_rules_add_no_work(self, monkeypatch):
        calls = []
        original = KnowledgeBase.rules_concluding

        def counting(self, goal):
            candidates = list(original(self, goal))
            calls.extend(candidates)
            return candidates

        monkeypatch.setattr(KnowledgeBase, "rules_concluding", counting)

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

    @pytest.mark.parametrize("method", ["lookup", "backward-chain", "resolution", None])
    @pytest.mark.parametrize("goal", ["(flies Tweety)", "(not (flies Tweety))", "(swims Tweety)"])
    @pytest.mark.parametrize(
        "tag, cutoff, error, message",
        [
            ("t", 1.5, RangeError, "cutoff must be in"),
            ("not", -0.1, RangeError, "cutoff must be in"),
            ("t", float("nan"), RangeError, "cutoff must be in"),
            ("bogus", 0.5, ValueError, "unknown tag"),
        ],
    )
    def test_every_method_rejects_bad_cutoff_and_tag(self, tweety_kb, method, goal, tag, cutoff, error, message):
        # (swims Tweety) has no evidence at all, so the check cannot
        # ride on an answer being filtered.
        with pytest.raises(error, match=message):
            truep(tweety_kb, S(goal), tag, cutoff, method=method)

    @pytest.mark.parametrize("method", ["lookup", "backward-chain", "resolution", None])
    def test_bad_cutoff_is_rejected_before_any_method_runs(self, method):
        # Proving (d k) would exceed the depth bound; the cutoff error
        # must come first.
        kb = KnowledgeBase(config=EngineConfig(max_chain_depth=2))
        for premise, consequence in (("a", "b"), ("b", "c"), ("c", "d")):
            kb.add_rule(S(f"({premise} $x)"), S(f"({consequence} $x)"), TruthValue(0.9, 0.0))
        with pytest.raises(DepthExceeded):
            truep(kb, S("(d k)"), "t", 0.5, method="backward-chain")
        with pytest.raises(RangeError, match="cutoff must be in"):
            truep(kb, S("(d k)"), "t", 2.0, method=method)

    @pytest.mark.parametrize("method", ["lookup", "backward-chain", "resolution", None])
    @pytest.mark.parametrize("stored", ["", "(fact (foo a) (0.5 . 0))"])
    @pytest.mark.parametrize("goal", ["(zzz a)", "(zzz $x)", "(unknown (zzz $x))"])
    @pytest.mark.parametrize(
        "tag, cutoff, error",
        [("bogus", 0.5, ValueError), ("t", 1.5, RangeError), ("t", -0.1, RangeError), ("t", float("nan"), RangeError)],
    )
    def test_bad_tag_or_cutoff_is_rejected_before_any_work(self, monkeypatch, method, stored, goal, tag, cutoff, error):
        # On an empty KB, or on a goal with no index bucket, there is no
        # answer for the check to ride on; and no matcher, proof or
        # saturation may run before it.
        kb = KnowledgeBase()
        kb.load_text(stored)

        def ran(*_args):
            raise AssertionError("work done before the query was checked")

        for module, name in ((pkb.kb, "open_matcher"), (pkb.backward, "open_matcher"), (pkb.backward, "_solve"),
                             (pkb.resolution, "prove_by_resolution")):
            monkeypatch.setattr(module, name, ran)
        message = "unknown tag" if error is ValueError else "cutoff must be in"
        for query in (lambda: truep(kb, S(goal), tag, cutoff, method=method), lambda: kb.lookup(S(goal), tag, cutoff)):
            with pytest.raises(error, match=message) as raised:
                query()
            assert error is RangeError or not isinstance(raised.value, RangeError)

    def test_unknown_method_is_rejected_before_any_method_runs(self):
        # The default cascade would prove (d k) and exceed the depth
        # bound; the method error must come first.
        kb = KnowledgeBase(config=EngineConfig(max_chain_depth=2))
        for premise, consequence in (("a", "b"), ("b", "c"), ("c", "d")):
            kb.add_rule(S(f"({premise} $x)"), S(f"({consequence} $x)"), TruthValue(0.9, 0.0))
        with pytest.raises(ValueError, match="unknown method 'bogus'; expected one of"):
            truep(kb, S("(d k)"), "t", 0.5, method="bogus")


CYCLE = """
(setvar max-chain-depth 1000)
(rule (a $x) (b $x) (0.9 . 0))
(rule (b $x) (a $x) (0.9 . 0))
(rule (and (a $x) (b $x)) (g $x) (1 . 0))
(rule (and (b $x) (a $x)) (h $x) (1 . 0))
(fact (a k) (0.5 . 0))
"""


# engine variable -> values the history-independence property sets
SETTINGS = {"inference-cutoff": [0.0, 0.2], "accept-as-true": [0.3, 0.6, 1.0], "max-chain-depth": [2, 3, 64]}


def _outcome(call, kb):
    """What ``call(kb)`` returned, or the type of the error it raised."""
    try:
        return call(kb)
    except PkbError as exc:
        return type(exc)


def _traced(call, kb):
    """``_outcome(call, kb)`` and the trace lines the call emitted."""
    lines = []
    kb.trace = lines.append
    try:
        return _outcome(call, kb), lines
    finally:
        kb.trace = None


class TestGoalTable:
    def test_tabled_goal_is_reused_until_a_fact_it_read_changes(self):
        events = []
        kb = KnowledgeBase()
        kb.load_text("(rule (and (p $x) (q $x)) (r $x) (0.9 . 0)) (fact (p a) (1 . 0)) (fact (q a) (0.5 . 0))")
        kb.trace = events.append
        first = prove(kb, S("(r a)"))
        assert events and prove(kb, S("(not (r a))")) == [({}, TruthValue(0.0, 0.45))]
        events.clear()
        assert prove(kb, S("(r a)")) == first
        assert events == []  # a reused result runs no task
        kb.stash(S("(q b)"), TRUE)  # read by no tabled goal
        assert prove(kb, S("(r a)")) == first and events == []
        kb.set_truth(S("(q a)"), TRUE)
        assert prove(kb, S("(r a)")) == [({}, TruthValue(0.9, 0.0))]
        assert events

    def test_depth_bound_holds_where_a_tabled_goal_is_reused(self):
        kb = KnowledgeBase()
        kb.load_text(
            "(rule (p4 $x) (p3 $x) (0.9 . 0)) (rule (p3 $x) (p2 $x) (0.9 . 0))"
            " (rule (p2 $x) (p1 $x) (0.9 . 0)) (fact (p4 k) (0.5 . 0)) (setvar max-chain-depth 3)"
        )
        assert prove_one(kb, "(p3 k)") == TruthValue(0.45, 0.0)
        # (p3 k) proved two deep from the top; under (p1 k) (p2 k) it
        # would reach (p4 k) at depth 3, as solving it afresh does
        with pytest.raises(DepthExceeded):
            prove(kb, S("(p1 k)"))

    def test_depth_bound_holds_for_a_goal_that_reused_a_shallower_result(self):
        kb = KnowledgeBase()
        kb.load_text(
            "(rule (y1 $x) (y $x) (0.9 . 0)) (rule (y $x) (x1 $x) (0.9 . 0)) (rule (x1 $x) (xx $x) (0.9 . 0))"
            " (rule (and (y $x) (xx $x)) (t $x) (1 . 0)) (fact (y1 k) (0.5 . 0)) (setvar max-chain-depth 3)"
        )
        assert prove(kb, S("(t k)")) != []
        # under (t k), (xx k) met (y k) three deep, already proved one deep;
        # asked alone it proves (y k) two deep and meets (y1 k) three deep,
        # past the bound
        with pytest.raises(DepthExceeded):
            prove(kb, S("(xx k)"))

    def test_filings_grow_linearly_on_a_chain(self):
        n = 50
        kb = KnowledgeBase(config=EngineConfig(max_chain_depth=n + 1))
        for level in range(n):
            kb.add_rule(S(f"(p{level} $x)"), S(f"(p{level + 1} $x)"), TruthValue(0.9, 0.0))
        kb.stash(S("(p0 k)"), TruthValue(0.5, 0.0))
        assert tv_close(prove_one(kb, f"(p{n} k)"), (0.5 * 0.9**n, 0.0))
        assert sum(len(filed) for filed in kb._goals[2].values()) <= 2 * n + 2

    def test_write_drops_an_entry_through_two_edges(self):
        events = []
        kb = KnowledgeBase()
        kb.load_text("(rule (q $x) (r $x) (0.5 . 0)) (rule (r $x) (s $x) (0.5 . 0)) (fact (q k) (0.8 . 0)) (fact (q j) (0.8 . 0))")
        kb.trace = events.append
        assert tv_close(prove_one(kb, "(s k)"), (0.2, 0.0))
        goals = {S("(s k)"), S("(r k)"), S("(q k)")}
        assert goals <= kb._goals[1].keys()
        kb.set_truth(S("(q j)"), TRUE)  # read by none of them
        events.clear()
        assert tv_close(prove_one(kb, "(s k)"), (0.2, 0.0)) and events == []
        kb.set_truth(S("(q k)"), TruthValue(0.4, 0.0))
        assert not goals & kb._goals[1].keys()
        for goal, belief in (("(q k)", 0.4), ("(r k)", 0.2), ("(s k)", 0.1)):
            events.clear()
            assert tv_close(prove_one(kb, goal), (belief, 0.0))
            assert any(line.startswith(f"TASK goal={goal}") for line in events)

    def test_reused_goal_keeps_what_it_visited_for_the_rest_of_the_call(self):
        text = (
            "(rule (v $x) (b $x) (0.9 . 0)) (rule (v $x) (y2 $x) (0.9 . 0)) (rule (y2 $x) (y $x) (0.9 . 0))"
            " (rule (and (b $x) (y $x)) (t $x) (1 . 0)) (fact (v k) (0.5 . 0)) (setvar max-chain-depth 3)"
        )
        fresh = KnowledgeBase()
        fresh.load_text(text)
        kb = KnowledgeBase()
        kb.load_text(text)
        prove(kb, S("(b k)"))
        # (v k), proved under (b k), is met again three deep under (y2 k):
        # solved in this call already, it is reused there, not re-proved
        assert prove(kb, S("(t k)")) == prove(fresh, S("(t k)")) != []

    def test_open_goal_gains_a_stashed_constant(self):
        kb = KnowledgeBase()
        kb.load_text("(rule (and (w $x) (p $x)) (v $x) (0.5 . 0)) (fact (w a) (1 . 0)) (fact (p a) (1 . 0)) (fact (p b) (1 . 0))")
        assert [theta[var("x")] for theta, _tv in prove(kb, S("(v $x)"))] == [sym("a")]
        kb.stash(S("(w b)"), TruthValue(0.8, 0.0))
        assert {theta[var("x")]: tv for theta, tv in prove(kb, S("(v $x)"))} == {
            sym("a"): TruthValue(0.5, 0.0),
            sym("b"): TruthValue(0.4, 0.0),
        }

    def test_new_rule_changes_a_tabled_answer(self, tweety_kb):
        assert prove_one(tweety_kb, "(flies Tweety)") == TruthValue(0.0, 1.0)
        assert prove(tweety_kb, S("(swims Tweety)")) == []
        tweety_kb.add_rule(S("(ostrich $x)"), S("(swims $x)"), TruthValue(0.3, 0.0))
        assert prove_one(tweety_kb, "(swims Tweety)") == TruthValue(0.3, 0.0)

    def test_config_change_drops_the_table(self):
        kb = KnowledgeBase()
        kb.load_text("(rule (p $x) (q $x) (0.5 . 0)) (fact (p a) (1 . 0)) (fact (q a) (0.4 . 0))")
        assert prove_one(kb, "(q a)") == TruthValue(0.7, 0.0)
        kb.config = kb.config.copy(accept_as_true=0.3)  # the fact alone is accepted
        assert prove_one(kb, "(q a)") == TruthValue(0.4, 0.0)
        kb.config = EngineConfig()
        assert prove_one(kb, "(q a)") == TruthValue(0.7, 0.0)

    def test_write_spares_an_entry_refiled_since_it_read_the_sentence(self):
        kb, fresh = KnowledgeBase(), KnowledgeBase()
        for each in (kb, fresh):
            each.load_text(
                "(rule (and (w $x) (p $x)) (v $x) (0.5 . 0)) (rule (v $y) (t k) (0.8 . 0)) (rule (t $x) (u $x) (1 . 0))"
                " (fact (w a) (1 . 0)) (fact (p a) (1 . 0)) (fact (p b) (1 . 0))"
            )
            if each is kb:
                prove(kb, S("(v $x)"))  # reads (p a)
            each.set_truth(S("(w a)"), VACUOUS)
            each.stash(S("(w b)"), TRUE)
            if each is kb:
                prove(kb, S("(t k)"))  # (v $x) again, now reading (p b), under (t k)
            each.stash(S("(p a)"), TruthValue(0.5, 0.0))  # read by neither any more
        # the write drops (v $x) through its stale filing under (p a), and
        # (t k) through (v $x): that costs only a miss, since below the goal
        # asked every goal is solved afresh
        assert prove(kb, S("(u k)")) == prove(fresh, S("(u k)")) != []

    @pytest.mark.parametrize("asked", [[], ["(a k)", "(b k)"], ["(b k)"], ["(h k)", "(a $y)"], ["(g $y)", "(b k)", "(a k)"]])
    def test_cycle_answers_do_not_depend_on_earlier_queries(self, asked):
        def answers(kb):
            return {goal: prove(kb, S(goal)) for goal in ("(g k)", "(h k)", "(a k)", "(b k)", "(g $y)")}

        fresh = KnowledgeBase()
        fresh.load_text(CYCLE)
        # the conjunct order still decides (g k) against (h k): a
        # cyclic answer is never tabled, so it stays what one call gives
        assert answers(fresh)["(g k)"] == [] and answers(fresh)["(h k)"] == [({}, TruthValue(0.225, 0.0))]
        kb = KnowledgeBase()
        kb.load_text(CYCLE)
        for goal in asked:
            prove(kb, S(goal))
        assert answers(kb) == answers(fresh)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**6), cyclic=st.booleans())
    def test_answers_do_not_depend_on_earlier_queries(self, seed, cyclic):
        # Every query on a KB that has answered others must equal the same
        # query on a fresh KB built by the same mutations, bit for bit,
        # down to the type of the error it raises. Its trace lines must be
        # the fresh KB's too, or none at all where the goal asked was
        # tabled.
        rng = random.Random(seed)
        facts, rules = (random_cyclic_kb if cyclic else random_var_kb)(rng)
        preds = sorted({atom.elements[0] for atom in facts} | {c.elements[0] for _p, c, _tv in rules}, key=str)
        atoms = [S(f"({pred} {c})") for pred in preds for c in CONSTANTS]
        # a few goals, so that they repeat
        goals = atoms + [S(f"({pred} $x)") for pred in preds]
        goals = rng.sample(goals, min(5, len(goals)))

        def mutation():
            kind = rng.choice(["stash", "set_truth", "rule", "setvar", "config"])
            if kind in ("stash", "set_truth"):
                atom, tv = rng.choice(atoms), rng.choice([random_tv(rng), VACUOUS])
                return lambda kb: getattr(kb, kind)(atom, tv)
            if kind == "rule":
                premise, consequence, tv = rng.choice(rules)
                return lambda kb: kb.add_rule(premise, consequence, tv)
            name = rng.choice(list(SETTINGS))
            value = rng.choice(SETTINGS[name])
            if kind == "setvar":
                return lambda kb: kb.set_variable(name, value)
            field = name.replace("-", "_")
            return lambda kb: setattr(kb, "config", kb.config.copy(**{field: value}))

        def query():
            goal = rng.choice(goals)
            if rng.random() < 0.2:
                goal = S(f"(not {goal})")
            if rng.random() < 0.5:
                priority_fn = rng.choice([None, _fifo_priority, _reversed_priority])
                return lambda kb: prove(kb, goal, priority_fn=priority_fn)
            tag, cutoff, method = rng.choice(TAG_NAMES), rng.choice([0.0, 0.3]), rng.choice([None, "backward-chain"])
            return lambda kb: truep(kb, goal, tag, cutoff, method=method)

        history = [lambda kb, r=r: kb.add_rule(*r) for r in rules[: rng.randrange(len(rules) + 1)]]
        facts.update((atom, random_tv(rng)) for atom in rng.sample(atoms, min(4, len(atoms))))  # any level
        history += [lambda kb, s=s, tv=tv: kb.stash(s, tv) for s, tv in facts.items()]
        kb = KnowledgeBase()
        for step in history:
            _outcome(step, kb)
        for _ in range(40):
            if rng.random() < 0.25:
                history.append(mutation())
                _outcome(history[-1], kb)
                continue
            call = query()
            fresh = KnowledgeBase()
            for step in history:
                _outcome(step, fresh)
            (got, lines), (expected, fresh_lines) = _traced(call, kb), _traced(call, fresh)
            assert got == expected
            assert lines in ([], fresh_lines)
            # tracing takes no path of its own: untraced, the fresh KB
            # answers the same
            untraced = KnowledgeBase()
            for step in history:
                _outcome(step, untraced)
            assert _outcome(call, untraced) == expected
