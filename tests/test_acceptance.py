"""Acceptance suite: one test per criterion, at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one
ACCEPTANCE line per criterion alongside the pytest verdicts.
"""

import random
import time

import pytest

from pkb.backward import prove
from pkb.errors import ParseError, RangeError, TotalConflict
from pkb.kb import KnowledgeBase
from pkb.resolution import Clause, resolve
from pkb.sexpr import parse_kb, parse_sentence as S, print_statement
from pkb.terms import sym, var
from pkb.truth import (
    TRUE,
    VACUOUS,
    EngineConfig,
    TruthValue,
    apply_tag,
    combine,
    negate,
    uncombine,
)

from kbgen import build_kb, ground_rules_to_terms, random_ground_kb, random_tv, random_var_kb
from oracles import oracle_bottom_up, oracle_combine, oracle_resolvent_tv

TOL = 1e-9


def _report(number, text):
    print(f"ACCEPTANCE {number} PASS — {text}")


def tv_close(tv, pair, tol=TOL):
    return abs(tv.belief - pair[0]) <= tol and abs(tv.disbelief - pair[1]) <= tol


def test_criterion_1_lookup_reproduction():
    """Two-fact database: cutoff filtering and the six exact tag reads."""
    started = time.perf_counter()
    kb = KnowledgeBase()
    kb.load_text(
        """
        (fact (foo fred) (0.3 . 0.2))
        (fact (foo harry) (0.7 . 0.0))
        """
    )
    answers = kb.lookup(S("(foo $x)"), "t", 0.5)
    assert answers == [({var("x"): sym("harry")}, 0.7)]

    fred = kb.retrieve(S("(foo fred)"))
    assert apply_tag("not", fred) == 0.2
    assert apply_tag("unknown", fred) == 0.5
    assert apply_tag("poss", fred) == 0.8
    assert apply_tag("poss-not", fred) == 0.7
    assert apply_tag("mass", fred) == 0.5

    elapsed = time.perf_counter() - started
    assert elapsed < 0.1
    _report(1, f"lookup + exact tags in {elapsed * 1000:.2f} ms")


def test_criterion_2_truth_algebra_laws():
    """10,000 random pairs/triples through the algebra's laws."""
    started = time.perf_counter()
    rng = random.Random(20260808)

    def draw():
        a = rng.uniform(0.0, 1.0)
        return TruthValue(a, rng.uniform(0.0, 1.0 - a))

    for _ in range(10_000):
        x, y, z = draw(), draw(), draw()

        xy = combine(x, y)
        yx = combine(y, x)
        assert abs(xy.belief - yx.belief) <= TOL and abs(xy.disbelief - yx.disbelief) <= TOL

        left = combine(xy, z)
        right = combine(x, combine(y, z))
        assert abs(left.belief - right.belief) <= TOL
        assert abs(left.disbelief - right.disbelief) <= TOL

        assert combine(x, VACUOUS) == x

        ns = combine(negate(x), negate(y))
        assert abs(ns.belief - xy.disbelief) <= TOL and abs(ns.disbelief - xy.belief) <= TOL

        if not y.is_certain():
            back = uncombine(xy, y)
            assert abs(back.belief - x.belief) <= TOL
            assert abs(back.disbelief - x.disbelief) <= TOL

        assert abs(apply_tag("t", x) + apply_tag("not", x) + apply_tag("unknown", x) - 1.0) <= 1e-12
        assert abs(apply_tag("poss", x) - (1.0 - apply_tag("not", x))) <= 1e-12
        assert abs(apply_tag("mass", x) - (apply_tag("t", x) + apply_tag("not", x))) <= 1e-12

    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    _report(2, f"10,000 law checks in {elapsed:.2f} s")


def test_criterion_3_combine_vs_oracle():
    """combine against the brute-force joint-mass enumeration."""
    rng = random.Random(31415)
    for _ in range(1_000):
        a1 = rng.uniform(0.0, 1.0)
        x = TruthValue(a1, rng.uniform(0.0, 1.0 - a1))
        a2 = rng.uniform(0.0, 1.0)
        y = TruthValue(a2, rng.uniform(0.0, 1.0 - a2))
        expected = oracle_combine((x.belief, x.disbelief), (y.belief, y.disbelief))
        if expected is None:
            with pytest.raises(TotalConflict):
                combine(x, y)
            continue
        got = combine(x, y)
        assert abs(got.belief - expected[0]) <= TOL
        assert abs(got.disbelief - expected[1]) <= TOL
    _report(3, "1,000 random pairs match the 3x3 joint-mass oracle")


def test_criterion_4_tweety_scenario():
    """Accumulation across rules, by both inference directions."""
    kb = KnowledgeBase()
    kb.load_text(
        """
        (rule (bird $x) (flies $x) (0.7 . 0.0))
        (rule (ostrich $x) (flies $x) (0 . 1))
        (fact (bird Tweety) (1 . 0))
        (fact (ostrich Tweety) (1 . 0))
        """
    )
    # Forward: asserting the facts has already chained into the store.
    forward = kb.retrieve(S("(flies Tweety)"))
    assert tv_close(forward, (0.0, 1.0))
    # Backward: proved from base evidence and the rules alone.
    answers = prove(kb, S("(flies Tweety)"))
    assert len(answers) == 1
    assert tv_close(answers[0][1], (0.0, 1.0))
    _report(4, "flies(Tweety) = (0 . 1) both forward and backward")


def test_criterion_5_retraction_rebuild_equivalence():
    """Interleaved replacements match fresh KBs built from final values."""
    started = time.perf_counter()
    rng = random.Random(55005)
    for _ in range(100):
        facts, rules = random_var_kb(rng)
        kb = build_kb(facts, rules)
        final_base = dict(facts)
        order = list(facts)
        rng.shuffle(order)
        for sentence in order:
            if rng.random() < 0.75:
                tv = random_tv(rng)
                kb.set_truth(sentence, tv)
                final_base[sentence] = tv
        fresh = build_kb(final_base, rules)
        got = {s: r.tv for s, r in kb.facts()}
        want = {s: r.tv for s, r in fresh.facts()}
        assert set(got) == set(want)
        for sentence in got:
            assert tv_close(got[sentence], (want[sentence].belief, want[sentence].disbelief)), sentence
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    _report(5, f"100 random KBs, interleaved updates, rebuilt equal in {elapsed:.2f} s")


def test_criterion_6_cutoff_behavior():
    """Inference-cutoff forward and backward, and accept-as-true early exit."""
    # Forward: a (0.01 . 0) rule under a higher cutoff never fires.
    kb = KnowledgeBase(config=EngineConfig(inference_cutoff=0.02))
    kb.add_rule(S("(foo $x)"), S("(goo $x)"), TruthValue(0.01, 0.0))
    kb.stash(S("(foo fred)"), TRUE)
    assert kb.retrieve(S("(goo fred)")) == VACUOUS
    assert kb.why(S("(goo fred)")) == []

    # Backward: the (0.1 . 0) rule is never attempted under cutoff 0.2.
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
    assert not any("src=rule" in line for line in events)
    assert len(answers) == 1 and tv_close(answers[0][1], (0.4, 0.0))

    # Early acceptance: the first rule suffices, exactly one rule task runs.
    events = []
    kb = KnowledgeBase(config=EngineConfig(accept_as_true=0.9))
    kb.add_rule(S("(strong $x)"), S("(goal $x)"), TruthValue(0.95, 0.0))
    kb.add_rule(S("(weak $x)"), S("(goal $x)"), TruthValue(0.5, 0.0))
    kb.stash(S("(strong m)"), TRUE)
    kb.stash(S("(weak m)"), TRUE)
    kb.trace = events.append
    prove(kb, S("(goal m)"))
    rule_tasks = [
        line for line in events if line.startswith("TASK goal=(goal m)") and "src=rule" in line
    ]
    accepts = [line for line in events if line.startswith("ACCEPT goal=(goal m)")]
    assert len(rule_tasks) == 1
    assert len(accepts) == 1 and float(accepts[0].split("at=")[1]) >= 0.9
    _report(6, "forward cutoff, backward cutoff and accept-as-true all gate correctly")


def _fifo(kind, rule=None):
    return 0.0


def _reversed(kind, rule=None):
    return -1.0 if kind == "fact" else -rule.rule_tv.mass


def test_criterion_7_backward_oracle_equivalence():
    """prove equals bottom-up evaluation under three agenda orders."""
    rng = random.Random(77007)
    priorities = [None, _fifo, _reversed]
    for _ in range(100):
        facts, rules = random_ground_kb(rng)
        kb = build_kb(facts, ground_rules_to_terms(rules))
        base = {s: (tv.belief, tv.disbelief) for s, tv in facts.items()}
        oracle_rules = [(c, cons, (tv.belief, tv.disbelief)) for c, cons, tv in rules]
        expected = oracle_bottom_up(base, oracle_rules)
        goals = set(base) | {cons for _c, cons, _tv in oracle_rules}
        for goal in goals:
            want = expected.get(goal)
            for priority_fn in priorities:
                answers = prove(kb, goal, priority_fn=priority_fn)
                if want is None:
                    assert answers == []
                else:
                    assert len(answers) == 1
                    assert tv_close(answers[0][1], want)
    _report(7, "100 ground KBs match bottom-up evaluation under 3 priority orders")


def test_criterion_8_resolution_vs_oracle():
    """resolve against the 2^n joint-frame oracle, plus the closed forms."""
    p, q, r = sym("p"), sym("q"), sym("r")
    atoms = [p, q, r, sym("w")]
    rng = random.Random(88008)

    checked = 0
    while checked < 1_000:
        def draw_clause(tag):
            n = rng.randrange(1, 4)
            lits = [(atom, rng.random() < 0.5) for atom in rng.sample(atoms, n)]
            mass = rng.uniform(0.0, 0.98)
            belief = rng.uniform(0.0, mass)
            return Clause.make(lits, TruthValue(belief, mass - belief), support=frozenset({tag}))

        c1, c2 = draw_clause("1"), draw_clause("2")
        shared = sorted(c1.atoms() & c2.atoms(), key=str)
        if not shared:
            continue
        try:
            got = resolve(c1, c2, rng.choice(shared))
        except Exception:
            continue
        expected = oracle_resolvent_tv(
            c1.literals, (c1.tv.belief, c1.tv.disbelief),
            c2.literals, (c2.tv.belief, c2.tv.disbelief),
            got.literals,
        )
        assert tv_close(got.tv, expected)
        checked += 1

    # Closed forms on the derived examples.
    c1 = Clause.make([(p, True), (q, True)], TruthValue(0.8, 0.1), support={"1"})
    c2 = Clause.make([(p, False), (r, True)], TruthValue(0.6, 0.2), support={"2"})
    opposite = resolve(c1, c2, p)
    assert opposite.tv.belief == pytest.approx(0.8 * 0.6 / (1 - 0.1 * 0.2), abs=TOL)
    assert opposite.tv.disbelief == 0.0

    c3 = Clause.make([(p, True), (r, True)], TruthValue(0.6, 0.2), support={"2"})
    same = resolve(c1, c3, p)
    assert same.tv.belief == pytest.approx(0.8 * 0.2 + 0.1 * 0.6, abs=TOL)
    assert same.tv.disbelief == pytest.approx(0.1 * 0.2, abs=TOL)

    # Certainty endpoints reproduce classical resolution.
    certain1 = Clause.make([(p, True), (q, True)], TRUE, support={"1"})
    certain2 = Clause.make([(p, False), (r, True)], TRUE, support={"2"})
    assert resolve(certain1, certain2, p).tv == TRUE
    _report(8, "1,000 random resolutions match the model oracle; closed forms hold")


GOLDEN_CORPUS = """
(fact (foo fred) (0.3 . 0.2))
(fact (foo harry) (0.7 . 0.0))
(fact (not (foo fred)) (1 . 0))
(rule (foo $x) (goo $x) (1 . 0))
(rule (foo $x) (goo $x) (0 . 1))
(rule (foo $x) (not (goo $x)) (1 . 0))
(rule (foo $x) (goo $x) (0.01 . 0.0))
(rule (bird $x) (flies $x) (0.7 . 0.0))
(rule (ostrich $x) (flies $x) (0 . 1))
(rule (steals $person $object) (crook $person) (1 . 0))
(rule (politician $p) (crook $p) (0.1 . 0.0))
(rule (and (p $x) (q $x)) (r $x) (0.6 . 0.1))
(clause (or p q) (0.8 . 0.1))
(clause (or (not p) r) (0.6 . 0.2))
(clause (or p r) (0.6 . 0.2))
(clause (or (edge a b) (not (edge b a))) (0.9 . 0.05))
(control (foo $x) resolution)
(control (crook $p) backward-chain)
(control (foo fred) lookup)
(setvar inference-cutoff 0.2)
(setvar accept-as-true 0.9)
(setvar max-chain-depth 32)
"""


def test_criterion_9_parser_round_trip_and_fuzz():
    """Golden corpus round trip plus 10,000 fuzzed inputs without a crash."""
    statements = parse_kb(GOLDEN_CORPUS)
    assert len(statements) == 22
    kinds = {type(stmt).__name__ for stmt in statements}
    assert kinds == {
        "FactStatement",
        "RuleStatement",
        "ClauseStatement",
        "ControlStatement",
        "SetVarStatement",
    }
    for stmt in statements:
        text = print_statement(stmt)
        (back,) = parse_kb(text)
        assert back == stmt, text

    rng = random.Random(99009)
    alphabet = "()$.;ab12xq -+notfactruleclausecontrolsetvar\n\t\"e"
    for _ in range(10_000):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 80)))
        try:
            parse_kb(text)
        except (ParseError, RangeError):
            pass
    _report(9, "22-statement corpus round-trips; 10,000 fuzz inputs handled")
