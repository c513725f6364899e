"""Statement order: what `load` leaves must not depend on the order of
the statements in a `.pkb` file.

Generated acyclic KBs are written out as `.pkb` text and loaded under
random permutations of their statements at several inference cutoffs;
every store equals `oracle_bottom_up`, and a chain past
``max-chain-depth`` raises the same error in every order. On a cyclic
rule set, whether a load raises can still depend on the order (ROADMAP
item 8); a seed on which it does is a strict xfail.
"""

import random

import pytest

from pkb.errors import DepthExceeded
from pkb.kb import KnowledgeBase
from pkb.sexpr import parse_sentence as S
from pkb.terms import Symbol

from kbgen import (
    ground_rules_to_terms,
    ground_var_rules,
    layered_dag_kb,
    random_cyclic_kb,
    random_ground_kb,
    random_var_kb,
    statement_lines,
)
from oracles import oracle_bottom_up

TOL = 1e-12
CUTOFFS = [0.0, 0.05, 0.2]
PERMUTATIONS = 3


def load(lines, cutoff=0.0, depth=None) -> KnowledgeBase:
    settings = [f"(setvar inference-cutoff {cutoff})"]
    if depth is not None:
        settings.append(f"(setvar max-chain-depth {depth})")
    kb = KnowledgeBase()
    kb.load_text("\n".join(settings + lines))
    return kb


def assert_store(kb, expected):
    got = {sentence: (record.tv.belief, record.tv.disbelief) for sentence, record in kb.facts()}
    assert set(got) == set(expected)
    for sentence, (belief, disbelief) in expected.items():
        assert abs(got[sentence][0] - belief) <= TOL and abs(got[sentence][1] - disbelief) <= TOL, sentence


def ground_kbs(rng, count):
    for _ in range(count):
        facts, rules = random_ground_kb(rng, levels=4)
        oracle_rules = [(conjuncts, cons, (tv.belief, tv.disbelief)) for conjuncts, cons, tv in rules]
        yield facts, ground_rules_to_terms(rules), oracle_rules


def var_kbs(rng, count):
    for _ in range(count):
        facts, rules = random_var_kb(rng, levels=4)
        yield facts, rules, ground_var_rules(rules)


def dag_kbs(rng, count):
    for width, layers in [(2, 4), (3, 3), (2, 6)][:count]:
        facts, rules = layered_dag_kb(width, layers)
        yield facts, rules, ground_var_rules(rules, [Symbol("k")])


@pytest.mark.parametrize("cutoff", CUTOFFS)
@pytest.mark.parametrize("kbs, count", [(ground_kbs, 40), (var_kbs, 40), (dag_kbs, 3)], ids=["ground", "var", "dag"])
def test_store_equals_the_oracle_in_every_order(kbs, count, cutoff):
    rng = random.Random(14000 + count)
    for facts, rules, oracle_rules in kbs(rng, count):
        base = {sentence: (tv.belief, tv.disbelief) for sentence, tv in facts.items()}
        expected = oracle_bottom_up(base, oracle_rules, cutoff)
        lines = statement_lines(facts, rules)
        for _ in range(PERMUTATIONS):
            assert_store(load(rng.sample(lines, len(lines)), cutoff), expected)


def orders(lines, rng):
    return [lines, lines[::-1]] + [rng.sample(lines, len(lines)) for _ in range(PERMUTATIONS)]


def test_a_chain_past_the_bound_raises_alike_in_every_order():
    facts, rules = layered_dag_kb(1, 12)  # (l0_0 k) -> (l1_0 k) -> ... -> (l12_0 k)
    for lines in orders(statement_lines(facts, rules), random.Random(14003)):
        with pytest.raises(DepthExceeded, match=r"^chain depth 10 exceeded at \(l10_0 k\)$"):
            load(lines, depth=10)
        assert load(lines, depth=13).retrieve(S("(l12_0 k)")).belief > 0


def test_a_diamond_dag_past_the_bound_raises_alike_in_every_order():
    facts, rules = layered_dag_kb(2, 6)
    for lines in orders(statement_lines(facts, rules), random.Random(14004)):
        with pytest.raises(DepthExceeded, match=r"^chain depth 6 exceeded at \(l6_[01] k\)$"):
            load(lines, depth=6)
        load(lines, depth=7)


@pytest.mark.parametrize(
    "seed",
    [
        7,
        pytest.param(
            10,
            marks=pytest.mark.xfail(
                strict=True,
                reason="ROADMAP item 8: on a cycle, how deep forward chaining runs depends on which rule fires first",
            ),
        ),
    ],
)
def test_a_cyclic_load_raises_alike_in_every_order(seed):
    rng = random.Random(seed)
    facts, rules = random_cyclic_kb(rng)
    lines = statement_lines(facts, rules)
    raised = set()
    for k in range(4):
        try:
            load(lines if k == 0 else rng.sample(lines, len(lines)), depth=200)
            raised.add(False)
        except DepthExceeded:
            raised.add(True)
    assert len(raised) == 1
