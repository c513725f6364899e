"""Random knowledge bases for engine stress tests.

Predicates are stratified into levels; rule premises only mention
predicates of strictly lower levels than their consequence, so every
generated rule set is acyclic by construction, except those of
`random_cyclic_kb`. Base facts live on level 0. Truth-value masses stay away from 1 so no random run can
stumble into total conflict or, unless asked for, the full-mass
boundary where `uncombine` has no unique residual.
"""

import random

from pkb.kb import KnowledgeBase
from pkb.sexpr import FactStatement, RuleStatement, print_statement
from pkb.terms import Compound, Symbol, Variable, is_ground, substitute
from pkb.truth import TRUE, EngineConfig, TruthValue

CONSTANTS = [Symbol("a"), Symbol("b"), Symbol("c")]
X = Variable("x")


def random_tv(rng: random.Random, max_mass: float = 0.9) -> TruthValue:
    mass = rng.uniform(0.0, max_mass)
    belief = rng.uniform(0.0, mass)
    return TruthValue(belief, mass - belief)


def full_mass_tv(rng: random.Random) -> TruthValue:
    """A pair with no uncommitted mass, a + b = 1, that is not certain."""
    belief = rng.uniform(0.01, 0.99)
    return TruthValue(belief, 1.0 - belief)


def _pred(level: int, i: int) -> Symbol:
    return Symbol(f"p{level}_{i}")


def random_ground_kb(rng: random.Random, levels: int = 3, preds_per_level: int = 2):
    """Fully ground facts and rules, as plain data.

    Returns (facts, rules): facts maps sentence -> tv; rules is a list
    of (conjuncts, consequence, rule_tv) with conjuncts a list of
    (sentence, positive).
    """
    atoms = {
        level: [
            Compound((_pred(level, i), rng.choice(CONSTANTS)))
            for i in range(preds_per_level)
        ]
        for level in range(levels)
    }
    facts = {}
    for atom in atoms[0]:
        if rng.random() < 0.9:
            facts[atom] = random_tv(rng)

    rules = []
    for level in range(1, levels):
        for _ in range(rng.randrange(1, 4)):
            consequence = rng.choice(atoms[level])
            n_conj = rng.randrange(1, 3)
            conjuncts = []
            for _ in range(n_conj):
                below = rng.randrange(0, level)
                conjuncts.append((rng.choice(atoms[below]), rng.random() < 0.85))
            rules.append((conjuncts, consequence, random_tv(rng)))
    return facts, rules


def random_var_kb(rng: random.Random, levels: int = 3, preds_per_level: int = 2, full_mass: bool = False):
    """Facts plus rules that may quantify over one variable.

    Returns (facts, rules): rules are (premise_term, consequence_term,
    rule_tv) ready for KnowledgeBase.add_rule; a premise conjunct is
    either ground or applies its predicate to $x, in which case the
    consequence uses $x too. With ``full_mass``, about half the rule
    pairs come from `full_mass_tv` and half the facts are (1 . 0), so a
    rule firing on certain premises contributes a full-mass pair.
    """
    facts = {}
    for i in range(preds_per_level):
        for const in CONSTANTS:
            if rng.random() < 0.6:
                tv = TRUE if full_mass and rng.random() < 0.5 else random_tv(rng)
                facts[Compound((_pred(0, i), const))] = tv

    rules = []
    for level in range(1, levels):
        for _ in range(rng.randrange(1, 4)):
            use_var = rng.random() < 0.6
            n_conj = rng.randrange(1, 3)
            conjunct_terms = []
            for k in range(n_conj):
                below = rng.randrange(0, level)
                pred = _pred(below, rng.randrange(preds_per_level))
                if use_var and k == 0:
                    arg = X
                elif use_var and rng.random() < 0.5:
                    arg = X
                else:
                    arg = rng.choice(CONSTANTS)
                atom = Compound((pred, arg))
                if rng.random() < 0.15:
                    atom = Compound((Symbol("not"), atom))
                conjunct_terms.append(atom)
            if len(conjunct_terms) == 1:
                premise = conjunct_terms[0]
            else:
                premise = Compound((Symbol("and"), *conjunct_terms))
            cons_pred = _pred(level, rng.randrange(preds_per_level))
            cons_arg = X if use_var else rng.choice(CONSTANTS)
            consequence = Compound((cons_pred, cons_arg))
            tv = full_mass_tv(rng) if full_mass and rng.random() < 0.5 else random_tv(rng)
            rules.append((premise, consequence, tv))
    return facts, rules


def random_cyclic_kb(rng: random.Random, n_preds: int = 3, n_rules: int = 4):
    """Facts and rules over ``n_preds`` unstratified predicates, so that
    rule sets often hold cycles through two or more goals.

    Returns (facts, rules) shaped as `random_var_kb`'s. Any predicate
    may hold facts and conclude rules; a premise conjunct names any
    predicate but its rule's consequence's, since a rule concluding its
    own premise is a cycle every goal cuts at once.
    """
    preds = [Symbol(f"c{i}") for i in range(n_preds)]
    facts = {
        Compound((pred, const)): random_tv(rng) for pred in preds for const in CONSTANTS if rng.random() < 0.4
    }
    rules = []
    for _ in range(n_rules):
        head = rng.choice(preds)
        use_var = rng.random() < 0.8
        conjunct_terms = []
        for k in range(rng.randrange(1, 3)):
            arg = X if use_var and (k == 0 or rng.random() < 0.7) else rng.choice(CONSTANTS)
            atom = Compound((rng.choice([p for p in preds if p != head]), arg))
            if rng.random() < 0.15:
                atom = Compound((Symbol("not"), atom))
            conjunct_terms.append(atom)
        premise = conjunct_terms[0] if len(conjunct_terms) == 1 else Compound((Symbol("and"), *conjunct_terms))
        consequence = Compound((head, X if use_var else rng.choice(CONSTANTS)))
        rules.append((premise, consequence, random_tv(rng)))
    return facts, rules


def layered_dag_kb(width: int, layers: int):
    """A layered rule DAG full of diamonds: a rule
    ``(li_j $x) -> (li+1_k $x)`` at (0.3 . 0.1) for every layer i below
    ``layers`` and every j, k below ``width``, and ``(l0_j k)`` at
    (0.5 . 0) for every j. Each of the ``width ** 2 * layers`` rules has
    one instance, yet a layer-i sentence lies on ``width ** i`` paths
    from the facts.

    Returns (facts, rules) shaped as `random_var_kb`'s, rules layer by
    layer.
    """
    k = Symbol("k")
    facts = {Compound((Symbol(f"l0_{j}"), k)): TruthValue(0.5, 0.0) for j in range(width)}
    rules = [
        (Compound((Symbol(f"l{i}_{j}"), X)), Compound((Symbol(f"l{i + 1}_{m}"), X)), TruthValue(0.3, 0.1))
        for i in range(layers)
        for j in range(width)
        for m in range(width)
    ]
    return facts, rules


def ground_var_rules(rules, constants=CONSTANTS):
    """`random_var_kb`-shaped rules, whose one variable is $x, as
    `oracles.oracle_bottom_up` takes them: one (conjuncts, consequence,
    (belief, disbelief)) per constant for a rule over $x, conjuncts as
    (atom, positive)."""
    out = []
    for premise, consequence, tv in rules:
        parts = premise.elements[1:] if premise.elements[0] == Symbol("and") else (premise,)
        for const in constants if not is_ground(premise) else (None,):
            bindings = {X: const} if const else {}
            conjuncts = [
                (substitute(part.elements[1], bindings), False)
                if part.elements[0] == Symbol("not")
                else (substitute(part, bindings), True)
                for part in parts
            ]
            out.append((conjuncts, substitute(consequence, bindings), (tv.belief, tv.disbelief)))
    return out


def statement_lines(facts, rules) -> list:
    """`random_var_kb`-shaped facts and rules as `.pkb` statements, one
    per line: the facts, then the rules."""
    return [print_statement(FactStatement(sentence, tv)) for sentence, tv in facts.items()] + [
        print_statement(RuleStatement(premise, consequence, tv)) for premise, consequence, tv in rules
    ]


def build_kb(facts, rules, config=None) -> KnowledgeBase:
    """Assemble an engine KB: rules first, then the base facts."""
    kb = KnowledgeBase(config=config or EngineConfig())
    for premise, consequence, tv in rules:
        kb.add_rule(premise, consequence, tv)
    for sentence, tv in facts.items():
        kb.stash(sentence, tv)
    return kb


def ground_rules_to_terms(rules):
    """Adapt random_ground_kb rules to add_rule arguments."""
    out = []
    for conjuncts, consequence, tv in rules:
        terms = []
        for atom, positive in conjuncts:
            terms.append(atom if positive else Compound((Symbol("not"), atom)))
        premise = terms[0] if len(terms) == 1 else Compound((Symbol("and"), *terms))
        out.append((premise, consequence, tv))
    return out
