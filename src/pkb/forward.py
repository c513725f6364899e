"""Forward chaining with exact retraction.

When a fact's truth value changes, the rule instances it feeds are
revisited, found through two indexes the KB keeps so that the work per
change follows what the fact touches, not the size of the KB. Rules are
filed by the (functor, arity) of each premise conjunct, so only rules
with a conjunct that can match the fact are consulted (a conjunct with
a variable head puts its rule in a bucket every change consults). Live
justifications are filed by each ground premise atom, so the instances
remembered for the fact are read directly, even when the fact itself
has just been dropped from the store. Instances not yet fired are
enumerated from stored facts, seeded by the fact.

An instance that already fired left a justification behind; its stale
contribution is removed from the consequence with `uncombine` and the
fresh one combined in, so evidence from other sources is never
disturbed. Instances whose contribution would shift the consequence by
less mass than the configured inference cutoff are left alone: the old
result stands and the rule is not re-fired.

If inverting a contribution hits a numerical corner (certain
contributions are not invertible), the consequence is rebuilt from its
base evidence plus all other live contributions, which is always exact.

Every rule instance is ground. Stored facts are ground, each premise
conjunct is matched against them, and `kb.make_rule` rejects a rule
whose consequence has a variable the premise does not bind; so a
complete premise binding grounds the premise, the consequence and the
justification's premise atoms, and no instance needs a groundness check.

Settings are read from ``kb.config``. With ``KnowledgeBase.trace``
set, one line is emitted per event:

    FIRE|SKIP|RETRACT rule=<id> bind=<bindings> contrib=(a . b)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import DepthExceeded, NoValidResidual, NotCertainRemovable
from .terms import Bindings, Term, format_bindings, match, substitute
from .truth import (
    TruthValue,
    combine,
    conjoin,
    delta_mass,
    negate,
    propagate,
    uncombine,
)

if TYPE_CHECKING:
    from .kb import KnowledgeBase, Rule


@dataclass
class Justification:
    """Record of one rule firing, precise enough to retract it later."""

    rule_id: str
    bindings: Bindings
    premise_tv_at_firing: TruthValue
    contribution: TruthValue
    consequence: Term
    premises: tuple = ()  # ground premise atoms, one per conjunct


def binding_key(bindings: Bindings) -> tuple:
    """Hashable canonical key for a ground binding set."""
    return tuple(sorted(((v.name, t) for v, t in bindings.items()), key=lambda i: i[0]))


def premise_value(kb: "KnowledgeBase", rule: "Rule", bindings) -> TruthValue:
    """Truth value of a rule's premise under a complete ground binding.

    Conjunct values come from exact entry reads (absent facts count as
    vacuous) and pool through `conjoin`; negated conjuncts read the
    swapped pair.
    """
    value = TruthValue(1.0, 0.0)
    for core, positive in rule.conjuncts:
        tv = kb.retrieve_core(substitute(core, bindings))
        if not positive:
            tv = negate(tv)
        value = conjoin(value, tv)
    return value


def _enumerate_instances(kb: "KnowledgeBase", rule: "Rule", seed) -> list:
    """All complete ground premise bindings extending ``seed``."""
    solutions = [seed]
    for core, _positive in rule.conjuncts:
        extended = []
        for theta in solutions:
            for match, _tv in kb.match_facts(substitute(core, theta)):
                merged = dict(theta)
                merged.update(match)
                extended.append(merged)
        solutions = extended
    return solutions


def _affected_bindings(kb: "KnowledgeBase", rule: "Rule", sentence) -> list:
    """Ground bindings of ``rule`` in which ``sentence`` participates.

    Covers both instances currently enumerable from stored facts and
    instances remembered only by a live justification (whose supporting
    fact may just have vanished).
    """
    found = {}
    for core, _positive in rule.conjuncts:
        seed = match(core, sentence, {})
        if seed is None:
            continue
        for theta in _enumerate_instances(kb, rule, seed):
            found.setdefault(binding_key(theta), theta)
    for j in kb.justifications_with_premise(sentence):
        if j.rule_id == rule.id:
            found.setdefault(binding_key(j.bindings), j.bindings)
    return list(found.values())


def _justification(rule: "Rule", bindings, ptv, contribution, consequence):
    premises = tuple(substitute(core, bindings) for core, _positive in rule.conjuncts)
    return Justification(rule.id, dict(bindings), ptv, contribution, consequence, premises)


def _apply_instance(kb, rule, bindings, depth: int):
    cutoff = kb.config.inference_cutoff
    ptv = premise_value(kb, rule, bindings)
    contribution = propagate(ptv, rule.rule_tv)
    consequence = substitute(rule.consequence, bindings)
    existing = kb.find_justification(rule.id, bindings)
    bind_text = format_bindings(bindings)

    if existing is not None:
        delta = delta_mass(existing.contribution, contribution)
        if delta == 0.0 or delta < cutoff:
            kb._emit(f"SKIP rule={rule.id} bind={bind_text} contrib={contribution}")
            return
        old_tv = kb.retrieve_core(consequence)
        try:
            residual = uncombine(old_tv, existing.contribution)
        except (NotCertainRemovable, NoValidResidual):
            residual = kb.pooled_value(consequence, exclude=existing)
        kb._emit(f"RETRACT rule={rule.id} bind={bind_text} contrib={existing.contribution}")
        kb.retract_justification(rule.id, bindings)
        new_tv = combine(residual, contribution)
        if not contribution.is_vacuous():
            kb.record_justification(_justification(rule, bindings, ptv, contribution, consequence))
            kb._emit(f"FIRE rule={rule.id} bind={bind_text} contrib={contribution}")
        kb._set_combined(consequence, new_tv)
        if delta_mass(old_tv, new_tv) > 0.0:
            propagate_change(kb, consequence, old_tv, new_tv, depth + 1)
        return

    if contribution.is_vacuous():
        return
    if contribution.mass < cutoff:
        kb._emit(f"SKIP rule={rule.id} bind={bind_text} contrib={contribution}")
        return
    old_tv = kb.retrieve_core(consequence)
    new_tv = combine(old_tv, contribution)
    kb.record_justification(_justification(rule, bindings, ptv, contribution, consequence))
    kb._emit(f"FIRE rule={rule.id} bind={bind_text} contrib={contribution}")
    kb._set_combined(consequence, new_tv)
    if delta_mass(old_tv, new_tv) > 0.0:
        propagate_change(kb, consequence, old_tv, new_tv, depth + 1)


def propagate_change(kb: "KnowledgeBase", sentence, old_tv: TruthValue, new_tv: TruthValue, depth: int = 0):
    """Push one fact's truth-value change through the rule base.

    The entry for ``sentence`` must already hold ``new_tv``. Raises
    DepthExceeded when consequences keep changing past the configured
    chain depth (cyclic rule sets).
    """
    if depth >= kb.config.max_chain_depth:
        raise DepthExceeded(sentence, depth)
    for rule in kb.rules_touching(sentence):
        for bindings in _affected_bindings(kb, rule, sentence):
            _apply_instance(kb, rule, bindings, depth)


def fire_rule(kb: "KnowledgeBase", rule: "Rule"):
    """Fire a newly added rule on every premise instance already stored."""
    for bindings in _enumerate_instances(kb, rule, {}):
        _apply_instance(kb, rule, bindings, depth=0)
