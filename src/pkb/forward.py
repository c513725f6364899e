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

With tracing enabled, one line is emitted per event:

    FIRE|SKIP|RETRACT rule=<id> bind=<bindings> contrib=(a . b)
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .errors import DepthExceeded, NoValidResidual, NotCertainRemovable
from .terms import format_bindings, is_ground, match, substitute
from .truth import (
    EngineConfig,
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
    return [s for s in solutions if is_ground(substitute(rule.premise, s))]


def _affected_bindings(kb: "KnowledgeBase", rule: "Rule", sentence) -> list:
    """Ground bindings of ``rule`` in which ``sentence`` participates.

    Covers both instances currently enumerable from stored facts and
    instances remembered only by a live justification (whose supporting
    fact may just have vanished).
    """
    from .kb import binding_key

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
    from .kb import Justification

    premises = tuple(substitute(core, bindings) for core, _positive in rule.conjuncts)
    return Justification(rule.id, dict(bindings), ptv, contribution, consequence, premises)


def _apply_instance(kb, rule, bindings, config: EngineConfig, depth: int):
    ptv = premise_value(kb, rule, bindings)
    contribution = propagate(ptv, rule.rule_tv)
    consequence = substitute(rule.consequence, bindings)
    existing = kb.find_justification(rule.id, bindings)
    bind_text = format_bindings(bindings)

    if existing is not None:
        delta = delta_mass(existing.contribution, contribution)
        if delta == 0.0 or delta < config.inference_cutoff:
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
            propagate_change(kb, consequence, old_tv, new_tv, config, depth + 1)
        return

    if contribution.is_vacuous():
        return
    if contribution.mass < config.inference_cutoff:
        kb._emit(f"SKIP rule={rule.id} bind={bind_text} contrib={contribution}")
        return
    old_tv = kb.retrieve_core(consequence)
    new_tv = combine(old_tv, contribution)
    kb.record_justification(_justification(rule, bindings, ptv, contribution, consequence))
    kb._emit(f"FIRE rule={rule.id} bind={bind_text} contrib={contribution}")
    kb._set_combined(consequence, new_tv)
    if delta_mass(old_tv, new_tv) > 0.0:
        propagate_change(kb, consequence, old_tv, new_tv, config, depth + 1)


def propagate_change(
    kb: "KnowledgeBase",
    sentence,
    old_tv: TruthValue,
    new_tv: TruthValue,
    config: EngineConfig | None = None,
    depth: int = 0,
):
    """Push one fact's truth-value change through the rule base.

    The entry for ``sentence`` must already hold ``new_tv``. Raises
    DepthExceeded when consequences keep changing past the configured
    chain depth (cyclic rule sets).
    """
    config = config or kb.config
    if depth >= config.max_chain_depth:
        raise DepthExceeded(sentence, depth)
    for rule in kb.rules_touching(sentence):
        for bindings in _affected_bindings(kb, rule, sentence):
            _apply_instance(kb, rule, bindings, config, depth)


def fire_rule(kb: "KnowledgeBase", rule: "Rule", config: EngineConfig | None = None):
    """Fire a newly added rule on every premise instance already stored."""
    config = config or kb.config
    for bindings in _enumerate_instances(kb, rule, {}):
        _apply_instance(kb, rule, bindings, config, depth=0)
