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
enumerated from stored facts, seeded by the fact: it fixes the variables
of each conjunct it matches, and only the other conjuncts are probed in
the store, since under that seed the matched conjunct is the fact
itself. A fact no longer stored seeds nothing; only its remembered
instances are revisited. The rules a fact's index key touches are kept
per key until a rule is added (`kb.rules_touching`).

An instance that already fired left a justification behind; its stale
contribution is removed from the consequence with `uncombine` and the
fresh one combined in, so evidence from other sources is never
disturbed. Instances whose contribution would shift the consequence by
less mass than the configured inference cutoff are left alone: the old
result stands and the rule is not re-fired. Applying an instance reads
the consequence's entry once, after those tests, and writes it back
with its base unchanged.

A contribution with no uncommitted mass (a certain one, or a
(0.9 . 0.1) rule at a certain premise) cannot be divided out; then the
consequence is rebuilt, exactly, from its base plus all other live
contributions. The last live contribution to a consequence is not
divided out either: what remains is the stored base, exactly, so no
float drift is left behind as a value with no evidence under it.

A cycle's output is fed back in as fresh evidence. With
``(a $x) -> (b $x)`` and ``(b $x) -> (a $x)`` at (0.9 . 0) and ``(a k)``
at (0.5 . 0), (a k) settles at 0.8403 and (b k) at 0.7563 (backward
gives 0.5 and 0.45) after 81 chain steps; a (1 . 0) 2-cycle reaches
(1 . 0) after 108. Both exceed the default depth of 64.

The writers (`stash`, `set_truth`, `add_rule`) chain depth first: a
consequence that changes is chained in full before the next instance of
the change that caused it is applied. The chain is held on an explicit
stack (see `_chain`), so past ``max_chain_depth``, its one depth bound,
a writer raises DepthExceeded. A writer that raises keeps what it had
applied: the facts and ledger entries of the steps before the failure
stay in the KB.

`kb.load` does not chain each statement: it stores a batch of
statements, then fires each strongly connected component of the rule
graph once, in a topological order (`fire_component`). Only a cyclic
component chains, depth first as above and into its own rules alone;
elsewhere a changed consequence waits for the rules that read it to
fire in their turn. The same ``max_chain_depth`` bounds each changed
sentence's derivation depth.

Every rule instance is ground. Stored facts are ground, each premise
conjunct is matched against them, and `kb.make_rule` rejects a rule
whose consequence has a variable the premise does not bind; so a
complete premise binding grounds the premise, the consequence and the
justification's premise atoms, and no instance needs a groundness check.

Rules are compiled on first use (see `kb.Rule`). An instance is
the tuple of its premise variables' values, in name order, and that is
also its ledger key. The changed fact is matched against each conjunct
by a compiled matcher, and one compiled builder gives the instance's
ground premise atoms and consequence, which `premise_value` and the
justification share.

Settings are read from ``kb.config``. With ``KnowledgeBase.trace``
set, and only then, one line is built and emitted per event:

    FIRE|SKIP|RETRACT rule=<id> bind=<bindings> contrib=(a . b)
"""

from __future__ import annotations

from collections import namedtuple
from typing import TYPE_CHECKING

from .errors import DepthExceeded, NoValidResidual, NotCertainRemovable
from .terms import format_bindings, index_key
from .truth import (
    TRUE,
    VACUOUS,
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


Justification = namedtuple(
    "Justification",
    "rule_id bindings premise_tv_at_firing contribution consequence premises",
    defaults=((),),
)
Justification.__doc__ = """Record of one rule firing, precise enough to retract it later.

``premises`` holds the ground premise atoms, one per conjunct."""


def premise_value(kb: "KnowledgeBase", rule: "Rule", premises) -> TruthValue:
    """Truth value of a rule's premise from its ground atoms, one per conjunct.

    Conjunct values come from exact entry reads (absent facts count as
    vacuous) and pool through `conjoin`; negated conjuncts read the
    swapped pair.
    """
    facts = kb._facts
    value = TRUE
    for atom, (_core, positive) in zip(premises, rule.conjuncts):
        record = facts.get(atom)
        tv = VACUOUS if record is None else record.tv
        if not positive:
            tv = negate(tv)
        value = conjoin(value, tv)
    return value


def _instances(kb: "KnowledgeBase", rule: "Rule", seed: tuple, seeded_by=None) -> list:
    """All complete instances of ``rule`` extending ``seed``, a tuple of
    values with None for the variables it leaves open.

    With ``seeded_by``, the position of the conjunct whose matcher gave
    ``seed`` from a stored sentence, that conjunct is not probed: under
    the seed it is the sentence itself, so only the other conjuncts are
    matched against the store."""
    patterns = rule.patterns
    if seeded_by is not None:
        patterns = patterns[:seeded_by] + patterns[seeded_by + 1 :]
    solutions = [seed]
    for pattern in patterns:
        extended = []
        for values in solutions:
            for _sentence, _record, found in kb._match(pattern(values), rule.variables):
                # a ground probe finds no values; the instance stays as it is
                extended.append(
                    values if found is None else tuple([f if v is None else v for v, f in zip(values, found)])
                )
        solutions = extended
    return solutions


def _seeded(kb: "KnowledgeBase", rule: "Rule", sentences) -> dict:
    """The instances of ``rule`` in which any of ``sentences``
    participates, as a dict in the order found.

    A stored sentence seeds each conjunct it matches, and only the
    other conjuncts are probed (see `_instances`). A sentence no longer
    stored seeds nothing; its instances remembered by a live
    justification are read off the premise index, stored or not.
    """
    found = {}
    facts = kb._facts
    for sentence in sentences:
        if sentence in facts:
            for i, matcher in enumerate(rule.matchers):
                seed = matcher(sentence)
                if seed is not None:
                    for values in _instances(kb, rule, seed, i):
                        found[values] = None
        for rule_id, values in kb._by_premise.get(sentence, ()):
            if rule_id == rule.id:
                found.setdefault(values)
    return found


def _affected_instances(kb: "KnowledgeBase", sentence, within=None):
    """(rule, values) for each rule instance in which ``sentence``
    participates, a rule's instances enumerated only once the previous
    rule's have been applied; only of the rules whose ids are in
    ``within``, when given."""
    for rule in kb.rules_touching(sentence):
        if within is None or rule.id in within:
            for values in _seeded(kb, rule, (sentence,)):
                yield rule, values


def _trace(kb, event: str, rule: "Rule", values: tuple, contribution: TruthValue):
    bindings = format_bindings(dict(zip(rule.variables, values)))
    kb._emit(f"{event} rule={rule.id} bind={bindings} contrib={contribution}")


def _apply_instance(kb, rule, values: tuple, premises: tuple, consequence) -> bool:
    """Apply one rule instance, given with its ground premise atoms and
    consequence; returns whether the consequence's value changed.

    The consequence's record is read once, after the skip tests, and its
    base is written back with the new pooled value."""
    ptv = premise_value(kb, rule, premises)
    contribution = propagate(ptv, rule.rule_tv)
    cutoff = kb._config.inference_cutoff
    trace = kb.trace
    existing = kb._ledger.get((rule.id, values))
    vacuous = contribution.belief == 0.0 and contribution.disbelief == 0.0

    if existing is not None:
        delta = delta_mass(existing.contribution, contribution)
        if delta == 0.0 or delta < cutoff:
            if trace is not None:
                _trace(kb, "SKIP", rule, values, contribution)
            return False
    elif vacuous:
        return False
    elif contribution.belief + contribution.disbelief < cutoff:
        if trace is not None:
            _trace(kb, "SKIP", rule, values, contribution)
        return False
    record = kb._facts.get(consequence)
    base, old_tv = (VACUOUS, VACUOUS) if record is None else record
    if existing is None:
        residual = old_tv
    else:
        if len(kb._by_consequence[consequence]) == 1:
            # the last live contribution: the residual is the base, exactly
            residual = kb.pooled_value(consequence, base, exclude=existing)
        else:
            try:
                residual = uncombine(old_tv, existing.contribution)
            except (NotCertainRemovable, NoValidResidual):
                residual = kb.pooled_value(consequence, base, exclude=existing)
        if trace is not None:
            _trace(kb, "RETRACT", rule, values, existing.contribution)
        kb.retract_justification(rule.id, values)
    new_tv = combine(residual, contribution)
    if not vacuous:
        bindings = dict(zip(rule.variables, values))
        kb.record_justification(Justification(rule.id, bindings, ptv, contribution, consequence, premises), values)
        if trace is not None:
            _trace(kb, "FIRE", rule, values, contribution)
    kb._set_combined(consequence, base, new_tv)
    return delta_mass(old_tv, new_tv) > 0.0


def _chain(kb: "KnowledgeBase", steps, depth=0, within=None, batch=None):
    """Apply the instances ``steps`` yields, depth first, on a stack of
    `_affected_instances` generators, one per consequence being chained.

    A consequence changed with n generators on the stack is at derivation
    depth ``depth`` + n. With ``within``, a set of rule ids, only those
    rules are chained into; with ``batch``, each change is noted in it.
    """
    stack = [steps]
    limit = kb.config.max_chain_depth - depth
    while stack:
        for rule, values in stack[-1]:
            premises, consequence = rule.instantiate(values)
            if _apply_instance(kb, rule, values, premises, consequence):
                if len(stack) >= limit:
                    raise DepthExceeded(consequence, depth + len(stack))
                if batch is not None:
                    batch.note(consequence, depth + len(stack))
                stack.append(_affected_instances(kb, consequence, within))
                break
        else:
            stack.pop()


def propagate_change(kb: "KnowledgeBase", sentence):
    """Push one fact's truth-value change through the rule base.

    The entry for ``sentence`` must already hold its new value. Raises
    DepthExceeded when consequences keep changing past the configured
    chain depth (cyclic rule sets).
    """
    _chain(kb, _affected_instances(kb, sentence))


def _stored_instances(kb: "KnowledgeBase", rule: "Rule") -> list:
    """Every complete instance of ``rule`` on stored facts; none, with
    the rule left uncompiled, when a conjunct has no stored fact to match."""
    if not all(kb._bucket(core) for core, _positive in rule.conjuncts):
        return []
    return _instances(kb, rule, (None,) * len(rule.variables))


def fire_rule(kb: "KnowledgeBase", rule: "Rule"):
    """Fire a newly added rule on every premise instance already stored."""
    _chain(kb, ((rule, values) for values in _stored_instances(kb, rule)))


class Batch:
    """The sentences one `kb.load` batch has changed, each with its
    derivation depth, and the position of the batch's first rule."""

    def __init__(self, first_rule: int):
        self.first_rule = first_rule
        self.depth = {}  # sentence -> derivation depth, in the order first changed
        # index key -> sentences, kept only when rules before the batch may read them
        self.by_key = {}

    def note(self, sentence, depth: int):
        known = self.depth.get(sentence)
        if known is None:
            if self.first_rule:
                self.by_key.setdefault(index_key(sentence), []).append(sentence)
            self.depth[sentence] = depth
        elif known < depth:
            self.depth[sentence] = depth

    def seeds(self, keys: tuple):
        """The changed sentences that may match a conjunct filed under one
        of the index ``keys``."""
        if None in keys:
            return self.depth
        return [sentence for key in keys for sentence in self.by_key.get(key, ())]


def fire_component(kb: "KnowledgeBase", positions: list, cyclic: bool, batch: Batch):
    """Fire the rules at ``positions``, one strongly connected component
    of the rule graph, on what ``batch`` has changed (see `kb.load`).

    Each rule fires in turn: one new in the batch on every stored
    instance, an older one only on the instances the batch's changed
    sentences seed, so that no instance already applied is applied again.
    A consequence that changes is at depth 1 + its deepest changed
    premise. In an acyclic component nothing is chained: the rules that
    read the consequence fire later. In a cyclic one the change is
    chained depth first, as a write chains it, but only into the
    component's own rules.
    """
    limit = kb.config.max_chain_depth
    depth_of = batch.depth.get
    within = {kb.rules[i].id for i in positions} if cyclic else None
    for position in positions:
        rule = kb.rules[position]
        if position >= batch.first_rule:
            instances = _stored_instances(kb, rule)
        else:
            instances = _seeded(kb, rule, batch.seeds(kb._rule_keys[position]))
        for values in instances:
            premises, consequence = rule.instantiate(values)
            if _apply_instance(kb, rule, values, premises, consequence):
                depth = 1 + max([depth_of(atom, 0) for atom in premises])
                if depth >= limit:
                    raise DepthExceeded(consequence, depth)
                batch.note(consequence, depth)
                if cyclic:
                    _chain(kb, _affected_instances(kb, consequence, within), depth, within, batch)
