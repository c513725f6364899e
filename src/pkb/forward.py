"""Forward chaining with exact retraction.

When a fact's truth value changes, the rule instances it feeds are
revisited, found through two indexes the KB keeps so that the work per
change follows what the fact touches, not the size of the KB. Only the
rules with a premise conjunct that meets the fact (see
`terms.TermIndex`) are consulted. Live justifications are filed by each
ground premise atom, so the instances remembered for the fact are read
directly, even when it has just been dropped from the store. Instances
not yet fired are enumerated from stored facts, seeded by the fact: it
fixes the variables of each conjunct it matches, and only the other
conjuncts are probed in the store, since under that seed the matched
conjunct is the fact itself. A fact no longer stored seeds nothing; only
its remembered instances are revisited. The rules a fact's index key
touches, and their components (below), are kept per key until a rule is
added (`kb.rules_touching`).

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
gives 0.5 and 0.45) once ``max_chain_depth`` is 81; a (1 . 0) 2-cycle
reaches (1 . 0) once it is 108. Both exceed the default depth of 64.

Every writer chains through one `Batch`: `kb.load` stores a batch of
statements, `stash` and `set_truth` one sentence, and `add_rule` files
one rule, then the batch fires the strongly connected components of the
rule graph that its new rules and changed sentences reach, each once, in
a topological order, on a heap of component numbers (semi-naive
evaluation, one stratum at a time; Bancilhon & Ramakrishnan 1986). A
changed sentence queues the components whose rules read its index key,
and a component that nothing reaches is never visited. A changed
consequence waits for the rules that read it to fire in their turn, so
on an acyclic rule set each instance is applied once, on final premise
values. A cyclic component fires in waves, each seeding the
component's rules with what the last one changed, until a wave changes
nothing: semi-naive iteration to a fixpoint. Each changed sentence has
a derivation depth: 0 for what the batch stored, and for a consequence
1 + its deepest changed premise, kept as the deepest seen. A depth that
reaches ``max_chain_depth`` raises DepthExceeded; on a chain that is
the chain's length, and since each wave's changes lie deeper than its
seeds, it also bounds the waves. A batch that raises keeps what it had
applied: the facts and ledger entries of the steps before the failure
stay in the KB.

Every rule instance is ground. Stored facts are ground, each premise
conjunct is matched against them, and `kb.make_rule` rejects a rule
whose consequence has a variable the premise does not bind; so a
complete premise binding grounds the premise, the consequence and the
justification's premise atoms, and no instance needs a groundness check.
A ground consequence may still be no sentence: a rule whose consequence
has no index key, such as ``(isa $p $x) -> ($p $x)``, can bind it to
``(1 a)``, which `stash`, `set_truth` and `load` reject. Such an
instance is not applied, so every stored sentence can be written back
out and loaded; only those rules, marked once by `kb.make_rule`
(`kb.Rule.keyless`), pay for the check.

Rules are compiled on first use (see `kb.Rule`). An instance is
the tuple of its premise variables' values, in name order, and that is
also its ledger key. The changed fact is matched against each conjunct
by a compiled matcher, and one compiled builder gives a new instance's
ground premise atoms and consequence, which `premise_value` and the
justification share; an instance that fired before reuses its
justification's (see `_seeded`).

Settings are read from ``kb.config``. With ``KnowledgeBase.trace``
set, and only then, one line is built and emitted per event:

    FIRE|SKIP|RETRACT rule=<id> bind=<bindings> contrib=(a . b)
"""

from __future__ import annotations

from collections import namedtuple
from heapq import heappop, heappush
from itertools import repeat
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
        fact = facts.get(atom)
        tv = VACUOUS if fact is None else fact.tv
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
    participates, as instance values -> (ground premise atoms,
    consequence), in the order found.

    A stored sentence seeds each conjunct it matches, and only the
    other conjuncts are probed (see `_instances`). A sentence no longer
    stored seeds nothing; its instances remembered by a live
    justification are read off the premise index, stored or not.

    An instance with a live justification takes its atoms from it, so
    that they are built once and every later probe for them meets the
    same objects; a new one is built, with the stored sentence that
    seeded conjunct i standing for itself as premise i. Either way a
    probe of the store or the ledger for an atom mostly hits its key by
    identity, with no term comparison.
    """
    found = {}
    facts, ledger, rule_id = kb._facts, kb._ledger, rule.id
    for sentence in sentences:
        remembered = kb._by_premise.get(sentence, ())
        if sentence in facts:
            for i, matcher in enumerate(rule.matchers):
                seed = matcher(sentence)
                if seed is not None:
                    for values in _instances(kb, rule, seed, i):
                        if (rule_id, values) in remembered:
                            found.setdefault(values)  # filled in below
                        else:
                            premises, consequence = rule.instantiate(values)
                            found[values] = (*premises[:i], sentence, *premises[i + 1 :]), consequence
        for key in remembered:
            if key[0] == rule_id and found.get(key[1]) is None:
                found[key[1]] = (j := ledger[key]).premises, j.consequence
    return found


def _trace(kb, event: str, rule: "Rule", values: tuple, contribution: TruthValue):
    bindings = format_bindings(dict(zip(rule.variables, values)))
    kb._emit(f"{event} rule={rule.id} bind={bindings} contrib={contribution}")


def _apply_instance(kb, rule, values: tuple, premises: tuple, consequence) -> bool:
    """Apply one rule instance, given with its ground premise atoms and
    consequence; returns whether the consequence's value changed.

    An instance of a `kb.Rule.keyless` rule whose consequence is no
    sentence is not applied. The consequence's entry is read once, after
    the skip tests, and its base is written back with the new pooled
    value."""
    if rule.keyless and index_key(consequence) is None:
        return False
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
    fact = kb._facts.get(consequence)
    base, old_tv = (VACUOUS, VACUOUS) if fact is None else (fact.base, fact.tv)
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
    kb._write(consequence, base, new_tv)
    return delta_mass(old_tv, new_tv) > 0.0


def _stored_instances(kb: "KnowledgeBase", rule: "Rule") -> dict:
    """Every instance of ``rule`` on stored facts, shaped as `_seeded`
    gives them; none, with the rule left uncompiled, when a conjunct has
    no stored fact to match."""
    if not all(kb._fact_index.meeting(core) for core, _positive in rule.conjuncts):
        return {}
    return {values: rule.instantiate(values) for values in _instances(kb, rule, (None,) * len(rule.variables))}


class Batch:
    """One run of forward chaining: the sentences it has changed, each
    with its derivation depth, and a heap of the rule-graph components
    still to fire, by their position in `kb._rule_components`, each with
    the changed sentences its rules read. The rules at ``first_rule`` and
    after are new in the batch."""

    __slots__ = ("kb", "touching", "first_rule", "depth", "queue", "pending")

    def __init__(self, kb: "KnowledgeBase", first_rule: int, stored=()):
        """A batch whose rules from ``first_rule`` on are new, and whose
        ``stored`` sentences changed, each at depth 0."""
        self.kb, self.touching, self.first_rule = kb, kb._touching, first_rule  # no rule is filed while it runs
        # changed sentence -> derivation depth; the heap of component
        # numbers; queued component -> changed sentences its rules read
        self.depth, self.queue, self.pending = {}, [], {}
        for sentence in stored:
            self.note(sentence, 0)

    def note(self, sentence, depth: int):
        """Record a change to ``sentence`` at derivation ``depth``; the
        first change queues the components whose rules read it."""
        known = self.depth.get(sentence)
        if known is None:
            self.depth[sentence] = depth
            for component in (self.touching.get(index_key(sentence)) or self.kb._reading(sentence))[1]:
                if component not in self.pending:
                    heappush(self.queue, component)
                self.pending.setdefault(component, []).append(sentence)
        elif known < depth:
            self.depth[sentence] = depth

    def run(self):
        """Fire the new rules and every component the changes reach, one
        strongly connected component of the rule graph at a time, in
        topological order, until none is queued.

        Each rule of a component fires in turn: one new in the batch on
        every stored instance, an older one only on the instances that the
        changed sentences it reads seed, those that reached the component
        before it fired, so that no instance already applied is applied
        again; in a cyclic component, an older rule that reads none of them
        finds no instance and is passed over. A consequence that changes
        is at depth 1 + its deepest changed premise, kept as the deepest
        seen. In an acyclic component that is all: the rules that read
        the consequence fire later. A cyclic one fires again in waves:
        each of its rules that reads what the last wave changed fires on
        the instances those changes seed, until a wave changes nothing,
        so later components see only its final values. A wave's changes
        lie deeper than its seeds, so ``max_chain_depth`` bounds the
        waves.

        A batch whose one new rule is all it holds (`kb.add_rule`) fires
        that rule alone, as the one component of a graph of its own, when
        no rule reads its consequence, so that it is in no cycle, or when
        it has no stored instance, so that it fires nothing. So the rule
        graph's components are computed only once a change has a reader.
        """
        kb, rules = self.kb, self.kb.rules
        queue, pending, first = self.queue, self.pending, self.first_rule
        if not pending and first == len(rules):  # no change has a reader
            return
        if first == len(rules) - 1 and not self.depth and _alone(kb, rules[first]):
            components, pending[0] = [((first,), False)], ()
        else:
            for position in range(first, len(rules)):  # the new rules' components
                pending.setdefault(kb._component_numbers()[rules[position]], [])
            components = kb._components[1]  # current whenever a component is queued
        queue[:] = sorted(pending)  # pending holds what is queued
        limit, depth_of, note = kb._config.max_chain_depth, self.depth.get, self.note
        while queue:
            component = queue[0]
            positions, cyclic = components[component]
            # the first wave's seeds: the changes that reached the component
            seeds, fresh, firing, changed = pending[component][:], first, positions, None
            if cyclic:
                # where its rules stand, and the first wave: its new rules
                # and those that read the seeds, in rule order
                at, changed = {rules[position]: position for position in positions}, {}
                firing = sorted({position for position in positions if position >= first}.union(
                    at[rule] for seed in seeds for rule in kb.rules_touching(seed) if rule in at
                ))
            while True:
                for position in firing:
                    rule = rules[position]
                    seeded = _stored_instances(kb, rule) if position >= fresh else _seeded(kb, rule, seeds)
                    for values, (premises, consequence) in seeded.items():
                        if _apply_instance(kb, rule, values, premises, consequence):
                            # 1 + the deepest changed premise; most rules have one
                            depth = 1 + (
                                depth_of(premises[0], 0)
                                if len(premises) == 1
                                else max(map(depth_of, premises, repeat(0)))
                            )
                            if depth >= limit:
                                raise DepthExceeded(consequence, depth)
                            note(consequence, depth)
                            if cyclic:
                                changed[consequence] = None
                if not changed:
                    break
                # the next wave: the component's rules that read what the
                # last one changed, in rule order, each on those changes
                firing = sorted({at[rule] for seed in changed for rule in kb.rules_touching(seed) if rule in at})
                seeds, fresh, changed = changed, len(rules), {}
            # what the component changed queued only later components
            del pending[heappop(queue)]


def _alone(kb: "KnowledgeBase", rule: "Rule") -> bool:
    """Whether ``rule``, new and the only one in its batch, can fire with
    no other rule: no rule reads its consequence, or a conjunct has no
    stored fact to match, so that it has no instance."""
    facts = kb._fact_index
    return not (kb._rule_premises.meeting(rule.consequence) and all(facts.meeting(c) for c, _ in rule.conjuncts))
