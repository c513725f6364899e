"""Agenda-based goal-directed proving.

Proving a goal means pooling evidence from every applicable source:
directly asserted facts that unify with it, and every rule whose
consequence unifies with it, each rule's contribution scaled by the
recursively proved value of its premise. Candidate rules come from the
knowledge base's consequence index, so a goal only meets rules filed
under its predicate and rules whose consequence has a variable head.
Succeeding once is not enough; a later source may disconfirm what an
earlier one confirmed, so all sources are consulted unless a stopping
rule applies.

Two thresholds terminate work early. A rule whose own pair carries less
mass than the inference cutoff could never matter that much and is not
attempted at all. And once a binding's accumulated value is confirmed
or disconfirmed to at least ``accept_as_true``, that binding is frozen
and costs no further effort, even though more analysis might have
revised it.

Tasks for one goal are ordered by a priority heap (by default: fact
lookups first, then rules by descending mass, so the biggest evidence
lands first and early acceptance triggers as soon as possible). Every
task reads and updates the live accumulation table at execution time;
nothing works from a snapshot taken when the task was queued, so
interleaved updates are never double-counted. Recursion into a variant
of an ancestor goal contributes nothing (a sound, terminating reading
of rule cycles), and subgoal results are cached for the duration of one
top-level ``prove`` call.

With tracing enabled:

    TASK goal=<s> src=<fact|rule:id> acc=(a . b)   per executed task
    ACCEPT goal=<s> tag=<t|not> at=<v>             on early exit
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING

from . import resolution  # looked up per call, so a wrapper set on the module applies
from .errors import DepthExceeded
from .kb import unwrap_query
from .terms import (
    canonical_form,
    is_ground,
    normalize_negation,
    rename_apart,
    substitute,
    unify,
)
from .truth import (
    VACUOUS,
    EngineConfig,
    TruthValue,
    apply_tag,
    combine,
    conjoin,
    negate,
    propagate,
)

if TYPE_CHECKING:
    from .kb import KnowledgeBase


def default_priority(kind: str, rule=None) -> float:
    """Upper bound on how much mass a task could contribute."""
    if kind == "fact":
        return 1.0
    return rule.rule_tv.mass


class _State:
    def __init__(self, kb, config, trace, priority_fn):
        self.kb = kb
        self.config = config
        self.trace = trace
        self.priority_fn = priority_fn or default_priority
        self.memo = {}
        self.stack = []

    def emit(self, line):
        if self.trace is not None:
            self.trace(line)


def _solve(goal, state: _State) -> list:
    """Prove a (non-negated) goal; returns [(ground instance, tv)]."""
    key = canonical_form(goal)
    if key in state.memo:
        return state.memo[key]
    if key in state.stack:
        return []  # variant of an ancestor goal: this branch adds nothing
    if len(state.stack) >= state.config.max_chain_depth:
        raise DepthExceeded(goal, len(state.stack))
    state.stack.append(key)
    try:
        result = _run_agenda(goal, state)
    finally:
        state.stack.pop()
    state.memo[key] = result
    return result


def _prove_conjuncts(conjuncts, theta, state: _State) -> list:
    """All premise solutions: complete bindings with conjoined values.

    Conjuncts are (core, positive) pairs; solving threads bindings left
    to right, so variables bound by one conjunct narrow the next.
    """
    solutions = [(theta, TruthValue(1.0, 0.0))]
    for core, positive in conjuncts:
        extended = []
        for binding, acc in solutions:
            subgoal = substitute(core, binding)
            for instance, tv in _solve(subgoal, state):
                merged = unify(subgoal, instance, binding)
                if merged is None:
                    continue
                extended.append((merged, conjoin(acc, tv if positive else negate(tv))))
        solutions = extended
    return solutions


def _run_agenda(goal, state: _State) -> list:
    kb = state.kb
    config = state.config
    answers: dict = {}
    accepted: set = set()
    goal_ground = is_ground(goal)

    def accumulate(instance, contribution):
        if instance in accepted or contribution.is_vacuous():
            return
        acc = combine(answers.get(instance, VACUOUS), contribution)
        answers[instance] = acc
        for tag in ("t", "not"):
            value = apply_tag(tag, acc)
            if value >= config.accept_as_true:
                accepted.add(instance)
                state.emit(f"ACCEPT goal={instance} tag={tag} at={value}")
                break

    def current_acc(instance):
        if instance is not None and instance in answers:
            return answers[instance]
        if goal_ground and answers:
            return next(iter(answers.values()))
        return VACUOUS

    heap = [(-state.priority_fn("fact"), 0, "fact", None)]
    seq = 1
    for rule in kb.rules_concluding(goal):
        if rule.rule_tv.mass < config.inference_cutoff:
            continue  # could never shift any conclusion enough to matter
        renamed = rename_apart([rule.consequence] + [core for core, _ in rule.conjuncts])
        consequence = renamed[0]
        conjuncts = list(zip(renamed[1:], (pos for _, pos in rule.conjuncts)))
        theta = unify(consequence, goal, {})
        if theta is None:
            continue
        heapq.heappush(
            heap,
            (-state.priority_fn("rule", rule), seq, "rule", (rule, consequence, conjuncts, theta)),
        )
        seq += 1

    while heap:
        if goal_ground and accepted:
            break
        _, _, kind, payload = heapq.heappop(heap)
        last = None
        if kind == "fact":
            for theta, base_tv in kb.match_facts(goal, use_base=True):
                instance = substitute(goal, theta)
                accumulate(instance, base_tv)
                last = instance
            state.emit(f"TASK goal={goal} src=fact acc={current_acc(last)}")
        else:
            rule, consequence, conjuncts, theta = payload
            for full_theta, premise_tv in _prove_conjuncts(conjuncts, theta, state):
                contribution = propagate(premise_tv, rule.rule_tv)
                instance = substitute(consequence, full_theta)
                if not is_ground(instance):
                    continue
                accumulate(instance, contribution)
                last = instance
            state.emit(f"TASK goal={goal} src=rule:{rule.id} acc={current_acc(last)}")

    return list(answers.items())


def prove(
    kb: "KnowledgeBase",
    goal,
    config: EngineConfig | None = None,
    trace=None,
    priority_fn=None,
) -> list:
    """Accumulated truth values for every binding of ``goal``.

    Returns a list of (bindings, tv) pairs, the bindings restricted to
    the goal's own variables. A goal wrapped in ``(not ...)`` is proved
    through its core with the answers swapped.
    """
    config = config or kb.config
    trace = trace if trace is not None else kb.trace
    core, flipped = normalize_negation(goal)
    state = _State(kb, config, trace, priority_fn)
    results = _solve(core, state)
    answers = []
    for instance, tv in results:
        theta = unify(core, instance, {})
        if theta is None:
            continue
        answers.append((theta, negate(tv) if flipped else tv))
    return answers


def truep(
    kb: "KnowledgeBase",
    goal,
    tag: str = "t",
    cutoff: float = 1.0,
    config: EngineConfig | None = None,
    trace=None,
    method: str | None = None,
) -> list:
    """Top-level query: dispatch through the control table, then filter.

    Answers are (bindings, value) pairs with value = tag(accumulated tv)
    and value >= cutoff. Without a matching control entry (or explicit
    ``method``), stored facts are consulted first and backward chaining
    runs only when they yield nothing.
    """
    config = config or kb.config
    core, tag = unwrap_query(goal, tag)
    if method is None:
        method = kb.dispatch(core)

    if method == "lookup":
        return kb.lookup(core, tag, cutoff)
    if method == "backward-chain":
        return _filter_answers(prove(kb, core, config, trace), tag, cutoff)
    if method == "resolution":
        return resolution.prove_by_resolution(kb, core, tag, cutoff, config)

    answers = kb.lookup(core, tag, cutoff)
    if answers:
        return answers
    return _filter_answers(prove(kb, core, config, trace), tag, cutoff)


def _filter_answers(results, tag, cutoff):
    answers = []
    for theta, tv in results:
        value = apply_tag(tag, tv)
        if value >= cutoff:
            answers.append((theta, value))
    return answers
