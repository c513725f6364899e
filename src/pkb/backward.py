"""Agenda-based goal-directed proving.

Proving a goal means pooling evidence from every applicable source:
directly asserted facts that unify with it, and every rule whose
consequence unifies with it, each rule's contribution scaled by the
recursively proved value of its premise. Candidate rules come from the
knowledge base's consequence index, so a goal meets only the rules
whose consequence it may unify with by head and arity (`terms.TermIndex`).
Succeeding once is not enough; a later source may disconfirm what an
earlier one confirmed, so all sources are consulted unless a stopping
rule applies.

Two thresholds terminate work early. A rule whose own pair carries less
mass than the inference cutoff could never matter that much and is not
attempted at all. And once a binding's accumulated value is confirmed
or disconfirmed to at least ``accept_as_true``, that binding is frozen
and costs no further effort, even though more analysis might have
revised it.

Tasks for one goal are sorted by priority, ties in the order they were
queued (by default: fact lookups first, then rules by descending mass,
so the biggest evidence lands first and early acceptance triggers as
soon as possible). Every task reads and updates the live accumulation
table at execution time; nothing works from a snapshot taken when the
task was queued, so interleaved updates are never double-counted.
Recursion into a variant of an ancestor goal contributes nothing (a
sound, terminating reading of rule cycles). A goal no rule concludes
(variable-headed consequences included) is answered in place by the fact
task a frame would run, with the same depth check, filing and lines.

Results are tabled (SLG resolution, Chen & Warren 1996, without its
completion step). Within one top-level call every goal solved is kept
in a memo and reused as is. Across calls, the knowledge base's goal
table (`KnowledgeBase.goal_table`) keeps results, and it is read only
for the goal a call is asked, never below it, so every subgoal is
solved as on a fresh knowledge base. A result is tabled when its
evaluation depended on nothing begun before it: it cut no goal, and
every result it reused from the memo was proved inside it and depended
on nothing older either (Tarjan's low-link over memo positions). Such
an evaluation is the one a fresh call asking that goal runs, only
deeper on the stack, so a later call that asks it gets the same answers
(and no trace lines) from the table. A result proved before it is not
enough: it may have been proved nearer the top than a fresh call would
meet it, and so within ``max_chain_depth`` where that call is not. Each
evaluation, tabled or not, is filed under its read of the store (the
ground goal, or an open goal's index bucket) and under each subgoal it
solved: a dependency graph, as in incremental tabling (Saha &
Ramakrishnan 2003). `stash` and `set_truth` drop the entries that read
the sentence written and, edge by edge, every entry that depended on
one; a new rule, config or priority function empties the table. A
result whose proof reaches a rule cycle is never tabled, so such an
answer is what one call gives, whatever was asked before.

Rules are proved on instances in the compiled form forward chaining
uses (see `kb.Rule` and `_run_agenda`), so nothing is renamed apart.

Settings are read from ``kb.config``. Trace lines, like every engine's,
go through ``KnowledgeBase.trace`` and are built only when it is set:

    TASK goal=<s> src=<fact|rule:id> acc=(a . b)   per executed task
    ACCEPT goal=<s> tag=<t|not> at=<v>             on early exit
"""

from __future__ import annotations

from operator import attrgetter

from . import resolution  # looked up per call, so a wrapper set on the module applies
from .errors import DepthExceeded
from .kb import KnowledgeBase, open_matcher, unwrap_query
from .sexpr import check_method
from .terms import (
    canonical_form,
    is_ground,
    normalize_negation,
    substitute,
    unify,
    variables_in,
)
from .truth import (
    TRUE,
    VACUOUS,
    check_cutoff,
    combine,
    conjoin,
    negate,
    propagate,
    tagged_answers,
)


def default_priority(kind: str, rule=None) -> float:
    """Upper bound on how much mass a task could contribute."""
    if kind == "fact":
        return 1.0
    return rule.rule_tv.mass


def _solve(goal, kb: KnowledgeBase, priority_fn) -> list:
    """Prove a (non-negated) goal; returns [(ground instance, tv)].

    One loop drives every goal being solved. Each has a frame on
    ``stack`` whose agenda, a generator, yields the subgoals it needs
    and is sent their answers. A subgoal is answered from the memo, cut
    as a variant of a goal on the stack, or else evaluated: in place if
    no rule concludes it, else on a frame of its own; so
    ``max_chain_depth`` is the stack's one bound. While a goal is
    evaluated, ``subgoals`` holds the keys of the subgoals it solved and
    ``low`` the earliest memo position its evaluation depended on (-1
    once it met a cut). When its agenda finishes, its answers are
    memoized, and also tabled if it depended on nothing begun before it.
    """
    key = canonical_form(goal)
    answers = kb.goal_table(priority_fn).get(key)
    if answers is not None:
        return answers
    memo = {}  # goal key -> (answers, low), for every goal solved
    # goal key -> (the agenda, subgoals and low of the goal below it, and
    # the memo position at its start), for the goals being solved
    stack = {}
    limit = kb.config.max_chain_depth
    agenda, subgoals, low = None, set(), 0
    while True:
        if goal is not None:  # evaluate goal
            if len(stack) >= limit:
                raise DepthExceeded(goal, len(stack))
            if rules := kb.rules_concluding(goal):  # on a new frame
                stack[key] = agenda, subgoals, low, len(memo)
                agenda, subgoals, low, answers = _run_agenda(goal, key, rules, kb, priority_fn), set(), len(memo), None
            else:  # in place: a frame of its fact task alone, no subgoal
                answers = list(_fact_task(goal, kb, {}, set()).items())
                kb.table_goal(key, answers, ())
                memo[key] = answers, len(memo)
                if not stack:
                    return answers
        try:
            goal = agenda.send(answers)
        except StopIteration as done:
            answers = done.value
            key, (agenda, outer, outer_low, start) = stack.popitem()
            kb.table_goal(key, answers if low == start else None, subgoals)
            memo[key] = answers, low
            if not stack:
                return answers
            subgoals, low, goal = outer, min(outer_low, low), None
            continue
        key = canonical_form(goal)
        subgoals.add(key)
        entry = memo.get(key)
        if entry is None:
            if key not in stack:
                continue  # evaluate it
            entry = [], -1  # variant of an ancestor goal: this branch adds nothing
        low = min(low, entry[1])
        answers, goal = entry[0], None


def _values(variables: tuple, theta) -> tuple:
    """The instance ``theta`` gives ``variables``, None where one is free."""
    return tuple([None if (t := substitute(v, theta)) == v else t for v in variables])


def _accumulate(kb: KnowledgeBase, answers: dict, accepted: set, instance, contribution):
    """Pool a non-vacuous ``contribution`` into an unaccepted ``instance``'s
    answer, and accept the instance once that reaches ``accept_as_true``."""
    if instance in accepted or contribution.is_vacuous():
        return
    acc = answers.get(instance)
    answers[instance] = acc = contribution if acc is None else combine(acc, contribution)
    threshold = kb.config.accept_as_true
    if acc.belief < threshold and acc.disbelief < threshold:
        return
    accepted.add(instance)
    if kb.trace is not None:
        tag, value = ("t", acc.belief) if acc.belief >= threshold else ("not", acc.disbelief)
        kb._emit(f"ACCEPT goal={instance} tag={tag} at={value}")


def _fact_task(goal, kb: KnowledgeBase, answers: dict, accepted: set) -> dict:
    """Pool each stored fact ``goal`` matches into ``answers``, emit the
    TASK line, which shows the answer of the instance a task pooled into
    last (a ground goal has no other), and return ``answers``."""
    last = goal
    for last, fact, _values in kb._match(goal, ()):
        _accumulate(kb, answers, accepted, last, fact.base)
    if kb.trace is not None:
        kb._emit(f"TASK goal={goal} src=fact acc={answers.get(last, VACUOUS)}")
    return answers


def _run_agenda(goal, key, rules: list, kb: KnowledgeBase, priority_fn):
    """``goal``'s answers, [(ground instance, tv)], from its facts and
    ``rules``: a generator that yields each subgoal its tasks need, is
    sent its answers and returns the list. A rule task extends the seed
    the goal gives the rule through its conjuncts left to right, so that
    values one fixes narrow the next. A seed from an open goal may hold
    open values, over free rule variables and the goal's canonical ones
    (which never clash with the rule's); then fixing one value can
    narrow others, so each answer's values are unified in."""
    config = kb.config
    answers: dict = {}
    accepted: set = set()
    goal_ground = is_ground(goal)

    # (priority, task): None is the fact lookup, anything else a rule
    tasks = [(priority_fn("fact"), None)]
    for rule in rules:
        if rule.rule_tv.mass < config.inference_cutoff:
            continue  # could never shift any conclusion enough to matter
        if goal_ground:
            seed = rule.head(goal)
        else:
            theta = unify(key, rule.consequence, {})
            seed = None if theta is None else _values(rule.variables, theta)
        if seed is None:
            continue
        tasks.append((priority_fn("rule", rule), (rule, seed)))
    if len(tasks) > 1:  # a stable sort: equal priorities keep the order added
        tasks.sort(key=lambda task: -task[0])

    for _priority, task in tasks:
        if goal_ground and accepted:
            break
        if task is None:
            _fact_task(goal, kb, answers, accepted)
            continue
        rule, seed = task
        linked = not all(v is None or v._ground for v in seed)
        solutions = [(seed, TRUE)]  # (values, premise tv)
        for pattern, matcher, (_core, positive) in zip(rule.patterns, rule.matchers, rule.conjuncts):
            extended = []
            for values, acc in solutions:
                for instance, tv in (yield pattern(values)):
                    found = matcher(instance)
                    if linked:
                        theta = {v: t for v, t in zip(rule.variables, values) if t is not None}
                        for v, f in zip(rule.variables, found):
                            if f is not None:
                                theta = unify(v, f, theta)
                        merged = _values(rule.variables, theta)
                    else:
                        merged = tuple([f if v is None else v for v, f in zip(values, found)])
                    extended.append((merged, conjoin(acc, tv if positive else negate(tv))))
            solutions = extended
        last = goal  # a ground goal is the consequence of each of its instances
        for values, premise_tv in solutions:
            if not goal_ground:
                last = rule.instantiate(values)[1]
            _accumulate(kb, answers, accepted, last, propagate(premise_tv, rule.rule_tv))
        if kb.trace is not None:
            kb._emit(f"TASK goal={goal} src=rule:{rule.id} acc={answers.get(last, VACUOUS)}")

    return list(answers.items())


def _answers(kb: KnowledgeBase, goal, priority_fn) -> tuple:
    """``goal``'s core and its (ground instance, tv) answers, each pair
    swapped for a goal wrapped in ``(not ...)``."""
    core, flipped = normalize_negation(goal)
    results = _solve(core, kb, priority_fn or default_priority)
    if flipped:
        results = [(instance, negate(tv)) for instance, tv in results]
    return core, results


def _bound(core, answers: list) -> list:
    """``answers`` with each ground instance of ``core`` replaced by the
    dict of the values it gives ``core``'s variables, by name."""
    if is_ground(core) or not answers:
        return [({}, x) for _instance, x in answers]
    variables = tuple(sorted(variables_in(core), key=attrgetter("name")))
    match = open_matcher(core, variables)
    return [(dict(zip(variables, match(instance))), x) for instance, x in answers]


def prove(kb: KnowledgeBase, goal, priority_fn=None) -> list:
    """Accumulated truth values for every binding of ``goal``.

    Returns a list of (bindings, tv) pairs, the bindings a dict from
    each of the goal's own variables to its value. A goal wrapped in
    ``(not ...)`` is proved through its core with the answers swapped.

    A later call asking the same goal may take its answers from
    ``kb``'s goal table, which gives what solving afresh would and emits
    no trace lines (see the module docstring). Writing a sentence drops
    the entries that depended on it, and a new rule, config or
    ``priority_fn`` drops them all. Raises DepthExceeded past
    ``max_chain_depth``; nothing is tabled from a call that raises but
    what it had proved completely.
    """
    return _bound(*_answers(kb, goal, priority_fn))


def truep(kb: KnowledgeBase, goal, tag: str = "t", cutoff: float = 1.0, method: str | None = None) -> list:
    """Top-level query: dispatch through the control table, then filter.

    Answers are (bindings, value) pairs with value = tag(accumulated tv)
    and value >= cutoff. Without a matching control entry (or explicit
    ``method``), stored facts are consulted first and backward chaining
    runs only when they yield nothing. A bad tag, cutoff or method is
    rejected before any method runs. Backward chaining's answers are
    filtered on their ground instances, and bindings are built only for
    the answers kept.
    """
    core, tag = unwrap_query(goal, tag)
    check_cutoff(cutoff)
    if method is None:
        method = kb.dispatch(core)
    else:
        check_method(method)

    if method == "lookup":
        return kb.lookup(core, tag, cutoff)
    if method == "resolution":
        return resolution.prove_by_resolution(kb, core, tag, cutoff)
    if method != "backward-chain":
        answers = kb.lookup(core, tag, cutoff)
        if answers:
            return answers
    core, answers = _answers(kb, core, None)
    return _bound(core, tagged_answers(answers, tag, cutoff))
