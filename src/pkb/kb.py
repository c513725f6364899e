"""The probabilistic database.

Facts are stored once, under their negation-normalized core: asserting
``(not s)`` with value (a . b) stores ``s`` with (b . a), so a sentence
and its negation always describe one truth value. Each stored sentence
has one live entry, a `Fact` that keeps the sentence and two pairs:
``base``, the evidence asserted directly about the sentence, and ``tv``,
the base pooled with every live rule contribution. A write updates the
entry in place. The store maps each sentence to its entry, and the
store index files the entries themselves, which hash by identity, so an
open lookup reads each fact's sentence and pair off its entry with no
second probe of the store; it runs as one compiled scan over the
entries its pattern meets (see `lookup`). `facts` gives immutable
`FactRecord` snapshots. Rule firings are recorded in a justification
ledger keyed by (rule, ground bindings), which is what allows a stale
contribution to be removed exactly when its premise changes.

Two assertion operations are provided because both behaviors are
needed: `stash` treats its argument as a new independent evidence
source and combines it in; `set_truth` replaces the directly asserted
evidence outright. Both trigger forward chaining on the resulting
change.

The KB holds the one config and the one trace sink of every engine:
forward chaining, backward chaining and resolution read ``config``, and
all trace lines go through ``trace`` (a callable taking one line, or
None); no engine takes either as an argument.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache, partial
from itertools import count
from operator import attrgetter

from . import forward, sexpr
from .errors import IterationBoundExceeded, NotFound
from .resolution import Clause, Closure, saturate_groups
from .terms import (
    Compound,
    Symbol,
    Term,
    TermIndex,
    canonical_form,
    compile_builder,
    compile_matcher,
    compile_scan,
    format_bindings,
    index_key,
    is_ground,
    normalize_negation,
    unify,
    variables_in,
)
from .truth import (
    TAG_DUAL,
    TAG_NAMES,
    TAG_PROJECTIONS,
    VACUOUS,
    EngineConfig,
    TruthValue,
    check_cutoff,
    check_tag,
    combine,
    delta_mass,
    negate,
    tagged_answers,
)

_AND = Symbol("and")

# compiled matchers of open patterns, by (pattern, variables)
open_matcher = lru_cache(maxsize=256)(compile_matcher)
# compiled lookup scans of open patterns, by (pattern, tag projection)
open_scan = lru_cache(maxsize=256)(compile_scan)

# surface name of each engine variable -> its EngineConfig field
ENGINE_VARIABLES = {field.replace("_", "-"): field for field in EngineConfig._fields}


class Fact:
    """The live entry of one stored sentence: the sentence, its direct
    evidence ``base`` and its pooled value ``tv``. The store writes it in
    place; it hashes by identity, as the store index files it."""

    __slots__ = ("sentence", "base", "tv")

    def __init__(self, sentence: Term, base: TruthValue, tv: TruthValue):
        self.sentence, self.base, self.tv = sentence, base, tv


FactRecord = namedtuple("FactRecord", "base tv")
FactRecord.__doc__ = """A snapshot of one stored sentence's entry: direct evidence and the
pooled value, as `KnowledgeBase.facts` gives them. Unlike the live
`Fact`, it keeps its values when the sentence is written again."""


class Rule:
    """A conditional ``premise -> consequence`` carrying its own truth pair.

    The pair is the value the consequence earns when the premise holds
    outright; partial premises scale it down. A consequence written as
    ``(not c)`` is stored as ``c`` with the pair swapped.

    The rule is compiled on first use. An instance is the tuple of the
    values of ``variables``, the premise variables in name order. For
    conjunct i, ``matchers[i]`` gives the instance values a ground atom
    fixes (None for the rest) and ``patterns[i]`` the conjunct under a
    partial instance; ``instantiate`` gives an instance's ground premise
    atoms and consequence, and ``head`` the values a ground goal fixes of
    the consequence. Until the rule is compiled, each of these functions
    is a stand-in whose first call compiles the rule, replacing all of
    them, and then answers; so the engines read plain slots, and a rule
    that never fires is never compiled.

    ``keyless`` is true when the consequence has no `index_key`, such as
    ``$x`` or ``($p $x)``: only then may an instance's consequence be no
    sentence, and forward chaining checks it (see `forward`).
    """

    __slots__ = (
        "id", "premise", "consequence", "rule_tv", "conjuncts", "variables", "keyless",
        "matchers", "patterns", "instantiate", "head",
    )

    def __init__(self, rule_id, premise, consequence, rule_tv, conjuncts, variables):
        self.id, self.premise, self.consequence, self.rule_tv = rule_id, premise, consequence, rule_tv
        self.conjuncts, self.variables = conjuncts, variables
        self.keyless = index_key(consequence) is None
        first_call, positions = self._first_call, range(len(conjuncts))
        self.matchers = tuple(partial(first_call, "matchers", i) for i in positions)
        self.patterns = tuple(partial(first_call, "patterns", i) for i in positions)
        self.instantiate = partial(first_call, "instantiate", None)
        self.head = partial(first_call, "head", None)

    def compile(self):
        """Replace the stand-ins with the compiled functions; a compiled
        rule is left as it is."""
        if type(self.head) is not partial:  # stand-ins are partials, compiled functions plain
            return
        cores = tuple(core for core, _positive in self.conjuncts)
        variables = self.variables
        self.matchers = tuple(compile_matcher(core, variables) for core in cores)
        self.patterns = tuple(compile_builder(core, variables, partial=True) for core in cores)
        self.instantiate = compile_builder((cores, self.consequence), variables)
        self.head = compile_matcher(self.consequence, variables)

    def _first_call(self, field: str, i, arg):
        # a stand-in may be called after the rule is compiled, by a caller
        # that read it before
        self.compile()
        function = getattr(self, field)
        return (function if i is None else function[i])(arg)


ControlEntry = namedtuple("ControlEntry", "pattern method")
ControlEntry.__doc__ = """Meta-level directive: goals matching ``pattern`` use ``method``.

Entries are tried in the order they were added."""


def make_rule(rule_id: str, premise: Term, consequence: Term, rule_tv: TruthValue) -> Rule:
    """Normalize and validate a rule; it is compiled on first use (see
    `Rule`).

    Splits an ``(and ...)`` premise into conjuncts, rewrites a negated
    consequence into core + swapped pair, and checks that firing the
    premise grounds the consequence.
    """
    cons_core, flipped = normalize_negation(consequence)
    if flipped:
        rule_tv = negate(rule_tv)
    if isinstance(premise, Compound) and premise[0] is _AND:
        parts = premise[1:]
        if not parts:
            raise ValueError("empty (and) premise")
    else:
        parts = (premise,)
    conjuncts = tuple((core, not neg) for core, neg in map(normalize_negation, parts))
    cores = tuple(core for core, _positive in conjuncts)
    premise_vars = set().union(*map(variables_in, cores))
    missing = variables_in(cons_core) - premise_vars
    if missing:
        names = ", ".join(sorted("$" + v.name for v in missing))
        raise ValueError(f"rule {rule_id}: consequence variables {names} not bound by the premise")
    variables = tuple(sorted(premise_vars, key=attrgetter("name")))
    return Rule(rule_id, premise, cons_core, rule_tv, conjuncts, variables)


def unwrap_query(pattern: Term, tag: str = "t") -> tuple[Term, str]:
    """Fold tag wrappers on a query pattern into an effective tag.

    ``(not p)`` flips the tag to its dual; an outer ``(unknown p)``,
    ``(poss p)`` etc. names the tag directly. Unwrapping stops when a
    wrapper cannot be folded into the tag accumulated so far.
    """
    check_tag(tag)
    while (
        isinstance(pattern, Compound)
        and len(pattern) == 2
        and isinstance(pattern[0], Symbol)
        and pattern[0].name in TAG_NAMES
    ):
        name = pattern[0].name
        if name == "not":
            tag = TAG_DUAL[tag]
        elif tag == "t":
            tag = name
        elif tag == "not":
            tag = TAG_DUAL[name]
        else:
            break
        pattern = pattern[1]
    return pattern, tag


class KnowledgeBase:
    """Facts, rules, clauses, control entries and the justification ledger."""

    def __init__(self, config: EngineConfig | None = None, trace=None):
        self.trace = trace  # callable taking one line of text, or None
        self._facts: dict[Term, Fact] = {}
        self._fact_index = TermIndex(self._facts.values())
        self.rules: list[Rule] = []
        self._rule_premises, self._rule_consequences = TermIndex(self.rules), TermIndex(self.rules)
        # index key -> (rules_touching() of a sentence with that key, their
        # component numbers), kept until a rule is added (see _reading)
        self._touching: dict = {}
        # (rule count, _rule_components() of that many rules, rule -> its component number)
        self._components: tuple = (0, [], {})
        self.clauses: list = []
        self._drop_partition()
        # (priority function, {goal key: answers}, a read of the store (a
        # ground goal, or an open goal's index key) or a goal key -> {goal
        # key that depended on it: None}); None until a goal is tabled and
        # after add_rule or a config change (see goal_table)
        self._goals: tuple | None = None
        self._config = None
        self.config = EngineConfig() if config is None else config
        self.control_entries: list[ControlEntry] = []
        # per control entry, compiled once: (its pattern in canonical form,
        # whose variables no parsed goal can share, so dispatch unifies it
        # with an open goal as is; its one-way matcher of ground goals; its
        # method), filed by the pattern; each has its own matcher, so no two are equal
        self._dispatch: list[tuple] = []
        self._control_index = TermIndex(self._dispatch)
        # (rule id, instance values in the order of the rule's
        # variables) -> justification
        self._ledger: dict[tuple, forward.Justification] = {}
        # consequence, and ground premise atom -> {ledger key: None}, in
        # ledger order
        self._by_consequence: dict[Term, dict] = {}
        self._by_premise: dict[Term, dict] = {}

    @property
    def config(self) -> EngineConfig:
        """The thresholds every engine reads. Setting a different config
        drops the goal table and the saturation closures, derived under
        the old one."""
        return self._config

    @config.setter
    def config(self, config: EngineConfig):
        if not isinstance(config, EngineConfig):
            raise TypeError(f"config must be an EngineConfig, got {config!r}")
        if config != self._config:
            self._goals = None
            self._drop_partition()
        self._config = config

    # -- storage ------------------------------------------------------------

    def _normalize(self, sentence: Term, tv: TruthValue) -> tuple[Term, TruthValue]:
        core, flipped = normalize_negation(sentence)
        if not is_ground(core):
            raise ValueError(f"cannot store non-ground sentence {core}")
        if index_key(core) is None:  # no symbol, nor a compound headed by one
            raise ValueError(f"not a sentence: {core}")
        return core, (negate(tv) if flipped else tv)

    def _write(self, core: Term, base: TruthValue, tv: TruthValue):
        """Store an entry's base and pooled value, in place; an entry with
        neither is dropped, and one stored again is a new entry, filed
        last."""
        fact = self._facts.get(core)
        if tv.is_vacuous() and base.is_vacuous():
            if fact is not None:
                del self._facts[core]
                self._fact_index.unfile(core, fact)
        elif fact is None:
            self._facts[core] = fact = Fact(core, base, tv)
            self._fact_index.file(core, fact)
        else:
            fact.base, fact.tv = base, tv

    def stash(self, sentence: Term, tv: TruthValue):
        """Combine a new piece of evidence into the sentence's entry, then
        chain the change forward as a batch of that one sentence (see
        `load`)."""
        core = self._store(sentence, tv)
        if core is not None:
            forward.Batch(self, len(self.rules), (core,)).run()

    def _store(self, sentence: Term, tv: TruthValue):
        """Combine evidence into the sentence's entry without chaining;
        the stored core if its pooled value moved, else None. Vacuous
        evidence is ignored."""
        core, tv = self._normalize(sentence, tv)
        if tv.is_vacuous():
            return None
        self._forget(core)
        fact = self._facts.get(core)
        base, old = (VACUOUS, VACUOUS) if fact is None else (fact.base, fact.tv)
        new = combine(old, tv)
        self._write(core, combine(base, tv), new)
        return core if delta_mass(old, new) > 0.0 else None

    def set_truth(self, sentence: Term, tv: TruthValue):
        """Replace the directly asserted evidence for the sentence.

        Rule contributions recorded in the ledger stay in force; the
        entry's pooled value is rebuilt from the new base plus those
        contributions, and the change is chained forward as a batch of
        that one sentence (see `load`).
        """
        core, tv = self._normalize(sentence, tv)
        self._forget(core)
        fact = self._facts.get(core)
        old = VACUOUS if fact is None else fact.tv
        new = self.pooled_value(core, tv)
        self._write(core, tv, new)
        if delta_mass(old, new) > 0.0:
            forward.Batch(self, len(self.rules), (core,)).run()

    # -- reads --------------------------------------------------------------

    def retrieve(self, sentence: Term) -> TruthValue:
        """Exact three-valued read: (0 . 0) for sentences never stored."""
        core, flipped = normalize_negation(sentence)
        fact = self._facts.get(core)
        tv = VACUOUS if fact is None else fact.tv
        return negate(tv) if flipped else tv

    def _match(self, pattern: Term, variables: tuple) -> list:
        """(sentence, live entry, values) for each stored fact
        ``pattern`` matches: the one match against the store. A ground
        pattern is one probe, with values None; an open one is compiled
        (once while it stays in a bounded cache) and run over the entries
        it meets, giving the values of ``variables`` (None where
        absent)."""
        if is_ground(pattern):
            fact = self._facts.get(pattern)
            return [] if fact is None else [(pattern, fact, None)]
        candidates = self._fact_index.meeting(pattern)
        if not candidates:
            return []
        matcher = open_matcher(pattern, variables)
        return [(f.sentence, f, values) for f in candidates if (values := matcher(f.sentence)) is not None]

    def lookup(self, pattern: Term, tag: str = "t", cutoff: float = 1.0):
        """Stored-fact query: every binding whose tagged value reaches
        the cutoff.

        The pattern may carry tag wrappers, e.g. looking up
        ``(not (foo fred))`` is looking up ``(foo fred)`` under the
        ``not`` tag. Sentences never stored yield no answers. Answers
        come in store order, each bindings dict giving the pattern's
        variables by name; a bad tag or cutoff raises before the store
        is read, even when nothing matches.

        Cost: one probe for a ground pattern. An open one runs one scan,
        compiled once per pattern and tag while it stays in a bounded
        cache (see `terms.compile_scan`), over the live entries it meets:
        it projects each entry's pooled pair and tests the cutoff first,
        then matches the sentence inline, and builds a bindings dict only
        for the facts kept.
        """
        core, tag = unwrap_query(pattern, tag)
        if is_ground(core):
            fact = self._facts.get(core)
            return tagged_answers(() if fact is None else (({}, fact.tv),), tag, cutoff)
        check_cutoff(cutoff)
        return open_scan(core, TAG_PROJECTIONS[tag])(self._fact_index.meeting(core), cutoff)

    # -- rules, clauses, control ----------------------------------------------

    def add_rule(self, premise: Term, consequence: Term, rule_tv: TruthValue) -> Rule:
        """Store a rule, then fire it on everything already present, as a
        batch whose one new rule it is (see `load`). Unless the rule may be
        in a cycle and has stored instances, it fires alone, and the rule
        graph's components are computed only once a change it makes has a
        reader (see `forward.Batch.run`)."""
        rule = self._file_rule(premise, consequence, rule_tv)
        forward.Batch(self, len(self.rules) - 1).run()
        return rule

    def _file_rule(self, premise: Term, consequence: Term, rule_tv: TruthValue) -> Rule:
        """Make a rule and file it in ``rules`` and both rule indexes,
        without firing it."""
        rule = make_rule(f"r{len(self.rules) + 1}", premise, consequence, rule_tv)
        self.rules.append(rule)
        for core, _positive in rule.conjuncts:
            self._rule_premises.file(core, rule)
        self._rule_consequences.file(rule.consequence, rule)
        self._touching = {}
        self._goals = None
        return rule

    def add_clause(self, literals, tv: TruthValue):
        clause = Clause.make(literals, tv, support=frozenset({f"c{len(self.clauses) + 1}"}))
        self.clauses.append(clause)
        return clause

    def saturation(self, atom: Term | None = None) -> dict:
        """The clause set closed under resolution with ``self.config``,
        as literal set -> its group (see `resolution.saturate_groups`).

        Clauses that share an atom are connected, and each connected
        component has its own `resolution.Closure`: a resolvent's atoms
        come from its parents, so no clause outside a component ever meets
        one inside it, and the merged closures equal the closure of the
        whole set. The KB keeps the partition. `add_clause` only appends;
        the next call adds each new clause to the closure of the
        component it joins, the largest absorbing any others it links,
        and resumes each closure given a clause. All closures write their
        groups into one map, which every call returns, updated in place,
        until a different config drops the partition. Callers must not
        modify it.

        A closure stopped by a round bound (the KB sets none) keeps its
        IterationBoundExceeded until a clause joins it, which resumes its
        loop where it stopped, or the config changes. A call raises it if
        ``atom``'s component failed, or, without ``atom``, if any did,
        with every component's groups as ``partial``: the closure of each
        that settled and the groups so far of each that did not, as one
        loop over the whole set would have left them.
        """
        if self._partitioned != len(self.clauses):
            self._take_in_clauses()
        if self._failures and (atom is None or self._component_of.get(atom) in self._failures):
            raise IterationBoundExceeded(str(next(iter(self._failures.values()))), partial=dict(self._groups))
        return self._groups

    def _drop_partition(self):
        # the partition of self.clauses[:self._partitioned] (atom -> the
        # Closure of its component), every closure's groups in one map,
        # and each closure whose loop raised -> that IterationBoundExceeded
        self._partitioned, self._component_of, self._groups, self._failures = 0, {}, {}, {}

    def _take_in_clauses(self):
        component_of, touched = self._component_of, {}
        for clause in self.clauses[self._partitioned :]:
            joined = {component_of[atom]: None for atom, _positive in clause.literals if atom in component_of}
            into = max(joined, key=lambda c: len(c.atoms), default=None) or Closure(self._groups)
            for other in joined:
                self._failures.pop(other, None)
                if other is not into:
                    into.absorb(other)
                    component_of.update(dict.fromkeys(other.atoms, into))
                    touched.pop(other, None)
            into.add([clause])
            component_of.update((atom, into) for atom, _positive in clause.literals)
            touched[into] = None
        self._partitioned = len(self.clauses)
        for closure in touched:
            try:
                saturate_groups((), self.config, closure=closure)
            except IterationBoundExceeded as exc:
                self._failures[closure] = exc
            except BaseException:
                self._drop_partition()  # a closure left half extended
                raise

    # -- goal table -------------------------------------------------------------

    def goal_table(self, priority_fn) -> dict:
        """Backward chaining's proved goals under ``self.config`` and
        ``priority_fn``: canonical goal key -> its answers, the
        (ground instance, tv) pairs.

        Backward chaining reads only rules, the config, the agenda order
        and base evidence, so an entry stays right until one of them
        changes. A new rule, a different config or a different priority
        function starts an empty table; `stash` and `set_truth`, the only
        writers of base evidence, drop the entries that depended on the
        sentence written (see `_forget`). The caller files entries with
        `table_goal` and must not modify them.
        """
        goals = self._goals
        if goals is None or goals[0] != priority_fn:
            goals = self._goals = (priority_fn, {}, {})
        return goals[1]

    def table_goal(self, key: Term, answers: list | None, subgoals):
        """File goal ``key`` as a dependent of its read of the store and
        of each goal key in ``subgoals``, then table ``answers`` under it
        in the table `goal_table` last returned, unless they are None. A
        ground goal reads its own store entry, an open one the facts it
        meets (every fact for one with no index key, filed under None).
        A goal is filed even when its answers are not tabled, so that an
        entry that used it is dropped through it."""
        _priority_fn, table, dependents = self._goals
        for read in (key if is_ground(key) else index_key(key), *subgoals):
            dependents.setdefault(read, {})[key] = None
        if answers is not None:
            table[key] = answers

    def _forget(self, core: Term):
        """Drop the tabled goals that depended on the base evidence of
        ``core``: those filed under the sentence, its index key or None,
        then, edge by edge, those filed under a goal met. Each filing
        walked is removed, and none otherwise, so a stale one may drop an
        entry that no longer reads the sentence, which costs only a miss."""
        if self._goals is None:
            return
        _priority_fn, table, dependents = self._goals
        reads = [core, index_key(core), None]
        while reads:
            for key in dependents.pop(reads.pop(), ()):
                table.pop(key, None)
                reads.append(key)

    def add_control(self, pattern: Term, method: str) -> ControlEntry:
        """Append a control entry, compiled and filed by its pattern; an
        unknown method raises ValueError and adds nothing."""
        sexpr.check_method(method)
        canonical = canonical_form(pattern)
        row = (canonical, compile_matcher(canonical, ()), method)
        self._dispatch.append(row)
        self._control_index.file(canonical, row)
        entry = ControlEntry(pattern, method)
        self.control_entries.append(entry)
        return entry

    def dispatch(self, goal: Term) -> str | None:
        """Method named by the first control entry matching the goal.

        Only the entries whose patterns meet the goal (see
        `terms.TermIndex`) are tried, in the order they were added. A
        ground goal runs each entry's compiled matcher; an open goal
        unifies with its canonical pattern."""
        ground = is_ground(goal)
        for pattern, match, method in self._control_index.meeting(goal):
            # a match is (), which is false
            if (match(goal) if ground else unify(pattern, goal, {})) is not None:
                return method
        return None

    # -- rule indexes -----------------------------------------------------------

    def rules_touching(self, sentence: Term) -> tuple:
        """Rules with a premise conjunct that meets the ground
        ``sentence``, in the order they were added (see `_reading`)."""
        return self._reading(sentence)[0]

    def _reading(self, sentence: Term) -> tuple:
        """(`rules_touching`, their component numbers ascending) of a
        ground sentence, kept per index key until a rule is added. The
        components are computed only when there is such a rule."""
        entry = self._touching.get(key := index_key(sentence))
        if entry is None:
            rules = tuple(self._rule_premises.meeting(sentence))
            entry = self._touching[key] = rules, tuple(sorted({self._component_numbers()[r] for r in rules}))
        return entry

    def rules_concluding(self, goal: Term) -> list[Rule]:
        """Rules whose consequence meets ``goal``, in the order added."""
        return list(self._rule_consequences.meeting(goal))

    def _rule_components(self) -> list:
        """The strongly connected components of the rule graph, as
        (rule positions ascending, cyclic) pairs, each after every
        component that feeds it.

        The graph has an edge from rule a to rule b when a's consequence
        meets a premise conjunct of b (see `terms.TermIndex`), as it must
        to match one. A component is cyclic when it holds more than one
        rule or its rule feeds itself. Tarjan's algorithm (1972) runs over
        each rule's feeders, on an explicit stack, from the first rule on
        and in rule order, so ties go by rule position. The result is
        kept until a rule is added.
        """
        n = len(self.rules)
        if self._components[0] == n:  # rules are only ever appended
            return self._components[1]
        position, concluding = {rule: i for i, rule in enumerate(self.rules)}, self._rule_consequences.meeting
        feeders = [[position[r] for core, _ in rule.conjuncts for r in concluding(core)] for rule in self.rules]
        # DFS number (n + its component's number once that is out) and low-link
        number, low = [-1] * n, [0] * n
        stack, work, components, numbering = [], [], [], count()

        def push(v):
            number[v] = low[v] = next(numbering)
            stack.append(v)
            work.append((v, iter(feeders[v])))

        for root in range(n):
            if number[root] < 0:
                push(root)
            while work:
                v, edges = work[-1]
                for w in edges:
                    if number[w] < 0:
                        push(w)
                        break
                    low[v] = min(low[v], number[w])
                else:
                    work.pop()
                    if work:
                        low[work[-1][0]] = min(low[work[-1][0]], low[v])
                    if low[v] == number[v]:
                        component = [stack.pop()]
                        while component[-1] != v:
                            component.append(stack.pop())
                        for w in component:
                            number[w] = n + len(components)  # out, and n + its component's number
                        components.append((sorted(component), len(component) > 1 or v in feeders[v]))
        self._components = (n, components, {rule: k - n for rule, k in zip(self.rules, number)})
        return components

    def _component_numbers(self) -> dict:
        """Each rule's position in `_rule_components`, by rule."""
        self._rule_components()
        return self._components[2]

    # -- justification ledger -------------------------------------------------

    def record_justification(self, j: forward.Justification, values: tuple):
        """File a firing record under its rule and instance values."""
        key = (j.rule_id, values)
        self._ledger[key] = j
        for index, atoms in ((self._by_consequence, (j.consequence,)), (self._by_premise, j.premises)):
            for atom in atoms:
                index.setdefault(atom, {})[key] = None

    def find_justification(self, rule_id: str, values: tuple) -> forward.Justification | None:
        """The live record of a rule instance, given by its instance values."""
        return self._ledger.get((rule_id, values))

    def retract_justification(self, rule_id: str, values: tuple) -> TruthValue:
        """Remove a firing record, returning its contribution for inversion."""
        key = (rule_id, values)
        j = self._ledger.pop(key, None)
        if j is None:
            raise NotFound(f"no justification for {rule_id} at {values}")
        for index, atoms in ((self._by_consequence, (j.consequence,)), (self._by_premise, j.premises)):
            for atom in atoms:
                refs = index.get(atom)
                if refs is not None:
                    refs.pop(key, None)
                    if not refs:
                        del index[atom]
        return j.contribution

    def _justifications_for(self, consequence: Term):
        return [self._ledger[k] for k in self._by_consequence.get(consequence, ())]

    def pooled_value(self, core: Term, base: TruthValue | None = None, exclude=None) -> TruthValue:
        """``base`` combined with every live contribution to ``core``
        except ``exclude``, in one fixed order.

        ``base`` defaults to the stored base evidence, which makes this
        an exact rebuild of the entry's pooled value.
        """
        if base is None:
            fact = self._facts.get(core)
            base = VACUOUS if fact is None else fact.base
        for j in self._justifications_for(core):
            if j is not exclude:
                base = combine(base, j.contribution)
        return base

    def why(self, sentence: Term):
        """Live justifications whose consequence matches the sentence,
        by rule id and then bindings, read off the consequence index of
        each stored fact it matches (a live consequence is stored)."""
        core, _ = normalize_negation(sentence)
        found = []
        for stored, _fact, _values in self._match(core, ()):
            found += self._justifications_for(stored)
        return sorted(found, key=lambda j: (j.rule_id, format_bindings(j.bindings)))

    # -- loading ----------------------------------------------------------------

    def set_variable(self, name: str, value: float):
        """Adjust one engine threshold by its surface name."""
        if name not in ENGINE_VARIABLES:
            raise ValueError(f"unknown variable {name!r}; expected one of {', '.join(ENGINE_VARIABLES)}")
        self.config = self.config.copy(**{ENGINE_VARIABLES[name]: value})

    def load(self, statements):
        """Apply parsed statements in batches, split at each ``setvar``,
        which applies where it stands.

        Within a batch, rules are filed, clauses and control rows added
        and facts stored, all in file order, with no chaining; rule ids,
        clause labels and the rule indexes are as if each were added on
        its own. Then the batch fires, as every write does: `stash` and
        `set_truth` run a batch of one sentence and `add_rule` one of one
        rule (see `forward.Batch`). It visits only the strongly connected
        components of the rule graph that hold a new rule or read a
        changed sentence, one at a time, in a topological order (see
        `_rule_components`): a rule new in the batch fires on all its
        stored instances, a rule stored before it only on the instances
        that sentences the batch changed seed. So on an acyclic rule set
        every instance is applied once, on final premise values, whatever
        the order of the statements. A new rule with no stored
        instance is not compiled (see `Rule`). The rules of a cyclic
        component fire in file order, in waves, each on the instances that
        the last wave's changes seed, until a wave changes nothing.

        Each sentence the batch changes has a derivation depth: 0 for a
        fact of the batch, and for a consequence 1 more than its deepest
        changed premise, kept as the deepest seen. A depth that reaches
        ``max_chain_depth`` raises DepthExceeded; on a chain, that is the
        chain's length, and in a cycle it bounds the waves.

        A batch is not all-or-nothing. An error while it is read fires
        the statements read before it, as if the batch ended there; an
        error while it fires leaves the batch's statements stored and the
        firings before the error applied.
        """
        statements = iter(statements)
        while (setvar := self._load_batch(statements)) is not None:
            self.set_variable(setvar.name, setvar.value)

    def _load_batch(self, statements):
        """Read statements up to the next ``setvar`` (returned; None at
        the end), then fire the rules on them (see `load`)."""
        first_rule, stored = len(self.rules), []
        try:
            for stmt in statements:
                if isinstance(stmt, sexpr.FactStatement):
                    core = self._store(stmt.sentence, stmt.tv)
                    if core is not None:
                        stored.append(core)
                elif isinstance(stmt, sexpr.RuleStatement):
                    self._file_rule(stmt.premise, stmt.consequence, stmt.tv)
                elif isinstance(stmt, sexpr.ClauseStatement):
                    self.add_clause(stmt.literals, stmt.tv)
                elif isinstance(stmt, sexpr.ControlStatement):
                    self.add_control(stmt.pattern, stmt.method)
                elif isinstance(stmt, sexpr.SetVarStatement):
                    return stmt
                else:
                    raise TypeError(f"not a statement: {stmt!r}")
            return None
        finally:
            # noted once every rule is filed, so that each queues its readers
            forward.Batch(self, first_rule, stored).run()

    def load_text(self, text: str):
        self.load(sexpr.parse_kb(text))

    def load_file(self, path):
        with open(path, "r", encoding="utf-8") as handle:
            self.load_text(handle.read())

    def _emit(self, line: str):
        if self.trace is not None:
            self.trace(line)

    def facts(self):
        """Snapshot of (sentence, `FactRecord`) pairs in insertion order,
        which later writes leave as they are."""
        return [(f.sentence, FactRecord(f.base, f.tv)) for f in self._facts.values()]
