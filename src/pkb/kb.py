"""The probabilistic database.

Facts are stored once, under their negation-normalized core: asserting
``(not s)`` with value (a . b) stores ``s`` with (b . a), so a sentence
and its negation always describe one truth value. Each entry keeps two
pairs: ``base``, the evidence asserted directly about the sentence, and
``tv``, the base pooled with every live rule contribution. Rule firings
are recorded in a justification ledger keyed by (rule, ground bindings),
which is what allows a stale contribution to be removed exactly when
its premise changes.

Two assertion operations are provided because both behaviors are
needed: `stash` treats its argument as a new independent evidence
source and combines it in; `set_truth` replaces the directly asserted
evidence outright. Both trigger forward chaining on the resulting
change.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from . import sexpr
from .errors import NotFound, RangeError
from .resolution import Clause, saturate_groups
from .terms import (
    Bindings,
    Compound,
    Symbol,
    Term,
    format_bindings,
    is_ground,
    match,
    normalize_negation,
    rename_apart,
    unify,
    variables_in,
)
from .truth import (
    TAG_DUAL,
    TAG_NAMES,
    VACUOUS,
    EngineConfig,
    TruthValue,
    apply_tag,
    combine,
    delta_mass,
    negate,
)

_AND = Symbol("and")


@dataclass
class FactRecord:
    """One stored sentence: direct evidence and the pooled value."""

    base: TruthValue
    tv: TruthValue


@dataclass
class Rule:
    """A conditional ``premise -> consequence`` carrying its own truth pair.

    The pair is the value the consequence earns when the premise holds
    outright; partial premises scale it down. A consequence written as
    ``(not c)`` is stored as ``c`` with the pair swapped.
    """

    id: str
    premise: Term
    consequence: Term
    rule_tv: TruthValue
    conjuncts: tuple  # of (core, positive) pairs


@dataclass
class Justification:
    """Record of one rule firing, precise enough to retract it later."""

    rule_id: str
    bindings: Bindings
    premise_tv_at_firing: TruthValue
    contribution: TruthValue
    consequence: Term
    premises: tuple = ()  # ground premise atoms, one per conjunct


@dataclass(frozen=True)
class ControlEntry:
    """Meta-level directive: goals matching ``pattern`` use ``method``.

    Entries are tried in the order they were added.
    """

    pattern: Term
    method: str
    # ``pattern`` renamed apart once, so dispatch unifies without a fresh copy per goal
    _renamed: Term = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        (renamed,) = rename_apart([self.pattern])
        object.__setattr__(self, "_renamed", renamed)


def binding_key(bindings: Bindings) -> tuple:
    """Hashable canonical key for a ground binding set."""
    return tuple(sorted(((v.name, t) for v, t in bindings.items()), key=lambda i: i[0]))


def make_rule(rule_id: str, premise: Term, consequence: Term, rule_tv: TruthValue) -> Rule:
    """Normalize and validate a rule.

    Splits an ``(and ...)`` premise into conjuncts, rewrites a negated
    consequence into core + swapped pair, and checks that firing the
    premise grounds the consequence.
    """
    cons_core, flipped = normalize_negation(consequence)
    if flipped:
        rule_tv = negate(rule_tv)
    if isinstance(premise, Compound) and premise.elements[0] == _AND:
        parts = premise.elements[1:]
        if not parts:
            raise ValueError("empty (and) premise")
    else:
        parts = (premise,)
    conjuncts = []
    premise_vars = set()
    for part in parts:
        core, neg = normalize_negation(part)
        conjuncts.append((core, not neg))
        premise_vars |= variables_in(core)
    missing = variables_in(cons_core) - premise_vars
    if missing:
        names = ", ".join(sorted("$" + v.name for v in missing))
        raise ValueError(f"rule {rule_id}: consequence variables {names} not bound by the premise")
    return Rule(rule_id, premise, cons_core, rule_tv, tuple(conjuncts))


def unwrap_query(pattern: Term, tag: str = "t") -> tuple[Term, str]:
    """Fold tag wrappers on a query pattern into an effective tag.

    ``(not p)`` flips the tag to its dual; an outer ``(unknown p)``,
    ``(poss p)`` etc. names the tag directly. Unwrapping stops when a
    wrapper cannot be folded into the tag accumulated so far.
    """
    while (
        isinstance(pattern, Compound)
        and len(pattern.elements) == 2
        and isinstance(pattern.elements[0], Symbol)
        and pattern.elements[0].name in TAG_NAMES
    ):
        name = pattern.elements[0].name
        if name == "not":
            tag = TAG_DUAL[tag]
        elif tag == "t":
            tag = name
        elif tag == "not":
            tag = TAG_DUAL[name]
        else:
            break
        pattern = pattern.elements[1]
    return pattern, tag


def _index_key(sentence: Term):
    if isinstance(sentence, Compound) and isinstance(sentence.elements[0], Symbol):
        return (sentence.elements[0].name, len(sentence.elements))
    if isinstance(sentence, Symbol):
        return (sentence.name, 0)
    return None


class KnowledgeBase:
    """Facts, rules, clauses, control entries and the justification ledger."""

    def __init__(self, config: EngineConfig | None = None, trace=None):
        self.config = config or EngineConfig()
        self.trace = trace  # callable taking one line of text, or None
        self._facts: dict[Term, FactRecord] = {}
        self._index: dict = {}
        self.rules: list[Rule] = []
        # index key -> positions in self.rules, by premise conjunct and by
        # consequence; None holds rules whose indexed term has a variable head
        self._rules_by_key: dict = {}
        self._rules_by_consequence: dict = {}
        self.clauses: list = []
        # (clause count, config copy, saturated clause groups)
        self._saturation: tuple | None = None
        self.control_entries: list[ControlEntry] = []
        self._ledger: dict[tuple, Justification] = {}
        self._by_consequence: dict[Term, set] = {}
        # ground premise atom -> {ledger key: None}, in ledger order
        self._by_premise: dict[Term, dict] = {}
        self._rule_count = 0
        self._clause_count = 0

    # -- storage ------------------------------------------------------------

    def _normalize(self, sentence: Term, tv: TruthValue) -> tuple[Term, TruthValue]:
        core, flipped = normalize_negation(sentence)
        if not is_ground(core):
            raise ValueError(f"cannot store non-ground sentence {core}")
        if not (isinstance(core, Symbol) or (isinstance(core, Compound) and isinstance(core.elements[0], Symbol))):
            raise ValueError(f"not a sentence: {core}")
        return core, (negate(tv) if flipped else tv)

    def _write(self, core: Term, record: FactRecord):
        if record.tv.is_vacuous() and record.base.is_vacuous():
            self._drop(core)
            return
        if core not in self._facts:
            self._index.setdefault(_index_key(core), {})[core] = None
        self._facts[core] = record

    def _drop(self, core: Term):
        if core in self._facts:
            del self._facts[core]
            bucket = self._index.get(_index_key(core))
            if bucket is not None:
                bucket.pop(core, None)

    def stash(self, sentence: Term, tv: TruthValue):
        """Combine a new piece of evidence into the sentence's entry."""
        core, tv = self._normalize(sentence, tv)
        if tv.is_vacuous():
            return
        record = self._facts.get(core)
        if record is None:
            record = FactRecord(VACUOUS, VACUOUS)
        old = record.tv
        new = combine(old, tv)
        self._write(core, FactRecord(combine(record.base, tv), new))
        self._changed(core, old, new)

    def set_truth(self, sentence: Term, tv: TruthValue):
        """Replace the directly asserted evidence for the sentence.

        Rule contributions recorded in the ledger stay in force; the
        entry's pooled value is rebuilt from the new base plus those
        contributions, and the change is propagated forward.
        """
        core, tv = self._normalize(sentence, tv)
        record = self._facts.get(core)
        old = record.tv if record else VACUOUS
        new = self.pooled_value(core, tv)
        self._write(core, FactRecord(tv, new))
        if delta_mass(old, new) > 0.0:
            self._changed(core, old, new)

    def _set_combined(self, core: Term, new_tv: TruthValue):
        """Adjust an entry's pooled value (chaining only; base unchanged)."""
        record = self._facts.get(core)
        base = record.base if record else VACUOUS
        self._write(core, FactRecord(base, new_tv))

    def _changed(self, core: Term, old: TruthValue, new: TruthValue, depth: int = 0):
        from .forward import propagate_change

        propagate_change(self, core, old, new, self.config, depth)

    # -- reads --------------------------------------------------------------

    def retrieve(self, sentence: Term) -> TruthValue:
        """Exact three-valued read: (0 . 0) for sentences never stored."""
        core, flipped = normalize_negation(sentence)
        record = self._facts.get(core)
        tv = record.tv if record else VACUOUS
        return negate(tv) if flipped else tv

    def retrieve_core(self, core: Term) -> TruthValue:
        record = self._facts.get(core)
        return record.tv if record else VACUOUS

    def _candidates(self, pattern: Term):
        key = _index_key(pattern)
        if key is None:
            return list(self._facts)
        return list(self._index.get(key, ()))

    def match_facts(self, pattern: Term, use_base: bool = False):
        """Bindings and truth values of every stored fact unifying with
        ``pattern`` (no tag filtering).

        Stored facts are ground, so a ground pattern is one probe and an
        open one is matched one way against each candidate.
        """
        if is_ground(pattern):
            record = self._facts.get(pattern)
            if record is None:
                return []
            return [({}, record.base if use_base else record.tv)]
        out = []
        for sentence in self._candidates(pattern):
            theta = match(pattern, sentence, {})
            if theta is None:
                continue
            record = self._facts[sentence]
            out.append((theta, record.base if use_base else record.tv))
        return out

    def lookup(self, pattern: Term, tag: str = "t", cutoff: float = 1.0):
        """Stored-fact query: every binding whose tagged value reaches
        the cutoff.

        The pattern may carry tag wrappers, e.g. looking up
        ``(not (foo fred))`` is looking up ``(foo fred)`` under the
        ``not`` tag. Sentences never stored yield no answers.
        """
        if not 0.0 <= cutoff <= 1.0:
            raise RangeError(f"cutoff must be in [0, 1], got {cutoff!r}")
        core, tag = unwrap_query(pattern, tag)
        answers = []
        for theta, tv in self.match_facts(core):
            value = apply_tag(tag, tv)
            if value >= cutoff:
                answers.append((theta, value))
        return answers

    # -- rules, clauses, control ----------------------------------------------

    def add_rule(self, premise: Term, consequence: Term, rule_tv: TruthValue, rule_id: str | None = None) -> Rule:
        """Store a rule and fire it on everything already present."""
        if rule_id is None:
            self._rule_count += 1
            rule_id = f"r{self._rule_count}"
        rule = make_rule(rule_id, premise, consequence, rule_tv)
        position = len(self.rules)
        for key in {_index_key(core) for core, _ in rule.conjuncts}:
            self._rules_by_key.setdefault(key, []).append(position)
        self._rules_by_consequence.setdefault(_index_key(rule.consequence), []).append(position)
        self.rules.append(rule)
        from .forward import fire_rule

        fire_rule(self, rule, self.config)
        return rule

    def add_clause(self, literals, tv: TruthValue):
        self._clause_count += 1
        clause = Clause.make(literals, tv, support=frozenset({f"c{self._clause_count}"}))
        self.clauses.append(clause)
        return clause

    def saturation(self, config: EngineConfig) -> dict:
        """The clause set closed under resolution with ``config``, as
        literal set -> derivations (see `resolution.saturate_groups`).

        Computed on first use and kept until a clause is added or a
        different config is asked for. A saturation that raises is not
        kept. Callers must not modify the result.
        """
        # Keyed on the clause count rather than cleared by add_clause:
        # freeing a stale closure is then paid by the query that
        # replaces it, not by the write.
        cached = self._saturation
        if cached is None or cached[0] != len(self.clauses) or cached[1] != config:
            cached = (len(self.clauses), replace(config), saturate_groups(self.clauses, config))
            self._saturation = cached
        return cached[2]

    def add_control(self, pattern: Term, method: str) -> ControlEntry:
        entry = ControlEntry(pattern, method)
        self.control_entries.append(entry)
        return entry

    def dispatch(self, goal: Term) -> str | None:
        """Method named by the first control entry matching the goal."""
        for entry in self.control_entries:
            if unify(entry._renamed, goal, {}) is not None:
                return entry.method
        return None

    # -- rule indexes -----------------------------------------------------------

    def _indexed_rules(self, index: dict, key) -> list[Rule]:
        """Rules filed under ``key`` plus the wildcard bucket, in the
        order they were added."""
        positions = index.get(key, [])
        wildcard = index.get(None)
        if wildcard and key is not None:
            positions = sorted(set(positions).union(wildcard))
        return [self.rules[i] for i in positions]

    def rules_touching(self, sentence: Term) -> list[Rule]:
        """Rules with a premise conjunct that may match the ground
        ``sentence``, in the order they were added."""
        return self._indexed_rules(self._rules_by_key, _index_key(sentence))

    def rules_concluding(self, goal: Term) -> list[Rule]:
        """Rules whose consequence may unify with ``goal``, in the order
        they were added. A goal with a variable head may meet any rule."""
        key = _index_key(goal)
        if key is None:
            return list(self.rules)
        return self._indexed_rules(self._rules_by_consequence, key)

    # -- justification ledger -------------------------------------------------

    def record_justification(self, j: Justification):
        key = (j.rule_id, binding_key(j.bindings))
        self._ledger[key] = j
        self._by_consequence.setdefault(j.consequence, set()).add(key)
        for atom in j.premises:
            self._by_premise.setdefault(atom, {})[key] = None

    def find_justification(self, rule_id: str, bindings: Bindings) -> Justification | None:
        return self._ledger.get((rule_id, binding_key(bindings)))

    def retract_justification(self, rule_id: str, bindings: Bindings) -> TruthValue:
        """Remove a firing record, returning its contribution for inversion."""
        key = (rule_id, binding_key(bindings))
        j = self._ledger.pop(key, None)
        if j is None:
            raise NotFound(f"no justification for {rule_id} at {binding_key(bindings)}")
        refs = self._by_consequence.get(j.consequence)
        if refs is not None:
            refs.discard(key)
            if not refs:
                del self._by_consequence[j.consequence]
        for atom in j.premises:
            refs = self._by_premise.get(atom)
            if refs is not None:
                refs.pop(key, None)
                if not refs:
                    del self._by_premise[atom]
        return j.contribution

    def _justifications_for(self, consequence: Term):
        keys = self._by_consequence.get(consequence, ())
        return [self._ledger[k] for k in sorted(keys, key=repr)]

    def justifications_with_premise(self, atom: Term) -> list[Justification]:
        """Live justifications with ``atom`` among their premise atoms,
        in ledger order."""
        return [self._ledger[k] for k in self._by_premise.get(atom, ())]

    def pooled_value(self, core: Term, base: TruthValue | None = None, exclude=None) -> TruthValue:
        """``base`` combined with every live contribution to ``core``
        except ``exclude``, in one fixed order.

        ``base`` defaults to the stored base evidence, which makes this
        an exact rebuild of the entry's pooled value.
        """
        if base is None:
            record = self._facts.get(core)
            base = record.base if record else VACUOUS
        for j in self._justifications_for(core):
            if j is not exclude:
                base = combine(base, j.contribution)
        return base

    def why(self, sentence: Term):
        """Live justifications whose consequence matches the sentence."""
        core, _ = normalize_negation(sentence)
        out = []
        for j in self._ledger.values():
            if unify(core, j.consequence, {}) is not None:
                out.append(j)
        out.sort(key=lambda j: (j.rule_id, format_bindings(j.bindings)))
        return out

    # -- loading ----------------------------------------------------------------

    def set_variable(self, name: str, value: float):
        """Adjust one engine threshold by its surface name."""
        fields = {
            "inference-cutoff": "inference_cutoff",
            "accept-as-true": "accept_as_true",
            "max-chain-depth": "max_chain_depth",
        }
        if name not in fields:
            raise ValueError(f"unknown variable {name!r}; expected one of {', '.join(fields)}")
        if name == "max-chain-depth":
            value = int(value)
        self.config = replace(self.config, **{fields[name]: value})

    def load(self, statements):
        for stmt in statements:
            if isinstance(stmt, sexpr.FactStatement):
                self.stash(stmt.sentence, stmt.tv)
            elif isinstance(stmt, sexpr.RuleStatement):
                self.add_rule(stmt.premise, stmt.consequence, stmt.tv)
            elif isinstance(stmt, sexpr.ClauseStatement):
                self.add_clause(stmt.literals, stmt.tv)
            elif isinstance(stmt, sexpr.ControlStatement):
                self.add_control(stmt.pattern, stmt.method)
            elif isinstance(stmt, sexpr.SetVarStatement):
                self.set_variable(stmt.name, stmt.value)
            else:
                raise TypeError(f"not a statement: {stmt!r}")

    def load_text(self, text: str):
        self.load(sexpr.parse_kb(text))

    def load_file(self, path):
        with open(path, "r", encoding="utf-8") as handle:
            self.load_text(handle.read())

    def _emit(self, line: str):
        if self.trace is not None:
            self.trace(line)

    def facts(self):
        """Snapshot of (sentence, record) pairs in insertion order."""
        return [(s, FactRecord(r.base, r.tv)) for s, r in self._facts.items()]
