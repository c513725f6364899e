"""Ground probabilistic resolution.

A clause is a disjunction of ground literals carrying a truth pair: the
belief that the disjunction holds and the belief that its negation (the
conjunction of the opposite literals) holds. Because the pair carries
information about the clause's negation too, two clauses can be
resolved not only on a shared atom of opposite sign but also on one of
the same sign: both parents failing says something about the resolvent
failing, and exactly one holding says something about it holding.

The resolvent's pair is computed on the joint frame, the model space
over the union of the two parents' atoms. Each parent spreads its mass
over the models satisfying it, the models refuting it, and everything;
the product masses of the nine focal pairs are intersected, empty
intersections are discarded as conflict, and the renormalized mass
entailing the resolvent (or its negation) becomes its belief (or
disbelief). Working with model sets means the two premise conjuncts are
never assumed independent as propositions; they share atoms and the
intersection accounts for it exactly. Only the two evidence sources are
taken as independent. For parents with disjoint, nonempty remainders
this reduces to closed forms: opposite sign on the pivot gives
(a1*a2 / (1 - b1*b2), 0); same sign gives (a1*b2 + b1*a2, b1*b2).

The entailment checks are done symbolically: every focal intersection
is a few tiny clauses plus a conjunction of literals, decided by a
miniature splitting SAT routine rather than by enumerating 2^n models.

`saturate_groups` closes a clause set under both resolution modes with
a given-clause loop (Otter's; semi-naive evaluation). Round k gives
each clause admitted in round k-1 and still alive, and resolves it on
every shared atom against each live clause given before it, which an
atom index supplies; so a pair is resolved once, not once per round.
The input clauses, each round's clauses and each clause's partners are
taken in one canonical order: heavier first, then by printed text, then
by support labels. The result therefore does not depend on the order of
the input. Only clauses equal in mass and text are told apart by their
labels, which a KB assigns in statement order.

Admission: each clause tracks which base clauses support it.
Derivations of one literal set are pooled with `combine` only when
their supports are disjoint (pooled evidence must be independent); a
newcomer overlapping existing derivations replaces them only if it
outweighs each, otherwise it is dropped. A dropped or replaced
derivation is offered again in the round after a clause of its literal
set is replaced, if both its parents are still alive, so at the
fixpoint no live pair yields an admissible resolvent.
`KnowledgeBase.saturation` keeps the result until a clause is added.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cache, cached_property

from .errors import (
    IterationBoundExceeded,
    TautologicalResolvent,
    TotalConflict,
)
from .terms import Term, is_ground, normalize_negation
from .truth import VACUOUS, EngineConfig, TruthValue, apply_tag, combine, negate


@dataclass(frozen=True)
class Clause:
    """Ground disjunction with a truth pair and its supporting sources."""

    literals: frozenset  # of (atom: Term, positive: bool)
    tv: TruthValue
    support: frozenset

    @staticmethod
    def make(literals, tv: TruthValue, support=frozenset()) -> "Clause":
        lits = frozenset(literals)
        if not lits:
            raise ValueError("a clause needs at least one literal")
        atoms = set()
        for atom, _positive in lits:
            if not is_ground(atom):
                raise ValueError(f"clause atoms must be ground, got {atom}")
            if atom in atoms:
                raise TautologicalResolvent(f"clause contains {atom} with both signs")
            atoms.add(atom)
        return Clause(lits, tv, frozenset(support))

    def atoms(self) -> frozenset:
        return self._atoms

    @cached_property
    def _atoms(self) -> frozenset:
        return frozenset(atom for atom, _ in self.literals)

    def __str__(self):
        lits = sorted(self.literals, key=lambda l: (str(l[0]), not l[1]))
        body = " ".join(str(a) if pos else f"(not {a})" for a, pos in lits)
        return f"(clause (or {body}) {self.tv})"


def _negation_cube(literals) -> frozenset:
    return frozenset((atom, not positive) for atom, positive in literals)


def _satisfiable(clauses, cube) -> bool:
    """Is (AND of clauses) AND (AND of cube literals) satisfiable?"""
    assignment = {}
    for atom, positive in cube:
        if assignment.setdefault(atom, positive) != positive:
            return False
    reduced = []
    for clause in clauses:
        remaining = []
        satisfied = False
        for atom, positive in clause:
            if atom in assignment:
                if assignment[atom] == positive:
                    satisfied = True
                    break
            else:
                remaining.append((atom, positive))
        if satisfied:
            continue
        if not remaining:
            return False
        reduced.append(remaining)
    return _split(reduced)


def _split(clauses) -> bool:
    if not clauses:
        return True
    atom, positive = clauses[0][0]
    for choice in (positive, not positive):
        simplified = []
        dead = False
        for clause in clauses:
            if (atom, choice) in clause:
                continue
            rest = [lit for lit in clause if lit[0] != atom]
            if not rest:
                dead = True
                break
            simplified.append(rest)
        if not dead and _split(simplified):
            return True
    return False


def resolve(c1: Clause, c2: Clause, on: Term) -> Clause:
    """Resolve two ground clauses on a shared atom.

    Handles both modes: if the atom appears with opposite signs this is
    ordinary resolution; with the same sign it is the negative-side
    inference described in the module docstring. Raises
    TautologicalResolvent when the remaining literals contain a
    complementary pair and TotalConflict when the parents' masses are
    entirely contradictory.
    """
    if on not in c1.atoms() or on not in c2.atoms():
        raise ValueError(f"{on} does not occur in both clauses")
    resolvent = frozenset(
        lit for lit in (c1.literals | c2.literals) if lit[0] != on
    )
    if not resolvent:
        raise ValueError("empty resolvent")
    seen = set()
    for atom, _positive in resolvent:
        if atom in seen:
            raise TautologicalResolvent(f"resolvent contains {atom} with both signs")
        seen.add(atom)

    tv = _joint_frame_tv(c1, c2, resolvent)
    return Clause(resolvent, tv, c1.support | c2.support)


def _joint_frame_tv(c1: Clause, c2: Clause, resolvent) -> TruthValue:
    """Mass-product combination of the parents, read off the resolvent."""
    not_resolvent = _negation_cube(resolvent)
    focals1 = (
        ((c1.literals,), frozenset(), c1.tv.belief),
        ((), _negation_cube(c1.literals), c1.tv.disbelief),
        ((), frozenset(), c1.tv.unknown),
    )
    focals2 = (
        ((c2.literals,), frozenset(), c2.tv.belief),
        ((), _negation_cube(c2.literals), c2.tv.disbelief),
        ((), frozenset(), c2.tv.unknown),
    )
    belief = 0.0
    disbelief = 0.0
    conflict = 0.0
    for clauses1, cube1, w1 in focals1:
        if w1 == 0.0:
            continue
        for clauses2, cube2, w2 in focals2:
            if w2 == 0.0:
                continue
            weight = w1 * w2
            clauses = list(clauses1) + list(clauses2)
            cube = cube1 | cube2
            if not _satisfiable(clauses, cube):
                conflict += weight
            elif not _satisfiable(clauses, cube | not_resolvent):
                belief += weight
            elif not _satisfiable(clauses + [resolvent], cube):
                disbelief += weight
    if conflict >= 1.0:
        raise TotalConflict(f"resolving {c1} with {c2} leaves no consistent mass")
    norm = 1.0 - conflict
    return TruthValue(belief / norm, disbelief / norm)


def _admit(groups: dict, candidate: Clause) -> bool:
    """Store a derivation under the double-counting policy.

    Derivations of one literal set are kept pairwise support-disjoint:
    a newcomer overlapping existing ones replaces them only if it
    outweighs each, otherwise it is dropped.
    """
    group = groups.setdefault(candidate.literals, [])
    overlapping = [c for c in group if c.support & candidate.support]
    if overlapping:
        if all(candidate.tv.mass > c.tv.mass for c in overlapping):
            for c in overlapping:
                group.remove(c)
            group.append(candidate)
            return True
        return False
    group.append(candidate)
    return True


def _alive(groups: dict, clause: Clause) -> bool:
    return any(c is clause for c in groups.get(clause.literals, ()))


def _canonical_key(clause: Clause):
    return (-clause.tv.mass, str(clause), sorted(clause.support))


def saturate_groups(clauses, config: EngineConfig, max_rounds: int = 100) -> dict:
    """Close a ground clause set under resolution.

    Returns literal set -> admitted derivations (see the module
    docstring for the loop). Raises IterationBoundExceeded, with the
    groups so far as its partial value, when round ``max_rounds`` still
    admits something.
    """
    key = cache(_canonical_key)
    groups: dict = {}
    offered: dict = {}  # literal set -> every (clause, parents) offered for it
    given: dict = {}  # atom -> clauses given so far that contain it
    admitted: list = []
    reopened: set = set()  # literal sets that lost a clause

    def admit(clause):
        size = len(groups.get(clause.literals, ()))
        if _admit(groups, clause):
            admitted.append(clause)
            if len(groups[clause.literals]) <= size:  # it displaced something
                reopened.add(clause.literals)

    def offer(clause, parents):
        offered.setdefault(clause.literals, []).append((clause, parents))
        admit(clause)

    for clause in sorted(clauses, key=key):
        offer(clause, ())
    for rounds in itertools.count():
        delta = sorted((c for c in admitted if _alive(groups, c)), key=key)
        retry = sorted(
            (
                c
                for literals in reopened
                for c, parents in offered[literals]
                if not _alive(groups, c) and all(_alive(groups, p) for p in parents)
            ),
            key=key,
        )
        if not delta and not retry:
            return groups
        if rounds == max_rounds:
            raise IterationBoundExceeded(f"no fixpoint after {max_rounds} rounds", partial=groups)
        admitted.clear()
        reopened.clear()
        for clause in retry:
            admit(clause)
        for clause in delta:
            if not _alive(groups, clause):
                continue
            partners = {id(p): p for atom in clause.atoms() for p in given.get(atom, ())}
            for partner in sorted(partners.values(), key=key):
                if not _alive(groups, partner):
                    continue
                for atom in sorted(clause.atoms() & partner.atoms(), key=str):
                    try:
                        candidate = resolve(clause, partner, atom)
                    except (TautologicalResolvent, TotalConflict, ValueError):
                        continue
                    if candidate.tv.mass == 0.0 or candidate.tv.mass < config.inference_cutoff:
                        continue
                    offer(candidate, (clause, partner))
            for atom in clause.atoms():
                given.setdefault(atom, []).append(clause)


def saturate(
    clauses,
    target,
    config: EngineConfig | None = None,
    max_rounds: int = 100,
) -> TruthValue:
    """Close a ground clause set under resolution and read off a target.

    ``target`` is a Clause or an iterable of literals; the return value
    is the pooled truth value of derivations with exactly that literal
    set, vacuous if it was never derived. Resolvents carrying less mass
    than the inference cutoff (or none at all) are discarded. Raises
    IterationBoundExceeded (with the partial target value attached) if
    the set refuses to settle within ``max_rounds`` rounds.
    """
    config = config or EngineConfig()
    if isinstance(target, Clause):
        target_lits = target.literals
    else:
        target_lits = frozenset(target)
    try:
        groups = saturate_groups(clauses, config, max_rounds)
    except IterationBoundExceeded as exc:
        raise IterationBoundExceeded(
            str(exc), partial=_read_off(exc.partial, target_lits)
        ) from None
    return _read_off(groups, target_lits)


def _read_off(groups, target_lits) -> TruthValue:
    tv = VACUOUS
    for clause in groups.get(target_lits, ()):
        tv = combine(tv, clause.tv)
    return tv


def prove_by_resolution(kb, goal, tag, cutoff, config: EngineConfig | None = None):
    """Answer a ground single-literal goal from the KB's clause set.

    Evidence derived for the unit clause of the goal's atom and for the
    complementary unit clause both count: a derivation of the opposite
    unit is the same information with the pair swapped. The two kinds
    are pooled under the usual disjoint-support policy. The saturated
    clause set comes from the KB's cache (`KnowledgeBase.saturation`).
    """
    core, flipped = normalize_negation(goal)
    if not is_ground(core):
        raise ValueError(f"resolution needs a ground goal, got {goal}")
    config = config or kb.config
    groups = kb.saturation(config)
    wanted = frozenset({(core, not flipped)})
    opposite = frozenset({(core, flipped)})
    pooled: dict = {}
    for clause in groups.get(wanted, ()):
        _admit(pooled, clause)
    for clause in groups.get(opposite, ()):
        _admit(pooled, Clause(wanted, negate(clause.tv), clause.support))
    tv = _read_off(pooled, wanted)
    value = apply_tag(tag, tv)
    if value >= cutoff:
        return [({}, value)]
    return []
