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
taken as independent.

Every focal intersection is decided by three facts about the parents:
whether the pivot has opposite signs in them, and, with rest_i parent
i's literals other than the pivot, sub1 = rest1 <= rest2 and
sub2 = rest2 <= rest1. With focals in the order (belief, disbelief,
unknown):

    opposite sign: (B,B) belief; (B,D), (U,D) disbelief if sub1;
                   (D,B), (D,U) disbelief if sub2; (D,D) conflict
    same sign:     (B,D) conflict if sub1 else belief;
                   (D,B) conflict if sub2 else belief;
                   (D,D) disbelief; (U,D) disbelief if sub1;
                   (D,U) disbelief if sub2
    every other pair decides nothing.

This is exact because the parents are ground and the resolvent
rest1 | rest2 holds no complementary pair. A disbelief focal is a cube
(the pivot literal negated and the negated rest), and a cube entails
another cube only if it contains it; so, for instance, the cube
p & ~rest2 of (U,D) under opposite signs entails ~rest1 & ~rest2
exactly when rest1 <= rest2, and under the same sign the focal
(p | rest1) & ~p & ~rest2 is empty exactly when every literal of rest1
is falsified by ~rest2, again rest1 <= rest2. With disjoint, nonempty
remainders this gives (a1*a2 / (1 - b1*b2), 0) for opposite signs and
(a1*b2 + b1*a2, b1*b2) for the same sign; against a unit parent (p)
at (a1 . b1), (or (not p) r) at (a2 . b2) gives
(a1*a2, (1-b1)*b2) / (1 - b1*b2) and (or p r) gives
(b1*a2, (1-a1)*b2) / (1 - a1*b2).

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
    rest1 = frozenset(lit for lit in c1.literals if lit[0] != on)
    rest2 = frozenset(lit for lit in c2.literals if lit[0] != on)
    resolvent = rest1 | rest2
    if not resolvent:
        raise ValueError("empty resolvent")
    seen = set()
    for atom, _positive in resolvent:
        if atom in seen:
            raise TautologicalResolvent(f"resolvent contains {atom} with both signs")
        seen.add(atom)

    opposite = ((on, True) in c1.literals) != ((on, True) in c2.literals)
    cells = _FOCAL_CELLS[opposite, rest1 <= rest2, rest2 <= rest1]
    tv = _joint_frame_tv(c1, c2, cells)
    return Clause(resolvent, tv, c1.support | c2.support)


_BELIEF, _DISBELIEF, _CONFLICT = range(3)


def _focal_cells(opposite: bool, sub1: bool, sub2: bool) -> tuple:
    """The table of the module docstring for one class of parent pairs.

    Returns (i, j, outcome) for each focal pair that decides something,
    i and j indexing (belief, disbelief, unknown) of parent 1 and 2, in
    row-major order.
    """
    if opposite:
        cells = {(0, 0): _BELIEF, (1, 1): _CONFLICT}
        if sub1:
            cells[0, 1] = _DISBELIEF
        if sub2:
            cells[1, 0] = _DISBELIEF
    else:
        cells = {
            (0, 1): _CONFLICT if sub1 else _BELIEF,
            (1, 0): _CONFLICT if sub2 else _BELIEF,
            (1, 1): _DISBELIEF,
        }
    if sub1:
        cells[2, 1] = _DISBELIEF
    if sub2:
        cells[1, 2] = _DISBELIEF
    return tuple((i, j, cells[i, j]) for i, j in sorted(cells))


_FOCAL_CELLS = {key: _focal_cells(*key) for key in itertools.product((False, True), repeat=3)}


def _joint_frame_tv(c1: Clause, c2: Clause, cells) -> TruthValue:
    """Mass-product combination of the parents over the deciding cells.

    A focal pair of zero weight adds +0.0, which leaves every sum as it
    was, so none is skipped.
    """
    masses1 = (c1.tv.belief, c1.tv.disbelief, c1.tv.unknown)
    masses2 = (c2.tv.belief, c2.tv.disbelief, c2.tv.unknown)
    sums = [0.0, 0.0, 0.0]
    for i, j, outcome in cells:
        sums[outcome] += masses1[i] * masses2[j]
    belief, disbelief, conflict = sums
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
