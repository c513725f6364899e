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

`resolve` sums these cells in closed form and divides by the consistent
mass: 1 - b1*b2 for opposite signs if b1*b2 <= 1/2, else the sum of
the consistent cells, which stays precise near total conflict.

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

`saturate_groups` closes a clause set under both resolution modes.
A derivation is keyed by its literal set and its support (below), and
the closure holds every key with one value:

    an input clause is a key, with its own value;
    (L, S) is a key when two keys with disjoint supports S1 | S2 = S
    resolve, on an atom they share, to a valid resolvent with literal
    set L: not tautological, not in total conflict, and with mass
    above 0 and at least the inference cutoff;
    its value is the resolvent of its canonically least valid pair.

The keys are a least fixpoint of the input, and each value rests only
on keys with smaller supports, so the closure is a function of the
input alone, not of the order anything was derived in.

Canonical order: heavier first, then the literal set, compared by each
atom's printed text (computed once per atom) and sign, then the sorted
support labels. It reads nothing but the key and its value, so it does
not depend on the order of the input; two keys tie only if two of
their atoms print alike. A pair is
ordered by its lesser key, then its greater; the lesser is `resolve`'s
first argument.

The loop settles keys in rounds by support size: round k settles the
keys whose support has k + 1 labels. Every pair of a key has smaller
supports, so by its round all its pairs are known; they are resolved
in canonical order until one is valid, so the calls to `resolve`
follow the keys, not the pairs. Each settled key is then paired,
through an atom index, with every settled key whose support is
disjoint from its own, and the pair is filed under the key it would
resolve to; so each pair is met once (semi-naive evaluation).

Masks: the partner scan meets every settled key that shares an atom,
and most of them share a label too, so it runs on ints, not sets. A
closure writes each key's literal set and support as bitmasks over an
alphabet of its own, assigned in arrival order: each atom two adjacent
bits, its positive literal's and then its negative's, and each support
label one bit. Supports s1 and s2 are disjoint when s1 & s2 is 0; the
resolvent on an atom is (l1 | l2) with the atom's two bits cleared; it
is a tautology when r & (r >> 1) holds a positive literal's bit; and
its support size is the union's bit count. Pending keys are filed under
(literal mask, support mask), and a settled key's clause, with its
frozenset literals and support, is built once, by `resolve`. When a
clause links components, the largest closure absorbs the others and
re-encodes their masks into its alphabet. Merges are rare, and an
alphabet shared by the whole KB would make every mask as wide as the
KB.

Supports: each clause tracks which base clauses support it, its
environment in the ATMS sense (de Kleer 1986); a KB labels each stated
clause on its own. The mass product above is Dempster's rule, which is
sound only for distinct bodies of evidence (Shafer 1976), and the two
parents of a step are its two sources. So only parents with disjoint
supports are resolved: parents sharing a base clause would count it
twice. A resolvent's support is then the disjoint union of its
parents'. With nonempty input supports it is larger than either, and
every derivation is a tree whose leaves are distinct input clauses. A
conclusion that needs some base clause twice is not derived.

Groups: keys of one literal set are pooled with `combine` only when
their supports are disjoint, for the same reason. A literal set's group
is the greedy pick of its keys in canonical order, each key whose
support meets none picked before it, combined in that order.

Resuming: a closure keeps the loop's pending work and takes more
clauses, whose labels it has not seen. A new label appears only in new
keys, and every pair of an old key is old, so no old key or value
changes: the loop resolves only pairs that hold a new key and re-picks
only the literal sets that gained one. A loop the round bound stopped
goes on from that round, so a closure always ends as one loop over all
its input would leave it. `KnowledgeBase.saturation` keeps one closure
per connected component (clauses linked by shared atoms), which gives
the same groups, since keys pair only through shared atoms; a clause
that links components joins the largest, which absorbs the others.

Termination, when every input support is nonempty: a key's support is
a union of input supports, so the keys are finitely many and a support
has no more labels than the input has. With one label per clause, as
a KB gives them, n clauses settle within n rounds, so the loop needs
no round bound and has none by default; a caller may still pass
``max_rounds``. Rounds bound support size, not cost: the keys can still
be many, and one 10-clause set over 6 atoms has 907, against 93 clauses
in its groups.
"""

from __future__ import annotations

from collections import namedtuple
from operator import itemgetter

from .errors import (
    IterationBoundExceeded,
    TautologicalResolvent,
    TotalConflict,
)
from .terms import Term, is_ground, normalize_negation
from .truth import VACUOUS, EngineConfig, TruthValue, combine, negate, tagged_answers, uncommitted


class Clause(namedtuple("Clause", "literals tv support")):
    """Ground disjunction with a truth pair and its supporting sources.

    ``literals`` is a frozenset of (atom, positive) pairs.
    """

    __slots__ = ()

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
    positive = (on, True)
    drop = {positive, (on, False)}
    rest1, rest2 = c1.literals - drop, c2.literals - drop
    if len(rest1) == len(c1.literals) or len(rest2) == len(c2.literals):
        raise ValueError(f"{on} does not occur in both clauses")
    resolvent = rest1 | rest2
    if not resolvent:
        raise ValueError("empty resolvent")
    seen = set()
    for atom, _positive in resolvent:
        if atom in seen:
            raise TautologicalResolvent(f"resolvent contains {atom} with both signs")
        seen.add(atom)

    opposite = (positive in c1.literals) != (positive in c2.literals)
    tv = _resolvent_tv(c1, c2, opposite, rest1 <= rest2, rest2 <= rest1)
    return Clause(resolvent, tv, c1.support | c2.support)


def _resolvent_tv(c1: Clause, c2: Clause, opposite: bool, sub1: bool, sub2: bool) -> TruthValue:
    """The module docstring's table in closed form, each sum taken in
    row-major (i, j) order; a cell a sum leaves out adds +0.0 to it."""
    a1, b1 = c1.tv.belief, c1.tv.disbelief
    a2, b2 = c2.tv.belief, c2.tv.disbelief
    u1, u2 = uncommitted(a1, b1), uncommitted(a2, b2)
    bd, db = a1 * b2, b1 * a2
    du = b1 * u2 if sub2 else 0.0
    ud = u1 * b2 if sub1 else 0.0
    if opposite:
        belief = a1 * a2
        disbelief = (bd if sub1 else 0.0) + (db if sub2 else 0.0) + du + ud
        norm = 1.0 - b1 * b2 if b1 * b2 <= 0.5 else (a1 + u1) + b1 * (a2 + u2)
    else:
        belief = (0.0 if sub1 else bd) + (0.0 if sub2 else db)
        disbelief = b1 * b2 + du + ud
        norm = u1 + (a1 * (a2 + u2) if sub1 else a1) + (b1 * (b2 + u2) if sub2 else b1)
    if norm == 0.0:
        raise TotalConflict(f"resolving {c1} with {c2} leaves no consistent mass")
    return TruthValue(belief / norm, disbelief / norm)


def _canonical_rank(clause: Clause, atoms: dict) -> tuple:
    """A key's place in the canonical order: heavier first, then its
    literal set by each atom's printed text (read from ``atoms``) and
    sign, then its sorted support labels."""
    literals = tuple(sorted((atoms[atom][1], not positive) for atom, positive in clause.literals))
    return (-clause.tv.mass, literals, tuple(sorted(clause.support)))


def _pick(ranked) -> list:
    """The greedy pick of (rank, clause) entries: in canonical order, each
    clause whose support meets none picked before it."""
    picked, used = [], set()
    for _rank, clause in sorted(ranked, key=itemgetter(0)):
        if used.isdisjoint(clause.support):
            picked.append(clause)
            used |= clause.support
    return picked


class Closure:
    """A clause set closed under resolution, which `saturate_groups`
    extends in place: every key with its value, each literal set's
    group, the atom index that finds a key's partners, the alphabet its
    masks are written in, and the work the loop has still to do."""

    __slots__ = ("keys", "given", "groups", "atoms", "labels", "even", "pending")

    def __init__(self, groups: dict | None = None):
        self.keys: dict = {}  # literal set -> {support: (rank, clause)}
        # atom -> every settled key holding it, as ((rank, clause),
        # literal mask, support mask)
        self.given: dict = {}
        # literal set -> its pick, in canonical order
        self.groups: dict = {} if groups is None else groups
        # atom -> (the one object that stands for it in every key, its
        # printed text, its positive literal's bit; the negative's is the
        # next); one object per atom lets the set operations on literal
        # sets compare atoms by identity
        self.atoms: dict = {}
        self.labels: dict = {}  # support label -> its bit
        self.even = 0  # every positive literal's bit
        # support size -> {(literal mask, support mask): input clause or [pairs]}
        self.pending: dict = {}

    def _atom(self, atom: Term) -> tuple:
        entry = self.atoms.get(atom)
        if entry is None:
            bit = 1 << 2 * len(self.atoms)
            entry = self.atoms[atom] = (atom, str(atom), bit)
            self.even |= bit
        return entry

    def _label(self, label) -> int:
        bit = self.labels.get(label)
        if bit is None:
            bit = self.labels[label] = 1 << len(self.labels)
        return bit

    def _masks(self, literals, support) -> tuple:
        """A key's literal and support masks, each bit already assigned."""
        atoms, labels = self.atoms, self.labels
        return (
            sum(atoms[atom][2] << (not positive) for atom, positive in literals),
            sum(labels[label] for label in support),
        )

    def add(self, clauses):
        """Queue input clauses for the loop, all or none: ValueError, with
        nothing queued and no bit assigned, unless each has a nonempty
        support and a key that no key or queued entry has."""
        batch = {}
        for clause in clauses:
            if not clause.support:
                raise ValueError(f"{clause} has an empty support; label each input clause")
            key = (clause.literals, clause.support)
            if key in batch or self._holds(*key):
                raise ValueError(f"{clause} shares its literals and support with another clause")
            batch[key] = clause
        for (literals, support), clause in batch.items():
            literals = frozenset((self._atom(atom)[0], positive) for atom, positive in literals)
            for label in support:
                self._label(label)
            level = self.pending.setdefault(len(support), {})
            level[self._masks(literals, support)] = Clause(literals, clause.tv, support)

    def _holds(self, literals, support) -> bool:
        """Whether a key or a queued entry has this literal set and support."""
        if support in self.keys.get(literals, ()):
            return True
        if not (self.labels.keys() >= support and all(atom in self.atoms for atom, _positive in literals)):
            return False  # a new atom or label: nothing holds it yet
        return self._masks(literals, support) in self.pending.get(len(support), ())

    def absorb(self, other: "Closure"):
        """Take in the keys and pending work of a closure that shares no
        atom with this one, its masks re-encoded in this alphabet."""
        # each of other's literal bits, and each of its label bits -> its bit here
        bits, label_bits = {}, {}
        for atom, _text, bit in other.atoms.values():
            mine = self._atom(atom)[2]
            bits[bit], bits[bit << 1] = mine, mine << 1
        for label, bit in other.labels.items():
            label_bits[bit] = self._label(label)
        self.keys.update(other.keys)
        for atom, held in other.given.items():
            self.given[atom] = [(ranked, _recode(lits, bits), _recode(sup, label_bits)) for ranked, lits, sup in held]
        if other.groups is not self.groups:
            self.groups.update(other.groups)
        for size, level in other.pending.items():
            mine = self.pending.setdefault(size, {})
            for (lits, sup), entry in level.items():
                mine[_recode(lits, bits), _recode(sup, label_bits)] = entry


def _recode(mask: int, bits: dict) -> int:
    """``mask`` with each set bit replaced by its image in ``bits``."""
    out = 0
    while mask:
        low = mask & -mask
        out |= bits[low]
        mask ^= low
    return out


def saturate_groups(
    clauses, config: EngineConfig, max_rounds: int | None = None, closure: Closure | None = None
) -> dict:
    """Close a ground clause set under resolution.

    Returns literal set -> its group, the greedy pick of its keys (see
    the module docstring for the rules and the loop). With ``closure``,
    the clauses are added to that closure, which is extended in place
    and whose groups are returned; their support labels must be new to
    it. Every input clause needs a nonempty support, which termination
    assumes, and a key of its own. Raises ValueError for either, before
    any work. Rounds are bounded by the closure's label count (see the
    module docstring), so by default the loop runs to its fixpoint. With
    ``max_rounds``, it raises IterationBoundExceeded, with the groups so
    far as its partial value, when round ``max_rounds`` still has keys
    to settle; the closure keeps them, and a later call resumes the loop
    there.
    """
    closure = Closure() if closure is None else closure
    closure.add(clauses)
    pending = closure.pending
    touched = set()  # literal sets that gained a key
    while pending:
        size = min(pending)
        if max_rounds is not None and size > max_rounds:
            _repick(closure, touched)
            raise IterationBoundExceeded(f"no fixpoint after {max_rounds} rounds", partial=closure.groups)
        for (lits, sup), entry in pending.pop(size).items():
            if not isinstance(entry, Clause):
                entry = _first_valid(entry, config)
                if entry is None:
                    continue
            _settle(closure, ((_canonical_rank(entry, closure.atoms), entry), lits, sup))
            touched.add(entry.literals)
    _repick(closure, touched)
    return closure.groups


def _first_valid(pairs: list, config: EngineConfig) -> Clause | None:
    """The resolvent of the canonically least pair that gives a valid one."""
    pairs.sort(key=lambda pair: (pair[0][0], pair[1][0]))
    for (_r1, c1), (_r2, c2), atom in pairs:
        try:
            candidate = resolve(c1, c2, atom)
        except TotalConflict:
            continue
        if candidate.tv.mass != 0.0 and candidate.tv.mass >= config.inference_cutoff:
            return candidate
    return None


def _settle(closure: Closure, entry: tuple):
    """Store a key and file its pair with every key settled before it
    whose support it does not meet, under the key the pair resolves to.
    ``entry`` is ((rank, clause), literal mask, support mask)."""
    ranked, lits, sup = entry
    clause, pending, even = ranked[1], closure.pending, closure.even
    closure.keys.setdefault(clause.literals, {})[clause.support] = ranked
    for atom, _positive in clause.literals:
        bit = closure.atoms[atom][2]
        keep = ~(bit | bit << 1)
        partners = closure.given.setdefault(atom, [])
        for other, olits, osup in partners:
            if sup & osup:
                continue
            resolvent = (lits | olits) & keep
            if not resolvent or resolvent & (resolvent >> 1) & even:
                continue  # two units on one atom, or a tautology
            union = sup | osup
            level = pending.setdefault(union.bit_count(), {})
            pairs = level.setdefault((resolvent, union), [])
            if isinstance(pairs, list):  # not an input clause's key
                pairs.append((ranked, other, atom) if ranked[0] < other[0] else (other, ranked, atom))
        partners.append(entry)


def _repick(closure: Closure, touched: set):
    for literals in touched:
        closure.groups[literals] = _pick(closure.keys[literals].values())


def saturate(
    clauses,
    target,
    config: EngineConfig | None = None,
    max_rounds: int | None = None,
) -> TruthValue:
    """Close a ground clause set under resolution and read off a target.

    ``target`` is a Clause or an iterable of literals; the return value
    is the pooled truth value of derivations with exactly that literal
    set, vacuous if it was never derived. Resolvents carrying less mass
    than the inference cutoff (or none at all) are discarded. Each
    clause needs a nonempty support (ValueError otherwise; see
    `saturate_groups`). The loop runs to its fixpoint unless
    ``max_rounds`` is given; then it raises IterationBoundExceeded (with
    the partial target value attached) if the loop has not reached its
    fixpoint within that many rounds.
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
            str(exc), partial=_pooled(exc.partial.get(target_lits, ()))
        ) from None
    return _pooled(groups.get(target_lits, ()))


def _pooled(group) -> TruthValue:
    tv = VACUOUS
    for clause in group:
        tv = combine(tv, clause.tv)
    return tv


def prove_by_resolution(kb, goal, tag, cutoff):
    """Answer a ground single-literal goal from the KB's clause set.

    Evidence derived for the unit clause of the goal's atom and for the
    complementary unit clause both count: a derivation of the opposite
    unit is the same information with the pair swapped. The two groups,
    the complement's swapped, are pooled through the greedy pick that
    made each of them (see the module docstring). The groups come from
    `KnowledgeBase.saturation` under ``kb.config``, which raises only if
    the goal's atom lies in a component that did not settle.
    """
    core, flipped = normalize_negation(goal)
    if not is_ground(core):
        raise ValueError(f"resolution needs a ground goal, got {goal}")
    groups = kb.saturation(core)
    wanted = frozenset({(core, not flipped)})
    picked = groups.get(wanted, ())
    against = groups.get(frozenset({(core, flipped)}))
    if against:
        # one literal set, over which the canonical order is mass, then support
        ranked = [((-c.tv.mass, sorted(c.support)), c) for c in picked]
        for c in against:
            ranked.append(((-c.tv.mass, sorted(c.support)), Clause(wanted, negate(c.tv), c.support)))
        picked = _pick(ranked)
    return tagged_answers([({}, _pooled(picked))], tag, cutoff)
