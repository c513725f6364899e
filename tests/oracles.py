"""Independent reference implementations used to check the engine.

Everything here is deliberately written by enumeration over explicit
model/mass structures, not by the closed forms the library uses, so a
bug in the library's algebra cannot hide in its own oracle. Values are
plain (belief, disbelief) float tuples.
"""

import itertools
from fractions import Fraction


def oracle_combine(x, y):
    """Pool two evidence pairs by enumerating the 3x3 joint mass table.

    Each source spreads mass over {confirm, disconfirm, uncommitted};
    cells pairing confirm with disconfirm are conflict and are dropped,
    the rest renormalized by their own sum (Dempster's rule). The table
    is summed in exact rational arithmetic over the given floats, so
    near-total conflict, where renormalizing amplifies rounding error,
    cannot skew the reference value. A pair whose floats sum a hair past
    1 has no uncommitted mass. Returns None on total conflict, a unit
    or more of conflicting mass.
    """

    def masses(pair):
        c, d = Fraction(pair[0]), Fraction(pair[1])
        return {"c": c, "d": d, "u": max(Fraction(0), 1 - c - d)}

    m1, m2 = masses(x), masses(y)
    belief = disbelief = uncommitted = conflict = Fraction(0)
    for k1, w1 in m1.items():
        for k2, w2 in m2.items():
            w = w1 * w2
            kinds = {k1, k2}
            if kinds == {"c", "d"}:
                conflict += w
            elif "c" in kinds:
                belief += w
            elif "d" in kinds:
                disbelief += w
            else:
                uncommitted += w
    if conflict >= 1:
        return None
    surviving = belief + disbelief + uncommitted
    return (float(belief / surviving), float(disbelief / surviving))


def oracle_uncombine(total, component):
    """The residual r with combine(r, component) = total, solved exactly.

    Clearing the normalizer from combine's belief and disbelief
    equations leaves two equations linear in r's masses; they are solved
    by Cramer's rule in rational arithmetic over the given floats. The
    result may lie outside the simplex when no residual reaches the
    total. Returns None when the system is singular, as it is for a
    component with no uncommitted mass.
    """
    at, bt = Fraction(total[0]), Fraction(total[1])
    ac, bc = Fraction(component[0]), Fraction(component[1])
    uc = 1 - ac - bc
    # belief:    ar*ac + ar*uc + ur*ac = at*(1 - ar*bc - br*ac), ur = 1 - ar - br
    # disbelief: br*bc + br*uc + ur*bc = bt*(1 - ar*bc - br*ac)
    m11, m12, r1 = at * bc + uc, ac * (at - 1), at - ac
    m21, m22, r2 = bc * (bt - 1), bt * ac + uc, bt - bc
    det = m11 * m22 - m12 * m21
    if det == 0:
        return None
    return (float((r1 * m22 - m12 * r2) / det), float((m11 * r2 - r1 * m21) / det))


def oracle_conjoin(x, y):
    """Conjunction value by enumerating the four models of two atoms.

    Source 1 is evidence about atom A, source 2 about atom B; their
    focal sets are intersected and classified against the models of
    A AND B. Atoms are distinct so no cell is empty.
    """
    models = list(itertools.product([False, True], repeat=2))
    a_true = frozenset(m for m in models if m[0])
    b_true = frozenset(m for m in models if m[1])
    everything = frozenset(models)
    focals1 = ((a_true, x[0]), (everything - a_true, x[1]), (everything, 1 - x[0] - x[1]))
    focals2 = ((b_true, y[0]), (everything - b_true, y[1]), (everything, 1 - y[0] - y[1]))
    both = a_true & b_true
    belief = disbelief = 0.0
    for s1, w1 in focals1:
        for s2, w2 in focals2:
            cell = s1 & s2
            if cell <= both:
                belief += w1 * w2
            elif cell <= (everything - both):
                disbelief += w1 * w2
    return (belief, disbelief)


def oracle_resolvent_tv(lits1, tv1, lits2, tv2, resolvent):
    """Joint-frame resolution value by full 2^n model enumeration.

    Clauses are collections of (atom, positive) pairs over hashable
    atoms. As in `oracle_combine`, the table is summed in exact rational
    arithmetic over the given floats and renormalized by its consistent
    cells' own sum, and a pair whose floats sum a hair past 1 has no
    uncommitted mass. Returns None on total conflict, when no cell is
    consistent.
    """
    atoms = sorted({a for a, _ in lits1} | {a for a, _ in lits2}, key=repr)
    models = []
    for values in itertools.product([False, True], repeat=len(atoms)):
        models.append(dict(zip(atoms, values)))

    def model_set(lits):
        out = []
        for i, m in enumerate(models):
            if any(m.get(a, False) == pos for a, pos in lits):
                out.append(i)
        return frozenset(out)

    def focals(lits, tv):
        s, c, d = model_set(lits), Fraction(tv[0]), Fraction(tv[1])
        return ((s, c), (everything - s, d), (everything, max(Fraction(0), 1 - c - d)))

    everything = frozenset(range(len(models)))
    res = model_set(resolvent)
    belief = disbelief = consistent = Fraction(0)
    for set1, w1 in focals(lits1, tv1):
        for set2, w2 in focals(lits2, tv2):
            w = w1 * w2
            cell = set1 & set2
            if not cell:
                continue
            consistent += w
            if cell <= res:
                belief += w
            elif cell <= (everything - res):
                disbelief += w
    if not consistent:
        return None
    return (float(belief / consistent), float(disbelief / consistent))


def oracle_bottom_up(base_facts, rules, cutoff=0.0):
    """Exhaustively evaluate an acyclic ground KB, bottom up.

    ``base_facts`` maps sentence -> (belief, disbelief) of the directly
    asserted evidence. ``rules`` is a list of
    (conjuncts, consequence, rule_tv) with conjuncts a list of
    (sentence, positive). Sentences may be any hashable values.

    Sentence values are finalized in dependency order; each rule
    contributes propagate(premise, rule_tv) to its consequence when the
    contribution carries mass of at least ``cutoff`` (and any mass at
    all). Returns the map of every sentence with a non-vacuous value.
    """
    sentences = set(base_facts)
    for conjuncts, consequence, _tv in rules:
        sentences.add(consequence)
        sentences.update(s for s, _pos in conjuncts)

    depends = {s: set() for s in sentences}
    for conjuncts, consequence, _tv in rules:
        for s, _pos in conjuncts:
            depends[consequence].add(s)

    order = []
    seen = {}

    def visit(s):
        state = seen.get(s)
        if state == "done":
            return
        if state == "busy":
            raise ValueError("cyclic rule set handed to the bottom-up oracle")
        seen[s] = "busy"
        for d in sorted(depends[s], key=repr):
            visit(d)
        seen[s] = "done"
        order.append(s)

    for s in sorted(sentences, key=repr):
        visit(s)

    values = {}

    def value_of(s):
        return values.get(s, (0.0, 0.0))

    for s in order:
        acc = base_facts.get(s, (0.0, 0.0))
        for conjuncts, consequence, rule_tv in rules:
            if consequence != s:
                continue
            premise = (1.0, 0.0)
            for conjunct, positive in conjuncts:
                v = value_of(conjunct)
                if not positive:
                    v = (v[1], v[0])
                premise = (premise[0] * v[0], premise[1] + v[1] - premise[1] * v[1])
            contribution = (premise[0] * rule_tv[0], premise[0] * rule_tv[1])
            mass = contribution[0] + contribution[1]
            if mass == 0.0 or mass < cutoff:
                continue
            acc = oracle_combine(acc, contribution)
            if acc is None:
                raise ValueError("total conflict in the bottom-up oracle")
        if acc != (0.0, 0.0):
            values[s] = acc
    return values


def oracle_keyed_closure(clauses, cutoff=0.0):
    """Keyed resolution closure, by enumeration over support subsets.

    ``clauses`` is a list of (literals, (belief, disbelief), label), the
    literals (atom, positive) pairs over atoms that print, the labels
    distinct. A key is a (literal set, support) pair, the support a
    frozenset of labels; each clause is the key (its literals, {label}).
    Label subsets are taken smallest first. Every split of a subset into
    two nonempty halves pairs each key over one half with each key over
    the other, on each atom they share. A pair yields the key
    (resolvent, subset) when the resolvent holds no atom with both signs
    and its exact value (`oracle_resolvent_tv`) is defined, with mass
    above 0 and at least ``cutoff``. The key's value is that of its
    canonically least such pair.

    Canonical order: heavier first, then the literals as sorted
    (printed atom, negative) pairs, then the sorted labels; a pair is
    ordered by its lesser key, then its greater. Returns literal set ->
    the greedy pick of its keys: in canonical order, each key whose
    support meets none picked before it, as (belief, disbelief, support).
    """

    def rank(literals, value, support):
        return (-(value[0] + value[1]), sorted((str(a), not pos) for a, pos in literals), sorted(support))

    keys = {}  # support -> {literal set: value}
    for literals, value, label in clauses:
        keys.setdefault(frozenset({label}), {})[frozenset(literals)] = value
    labels = sorted({label for _lits, _value, label in clauses})
    for size in range(2, len(labels) + 1):
        for subset in itertools.combinations(labels, size):
            support = frozenset(subset)
            pairs = {}  # resolvent -> [(rank, rank, literals, value, literals, value)]
            rest = subset[1:]
            for k in range(len(rest)):
                # one half holds the least label, so each split is met once
                for others in itertools.combinations(rest, k):
                    half = frozenset((subset[0],) + others)
                    for lits1, v1 in keys.get(half, {}).items():
                        for lits2, v2 in keys.get(support - half, {}).items():
                            shared = {a for a, _ in lits1} & {a for a, _ in lits2}
                            for atom in shared:
                                resolvent = frozenset(l for l in lits1 | lits2 if l[0] != atom)
                                if not resolvent or len({a for a, _ in resolvent}) < len(resolvent):
                                    continue
                                one = (rank(lits1, v1, half), lits1, v1)
                                two = (rank(lits2, v2, support - half), lits2, v2)
                                one, two = sorted((one, two), key=lambda k: k[0])
                                pairs.setdefault(resolvent, []).append((one[0], two[0], one, two))
            for resolvent, candidates in pairs.items():
                for _r1, _r2, (_, lits1, v1), (_, lits2, v2) in sorted(candidates, key=lambda p: (p[0], p[1])):
                    value = oracle_resolvent_tv(lits1, v1, lits2, v2, resolvent)
                    if value is not None and value[0] + value[1] > 0.0 and value[0] + value[1] >= cutoff:
                        keys.setdefault(support, {})[resolvent] = value
                        break
    by_literals = {}
    for support, entries in keys.items():
        for literals, value in entries.items():
            by_literals.setdefault(literals, []).append((rank(literals, value, support), value, support))
    groups = {}
    for literals, entries in by_literals.items():
        picked, used = [], set()
        for _rank, value, support in sorted(entries, key=lambda e: e[0]):
            if used.isdisjoint(support):
                picked.append((value[0], value[1], support))
                used |= support
        groups[literals] = picked
    return groups
