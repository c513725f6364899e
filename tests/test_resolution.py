"""Resolution: joint-frame values vs the model oracle, closed forms, saturation."""

import contextlib
import functools
import itertools
import random

import pytest

import pkb.kb
from pkb import resolution
from pkb.backward import truep
from pkb.errors import IterationBoundExceeded, RangeError, TautologicalResolvent, TotalConflict
from pkb.kb import KnowledgeBase
from pkb.resolution import Clause, Closure, prove_by_resolution, resolve, saturate, saturate_groups
from pkb.sexpr import parse_sentence as S
from pkb.terms import sym
from pkb.truth import EngineConfig, TruthValue

from oracles import oracle_keyed_closure, oracle_resolvent_tv

TOL = 1e-9

P, Q, R, W, X, Y = sym("p"), sym("q"), sym("r"), sym("w"), sym("x"), sym("y")


def clause(lits, a, b, support=("s",)):
    return Clause.make(lits, TruthValue(a, b), support=frozenset(support))


def tv_close(tv, pair, tol=TOL):
    return abs(tv.belief - pair[0]) <= tol and abs(tv.disbelief - pair[1]) <= tol


class TestClause:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Clause.make([], TruthValue(1, 0))

    def test_rejects_tautology(self):
        with pytest.raises(TautologicalResolvent):
            Clause.make([(P, True), (P, False)], TruthValue(1, 0))

    def test_rejects_non_ground(self):
        with pytest.raises(ValueError):
            Clause.make([(S("(p $x)"), True)], TruthValue(1, 0))

    def test_duplicate_literals_collapse(self):
        c = Clause.make([(P, True), (P, True), (Q, False)], TruthValue(0.5, 0.2))
        assert len(c.literals) == 2

    def test_rendering(self):
        c = clause([(P, True), (Q, False)], 0.8, 0.1)
        assert str(c) == "(clause (or p (not q)) (0.8 . 0.1))"


class TestResolve:
    def test_opposite_sign_derived_example(self):
        c1 = clause([(P, True), (Q, True)], 0.8, 0.1, support=("1",))
        c2 = clause([(P, False), (R, True)], 0.6, 0.2, support=("2",))
        got = resolve(c1, c2, P)
        assert got.literals == frozenset([(Q, True), (R, True)])
        assert got.support == frozenset({"1", "2"})
        # Frozen from the 2^3-model oracle: (0.48 / 0.98, 0).
        assert tv_close(got.tv, (0.4897959183673469, 0.0))

    def test_opposite_sign_closed_form(self):
        c1 = clause([(P, True), (Q, True)], 0.8, 0.1)
        c2 = clause([(P, False), (R, True)], 0.6, 0.2, support=("2",))
        got = resolve(c1, c2, P)
        assert got.tv.belief == pytest.approx(0.8 * 0.6 / (1 - 0.1 * 0.2), abs=TOL)
        assert got.tv.disbelief == 0.0

    def test_same_sign_derived_example(self):
        c1 = clause([(P, True), (Q, True)], 0.8, 0.1, support=("1",))
        c2 = clause([(P, True), (R, True)], 0.6, 0.2, support=("2",))
        got = resolve(c1, c2, P)
        assert got.literals == frozenset([(Q, True), (R, True)])
        # Frozen from the oracle: (a1 b2 + b1 a2, b1 b2).
        assert tv_close(got.tv, (0.22, 0.02))

    def test_certainty_recovers_classical_resolution(self):
        c1 = clause([(P, True), (Q, True)], 1.0, 0.0, support=("1",))
        c2 = clause([(P, False), (R, True)], 1.0, 0.0, support=("2",))
        got = resolve(c1, c2, P)
        assert got.tv == TruthValue(1.0, 0.0)

    def test_symmetric(self):
        rng = random.Random(3001)
        for _ in range(50):
            c1, c2, atom = _random_pair(rng)
            try:
                one = resolve(c1, c2, atom)
            except (TautologicalResolvent, TotalConflict, ValueError):
                continue
            two = resolve(c2, c1, atom)
            assert one.literals == two.literals
            assert tv_close(one.tv, (two.tv.belief, two.tv.disbelief))

    def test_monotone_in_parent_belief(self):
        c2 = clause([(P, False), (R, True)], 0.6, 0.2, support=("2",))
        last = -1.0
        for a1 in (0.1, 0.3, 0.5, 0.7, 0.9):
            c1 = clause([(P, True), (Q, True)], a1, 0.05)
            got = resolve(c1, c2, P)
            assert got.tv.belief >= last - TOL
            last = got.tv.belief

    def test_pivot_must_occur_in_both(self):
        c1 = clause([(P, True), (Q, True)], 0.8, 0.1)
        c2 = clause([(R, True), (W, True)], 0.6, 0.2, support=("2",))
        with pytest.raises(ValueError):
            resolve(c1, c2, P)

    def test_tautological_resolvent_rejected(self):
        c1 = clause([(P, True), (Q, True)], 0.8, 0.1)
        c2 = clause([(P, False), (Q, False)], 0.6, 0.2, support=("2",))
        with pytest.raises(TautologicalResolvent):
            resolve(c1, c2, P)

    def test_empty_resolvent_rejected(self):
        c1 = clause([(P, True)], 0.8, 0.1)
        c2 = clause([(P, False)], 0.6, 0.2, support=("2",))
        with pytest.raises(ValueError):
            resolve(c1, c2, P)

    def test_total_conflict(self):
        c1 = clause([(P, True), (Q, True)], 0.0, 1.0)
        c2 = clause([(P, False), (R, True)], 0.0, 1.0, support=("2",))
        with pytest.raises(TotalConflict):
            resolve(c1, c2, P)

    def test_matches_model_oracle_on_random_pairs(self):
        # The second draw adds certain, vacuous and mass-1 parents, so
        # total conflict occurs; every (pivot sign, rest1 <= rest2,
        # rest2 <= rest1) class, hence every row of the docstring's
        # table and every term of resolve's closed form, is met.
        rng = random.Random(3002)
        classes = set()
        conflicts = 0
        for draw_mass in (_random_mass, _edge_mass):
            checked = 0
            while checked < 400:
                c1, c2, atom = _random_pair(rng, draw_mass)
                try:
                    got = resolve(c1, c2, atom)
                except (TautologicalResolvent, ValueError):
                    continue
                except TotalConflict:
                    got = None
                rest1 = frozenset(lit for lit in c1.literals if lit[0] != atom)
                rest2 = frozenset(lit for lit in c2.literals if lit[0] != atom)
                expected = oracle_resolvent_tv(
                    c1.literals, (c1.tv.belief, c1.tv.disbelief),
                    c2.literals, (c2.tv.belief, c2.tv.disbelief),
                    rest1 | rest2,
                )
                if got is None:
                    assert expected is None
                    conflicts += 1
                else:
                    assert expected is not None
                    assert got.literals == rest1 | rest2
                    assert tv_close(got.tv, expected)
                opposite = ((atom, True) in c1.literals) != ((atom, True) in c2.literals)
                classes.add((opposite, rest1 <= rest2, rest2 <= rest1))
                checked += 1
        assert conflicts > 0
        assert len(classes) == 8

    def test_structural_facts_on_disjoint_remainders(self):
        # With disjoint nonempty remainders the two closed forms hold
        # exactly: opposite-sign resolvents carry no disbelief, and
        # same-sign resolution has no conflict to renormalize. Against a
        # unit parent both modes renormalize and keep some disbelief.
        rng = random.Random(3003)
        for _ in range(200):
            a1, b1 = _random_mass(rng)
            a2, b2 = _random_mass(rng)
            c1 = clause([(P, True), (Q, True)], a1, b1, support=("1",))
            unit = clause([(P, True)], a1, b1, support=("1",))
            opposite = clause([(P, False), (R, True)], a2, b2, support=("2",))
            same = clause([(P, True), (R, True)], a2, b2, support=("2",))
            if b1 * b2 < 1.0:
                got = resolve(c1, opposite, P)
                assert got.tv.disbelief == 0.0
                assert got.tv.belief == pytest.approx(a1 * a2 / (1 - b1 * b2), abs=TOL)
                norm = 1 - b1 * b2
                got = resolve(unit, opposite, P)
                assert got.tv.belief == pytest.approx(a1 * a2 / norm, abs=TOL)
                assert got.tv.disbelief == pytest.approx((1 - b1) * b2 / norm, abs=TOL)
            got = resolve(c1, same, P)
            assert got.tv.belief == pytest.approx(a1 * b2 + b1 * a2, abs=TOL)
            assert got.tv.disbelief == pytest.approx(b1 * b2, abs=TOL)
            if a1 * b2 < 1.0:
                norm = 1 - a1 * b2
                got = resolve(unit, same, P)
                assert got.tv.belief == pytest.approx(b1 * a2 / norm, abs=TOL)
                assert got.tv.disbelief == pytest.approx((1 - a1) * b2 / norm, abs=TOL)

    def test_near_total_conflict_matches_exact_oracle(self):
        # Parents near certain leave a tiny consistent mass to
        # renormalize by, where 1 - conflict loses the digits that
        # matter and could push the pair out of the simplex.
        rng = random.Random(3004)
        conflicts = checked = 0
        while checked < 1000:
            c1, c2, atom = _random_pair(rng, _near_certain_mass)
            rest = frozenset(lit for c in (c1, c2) for lit in c.literals if lit[0] != atom)
            if not rest or len({a for a, _ in rest}) < len(rest):
                continue
            expected = oracle_resolvent_tv(
                c1.literals, (c1.tv.belief, c1.tv.disbelief),
                c2.literals, (c2.tv.belief, c2.tv.disbelief),
                rest,
            )
            checked += 1
            if expected is None:
                with pytest.raises(TotalConflict):
                    resolve(c1, c2, atom)
                conflicts += 1
                continue
            got = resolve(c1, c2, atom).tv
            assert abs(got.belief - expected[0]) + abs(got.disbelief - expected[1]) <= 1e-12
        assert conflicts > 0

    def test_near_total_conflict_resolvent_is_derived(self):
        kb = KnowledgeBase()
        kb.load_text(
            "(clause (or p q) (0.9999731618308351 . 3.916621665699683e-06))\n"
            "(clause (or p q) (0 . 1))\n"
        )
        assert resolve(*kb.clauses, P).tv == TruthValue(0.0, 1.0)
        assert prove_by_resolution(kb, Q, "not", 0.0) == [({}, 1.0)]


def _random_mass(rng):
    mass = rng.uniform(0.0, 0.95)
    belief = rng.uniform(0.0, mass)
    return belief, mass - belief


def _edge_mass(rng):
    """Like _random_mass, but half the draws are certain, vacuous or mass 1."""
    kind = rng.randrange(8)
    if kind == 0:
        return 1.0, 0.0
    if kind == 1:
        return 0.0, 1.0
    if kind == 2:
        return 0.0, 0.0
    if kind == 3:
        belief = rng.random()
        return belief, 1.0 - belief
    return _random_mass(rng)


def _near_certain_mass(rng):
    """Certain, or within 1e-3 to 1e-17 of certain, on either side.
    Below one ulp of 1 a pair's floats can sum a hair past 1."""
    gap = 10 ** -rng.uniform(3, 17)
    pair = rng.choice(((1.0 - gap, rng.random() * gap), (1.0 - gap, 0.0), (1.0, 0.0)))
    return pair if rng.random() < 0.5 else pair[::-1]


_ATOMS = [P, Q, R, W]


def _random_clause(rng, support, draw_mass=_random_mass):
    n = rng.randrange(1, 4)
    atoms = rng.sample(_ATOMS, n)
    lits = [(atom, rng.random() < 0.5) for atom in atoms]
    a, b = draw_mass(rng)
    return Clause.make(lits, TruthValue(a, b), support=frozenset({support}))


def _random_pair(rng, draw_mass=_random_mass):
    c1 = _random_clause(rng, "1", draw_mass)
    c2 = _random_clause(rng, "2", draw_mass)
    shared = sorted(c1.atoms() & c2.atoms(), key=str)
    if not shared:
        c2 = Clause.make(
            list(c2.literals | {(next(iter(c1.atoms())), rng.random() < 0.5)}),
            c2.tv,
            support=c2.support,
        )
        shared = sorted(c1.atoms() & c2.atoms(), key=str)
    return c1, c2, rng.choice(shared)


class TestSaturate:
    def test_certain_unit_resolution(self):
        clauses = [
            clause([(P, True)], 1.0, 0.0, support=("1",)),
            clause([(P, False), (Q, True)], 1.0, 0.0, support=("2",)),
        ]
        got = saturate(clauses, [(Q, True)])
        assert tv_close(got, (1.0, 0.0))
        assert saturate(clauses, clause([(Q, True)], 0.0, 0.0)) == got

    def test_single_opposite_step(self):
        clauses = [
            clause([(P, True), (Q, True)], 0.8, 0.1, support=("1",)),
            clause([(P, False), (R, True)], 0.6, 0.2, support=("2",)),
        ]
        got = saturate(clauses, [(Q, True), (R, True)])
        assert tv_close(got, (0.4897959183673469, 0.0))

    def test_single_same_sign_step(self):
        clauses = [
            clause([(P, True), (Q, True)], 0.8, 0.1, support=("1",)),
            clause([(P, True), (R, True)], 0.6, 0.2, support=("2",)),
        ]
        got = saturate(clauses, [(Q, True), (R, True)])
        assert tv_close(got, (0.22, 0.02))

    def test_underivable_target_is_vacuous(self):
        clauses = [clause([(P, True)], 1.0, 0.0, support=("1",))]
        got = saturate(clauses, [(W, True)])
        assert got == TruthValue(0.0, 0.0)

    def test_disjoint_supports_combine(self):
        # Two independent derivations of (q): via (p) and via (r).
        clauses = [
            clause([(P, True)], 0.9, 0.0, support=("1",)),
            clause([(P, False), (Q, True)], 0.8, 0.0, support=("2",)),
            clause([(R, True)], 0.9, 0.0, support=("3",)),
            clause([(R, False), (Q, True)], 0.5, 0.0, support=("4",)),
        ]
        got = saturate(clauses, [(Q, True)])
        from oracles import oracle_combine

        first = 0.9 * 0.8
        second = 0.9 * 0.5
        expected = oracle_combine((first, 0.0), (second, 0.0))
        assert tv_close(got, expected)

    def test_overlapping_supports_keep_heaviest_only(self):
        # Both derivations of (q) lean on clause 2; combining them
        # would double-count it, so only the heavier one survives.
        clauses = [
            clause([(P, True)], 0.9, 0.0, support=("1",)),
            clause([(P, False), (Q, True)], 0.8, 0.0, support=("2",)),
            clause([(R, True)], 0.4, 0.0, support=("3",)),
            clause([(R, False), (P, True)], 0.9, 0.0, support=("4",)),
        ]
        got = saturate(clauses, [(Q, True)])
        # Derivation A: clauses 1+2 -> belief 0.72, support {1, 2}.
        # Derivation B: clauses 3+4 -> (p) at 0.36, then +2 -> 0.288,
        # support {2, 3, 4}; it overlaps A and is lighter, so only A counts.
        assert tv_close(got, (0.72, 0.0))

    def test_cutoff_discards_weak_resolvents(self):
        clauses = [
            clause([(P, True)], 0.1, 0.0, support=("1",)),
            clause([(P, False), (Q, True)], 0.1, 0.0, support=("2",)),
        ]
        got = saturate(clauses, [(Q, True)], config=EngineConfig(inference_cutoff=0.05))
        assert got == TruthValue(0.0, 0.0)

    def test_iteration_bound_reports_partial(self):
        clauses = [
            clause([(P, True), (Q, True)], 0.8, 0.1, support=("1",)),
            clause([(P, False), (R, True)], 0.6, 0.2, support=("2",)),
            clause([(Q, False), (W, True)], 0.7, 0.1, support=("3",)),
        ]
        with pytest.raises(IterationBoundExceeded) as err:
            saturate(clauses, [(Q, True), (R, True)], max_rounds=1)
        assert isinstance(err.value.partial, TruthValue)


@pytest.fixture
def resolve_calls(monkeypatch):
    """Every call the saturation loop makes to `resolve`."""
    calls = []
    real = resolution.resolve

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(resolution, "resolve", counting)
    return calls


# Order independence holds at any round bound, partial results
# included. The random 5-clause sets below settle within 5 rounds; the
# low bound keeps a regression that stops one settling cheap to see.
_ROUNDS = 10


def _unit_values(clauses):
    try:
        groups, settled = saturate_groups(clauses, EngineConfig(), _ROUNDS), True
    except IterationBoundExceeded as exc:
        groups, settled = exc.partial, False
    return settled, {lits: [c.tv for c in group] for lits, group in groups.items() if len(lits) == 1}


def _kb_of(clauses):
    kb = KnowledgeBase()
    for c in clauses:
        kb.add_clause(c.literals, c.tv)
    return kb


def _kb_answers(kb, config=None, atoms=_ATOMS):
    """Each of ``atoms``' t and not value, under ``config`` if one is
    given; one saturation serves them all."""
    if config is not None:
        kb.config = config
    try:
        return [prove_by_resolution(kb, atom, tag, 0.0) for atom in atoms for tag in ("t", "not")]
    except IterationBoundExceeded:
        return "bound"


class TestOrderIndependence:
    def test_permuting_clauses_keeps_unit_values(self, monkeypatch):
        # Overlapping derivations of one literal set keep only the
        # heaviest; when the input order decided which one arrived
        # first, reordering a clause set moved unit values.
        monkeypatch.setattr(pkb.kb, "saturate_groups", functools.partial(saturate_groups, max_rounds=_ROUNDS))
        rng = random.Random(3004)
        for _ in range(20):
            clauses = [_random_clause(rng, str(i)) for i in range(5)]
            shuffled = clauses[:]
            rng.shuffle(shuffled)
            expected = _unit_values(clauses)
            assert _unit_values(clauses[::-1]) == expected
            assert _unit_values(shuffled) == expected
            # Through a KB the support labels follow the insertion order too.
            assert _kb_answers(_kb_of(clauses[::-1])) == _kb_answers(_kb_of(clauses))


def _closure(clauses, max_rounds=100):
    closure = Closure()
    saturate_groups(clauses, EngineConfig(), max_rounds, closure=closure)
    return closure


def _missing_keys(closure):
    """Valid resolvents of support-disjoint key pairs whose key the
    closure lacks."""
    by_support = {}
    for entries in closure.keys.values():
        for support, (_rank, clause) in entries.items():
            by_support.setdefault(support, []).append(clause)
    out = []
    for s1, s2 in itertools.combinations(by_support, 2):
        if s1 & s2:
            continue
        for a, b in itertools.product(by_support[s1], by_support[s2]):
            for atom in a.atoms() & b.atoms():
                try:
                    got = resolve(a, b, atom)
                except (TautologicalResolvent, TotalConflict, ValueError):
                    continue
                if got.tv.mass > 0.0 and got.support not in closure.keys.get(got.literals, {}):
                    out.append(got)
    return out


def _chain(n, unit=(0.75, 0.0), link=(0.75, 0.0)):
    """Unit (a0) and links (or (not ai) ai+1); the dyadic default values
    keep every derivation of one clause bit-for-bit equal."""
    atoms = [sym(f"a{i}") for i in range(n + 1)]
    clauses = [clause([(atoms[0], True)], *unit, support=("u",))]
    for i in range(n):
        clauses.append(clause([(atoms[i], False), (atoms[i + 1], True)], *link, support=(f"l{i}",)))
    return atoms, clauses


# Ten clauses over six atoms whose closure holds a key over nine of them.
_SLOW_SET = [
    clause([(W, False)], 0.01650929613724973, 0.10687939294653519, support=("0",)),
    clause([(R, True), (X, False)], 0.1675137884120426, 0.5726966997690979, support=("1",)),
    clause([(W, True), (X, False), (Y, True)], 0.4435743657385948, 0.0018658121533308147, support=("2",)),
    clause([(R, False)], 0.19694321422147026, 0.06910110183907547, support=("3",)),
    clause([(W, True)], 0.4459058167602453, 0.056679427334282106, support=("4",)),
    clause([(P, True), (Q, False), (Y, True)], 0.0354373038729823, 0.4575889517936922, support=("5",)),
    clause([(P, False)], 0.14041324463119279, 0.1748493025008642, support=("6",)),
    clause([(R, True), (W, True), (X, True)], 0.2933560594068728, 0.4197357038102857, support=("7",)),
    clause([(Q, True), (X, True)], 0.054946973082866224, 0.17301522517312842, support=("8",)),
    clause([(W, True), (X, True)], 0.1343146845725723, 0.02938575464453283, support=("9",)),
]


class TestGivenClauseLoop:
    def test_each_pair_resolved_once(self, resolve_calls):
        # The closure of an n-link chain holds every (or (not ai) aj),
        # so its clauses share Theta(n^3) (pair, atom) combinations; the
        # loop resolves each at most once instead of once per round.
        n = 14
        atoms, clauses = _chain(n)
        groups = saturate_groups(clauses, EngineConfig())
        closure = [c for group in groups.values() for c in group]
        shared = sum(len(a.atoms() & b.atoms()) for a, b in itertools.combinations(closure, 2))
        assert len(closure) == n + 1 + n * (n + 1) // 2
        assert 0 < len(resolve_calls) <= shared
        (unit,) = groups[frozenset({(atoms[n], True)})]
        assert unit.tv == TruthValue(0.75 ** (n + 1), 0.0)

    def test_each_key_resolves_pairs_until_one_is_valid(self, resolve_calls):
        # Every pair in this chain gives a valid resolvent, so each
        # derived key costs one call, however many pairs resolve to it:
        # (or (not a0) a14) has 13.
        n = 14
        _atoms, clauses = _chain(n)
        closure = _closure(clauses)
        keys = sum(len(entries) for entries in closure.keys.values())
        assert len(resolve_calls) == keys - len(clauses) == n * (n + 1) // 2

    def test_disbelief_chain_uses_each_base_clause_once(self, resolve_calls):
        # With disbelief on the links, same-sign steps yield resolvents
        # too. Parents that share a base clause are never resolved, which
        # keeps the calls to a few hundred; sharing ones would add
        # thousands without changing the unit (a14).
        n = 14
        atoms, clauses = _chain(n, unit=(0.8, 0.1), link=(0.9, 0.05))
        groups = saturate_groups(clauses, EngineConfig())
        (unit,) = groups[frozenset({(atoms[n], True)})]
        assert unit.tv == TruthValue(0.18971394077639406, 0.04772751981656383)
        assert 0 < len(resolve_calls) <= 601

    def test_every_random_set_settles_closed(self, resolve_calls):
        # A derivation that reused its own base clauses would make keys
        # without end; with disjoint supports every key is settled and
        # every valid pair of keys has its key.
        rng = random.Random(3004)
        for _ in range(120):
            clauses = [_random_clause(rng, str(i)) for i in range(5)]
            assert _missing_keys(_closure(clauses)) == []
        assert resolve_calls
        assert all(not (c1.support & c2.support) for c1, c2, _atom in resolve_calls)

    def test_out_of_range_resolvent_is_not_swallowed(self, monkeypatch):
        # Only a tautological or totally conflicting resolvent is skipped;
        # an arithmetic slip that leaves a pair out of range surfaces.
        def out_of_range(*_args):
            raise RangeError("disbelief = 1.000000000001624 is above 1")

        monkeypatch.setattr(resolution, "_resolvent_tv", out_of_range)
        clauses = [clause([(P, True), (Q, True)], 0.5, 0.0, ("1",)), clause([(P, False), (R, True)], 0.5, 0.0, ("2",))]
        with pytest.raises(RangeError, match="above 1"):
            saturate_groups(clauses, EngineConfig())

    def test_empty_support_is_rejected_before_any_work(self, resolve_calls):
        # An empty support meets no other, so a clause with one could be
        # reused without limit: with no labels these three ran into the
        # round bound with 20 derivations in one group.
        clauses = [
            Clause.make([(P, True)], TruthValue(0.8, 0.1)),
            Clause.make([(P, False), (Q, True)], TruthValue(0.9, 0.05)),
            Clause.make([(Q, False)], TruthValue(0.3, 0.2)),
        ]
        with pytest.raises(ValueError, match="empty support"):
            saturate_groups(clauses, EngineConfig(), max_rounds=20)
        with pytest.raises(ValueError, match="empty support"):
            saturate(clauses, [(Q, True)])
        assert resolve_calls == []
        labelled = [Clause(c.literals, c.tv, frozenset({str(i)})) for i, c in enumerate(clauses)]
        assert _missing_keys(_closure(labelled, max_rounds=20)) == []
        # A closure that holds keys queues nothing of a rejected batch,
        # its valid clause included.
        closure = _closure(labelled[:2])
        resolve_calls.clear()
        with pytest.raises(ValueError, match="empty support"):
            saturate_groups([labelled[2], clauses[0]], EngineConfig(), closure=closure)
        assert resolve_calls == []
        resumed = saturate_groups(labelled[2:], EngineConfig(), closure=closure)
        assert _hex(resumed) == _hex(saturate_groups(labelled, EngineConfig()))

    def test_clause_sharing_a_key_is_rejected(self, resolve_calls):
        # Two values for one key would leave the input order to choose.
        clauses = [clause([(P, True)], 0.8, 0.1, support=("1",)), clause([(P, True)], 0.5, 0.1, support=("1",))]
        with pytest.raises(ValueError, match="shares its literals and support"):
            saturate_groups(clauses, EngineConfig())
        closure = _closure(clauses[:1])
        with pytest.raises(ValueError, match="shares its literals and support"):
            saturate_groups(clauses[1:], EngineConfig(), closure=closure)
        assert resolve_calls == []
        # A rejected batch queues nothing, its valid clause included.
        valid = clause([(P, False), (Q, True)], 0.5, 0.25, support=("2",))
        with pytest.raises(ValueError, match="shares its literals and support"):
            saturate_groups([valid, clauses[1]], EngineConfig(), closure=closure)
        assert resolve_calls == []
        resumed = saturate_groups([valid], EngineConfig(), closure=closure)
        assert _hex(resumed) == _hex(saturate_groups([clauses[0], valid], EngineConfig()))

    def test_rounds_are_bounded_by_clause_count(self):
        # Round k settles the keys whose support has k + 1 labels, so n
        # singly labelled clauses settle within n rounds: these 10 have
        # a key over 9 of them and need 9.
        clauses = _SLOW_SET
        with pytest.raises(IterationBoundExceeded):
            saturate_groups(clauses, EngineConfig(), max_rounds=8)
        settled = saturate_groups(clauses, EngineConfig(), max_rounds=9)
        assert _bits(settled) == _bits(saturate_groups(clauses, EngineConfig(), max_rounds=len(clauses)))
        rng = random.Random(3005)
        for _ in range(20):
            clauses = [_random_clause(rng, str(i)) for i in range(rng.randint(1, 6))]
            saturate_groups(clauses, EngineConfig(), max_rounds=len(clauses))

    def test_fixpoint_is_closed(self):
        clauses = [
            clause([(Q, True), (R, False)], 0.006998108368413548, 0.042112524572493204, support=("0",)),
            clause([(P, False), (R, True)], 0.06991478939734862, 0.4093251204236652, support=("1",)),
            clause([(Q, True), (R, True)], 0.27470727675509243, 0.08984073709583612, support=("2",)),
            clause([(R, True)], 0.8740135713916825, 0.021908352508880458, support=("3",)),
            clause([(P, False), (R, False)], 0.05839498707770723, 0.023584718382735313, support=("4",)),
        ]
        assert _missing_keys(_closure(clauses)) == []
        # Under heaviest-wins admission a derivation dropped early here
        # became admissible once the clause that blocked it was replaced.
        clauses = [
            clause([(Q, False), (W, False)], 0.8168335929310634, 0.0757270949367641, support=("0",)),
            clause([(P, True), (Q, True), (R, False)], 0.3251145081149552, 0.08705340040425857, support=("1",)),
            clause([(P, True), (Q, False), (R, False)], 0.04605347496550364, 0.03755151042863968, support=("2",)),
            clause([(P, True), (Q, True)], 0.11606411707940455, 0.018200597529420312, support=("3",)),
            clause([(W, False)], 0.11514373342149474, 0.3837113021063078, support=("4",)),
        ]
        assert _missing_keys(_closure(clauses)) == []
        rng = random.Random(3007)
        for _ in range(10):
            clauses = [_random_clause(rng, str(i)) for i in range(5)]
            assert _missing_keys(_closure(clauses, _ROUNDS)) == []


_CHAIN_TEXT = """
(clause (or (link s0)) (0.5 . 0.25))
(clause (or (not (link s0)) (link s1)) (0.75 . 0))
(clause (or (not (link s1)) (link s2)) (0.875 . 0))
"""
_CHAIN_ATOMS = [S(f"(link s{k})") for k in range(3)]


class TestSaturationCache:
    def fresh(self, text=_CHAIN_TEXT):
        kb = KnowledgeBase()
        kb.load_text(text)
        return kb

    def test_repeated_query_does_not_resaturate(self, resolve_calls):
        kb = self.fresh()
        first = _kb_answers(kb, atoms=_CHAIN_ATOMS)
        assert first[4] == [({}, 0.5 * 0.75 * 0.875)]
        assert resolve_calls
        resolve_calls.clear()
        assert _kb_answers(kb, atoms=_CHAIN_ATOMS) == first
        assert resolve_calls == []

    def test_load_does_not_saturate(self, resolve_calls):
        self.fresh()
        assert resolve_calls == []

    def test_add_clause_invalidates(self, resolve_calls):
        kb = self.fresh()
        goal = S("(link s3)")
        assert prove_by_resolution(kb, goal, "t", 0.0) == [({}, 0.0)]
        resolve_calls.clear()
        kb.add_clause([(S("(link s2)"), False), (goal, True)], TruthValue(0.5, 0.0))
        assert resolve_calls == []
        (answer,) = prove_by_resolution(kb, goal, "t", 0.0)
        assert resolve_calls
        assert answer[1] == 0.5 * 0.75 * 0.875 * 0.5

    def test_inference_cutoff_invalidates(self, resolve_calls):
        kb = self.fresh()
        goal = S("(link s2)")
        assert prove_by_resolution(kb, goal, "t", 0.0) == [({}, 0.5 * 0.75 * 0.875)]
        resolve_calls.clear()
        kb.set_variable("inference-cutoff", 0.4)
        assert prove_by_resolution(kb, goal, "t", 0.0) == [({}, 0.0)]
        assert resolve_calls

    def test_config_replaced_invalidates(self, resolve_calls):
        kb = self.fresh()
        goal = S("(link s2)")
        assert prove_by_resolution(kb, goal, "t", 0.0) == [({}, 0.5 * 0.75 * 0.875)]
        resolve_calls.clear()
        # A config cannot change in place, so the cache cannot go stale
        # behind the setter's back.
        with pytest.raises(AttributeError):
            kb.config.inference_cutoff = 0.4
        assert prove_by_resolution(kb, goal, "t", 0.0) == [({}, 0.5 * 0.75 * 0.875)]
        assert resolve_calls == []
        kb.config = kb.config.copy(inference_cutoff=0.4)
        assert prove_by_resolution(kb, goal, "t", 0.0) == [({}, 0.0)]
        assert resolve_calls
        resolve_calls.clear()
        kb.config = kb.config.copy(inference_cutoff=0.0)
        assert prove_by_resolution(kb, goal, "t", 0.0) == [({}, 0.5 * 0.75 * 0.875)]
        assert resolve_calls
        resolve_calls.clear()
        # An equal config, even a different object, keeps the cache.
        kb.config = EngineConfig()
        assert prove_by_resolution(kb, goal, "t", 0.0) == [({}, 0.5 * 0.75 * 0.875)]
        assert resolve_calls == []

    def test_cached_answers_equal_fresh_kb(self, monkeypatch):
        monkeypatch.setattr(pkb.kb, "saturate_groups", functools.partial(saturate_groups, max_rounds=_ROUNDS))
        rng = random.Random(3006)
        for _ in range(8):
            clauses = [_random_clause(rng, str(i)) for i in range(5)]
            kb = _kb_of(clauses[:2])
            for n in range(2, len(clauses) + 1):
                config = EngineConfig(inference_cutoff=rng.choice((0.0, 0.05)))
                fresh = _kb_of(clauses[:n])
                assert _kb_answers(kb, config) == _kb_answers(fresh, config)
                assert _kb_answers(kb, config) == _kb_answers(fresh, config)
                if n < len(clauses):
                    kb.add_clause(clauses[n].literals, clauses[n].tv)

    def test_bad_cutoff_saturates_nothing(self, resolve_calls):
        with pytest.raises(RangeError, match="cutoff must be in"):
            truep(self.fresh(), S("(link s2)"), "t", 2.0, method="resolution")
        assert resolve_calls == []

    def test_failed_saturation_is_kept_until_its_component_changes(self, monkeypatch, resolve_calls):
        # _SLOW_SET needs 9 rounds; the chain beside it settles in 3.
        kb = self.fresh()
        for c in _SLOW_SET:
            kb.add_clause(c.literals, c.tv)
        expected = _kb_answers(self.fresh(), atoms=_CHAIN_ATOMS)
        monkeypatch.setattr(pkb.kb, "saturate_groups", functools.partial(saturate_groups, max_rounds=8))
        assert _kb_answers(kb, atoms=_CHAIN_ATOMS) == expected
        assert resolve_calls
        for _ in range(2):
            resolve_calls.clear()
            with pytest.raises(IterationBoundExceeded):
                prove_by_resolution(kb, P, "t", 0.0)
            assert resolve_calls == []
        # A different config closes every component again.
        kb.config = kb.config.copy(inference_cutoff=0.001)
        with pytest.raises(IterationBoundExceeded):
            prove_by_resolution(kb, P, "t", 0.0)
        assert {atom in _CHAIN_ATOMS for _c1, _c2, atom in resolve_calls} == {True, False}
        resolve_calls.clear()
        assert _kb_answers(kb, atoms=_CHAIN_ATOMS) == expected
        assert resolve_calls == []
        monkeypatch.setattr(pkb.kb, "saturate_groups", saturate_groups)
        kb.config = EngineConfig()
        assert _kb_answers(kb, atoms=_CHAIN_ATOMS) == expected
        assert prove_by_resolution(kb, P, "t", 0.0) == prove_by_resolution(_kb_of(_SLOW_SET), P, "t", 0.0)


def _bits(groups):
    """Each group's derivations as (literals, belief, disbelief, support),
    so equal means equal bit for bit and in order."""
    return {
        lits: [(c.literals, c.tv.belief, c.tv.disbelief, c.support) for c in group]
        for lits, group in groups.items()
    }


def _add_chains(kb, n_chains, links):
    """Add a unit (link ci s0) and links (or (not (link ci sK)) (link ci sK+1))
    per chain to ``kb``, dyadic values as in `_chain`."""
    for c in range(n_chains):
        kb.add_clause([(S(f"(link c{c} s0)"), True)], TruthValue(0.75, 0.125))
        for k in range(links):
            link = [(S(f"(link c{c} s{k})"), False), (S(f"(link c{c} s{k + 1})"), True)]
            kb.add_clause(link, TruthValue(0.75, 0.0))
    return kb


def _resolved_chains(calls):
    """The chains, c0, c1, ..., of the atoms `resolve` was called on."""
    return {atom.elements[1].name for _c1, _c2, atom in calls}


def _component_count(kb):
    kb.saturation()
    return len(set(kb._component_of.values()))


def _check_partition(kb):
    """Each atom maps to the closure whose atoms hold it, and all atoms
    of a clause to one closure."""
    closures = set(kb._component_of.values())
    assert {atom: closure for closure in closures for atom in closure.atoms} == kb._component_of
    for c in kb.clauses:
        assert len({kb._component_of[atom] for atom, _positive in c.literals}) == 1


class TestComponentClosures:
    def test_equals_whole_set_saturation(self):
        # Clauses drawn from disjoint atom pools fall into several
        # components, which merge as clauses link them within a pool.
        rng = random.Random(3013)
        several = 0  # checks made with more than one component
        for _ in range(100):
            pools = [[sym(f"a{p}_{i}") for i in range(3)] for p in range(rng.randint(2, 4))]
            kb = KnowledgeBase()
            for _step in range(14):
                move = rng.random()
                if move < 0.6:
                    atoms = rng.sample(rng.choice(pools), rng.randrange(1, 4))
                    a, b = _random_mass(rng)
                    kb.add_clause([(atom, rng.random() < 0.5) for atom in atoms], TruthValue(a, b))
                elif move < 0.8 and kb.clauses:
                    prove_by_resolution(kb, rng.choice(rng.choice(pools)), "t", 0.0)
                elif move < 0.9:
                    kb.config = EngineConfig(inference_cutoff=rng.choice((0.0, 0.02, 0.05)))
                else:
                    kb.config = kb.config.copy(inference_cutoff=rng.choice((0.0, 0.05)))
                if kb.clauses:
                    several += _component_count(kb) > 1
                    _check_partition(kb)
                    assert _bits(kb.saturation()) == _bits(saturate_groups(kb.clauses, kb.config))
        assert several > 1000

    def test_added_link_resolves_only_its_chain(self, resolve_calls):
        kb = _add_chains(KnowledgeBase(), 3, 3)
        before = [prove_by_resolution(kb, S(f"(link c{c} s3)"), "t", 0.0) for c in range(3)]
        assert _resolved_chains(resolve_calls) == {"c0", "c1", "c2"}
        resolve_calls.clear()
        kb.add_clause([(S("(link c1 s3)"), False), (S("(link c1 s4)"), True)], TruthValue(0.5, 0.0))
        assert resolve_calls == []
        (answer,) = prove_by_resolution(kb, S("(link c1 s4)"), "t", 0.0)
        assert answer[1] == 0.75**4 * 0.5
        assert _resolved_chains(resolve_calls) == {"c1"}
        resolve_calls.clear()
        assert [prove_by_resolution(kb, S(f"(link c{c} s3)"), "t", 0.0) for c in range(3)] == before
        assert resolve_calls == []

    def test_bridging_clause_merges_components(self):
        kb = _add_chains(KnowledgeBase(), 2, 2)
        atoms = [S(f"(link c{c} s{k})") for c in range(2) for k in range(3)]
        (before,) = prove_by_resolution(kb, atoms[3], "not", 0.0)
        assert _component_count(kb) == 2
        kb.add_clause([(atoms[2], False), (atoms[3], False)], TruthValue(0.5, 0.25))
        assert _component_count(kb) == 1
        fresh = KnowledgeBase()
        for c in kb.clauses:
            fresh.add_clause(c.literals, c.tv)
        assert _bits(kb.saturation()) == _bits(fresh.saturation())
        answers = [prove_by_resolution(kb, atom, tag, 0.0) for atom in atoms for tag in ("t", "not")]
        assert answers == [prove_by_resolution(fresh, atom, tag, 0.0) for atom in atoms for tag in ("t", "not")]
        # the bridge carries disbelief from one chain's end to the other's start
        assert prove_by_resolution(kb, atoms[3], "not", 0.0)[0][1] > before[1]

    def test_chain_of_100_links_settles(self):
        # 101 clauses settle within 101 rounds, past any fixed round
        # bound of 100, so the KB closes its components with none.
        kb = _add_chains(KnowledgeBase(), 1, 100)
        (answer,) = prove_by_resolution(kb, S("(link c0 s100)"), "t", 0.0)
        assert answer[1] == pytest.approx(0.75**101, rel=1e-12)

    def test_failed_component_resumes_where_it_stopped(self, monkeypatch, resolve_calls):
        # A closure the round bound stopped keeps its pending work, so a
        # clause that joins it adds only its own work to what was done.
        kb = _kb_of(_SLOW_SET)
        bounded = functools.partial(saturate_groups, max_rounds=8)
        monkeypatch.setattr(pkb.kb, "saturate_groups", bounded)
        with pytest.raises(IterationBoundExceeded):
            kb.saturation()
        first = len(resolve_calls)
        kb.add_clause([(Y, False), (sym("z"), True)], TruthValue(0.5, 0.25))
        with pytest.raises(IterationBoundExceeded) as resumed:
            kb.saturation()
        made = len(resolve_calls)
        assert 0 < first < made
        resolve_calls.clear()
        with pytest.raises(IterationBoundExceeded) as whole:
            bounded(kb.clauses, kb.config)
        assert made == len(resolve_calls)
        assert _hex(resumed.value.partial) == _hex(whole.value.partial)

    def test_failed_component_fails_only_its_own_atoms(self, monkeypatch, resolve_calls):
        # These ten clauses need 9 rounds; the chain beside them settles
        # in 4.
        kb = KnowledgeBase()
        for c in _SLOW_SET:
            kb.add_clause(c.literals, c.tv)
        bounded = functools.partial(saturate_groups, max_rounds=8)
        monkeypatch.setattr(pkb.kb, "saturate_groups", bounded)
        slow_atoms = {P, Q, R, W, X, Y}
        with pytest.raises(IterationBoundExceeded):
            prove_by_resolution(kb, P, "t", 0.0)
        _add_chains(kb, 1, 3)
        resolve_calls.clear()
        (answer,) = prove_by_resolution(kb, S("(link c0 s3)"), "t", 0.0)
        assert answer[1] == 0.75**4
        assert resolve_calls
        assert not any(atom in slow_atoms for _c1, _c2, atom in resolve_calls)
        with pytest.raises(IterationBoundExceeded) as whole:
            bounded(kb.clauses, kb.config)
        resolve_calls.clear()
        for ask in (lambda: prove_by_resolution(kb, Y, "not", 0.0), kb.saturation):
            with pytest.raises(IterationBoundExceeded) as err:
                ask()
            assert resolve_calls == []
            # the partial holds what one loop over the whole set left
            assert _bits(err.value.partial) == _bits(whole.value.partial)
        # A clause that joins the slow component resumes its closure; a
        # different config closes it afresh.
        kb.add_clause([(Y, False), (sym("z"), True)], TruthValue(0.5, 0.25))
        assert prove_by_resolution(kb, S("(link c0 s3)"), "t", 0.0) == [answer]
        assert resolve_calls
        assert all(atom in slow_atoms for _c1, _c2, atom in resolve_calls)
        with pytest.raises(IterationBoundExceeded):
            prove_by_resolution(kb, sym("z"), "t", 0.0)
        resolve_calls.clear()
        kb.config = kb.config.copy(inference_cutoff=0.001)
        assert prove_by_resolution(kb, S("(link c0 s3)"), "t", 0.0) == [answer]
        assert {atom in slow_atoms for _c1, _c2, atom in resolve_calls} == {True, False}
        with pytest.raises(IterationBoundExceeded):
            prove_by_resolution(kb, sym("z"), "t", 0.0)
        # Without the bound, a clause that bridges the failed component
        # and the chain lets the merged component settle.
        monkeypatch.setattr(pkb.kb, "saturate_groups", saturate_groups)
        kb.add_clause([(sym("z"), False), (S("(link c0 s0)"), True)], TruthValue(0.5, 0.25))
        assert _component_count(kb) == 1
        assert _bits(kb.saturation()) == _bits(saturate_groups(kb.clauses, kb.config))


def _hex(groups):
    """Each group's keys as (literals, belief, disbelief, support), the
    values in float hex, so equal means equal bit for bit and in order."""
    return {
        lits: [(c.literals, c.tv.belief.hex(), c.tv.disbelief.hex(), c.support) for c in group]
        for lits, group in groups.items()
    }


def _added_one_at_a_time(clauses, goals):
    """A KB given ``clauses`` one at a time, a query for the next of
    ``goals`` after each."""
    kb = KnowledgeBase()
    for c, goal in zip(clauses, goals):
        kb.add_clause(c.literals, c.tv)
        prove_by_resolution(kb, goal, "t", 0.0)
    return kb


# The counterexample that made heaviest-wins admission depend on the
# order clauses arrive in.
_COUNTEREXAMPLE = [
    clause([(P, False), (R, True), (W, True)], 0.002507116043466795, 0.059549515098374015, support=("c1",)),
    clause([(R, True), (W, True)], 0.12269144667815889, 0.3579026123948391, support=("c2",)),
    clause([(W, True)], 0.0708687711981926, 0.05770990732748771, support=("c3",)),
]


class TestKeyedClosure:
    def test_equals_keyed_oracle(self):
        # The sets of test_every_random_set_settles_closed, each also
        # saturated in two other orders.
        rng, orders = random.Random(3004), random.Random(3014)
        for _ in range(120):
            clauses = [_random_clause(rng, str(i)) for i in range(5)]
            config = EngineConfig(inference_cutoff=orders.choice((0.0, 0.05)))
            groups = saturate_groups(clauses, config)
            expected = oracle_keyed_closure(
                [(c.literals, (c.tv.belief, c.tv.disbelief), *c.support) for c in clauses], config.inference_cutoff
            )
            assert {lits: [c.support for c in group] for lits, group in groups.items()} == {
                lits: [support for _a, _b, support in group] for lits, group in expected.items()
            }
            for lits, group in groups.items():
                assert all(tv_close(c.tv, (a, b)) for c, (a, b, _s) in zip(group, expected[lits]))
            shuffled = clauses[:]
            orders.shuffle(shuffled)
            assert _hex(saturate_groups(shuffled, config)) == _hex(groups)
            assert _hex(saturate_groups(clauses[::-1], config)) == _hex(groups)

    def test_incremental_equals_fresh(self):
        rng = random.Random(3015)
        sets = [_COUNTEREXAMPLE] + [[_random_clause(rng, str(i)) for i in range(rng.randint(2, 6))] for _ in range(199)]
        for clauses in sets:
            kb = _added_one_at_a_time(clauses, [rng.choice(_ATOMS) for _ in clauses])
            assert _hex(kb.saturation()) == _hex(_kb_of(clauses).saturation())

    def test_settled_counterexample(self):
        # Under heaviest-wins admission, a KB given c3 after a query
        # derived (not p) over {c1, c2, c3}, and a fresh KB did not: it
        # admitted (or (not p) w) over all three first and dropped the
        # lighter {c1, c2} variant that (not p) needs.
        kb = _added_one_at_a_time(_COUNTEREXAMPLE, [P, W, P])
        fresh = _kb_of(_COUNTEREXAMPLE)
        assert _hex(kb.saturation()) == _hex(fresh.saturation())
        (not_p,) = fresh.saturation()[frozenset({(P, False)})]
        assert not_p.support == frozenset({"c1", "c2", "c3"})
        assert prove_by_resolution(kb, P, "not", 0.0) == prove_by_resolution(fresh, P, "not", 0.0)

    def test_added_clause_resolves_only_pairs_with_its_label(self, resolve_calls):
        # Three chains of a unit and five links, the benchmark's shape.
        kb = _add_chains(KnowledgeBase(), 3, 5)
        prove_by_resolution(kb, S("(link c0 s5)"), "t", 0.0)
        resolve_calls.clear()
        kb.add_clause([(S("(link c0 s5)"), False), (S("(link c0 s6)"), True)], TruthValue(0.5, 0.0))
        (answer,) = prove_by_resolution(kb, S("(link c0 s6)"), "t", 0.0)
        assert answer[1] == 0.75**6 * 0.5
        # one call per new key: (or (not (link c0 sK)) (link c0 s6)) for
        # K < 5, and the unit (link c0 s6)
        assert len(resolve_calls) == 6
        assert all("c19" in c1.support | c2.support for c1, c2, _atom in resolve_calls)
        assert _hex(kb.saturation()) == _hex(_kb_of(kb.clauses).saturation())

    def test_joining_clause_resumes_both_closures(self, resolve_calls):
        kb = _add_chains(KnowledgeBase(), 2, 2)
        prove_by_resolution(kb, S("(link c0 s2)"), "t", 0.0)
        prove_by_resolution(kb, S("(link c1 s2)"), "t", 0.0)
        resolve_calls.clear()
        kb.add_clause([(S("(link c0 s2)"), False), (S("(link c1 s0)"), False)], TruthValue(0.5, 0.25))
        prove_by_resolution(kb, S("(link c1 s2)"), "not", 0.0)
        assert {atom.elements[1].name for _c1, _c2, atom in resolve_calls} == {"c0", "c1"}
        assert all("c7" in c1.support | c2.support for c1, c2, _atom in resolve_calls)
        assert _hex(kb.saturation()) == _hex(_kb_of(kb.clauses).saturation())

    def test_interrupted_resume_starts_over(self, monkeypatch):
        # An exception inside the loop leaves a closure half extended;
        # the next call closes the clause set afresh.
        kb = _add_chains(KnowledgeBase(), 1, 3)
        prove_by_resolution(kb, S("(link c0 s3)"), "t", 0.0)
        kb.add_clause([(S("(link c0 s3)"), False), (S("(link c0 s4)"), True)], TruthValue(0.5, 0.0))
        real = resolution.resolve

        def interrupting(*args):
            monkeypatch.setattr(resolution, "resolve", real)
            raise KeyboardInterrupt

        monkeypatch.setattr(resolution, "resolve", interrupting)
        with pytest.raises(KeyboardInterrupt):
            prove_by_resolution(kb, S("(link c0 s4)"), "t", 0.0)
        (answer,) = prove_by_resolution(kb, S("(link c0 s4)"), "t", 0.0)
        assert answer[1] == 0.75**4 * 0.5
        assert _hex(kb.saturation()) == _hex(_kb_of(kb.clauses).saturation())


def _clause_over(rng, atoms, support):
    """A random clause of one to three of ``atoms``."""
    lits = [(atom, rng.random() < 0.5) for atom in rng.sample(atoms, rng.randrange(1, 4))]
    return Clause.make(lits, TruthValue(*_random_mass(rng)), support=frozenset({support}))


class TestClosureMasks:
    def test_chain_wider_than_a_machine_word(self):
        # 71 labels and 71 atoms: the support masks pass 64 bits and the
        # literal masks pass 32 atoms. The halving links keep every
        # product exact.
        n = 70
        kb = KnowledgeBase()
        kb.add_clause([(S("(link c0 s0)"), True)], TruthValue(0.75, 0.125))
        for k in range(n):
            kb.add_clause([(S(f"(link c0 s{k})"), False), (S(f"(link c0 s{k + 1})"), True)], TruthValue(0.5, 0.0))
        for k in (1, 32, 33, 64, 65, n):
            assert prove_by_resolution(kb, S(f"(link c0 s{k})"), "t", 0.0) == [({}, 0.75 * 0.5**k)]
            assert prove_by_resolution(kb, S(f"(link c0 s{k})"), "not", 0.0) == [({}, 0.0)]
        (closure,) = set(kb._component_of.values())
        assert len(closure.labels) == len(closure.atoms) == n + 1
        assert sum(len(entries) for entries in closure.keys.values()) == n + 1 + n * (n + 1) // 2

    def test_tautology_test_reads_every_atom(self):
        # Forty units come first, so a and b get bits past 64; the pair
        # over them resolves only to tautologies, on either atom.
        fillers = [clause([(sym(f"f{i}"), True)], 0.5, 0.25, support=(f"f{i}",)) for i in range(40)]
        a, b = sym("a"), sym("b")
        pair = [clause([(a, True), (b, True)], 0.5, 0.25, ("1",)), clause([(a, False), (b, False)], 0.5, 0.25, ("2",))]
        groups = saturate_groups(fillers + pair, EngineConfig())
        assert sorted(map(len, groups.values())) == [1] * 42

    def test_absorb_re_encodes_into_its_alphabet(self):
        # Each closure assigns bits in the order its atoms and labels
        # arrive; the absorbed one, stopped by the round bound with work
        # still pending, arrives in reverse order.
        rng = random.Random(3024)
        config = EngineConfig()
        for _ in range(40):
            left = [_clause_over(rng, [P, Q, R], f"a{i}") for i in range(rng.randint(2, 4))]
            right = [_clause_over(rng, [W, X, Y], f"b{i}") for i in range(rng.randint(2, 4))]
            bridge = clause([(rng.choice([P, Q, R]), True), (rng.choice([W, X, Y]), False)], 0.5, 0.25, ("ab",))
            whole = _hex(saturate_groups(left + right + [bridge], config))
            for first, second in ((left, right), (right, left)):
                into, other = _closure(first), Closure()
                with contextlib.suppress(IterationBoundExceeded):
                    saturate_groups(second[::-1], config, max_rounds=1, closure=other)
                into.absorb(other)
                assert _hex(saturate_groups([bridge], config, closure=into)) == whole

    def test_rejected_batch_assigns_no_bit(self):
        closure = _closure([clause([(P, True)], 0.8, 0.1, support=("1",))])
        alphabet = (dict(closure.atoms), dict(closure.labels), closure.even)
        new = clause([(Q, True), (R, False)], 0.5, 0.25, support=("2",))
        for rejected in (clause([(P, True)], 0.5, 0.1, support=("1",)), Clause.make([(W, True)], TruthValue(0.5, 0.0))):
            with pytest.raises(ValueError):
                closure.add([new, rejected])
            assert (dict(closure.atoms), dict(closure.labels), closure.even) == alphabet
            assert closure.pending == {}

    def test_dense_sets_keep_their_keys(self):
        # Two of the n = 8 sets whose keys far outnumber their groups;
        # a change to the key set, or a much slower loop, shows here.
        rng = random.Random(7008)
        sets = [[_random_clause(rng, str(i)) for i in range(8)] for _ in range(5)]
        for clauses, count in zip(sets[3:], (1436, 1325)):
            closure = _closure(clauses, max_rounds=8)
            assert sum(len(entries) for entries in closure.keys.values()) == count
            assert _missing_keys(closure) == []
