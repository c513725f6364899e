"""Resolution: joint-frame values vs the model oracle, closed forms, saturation."""

import functools
import itertools
import random

import pytest

import pkb.kb
from pkb import resolution
from pkb.errors import IterationBoundExceeded, TautologicalResolvent, TotalConflict
from pkb.kb import KnowledgeBase
from pkb.resolution import Clause, prove_by_resolution, resolve, saturate, saturate_groups
from pkb.sexpr import parse_sentence as S
from pkb.terms import sym
from pkb.truth import EngineConfig, TruthValue

from oracles import oracle_resolvent_tv

TOL = 1e-9

P, Q, R, W = sym("p"), sym("q"), sym("r"), sym("w")


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
        # rest2 <= rest1) class, hence every cell of resolve's focal
        # table, is met.
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
# included; a low bound keeps the sets that never settle cheap.
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


def _kb_answers(kb, config=None):
    """Every atom's t and not value; one saturation serves them all."""
    try:
        return [prove_by_resolution(kb, atom, tag, 0.0, config) for atom in _ATOMS for tag in ("t", "not")]
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


def _admissible_left(groups):
    """Resolvents of live pairs that the admission policy would still take."""
    live = [c for group in groups.values() for c in group]
    out = []
    for a, b in itertools.combinations(live, 2):
        for atom in a.atoms() & b.atoms():
            try:
                got = resolve(a, b, atom)
            except (TautologicalResolvent, TotalConflict, ValueError):
                continue
            if got.tv.mass == 0.0:
                continue
            overlapping = [c for c in groups.get(got.literals, ()) if c.support & got.support]
            # resolve(a, b) and resolve(b, a) may differ in the last bit
            if all(got.tv.mass > c.tv.mass + 1e-12 for c in overlapping):
                out.append(got)
    return out


def _chain(n, link=0.75):
    """Unit (a0) and links (or (not ai) ai+1); dyadic values keep every
    derivation of one clause bit-for-bit equal."""
    atoms = [sym(f"a{i}") for i in range(n + 1)]
    clauses = [clause([(atoms[0], True)], 0.75, 0.0, support=("u",))]
    for i in range(n):
        clauses.append(clause([(atoms[i], False), (atoms[i + 1], True)], link, 0.0, support=(f"l{i}",)))
    return atoms, clauses


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

    def test_fixpoint_is_closed(self):
        # Here a derivation dropped early becomes admissible once the
        # clause that blocked it is itself replaced; the loop must offer
        # it again.
        clauses = [
            clause([(Q, True), (R, False)], 0.006998108368413548, 0.042112524572493204, support=("0",)),
            clause([(P, False), (R, True)], 0.06991478939734862, 0.4093251204236652, support=("1",)),
            clause([(Q, True), (R, True)], 0.27470727675509243, 0.08984073709583612, support=("2",)),
            clause([(R, True)], 0.8740135713916825, 0.021908352508880458, support=("3",)),
            clause([(P, False), (R, False)], 0.05839498707770723, 0.023584718382735313, support=("4",)),
        ]
        assert _admissible_left(saturate_groups(clauses, EngineConfig())) == []
        rng = random.Random(3007)
        for _ in range(10):
            clauses = [_random_clause(rng, str(i)) for i in range(5)]
            try:
                groups = saturate_groups(clauses, EngineConfig(), _ROUNDS)
            except IterationBoundExceeded:
                continue  # closure is only defined at a fixpoint
            assert _admissible_left(groups) == []


_CHAIN_TEXT = """
(clause (or (link s0)) (0.5 . 0.25))
(clause (or (not (link s0)) (link s1)) (0.75 . 0))
(clause (or (not (link s1)) (link s2)) (0.875 . 0))
"""


class TestSaturationCache:
    def fresh(self, text=_CHAIN_TEXT):
        kb = KnowledgeBase()
        kb.load_text(text)
        return kb

    def test_repeated_query_does_not_resaturate(self, resolve_calls):
        kb = self.fresh()
        first = _kb_answers(kb)
        assert resolve_calls
        resolve_calls.clear()
        assert _kb_answers(kb) == first
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

    def test_passed_config_invalidates(self, resolve_calls):
        kb = self.fresh()
        goal = S("(link s2)")
        strict = EngineConfig(inference_cutoff=0.4)
        assert prove_by_resolution(kb, goal, "t", 0.0, strict) == [({}, 0.0)]
        resolve_calls.clear()
        assert prove_by_resolution(kb, goal, "t", 0.0) == [({}, 0.5 * 0.75 * 0.875)]
        assert resolve_calls
        resolve_calls.clear()
        # The cache keeps a copy of the config, so one mutated in place
        # is judged by its new value.
        strict.inference_cutoff = 0.0
        assert prove_by_resolution(kb, goal, "t", 0.0, strict) == [({}, 0.5 * 0.75 * 0.875)]
        assert resolve_calls == []
        strict.inference_cutoff = 0.4
        assert prove_by_resolution(kb, goal, "t", 0.0, strict) == [({}, 0.0)]

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

    def test_failed_saturation_is_not_cached(self, monkeypatch, resolve_calls):
        kb = self.fresh()
        expected = _kb_answers(self.fresh())
        monkeypatch.setattr(pkb.kb, "saturate_groups", functools.partial(saturate_groups, max_rounds=1))
        for _ in range(2):
            resolve_calls.clear()
            with pytest.raises(IterationBoundExceeded):
                prove_by_resolution(kb, S("(link s2)"), "t", 0.0)
            assert resolve_calls
        monkeypatch.setattr(pkb.kb, "saturate_groups", saturate_groups)
        assert _kb_answers(kb) == expected
