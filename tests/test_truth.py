"""Unit and property tests for the truth-value algebra."""

import math
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pkb import truth

from pkb.errors import NoValidResidual, NotCertainRemovable, RangeError, TotalConflict
from pkb.truth import (
    FALSE,
    TRUE,
    VACUOUS,
    EngineConfig,
    TruthValue,
    apply_tag,
    combine,
    conjoin,
    delta_mass,
    negate,
    propagate,
    uncombine,
)

from oracles import oracle_combine, oracle_conjoin, oracle_uncombine

TOL = 1e-9

_unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False, allow_infinity=False)


@st.composite
def truth_values(draw, max_mass=1.0):
    """A valid pair drawn directly from the simplex a + b <= max_mass."""
    a = draw(st.floats(min_value=0.0, max_value=max_mass, allow_nan=False, allow_infinity=False))
    b = draw(st.floats(min_value=0.0, max_value=max_mass - a, allow_nan=False, allow_infinity=False))
    return TruthValue(a, b)


def close(x: TruthValue, y: TruthValue, tol=TOL) -> bool:
    return abs(x.belief - y.belief) <= tol and abs(x.disbelief - y.disbelief) <= tol


class TestConstruction:
    def test_constants(self):
        assert VACUOUS == TruthValue(0.0, 0.0)
        assert TRUE == TruthValue(1.0, 0.0)
        assert FALSE == TruthValue(0.0, 1.0)

    def test_rejects_mass_above_one(self):
        with pytest.raises(RangeError):
            TruthValue(0.9, 0.3)

    def test_rejects_negative(self):
        with pytest.raises(RangeError):
            TruthValue(-0.1, 0.2)

    def test_rejects_nan(self):
        with pytest.raises(RangeError):
            TruthValue(float("nan"), 0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["belief", "disbelief"])
    def test_rejects_a_non_finite_field(self, field, bad):
        with pytest.raises(RangeError) as caught:
            TruthValue(**{"belief": 0.0, "disbelief": 0.0, field: bad})
        assert str(caught.value) == f"{field} must be a finite real, got {bad!r}"

    def test_clamps_drift(self):
        tv = TruthValue(1.0 + 5e-13, -5e-13)
        assert tv.belief == 1.0
        assert tv.disbelief == 0.0

    def test_dotted_rendering(self):
        assert str(TruthValue(0.3, 0.2)) == "(0.3 . 0.2)"
        assert str(TRUE) == "(1 . 0)"


class TestTags:
    def test_tag_table(self):
        tv = TruthValue(0.3, 0.2)
        assert apply_tag("t", tv) == 0.3
        assert apply_tag("not", tv) == 0.2
        assert apply_tag("unknown", tv) == 0.5
        assert apply_tag("poss", tv) == 0.8
        assert apply_tag("poss-not", tv) == 0.7
        assert apply_tag("mass", tv) == 0.5

    def test_mass_of_certain(self):
        assert apply_tag("mass", TRUE) == 1.0

    def test_unknown_tag(self):
        with pytest.raises(ValueError):
            apply_tag("maybe", VACUOUS)

    @given(tv=truth_values())
    def test_tag_identities(self, tv):
        assert apply_tag("t", tv) + apply_tag("not", tv) + apply_tag("unknown", tv) == pytest.approx(1.0, abs=1e-12)
        assert apply_tag("poss", tv) == pytest.approx(1.0 - apply_tag("not", tv), abs=1e-12)
        assert apply_tag("mass", tv) == pytest.approx(apply_tag("t", tv) + apply_tag("not", tv), abs=1e-12)


class TestNegate:
    def test_swaps(self):
        assert negate(TRUE) == FALSE
        assert negate(VACUOUS) == VACUOUS
        assert negate(TruthValue(0.3, 0.2)) == TruthValue(0.2, 0.3)

    @given(tv=truth_values())
    def test_involution(self, tv):
        assert negate(negate(tv)) == tv


class TestCombine:
    def test_absorbs_into_certain_disconfirmation(self):
        assert close(combine(TruthValue(0.7, 0.0), FALSE), FALSE)

    def test_vacuous_identity(self):
        tv = TruthValue(0.4, 0.3)
        assert combine(tv, VACUOUS) == tv
        assert combine(VACUOUS, tv) == tv

    def test_total_conflict(self):
        with pytest.raises(TotalConflict):
            combine(TRUE, FALSE)

    def test_accumulation_example(self):
        got = combine(TruthValue(0.3, 0.0), TruthValue(0.0, 0.2))
        assert got.belief == pytest.approx(0.2553191489361702, abs=TOL)
        assert got.disbelief == pytest.approx(0.14893617021276595, abs=TOL)

    @given(x=truth_values(), y=truth_values())
    def test_matches_joint_mass_oracle(self, x, y):
        expected = oracle_combine((x.belief, x.disbelief), (y.belief, y.disbelief))
        if expected is None:
            with pytest.raises(TotalConflict):
                combine(x, y)
            return
        got = combine(x, y)
        assert got.belief == pytest.approx(expected[0], abs=TOL)
        assert got.disbelief == pytest.approx(expected[1], abs=TOL)

    @given(x=truth_values(), y=truth_values())
    def test_commutative(self, x, y):
        try:
            xy = combine(x, y)
        except TotalConflict:
            with pytest.raises(TotalConflict):
                combine(y, x)
            return
        assert close(xy, combine(y, x))

    @given(x=truth_values(max_mass=0.98), y=truth_values(max_mass=0.98), z=truth_values(max_mass=0.98))
    def test_associative(self, x, y, z):
        assert close(combine(combine(x, y), z), combine(x, combine(y, z)))

    @given(x=truth_values(), y=truth_values())
    def test_negation_symmetry(self, x, y):
        assume(x.belief * y.disbelief + x.disbelief * y.belief < 1.0)
        assert close(combine(negate(x), negate(y)), negate(combine(x, y)))

    @given(tv=truth_values())
    def test_certain_values_absorb(self, tv):
        assume(tv.disbelief < 1.0)
        assert close(combine(TRUE, tv), TRUE)


class TestUncombine:
    def test_sole_component_leaves_vacuous(self):
        tv = TruthValue(0.7, 0.0)
        assert close(uncombine(tv, tv), VACUOUS)

    def test_certain_component_rejected(self):
        with pytest.raises(NotCertainRemovable):
            uncombine(FALSE, TRUE)

    def test_unreachable_total_rejected(self):
        # Nothing combined with a weak component reaches certainty.
        with pytest.raises(NoValidResidual):
            uncombine(TruthValue(0.0, 0.0), TruthValue(0.6, 0.0))

    @given(x=truth_values(), y=truth_values(max_mass=0.999999))
    @settings(max_examples=300)
    def test_round_trip(self, x, y):
        # A full-mass component makes the residual non-unique; the
        # round trip is only claimed off that boundary set.
        assume(x.belief * y.disbelief + x.disbelief * y.belief < 1.0 - 1e-9)
        total = combine(x, y)
        back = uncombine(total, y)
        assert close(back, x, tol=1e-7)

    @given(x=truth_values(), y=truth_values())
    @settings(max_examples=500)
    def test_matches_exact_inverse(self, x, y):
        assume(1.0 - y.belief - y.disbelief >= 1e-6)
        total = combine(x, y)
        exact = oracle_uncombine((total.belief, total.disbelief), (y.belief, y.disbelief))
        assume(exact is not None and min(exact) >= 0.0 and sum(exact) <= 1.0)
        got = uncombine(total, y)
        assert abs(got.belief - exact[0]) + abs(got.disbelief - exact[1]) <= 1e-12

    @given(total=truth_values())
    def test_certain_component_raises(self, total):
        for certain in (TRUE, FALSE):
            with pytest.raises(NotCertainRemovable):
                uncombine(total, certain)

    @given(total=truth_values(), a=_unit, gap=st.floats(min_value=0.0, max_value=0.9e-12))
    def test_component_without_uncommitted_mass_raises(self, total, a, gap):
        # every residual on a line recombines to the total; none is returned
        component = TruthValue(a, max(1.0 - a - gap, 0.0))
        assume(not component.is_certain())
        with pytest.raises(NoValidResidual):
            uncombine(total, component)


class TestPropagate:
    def test_certain_premise_passes_rule_through(self):
        assert propagate(TRUE, TruthValue(0.7, 0.0)) == TruthValue(0.7, 0.0)

    def test_disconfirmed_premise_contributes_nothing(self):
        assert propagate(FALSE, TruthValue(0.7, 0.0)) == VACUOUS

    def test_scales_with_belief_only(self):
        got = propagate(TruthValue(0.5, 0.3), TruthValue(0.7, 0.1))
        assert got == TruthValue(0.35, 0.05)

    @given(tv=truth_values(), rule=truth_values())
    def test_monotone_in_premise_belief(self, tv, rule):
        assume(tv.belief <= 0.9)
        stronger = TruthValue(min(1.0 - tv.disbelief, tv.belief + 0.1), tv.disbelief)
        weak = propagate(tv, rule)
        strong = propagate(stronger, rule)
        assert strong.belief >= weak.belief - 1e-12
        assert strong.disbelief >= weak.disbelief - 1e-12


class TestConjoin:
    def test_true_is_identity(self):
        tv = TruthValue(0.4, 0.25)
        assert conjoin(TRUE, tv) == tv

    def test_false_forces_falsity(self):
        assert conjoin(FALSE, TruthValue(0.4, 0.25)) == FALSE

    def test_independent_product(self):
        assert conjoin(TruthValue(0.5, 0.0), TruthValue(0.5, 0.0)) == TruthValue(0.25, 0.0)

    @given(x=truth_values(), y=truth_values())
    def test_matches_model_oracle(self, x, y):
        expected = oracle_conjoin((x.belief, x.disbelief), (y.belief, y.disbelief))
        got = conjoin(x, y)
        assert got.belief == pytest.approx(expected[0], abs=TOL)
        assert got.disbelief == pytest.approx(expected[1], abs=TOL)


class TestDeltaMass:
    def test_no_change(self):
        tv = TruthValue(0.3, 0.2)
        assert delta_mass(tv, tv) == 0.0

    def test_full_confirmation_from_nothing(self):
        assert delta_mass(VACUOUS, TRUE) == 1.0

    def test_l1_distance(self):
        assert delta_mass(TruthValue(0.3, 0.2), TruthValue(0.5, 0.1)) == pytest.approx(0.3, abs=1e-12)

    @given(x=truth_values(), y=truth_values())
    def test_symmetric_and_bounded(self, x, y):
        d = delta_mass(x, y)
        assert d == delta_mass(y, x)
        assert 0.0 <= d <= 2.0


class TestEngineConfig:
    def test_defaults(self):
        config = EngineConfig()
        assert config.inference_cutoff == 0.0
        assert config.accept_as_true == 1.0
        assert config.max_chain_depth == 64

    def test_validation(self):
        with pytest.raises(RangeError):
            EngineConfig(inference_cutoff=1.5)
        with pytest.raises(RangeError):
            EngineConfig(accept_as_true=0.0)
        with pytest.raises(RangeError):
            EngineConfig(max_chain_depth=0)

    @pytest.mark.parametrize("depth", [1.5, math.inf])
    def test_depth_must_be_a_finite_whole_number(self, depth):
        with pytest.raises(RangeError):
            EngineConfig(max_chain_depth=depth)

    @pytest.mark.parametrize("depth", [5.0, 10**400])
    def test_whole_depth_is_kept_as_an_int(self, depth):
        config = EngineConfig(max_chain_depth=depth)
        assert config.max_chain_depth == depth and type(config.max_chain_depth) is int

    def test_replace_checks_too(self):
        assert EngineConfig()._replace(max_chain_depth=5.0) == EngineConfig(max_chain_depth=5)
        with pytest.raises(RangeError):
            EngineConfig()._replace(inference_cutoff=5.0)

    @pytest.mark.parametrize("field", EngineConfig._fields)
    def test_fields_cannot_change(self, field):
        config = EngineConfig()
        with pytest.raises(AttributeError):
            setattr(config, field, 0.5)
        with pytest.raises(AttributeError):
            delattr(config, field)
        assert config == EngineConfig()

    def test_copy_checks_and_equality(self):
        config = EngineConfig(inference_cutoff=0.2)
        copy = config.copy()
        assert copy == config and copy is not config
        assert config.copy(max_chain_depth=5) == EngineConfig(inference_cutoff=0.2, max_chain_depth=5)
        assert config.copy(inference_cutoff=0.3) != config
        with pytest.raises(RangeError):
            config.copy(accept_as_true=2.0)


def _edge_values() -> list:
    """Certain, vacuous and mass-one pairs, and pairs whose float sum
    lands within an ulp of 1 on either side."""
    rng = random.Random(8)
    values = [VACUOUS, TRUE, FALSE, TruthValue(0.5, 0.5), TruthValue(1e-300, 0.0)]
    for _ in range(60):
        a = rng.random()
        for b in (1.0 - a, math.nextafter(1.0 - a, 0.0), math.nextafter(1.0 - a, 2.0)):
            values.append(TruthValue(a, b) if a + b <= 1.0 + 1e-12 else TruthValue(a, 1.0 - a))
        values.append(TruthValue(a, 0.0))
        values.append(TruthValue(0.0, a))
    for _ in range(60):
        mass = rng.random()
        belief = rng.uniform(0.0, mass)
        values.append(TruthValue(belief, mass - belief))
    return values


def _bits(tv: TruthValue) -> tuple:
    return tv.belief.hex(), tv.disbelief.hex()


def _through_public_constructor(op, *args):
    """``op(*args)`` with the algebra's private constructors replaced by
    the checked public one."""
    saved = truth._pair, truth._shaved
    truth._pair = truth._shaved = TruthValue
    try:
        return op(*args)
    finally:
        truth._pair, truth._shaved = saved


class TestPrivateConstructors:
    def test_results_are_bit_identical_to_checked_ones(self):
        values = _edge_values()
        pairs = [(x, y) for x in values for y in values[::7]]
        for x, y in pairs:
            for op in (combine, conjoin, propagate):
                try:
                    expected = _through_public_constructor(op, x, y)
                except TotalConflict:
                    with pytest.raises(TotalConflict):
                        op(x, y)
                    continue
                got = op(x, y)
                assert _bits(got) == _bits(expected), (op.__name__, x, y)
                assert got.belief + got.disbelief <= 1.0
            assert _bits(negate(x)) == _bits(_through_public_constructor(negate, x))

    @given(x=truth_values(), y=truth_values())
    def test_random_results_are_bit_identical(self, x, y):
        for op in (combine, conjoin, propagate):
            try:
                expected = _through_public_constructor(op, x, y)
            except TotalConflict:
                continue
            assert _bits(op(x, y)) == _bits(expected)

    @given(tv=truth_values())
    def test_truth_values_are_immutable(self, tv):
        for name in ("belief", "disbelief", "other"):
            with pytest.raises(AttributeError):
                setattr(tv, name, 0.5)
            with pytest.raises(AttributeError):
                delattr(tv, name)
