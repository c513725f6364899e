"""Tests for terms, unification and substitution."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pkb.terms import (
    Compound,
    Number,
    Symbol,
    Variable,
    canonical_form,
    compound,
    format_bindings,
    is_ground,
    match,
    normalize_negation,
    rename_apart,
    substitute,
    sym,
    unify,
    var,
    variables_in,
)

FOO_X = compound(sym("foo"), var("x"))
FOO_FRED = compound(sym("foo"), sym("fred"))


@st.composite
def terms(draw, depth=0):
    kind = draw(st.sampled_from(["sym", "var", "num", "comp"] if depth < 3 else ["sym", "var", "num"]))
    if kind == "sym":
        return Symbol(draw(st.sampled_from(["foo", "goo", "fred", "harry", "a", "b"])))
    if kind == "var":
        return Variable(draw(st.sampled_from(["x", "y", "z"])))
    if kind == "num":
        return Number(float(draw(st.integers(min_value=-5, max_value=5))))
    head = Symbol(draw(st.sampled_from(["p", "q", "r"])))
    args = draw(st.lists(terms(depth=depth + 1), min_size=1, max_size=3))
    return Compound((head, *args))


class TestUnify:
    def test_binds_variable_to_constant(self):
        assert unify(FOO_X, FOO_FRED) == {var("x"): sym("fred")}

    def test_head_mismatch_fails(self):
        assert unify(FOO_X, compound(sym("goo"), sym("fred"))) is None

    def test_occurs_check(self):
        assert unify(var("x"), compound(sym("foo"), var("x"))) is None

    def test_arity_mismatch_fails(self):
        assert unify(FOO_FRED, compound(sym("foo"), sym("fred"), sym("more"))) is None

    def test_extends_seed_bindings(self):
        seed = {var("x"): sym("fred")}
        got = unify(compound(sym("p"), var("x"), var("y")), compound(sym("p"), sym("fred"), sym("a")), seed)
        assert got == {var("x"): sym("fred"), var("y"): sym("a")}

    def test_seed_conflict_fails(self):
        seed = {var("x"): sym("harry")}
        assert unify(FOO_X, FOO_FRED, seed) is None

    def test_numbers_unify_by_value(self):
        assert unify(Number(2.0), Number(2.0)) == {}
        assert unify(Number(2.0), Number(3.0)) is None

    @given(t1=terms(), t2=terms())
    def test_unifier_makes_terms_equal(self, t1, t2):
        theta = unify(t1, t2)
        if theta is not None:
            assert substitute(t1, theta) == substitute(t2, theta)

    @given(t1=terms(), t2=terms())
    def test_symmetric_success(self, t1, t2):
        assert (unify(t1, t2) is None) == (unify(t2, t1) is None)


class TestMatch:
    @given(p=terms(), q=terms(), values=st.lists(terms(), min_size=3, max_size=3), same=st.booleans())
    def test_agrees_with_unify_on_ground_terms(self, p, q, values, same):
        # Ground either the pattern itself (a guaranteed instance) or an
        # unrelated term, by substituting ground values for x, y and z.
        leaves = {var(n): sym("a") for n in "xyz"}
        grounding = {var(n): substitute(v, leaves) for n, v in zip("xyz", values)}
        g = substitute(p if same else q, grounding)
        theta = match(p, g, {})
        unifier = unify(p, g, {})
        assert (theta is None) == (unifier is None)
        if same:
            assert theta is not None
        if theta is not None:
            assert theta == unifier
            assert substitute(p, theta) == substitute(p, unifier) == g

    def test_repeated_variable_must_bind_consistently(self):
        pattern = compound(sym("p"), var("x"), var("x"))
        assert match(pattern, compound(sym("p"), sym("a"), sym("a")), {}) == {var("x"): sym("a")}
        assert match(pattern, compound(sym("p"), sym("a"), sym("b")), {}) is None


class TestSubstitute:
    def test_steals_example(self):
        pattern = compound(sym("steals"), var("person"), var("object"))
        theta = {var("person"): sym("Nixon")}
        assert substitute(pattern, theta) == compound(sym("steals"), sym("Nixon"), var("object"))

    def test_empty_bindings_identity(self):
        assert substitute(FOO_FRED, {}) == FOO_FRED

    def test_follows_chains(self):
        theta = {var("x"): compound(var("y")), var("y"): sym("a")}
        assert substitute(var("x"), theta) == compound(sym("a"))

    @given(t=terms())
    def test_idempotent(self, t):
        theta = {var("x"): sym("a"), var("y"): compound(sym("p"), sym("b"))}
        once = substitute(t, theta)
        assert substitute(once, theta) == once


class TestNormalizeNegation:
    def test_single_wrapper(self):
        assert normalize_negation(compound(sym("not"), FOO_FRED)) == (FOO_FRED, True)

    def test_no_wrapper(self):
        assert normalize_negation(FOO_FRED) == (FOO_FRED, False)

    def test_double_negation(self):
        wrapped = compound(sym("not"), compound(sym("not"), FOO_FRED))
        assert normalize_negation(wrapped) == (FOO_FRED, False)

    def test_core_is_fixed_point(self):
        core, _ = normalize_negation(compound(sym("not"), FOO_FRED))
        assert normalize_negation(core) == (core, False)


class TestRenameApart:
    def test_shares_no_variables(self):
        original = compound(sym("p"), var("x"), var("y"))
        (renamed,) = rename_apart([original])
        assert variables_in(renamed) & variables_in(original) == set()

    def test_consistent_across_terms(self):
        t1 = compound(sym("p"), var("x"))
        t2 = compound(sym("q"), var("x"))
        r1, r2 = rename_apart([t1, t2])
        assert r1.elements[1] == r2.elements[1]

    def test_renaming_preserves_unification(self):
        goal = compound(sym("p"), sym("a"))
        pattern = compound(sym("p"), var("x"))
        (renamed,) = rename_apart([pattern])
        assert (unify(pattern, goal) is None) == (unify(renamed, goal) is None)


class TestCanonicalForm:
    def test_variants_share_form(self):
        t1 = compound(sym("p"), var("x"), var("y"), var("x"))
        t2 = compound(sym("p"), var("a"), var("b"), var("a"))
        assert canonical_form(t1) == canonical_form(t2)

    def test_non_variants_differ(self):
        t1 = compound(sym("p"), var("x"), var("x"))
        t2 = compound(sym("p"), var("x"), var("y"))
        assert canonical_form(t1) != canonical_form(t2)


class TestMisc:
    def test_is_ground(self):
        assert is_ground(FOO_FRED)
        assert not is_ground(FOO_X)

    def test_compound_requires_elements(self):
        with pytest.raises(ValueError):
            Compound(())

    def test_rendering(self):
        assert str(compound(sym("foo"), var("x"), Number(2.0))) == "(foo $x 2)"

    def test_format_bindings(self):
        theta = {var("y"): Number(2.0), var("x"): sym("harry")}
        assert format_bindings(theta) == "{$x=harry, $y=2}"
        assert format_bindings({}) == "{}"
