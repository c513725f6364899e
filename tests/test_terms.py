"""Tests for terms, unification and substitution."""

import copy
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pkb.kb import make_rule
from pkb.sexpr import parse_sentence
from pkb.terms import (
    Compound,
    Ground,
    Number,
    Symbol,
    Term,
    Variable,
    canonical_form,
    compile_builder,
    compile_matcher,
    compound,
    format_bindings,
    is_ground,
    normalize_negation,
    substitute,
    sym,
    unify,
    var,
    variables_in,
)
from pkb.truth import TRUE

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


def _match(pattern, ground):
    """``compile_matcher``'s result for ``ground`` as a binding dict, or None."""
    variables = tuple(sorted(variables_in(pattern), key=lambda v: v.name))
    values = compile_matcher(pattern, variables)(ground)
    return None if values is None else dict(zip(variables, values))


class TestMatch:
    @given(p=terms(), q=terms(), values=st.lists(terms(), min_size=3, max_size=3), same=st.booleans())
    def test_agrees_with_unify_on_ground_terms(self, p, q, values, same):
        # Ground either the pattern itself (a guaranteed instance) or an
        # unrelated term, by substituting ground values for x, y and z.
        leaves = {var(n): sym("a") for n in "xyz"}
        grounding = {var(n): substitute(v, leaves) for n, v in zip("xyz", values)}
        g = substitute(p if same else q, grounding)
        theta = _match(p, g)
        unifier = unify(p, g, {})
        assert (theta is None) == (unifier is None)
        if same:
            assert theta is not None
        if theta is not None:
            assert theta == unifier
            assert substitute(p, theta) == substitute(p, unifier) == g

    @given(p=terms(), q=terms(), values=st.lists(terms(), min_size=3, max_size=3), same=st.booleans())
    def test_constants_match_by_value(self, p, q, values, same):
        # The pattern is rebuilt from fresh objects, its numbers as ints,
        # so a matcher that tested a number or compound constant by
        # identity would miss facts that unify with it.
        leaves = {var(n): sym("a") for n in "xyz"}
        grounding = {var(n): substitute(v, leaves) for n, v in zip("xyz", values)}
        g = substitute(p if same else q, grounding)
        pattern = _rebuilt(p)
        theta = _match(pattern, g)
        assert theta == unify(pattern, g, {})
        if same:
            assert theta is not None

    def test_repeated_variable_must_bind_consistently(self):
        pattern = compound(sym("p"), var("x"), var("x"))
        assert _match(pattern, compound(sym("p"), sym("a"), sym("a"))) == {var("x"): sym("a")}
        assert _match(pattern, compound(sym("p"), sym("a"), sym("b"))) is None
        assert unify(pattern, compound(sym("p"), sym("a"), sym("b")), {}) is None


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


def _structure(t):
    """A term's structure as plain data: class and field, recursively."""
    if isinstance(t, Compound):
        return ("Compound", tuple(_structure(e) for e in t.elements))
    if isinstance(t, Number):
        return ("Number", float(t.value))
    return (type(t).__name__, t.name)


def _rebuilt(t):
    """An equal term built again, with integral numbers as ints: its
    symbols and variables are the interned originals, its numbers and
    compounds fresh objects."""
    if isinstance(t, Compound):
        return Compound(tuple(_rebuilt(e) for e in t.elements))
    if isinstance(t, Number):
        return Number(int(t.value)) if t.value == int(t.value) else Number(t.value)
    return type(t)(t.name)


class TestTermObjects:
    @given(a=terms(), b=terms())
    def test_equality_is_structural(self, a, b):
        assert (a == b) == (_structure(a) == _structure(b))
        if a == b:
            assert hash(a) == hash(b)

    @given(t=terms())
    def test_equal_terms_hash_equal(self, t):
        rebuilt = _rebuilt(t)
        if isinstance(t, (Symbol, Variable)):
            assert rebuilt is t
        else:
            assert rebuilt is not t
        assert rebuilt == t and hash(rebuilt) == hash(t)
        assert is_ground(rebuilt) == is_ground(t) == (not variables_in(t))

    def test_numbers_compare_by_value(self):
        assert Number(1) == Number(1.0)
        assert hash(Number(1)) == hash(Number(1.0))
        assert compound(sym("p"), Number(2)) == compound(sym("p"), Number(2.0))
        assert Number(1) != Symbol("1") and Symbol("x") != Variable("x")
        assert Symbol("1") != Number(1) and Variable("x") != Symbol("x")

    @pytest.mark.parametrize(
        "value", [10**400, -(10**400), float("inf"), float("nan")], ids=["1e400", "-1e400", "inf", "nan"]
    )
    def test_numbers_must_be_finite(self, value):
        with pytest.raises(ValueError, match="finite real"):
            Number(value)

    @given(t=terms())
    def test_terms_are_immutable(self, t):
        for name in ("name", "value", "elements", "_payload", "_hash", "_ground", "other"):
            with pytest.raises(AttributeError):
                setattr(t, name, sym("a"))
            with pytest.raises(AttributeError):
                delattr(t, name)

    def test_one_object_per_name(self):
        x, y = Symbol("x"), Variable("y")
        parsed = parse_sentence("(p x $y)")
        for made in (Symbol("x"), sym("x"), parsed.elements[1], pickle.loads(pickle.dumps(x)), copy.deepcopy(x)):
            assert made is x
        for made in (Variable("y"), var("y"), parsed.elements[2], pickle.loads(pickle.dumps(y)), copy.deepcopy(y)):
            assert made is y
        for copied in (pickle.loads(pickle.dumps(parsed)), copy.deepcopy(parsed)):
            assert copied == parsed and copied.elements[1] is x and copied.elements[2] is y
        assert Symbol("y") is not y and Variable("x") is not x

    def test_repr_names_the_field(self):
        assert repr(compound(sym("p"), var("x"), Number(1.5))) == (
            "Compound(elements=(Symbol(name='p'), Variable(name='x'), Number(value=1.5)))"
        )
        assert all(issubclass(cls, Term) for cls in (Symbol, Variable, Number, Compound))

    @given(t=terms())
    def test_ground_class_exactly_when_ground(self, t):
        # every way a compound is made picks Ground exactly when it is ground
        variables = tuple(sorted(variables_in(t), key=lambda v: v.name))
        values = tuple(compound(sym("f"), sym("a")) if i % 2 else sym("b") for i in range(len(variables)))
        partial = tuple(v if i % 2 else None for i, v in enumerate(values))
        made = [
            t,
            parse_sentence(str(t)),
            substitute(t, dict(zip(variables, values))),
            substitute(t, {var("x"): compound(sym("f"), var("y"))}),
            compile_builder(t, variables)(values),
            compile_builder(t, variables, partial=True)(partial),
            compile_builder((t, (t,)), variables)(values)[1][0],
            canonical_form(t),
            pickle.loads(pickle.dumps(t)),
            copy.deepcopy(t),
        ]
        assert made[1] == t and made[-2] == t and made[-1] == t
        while made:
            s = made.pop()
            assert is_ground(s) == (not variables_in(s))
            if isinstance(s, Compound):
                assert type(s) is (Ground if is_ground(s) else Compound)
                made.extend(s)

    def test_compounds_hash_and_compare_as_tuples(self):
        for cls in (Compound, Ground):
            assert cls.__hash__ is tuple.__hash__ and cls.__eq__ is tuple.__eq__
        assert type(compound(sym("p"), sym("a"))) is Ground and type(FOO_X) is Compound
        assert Ground((sym("p"), sym("a"))) == compound(sym("p"), sym("a"))
        assert FOO_FRED.elements == (sym("foo"), sym("fred")) and type(FOO_FRED.elements) is tuple


def _ground_values(draw, n):
    leaves = st.sampled_from([sym("a"), sym("b"), Number(1.0), compound(sym("f"), sym("a"))])
    return tuple(draw(st.lists(leaves, min_size=n, max_size=n)))


@st.composite
def rules(draw):
    """A rule made from random conjuncts, with a consequence over the
    premise's variables, and ground values for those variables."""
    conjuncts = draw(st.lists(terms(), min_size=1, max_size=3))
    premise = conjuncts[0] if len(conjuncts) == 1 else Compound((sym("and"), *conjuncts))
    consequence = draw(terms())
    unbound = {v: sym("c") for v in variables_in(consequence) - variables_in(premise)}
    rule = make_rule("r1", premise, substitute(consequence, unbound), TRUE)
    return rule, _ground_values(draw, len(rule.variables))


class TestCompiledRules:
    @given(case=rules())
    def test_builders_agree_with_substitute(self, case):
        rule, values = case
        theta = dict(zip(rule.variables, values))
        cores = [core for core, _positive in rule.conjuncts]
        premises, consequence = rule.instantiate(values)
        assert premises == tuple(substitute(core, theta) for core in cores)
        assert consequence == substitute(rule.consequence, theta)
        assert all(is_ground(atom) for atom in (*premises, consequence))
        partial = tuple(v if i % 2 else None for i, v in enumerate(values))
        bound = {v: t for v, t in zip(rule.variables, partial) if t is not None}
        for core, pattern in zip(cores, rule.patterns):
            assert pattern(partial) == substitute(core, bound)
            assert is_ground(pattern(partial)) == is_ground(substitute(core, bound))

    @given(case=rules(), other=terms())
    def test_matchers_agree_with_unify(self, case, other):
        rule, values = case
        theta = dict(zip(rule.variables, values))
        grounding = {v: sym("a") for v in variables_in(other)}
        for (core, _positive), matcher in zip(rule.conjuncts, rule.matchers):
            for ground in (substitute(core, theta), substitute(other, grounding)):
                expected = unify(core, ground, {})
                got = matcher(ground)
                if expected is None:
                    assert got is None
                else:
                    assert got == tuple(expected.get(v) for v in rule.variables)
            assert matcher(substitute(core, theta)) is not None
