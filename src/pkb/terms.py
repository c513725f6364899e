"""Symbolic terms, substitutions and unification.

Sentences are s-expression terms: symbols, numbers, variables (written
``$name`` in the surface syntax) and compounds like ``(foo fred $x)``.
All term objects are immutable and hashable, so ground sentences can key
dictionaries directly.

Bindings are plain dicts from Variable to Term. They are triangular: a
variable may map to a term containing variables bound elsewhere in the
same dict, and `substitute` chases those chains, so applying a binding
twice is the same as applying it once.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

_rename_counter = itertools.count(1)


class Term:
    """Base class for all term shapes."""

    __slots__ = ()


@dataclass(frozen=True)
class Symbol(Term):
    name: str

    def __str__(self):
        return self.name


@dataclass(frozen=True)
class Variable(Term):
    name: str

    def __str__(self):
        return "$" + self.name


@dataclass(frozen=True)
class Number(Term):
    value: float

    def __str__(self):
        if self.value == int(self.value):
            return str(int(self.value))
        return repr(self.value)


@dataclass(frozen=True)
class Compound(Term):
    elements: tuple

    def __post_init__(self):
        if not self.elements:
            raise ValueError("compound terms cannot be empty")

    def __str__(self):
        return "(" + " ".join(str(e) for e in self.elements) + ")"


Bindings = dict


def compound(*elements: Term) -> Compound:
    return Compound(tuple(elements))


def sym(name: str) -> Symbol:
    return Symbol(name)


def var(name: str) -> Variable:
    return Variable(name)


def walk(t: Term, bindings: Bindings) -> Term:
    """Chase a variable through the binding chain to its representative."""
    while isinstance(t, Variable) and t in bindings:
        t = bindings[t]
    return t


def _occurs(v: Variable, t: Term, bindings: Bindings) -> bool:
    t = walk(t, bindings)
    if t == v:
        return True
    if isinstance(t, Compound):
        return any(_occurs(v, e, bindings) for e in t.elements)
    return False


def unify(t1: Term, t2: Term, bindings: Bindings | None = None) -> Bindings | None:
    """Most general unifier extending ``bindings``, or None on failure.

    The occurs check is always on: a variable never unifies with a term
    containing it, so resulting bindings are acyclic.
    """
    if bindings is None:
        bindings = {}
    t1 = walk(t1, bindings)
    t2 = walk(t2, bindings)
    if t1 == t2:
        return bindings
    if isinstance(t1, Variable):
        if _occurs(t1, t2, bindings):
            return None
        out = dict(bindings)
        out[t1] = t2
        return out
    if isinstance(t2, Variable):
        if _occurs(t2, t1, bindings):
            return None
        out = dict(bindings)
        out[t2] = t1
        return out
    if isinstance(t1, Compound) and isinstance(t2, Compound):
        if len(t1.elements) != len(t2.elements):
            return None
        for e1, e2 in zip(t1.elements, t2.elements):
            bindings = unify(e1, e2, bindings)
            if bindings is None:
                return None
        return bindings
    return None


def match(pattern: Term, ground: Term, bindings: Bindings) -> Bindings | None:
    """One-way unification of ``pattern`` against a ground term.

    Only the pattern's variables are bound, so no occurs check is
    needed. For ground ``ground`` this returns what
    ``unify(pattern, ground, bindings)`` returns.
    """
    pattern = walk(pattern, bindings)
    if isinstance(pattern, Variable):
        out = dict(bindings)
        out[pattern] = ground
        return out
    if isinstance(pattern, Compound):
        if not isinstance(ground, Compound) or len(pattern.elements) != len(ground.elements):
            return None
        for p, g in zip(pattern.elements, ground.elements):
            bindings = match(p, g, bindings)
            if bindings is None:
                return None
        return bindings
    return bindings if pattern == ground else None


def substitute(t: Term, bindings: Bindings) -> Term:
    """Replace every bound variable, following chains; unbound ones stay."""
    t = walk(t, bindings)
    if isinstance(t, Compound):
        return Compound(tuple(substitute(e, bindings) for e in t.elements))
    return t


def variables_in(t: Term) -> set:
    """All variables occurring anywhere in a term."""
    if isinstance(t, Variable):
        return {t}
    if isinstance(t, Compound):
        out = set()
        for e in t.elements:
            out |= variables_in(e)
        return out
    return set()


def is_ground(t: Term) -> bool:
    if isinstance(t, Variable):
        return False
    if isinstance(t, Compound):
        return all(is_ground(e) for e in t.elements)
    return True


def rename_apart(terms: list[Term]) -> list[Term]:
    """Fresh-variable copies sharing no variables with the originals.

    The input terms are renamed consistently with each other (the same
    variable maps to the same fresh variable across the list).
    """
    suffix = next(_rename_counter)
    mapping = {}

    def rec(t: Term) -> Term:
        if isinstance(t, Variable):
            if t not in mapping:
                mapping[t] = Variable(f"{t.name}__{suffix}")
            return mapping[t]
        if isinstance(t, Compound):
            return Compound(tuple(rec(e) for e in t.elements))
        return t

    return [rec(t) for t in terms]


_NOT = Symbol("not")


def normalize_negation(s: Term) -> tuple[Term, bool]:
    """Strip nested ``(not ...)`` wrappers from a sentence.

    Returns the unwrapped core and True when an odd number of wrappers
    was removed (the sentence was, on balance, negated).
    """
    flipped = False
    while (
        isinstance(s, Compound)
        and len(s.elements) == 2
        and s.elements[0] == _NOT
    ):
        s = s.elements[1]
        flipped = not flipped
    return s, flipped


def canonical_form(t: Term) -> Term:
    """Rename variables to positional placeholders.

    Two terms that are variants of each other (equal up to a renaming of
    variables) share one canonical form, which is what goal memoization
    and ancestor-loop checks compare.
    """
    mapping = {}

    def rec(t: Term) -> Term:
        if isinstance(t, Variable):
            if t not in mapping:
                mapping[t] = Variable(f"_{len(mapping)}")
            return mapping[t]
        if isinstance(t, Compound):
            return Compound(tuple(rec(e) for e in t.elements))
        return t

    return rec(t)


def format_bindings(bindings: Bindings, restrict: set | None = None) -> str:
    """Render bindings as ``{$x=fred, $y=2}``, sorted by variable name."""
    items = [
        (v, t)
        for v, t in bindings.items()
        if restrict is None or v in restrict
    ]
    items.sort(key=lambda item: item[0].name)
    inner = ", ".join(f"${v.name}={t}" for v, t in items)
    return "{" + inner + "}"
