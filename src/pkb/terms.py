"""Symbolic terms, substitutions and unification.

Sentences are s-expression terms: symbols, numbers, variables (written
``$name`` in the surface syntax) and compounds like ``(foo fred $x)``.
All term objects are immutable and hashable, so ground sentences can key
dictionaries directly. Symbols and variables are interned: one
process-wide table holds the one object of each class and name, so
their equality and hash are identity, and a dict probe, a tuple
comparison or a `unify` step on one ends at a pointer compare, as with
Lisp's ``EQ``. The table grows with the vocabulary and never shrinks.
Numbers and compounds are fresh objects compared by value; each
computes its hash once, when it is built, and a compound also records
whether it is ground; so a dict probe costs no walk over the term, and
`substitute` and `is_ground` return at once on a ground compound.

Goal-directed work uses `unify` and `substitute` over bindings: plain
dicts from Variable to Term. They are triangular: a variable may map to
a term containing variables bound elsewhere in the same dict, and
`substitute` chases those chains, so applying a binding twice is the
same as applying it once. Matching against ground facts uses compiled
code instead: `compile_matcher` reads a tuple of variable values off a
ground term, `compile_builder` builds a term from such a tuple, and
`compile_scan` runs the matcher's tests inline over a whole list of store
entries, as one comprehension.
"""

from __future__ import annotations

from functools import lru_cache
from math import isfinite
from operator import attrgetter

_set = object.__setattr__


class Term:
    """Base class for all term shapes.

    A term keeps its one public field (``name``, ``value`` or
    ``elements``) in the ``_payload`` slot: each subclass names that
    slot's descriptor after its field, so reading the field is a plain
    slot read. Terms of one class are equal when their fields are.
    """

    __slots__ = ("_payload", "_hash")
    _field = ""
    _ground = True

    def __init__(self, payload):
        _set(self, "_payload", payload)
        _set(self, "_hash", hash(payload))

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._hash == other._hash and self._payload == other._payload

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"{type(self).__name__}({self._field}={self._payload!r})"

    def __reduce__(self):
        return type(self), (self._payload,)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot change field {name!r} of an immutable term")

    __delattr__ = __setattr__


# class -> name -> the one Symbol or Variable of that class and name.
_interned = {}


class _Named(Term):
    """A term that is its name: `__new__` returns the one object of its
    class and name, made on first use, so two are equal only when they
    are the same object, and equality and hash are ``object``'s own.
    A table hit does no other work; `setdefault` keeps the insertion
    race-free under the interpreter lock. No `_hash` is stored."""

    __slots__ = ()
    _field = "name"
    name = Term._payload
    __init__ = object.__init__
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __new__(cls, name):
        try:
            return _interned[cls][name]
        except KeyError:
            term = object.__new__(cls)
            _set(term, "_payload", name)
            return _interned.setdefault(cls, {}).setdefault(name, term)


class Symbol(_Named):
    """A constant, written as a bare word; interned."""

    __slots__ = ()

    def __str__(self):
        return self.name


class Variable(_Named):
    """A variable, written ``$name``; interned."""

    __slots__ = ()
    _ground = False

    def __str__(self):
        return "$" + self.name


class Number(Term):
    __slots__ = ()
    _field = "value"
    value = Term._payload

    def __init__(self, value):
        try:
            number = float(value)  # so Number(1) == Number(1.0)
        except OverflowError as exc:
            raise ValueError(f"a number must be a finite real: {exc}") from None
        if not isfinite(number):
            raise ValueError(f"a number must be a finite real, got {number!r}")
        super().__init__(number)

    def __str__(self):
        # repr writes integral floats from 1e16 up with an exponent
        if self.value == int(self.value) and abs(self.value) < 1e16:
            return str(int(self.value))
        return repr(self.value)


_is_ground = attrgetter("_ground")


class Compound(Term):
    __slots__ = ("_ground",)
    _field = "elements"
    elements = Term._payload

    def __init__(self, elements: tuple):
        if not elements:
            raise ValueError("compound terms cannot be empty")
        _set(self, "_payload", elements)
        _set(self, "_hash", hash(elements))
        _set(self, "_ground", False not in map(_is_ground, elements))

    def __str__(self):
        return "(" + " ".join(str(e) for e in self.elements) + ")"


def _ground_compound(elements: tuple) -> Compound:
    """``Compound(elements)`` for nonempty, ground ``elements``, unchecked."""
    term = object.__new__(Compound)
    _set(term, "_payload", elements)
    _set(term, "_hash", hash(elements))
    _set(term, "_ground", True)
    return term


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
    if t is v:
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


def substitute(t: Term, bindings: Bindings) -> Term:
    """Replace every bound variable, following chains; unbound ones stay."""
    t = walk(t, bindings)
    if isinstance(t, Compound) and not t._ground:
        return Compound(tuple(substitute(e, bindings) for e in t.elements))
    return t


def variables_in(t: Term) -> set:
    """All variables occurring anywhere in a term."""
    if t._ground:
        return set()
    if isinstance(t, Variable):
        return {t}
    if isinstance(t, Compound):
        out = set()
        for e in t.elements:
            out |= variables_in(e)
        return out
    return set()


def is_ground(t: Term) -> bool:
    return t._ground


def index_key(t: Term):
    """The (functor name, arity) of a term with a symbol head, (name, 0)
    for a symbol, else None: the key `TermIndex` reads a term by."""
    if isinstance(t, Compound) and isinstance(t.elements[0], Symbol):
        return (t.elements[0].name, len(t.elements))
    if isinstance(t, Symbol):
        return (t.name, 0)
    return None


class TermIndex:
    """Entries filed under terms, read back by the terms that may meet
    them: predicate indexing, as in the WAM (Warren 1983; Graf, *Term
    Indexing*, 1996), kept by the fact store, both rule indexes and the
    control table. A term with an `index_key` meets the entries filed
    under terms with that key, under variables, and under compounds of
    its arity with a variable head, so ``($p $x)`` is met only at arity
    2; a number, or a compound headed by one or by a compound, meets no
    term with a key. A term with no key meets every entry: ``everything``,
    the owner's collection of them in filing order. Each key's bucket
    holds every entry its terms meet, in filing order, so a read is one
    dict read. `unfile` takes back the filing of a ground term.

    Buckets are dicts keyed by the entries. The store's live entries and
    the rules hash by identity, so filing and unfiling them calls no
    Python ``__hash__``.
    """

    __slots__ = ("everything", "buckets", "wild")

    def __init__(self, everything):
        # index key -> {entry: None}; (arity, None for a variable, entry) per filing under a variable or variable head
        self.everything, self.buckets, self.wild = everything, {}, []

    def file(self, term: Term, entry):
        key = index_key(term)
        if key is not None:
            if key not in self.buckets:
                self.buckets[key] = self._wild_meeting(key)
            self.buckets[key][entry] = None
        elif isinstance(head := term.elements[0] if isinstance(term, Compound) else term, Variable):
            arity = None if head is term else len(term.elements)
            self.wild.append((arity, entry))
            for (_name, n), bucket in self.buckets.items():
                if arity in (None, n):
                    bucket[entry] = None

    def unfile(self, term: Term, entry):
        if (key := index_key(term)) is not None:
            del self.buckets[key][entry]

    def meeting(self, term: Term):
        """The entries filed under terms that may meet ``term``."""
        key = index_key(term)
        if key is None:
            return self.everything
        return self.buckets.get(key) or (self._wild_meeting(key) if self.wild else ())

    def _wild_meeting(self, key) -> dict:
        return dict.fromkeys(entry for arity, entry in self.wild if arity in (None, key[1]))


@lru_cache(maxsize=256)
def _code(source: str):
    return compile(source, "<rule>", "exec")


def _define(source: str, constants: list):
    """The function ``f`` that ``source`` defines over globals ``C``,
    ``G`` and ``k0``, ``k1``, ... for ``constants``. Rules of one shape
    differ only in their constants, so they share compiled code."""
    namespace = {"C": Compound, "G": _ground_compound}
    namespace.update((f"k{i}", t) for i, t in enumerate(constants))
    exec(_code(source), namespace)
    return namespace["f"]


def compile_builder(shape, variables: tuple, partial: bool = False):
    """Compile ``shape``, a term or nested tuple of terms, into a function
    from a tuple of ground values, one per variable of ``variables``, to
    what `substitute` makes of ``shape`` under them. With ``partial`` a
    value may be open, or None, which leaves its variable in place."""
    constants = []

    def constant(t):
        constants.append(t)
        return f"k{len(constants) - 1}"

    def expr(t):
        if isinstance(t, tuple):
            return "(" + "".join(expr(e) + ", " for e in t) + ")"
        if t._ground:
            return constant(t)
        if isinstance(t, Variable):
            i = variables.index(t)
            return f"(b[{i}] if b[{i}] is not None else {constant(t)})" if partial else f"b[{i}]"
        return ("C(" if partial else "G(") + expr(t.elements) + ")"

    return _define(f"def f(b): return {expr(shape)}", constants)


def _match_tests(pattern: Term, constants: list) -> tuple[list, dict]:
    """The source of a one-way match of a ground term ``g`` against
    ``pattern``: the tests, in the order to run them, any of which holds
    exactly when ``g`` does not unify with ``pattern``, and each
    variable's value in ``g``. A ground part of the pattern becomes a
    constant ``k<i>``, its position in ``constants``."""
    tests, bound = [], {}

    def visit(t, expr):
        if t._ground:
            # an interned symbol is equal only to itself; a number or
            # compound may equal a distinct object (1 == 1.0)
            constants.append(t)
            test = "is not" if type(t) is Symbol else "!="
            tests.append(f"{expr} {test} k{len(constants) - 1}")
        elif isinstance(t, Variable):
            if t in bound:
                tests.append(f"{expr} != {bound[t]}")
            bound.setdefault(t, expr)
        else:
            tests.append(f"type({expr}) is not C or len({expr}.elements) != {len(t.elements)}")
            for i, e in enumerate(t.elements):
                visit(e, f"{expr}.elements[{i}]")

    visit(pattern, "g")
    return tests, bound


def compile_matcher(pattern: Term, variables: tuple):
    """Compile ``pattern`` into a one-way matcher of ground terms. For a
    ground term that unifies with ``pattern`` it returns the values the
    unifier gives ``variables``, in order (None for those the pattern
    lacks); for any other it returns None."""
    constants = []
    tests, bound = _match_tests(pattern, constants)
    body = "".join(f"    if {test}: return None\n" for test in tests)
    result = "".join(f"{bound.get(v, 'None')}, " for v in variables)
    return _define(f"def f(g):\n{body}    return ({result})\n", constants)


def compile_scan(pattern: Term, projection: str):
    """Compile the open ``pattern`` into one scan of store entries,
    objects whose ``sentence`` is a ground term and ``tv`` its truth
    pair. The scan is a function of (entries, cutoff): for each entry,
    in order, whose value reaches ``cutoff`` and whose sentence unifies
    with ``pattern``, it gives (bindings, value), the bindings a dict of
    the pattern's variables, in name order, to the values the unifier
    gives them. The value is ``projection``, an expression over the pair
    named ``tv``; it is tested first, so a rejected entry costs no
    match, and the match is `compile_matcher`'s, inline."""
    constants = []
    tests, bound = _match_tests(pattern, constants)
    bindings = []
    for v in sorted(variables_in(pattern), key=attrgetter("name")):
        constants.append(v)
        bindings.append(f"k{len(constants) - 1}: {bound[v]}")
    match = f" if not ({' or '.join(tests)})" if tests else ""
    return _define(
        "def f(entries, cutoff):\n"
        f"    return [({{{', '.join(bindings)}}}, v) for e in entries for tv in [e.tv] for v in [{projection}]"
        f" if v >= cutoff for g in [e.sentence]{match}]\n",
        constants,
    )


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
        and s.elements[0] is _NOT
    ):
        s = s.elements[1]
        flipped = not flipped
    return s, flipped


def canonical_form(t: Term) -> Term:
    """Rename variables to positional placeholders.

    Two terms that are variants of each other (equal up to a renaming of
    variables) share one canonical form, which is what goal memoization
    and ancestor-loop checks compare. A placeholder's name starts with a
    space, which no ``$`` word can hold, so no parsed term shares one.
    """
    mapping = {}

    def rename(t):
        if t._ground:
            return t
        if isinstance(t, Variable):
            if t not in mapping:
                mapping[t] = Variable(f" {len(mapping)}")
            return mapping[t]
        return Compound(tuple(map(rename, t.elements)))

    return rename(t)


def format_bindings(bindings: Bindings) -> str:
    """Render bindings as ``{$x=fred, $y=2}``, sorted by variable name."""
    items = sorted(bindings.items(), key=lambda item: item[0].name)
    inner = ", ".join(f"${v.name}={t}" for v, t in items)
    return "{" + inner + "}"
