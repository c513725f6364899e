"""Symbolic terms, substitutions and unification.

Sentences are s-expression terms: symbols, numbers, variables (written
``$name`` in the surface syntax) and compounds like ``(foo fred $x)``.
All term objects are immutable and hashable, so ground sentences can key
dictionaries directly. Symbols and variables are interned: one
process-wide table holds the one object of each class and name, so
their equality and hash are identity, and a dict probe, a tuple
comparison or a `unify` step on one ends at a pointer compare, as with
Lisp's ``EQ``. The table grows with the vocabulary and never shrinks.
Numbers are fresh objects compared by value. A compound is the tuple of
its elements, as a Lisp term is a list, so its hash and equality
are ``tuple``'s, in C; the hash is computed on each probe, a walk over
the term that no Python frame pays for. A compound's class records
whether it is ground (see `Compound`), so `substitute` and `is_ground`
return at once on a ground one.

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
    """Base class for all term shapes. No field of a term can be set or
    deleted."""

    __slots__ = ()
    _ground = True

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
    race-free under the interpreter lock."""

    __slots__ = ("name",)

    def __new__(cls, name):
        try:
            return _interned[cls][name]
        except KeyError:
            term = object.__new__(cls)
            _set(term, "name", name)
            return _interned.setdefault(cls, {}).setdefault(name, term)

    def __repr__(self):
        return f"{type(self).__name__}(name={self.name!r})"

    def __reduce__(self):
        return type(self), (self.name,)


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
    __slots__ = ("value",)

    def __init__(self, value):
        try:
            number = float(value)  # so Number(1) == Number(1.0)
        except OverflowError as exc:
            raise ValueError(f"a number must be a finite real: {exc}") from None
        if not isfinite(number):
            raise ValueError(f"a number must be a finite real, got {number!r}")
        _set(self, "value", number)

    def __eq__(self, other):
        return self.value == other.value if type(other) is Number else NotImplemented

    def __hash__(self):
        return hash(self.value)

    def __repr__(self):
        return f"Number(value={self.value!r})"

    def __reduce__(self):
        return Number, (self.value,)

    def __str__(self):
        # repr writes integral floats from 1e16 up with an exponent
        if self.value == int(self.value) and abs(self.value) < 1e16:
            return str(int(self.value))
        return repr(self.value)


is_ground = attrgetter("_ground")


class Compound(Term, tuple):
    """A compound term: the nonempty tuple of its elements, hashed and
    compared as a tuple. ``Compound(elements)`` builds a `Ground` when
    every element is ground, else a `Compound`, so groundness is the
    class attribute ``_ground``. A compound equals a plain tuple of the
    same elements, so no dict may key both."""

    __slots__ = ()
    _ground = False

    def __new__(cls, elements: tuple):
        if not elements:
            raise ValueError("compound terms cannot be empty")
        return tuple.__new__(Ground if False not in map(is_ground, elements) else Compound, elements)

    elements = property(tuple)  # a plain tuple, for readers outside the package

    def __repr__(self):
        return f"Compound(elements={tuple(self)!r})"

    def __str__(self):
        # on an explicit stack, as the reader reads a term, so that any depth prints:
        # per open compound, its elements left and the text of those read; the first entry takes the result
        stack = [(None, []), (iter(self), [])]
        while len(stack) > 1:
            elements, words = stack[-1]
            for e in elements:
                if isinstance(e, Compound):
                    stack.append((iter(e), []))
                    break
                words.append(str(e))
            else:
                stack.pop()
                stack[-1][1].append("(" + " ".join(words) + ")")
        return stack[0][1][0]


class Ground(Compound):
    """A compound whose elements are all ground. ``Ground(elements)``
    builds one unchecked: ``elements`` must be nonempty and ground."""

    __slots__ = ()
    _ground = True
    __new__ = tuple.__new__


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
        return any(_occurs(v, e, bindings) for e in t)
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
        if len(t1) != len(t2):
            return None
        for e1, e2 in zip(t1, t2):
            bindings = unify(e1, e2, bindings)
            if bindings is None:
                return None
        return bindings
    return None


def substitute(t: Term, bindings: Bindings) -> Term:
    """Replace every bound variable, following chains; unbound ones stay."""
    t = walk(t, bindings)
    if isinstance(t, Compound) and not t._ground:
        return Compound(tuple(substitute(e, bindings) for e in t))
    return t


def variables_in(t: Term) -> set:
    """All variables occurring anywhere in a term."""
    if t._ground:
        return set()
    if isinstance(t, Variable):
        return {t}
    return set().union(*map(variables_in, t))


def index_key(t: Term):
    """The (functor name, arity) of a term with a symbol head, (name, 0)
    for a symbol, else None: the key `TermIndex` reads a term by."""
    if isinstance(t, Compound) and isinstance(t[0], Symbol):
        return (t[0].name, len(t))
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
        elif isinstance(head := term[0] if isinstance(term, Compound) else term, Variable):
            arity = None if head is term else len(term)
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
    namespace = {"C": Compound, "G": Ground}
    namespace.update((f"k{i}", t) for i, t in enumerate(constants))
    exec(_code(source), namespace)
    return namespace.pop("f")  # so that no cycle runs through f.__globals__


def compile_builder(shape, variables: tuple, partial: bool = False):
    """Compile ``shape``, a term or nested tuple of terms, into a function
    from a tuple of ground values, one per variable of ``variables``, to
    what `substitute` makes of ``shape`` under them. With ``partial`` a
    value may be open, or None, which leaves its variable in place."""
    constants, parts, stack = [], [], [shape]

    def constant(t):
        constants.append(t)
        return f"k{len(constants) - 1}"

    while stack:  # on an explicit stack, where a str is source text to write as it is
        t = stack.pop()
        if type(t) is str:
            parts.append(t)
        elif type(t) is tuple:  # a compound is a tuple too, but no shape
            stack += ")", *[x for e in reversed(t) for x in (", ", e)], "("
        elif t._ground:
            parts.append(constant(t))
        elif isinstance(t, Variable):
            i = variables.index(t)
            parts.append(f"(b[{i}] if b[{i}] is not None else {constant(t)})" if partial else f"b[{i}]")
        else:
            stack += ")", tuple(t), "C(" if partial else "G("
    return _define(f"def f(b): return {''.join(parts)}", constants)


def _match_tests(pattern: Term, constants: list) -> tuple[list, dict]:
    """The source of a one-way match of a ground term ``g`` against
    ``pattern``: the tests, in the order to run them, any of which holds
    exactly when ``g`` does not unify with ``pattern``, and each
    variable's value in ``g``. A ground part of the pattern becomes a
    constant ``k<i>``, its position in ``constants``."""
    tests, bound, stack = [], {}, [(pattern, "g")]
    while stack:  # depth first, left to right
        t, expr = stack.pop()
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
            # every compound in a ground term is a Ground
            tests.append(f"type({expr}) is not G or len({expr}) != {len(t)}")
            stack += reversed([(e, f"{expr}[{i}]") for i, e in enumerate(t)])
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
    while isinstance(s, Compound) and len(s) == 2 and s[0] is _NOT:
        s = s[1]
        flipped = not flipped
    return s, flipped


def canonical_form(t: Term) -> Term:
    """Rename variables to positional placeholders.

    Two terms that are variants of each other (equal up to a renaming of
    variables) share one canonical form, which is what goal memoization
    and ancestor-loop checks compare. A placeholder's name starts with a
    space, which no ``$`` word can hold, so no parsed term shares one.
    """
    return _rename(t, {})


def _rename(t: Term, mapping: dict) -> Term:
    if t._ground:
        return t
    if isinstance(t, Variable):
        if t not in mapping:
            mapping[t] = Variable(f" {len(mapping)}")
        return mapping[t]
    return Compound(tuple([_rename(e, mapping) for e in t]))


def format_bindings(bindings: Bindings) -> str:
    """Render bindings as ``{$x=fred, $y=2}``, sorted by variable name."""
    items = sorted(bindings.items(), key=lambda item: item[0].name)
    inner = ", ".join(f"${v.name}={t}" for v, t in items)
    return "{" + inner + "}"
