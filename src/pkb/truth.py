"""Truth-value pairs and the evidence calculus built on them.

A sentence's truth value is a pair (belief . disbelief): belief is the
extent to which the available evidence confirms the sentence, disbelief
the extent to which it disconfirms it. Both lie in [0, 1] and their sum
never exceeds 1; the residue 1 - belief - disbelief is the mass left
uncommitted ("unknown"). Pairs print in dotted notation, e.g.
``(0.3 . 0.2)``.

Independent evidence about one sentence is pooled with `combine`, the
two-outcome Dempster rule: each source distributes mass over
{confirms, disconfirms, uncommitted}, the product masses of the nine
cells are intersected, the two contradictory cells are discarded, and
the rest is renormalized. The rule is commutative, associative, has the
vacuous pair (0 . 0) as identity, and multiplies commonalities: so
`uncombine` divides one source's contribution out of a pooled value,
which is what makes exact retraction possible elsewhere in the package.
A source with no uncommitted mass, such as a (0.9 . 0.1) rule at a
certain premise, cannot be divided out; its value is rebuilt instead.

`propagate` pushes a premise value through a rule pair, `conjoin` pools
conjunct values inside a premise, and the six tag projections
(`TAG_PROJECTIONS`) take a pair down to the single number a query
asks about.

The public `TruthValue` constructor checks its arguments and clamps
drift. The algebra skips that for results it keeps in range: `negate`
and `propagate` build theirs unchecked (`_pair`); `combine` and
`conjoin` keep only the shave of a float excess over 1 (`_shaved`).
Each result is bit-identical to what the checked constructor makes.
"""

from __future__ import annotations

from collections import namedtuple
from math import inf, isfinite

from .errors import NoValidResidual, NotCertainRemovable, RangeError, TotalConflict

# Arithmetic drift this small is clamped back into range; anything larger
# is treated as a logic bug and rejected.
DRIFT_TOLERANCE = 1e-12

# A solved residual must reproduce the original combination this closely.
_RESIDUAL_CHECK = 1e-6

_set = object.__setattr__

# tag -> its projection of a pair ``tv`` to one number, as an
# expression: t is the confirmation, not the disconfirmation, unknown the
# uncommitted residue, poss / poss-not the extent to which the sentence
# is possibly true / possibly false, and mass the total evidential
# commitment. The one source of each projection: `tag_projection`'s
# functions are built from it, and an open lookup's compiled scan
# inlines it (see `terms.compile_scan`), so both give the same floats.
TAG_PROJECTIONS = {
    "t": "tv.belief",
    "not": "tv.disbelief",
    "unknown": "1.0 - (tv.belief + tv.disbelief)",
    "poss": "1.0 - tv.disbelief",
    "poss-not": "1.0 - tv.belief",
    "mass": "tv.belief + tv.disbelief",
}

_PROJECTORS = {tag: eval(f"lambda tv: {expression}") for tag, expression in TAG_PROJECTIONS.items()}

TAG_NAMES = tuple(TAG_PROJECTIONS)

# Tag of the negated pair, for rewriting queries wrapped in (not ...).
TAG_DUAL = {
    "t": "not",
    "not": "t",
    "poss": "poss-not",
    "poss-not": "poss",
    "unknown": "unknown",
    "mass": "mass",
}


def _clean(value: float, name: str) -> float:
    value = float(value)
    if not isfinite(value):
        raise RangeError(f"{name} must be a finite real, got {value!r}")
    if value < 0.0:
        if value < -DRIFT_TOLERANCE:
            raise RangeError(f"{name} = {value!r} is below 0")
        return 0.0
    if value > 1.0:
        if value > 1.0 + DRIFT_TOLERANCE:
            raise RangeError(f"{name} = {value!r} is above 1")
        return 1.0
    return value


class TruthValue:
    """An evidence pair (belief . disbelief) with belief + disbelief <= 1."""

    __slots__ = ("belief", "disbelief")

    def __init__(self, belief: float, disbelief: float):
        a = _clean(belief, "belief")
        b = _clean(disbelief, "disbelief")
        if a + b > 1.0:
            if a + b > 1.0 + DRIFT_TOLERANCE:
                raise RangeError(f"belief + disbelief = {a + b!r} exceeds 1")
            b = 1.0 - a  # shave the float excess off the disbelief side
        _set(self, "belief", a)
        _set(self, "disbelief", b)

    def __eq__(self, other):
        return type(other) is TruthValue and self.belief == other.belief and self.disbelief == other.disbelief

    def __hash__(self):
        return hash((self.belief, self.disbelief))

    def __repr__(self):
        return f"TruthValue(belief={self.belief!r}, disbelief={self.disbelief!r})"

    def __reduce__(self):
        return TruthValue, (self.belief, self.disbelief)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot change field {name!r} of a truth value")

    __delattr__ = __setattr__

    @property
    def unknown(self) -> float:
        return 1.0 - (self.belief + self.disbelief)

    @property
    def mass(self) -> float:
        return self.belief + self.disbelief

    def is_vacuous(self) -> bool:
        return self.belief == 0.0 and self.disbelief == 0.0

    def is_certain(self) -> bool:
        """Fully confirmed (1 . 0) or fully disconfirmed (0 . 1)."""
        return (self.belief == 1.0 and self.disbelief == 0.0) or (
            self.belief == 0.0 and self.disbelief == 1.0
        )

    def __str__(self):
        return f"({format_real(self.belief)} . {format_real(self.disbelief)})"


def _pair(belief: float, disbelief: float) -> TruthValue:
    """TruthValue(belief, disbelief), unchecked, for floats in range."""
    tv = object.__new__(TruthValue)
    _set(tv, "belief", belief)
    _set(tv, "disbelief", disbelief)
    return tv


def _shaved(belief: float, disbelief: float) -> TruthValue:
    """TruthValue(belief, disbelief) for floats in [0, 1], shaved only."""
    if belief + disbelief > 1.0:
        disbelief = 1.0 - belief
    return _pair(belief, disbelief)


VACUOUS = TruthValue(0.0, 0.0)
TRUE = TruthValue(1.0, 0.0)
FALSE = TruthValue(0.0, 1.0)


def format_real(x: float) -> str:
    """Shortest decimal text that parses back to exactly x."""
    if x == int(x):
        return str(int(x))
    return repr(x)


def tag_projection(tag: str):
    """The projection named by ``tag`` (see `TAG_PROJECTIONS`), a
    function of one truth pair; ValueError for an unknown tag."""
    try:
        return _PROJECTORS[tag]
    except (KeyError, TypeError):  # TypeError: an unhashable tag
        raise ValueError(f"unknown tag {tag!r}; expected one of {TAG_NAMES}") from None


def apply_tag(tag: str, tv: TruthValue) -> float:
    """Project a truth pair to the single number named by ``tag``."""
    return tag_projection(tag)(tv)


def check_tag(tag: str):
    """Raise ValueError unless ``tag`` is one of `TAG_NAMES`."""
    tag_projection(tag)


def check_cutoff(cutoff: float):
    """Raise RangeError unless ``cutoff`` is in [0, 1] (NaN is not)."""
    if not 0.0 <= cutoff <= 1.0:
        raise RangeError(f"cutoff must be in [0, 1], got {cutoff!r}")


def tagged_answers(results, tag: str, cutoff: float) -> list:
    """Query answers: the (item, value) pairs of ``results``, an
    iterable of (item, tv), whose value, the tag's projection of tv,
    reaches ``cutoff``, in the order of ``results``. The item is passed
    through as is: a bindings dict, or whatever a caller turns into one
    for the answers kept, so that no rejected row costs a dict. A ground
    lookup, backward chaining and resolution filter through here; an open
    lookup applies the same projection and test inline, in its compiled
    scan. The tag and cutoff are checked before ``results`` is read, so
    each method rejects an unknown tag and a cutoff outside [0, 1] even
    when it finds nothing. The cost is one projection and one comparison
    per row.
    """
    project = tag_projection(tag)
    check_cutoff(cutoff)
    answers = []
    for item, tv in results:
        value = project(tv)
        if value >= cutoff:
            answers.append((item, value))
    return answers


def negate(tv: TruthValue) -> TruthValue:
    """Evidence for the negated sentence: swap the pair."""
    return _pair(tv.disbelief, tv.belief)


def conflict(x: TruthValue, y: TruthValue) -> float:
    """Mass the two sources assign to contradictory outcomes."""
    return x.belief * y.disbelief + x.disbelief * y.belief


def uncommitted(a: float, b: float) -> float:
    """1 - a - b, at least 0, with the larger part taken from 1 first:
    that step is exact, so a tiny uncommitted mass keeps its precision
    through a renormalization or a division by it."""
    u = (1.0 - a) - b if a >= b else (1.0 - b) - a
    return u if u > 0.0 else 0.0


def combine(x: TruthValue, y: TruthValue) -> TruthValue:
    """Pool two independent evidence sources about one sentence.

    Raises TotalConflict when one source fully confirms what the other
    fully disconfirms (all product mass falls in contradictory cells).
    """
    k = conflict(x, y)
    if k >= 1.0:
        raise TotalConflict(f"cannot combine {x} with {y}")
    a1, b1 = x.belief, x.disbelief
    a2, b2 = y.belief, y.disbelief
    if a2 == 0.0 and b2 == 0.0:
        return x
    if a1 == 0.0 and b1 == 0.0:
        return y
    u1 = uncommitted(a1, b1)
    u2 = uncommitted(a2, b2)
    belief = a1 * a2 + a1 * u2 + u1 * a2
    disbelief = b1 * b2 + b1 * u2 + u1 * b2
    unknown = u1 * u2
    # The surviving mass equals 1 - k in exact arithmetic; dividing by
    # the computed sum keeps the result inside the simplex even when
    # near-total conflict amplifies rounding error.
    norm = belief + disbelief + unknown
    return _shaved(belief / norm, disbelief / norm)


def uncombine(total: TruthValue, component: TruthValue) -> TruthValue:
    """Invert `combine`: the residual r with combine(r, component) = total.

    A commonality q sums the masses of the focal sets that contain its
    set: q(t) = belief + unknown, q(not) = disbelief + unknown, q(both)
    = unknown. `combine` multiplies them, so the residual's q is the
    total's over the component's, up to one normalizing factor, and its
    masses are their differences. A certain component raises
    NotCertainRemovable. One with no uncommitted mass, such as
    (0.9 . 0.1), has no unique residual, so it raises NoValidResidual,
    as does a total no residual reaches; the caller then rebuilds.
    """
    if component.is_certain():
        raise NotCertainRemovable(f"cannot remove certain component {component}")
    ac, bc = component.belief, component.disbelief
    at, bt = total.belief, total.disbelief
    uc = uncommitted(ac, bc)
    if uc <= DRIFT_TOLERANCE:
        raise NoValidResidual(f"component {component} has no uncommitted mass")
    ut = uncommitted(at, bt)
    z = ut / uc
    belief = max((at + ut) / (ac + uc) - z, 0.0)
    disbelief = max((bt + ut) / (bc + uc) - z, 0.0)
    # positive for any valid total: with z = 0, at + bt = 1
    norm = belief + disbelief + z
    residual = _shaved(belief / norm, disbelief / norm)
    check = combine(residual, component)
    if (
        abs(check.belief - total.belief) > _RESIDUAL_CHECK
        or abs(check.disbelief - total.disbelief) > _RESIDUAL_CHECK
    ):
        raise NoValidResidual(
            f"residual {residual} recombines to {check}, not {total}"
        )
    return residual


def propagate(premise_tv: TruthValue, rule_tv: TruthValue) -> TruthValue:
    """Contribution a rule makes to its consequence given its premise value.

    The rule pair is read as a conditional: it scales with the belief in
    the premise only, so disconfirmed premise instances contribute
    nothing (a non-instance of the premise is not evidence about the
    consequence).
    """
    return _pair(premise_tv.belief * rule_tv.belief, premise_tv.belief * rule_tv.disbelief)


def conjoin(x: TruthValue, y: TruthValue) -> TruthValue:
    """Truth pair of a conjunction of independently supported conjuncts.

    Belief multiplies; disbelief pools like a probabilistic OR (either
    conjunct failing fails the conjunction). The result is always a
    valid pair because each belief is bounded by 1 - disbelief.
    """
    return _shaved(x.belief * y.belief, x.disbelief + y.disbelief - x.disbelief * y.disbelief)


def delta_mass(old: TruthValue, new: TruthValue) -> float:
    """Size of a truth-value change: L1 distance of the pairs, in [0, 2]."""
    return abs(new.belief - old.belief) + abs(new.disbelief - old.disbelief)


class EngineConfig(namedtuple("EngineConfig", "inference_cutoff accept_as_true max_chain_depth")):
    """Tunable thresholds shared by the inference engines.

    inference_cutoff: a rule whose (re)firing would shift its
        consequence by less mass than this is skipped.
    accept_as_true: once a goal's confirmation or disconfirmation
        reaches this level, goal-directed proving stops looking for
        further evidence about it.
    max_chain_depth: the one bound on a forward derivation's depth (so
        on a cycle's waves) and on nested goals.

    The constructor checks every field: each finite, the depth a whole
    number (kept as an int), and each in range; its messages name a
    field as ``setvar`` does. A config never changes; `copy` makes a
    changed one.
    """

    __slots__ = ()

    def __new__(cls, inference_cutoff: float = 0.0, accept_as_true: float = 1.0, max_chain_depth: int = 64):
        for field, value in zip(cls._fields, (inference_cutoff, accept_as_true, max_chain_depth)):
            if value != value or value in (inf, -inf):
                raise RangeError(f"{field.replace('_', '-')} must be finite, got {value!r}")
        if max_chain_depth != int(max_chain_depth):
            raise RangeError(f"max-chain-depth must be a whole number, got {max_chain_depth!r}")
        max_chain_depth = int(max_chain_depth)
        if not 0.0 <= inference_cutoff <= 1.0:
            raise RangeError(f"inference-cutoff must be in [0, 1], got {inference_cutoff!r}")
        if not 0.0 < accept_as_true <= 1.0:
            raise RangeError(f"accept-as-true must be in (0, 1], got {accept_as_true!r}")
        if max_chain_depth < 1:
            raise RangeError(f"max-chain-depth must be positive, got {max_chain_depth!r}")
        return super().__new__(cls, inference_cutoff, accept_as_true, max_chain_depth)

    @classmethod
    def _make(cls, fields):
        return cls(*fields)  # so that `_replace` checks too

    def copy(self, **changes) -> "EngineConfig":
        """A new, checked config with ``changes`` applied."""
        return EngineConfig(**self._asdict() | changes)
