"""Pieces shared by the workloads: the truth-value distribution, a
reference truth algebra for the output checks, term helpers and the
operation record the runner times.

The reference algebra below is the benchmark's own closed-form copy of
the evidence calculus (pairs are plain ``(belief, disbelief)`` tuples),
so an answer is never checked against the code that produced it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from pkb.kb import KnowledgeBase
from pkb.terms import Compound, Symbol, Variable

TOLERANCE = 1e-9
VACUOUS = (0.0, 0.0)
CERTAIN = (1.0, 0.0)

# Truth-value distribution, drawn from the workload seed. Values are
# rounded to three decimals so the generated text reads back exactly.
EVIDENCE_BELIEF = (0.2, 0.8)
EVIDENCE_DISBELIEF = (0.0, 0.15)
RULE_BELIEF = (0.6, 0.95)
RULE_DISBELIEF = (0.0, 0.05)
CERTAIN_SHARE = 0.15


def evidence(rng) -> tuple:
    """A fact's pair: never certain, so pooling two never totally conflicts."""
    return (round(rng.uniform(*EVIDENCE_BELIEF), 3), round(rng.uniform(*EVIDENCE_DISBELIEF), 3))


def evidence_or_certain(rng) -> tuple:
    """Like `evidence`, but a share of values is the certain pair (1 . 0)."""
    return CERTAIN if rng.random() < CERTAIN_SHARE else evidence(rng)


def rule_value(rng) -> tuple:
    return (round(rng.uniform(*RULE_BELIEF), 3), round(rng.uniform(*RULE_DISBELIEF), 3))


def schedule(mix: dict, n: int) -> list:
    """Operation kinds for an episode of ``n`` operations.

    ``mix`` maps each kind to its count in one cycle. The cycle is in one
    fixed shuffled order, the same for every seed, so that every seed
    grows the KB along the same path and only the constants and values
    differ. A seed-drawn order moved the median write of forward-stream
    by a quarter from seed to seed.
    """
    cycle = [kind for kind, count in mix.items() for _ in range(count)]
    random.Random(0).shuffle(cycle)
    return [cycle[i % len(cycle)] for i in range(n)]


# -- reference algebra ---------------------------------------------------------


def combine(x, y):
    a1, b1 = x
    a2, b2 = y
    u1, u2 = 1.0 - a1 - b1, 1.0 - a2 - b2
    belief = a1 * a2 + a1 * u2 + u1 * a2
    disbelief = b1 * b2 + b1 * u2 + u1 * b2
    norm = belief + disbelief + u1 * u2
    return (belief / norm, disbelief / norm)


def conjoin(x, y):
    return (x[0] * y[0], x[1] + y[1] - x[1] * y[1])


def propagate(premise, rule):
    return (premise[0] * rule[0], premise[0] * rule[1])


def negate(x):
    return (x[1], x[0])


def is_vacuous(x) -> bool:
    return x[0] == 0.0 and x[1] == 0.0


def close(x, y) -> bool:
    return abs(x[0] - y[0]) <= TOLERANCE and abs(x[1] - y[1]) <= TOLERANCE


def pair(tv) -> tuple:
    """A pkb TruthValue as a plain tuple."""
    return (tv.belief, tv.disbelief)


# -- terms and text --------------------------------------------------------------


def atom(*names: str):
    """Ground atom ``(name arg ...)`` built without the parser."""
    return Compound(tuple(Symbol(n) for n in names))


def open_atom(pred: str, *args: str):
    """Atom whose ``$name`` arguments are variables."""
    return Compound((Symbol(pred),) + tuple(Variable(a[1:]) if a.startswith("$") else Symbol(a) for a in args))


def negated(term):
    return Compound((Symbol("not"), term))


def key_of(term) -> tuple:
    """``(p a b)`` -> ``("p", "a", "b")``."""
    return tuple(str(e) for e in term.elements)


def tv_text(tv) -> str:
    return f"({tv[0]!r} . {tv[1]!r})"


class Workload:
    """Defaults the runner relies on; each workload overrides what it has."""

    # Operations run in child processes: their CPU time is timed and the
    # peak RSS is the largest child's.
    uses_children = False
    # Set-ups per episode. A cheap set-up is built several times so that
    # its median is steady; the count is fixed, because a count that
    # depended on the time taken would mix first and later builds (which
    # reuse memory the first one freed) in proportions that follow the
    # speed of the host.
    setup_builds = 1

    def build(self, trace):
        """The set-up: a KB loaded from the generated text."""
        kb = KnowledgeBase(trace=trace)
        kb.load_text(self.text)
        return kb

    def layer_probes(self) -> dict:
        """Extra per-layer metrics measured outside the op stream."""
        return {}

    def close(self):
        """Remove whatever the workload wrote to disk."""


@dataclass
class Op:
    """One closed-loop operation.

    ``call`` is what the runner times. ``check`` receives its result (or
    None when it raised), brings the benchmark's model up to date and
    returns whether the result was right.
    """

    kind: str  # "write" or "query"
    call: Callable
    check: Callable
