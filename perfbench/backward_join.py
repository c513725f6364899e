"""backward-join: mostly goal-directed reads over a join, a few writes.

Facts ``(p kI)`` and ``(q kI)`` for every constant and a sparse
``(w kI)``; rules ``(and (p $x) (q $x)) -> (r $x)``,
``(r $x) -> (s $x)``, ``(and (w $x) (p $x)) -> (v $x)`` and a couple of
hundred unrelated rules; a control table routing ``r``/``s``/``v`` goals
to backward chaining and ``p``/``q`` goals to lookup; ``accept-as-true``
below 1. Goal constants repeat with a Zipf-like skew, so queries share
work a cross-query cache could keep. Most goals are ``s`` goals, which
prove through the join, so that the median query is one of them rather
than falling between the cheaper ``r`` goals and the costly open goals.

Every answer is checked against the closed form: backward chaining
reads only directly asserted evidence, so ``r`` is
``propagate(conjoin(p, q), r_rule)``, ``s`` chains one more rule on top,
and the open goal ``(v $x)`` yields one such value per ``w`` constant.
"""

from __future__ import annotations

import itertools
import random

from pkb import backward
from pkb.truth import TruthValue

from common import (
    VACUOUS,
    Op,
    Workload,
    atom,
    close,
    conjoin,
    evidence,
    evidence_or_certain,
    negated,
    open_atom,
    pair,
    propagate,
    rule_value,
    schedule,
    tv_text,
)


# One 20-operation cycle: 95% reads, mostly s goals, and 5% set_truth.
MIX = {"prove r": 1, "not r": 1, "s": 10, "not s": 3, "prove s": 2, "q": 1, "open": 1, "write": 1}
# kind -> (predicate, negated goal, prove instead of truep)
GROUND = {
    "prove r": ("r", False, True),
    "not r": ("r", True, False),
    "s": ("s", False, False),
    "not s": ("s", True, False),
    "prove s": ("s", False, True),
    "q": ("q", False, False),
}


class BackwardJoin(Workload):
    name = "backward-join"

    def __init__(self, seed: int, small: bool, workdir):
        rng = random.Random(f"{self.name}:{seed}:kb")
        self.seed = seed
        n_constants = 12 if small else 200
        n_unrelated = 6 if small else 200
        self.ops_per_episode = 40 if small else 200
        self.constants = [f"k{i}" for i in range(n_constants)]
        self.base0 = {}
        for i, c in enumerate(self.constants):
            self.base0[("p", c)] = evidence_or_certain(rng)
            self.base0[("q", c)] = evidence(rng)
            if i % 10 == 0:
                self.base0[("w", c)] = evidence(rng)
        self.r_tv, self.s_tv, self.v_tv = rule_value(rng), rule_value(rng), rule_value(rng)
        popular = self.constants[:]
        rng.shuffle(popular)
        self.popular = popular
        self.cum_weights = list(itertools.accumulate(1.0 / (rank + 1) for rank in range(n_constants)))

        lines = [
            "(setvar accept-as-true 0.9)",
            "(control (p $x) lookup)",
            "(control (q $x) lookup)",
            "(control (r $x) backward-chain)",
            "(control (s $x) backward-chain)",
            "(control (v $x) backward-chain)",
        ]
        lines += [f"(fact ({p} {c}) {tv_text(tv)})" for (p, c), tv in self.base0.items()]
        lines += [f"(rule (u{i} $x) (t{i} $x) {tv_text(rule_value(rng))})" for i in range(n_unrelated)]
        lines.append(f"(rule (and (p $x) (q $x)) (r $x) {tv_text(self.r_tv)})")
        lines.append(f"(rule (r $x) (s $x) {tv_text(self.s_tv)})")
        lines.append(f"(rule (and (w $x) (p $x)) (v $x) {tv_text(self.v_tv)})")
        self.text = "\n".join(lines) + "\n"

    # -- closed forms ---------------------------------------------------------------

    @staticmethod
    def _join(base, first, second, constant, rule_tv):
        x, y = base.get((first, constant)), base.get((second, constant))
        if x is None or y is None:
            return None
        return propagate(conjoin(x, y), rule_tv)

    def expected(self, base, pred, constant):
        """The proved pair for ``(pred constant)``, None when unprovable."""
        if pred == "r":
            return self._join(base, "p", "q", constant, self.r_tv)
        if pred == "s":
            r = self._join(base, "p", "q", constant, self.r_tv)
            return None if r is None else propagate(r, self.s_tv)
        if pred == "v":
            return self._join(base, "w", "p", constant, self.v_tv)
        return base.get((pred, constant))

    # -- the stream -----------------------------------------------------------------

    def episode(self, kb, index: int):
        rng = random.Random(f"{self.name}:{self.seed}:{index}")
        base = dict(self.base0)

        def ground(pred, constant, negate_goal, direct_prove):
            goal = atom(pred, constant)
            if negate_goal:
                goal = negated(goal)
            side = 1 if negate_goal else 0

            def check(got):
                want = self.expected(base, pred, constant)
                if want is None:
                    return got == []
                if direct_prove:
                    return len(got) == 1 and got[0][0] == {} and close(pair(got[0][1]), want)
                return len(got) == 1 and got[0][0] == {} and abs(got[0][1] - want[side]) <= 1e-9

            if direct_prove:
                return Op("query", lambda: backward.prove(kb, goal), check)
            return Op("query", lambda: backward.truep(kb, goal, "t", 0.0), check)

        def open_goal():
            goal = open_atom("v", "$x")

            def check(got):
                answers = {str(theta[next(iter(theta))]): value for theta, value in got}
                want = {}
                for (pred, constant) in base:
                    if pred == "w":
                        tv = self.expected(base, "v", constant)
                        if tv is not None and tv != VACUOUS:
                            want[constant] = tv[0]
                return answers.keys() == want.keys() and all(
                    abs(answers[c] - want[c]) <= 1e-9 for c in want
                )

            return Op("query", lambda: backward.truep(kb, goal, "t", 0.0), check)

        def write(pred, constant, tv):
            sentence = atom(pred, constant)
            value = TruthValue(*tv)

            def check(_result):
                base[(pred, constant)] = tv
                return True

            return Op("write", lambda: kb.set_truth(sentence, value), check)

        def ops():
            writes = 0
            for kind in schedule(MIX, self.ops_per_episode):
                constant = rng.choices(self.popular, cum_weights=self.cum_weights)[0]
                if kind == "write":
                    # Three q writes to one p write: half of the p writes
                    # cost a third less, and an even split put the median
                    # write on the step between the two.
                    writes += 1
                    if writes % 4 == 0:
                        yield write("p", rng.choice(self.constants), evidence_or_certain(rng))
                    else:
                        yield write("q", rng.choice(self.constants), evidence(rng))
                elif kind == "open":
                    yield open_goal()
                else:
                    pred, negate_goal, direct_prove = GROUND[kind]
                    yield ground(pred, constant, negate_goal, direct_prove)

        return ops(), lambda: 0
