"""resolution-saturate: ground unit goals answered by resolution.

The clause set is a few independent implication chains: per chain ``c``
a unit clause ``(link c s0)`` with a pair ``(a . d)`` and links
``(or (not (link c sK)) (link c sK+1))`` with ``(b . 0)``. A control
row routes every ``(link $c $s)`` goal to resolution, and at the seed
commit each query saturates the whole set again. Every fourth operation
`add_clause`s one more link to the chains in turn, which a saturation
cache would have to pay for; the positions are fixed so that the clause
set grows the same way on every seed.

Links carry no disbelief, so the only resolvents with mass are the
chain products and every derivation of one unit has the same value:
``(link c sK)`` is ``(a * b0 * ... * bK-1 . 0)`` for K >= 1 and
``(a . d)`` for K = 0, whatever order the clauses are processed in.
Those are the values the checks pin.

All pairs here are dyadic (multiples of 1/16), so those products are
exact and every derivation of a unit has bit-for-bit the same mass.
With arbitrary decimals the last-bit differences between derivations
decide whether `_admit` replaces one, and so how many saturation rounds
run; the work per query would then change from seed to seed.
"""

from __future__ import annotations

import math
import random

from pkb import backward
from pkb.truth import TruthValue

from common import Op, Workload, atom, negated, tv_text

UNIT_BELIEF = (0.5, 0.625, 0.75, 0.875)
UNIT_DISBELIEF = (0.0625, 0.125)
LINK_BELIEF = (0.5, 0.625, 0.75, 0.875, 0.9375)


class ResolutionSaturate(Workload):
    name = "resolution-saturate"
    setup_builds = 20

    def __init__(self, seed: int, small: bool, workdir):
        rng = random.Random(f"{self.name}:{seed}:kb")
        self.seed = seed
        n_chains = 2 if small else 3
        links = 2 if small else 5
        self.ops_per_episode = 6 if small else 16
        self.chains = [
            ((rng.choice(UNIT_BELIEF), rng.choice(UNIT_DISBELIEF)), [rng.choice(LINK_BELIEF) for _ in range(links)])
            for _ in range(n_chains)
        ]
        lines = ["(control (link $c $s) resolution)"]
        for c, (unit, betas) in enumerate(self.chains):
            lines.append(f"(clause (or (link c{c} s0)) {tv_text(unit)})")
            for k, beta in enumerate(betas):
                lines.append(f"(clause (or (not (link c{c} s{k})) (link c{c} s{k + 1})) {tv_text((beta, 0.0))})")
        self.text = "\n".join(lines) + "\n"

    def episode(self, kb, index: int):
        rng = random.Random(f"{self.name}:{self.seed}:{index}")
        chains = [(unit, list(betas)) for unit, betas in self.chains]

        def query(c, k, negate_goal):
            goal = atom("link", f"c{c}", f"s{k}")
            if negate_goal:
                goal = negated(goal)
            unit, betas = chains[c]
            want = unit if k == 0 else (unit[0] * math.prod(betas[:k]), 0.0)
            value = want[1] if negate_goal else want[0]

            def check(got):
                return len(got) == 1 and got[0][0] == {} and abs(got[0][1] - value) <= 1e-9

            return Op("query", lambda: backward.truep(kb, goal, "t", 0.0), check)

        def extend(c, beta):
            betas = chains[c][1]
            k = len(betas)
            literals = [(atom("link", f"c{c}", f"s{k}"), False), (atom("link", f"c{c}", f"s{k + 1}"), True)]
            value = TruthValue(beta, 0.0)

            def check(_result):
                betas.append(beta)
                return True

            return Op("write", lambda: kb.add_clause(literals, value), check)

        def ops():
            for i in range(self.ops_per_episode):
                if i % 4 == 3:
                    yield extend(i // 4 % len(chains), rng.choice(LINK_BELIEF))
                else:
                    c = rng.randrange(len(chains))
                    yield query(c, rng.randrange(len(chains[c][1]) + 1), rng.random() < 0.3)

        return ops(), lambda: 0
