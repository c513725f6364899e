"""forward-stream: mostly writes through a rule chain while the KB grows.

Rules: a five-rule chain ``(pK $x) -> (pK+1 $x)``, a join
``(and (p5 $x) (q $x)) -> (j $x)``, a rule with a negated consequence
``(p2 $x) -> (not (n $x))``, a certain rule ``(q $x) -> (c $x) (1 . 0)``
and a few dozen unrelated ``(uI $x) -> (vI $x)`` rules. Set-up preloads
``(p0 kI)`` for every constant and ``(q kI)`` for every third.

The stream is 60% `stash` of new facts, 25% `set_truth` revisions, 5%
``(not s)`` evidence anywhere on the chain and 10% reads. Every read is
checked against the benchmark's model, and after each episode the whole
store is compared with a from-scratch evaluation of the final base
values through the rules.
"""

from __future__ import annotations

import random

from pkb.truth import TruthValue

from common import (
    CERTAIN,
    VACUOUS,
    Op,
    Workload,
    atom,
    close,
    combine,
    conjoin,
    evidence,
    evidence_or_certain,
    is_vacuous,
    key_of,
    negate,
    negated,
    open_atom,
    pair,
    propagate,
    rule_value,
    schedule,
    tv_text,
)

CHAIN = 5
# One 40-operation cycle: 60% stash of new facts, 25% set_truth, 5%
# (not s) evidence, 10% reads, three in four of them lookups.
MIX = {"stash p0": 18, "stash q": 6, "set p0": 8, "set q": 2, "not": 2, "retrieve": 1, "lookup": 3}
# The n-th lookup of an episode asks for level 1 + n % CHAIN with cutoff
# LOOKUP_CUTOFFS[n % 3], the same on every seed: a lookup's cost follows
# its level and cutoff, and seed-drawn ones moved the median read by a
# tenth from seed to seed.
LOOKUP_CUTOFFS = (0.05, 0.2, 0.4)


class ForwardStream(Workload):
    name = "forward-stream"

    def __init__(self, seed: int, small: bool, workdir):
        rng = random.Random(f"{self.name}:{seed}:kb")
        self.seed = seed
        n_constants = 8 if small else 100
        n_unrelated = 4 if small else 24
        self.ops_per_episode = 12 if small else 150
        self.chain_tv = [rule_value(rng) for _ in range(CHAIN)]
        self.join_tv = rule_value(rng)
        self.neg_tv = rule_value(rng)
        self.unrelated_tv = [rule_value(rng) for _ in range(n_unrelated)]
        self.base0 = {}
        for i in range(n_constants):
            self.base0[("p0", f"k{i}")] = evidence(rng)
            if i % 3 == 0:
                self.base0[("q", f"k{i}")] = evidence_or_certain(rng)
        for i in range(3):
            self.base0[(f"u{i}", f"k{i}")] = evidence(rng)

        lines = [f"(rule (p{k} $x) (p{k + 1} $x) {tv_text(tv)})" for k, tv in enumerate(self.chain_tv)]
        lines.append(f"(rule (and (p{CHAIN} $x) (q $x)) (j $x) {tv_text(self.join_tv)})")
        lines.append(f"(rule (p2 $x) (not (n $x)) {tv_text(self.neg_tv)})")
        lines.append(f"(rule (q $x) (c $x) {tv_text(CERTAIN)})")
        lines += [f"(rule (u{i} $x) (v{i} $x) {tv_text(tv)})" for i, tv in enumerate(self.unrelated_tv)]
        lines += [f"(fact ({p} {c}) {tv_text(tv)})" for (p, c), tv in self.base0.items()]
        self.text = "\n".join(lines) + "\n"

    # -- the model ---------------------------------------------------------------

    def expected(self, base: dict, constant: str) -> dict:
        """Every non-vacuous pooled value about one constant, from scratch."""
        out = {}

        def pooled(key, contribution):
            tv = base.get(key, VACUOUS)
            if not is_vacuous(contribution):
                tv = combine(tv, contribution)
            if not is_vacuous(tv):
                out[key] = tv
            return tv

        tv = pooled(("p0", constant), VACUOUS)
        chain = [tv]
        for k in range(CHAIN):
            tv = pooled((f"p{k + 1}", constant), propagate(tv, self.chain_tv[k]))
            chain.append(tv)
        q = pooled(("q", constant), VACUOUS)
        pooled(("j", constant), propagate(conjoin(chain[CHAIN], q), self.join_tv))
        pooled(("n", constant), propagate(chain[2], negate(self.neg_tv)))
        pooled(("c", constant), propagate(q, CERTAIN))
        for i, rule_tv in enumerate(self.unrelated_tv):
            pooled((f"v{i}", constant), propagate(pooled((f"u{i}", constant), VACUOUS), rule_tv))
        return out

    def mismatches(self, kb, base: dict) -> int:
        """Facts whose stored base or pooled value differs from a rebuild."""
        expected = {}
        for constant in {c for _, c in base}:
            expected.update(self.expected(base, constant))
        stored = {key_of(s): (pair(r.base), pair(r.tv)) for s, r in kb.facts()}
        bad = 0
        for key in expected.keys() | stored.keys():
            want_tv = expected.get(key, VACUOUS)
            got_base, got_tv = stored.get(key, (VACUOUS, VACUOUS))
            if not (close(got_tv, want_tv) and close(got_base, base.get(key, VACUOUS))):
                bad += 1
        return bad

    # -- the stream -----------------------------------------------------------------

    def episode(self, kb, index: int):
        rng = random.Random(f"{self.name}:{self.seed}:{index}")
        base = dict(self.base0)
        constants = [c for p, c in base if p == "p0"]
        with_q = [c for p, c in base if p == "q"]
        without_q = sorted(set(constants) - set(with_q))

        def write(method, key, tv, negate_it=False):
            sentence = atom(*key)
            if negate_it:
                sentence = negated(sentence)
            value = TruthValue(*tv)

            def check(_result):
                stored = negate(tv) if negate_it else tv
                base[key] = combine(base.get(key, VACUOUS), stored) if method == "stash" else stored
                return True

            call = getattr(kb, method)
            return Op("write", lambda: call(sentence, value), check)

        def ops():
            lookups = 0
            for i, kind in enumerate(schedule(MIX, self.ops_per_episode)):
                if kind == "stash p0" or (kind == "stash q" and not without_q):
                    constant = f"z{i}"
                    constants.append(constant)
                    without_q.append(constant)
                    yield write("stash", ("p0", constant), evidence(rng))
                elif kind == "stash q":
                    constant = without_q.pop(rng.randrange(len(without_q)))
                    with_q.append(constant)
                    yield write("stash", ("q", constant), evidence_or_certain(rng))
                elif kind == "set p0":
                    yield write("set_truth", ("p0", rng.choice(constants)), evidence(rng))
                elif kind == "set q":
                    yield write("set_truth", ("q", rng.choice(with_q)), evidence_or_certain(rng))
                elif kind == "not":
                    key = (f"p{rng.randrange(CHAIN + 1)}", rng.choice(constants))
                    yield write("stash", key, evidence(rng), negate_it=True)
                elif kind == "retrieve":
                    constant = rng.choice(constants)
                    sentence = atom(f"p{CHAIN}", constant)
                    yield Op(
                        "query",
                        lambda s=sentence: kb.retrieve(s),
                        lambda got, c=constant: got is not None
                        and close(pair(got), self.expected(base, c).get((f"p{CHAIN}", c), VACUOUS)),
                    )
                else:
                    level = 1 + lookups % CHAIN
                    cutoff = LOOKUP_CUTOFFS[lookups % len(LOOKUP_CUTOFFS)]
                    lookups += 1
                    pattern = open_atom(f"p{level}", "$x")
                    yield Op(
                        "query",
                        lambda p=pattern, c=cutoff: kb.lookup(p, "t", c),
                        lambda got, lv=level, c=cutoff: self._lookup_ok(got, base, constants, lv, c),
                    )

        return ops(), lambda: self.mismatches(kb, base)

    def _lookup_ok(self, got, base, constants, level, cutoff) -> bool:
        if got is None:
            return False
        answers = {str(theta[next(iter(theta))]): value for theta, value in got}
        for constant in constants:
            value = self.expected(base, constant).get((f"p{level}", constant), VACUOUS)[0]
            if abs(value - cutoff) <= 1e-9:
                answers.pop(constant, None)  # on the cutoff: either answer is right
                continue
            if value > cutoff:
                if constant not in answers or abs(answers.pop(constant) - value) > 1e-9:
                    return False
        return not answers
