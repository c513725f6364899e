"""Golden visit order: the exact sequence of engine events on a small
branching rule graph.

The KB has a diamond (a -> b -> d and a -> c -> d), two-conjunct joins
(d and e -> f on one variable, a and e -> n on two, so that one change
feeds several instances of a rule) and a 2-cycle (g -> h -> g), under
an inference cutoff of 0.05 (so SKIP lines appear) and an
``accept-as-true`` of 0.9 (so ACCEPT lines appear). Each write runs as a
forward batch: the rule-graph components it reaches fire one at a time,
in topological order, each instance on final premise values, and only
the g/h cycle fires again, in waves, until a wave changes nothing. The
transcript pins every FIRE/SKIP/RETRACT line and the store, in store
order and float hex, after each write, and the TASK and ACCEPT lines
and answers of one ground and one open `prove`. A change to the visit
order, however small, changes this transcript.

At cutoff 0 and without the cycle's ``(h $x) -> (g $x)``, what a write
leaves depends on no visit order: the store after each write equals a
fresh `load` of the rules and of the base evidence then stored, value
for value in float hex.
"""

from pkb.backward import prove
from pkb.kb import KnowledgeBase
from pkb.sexpr import FactStatement, RuleStatement, parse_sentence as S, print_statement
from pkb.terms import format_bindings
from pkb.truth import TruthValue

KB = """
(setvar inference-cutoff 0.05)
(setvar accept-as-true 0.9)
(rule (a $x) (b $x) (0.9 . 0))
(rule (a $x) (c $x) (0.8 . 0.1))
(rule (b $x) (d $x) (0.7 . 0))
(rule (c $x) (d $x) (0.6 . 0))
(rule (and (d $x) (e $x)) (f $x) (0.9 . 0))
(rule (f $x) (g $x) (0.8 . 0))
(rule (g $x) (h $x) (0.7 . 0))
(rule (h $x) (g $x) (0.7 . 0))
(rule (and (a $x) (e $y)) (n $x $y) (0.5 . 0))
(fact (e k) (0.8 . 0))
"""

# (method, sentence or premise, consequence or None, pair)
WRITES = [
    ("stash", "(a k)", None, (0.5, 0.0)),
    ("stash", "(a k)", None, (0.3, 0.1)),
    ("set_truth", "(e k)", None, (0.4, 0.0)),
    ("stash", "(a m)", None, (1.0, 0.0)),
    ("stash", "(e m)", None, (1.0, 0.0)),
    ("add_rule", "(d $x)", "(h $x)", (0.5, 0.1)),
    ("set_truth", "(a k)", None, (0.0, 0.0)),
]

GOALS = ["(d m)", "(g $y)"]


def _hex(tv) -> str:
    return f"{tv.belief.hex()} {tv.disbelief.hex()}"


def transcript() -> list:
    lines = []
    kb = KnowledgeBase()
    kb.load_text(KB)
    kb.trace = lines.append
    for method, first, second, pair in WRITES:
        lines.append(f"== {method} {first}")
        args = (S(first), S(second)) if second else (S(first),)
        getattr(kb, method)(*args, TruthValue(*pair))
        lines += [f"   {sentence} base={_hex(r.base)} tv={_hex(r.tv)}" for sentence, r in kb.facts()]
    for goal in GOALS:
        lines.append(f"== prove {goal}")
        lines += [f"   {format_bindings(theta)} {_hex(tv)}" for theta, tv in prove(kb, S(goal))]
    return lines


GOLDEN = """
== stash (a k)
FIRE rule=r1 bind={$x=k} contrib=(0.45 . 0)
FIRE rule=r2 bind={$x=k} contrib=(0.4 . 0.05)
FIRE rule=r3 bind={$x=k} contrib=(0.315 . 0)
FIRE rule=r4 bind={$x=k} contrib=(0.24 . 0)
FIRE rule=r5 bind={$x=k} contrib=(0.3451680000000001 . 0)
FIRE rule=r6 bind={$x=k} contrib=(0.27613440000000006 . 0)
FIRE rule=r7 bind={$x=k} contrib=(0.19329408000000003 . 0)
FIRE rule=r8 bind={$x=k} contrib=(0.135305856 . 0)
RETRACT rule=r7 bind={$x=k} contrib=(0.19329408000000003 . 0)
FIRE rule=r7 bind={$x=k} contrib=(0.26185435824586756 . 0)
SKIP rule=r8 bind={$x=k} contrib=(0.18329805077210728 . 0)
FIRE rule=r9 bind={$x=k, $y=k} contrib=(0.2 . 0)
   (e k) base=0x1.999999999999ap-1 0x0.0p+0 tv=0x1.999999999999ap-1 0x0.0p+0
   (a k) base=0x1.0000000000000p-1 0x0.0p+0 tv=0x1.0000000000000p-1 0x0.0p+0
   (b k) base=0x0.0p+0 0x0.0p+0 tv=0x1.ccccccccccccdp-2 0x0.0p+0
   (c k) base=0x0.0p+0 0x0.0p+0 tv=0x1.999999999999ap-2 0x1.999999999999ap-5
   (d k) base=0x0.0p+0 0x0.0p+0 tv=0x1.eae7d566cf420p-2 0x0.0p+0
   (f k) base=0x0.0p+0 0x0.0p+0 tv=0x1.6173b85e80befp-2 0x0.0p+0
   (g k) base=0x0.0p+0 0x0.0p+0 tv=0x1.7f0e367352057p-2 0x0.0p+0
   (h k) base=0x0.0p+0 0x0.0p+0 tv=0x1.0c238c83ec9d6p-2 0x0.0p+0
   (n k k) base=0x0.0p+0 0x0.0p+0 tv=0x1.999999999999ap-3 0x0.0p+0
== stash (a k)
RETRACT rule=r1 bind={$x=k} contrib=(0.45 . 0)
FIRE rule=r1 bind={$x=k} contrib=(0.5684210526315789 . 0)
RETRACT rule=r2 bind={$x=k} contrib=(0.4 . 0.05)
FIRE rule=r2 bind={$x=k} contrib=(0.5052631578947369 . 0.06315789473684211)
RETRACT rule=r3 bind={$x=k} contrib=(0.315 . 0)
FIRE rule=r3 bind={$x=k} contrib=(0.39789473684210525 . 0)
RETRACT rule=r4 bind={$x=k} contrib=(0.24 . 0)
FIRE rule=r4 bind={$x=k} contrib=(0.3031578947368421 . 0)
RETRACT rule=r5 bind={$x=k} contrib=(0.3451680000000001 . 0)
FIRE rule=r5 bind={$x=k} contrib=(0.417907944598338 . 0)
RETRACT rule=r6 bind={$x=k} contrib=(0.27613440000000006 . 0)
FIRE rule=r6 bind={$x=k} contrib=(0.3343263556786704 . 0)
SKIP rule=r7 bind={$x=k} contrib=(0.2970771285581453 . 0)
RETRACT rule=r9 bind={$x=k, $y=k} contrib=(0.2 . 0)
FIRE rule=r9 bind={$x=k, $y=k} contrib=(0.25263157894736843 . 0)
   (e k) base=0x1.999999999999ap-1 0x0.0p+0 tv=0x1.999999999999ap-1 0x0.0p+0
   (a k) base=0x1.435e50d79435ep-1 0x1.af286bca1af29p-5 tv=0x1.435e50d79435ep-1 0x1.af286bca1af29p-5
   (b k) base=0x0.0p+0 0x0.0p+0 tv=0x1.2308158ed2308p-1 0x0.0p+0
   (c k) base=0x0.0p+0 0x0.0p+0 tv=0x1.02b1da46102b2p-1 0x1.02b1da46102b2p-4
   (d k) base=0x0.0p+0 0x0.0p+0 tv=0x1.292dd1d18600cp-1 0x0.0p+0
   (f k) base=0x0.0p+0 0x0.0p+0 tv=0x1.abf00f6b275d4p-2 0x0.0p+0
   (g k) base=0x0.0p+0 0x0.0p+0 tv=0x1.b294d698d6c77p-2 0x0.0p+0
   (h k) base=0x0.0p+0 0x0.0p+0 tv=0x1.0c238c83ec9d6p-2 0x0.0p+0
   (n k k) base=0x0.0p+0 0x0.0p+0 tv=0x1.02b1da46102b2p-2 0x0.0p+0
== set_truth (e k)
RETRACT rule=r5 bind={$x=k} contrib=(0.417907944598338 . 0)
FIRE rule=r5 bind={$x=k} contrib=(0.208953972299169 . 0)
RETRACT rule=r6 bind={$x=k} contrib=(0.3343263556786704 . 0)
FIRE rule=r6 bind={$x=k} contrib=(0.1671631778393352 . 0)
RETRACT rule=r7 bind={$x=k} contrib=(0.26185435824586756 . 0)
FIRE rule=r7 bind={$x=k} contrib=(0.19589561387907273 . 0)
SKIP rule=r8 bind={$x=k} contrib=(0.1371269297153509 . 0)
RETRACT rule=r9 bind={$x=k, $y=k} contrib=(0.25263157894736843 . 0)
FIRE rule=r9 bind={$x=k, $y=k} contrib=(0.12631578947368421 . 0)
   (e k) base=0x1.999999999999ap-2 0x0.0p+0 tv=0x1.999999999999ap-2 0x0.0p+0
   (a k) base=0x1.435e50d79435ep-1 0x1.af286bca1af29p-5 tv=0x1.435e50d79435ep-1 0x1.af286bca1af29p-5
   (b k) base=0x0.0p+0 0x0.0p+0 tv=0x1.2308158ed2308p-1 0x0.0p+0
   (c k) base=0x0.0p+0 0x0.0p+0 tv=0x1.02b1da46102b2p-1 0x1.02b1da46102b2p-4
   (d k) base=0x0.0p+0 0x0.0p+0 tv=0x1.292dd1d18600cp-1 0x0.0p+0
   (f k) base=0x0.0p+0 0x0.0p+0 tv=0x1.abf00f6b275d4p-3 0x0.0p+0
   (g k) base=0x0.0p+0 0x0.0p+0 tv=0x1.1e913a715fc2ap-2 0x0.0p+0
   (h k) base=0x0.0p+0 0x0.0p+0 tv=0x1.9131b83852dd4p-3 0x0.0p+0
   (n k k) base=0x0.0p+0 0x0.0p+0 tv=0x1.02b1da46102b2p-3 0x0.0p+0
== stash (a m)
FIRE rule=r1 bind={$x=m} contrib=(0.9 . 0)
FIRE rule=r2 bind={$x=m} contrib=(0.8 . 0.1)
FIRE rule=r3 bind={$x=m} contrib=(0.63 . 0)
FIRE rule=r4 bind={$x=m} contrib=(0.48 . 0)
FIRE rule=r9 bind={$x=m, $y=k} contrib=(0.2 . 0)
   (e k) base=0x1.999999999999ap-2 0x0.0p+0 tv=0x1.999999999999ap-2 0x0.0p+0
   (a k) base=0x1.435e50d79435ep-1 0x1.af286bca1af29p-5 tv=0x1.435e50d79435ep-1 0x1.af286bca1af29p-5
   (b k) base=0x0.0p+0 0x0.0p+0 tv=0x1.2308158ed2308p-1 0x0.0p+0
   (c k) base=0x0.0p+0 0x0.0p+0 tv=0x1.02b1da46102b2p-1 0x1.02b1da46102b2p-4
   (d k) base=0x0.0p+0 0x0.0p+0 tv=0x1.292dd1d18600cp-1 0x0.0p+0
   (f k) base=0x0.0p+0 0x0.0p+0 tv=0x1.abf00f6b275d4p-3 0x0.0p+0
   (g k) base=0x0.0p+0 0x0.0p+0 tv=0x1.1e913a715fc2ap-2 0x0.0p+0
   (h k) base=0x0.0p+0 0x0.0p+0 tv=0x1.9131b83852dd4p-3 0x0.0p+0
   (n k k) base=0x0.0p+0 0x0.0p+0 tv=0x1.02b1da46102b2p-3 0x0.0p+0
   (a m) base=0x1.0000000000000p+0 0x0.0p+0 tv=0x1.0000000000000p+0 0x0.0p+0
   (b m) base=0x0.0p+0 0x0.0p+0 tv=0x1.ccccccccccccdp-1 0x0.0p+0
   (c m) base=0x0.0p+0 0x0.0p+0 tv=0x1.999999999999ap-1 0x1.999999999999ap-4
   (d m) base=0x0.0p+0 0x0.0p+0 tv=0x1.9d7dbf487fcb9p-1 0x0.0p+0
   (n m k) base=0x0.0p+0 0x0.0p+0 tv=0x1.999999999999ap-3 0x0.0p+0
== stash (e m)
FIRE rule=r5 bind={$x=m} contrib=(0.72684 . 0)
FIRE rule=r6 bind={$x=m} contrib=(0.5814720000000001 . 0)
FIRE rule=r7 bind={$x=m} contrib=(0.40703040000000007 . 0)
FIRE rule=r8 bind={$x=m} contrib=(0.28492128000000005 . 0)
RETRACT rule=r7 bind={$x=m} contrib=(0.40703040000000007 . 0)
FIRE rule=r7 bind={$x=m} contrib=(0.490503673433088 . 0)
RETRACT rule=r8 bind={$x=m} contrib=(0.28492128000000005 . 0)
FIRE rule=r8 bind={$x=m} contrib=(0.34335257140316155 . 0)
SKIP rule=r7 bind={$x=m} contrib=(0.5076222655029556 . 0)
FIRE rule=r9 bind={$x=k, $y=m} contrib=(0.3157894736842105 . 0)
FIRE rule=r9 bind={$x=m, $y=m} contrib=(0.5 . 0)
   (e k) base=0x1.999999999999ap-2 0x0.0p+0 tv=0x1.999999999999ap-2 0x0.0p+0
   (a k) base=0x1.435e50d79435ep-1 0x1.af286bca1af29p-5 tv=0x1.435e50d79435ep-1 0x1.af286bca1af29p-5
   (b k) base=0x0.0p+0 0x0.0p+0 tv=0x1.2308158ed2308p-1 0x0.0p+0
   (c k) base=0x0.0p+0 0x0.0p+0 tv=0x1.02b1da46102b2p-1 0x1.02b1da46102b2p-4
   (d k) base=0x0.0p+0 0x0.0p+0 tv=0x1.292dd1d18600cp-1 0x0.0p+0
   (f k) base=0x0.0p+0 0x0.0p+0 tv=0x1.abf00f6b275d4p-3 0x0.0p+0
   (g k) base=0x0.0p+0 0x0.0p+0 tv=0x1.1e913a715fc2ap-2 0x0.0p+0
   (h k) base=0x0.0p+0 0x0.0p+0 tv=0x1.9131b83852dd4p-3 0x0.0p+0
   (n k k) base=0x0.0p+0 0x0.0p+0 tv=0x1.02b1da46102b2p-3 0x0.0p+0
   (a m) base=0x1.0000000000000p+0 0x0.0p+0 tv=0x1.0000000000000p+0 0x0.0p+0
   (b m) base=0x0.0p+0 0x0.0p+0 tv=0x1.ccccccccccccdp-1 0x0.0p+0
   (c m) base=0x0.0p+0 0x0.0p+0 tv=0x1.999999999999ap-1 0x1.999999999999ap-4
   (d m) base=0x0.0p+0 0x0.0p+0 tv=0x1.9d7dbf487fcb9p-1 0x0.0p+0
   (n m k) base=0x0.0p+0 0x0.0p+0 tv=0x1.999999999999ap-3 0x0.0p+0
   (e m) base=0x1.0000000000000p+0 0x0.0p+0 tv=0x1.0000000000000p+0 0x0.0p+0
   (f m) base=0x0.0p+0 0x0.0p+0 tv=0x1.74245f5ad96a7p-1 0x0.0p+0
   (g m) base=0x0.0p+0 0x0.0p+0 tv=0x1.734a17fc296a8p-1 0x0.0p+0
   (h m) base=0x0.0p+0 0x0.0p+0 tv=0x1.f646984fda16ap-2 0x0.0p+0
   (n k m) base=0x0.0p+0 0x0.0p+0 tv=0x1.435e50d79435ep-2 0x0.0p+0
   (n m m) base=0x0.0p+0 0x0.0p+0 tv=0x1.0000000000000p-1 0x0.0p+0
== add_rule (d $x)
FIRE rule=r10 bind={$x=k} contrib=(0.2902138504155125 . 0.058042770083102505)
FIRE rule=r10 bind={$x=m} contrib=(0.4038 . 0.08076)
RETRACT rule=r8 bind={$x=k} contrib=(0.135305856 . 0)
FIRE rule=r8 bind={$x=k} contrib=(0.2958855788048146 . 0)
RETRACT rule=r8 bind={$x=m} contrib=(0.34335257140316155 . 0)
FIRE rule=r8 bind={$x=m} contrib=(0.4785963222079532 . 0)
RETRACT rule=r7 bind={$x=k} contrib=(0.19589561387907273 . 0)
FIRE rule=r7 bind={$x=k} contrib=(0.28951130811001424 . 0)
RETRACT rule=r7 bind={$x=m} contrib=(0.490503673433088 . 0)
FIRE rule=r7 bind={$x=m} contrib=(0.5472445730787352 . 0)
SKIP rule=r8 bind={$x=k} contrib=(0.3409601576830227 . 0)
SKIP rule=r8 bind={$x=m} contrib=(0.5023100495122043 . 0)
   (e k) base=0x1.999999999999ap-2 0x0.0p+0 tv=0x1.999999999999ap-2 0x0.0p+0
   (a k) base=0x1.435e50d79435ep-1 0x1.af286bca1af29p-5 tv=0x1.435e50d79435ep-1 0x1.af286bca1af29p-5
   (b k) base=0x0.0p+0 0x0.0p+0 tv=0x1.2308158ed2308p-1 0x0.0p+0
   (c k) base=0x0.0p+0 0x0.0p+0 tv=0x1.02b1da46102b2p-1 0x1.02b1da46102b2p-4
   (d k) base=0x0.0p+0 0x0.0p+0 tv=0x1.292dd1d18600cp-1 0x0.0p+0
   (f k) base=0x0.0p+0 0x0.0p+0 tv=0x1.abf00f6b275d4p-3 0x0.0p+0
   (g k) base=0x0.0p+0 0x0.0p+0 tv=0x1.a78380dc50014p-2 0x0.0p+0
   (h k) base=0x0.0p+0 0x0.0p+0 tv=0x1.f2c6a812c944ap-2 0x1.579a0179c1607p-5
   (n k k) base=0x0.0p+0 0x0.0p+0 tv=0x1.02b1da46102b2p-3 0x0.0p+0
   (a m) base=0x1.0000000000000p+0 0x0.0p+0 tv=0x1.0000000000000p+0 0x0.0p+0
   (b m) base=0x0.0p+0 0x0.0p+0 tv=0x1.ccccccccccccdp-1 0x0.0p+0
   (c m) base=0x0.0p+0 0x0.0p+0 tv=0x1.999999999999ap-1 0x1.999999999999ap-4
   (d m) base=0x0.0p+0 0x0.0p+0 tv=0x1.9d7dbf487fcb9p-1 0x0.0p+0
   (n m k) base=0x0.0p+0 0x0.0p+0 tv=0x1.999999999999ap-3 0x0.0p+0
   (e m) base=0x1.0000000000000p+0 0x0.0p+0 tv=0x1.0000000000000p+0 0x0.0p+0
   (f m) base=0x0.0p+0 0x0.0p+0 tv=0x1.74245f5ad96a7p-1 0x0.0p+0
   (g m) base=0x0.0p+0 0x0.0p+0 tv=0x1.904533731ace8p-1 0x0.0p+0
   (h m) base=0x0.0p+0 0x0.0p+0 tv=0x1.6f67676d72e07p-1 0x1.39630bb58b1a4p-5
   (n k m) base=0x0.0p+0 0x0.0p+0 tv=0x1.435e50d79435ep-2 0x0.0p+0
   (n m m) base=0x0.0p+0 0x0.0p+0 tv=0x1.0000000000000p-1 0x0.0p+0
== set_truth (a k)
RETRACT rule=r1 bind={$x=k} contrib=(0.5684210526315789 . 0)
RETRACT rule=r2 bind={$x=k} contrib=(0.5052631578947369 . 0.06315789473684211)
RETRACT rule=r3 bind={$x=k} contrib=(0.39789473684210525 . 0)
RETRACT rule=r4 bind={$x=k} contrib=(0.3031578947368421 . 0)
RETRACT rule=r5 bind={$x=k} contrib=(0.208953972299169 . 0)
RETRACT rule=r6 bind={$x=k} contrib=(0.1671631778393352 . 0)
RETRACT rule=r10 bind={$x=k} contrib=(0.2902138504155125 . 0.058042770083102505)
RETRACT rule=r7 bind={$x=k} contrib=(0.28951130811001424 . 0)
FIRE rule=r7 bind={$x=k} contrib=(0.20711990516337037 . 0)
RETRACT rule=r8 bind={$x=k} contrib=(0.2958855788048146 . 0)
FIRE rule=r8 bind={$x=k} contrib=(0.14498393361435924 . 0)
RETRACT rule=r7 bind={$x=k} contrib=(0.20711990516337037 . 0)
FIRE rule=r7 bind={$x=k} contrib=(0.10148875353005146 . 0)
RETRACT rule=r8 bind={$x=k} contrib=(0.14498393361435924 . 0)
FIRE rule=r8 bind={$x=k} contrib=(0.07104212747103601 . 0)
RETRACT rule=r7 bind={$x=k} contrib=(0.10148875353005146 . 0)
FIRE rule=r7 bind={$x=k} contrib=(0.049729489229725206 . 0)
SKIP rule=r8 bind={$x=k} contrib=(0.034810642460807645 . 0)
SKIP rule=r8 bind={$x=k} contrib=(0.034810642460807645 . 0)
RETRACT rule=r9 bind={$x=k, $y=k} contrib=(0.12631578947368421 . 0)
RETRACT rule=r9 bind={$x=k, $y=m} contrib=(0.3157894736842105 . 0)
   (e k) base=0x1.999999999999ap-2 0x0.0p+0 tv=0x1.999999999999ap-2 0x0.0p+0
   (g k) base=0x0.0p+0 0x0.0p+0 tv=0x1.22fd11e205951p-4 0x0.0p+0
   (h k) base=0x0.0p+0 0x0.0p+0 tv=0x1.97624c3c6e371p-5 0x0.0p+0
   (a m) base=0x1.0000000000000p+0 0x0.0p+0 tv=0x1.0000000000000p+0 0x0.0p+0
   (b m) base=0x0.0p+0 0x0.0p+0 tv=0x1.ccccccccccccdp-1 0x0.0p+0
   (c m) base=0x0.0p+0 0x0.0p+0 tv=0x1.999999999999ap-1 0x1.999999999999ap-4
   (d m) base=0x0.0p+0 0x0.0p+0 tv=0x1.9d7dbf487fcb9p-1 0x0.0p+0
   (n m k) base=0x0.0p+0 0x0.0p+0 tv=0x1.999999999999ap-3 0x0.0p+0
   (e m) base=0x1.0000000000000p+0 0x0.0p+0 tv=0x1.0000000000000p+0 0x0.0p+0
   (f m) base=0x0.0p+0 0x0.0p+0 tv=0x1.74245f5ad96a7p-1 0x0.0p+0
   (g m) base=0x0.0p+0 0x0.0p+0 tv=0x1.904533731ace8p-1 0x0.0p+0
   (h m) base=0x0.0p+0 0x0.0p+0 tv=0x1.6f67676d72e07p-1 0x1.39630bb58b1a4p-5
   (n m m) base=0x0.0p+0 0x0.0p+0 tv=0x1.0000000000000p-1 0x0.0p+0
== prove (d m)
TASK goal=(d m) src=fact acc=(0 . 0)
TASK goal=(b m) src=fact acc=(0 . 0)
ACCEPT goal=(a m) tag=t at=1.0
TASK goal=(a m) src=fact acc=(1 . 0)
ACCEPT goal=(b m) tag=t at=0.9
TASK goal=(b m) src=rule:r1 acc=(0.9 . 0)
TASK goal=(d m) src=rule:r3 acc=(0.63 . 0)
TASK goal=(c m) src=fact acc=(0 . 0)
TASK goal=(c m) src=rule:r2 acc=(0.8 . 0.1)
TASK goal=(d m) src=rule:r4 acc=(0.8076 . 0)
   {} 0x1.9d7dbf487fcb9p-1 0x0.0p+0
== prove (g $y)
TASK goal=(g $y) src=fact acc=(0 . 0)
TASK goal=(f $x) src=fact acc=(0 . 0)
TASK goal=(d $x) src=fact acc=(0 . 0)
TASK goal=(b $x) src=fact acc=(0 . 0)
ACCEPT goal=(a m) tag=t at=1.0
TASK goal=(a $x) src=fact acc=(1 . 0)
ACCEPT goal=(b m) tag=t at=0.9
TASK goal=(b $x) src=rule:r1 acc=(0.9 . 0)
TASK goal=(d $x) src=rule:r3 acc=(0.63 . 0)
TASK goal=(c $x) src=fact acc=(0 . 0)
TASK goal=(c $x) src=rule:r2 acc=(0.8 . 0.1)
TASK goal=(d $x) src=rule:r4 acc=(0.8076 . 0)
ACCEPT goal=(e m) tag=t at=1.0
TASK goal=(e m) src=fact acc=(1 . 0)
TASK goal=(f $x) src=rule:r5 acc=(0.72684 . 0)
TASK goal=(g $y) src=rule:r6 acc=(0.5814720000000001 . 0)
TASK goal=(h $x) src=fact acc=(0 . 0)
TASK goal=(h $x) src=rule:r7 acc=(0 . 0)
TASK goal=(h $x) src=rule:r10 acc=(0.4038 . 0.08076)
TASK goal=(g $y) src=rule:r8 acc=(0.6997731244800001 . 0)
   {$y=m} 0x1.6648a9b885ce0p-1 0x0.0p+0
"""


def test_visit_order_is_pinned():
    assert transcript() == GOLDEN.strip("\n").splitlines()


def _store(kb) -> set:
    return {f"{sentence} base={_hex(r.base)} tv={_hex(r.tv)}" for sentence, r in kb.facts()}


def test_acyclic_writes_leave_what_a_fresh_load_does():
    text = KB.replace("(setvar inference-cutoff 0.05)", "(setvar inference-cutoff 0)")
    text = text.replace("(rule (h $x) (g $x) (0.7 . 0))\n", "")
    kb = KnowledgeBase()
    kb.load_text(text)
    for method, first, second, pair in WRITES:
        args = (S(first), S(second)) if second else (S(first),)
        getattr(kb, method)(*args, TruthValue(*pair))
        statements = [RuleStatement(rule.premise, rule.consequence, rule.rule_tv) for rule in kb.rules]
        statements += [FactStatement(sentence, r.base) for sentence, r in kb.facts() if not r.base.is_vacuous()]
        fresh = KnowledgeBase()
        fresh.load_text("(setvar inference-cutoff 0)\n" + "\n".join(map(print_statement, statements)))
        assert _store(kb) == _store(fresh), f"after {method} {first}"
