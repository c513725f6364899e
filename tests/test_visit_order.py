"""Golden visit order: the exact sequence of engine events on a small
branching rule graph.

The KB has a diamond (a -> b -> d and a -> c -> d), two-conjunct joins
(d and e -> f on one variable, a and e -> n on two, so that one change
feeds several instances of a rule) and a 2-cycle (g -> h -> g), under
an inference cutoff of 0.05 (so SKIP lines appear) and an
``accept-as-true`` of 0.9 (so ACCEPT lines appear). Forward chaining is depth first: each changed consequence
is chained completely before the next instance of the change that caused
it is applied. The transcript pins every FIRE/SKIP/RETRACT line and the
store, in store order and float hex, after each write, and the TASK and
ACCEPT lines and answers of one ground and one open `prove`. A change
to the visit order, however small, changes this transcript.
"""

from pkb.backward import prove
from pkb.kb import KnowledgeBase
from pkb.sexpr import parse_sentence as S
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
FIRE rule=r3 bind={$x=k} contrib=(0.315 . 0)
FIRE rule=r5 bind={$x=k} contrib=(0.2268 . 0)
FIRE rule=r6 bind={$x=k} contrib=(0.18144000000000002 . 0)
FIRE rule=r7 bind={$x=k} contrib=(0.127008 . 0)
FIRE rule=r8 bind={$x=k} contrib=(0.0889056 . 0)
RETRACT rule=r7 bind={$x=k} contrib=(0.127008 . 0)
FIRE rule=r7 bind={$x=k} contrib=(0.1779501975552 . 0)
SKIP rule=r8 bind={$x=k} contrib=(0.12456513828863999 . 0)
FIRE rule=r2 bind={$x=k} contrib=(0.4 . 0.05)
FIRE rule=r4 bind={$x=k} contrib=(0.24 . 0)
RETRACT rule=r5 bind={$x=k} contrib=(0.2268 . 0)
FIRE rule=r5 bind={$x=k} contrib=(0.3451680000000001 . 0)
RETRACT rule=r6 bind={$x=k} contrib=(0.18144000000000002 . 0)
FIRE rule=r6 bind={$x=k} contrib=(0.27613440000000006 . 0)
RETRACT rule=r7 bind={$x=k} contrib=(0.1779501975552 . 0)
FIRE rule=r7 bind={$x=k} contrib=(0.23834307384115197 . 0)
RETRACT rule=r8 bind={$x=k} contrib=(0.0889056 . 0)
FIRE rule=r8 bind={$x=k} contrib=(0.16684015168880637 . 0)
SKIP rule=r7 bind={$x=k} contrib=(0.2778329725544161 . 0)
FIRE rule=r9 bind={$x=k, $y=k} contrib=(0.2 . 0)
   (e k) base=0x1.999999999999ap-1 0x0.0p+0 tv=0x1.999999999999ap-1 0x0.0p+0
   (a k) base=0x1.0000000000000p-1 0x0.0p+0 tv=0x1.0000000000000p-1 0x0.0p+0
   (b k) base=0x0.0p+0 0x0.0p+0 tv=0x1.ccccccccccccdp-2 0x0.0p+0
   (d k) base=0x0.0p+0 0x0.0p+0 tv=0x1.eae7d566cf420p-2 0x0.0p+0
   (f k) base=0x0.0p+0 0x0.0p+0 tv=0x1.6173b85e80befp-2 0x0.0p+0
   (g k) base=0x0.0p+0 0x0.0p+0 tv=0x1.966e11198d6eep-2 0x0.0p+0
   (h k) base=0x0.0p+0 0x0.0p+0 tv=0x1.e82069db01c35p-3 0x0.0p+0
   (c k) base=0x0.0p+0 0x0.0p+0 tv=0x1.999999999999ap-2 0x1.999999999999ap-5
   (n k k) base=0x0.0p+0 0x0.0p+0 tv=0x1.999999999999ap-3 0x0.0p+0
== stash (a k)
RETRACT rule=r1 bind={$x=k} contrib=(0.45 . 0)
FIRE rule=r1 bind={$x=k} contrib=(0.5684210526315789 . 0)
RETRACT rule=r3 bind={$x=k} contrib=(0.315 . 0)
FIRE rule=r3 bind={$x=k} contrib=(0.39789473684210525 . 0)
SKIP rule=r5 bind={$x=k} contrib=(0.3905280000000001 . 0)
RETRACT rule=r2 bind={$x=k} contrib=(0.4 . 0.05)
FIRE rule=r2 bind={$x=k} contrib=(0.5052631578947369 . 0.06315789473684211)
RETRACT rule=r4 bind={$x=k} contrib=(0.24 . 0)
FIRE rule=r4 bind={$x=k} contrib=(0.3031578947368421 . 0)
RETRACT rule=r5 bind={$x=k} contrib=(0.3451680000000001 . 0)
FIRE rule=r5 bind={$x=k} contrib=(0.417907944598338 . 0)
RETRACT rule=r6 bind={$x=k} contrib=(0.27613440000000006 . 0)
FIRE rule=r6 bind={$x=k} contrib=(0.3343263556786704 . 0)
RETRACT rule=r7 bind={$x=k} contrib=(0.23834307384115197 . 0)
FIRE rule=r7 bind={$x=k} contrib=(0.3117712132307369 . 0)
RETRACT rule=r8 bind={$x=k} contrib=(0.16684015168880637 . 0)
FIRE rule=r8 bind={$x=k} contrib=(0.21823984926151582 . 0)
SKIP rule=r7 bind={$x=k} contrib=(0.3357220100309048 . 0)
RETRACT rule=r9 bind={$x=k, $y=k} contrib=(0.2 . 0)
FIRE rule=r9 bind={$x=k, $y=k} contrib=(0.25263157894736843 . 0)
   (e k) base=0x1.999999999999ap-1 0x0.0p+0 tv=0x1.999999999999ap-1 0x0.0p+0
   (a k) base=0x1.435e50d79435ep-1 0x1.af286bca1af29p-5 tv=0x1.435e50d79435ep-1 0x1.af286bca1af29p-5
   (b k) base=0x0.0p+0 0x0.0p+0 tv=0x1.2308158ed2308p-1 0x0.0p+0
   (d k) base=0x0.0p+0 0x0.0p+0 tv=0x1.292dd1d18600cp-1 0x0.0p+0
   (f k) base=0x0.0p+0 0x0.0p+0 tv=0x1.abf00f6b275d4p-2 0x0.0p+0
   (g k) base=0x0.0p+0 0x0.0p+0 tv=0x1.eb1d03e02c0fbp-2 0x0.0p+0
   (h k) base=0x0.0p+0 0x0.0p+0 tv=0x1.3f40f3f2a41a9p-2 0x0.0p+0
   (c k) base=0x0.0p+0 0x0.0p+0 tv=0x1.02b1da46102b2p-1 0x1.02b1da46102b2p-4
   (n k k) base=0x0.0p+0 0x0.0p+0 tv=0x1.02b1da46102b2p-2 0x0.0p+0
== set_truth (e k)
RETRACT rule=r5 bind={$x=k} contrib=(0.417907944598338 . 0)
FIRE rule=r5 bind={$x=k} contrib=(0.208953972299169 . 0)
RETRACT rule=r6 bind={$x=k} contrib=(0.3343263556786704 . 0)
FIRE rule=r6 bind={$x=k} contrib=(0.1671631778393352 . 0)
RETRACT rule=r7 bind={$x=k} contrib=(0.3117712132307369 . 0)
FIRE rule=r7 bind={$x=k} contrib=(0.24424495225698287 . 0)
SKIP rule=r8 bind={$x=k} contrib=(0.170971466579888 . 0)
RETRACT rule=r9 bind={$x=k, $y=k} contrib=(0.25263157894736843 . 0)
FIRE rule=r9 bind={$x=k, $y=k} contrib=(0.12631578947368421 . 0)
   (e k) base=0x1.999999999999ap-2 0x0.0p+0 tv=0x1.999999999999ap-2 0x0.0p+0
   (a k) base=0x1.435e50d79435ep-1 0x1.af286bca1af29p-5 tv=0x1.435e50d79435ep-1 0x1.af286bca1af29p-5
   (b k) base=0x0.0p+0 0x0.0p+0 tv=0x1.2308158ed2308p-1 0x0.0p+0
   (d k) base=0x0.0p+0 0x0.0p+0 tv=0x1.292dd1d18600cp-1 0x0.0p+0
   (f k) base=0x0.0p+0 0x0.0p+0 tv=0x1.abf00f6b275d4p-3 0x0.0p+0
   (g k) base=0x0.0p+0 0x0.0p+0 tv=0x1.654ba41e9c444p-2 0x0.0p+0
   (h k) base=0x0.0p+0 0x0.0p+0 tv=0x1.f436b291412c5p-3 0x0.0p+0
   (c k) base=0x0.0p+0 0x0.0p+0 tv=0x1.02b1da46102b2p-1 0x1.02b1da46102b2p-4
   (n k k) base=0x0.0p+0 0x0.0p+0 tv=0x1.02b1da46102b2p-3 0x0.0p+0
== stash (a m)
FIRE rule=r1 bind={$x=m} contrib=(0.9 . 0)
FIRE rule=r3 bind={$x=m} contrib=(0.63 . 0)
FIRE rule=r2 bind={$x=m} contrib=(0.8 . 0.1)
FIRE rule=r4 bind={$x=m} contrib=(0.48 . 0)
FIRE rule=r9 bind={$x=m, $y=k} contrib=(0.2 . 0)
   (e k) base=0x1.999999999999ap-2 0x0.0p+0 tv=0x1.999999999999ap-2 0x0.0p+0
   (a k) base=0x1.435e50d79435ep-1 0x1.af286bca1af29p-5 tv=0x1.435e50d79435ep-1 0x1.af286bca1af29p-5
   (b k) base=0x0.0p+0 0x0.0p+0 tv=0x1.2308158ed2308p-1 0x0.0p+0
   (d k) base=0x0.0p+0 0x0.0p+0 tv=0x1.292dd1d18600cp-1 0x0.0p+0
   (f k) base=0x0.0p+0 0x0.0p+0 tv=0x1.abf00f6b275d4p-3 0x0.0p+0
   (g k) base=0x0.0p+0 0x0.0p+0 tv=0x1.654ba41e9c444p-2 0x0.0p+0
   (h k) base=0x0.0p+0 0x0.0p+0 tv=0x1.f436b291412c5p-3 0x0.0p+0
   (c k) base=0x0.0p+0 0x0.0p+0 tv=0x1.02b1da46102b2p-1 0x1.02b1da46102b2p-4
   (n k k) base=0x0.0p+0 0x0.0p+0 tv=0x1.02b1da46102b2p-3 0x0.0p+0
   (a m) base=0x1.0000000000000p+0 0x0.0p+0 tv=0x1.0000000000000p+0 0x0.0p+0
   (b m) base=0x0.0p+0 0x0.0p+0 tv=0x1.ccccccccccccdp-1 0x0.0p+0
   (d m) base=0x0.0p+0 0x0.0p+0 tv=0x1.9d7dbf487fcb9p-1 0x0.0p+0
   (c m) base=0x0.0p+0 0x0.0p+0 tv=0x1.999999999999ap-1 0x1.999999999999ap-4
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
   (d k) base=0x0.0p+0 0x0.0p+0 tv=0x1.292dd1d18600cp-1 0x0.0p+0
   (f k) base=0x0.0p+0 0x0.0p+0 tv=0x1.abf00f6b275d4p-3 0x0.0p+0
   (g k) base=0x0.0p+0 0x0.0p+0 tv=0x1.654ba41e9c444p-2 0x0.0p+0
   (h k) base=0x0.0p+0 0x0.0p+0 tv=0x1.f436b291412c5p-3 0x0.0p+0
   (c k) base=0x0.0p+0 0x0.0p+0 tv=0x1.02b1da46102b2p-1 0x1.02b1da46102b2p-4
   (n k k) base=0x0.0p+0 0x0.0p+0 tv=0x1.02b1da46102b2p-3 0x0.0p+0
   (a m) base=0x1.0000000000000p+0 0x0.0p+0 tv=0x1.0000000000000p+0 0x0.0p+0
   (b m) base=0x0.0p+0 0x0.0p+0 tv=0x1.ccccccccccccdp-1 0x0.0p+0
   (d m) base=0x0.0p+0 0x0.0p+0 tv=0x1.9d7dbf487fcb9p-1 0x0.0p+0
   (c m) base=0x0.0p+0 0x0.0p+0 tv=0x1.999999999999ap-1 0x1.999999999999ap-4
   (n m k) base=0x0.0p+0 0x0.0p+0 tv=0x1.999999999999ap-3 0x0.0p+0
   (e m) base=0x1.0000000000000p+0 0x0.0p+0 tv=0x1.0000000000000p+0 0x0.0p+0
   (f m) base=0x0.0p+0 0x0.0p+0 tv=0x1.74245f5ad96a7p-1 0x0.0p+0
   (g m) base=0x0.0p+0 0x0.0p+0 tv=0x1.734a17fc296a8p-1 0x0.0p+0
   (h m) base=0x0.0p+0 0x0.0p+0 tv=0x1.f646984fda16ap-2 0x0.0p+0
   (n k m) base=0x0.0p+0 0x0.0p+0 tv=0x1.435e50d79435ep-2 0x0.0p+0
   (n m m) base=0x0.0p+0 0x0.0p+0 tv=0x1.0000000000000p-1 0x0.0p+0
== add_rule (d $x)
FIRE rule=r10 bind={$x=k} contrib=(0.2902138504155125 . 0.058042770083102505)
RETRACT rule=r8 bind={$x=k} contrib=(0.21823984926151582 . 0)
FIRE rule=r8 bind={$x=k} contrib=(0.31910302983714706 . 0)
RETRACT rule=r7 bind={$x=k} contrib=(0.24424495225698287 . 0)
FIRE rule=r7 bind={$x=k} contrib=(0.30304675180552104 . 0)
SKIP rule=r8 bind={$x=k} contrib=(0.3475185325366393 . 0)
FIRE rule=r10 bind={$x=m} contrib=(0.4038 . 0.08076)
RETRACT rule=r8 bind={$x=m} contrib=(0.34335257140316155 . 0)
FIRE rule=r8 bind={$x=m} contrib=(0.4785963222079532 . 0)
RETRACT rule=r7 bind={$x=m} contrib=(0.490503673433088 . 0)
FIRE rule=r7 bind={$x=m} contrib=(0.5472445730787352 . 0)
SKIP rule=r8 bind={$x=m} contrib=(0.5023100495122043 . 0)
   (e k) base=0x1.999999999999ap-2 0x0.0p+0 tv=0x1.999999999999ap-2 0x0.0p+0
   (a k) base=0x1.435e50d79435ep-1 0x1.af286bca1af29p-5 tv=0x1.435e50d79435ep-1 0x1.af286bca1af29p-5
   (b k) base=0x0.0p+0 0x0.0p+0 tv=0x1.2308158ed2308p-1 0x0.0p+0
   (d k) base=0x0.0p+0 0x0.0p+0 tv=0x1.292dd1d18600cp-1 0x0.0p+0
   (f k) base=0x0.0p+0 0x0.0p+0 tv=0x1.abf00f6b275d4p-3 0x0.0p+0
   (g k) base=0x0.0p+0 0x0.0p+0 tv=0x1.bb506937caf5bp-2 0x0.0p+0
   (h k) base=0x0.0p+0 0x0.0p+0 tv=0x1.fc5eb632475aep-2 0x1.515341172ea86p-5
   (c k) base=0x0.0p+0 0x0.0p+0 tv=0x1.02b1da46102b2p-1 0x1.02b1da46102b2p-4
   (n k k) base=0x0.0p+0 0x0.0p+0 tv=0x1.02b1da46102b2p-3 0x0.0p+0
   (a m) base=0x1.0000000000000p+0 0x0.0p+0 tv=0x1.0000000000000p+0 0x0.0p+0
   (b m) base=0x0.0p+0 0x0.0p+0 tv=0x1.ccccccccccccdp-1 0x0.0p+0
   (d m) base=0x0.0p+0 0x0.0p+0 tv=0x1.9d7dbf487fcb9p-1 0x0.0p+0
   (c m) base=0x0.0p+0 0x0.0p+0 tv=0x1.999999999999ap-1 0x1.999999999999ap-4
   (n m k) base=0x0.0p+0 0x0.0p+0 tv=0x1.999999999999ap-3 0x0.0p+0
   (e m) base=0x1.0000000000000p+0 0x0.0p+0 tv=0x1.0000000000000p+0 0x0.0p+0
   (f m) base=0x0.0p+0 0x0.0p+0 tv=0x1.74245f5ad96a7p-1 0x0.0p+0
   (g m) base=0x0.0p+0 0x0.0p+0 tv=0x1.904533731ace8p-1 0x0.0p+0
   (h m) base=0x0.0p+0 0x0.0p+0 tv=0x1.6f67676d72e07p-1 0x1.39630bb58b1a4p-5
   (n k m) base=0x0.0p+0 0x0.0p+0 tv=0x1.435e50d79435ep-2 0x0.0p+0
   (n m m) base=0x0.0p+0 0x0.0p+0 tv=0x1.0000000000000p-1 0x0.0p+0
== set_truth (a k)
RETRACT rule=r1 bind={$x=k} contrib=(0.5684210526315789 . 0)
RETRACT rule=r3 bind={$x=k} contrib=(0.39789473684210525 . 0)
RETRACT rule=r5 bind={$x=k} contrib=(0.208953972299169 . 0)
FIRE rule=r5 bind={$x=k} contrib=(0.1091368421052632 . 0)
RETRACT rule=r6 bind={$x=k} contrib=(0.1671631778393352 . 0)
FIRE rule=r6 bind={$x=k} contrib=(0.08730947368421056 . 0)
SKIP rule=r7 bind={$x=k} contrib=(0.2649862501546674 . 0)
RETRACT rule=r10 bind={$x=k} contrib=(0.2902138504155125 . 0.058042770083102505)
FIRE rule=r10 bind={$x=k} contrib=(0.1515789473684211 . 0.03031578947368422)
SKIP rule=r8 bind={$x=k} contrib=(0.2822451781095953 . 0)
RETRACT rule=r2 bind={$x=k} contrib=(0.5052631578947369 . 0.06315789473684211)
RETRACT rule=r4 bind={$x=k} contrib=(0.3031578947368421 . 0)
RETRACT rule=r5 bind={$x=k} contrib=(0.1091368421052632 . 0)
RETRACT rule=r6 bind={$x=k} contrib=(0.08730947368421056 . 0)
RETRACT rule=r7 bind={$x=k} contrib=(0.30304675180552104 . 0)
FIRE rule=r7 bind={$x=k} contrib=(0.22337212088600272 . 0)
RETRACT rule=r8 bind={$x=k} contrib=(0.31910302983714706 . 0)
FIRE rule=r8 bind={$x=k} contrib=(0.23562014804840065 . 0)
RETRACT rule=r7 bind={$x=k} contrib=(0.22337212088600272 . 0)
FIRE rule=r7 bind={$x=k} contrib=(0.16493410363388045 . 0)
SKIP rule=r8 bind={$x=k} contrib=(0.2015665383104826 . 0)
RETRACT rule=r10 bind={$x=k} contrib=(0.1515789473684211 . 0.03031578947368422)
RETRACT rule=r8 bind={$x=k} contrib=(0.23562014804840065 . 0)
FIRE rule=r8 bind={$x=k} contrib=(0.11545387254371621 . 0)
RETRACT rule=r7 bind={$x=k} contrib=(0.16493410363388045 . 0)
FIRE rule=r7 bind={$x=k} contrib=(0.08081771078060135 . 0)
RETRACT rule=r8 bind={$x=k} contrib=(0.11545387254371621 . 0)
FIRE rule=r8 bind={$x=k} contrib=(0.05657239754642094 . 0)
SKIP rule=r7 bind={$x=k} contrib=(0.03960067828249465 . 0)
RETRACT rule=r9 bind={$x=k, $y=k} contrib=(0.12631578947368421 . 0)
RETRACT rule=r9 bind={$x=k, $y=m} contrib=(0.3157894736842105 . 0)
   (e k) base=0x1.999999999999ap-2 0x0.0p+0 tv=0x1.999999999999ap-2 0x0.0p+0
   (g k) base=0x0.0p+0 0x0.0p+0 tv=0x1.cf70eaaa2e99dp-5 0x0.0p+0
   (h k) base=0x0.0p+0 0x0.0p+0 tv=0x1.4b07830bd824cp-4 0x0.0p+0
   (a m) base=0x1.0000000000000p+0 0x0.0p+0 tv=0x1.0000000000000p+0 0x0.0p+0
   (b m) base=0x0.0p+0 0x0.0p+0 tv=0x1.ccccccccccccdp-1 0x0.0p+0
   (d m) base=0x0.0p+0 0x0.0p+0 tv=0x1.9d7dbf487fcb9p-1 0x0.0p+0
   (c m) base=0x0.0p+0 0x0.0p+0 tv=0x1.999999999999ap-1 0x1.999999999999ap-4
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
