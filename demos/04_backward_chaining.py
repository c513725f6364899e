"""Goal-directed proving that pools every applicable source.

Succeeding once is not enough: a bird usually flies, but if it is also
an ostrich the second rule must be heard too, and certainty outranks a
tendency. Goals with variables accumulate a value per binding, and
premises may introduce variables of their own that get enumerated away.
"""

from pkb import EngineConfig, KnowledgeBase, format_bindings, parse_sentence, prove, truep

kb = KnowledgeBase()
kb.load_text(
    """
    (rule (bird $x) (flies $x) (0.7 . 0.0))
    (rule (ostrich $x) (flies $x) (0 . 1))
    (fact (bird Tweety) (1 . 0))
    (fact (ostrich Tweety) (1 . 0))
    (fact (bird Robin) (1 . 0))
    """
)

print("prove (flies Tweety):")
for bindings, tv in prove(kb, parse_sentence("(flies Tweety)")):
    print(f"  {tv}   (the ostrich rule overrides the bird tendency)")

print("\nprove (flies $x): one accumulation per binding")
for bindings, tv in prove(kb, parse_sentence("(flies $x)")):
    print(f"  {format_bindings(bindings)} -> {tv}")

# A ground goal can still spawn a non-ground subgoal: proving that
# Nixon is a crook asks what, if anything, he steals.
kb2 = KnowledgeBase()
kb2.load_text(
    """
    (rule (steals $person $object) (crook $person) (0.5 . 0))
    (fact (steals Nixon funds) (1 . 0))
    (fact (steals Nixon votes) (1 . 0))
    """
)
print("\nprove (crook Nixon): two independent thefts pool their evidence")
for _b, tv in prove(kb2, parse_sentence("(crook Nixon)")):
    print(f"  {tv}")

# Early termination: once a goal is confirmed to the accept-as-true
# level, remaining agenda tasks for it are dropped.
eager = KnowledgeBase(config=EngineConfig(accept_as_true=0.9))
eager.load_text(
    """
    (rule (strong $x) (goal $x) (0.95 . 0.0))
    (rule (weak $x) (goal $x) (0.5 . 0.0))
    (fact (strong m) (1 . 0))
    (fact (weak m) (1 . 0))
    """
)
print("\naccept-as-true 0.9 with tracing: the weak rule never runs")
eager.trace = lambda l: print(f"    | {l}")
for _b, tv in prove(eager, parse_sentence("(goal m)")):
    print(f"  accepted at {tv}")

# truep is the query front door: it consults the control table, falls
# back to lookup-then-chaining, and filters by tag and cutoff.
print("\ntruep (flies Tweety) not 0.9:")
print(f"  {truep(kb, parse_sentence('(flies Tweety)'), 'not', 0.9)}")
