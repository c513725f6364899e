"""Per-layer tracing, installed from outside the package.

Calls into each layer are wrapped where the calling module looks the
name up: ``pkb.forward.unify`` is a different binding from
``pkb.terms.unify``, so each consumer's binding is wrapped, while names
that `kb` and `backward` import inside function bodies are wrapped as
attributes of the module that defines them.

Layer-boundary calls become spans (name, start, end, parent) kept in
columnar arrays; hot leaf kernels only bump a counter and add their
elapsed time. A span's self time is its duration minus the time its
child spans cover. Wrappers pass straight through while ``active`` is
false, so the benchmark's own checks never show up in the counts.
"""

from __future__ import annotations

import functools
import math
from array import array
from collections import Counter
from time import perf_counter

import pkb.backward
import pkb.cli
import pkb.forward
import pkb.kb
import pkb.resolution
import pkb.sexpr
import pkb.terms

_SPANS = [
    (pkb.kb.KnowledgeBase, "kb", ("stash", "set_truth", "lookup", "retrieve", "match_facts",
                                  "justifications_for_rule", "add_clause", "load_text")),
    (pkb.forward, "forward", ("propagate_change", "fire_rule", "premise_value")),
    (pkb.backward, "backward", ("prove", "truep")),
    (pkb.cli, "backward", ("truep",)),
    (pkb.resolution, "resolution", ("prove_by_resolution",)),
    (pkb.sexpr, "sexpr", ("parse_kb",)),
    (pkb.cli, "cli", ("main",)),
]

# (module, attribute, counter name)
_COUNTERS = [
    (pkb.kb, "combine", "truth.combine"),
    (pkb.forward, "combine", "truth.combine"),
    (pkb.backward, "combine", "truth.combine"),
    (pkb.resolution, "combine", "truth.combine"),
    (pkb.forward, "uncombine", "truth.uncombine"),
    (pkb.forward, "conjoin", "truth.conjoin"),
    (pkb.backward, "conjoin", "truth.conjoin"),
    (pkb.forward, "propagate", "truth.propagate"),
    (pkb.backward, "propagate", "truth.propagate"),
    (pkb.kb, "unify", "terms.unify.kb"),
    (pkb.forward, "unify", "terms.unify.forward"),
    (pkb.backward, "unify", "terms.unify.backward"),
    (pkb.kb, "substitute", "terms.substitute.kb"),
    (pkb.forward, "substitute", "terms.substitute.forward"),
    (pkb.backward, "substitute", "terms.substitute.backward"),
    (pkb.terms, "rename_apart", "terms.rename_apart"),  # kb.dispatch imports it per call
    (pkb.backward, "rename_apart", "terms.rename_apart"),
    (pkb.backward, "canonical_form", "terms.canonical_form"),
    (pkb.resolution, "resolve", "resolution.resolve"),
    (pkb.sexpr, "parse_sentence", "sexpr.parse_sentence"),
    (pkb.cli, "parse_sentence", "sexpr.parse_sentence"),
]

class Stat:
    __slots__ = ("calls", "seconds", "hits", "raised")

    def __init__(self):
        self.calls = 0
        self.seconds = 0.0
        self.hits = 0  # calls that returned something other than None
        self.raised = 0  # for uncombine: NotCertainRemovable/NoValidResidual, the rebuild path


class Tracer:
    def __init__(self):
        self.active = False
        self.names: list[str] = []
        self.span_name = array("H")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[int] = []
        self.counters: dict[str, Stat] = {}
        self.lines = Counter()  # first word of each KB trace line
        self.match_results = 0
        self.parsed_bytes = 0
        self._restore: list = []

    # -- recording ------------------------------------------------------------------

    def on_line(self, line: str):
        """The KB's ``trace`` callable."""
        if self.active:
            self.lines[line.split(" ", 1)[0]] += 1

    def _span(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            index = len(tracer.span_start)
            tracer.span_name.append(name_id)
            tracer.span_parent.append(tracer.stack[-1] if tracer.stack else -1)
            tracer.span_end.append(0.0)
            tracer.stack.append(index)
            tracer.span_start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.span_end[index] = perf_counter()
                tracer.stack.pop()
            if name == "kb.match_facts":
                tracer.match_results += len(result)
            elif name == "sexpr.parse_kb":
                tracer.parsed_bytes += len(args[0].encode("utf-8"))
            return result

        return wrapper

    def _counter(self, name: str, fn):
        stat = self.counters.setdefault(name, Stat())
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stat.raised += 1
                raise
            finally:
                stat.seconds += perf_counter() - start
                stat.calls += 1
            if result is not None:
                stat.hits += 1
            return result

        return wrapper

    def _patch(self, owner, attr, wrapped):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapped)

    def install(self):
        """Wrap every listed name the package still has.

        A name a later version removes or stops importing is skipped, and
        its metrics read 0.
        """
        for owner, layer, attrs in _SPANS:
            for attr in attrs:
                if attr in owner.__dict__:
                    self._patch(owner, attr, self._span(f"{layer}.{attr}", owner.__dict__[attr]))
        for module, attr, name in _COUNTERS:
            if attr in module.__dict__:
                self._patch(module, attr, self._counter(name, module.__dict__[attr]))

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- reporting --------------------------------------------------------------------

    def span_totals(self) -> dict:
        """name -> (calls, inclusive seconds, self seconds)."""
        n = len(self.span_start)
        child = [0.0] * n
        for i in range(n):
            parent = self.span_parent[i]
            if parent >= 0:
                child[parent] += self.span_end[i] - self.span_start[i]
        totals: dict = {}
        for i in range(n):
            name = self.names[self.span_name[i]]
            duration = self.span_end[i] - self.span_start[i]
            calls, inclusive, own = totals.get(name, (0, 0.0, 0.0))
            totals[name] = (calls + 1, inclusive + duration, own + duration - child[i])
        return totals

    def layer_shares(self) -> dict:
        """Each layer's share of the time spent inside pkb.

        Span layers split that time by self time. ``truth`` and ``terms``
        are counters, so their time is also inside some span layer's.
        """
        spans = self.span_totals()
        inside = sum(own for _calls, _inclusive, own in spans.values())
        shares = Counter()
        for name, (_calls, _inclusive, own) in spans.items():
            shares[name.split(".")[0]] += own
        for name, stat in self.counters.items():
            if name.split(".")[0] in ("truth", "terms"):
                shares[name.split(".")[0]] += stat.seconds
        return {layer: seconds / inside for layer, seconds in sorted(shares.items())} if inside else {}

    def layer_metrics(self) -> dict:
        spans = self.span_totals()
        stat = lambda name: self.counters.get(name, Stat())  # noqa: E731

        def ratio(num, den):
            return num / den if den else 0.0

        out = {}

        def span(name, with_self=True):
            calls, _inclusive, own = spans.get(name, (0, 0.0, 0.0))
            out[f"{name}.calls"] = calls
            if with_self:
                out[f"{name}.self_s"] = own

        combine = stat("truth.combine")
        out["truth.combine.calls"] = combine.calls
        out["truth.combine.self_s"] = combine.seconds
        uncombine = stat("truth.uncombine")
        out["truth.uncombine.calls"] = uncombine.calls
        out["truth.uncombine.fallbacks"] = uncombine.raised
        out["truth.uncombine.ok_ratio"] = ratio(uncombine.calls - uncombine.raised, uncombine.calls)
        out["truth.conjoin.calls"] = stat("truth.conjoin").calls
        out["truth.propagate.calls"] = stat("truth.propagate").calls
        for module in ("kb", "forward", "backward"):
            unify = stat(f"terms.unify.{module}")
            out[f"terms.unify.{module}.calls"] = unify.calls
            out[f"terms.unify.{module}.hit_ratio"] = ratio(unify.hits, unify.calls)
            out[f"terms.unify.{module}.self_s"] = unify.seconds
        for module in ("kb", "forward", "backward"):
            substitute = stat(f"terms.substitute.{module}")
            out[f"terms.substitute.{module}.calls"] = substitute.calls
            out[f"terms.substitute.{module}.self_s"] = substitute.seconds
        out["terms.rename_apart.calls"] = stat("terms.rename_apart").calls
        out["terms.canonical_form.calls"] = stat("terms.canonical_form").calls

        span("kb.stash")
        span("kb.set_truth")
        span("kb.justifications_for_rule")
        span("kb.match_facts", with_self=False)
        out["kb.rows_examined_per_result"] = ratio(stat("terms.unify.kb").calls, self.match_results)
        span("kb.lookup")

        span("forward.propagate_change")
        span("forward.fire_rule", with_self=False)
        span("forward.premise_value", with_self=False)
        out["forward.fires"] = self.lines["FIRE"]
        out["forward.skips"] = self.lines["SKIP"]
        out["forward.retracts"] = self.lines["RETRACT"]
        out["forward.useful_ratio"] = ratio(
            self.lines["FIRE"] + self.lines["RETRACT"], out["forward.premise_value.calls"]
        )

        span("backward.prove")
        span("backward.truep", with_self=False)
        out["backward.tasks"] = self.lines["TASK"]
        out["backward.accepts"] = self.lines["ACCEPT"]
        out["backward.subgoals"] = stat("terms.canonical_form").calls

        span("resolution.prove_by_resolution")
        resolve = stat("resolution.resolve")
        out["resolution.resolve.calls"] = resolve.calls
        out["resolution.resolve.self_s"] = resolve.seconds
        out["resolution.resolve.ok_ratio"] = ratio(resolve.calls - resolve.raised, resolve.calls)

        span("sexpr.parse_kb")
        out["sexpr.parse_kb.bytes_per_s"] = ratio(self.parsed_bytes, spans.get("sexpr.parse_kb", (0, 0.0, 0.0))[1])
        out["sexpr.parse_sentence.calls"] = stat("sexpr.parse_sentence").calls
        out["cli.main.self_s"] = spans.get("cli.main", (0, 0.0, 0.0))[2]
        return out


def scaling_exponent(points) -> float:
    """Least-squares slope of log(latency) against log(size).

    0.0 when the sizes span less than 10%, where no slope can be read.
    """
    points = [(n, t) for n, t in points if n > 0 and t > 0]
    if len(points) < 3 or max(n for n, _ in points) < 1.1 * min(n for n, _ in points):
        return 0.0
    xs = [math.log(n) for n, _ in points]
    ys = [math.log(t) for _, t in points]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx
