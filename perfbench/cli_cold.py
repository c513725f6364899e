"""cli-cold: one fresh ``python -m pkb`` process per operation.

The generated ``.pkb`` file holds about a thousand ``(rec kI gJ)``
facts, two rules over the sparse ``edge``/``mark`` predicates, a short
clause chain and control rows routing ``rec`` goals to lookup, ``hot``
goals to backward chaining and ``link`` goals to resolution. Half the
operations are ``query`` processes (some with ``--method`` or
``--tag``), half are one-shot ``assert``/``set`` processes; none of them
changes the file, so every process sees the same KB.

A query is right when its exit code and answer lines equal the
in-process `truep` answer on the set-up KB, formatted as the CLI prints
it; a write is right when it exits 0 and prints nothing. Set-up is the
in-process ``load_text`` of the same file.

In the traced run every operation calls ``pkb.cli.main`` in-process
instead, so the per-layer numbers show what one CLI process does; the
interpreter start and ``import pkb`` are probed with separate processes.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import resource
import statistics
import subprocess
import sys
import time

import pkb.cli
from pkb import backward
from pkb.sexpr import parse_sentence

from common import Op, Workload, evidence, rule_value, schedule, tv_text

REFERENCE_PY = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.py")
METHODS = {"lookup": "lookup", "bc": "backward-chain", "resolution": "resolution"}
# One 20-process cycle: half queries, half one-shot writes.
MIX = {"rec": 4, "hot": 2, "not hot": 1, "link": 2, "group": 1, "assert": 5, "set": 5}


def format_real(x: float) -> str:
    return str(int(x)) if x == int(x) else repr(x)


def render(answers) -> list:
    rows = []
    for theta, value in answers:
        text = "{" + ", ".join(f"${v.name}={t}" for v, t in sorted(theta.items(), key=lambda i: i[0].name)) + "}"
        rows.append((-value, text, value))
    rows.sort(key=lambda r: (r[0], r[1]))
    return [f"{text} {format_real(value)}" for _neg, text, value in rows]


class CliCold(Workload):
    name = "cli-cold"
    uses_children = True
    setup_builds = 3

    def __init__(self, seed: int, small: bool, workdir):
        rng = random.Random(f"{self.name}:{seed}:kb")
        self.seed = seed
        self.traced = False
        n_records = 30 if small else 1000
        n_edges = 6 if small else 30
        self.ops_per_episode = 4 if small else 20
        self.n_records, self.n_edges = n_records, n_edges
        lines = [
            "(setvar accept-as-true 0.95)",
            "(control (rec $x $y) lookup)",
            "(control (hot $x) backward-chain)",
            "(control (link $c $s) resolution)",
            f"(rule (and (edge $x $y) (mark $y)) (near $x) {tv_text(rule_value(rng))})",
            f"(rule (near $x) (hot $x) {tv_text(rule_value(rng))})",
        ]
        lines += [f"(fact (rec k{i} g{i % 40}) {tv_text(evidence(rng))})" for i in range(n_records)]
        for i in range(n_edges):
            lines.append(f"(fact (edge e{i} f{i}) {tv_text(evidence(rng))})")
            if i % 2:
                lines.append(f"(fact (mark f{i}) {tv_text(evidence(rng))})")
        lines.append(f"(clause (or (link c0 s0)) {tv_text(evidence(rng))})")
        for k in range(3):
            lines.append(f"(clause (or (not (link c0 s{k})) (link c0 s{k + 1})) {tv_text((rule_value(rng)[0], 0.0))})")
        self.text = "\n".join(lines) + "\n"
        src = str(pkb.cli.__file__).rsplit(os.sep, 2)[0]
        self.env = {k: v for k, v in os.environ.items() if k != "PKB_TRACE"}
        self.env["PYTHONPATH"] = src
        self.cwd = workdir
        # One process first, so that byte-compiling pkb is not timed.
        self._python(["-c", "import pkb"])
        # Written last, so that an interrupted constructor leaves no file.
        self.path = workdir / f"cli-cold-{seed}-{os.getpid()}.pkb"
        self.path.write_text(self.text, encoding="utf-8")
        self.expected = {}

    def close(self):
        self.path.unlink(missing_ok=True)

    def _python(self, args):
        return subprocess.run(
            [sys.executable] + args, env=self.env, cwd=self.cwd, capture_output=True, text=True, timeout=120
        )

    def build(self, trace):
        # Only the traced run passes a trace callable; it runs the CLI
        # in-process. The set-up KB itself serves as the reference.
        self.traced = trace is not None
        return super().build(None)

    def time_reference_process(self) -> float:
        """CPU time of one ``reference.py`` process, started like the CLI."""
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        self._python([REFERENCE_PY])
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        return after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime

    def _cli(self, argv):
        """Exit code, stdout and stderr of one CLI invocation."""
        if not self.traced:
            done = self._python(["-m", "pkb", "--kb", str(self.path)] + argv)
            return done.returncode, done.stdout, done.stderr
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = pkb.cli.main(["--kb", str(self.path)] + argv)
        return code, out.getvalue(), err.getvalue()

    def _reference(self, kb, goal, tag, method):
        key = (goal, tag, method)
        if key not in self.expected:
            answers = backward.truep(kb, parse_sentence(goal), tag, 0.0, method=METHODS.get(method))
            self.expected[key] = (0 if answers else 1, render(answers))
        return self.expected[key]

    def layer_probes(self) -> dict:
        def median_of(args):
            times = []
            for _ in range(5):
                t0 = time.perf_counter()
                self._python(args)
                times.append(time.perf_counter() - t0)
            return statistics.median(times)

        bare = median_of(["-c", "pass"])
        return {"cli.interpreter_ms": bare * 1000, "cli.import_ms": (median_of(["-c", "import pkb"]) - bare) * 1000}

    def episode(self, kb, index: int):
        rng = random.Random(f"{self.name}:{self.seed}:{index}")

        def query(goal, tag="t", method=None):
            argv = ["query", goal, "--cutoff", "0"]
            if tag != "t":
                argv += ["--tag", tag]
            if method:
                argv += ["--method", method]

            def check(got):
                code, out, err = got
                want_code, want_lines = self._reference(kb, goal, tag, method)
                return code == want_code and out.splitlines() == want_lines and err == ""

            return Op("query", lambda: self._cli(argv), check)

        def write(argv):
            return Op("write", lambda: self._cli(argv), lambda got: got == (0, "", ""))

        def ops():
            for kind in schedule(MIX, self.ops_per_episode):
                record = rng.randrange(self.n_records)
                edge = rng.randrange(self.n_edges)
                if kind == "rec":
                    yield query(f"(rec k{record} $y)")
                elif kind == "hot":
                    yield query(f"(hot e{edge})")
                elif kind == "not hot":
                    yield query(f"(hot e{edge})", tag="not", method="bc")
                elif kind == "link":
                    yield query(f"(link c0 s{rng.randrange(4)})", method="resolution")
                elif kind == "group":
                    yield query(f"(rec $x g{record % 40})", method="lookup")
                elif kind == "assert":
                    yield write(["assert", f"(mark f{edge})", tv_text(evidence(rng))])
                else:
                    yield write(["set", f"(rec k{record} g{record % 40})", tv_text(evidence(rng))])

        return ops(), lambda: 0
