"""Closed-loop benchmark of the pkb engine.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]
    python3 perfbench/run.py --smoke

One client, no threads: each operation is sent only after the previous
one returned. A run repeats episodes, each in a fresh interpreter
started by this one and waited for (``--episode``), until
``--seconds`` have passed (at least three): an episode builds the
workload's KB from its generated text (the set-up, timed on its own),
then sends a fixed stream of operations drawn from the seed and checks
every answer.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs the
first three episodes in this process with the per-layer wrappers of
`tracing.py` installed and reports the per-layer metrics instead. The
last line of standard output is the result as one JSON object; the line
before it is the run record (commit, interpreter, load, tail
percentiles and sample counts).

``--workload all`` runs every workload untraced and traced in child
processes and prints one table, with the tracing overhead.
``--smoke`` runs every workload at its smallest size with all checks,
in a few seconds, and exits non-zero if anything is off.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench_work"

MIN_EPISODES = 3
# A time is scaled by the median of the reference times taken before it
# and this many set-ups or operations on either side of it.
REFERENCE_WINDOW = 5

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "write_p50_ms": "ms",
    "write_tail_ms": "ms",
    "query_p50_ms": "ms",
    "query_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

# The tail of each latency is the highest percentile that left at least
# ten samples beyond it in a seed-commit run of the default length with
# the fewest episodes seen. It is fixed here so that a faster commit,
# which collects more samples, is still compared at the same percentile.
TAIL_PERCENTILE = {
    "forward-stream": {"write": 97, "query": 75},
    "backward-join": {"write": 66, "query": 98},
    "resolution-saturate": {"write": 80, "query": 93},
    "cli-cold": {"write": 66, "query": 66},
}


def fail(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_pkb():
    """Import pkb from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "pkb" / "__init__.py").is_file():
        fail(f"no pkb sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import pkb

    if not Path(pkb.__file__).resolve().is_relative_to(SRC.resolve()):
        fail(f"imported pkb from {pkb.__file__}, not from {SRC}")


def workloads() -> dict:
    from backward_join import BackwardJoin
    from cli_cold import CliCold
    from forward_stream import ForwardStream
    from resolution_saturate import ResolutionSaturate

    return {w.name: w for w in (ForwardStream, BackwardJoin, ResolutionSaturate, CliCold)}


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def commit() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_time_with_children() -> float:
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def run_episode(workload, index: int, tracer=None) -> dict:
    """Build the KB, send one episode's operations, check them.

    Latencies and set-up times are CPU time of this process and of the
    children it waited for. The loop is single-threaded and does no I/O
    of its own, so on an unshared core that equals the wall time; on a
    shared host the wall clock also counts the time spent waiting for a
    core, which changes from run to run. Wall time is kept for the
    record.

    CPU time itself changes with the host's load, so `time_reference`
    runs before each set-up and each operation, and each latency and
    set-up time is scaled by ``REFERENCE_S`` over the median of the
    reference times taken nearest to it (see `reference.py`). Operations
    that run in child processes are scaled by a reference process
    instead, timed before each of them, because the parent's speed did
    not follow theirs.
    """
    from reference import CHILD_REFERENCE_S, REFERENCE_S, time_reference

    clock = cpu_time_with_children if workload.uses_children else time.process_time
    # The traced run of a workload with child processes runs its
    # operations in-process (see cli_cold.py).
    in_child = workload.uses_children and tracer is None
    timed = []  # (kind, CPU time): "setup", "write" or "query", in order
    wall = 0.0
    sizes = []  # (facts stored, write latency), traced runs only
    attempted = failed = mismatched = 0
    errors = Counter()
    kb_trace = tracer.on_line if tracer else None
    references = []  # before each set-up and operation
    child_references = []  # before each operation, when it runs in a child
    for _ in range(5):  # warm-up, not kept
        time_reference()

    def active(on: bool):
        if tracer:
            tracer.active = on

    def build():
        references.append(time_reference())
        active(True)
        t0 = clock()
        kb = workload.build(kb_trace)
        timed.append(("setup", clock() - t0))
        active(False)
        return kb

    for _ in range(1 if tracer else workload.setup_builds):
        kb = build()
    ops, finish = workload.episode(kb, index)
    checked_writes = 0
    for op in ops:
        attempted += 1
        if tracer and op.kind == "write":
            facts = len(kb.facts())
        references.append(time_reference())
        if in_child:
            child_references.append(workload.time_reference_process())
        active(True)
        w0 = time.perf_counter()
        t0 = clock()
        try:
            result = op.call()
            raised = False
        except Exception as exc:  # any raise is a failed operation
            result, raised = None, True
            errors[type(exc).__name__] += 1
        elapsed = clock() - t0
        wall += time.perf_counter() - w0
        active(False)
        timed.append((op.kind, elapsed))
        if tracer and op.kind == "write":
            sizes.append((facts, elapsed))
        # A write's check also brings the model up to date, so it runs
        # even when the write raised.
        ok = op.check(result) if (op.kind == "write" or not raised) else False
        if raised or not ok:
            failed += 1
        elif op.kind == "write":
            checked_writes += 1
    bad = finish()
    if bad:
        # The final state is wrong, so no write of the episode passed.
        mismatched += bad
        failed += checked_writes
    who = resource.RUSAGE_CHILDREN if workload.uses_children else resource.RUSAGE_SELF
    factors = reference_factors(references, REFERENCE_S)
    if in_child:
        in_children = iter(reference_factors(child_references, CHILD_REFERENCE_S))
        factors = [f if kind == "setup" else next(in_children) for (kind, _), f in zip(timed, factors)]
    scaled = {"setup": [], "write": [], "query": []}
    for (kind, elapsed), factor in zip(timed, factors):
        scaled[kind].append(elapsed * factor)
    return {
        "latencies": {"write": scaled["write"], "query": scaled["query"]},
        "setups": scaled["setup"],
        "references": [statistics.median(child_references or references)],
        "wall": wall,
        "sizes": sizes,
        "attempted": attempted,
        "failed": failed,
        "mismatched": mismatched,
        "errors": errors,
        "episodes": 1,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
    }


def reference_factors(references: list, nominal: float) -> list:
    """``nominal`` over the median of the reference times near each one."""
    return [
        nominal / statistics.median(references[max(0, i - REFERENCE_WINDOW): i + REFERENCE_WINDOW + 1])
        for i in range(len(references))
    ]


def merge(total, raw: dict) -> dict:
    """Pool the measurements of two sets of episodes."""
    if total is None:
        return raw
    for kind in ("write", "query"):
        total["latencies"][kind] += raw["latencies"][kind]
    for key in ("setups", "references", "sizes", "wall", "attempted", "failed", "mismatched", "errors", "episodes"):
        total[key] += raw[key]
    total["peak_rss_mb"] = max(total["peak_rss_mb"], raw["peak_rss_mb"])
    return total


def run_child(cmd: list) -> str:
    """Run one child interpreter to its end; return its standard output.

    On every way out of here the child has ended and been waited for:
    if this process is interrupted, the child gets SIGTERM, which it
    turns into an exit that stops and waits for its own children, and
    SIGKILL if it has not ended ten seconds later.
    """
    child = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        out, _ = child.communicate()
    finally:
        if child.poll() is None:
            child.terminate()
            try:
                child.wait(timeout=10)
            except subprocess.TimeoutExpired:
                child.kill()
                child.wait()
    if child.returncode != 0:
        fail(f"{' '.join(cmd[1:])} exited with {child.returncode}")
    return out


def run(name: str, seed: int, seconds: float, min_episodes: int, small: bool) -> dict:
    """Episodes one after another, each in a fresh interpreter.

    A small operation's cost depends on where the process's memory
    happens to lie (a 15 us call measured 9 or 17 us in different
    processes, with hash seed and address randomization fixed), so the
    samples of one run come from several processes.
    """
    total = None
    started = time.perf_counter()
    while True:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
               "--episode", str(total["episodes"] if total else 0)] + (["--small"] if small else [])
        raw = json.loads(run_child(cmd).strip().splitlines()[-1])
        raw["errors"] = Counter(raw["errors"])
        total = merge(total, raw)
        elapsed = time.perf_counter() - started
        # Stop when the next episode would end more than half an
        # episode past the deadline, so runs stay close to ``seconds``.
        if total["episodes"] >= min_episodes and elapsed + elapsed / total["episodes"] / 2 >= seconds:
            return total


def episode_main(name: str, seed: int, index: int, small: bool):
    """One untraced episode in this process, printed as one JSON line."""
    WORKDIR.mkdir(exist_ok=True)
    workload = workloads()[name](seed, small, WORKDIR)
    try:
        raw = run_episode(workload, index)
    finally:
        workload.close()
    print(json.dumps(raw))


def end_to_end(name: str, raw) -> tuple[dict, dict]:
    lat = raw["latencies"]
    busy = sum(lat["write"]) + sum(lat["query"])
    values = {
        "setup_s": statistics.median(raw["setups"]),
        "ops_per_s": raw["attempted"] / busy,
    }
    tails = {}
    for kind in ("write", "query"):
        samples = lat[kind]
        pct = TAIL_PERCENTILE[name][kind]
        values[f"{kind}_p50_ms"] = statistics.median(samples) * 1000 if samples else 0.0
        values[f"{kind}_tail_ms"] = percentile(samples, pct) * 1000 if samples else 0.0
        tails[kind] = {"percentile": pct, "samples": len(samples)}
    values["peak_rss_mb"] = raw["peak_rss_mb"]
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    return metrics, tails


def per_layer(workload, raw, tracer) -> dict:
    from tracing import scaling_exponent

    values = tracer.layer_metrics()
    values["forward.write_scaling_exp"] = scaling_exponent(raw["sizes"])
    values.update(workload.layer_probes())
    values.setdefault("cli.interpreter_ms", 0.0)
    values.setdefault("cli.import_ms", 0.0)
    busy = sum(raw["latencies"]["write"]) + sum(raw["latencies"]["query"])
    values["trace.ops_per_s"] = raw["attempted"] / busy
    return {name: {"value": value, "unit": layer_unit(name)} for name, value in values.items()}


def layer_unit(name: str) -> str:
    if name.endswith("_s") and not name.endswith("per_s"):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("bytes_per_s"):
        return "B/s"
    if name.endswith("ops_per_s"):
        return "1/s"
    if name.endswith(("_ratio", "_exp", "per_result")):
        return "ratio"
    return "count"


def measure(name: str, seed: int, seconds: float, trace: bool, small: bool = False) -> dict:
    load = os.getloadavg()[0]
    if trace:
        from tracing import Tracer

        WORKDIR.mkdir(exist_ok=True)
        workload = workloads()[name](seed, small, WORKDIR)
        tracer = Tracer()
        tracer.install()
        try:
            raw = None
            for index in range(1 if small else MIN_EPISODES):
                raw = merge(raw, run_episode(workload, index, tracer))
        finally:
            tracer.uninstall()
            workload.close()
        metrics, tails = per_layer(workload, raw, tracer), None
    else:
        raw = run(name, seed, seconds, 1 if small else MIN_EPISODES, small)
        metrics, tails = end_to_end(name, raw)
    record = {
        "workload": name,
        "layer_shares": tracer.layer_shares() if trace else None,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "commit": commit(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_1m_at_start": load,
        "episodes": raw["episodes"],
        "setups": len(raw["setups"]),
        "reference_ms_per_episode": [t * 1000 for t in raw["references"]],
        "wall_ops_per_s": raw["attempted"] / raw["wall"],
        "tails": tails,
        "ops_failed_ratio": raw["failed"] / raw["attempted"],
        "mismatched_facts": raw["mismatched"],
        "errors": dict(raw["errors"]),
    }
    result = {
        "correct": raw["failed"] == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": metrics,
    }
    return {"record": record, "result": result}


def run_all(seed: int, seconds: float):
    """Every workload untraced and traced, each in its own process."""
    summary = {}
    for name in workloads():
        runs = {}
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(trace)]
            out = run_child(cmd)
            lines = out.strip().splitlines()
            runs[trace] = {"record": json.loads(lines[-2])["record"], "result": json.loads(lines[-1])}
        untraced = runs[0]["result"]["metrics"]["ops_per_s"]["value"]
        traced = runs[1]["result"]["metrics"]["trace.ops_per_s"]["value"]
        runs["trace_overhead"] = untraced / traced
        summary[name] = runs
        print(f"== {name}  seed={seed}  correct={runs[0]['result']['correct'] and runs[1]['result']['correct']}"
              f"  ops_failed_ratio={runs[0]['record']['ops_failed_ratio']}")
        for metric, cell in runs[0]["result"]["metrics"].items():
            print(f"   {metric:<34} {cell['value']:>14.6g} {cell['unit']}")
        print(f"   tails: {runs[0]['record']['tails']}")
        for metric, cell in runs[1]["result"]["metrics"].items():
            print(f"   {metric:<34} {cell['value']:>14.6g} {cell['unit']}")
        print(f"   trace overhead (untraced / traced ops_per_s): {runs['trace_overhead']:.3f}")
        shares = runs[1]["record"]["layer_shares"]
        print("   share of time in pkb: " + ", ".join(f"{k} {v:.1%}" for k, v in shares.items()))
    print(json.dumps(summary))


def smoke() -> int:
    """Smallest size of every workload, untraced and traced, checks on."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {0: {m["name"] for m in spec["end_to_end"]}, 1: {m["name"] for m in spec["per_layer"]}}
    problems = []
    for name in workloads():
        for trace in (0, 1):
            out = measure(name, seed=1, seconds=0, trace=bool(trace), small=True)
            result = out["result"]
            if not result["correct"]:
                problems.append(f"{name} trace={trace}: {result['failed']} failed, {out['record']['errors']}")
            if set(result["metrics"]) != wanted[trace]:
                problems.append(f"{name} trace={trace}: metrics {sorted(set(result['metrics']) ^ wanted[trace])}")
            print(f"smoke {name} trace={trace}: {result['attempted']} ops, {result['failed']} failed")
    for problem in problems:
        print(f"smoke FAILED: {problem}")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--episode", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--small", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    # SIGTERM becomes an exit, so that every child is stopped and waited for.
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))
    import_pkb()
    if args.episode is not None:
        episode_main(args.workload, args.seed, args.episode, args.small)
        return 0
    if args.smoke:
        return smoke()
    if args.workload == "all":
        run_all(args.seed, args.seconds)
        return 0
    if args.workload not in workloads():
        fail(f"unknown workload {args.workload!r}; expected one of {', '.join(workloads())} or all")
    out = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"record": out["record"]}))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
