"""Benchmark of the antikahler package, run from the root of a checkout.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads (see workloads.py): ``highdim-ladder`` and ``dim4-classify`` call
``antikahler.cli.main.main`` in this process (an op is one call on the
ladder, ``check`` then ``classify`` on dim4-classify); ``verify-cli`` runs
one ``python -m antikahler verify`` process per op.  Each is a closed loop
with one caller: the next op starts when the previous one has returned.
Ops run in whole passes over the workload's op list.  The number of passes
is fixed by ``--seconds`` and the workload's nominal pass time, so every
run, on every commit, measures the same ops.  Only the CLI calls are
timed; their outputs are judged after the clock stops.

Every op is checked by the correctness gate (gate.py) and, outside the
timed loop, the first inputs of the in-process workloads are checked
against an independent sympy oracle (oracle.py).

With ``--trace 0`` the last line of standard output is a JSON object whose
metrics are the end-to-end ones (setup_s, ops_per_s, op_p50_ms, op_tail_ms,
peak_rss_mb).  With ``--trace 1`` the run alternates untraced passes and
passes traced by tracer.py, and the metrics are the per-layer ones plus
the tracing overhead.  The package is imported from ``src`` of the current
directory; without it the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
if HERE not in sys.path:
    sys.path.insert(0, HERE)

import workloads  # noqa: E402
from gate import OK, Gate, load_golden, worst  # noqa: E402
from metrics import per_layer  # noqa: E402
from tracer import Tracer, install, merge  # noqa: E402

SETUP_REPEATS = 5
IMPORT_PROBES = 5
ORACLE_INPUTS = {"highdim-ladder": 3, "dim4-classify": 6, "verify-cli": 0}
CHILD_TIMEOUT_S = 120
# about the seconds per pass of the defining machine on a quiet host (see
# README.md); a run of S seconds makes round(S / NOMINAL_PASS_S) passes,
# stopping early past OVERRUN * S
NOMINAL_PASS_S = {"highdim-ladder": 12.0, "dim4-classify": 4.0, "verify-cli": 13.0}
OVERRUN = 2.5

END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms",
                    "op_tail_ms": "ms", "peak_rss_mb": "MB"}


class BenchmarkError(RuntimeError):
    """The benchmark cannot produce a valid result."""


# ---------------------------------------------------------------------------
# running one CLI call


class InProcessRunner:
    """Calls ``antikahler.cli.main.main`` with stdout captured."""

    def __init__(self, root: str):
        from antikahler.cli import main as cli_main

        self.cli_main = cli_main
        self.tracer = None

    def run(self, call):
        buf = io.StringIO()
        tracer = self.tracer
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            if tracer is not None:
                tracer.begin_command(call.argv[0])
            try:
                rc = self.cli_main.main(list(call.argv))
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 2
            except Exception as exc:  # the call fails; the run goes on
                rc = f"raised {type(exc).__name__}"
            finally:
                if tracer is not None:
                    tracer.end_command()
        return rc, buf.getvalue()

    def peak_rss_kb(self) -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class ProcessRunner:
    """Runs each call as ``python -m antikahler ...``; records each child's peak RSS."""

    def __init__(self, root: str):
        self.root = root
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.max_rss_kb = 0
        self.trace_dir = None
        self._child = 0

    def run(self, call):
        if self.trace_dir is None:
            cmd = [sys.executable, "-m", "antikahler", *call.argv]
        else:
            self._child += 1
            out = os.path.join(self.trace_dir, f"child-{self._child}.json")
            cmd = [sys.executable, os.path.join(HERE, "traced_child.py"), out, *call.argv]
        proc = subprocess.Popen(cmd, cwd=self.root, env=self.env, stdout=subprocess.PIPE,
                                stderr=subprocess.DEVNULL)
        try:
            out_bytes = proc.stdout.read()
        finally:
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.max_rss_kb = max(self.max_rss_kb, usage.ru_maxrss)
        return proc.returncode, out_bytes.decode("utf-8", "replace")

    def peak_rss_kb(self) -> int:
        return self.max_rss_kb


# ---------------------------------------------------------------------------
# measurement


class Phase:
    """Outcome of one timed loop over whole passes."""

    def __init__(self):
        self.latencies = []     # seconds, every op
        self.outcomes = []      # OK / FAILED / WRONG
        self.wall = 0.0
        self.passes = 0

    @property
    def attempted(self) -> int:
        return len(self.outcomes)

    @property
    def succeeded(self) -> int:
        return self.outcomes.count(OK)

    @property
    def failed(self) -> int:
        return self.attempted - self.succeeded

    def ops_per_s(self) -> float:
        """Correct ops per second of timed op time."""
        return self.succeeded / sum(self.latencies)


def run_ops(ops, runner, gate, phase, keep=None):
    """Run ops once in order; record latencies and outcomes into ``phase``.

    The gate judges an op's outputs after its latency is taken, so that the
    gate's cost is never charged to the program.  ``keep`` maps call keys to
    their output, filled in for the keys it has."""
    for op in ops:
        start = time.perf_counter()
        results = [runner.run(call) for call in op]
        phase.latencies.append(time.perf_counter() - start)
        phase.outcomes.append(worst([gate.judge(call, rc, out)
                                     for call, (rc, out) in zip(op, results)]))
        if keep is not None:
            keep.update((call.key, out) for call, (_, out) in zip(op, results)
                        if call.key in keep)


def pass_count(workload: str, seconds: float) -> int:
    """Whole passes a run of ``seconds`` makes: fixed per workload, so every
    run and every commit measures the same ops and the same sample count."""
    return max(1, round(seconds / NOMINAL_PASS_S[workload]))


def measure(ops, passes: int, seconds: float, runner, gate, keep=None) -> Phase:
    """``passes`` whole passes over ``ops``; no further pass starts once
    ``OVERRUN`` times ``seconds`` have gone by."""
    if not ops:
        raise BenchmarkError("workload has no ops")
    phase = Phase()
    start = time.perf_counter()
    while phase.passes < passes and time.perf_counter() - start < OVERRUN * seconds:
        run_ops(ops, runner, gate, phase, keep)
        keep = None
        phase.passes += 1
    phase.wall = time.perf_counter() - start
    if phase.attempted == 0:
        raise BenchmarkError("no op ran")
    return phase


def tail(latencies):
    """Highest percentile with at least 10 samples beyond it: (value, pct, n)."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


# ---------------------------------------------------------------------------
# set-up


def set_up(workload: str, seed: int, root: str, work: str):
    """Run the set-up step SETUP_REPEATS times in fresh processes.

    Each repeat imports the package and generates and writes the inputs.
    Returns (median seconds, op list of the last repeat)."""
    times, manifests = [], []
    for rep in range(SETUP_REPEATS):
        directory = os.path.join(work, f"inputs{rep}")
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "workloads.py"), workload, str(seed),
             os.path.relpath(directory, root)],
            cwd=root, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise BenchmarkError(f"set-up failed:\n{proc.stderr}")
        manifests.append(workloads.read_manifest(directory))
    keys = [[call.key for op in ops for call in op] for ops in manifests]
    if any(k != keys[0] for k in keys):
        raise BenchmarkError("set-up is not deterministic")
    return statistics.median(times), manifests[-1]


def import_package(root: str):
    """Import antikahler from ``root/src``, and from nowhere else."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "antikahler", "__init__.py")):
        raise BenchmarkError(f"no package source under {src}; run from a checkout's root")
    sys.path.insert(0, src)
    import antikahler

    if not os.path.abspath(antikahler.__file__).startswith(src + os.sep):
        raise BenchmarkError(f"imported antikahler from {antikahler.__file__}, not {src}")


def import_cost_ms(root: str) -> float:
    """Median child ``import antikahler`` minus median bare interpreter."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    samples = {"import antikahler": [], "pass": []}
    for _ in range(IMPORT_PROBES):
        for code, bucket in samples.items():
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], cwd=root, env=env, check=True,
                           timeout=CHILD_TIMEOUT_S)
            bucket.append(time.perf_counter() - start)
    return 1e3 * (statistics.median(samples["import antikahler"])
                  - statistics.median(samples["pass"]))


# ---------------------------------------------------------------------------
# oracle


def oracle_targets(workload: str, ops) -> list:
    """Calls whose input the oracle checks: the first curvature calls of the
    ladder, and the first input of each stream kind of dim4-classify."""
    calls = [call for op in ops for call in op]
    count = ORACLE_INPUTS[workload]
    if workload == "highdim-ladder":
        return [call for call in calls if call.argv[0] == "curvature"][:count]
    firsts = {}
    for call in calls:
        firsts.setdefault(call.kind, call)
    return [call for _, call in sorted(firsts.items())][:count]


def oracle_check(targets, runner, kept: dict) -> list:
    """Compare the curvature output of each target's input with sympy.

    Outputs of timed curvature calls are taken from ``kept``; other targets
    get an untimed ``curvature`` call here."""
    import oracle

    problems = []
    for call in targets:
        out = kept.get(call.key)
        if out is None:
            curvature = ("curvature", call.argv[1], "--output", "machine")
            _, out = runner.run(workloads.Call(call.key, curvature, call.input_id))
        with open(call.argv[1], encoding="utf-8") as handle:
            text = handle.read()
        try:
            mismatches = oracle.compare(text, json.loads(out))
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            mismatches = [f"unreadable curvature output ({exc})"]
        if mismatches:
            problems.append((call.key, f"oracle mismatch at {', '.join(mismatches[:3])}"))
    return problems


# ---------------------------------------------------------------------------
# per-layer metrics


@contextlib.contextmanager
def tracing(runner, tracer, trace_dir: str):
    """Trace the calls ``runner`` makes inside the block: in this process
    with ``tracer``, or in each child, which writes its spans to ``trace_dir``."""
    if isinstance(runner, ProcessRunner):
        runner.trace_dir = trace_dir
        try:
            yield
        finally:
            runner.trace_dir = None
        return
    restore = install(tracer)
    runner.tracer = tracer
    try:
        yield
    finally:
        runner.tracer = None
        restore()


def measure_traced(ops, passes: int, seconds: float, runner, gate, work: str, keep=None):
    """``passes`` untraced passes, each followed by a traced one, so that both
    phases see the same load on the host; no further pair starts once
    ``OVERRUN`` times ``seconds`` have gone by.

    Returns (untraced phase, traced phase, tracer aggregate)."""
    if not ops:
        raise BenchmarkError("workload has no ops")
    untraced, traced = Phase(), Phase()
    tracer = Tracer()
    trace_dir = os.path.join(work, "trace")
    os.makedirs(trace_dir, exist_ok=True)
    start = time.perf_counter()
    while untraced.passes < passes and time.perf_counter() - start < OVERRUN * seconds:
        run_ops(ops, runner, gate, untraced, keep)
        keep = None
        untraced.passes += 1
        with tracing(runner, tracer, trace_dir):
            run_ops(ops, runner, gate, traced)
        traced.passes += 1
    if not isinstance(runner, ProcessRunner):
        tracer.dump(os.path.join(trace_dir, "in-process.json"))
    total = {}
    for name in sorted(os.listdir(trace_dir)):
        with open(os.path.join(trace_dir, name), encoding="utf-8") as handle:
            merge(total, json.load(handle)["aggregate"])
    return untraced, traced, total


# ---------------------------------------------------------------------------
# entry point


def run(args) -> dict:
    root = os.getcwd()
    import_package(root)
    work = os.path.join(root, ".perfbench_work", args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)

    setup_s, ops = set_up(args.workload, args.seed, root, work)
    gate = Gate(load_golden(args.workload))
    runner = (ProcessRunner if args.workload == "verify-cli" else InProcessRunner)(root)

    targets = oracle_targets(args.workload, ops)
    kept = {call.key: None for call in targets if call.argv[0] == "curvature"}

    if not args.trace:
        phase = measure(ops, pass_count(args.workload, args.seconds), args.seconds,
                        runner, gate, kept)
        peak_kb = runner.peak_rss_kb()
        problems = oracle_check(targets, runner, kept)
        value, pct, n = tail(phase.latencies)
        metrics = {
            "setup_s": setup_s,
            "ops_per_s": phase.ops_per_s(),
            "op_p50_ms": 1e3 * statistics.median(phase.latencies),
            "op_tail_ms": 1e3 * value,
            "peak_rss_mb": peak_kb / 1024,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}
        notes = [f"op_tail_ms is p{pct:.1f} of {n} samples",
                 f"failed_share {phase.failed / phase.attempted:.4f} "
                 f"({phase.failed} of {phase.attempted})",
                 f"passes {phase.passes}, timed wall {phase.wall:.2f} s"]
        phases = [phase]
    else:
        untraced, traced, aggregate = measure_traced(
            ops, pass_count(args.workload, args.seconds / 2), args.seconds, runner, gate,
            work, kept)
        problems = oracle_check(targets, runner, kept)
        metrics = per_layer(aggregate, traced.attempted, untraced.ops_per_s(),
                            traced.ops_per_s(), import_cost_ms(root))
        notes = [f"untraced {untraced.ops_per_s():.4f} ops/s over {untraced.passes} passes, "
                 f"traced {traced.ops_per_s():.4f} ops/s over {traced.passes} passes"]
        phases = [untraced, traced]

    wrong = gate.wrong + problems
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    for key, reason in wrong[:20]:
        notes.append(f"WRONG {key}: {reason}")
    return {"notes": notes, "result": {"correct": not wrong, "attempted": attempted,
                                       "failed": failed, "metrics": metrics}}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        outcome = run(args)
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}")
    for note in outcome["notes"]:
        print(f"# {note}")
    for name, metric in outcome["result"]["metrics"].items():
        print(f"# {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(outcome["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
