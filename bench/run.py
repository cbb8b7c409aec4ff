"""End-to-end and per-layer benchmark of the fieldtomo command line.

Usage, from the root of a source checkout::

    python3 bench/run.py --workload paper-tomo --seed 1 --seconds 30 --trace 0

Each run is one process with one closed-loop client that calls
``fieldtomo.cli.main`` in-process, one op after the other.  The program
is imported from ``src/`` of the checkout and sees only the generated
``--config`` overlays and ``--seed`` values.

``--seconds`` sets the work of a run: the whole op cycles of the
workload that take about that long on a quiet 2-core Xeon.  ``--trace
0`` measures set-up from fresh interpreters, then runs those cycles and
reports the end-to-end metrics.  ``--trace 1`` runs a quarter of them
once plain and once with every traced function wrapped, and reports the
per-layer metrics and the tracing overhead.  Timings are adjusted to a reference host
speed (see ``hostspeed.py``); the record keeps the raw ones too.

Every op's artifacts are checked for correctness and hashed outside the
timed region; ops with identical inputs must give identical hashes.
The last line of standard output is the result as JSON; a record with
the op latencies and the environment goes to ``.bench_out/<workload>/``.
"""

import os

# Pin native thread pools before numpy is loaded, here and in children.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import io
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from hostspeed import REF_START_S, START_REFERENCE, HostSpeed
from tracer import Tracer
from workloads import WORKLOADS, cycles

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_PROBES = 9
TAIL_BEYOND = 10
# Wall seconds per op cycle, checks and host sampling included, on a
# 2-core Xeon.  --seconds sets the work of a run as whole cycles, so a
# seed fixes the ops a run measures.
NOMINAL_CYCLE_S = {"paper-tomo": 0.5, "shot-sweep": 5.8, "coupling-scan": 0.42}
# A plain run starts no new cycle once its wall clock passes this many
# times --seconds, which bounds a run on a slow host.
WALL_CAP = 1.4


def planned_cycles(workload: str, seconds: float) -> int:
    return math.ceil(seconds / NOMINAL_CYCLE_S[workload])


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "threads": {v: os.environ[v] for v in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "load": "one process, one closed-loop client",
    }


def measure_setup(overlay: str, work: Path) -> tuple[list[float], list[float]]:
    """Seconds from starting a fresh interpreter to the first op being ready.

    Runs of ``START_REFERENCE``, timed the same way, come before the first
    probe and after each one.  Returns the probe and the reference times.
    """
    ini = "-"
    if overlay:
        ini = str(work / "setup.ini")
        Path(ini).write_text(overlay)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    probe = [sys.executable, str(BENCH_DIR / "setup_probe.py"), ini]
    reference = [sys.executable, *START_REFERENCE]

    def ready(cmd: list[str]) -> float:
        start = time.monotonic()
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        return float(proc.stdout.split()[-1]) - start

    ready(probe)   # fills the bytecode cache
    times, references = [], [ready(reference)]
    for _ in range(SETUP_PROBES):
        times.append(ready(probe))
        references.append(ready(reference))
    return times, references


def digest(out_dir: Path) -> tuple[str, int]:
    """Hash of every artifact (names and bytes) and their total size."""
    h = hashlib.sha256()
    size = 0
    for path in sorted(out_dir.iterdir()):
        data = path.read_bytes()
        size += len(data)
        h.update(path.name.encode() + b"\0" + len(data).to_bytes(8, "little") + data)
    return h.hexdigest(), size


@dataclass(frozen=True)
class Outcome:
    latency: float    # seconds, as measured
    adjusted: float   # seconds at reference host speed
    size: int         # artifact bytes
    ok: bool


class Client:
    """Runs ops one at a time and keeps the checks' verdicts."""

    def __init__(self, main, work: Path, host):
        self.main = main
        self.host = host
        self.op_dir = work / "op"
        self.ini = work / "op.ini"
        self.digests: dict[tuple, str] = {}
        self.attempted = 0
        self.failures: list[str] = []

    def run(self, op, op_id: int, tracer=None):
        """Run one op, then check and hash its artifacts."""
        shutil.rmtree(self.op_dir, ignore_errors=True)
        self.op_dir.mkdir(parents=True)
        argv = list(op.argv)
        if op.overlay:
            self.ini.write_text(op.overlay)
            argv += ["--config", str(self.ini)]
        argv += ["--out-dir", str(self.op_dir)]
        captured = io.StringIO()
        problems = []
        scope = tracer.op(op_id) if tracer else contextlib.nullcontext()
        start = time.perf_counter()
        try:
            with scope, contextlib.redirect_stdout(captured), \
                    contextlib.redirect_stderr(captured):
                code = self.main(argv)
        except (Exception, SystemExit):
            code = None
            problems.append(traceback.format_exc(limit=3))
        latency = time.perf_counter() - start
        adjusted = self.host.adjust(latency)

        self.attempted += 1
        size = 0
        if code != 0:
            problems.append(f"exit code {code}: {captured.getvalue()[-400:]}")
        else:
            try:
                problems += op.check(self.op_dir)
            except (OSError, KeyError, IndexError, TypeError, ValueError) as exc:
                problems.append(f"unreadable artifacts: {exc!r}")
            sha, size = digest(self.op_dir)
            first = self.digests.setdefault(op.key(), sha)
            if first != sha:
                problems.append("artifacts differ from an earlier op with identical inputs")
        if problems:
            self.failures.append(f"op {op_id} {op.kind} {' '.join(op.argv)}: "
                                 + "; ".join(problems))
        return Outcome(latency, adjusted, size, not problems)


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Highest percentile with TAIL_BEYOND ops beyond it: (percentile, value, beyond).

    With TAIL_BEYOND ops or fewer there is no such percentile; the
    slowest op stands in and ``beyond`` is 0.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    rank = n - TAIL_BEYOND if n > TAIL_BEYOND else n
    return 100.0 * rank / n, ordered[rank - 1], n - rank


def run_plain(args, client, stream, first_cycle, work):
    """--trace 0: set-up probes, then the planned op cycles."""
    setup, references = measure_setup(first_cycle[0].overlay, work)
    planned = planned_cycles(args.workload, args.seconds)
    outcomes, points, cycles_run = [], 0, 0
    start = time.perf_counter()
    cycle = first_cycle
    while cycles_run < planned and time.perf_counter() - start < WALL_CAP * args.seconds:
        for op in cycle:
            outcome = client.run(op, len(outcomes))
            outcomes.append(outcome)
            points += op.points if outcome.ok else 0
        cycles_run += 1
        cycle = next(stream)
    latencies = [o.adjusted for o in outcomes]
    raw = [o.latency for o in outcomes]
    pct, tail_s, beyond = tail(latencies)
    setup_adjusted = [2.0 * REF_START_S * t / (before + after)
                      for t, before, after in zip(setup, references, references[1:])]
    metrics = {
        "setup_s": (statistics.median(setup_adjusted), "s"),
        "op_p50_s": (statistics.median(latencies), "s"),
        "op_tail_s": (tail_s, "s"),
        "points_per_s": (points / sum(latencies), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    detail = {
        "cycles_planned": planned,
        "cycles_run": cycles_run,
        "ops_timed": len(outcomes),
        "op_tail_percentile": pct,
        "op_tail_ops_beyond": beyond,
        "unadjusted": {
            "setup_s": statistics.median(setup),
            "op_p50_s": statistics.median(raw),
            "op_tail_s": tail(raw)[1],
            "points_per_s": points / sum(raw),
        },
        "setup_probes_s": setup,
        "start_reference_s": references,
        "latencies_s": raw,
        "latencies_adjusted_s": latencies,
    }
    return metrics, detail


def run_traced(args, client, stream, first_cycle):
    """--trace 1: a fixed op list, plain then traced; per-layer metrics."""
    ops = list(first_cycle)
    for _ in range(planned_cycles(args.workload, args.seconds / 4) - 1):
        ops += next(stream)
    plain = [client.run(op, i) for i, op in enumerate(ops)]
    tracer = Tracer()
    tracer.install()
    try:
        traced = [client.run(op, i, tracer) for i, op in enumerate(ops)]
    finally:
        tracer.uninstall()
    tracer.write_spans(OUT / args.workload / "spans.jsonl.gz")
    metrics = tracer.layer_metrics(len(ops))
    metrics["cli.artifact_bytes"] = (sum(o.size for o in traced) / len(ops), "B/op")
    metrics["trace_overhead"] = (
        sum(o.adjusted for o in traced) / sum(o.adjusted for o in plain), "ratio")
    detail = {"ops_per_phase": len(ops), "spans": len(tracer.spans),
              "plain_latencies_s": [o.latency for o in plain],
              "traced_latencies_s": [o.latency for o in traced]}
    return metrics, detail


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "fieldtomo" / "cli.py").is_file():
        print(f"bench: no program source at {SRC}/fieldtomo; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import fieldtomo.cli

    if not Path(fieldtomo.cli.__file__).resolve().is_relative_to(SRC):
        print(f"bench: imported fieldtomo from {fieldtomo.cli.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    work = OUT / args.workload
    work.mkdir(parents=True, exist_ok=True)
    host = HostSpeed()
    client = Client(fieldtomo.cli.main, work, host)
    stream = cycles(args.workload, args.seed)
    first_cycle = next(stream)
    # Warm-up, untimed: also the reference digests for the first two ops,
    # which the timed part repeats with identical inputs.
    for op_id, op in enumerate(first_cycle[:2]):
        client.run(op, -1 - op_id)

    if args.trace:
        metrics, detail = run_traced(args, client, stream, first_cycle)
    else:
        metrics, detail = run_plain(args, client, stream, first_cycle, work)

    failed = len(client.failures)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(),
        "attempted": client.attempted, "failed": failed,
        "error_rate": failed / client.attempted,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "detail": detail, "host_kernel_s": host.samples, "failures": client.failures,
    }
    (work / f"seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    for failure in client.failures:
        print(f"bench: FAILED {failure}", file=sys.stderr)
    print("environment " + json.dumps(record["environment"], sort_keys=True))
    print(f"error_rate {record['error_rate']} ({failed} of {client.attempted} ops)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": client.attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
