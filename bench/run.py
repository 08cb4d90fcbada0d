"""lie3geo benchmark: closed-loop verdicts on seeded workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S

One caller in one process and one thread sends each op and waits for its
verdict before sending the next.  Inputs are generated from ``--seed``; the
workloads, their ops and their reference oracles are in ``workloads.py``
and the reasons for them are in ``README.md``.  A run:

1. builds the inputs (admitting-cli saves them as ``--input`` documents);
2. warms up untimed on the first inputs, which fills the lattice cache, and
   checks that the oracle flags injected wrong verdicts;
3. runs ops on the inputs in order, cycling, until ``--seconds`` have
   passed and at least one whole pass is done, checking every verdict
   between chunks of ops, outside the timed region;
   spread over those seconds, it times ``--setup-runs`` cold starts in
   fresh interpreters (``probe.py``) and reports their median as
   ``setup_s``;
4. with ``--trace 1``, instead alternates untraced and traced passes over
   the first inputs and reports per-layer metrics from the traced ones
   (``tracing.py``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before it
is the run record.  ``--workload all`` runs each workload in its own fresh
process.  BLAS threads are pinned to 1 for this process and its children.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"

WORKLOADS = ("nonadmitting", "admitting-cli", "classify")

# End-to-end metrics: (name, unit).  error_rate is printed in the summary and
# carried by "failed"/"attempted"; it is 0 on a correct program.
END_TO_END = (
    ("throughput_ops_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

# latency_tail_ms is a fixed percentile per workload; a run with fewer than
# this many samples beyond it warns that the tail is thin.
TAIL_BEYOND = 10

# The timed loop stores at most this many latencies per second of --seconds.
# The buffer is allocated and written before set-up, so peak RSS does not
# grow with the number of ops; a run that fills it stops early.
LATENCY_SLOTS_PER_S = 20000

WARMUP_OPS = 20

# Timed ops run in chunks of this many; verdicts are checked between chunks,
# outside the timed region.
CHUNK = 20

# Inputs per traced pass, the first ones generated (all of them when a
# workload has fewer): a multiple of the two, three and nine kinds of input
# that the workloads interleave.
TRACE_PASS = 180


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--inputs", type=int, default=None, help="inputs generated (default per workload)"
    )
    parser.add_argument(
        "--setup-runs", type=int, default=10, help="cold starts timed for setup_s"
    )
    return parser.parse_args(argv)


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def _import_library():
    """Import lie3geo from this checkout's src/, never from elsewhere."""
    if not (SRC / "lie3geo" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'lie3geo'} not found; run from a lie3geo checkout")
    sys.path.insert(0, str(SRC))
    import lie3geo
    import numpy

    if Path(lie3geo.__file__).resolve().parent != (SRC / "lie3geo").resolve():
        sys.exit(f"error: lie3geo imported from {lie3geo.__file__}, not from {SRC}")
    return lie3geo, numpy


def _commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _probe_setup(payload: str) -> float:
    """Seconds of one cold start in a fresh interpreter (``probe.py``)."""
    out = subprocess.run(
        [sys.executable, str(BENCH_DIR / "probe.py")],
        input=payload,
        cwd=ROOT,
        env=_child_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )
    if out.returncode != 0:
        sys.exit(f"error: setup probe failed:\n{out.stderr}")
    return float(out.stdout.strip().splitlines()[-1])


def _run_pass(wl, items, latencies, tracer=None):
    """One closed-loop pass over ``items``; returns (seconds, verdicts).

    The latency of ``items[k]`` is written to ``latencies[k]``.
    """
    verdicts = []
    clock = time.perf_counter
    start = clock()
    for k, item in enumerate(items):
        if tracer is not None:
            tracer.op += 1
        t0 = clock()
        verdicts.append(wl.call(item))
        latencies[k] = clock() - t0
    return clock() - start, verdicts


class _Checker:
    """Checks verdicts against the oracle and keeps the first failures."""

    def __init__(self, wl):
        self.wl = wl
        self.attempted = 0
        self.failed = 0
        self.examples: list[str] = []

    def check(self, items, verdicts) -> None:
        for item, verdict in zip(items, verdicts):
            self.attempted += 1
            problem = self.wl.check(item, verdict)
            if problem is not None:
                self.failed += 1
                if len(self.examples) < 10:
                    self.examples.append(f"{item.label}: {problem}")


def _self_check(wl, items, verdicts) -> list[str]:
    """Problems found when feeding the oracle known verdicts.

    Each injected wrong verdict must be flagged, or the oracle is vacuous.
    """
    wrong = wl.wrong_verdicts(items, verdicts)
    if not wrong:
        return ["no correct warm-up verdict to derive wrong ones from"]
    problems = []
    for item, verdict, label in wrong:
        if wl.check(item, verdict) is None:
            problems.append(f"oracle accepted an injected wrong verdict ({label})")
    return problems


def _timed(wl, checker, seconds, latencies, probe, probes):
    """Ops on the inputs in order, cycling, for ``seconds``; checked in chunks.

    ``latencies`` is the preallocated buffer; peak RSS is read as soon as
    the loop ends, before any statistic copies it.  The run makes at least
    one whole pass over the inputs.  ``latency_p50_ms`` is the median over
    the inputs of each input's mean latency in the whole passes (see
    README.md, Noise).  The ``probes`` cold starts are spread evenly over
    the run, between chunks and outside the measured ``seconds``, so that
    ``setup_s`` samples the same stretch of host time as the ops.
    """
    import numpy

    n = len(wl.items)
    busy = 0.0
    done = 0
    setup = []
    probing = 0.0
    start = time.perf_counter()
    while done < n or (
        time.perf_counter() - start - probing < seconds and done + CHUNK <= len(latencies)
    ):
        if len(setup) < probes and time.perf_counter() - start - probing >= (
            len(setup) * seconds / probes
        ):
            t0 = time.perf_counter()
            setup.append(probe())
            probing += time.perf_counter() - t0
        chunk = [wl.items[(done + k) % n] for k in range(CHUNK)]
        elapsed, verdicts = _run_pass(wl, chunk, latencies[done : done + CHUNK])
        checker.check(chunk, verdicts)
        busy += elapsed
        done += len(chunk)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if done + CHUNK > len(latencies):
        print(f"warning: latency buffer full, timed run stopped after {done} ops", file=sys.stderr)
    ms = 1e3 * latencies[:done]
    pct = wl.tail_percentile
    beyond = int(done * (100.0 - pct) / 100.0)
    if beyond < TAIL_BEYOND:
        print(
            f"warning: latency_tail_ms is p{pct:g} of {done} samples, "
            f"only {beyond} beyond it",
            file=sys.stderr,
        )
    passes = done // n
    per_input = ms[: passes * n].reshape(passes, n).mean(axis=0)
    metrics = {
        "throughput_ops_s": done / busy,
        "latency_p50_ms": float(numpy.median(per_input)),
        "latency_tail_ms": float(numpy.percentile(ms, pct)),
        "peak_rss_mb": peak_rss_mb,
    }
    while len(setup) < probes:  # a run too short to spread them
        setup.append(probe())
    metrics["setup_s"] = statistics.median(setup)
    info = {
        "timed_ops": done,
        "whole_passes": passes,
        "tail_percentile": pct,
        "tail_samples_beyond": beyond,
        "setup_runs_s": setup,
    }
    return metrics, info


def _traced(wl, checker, seconds, spans_path):
    """Untraced and traced passes over the first TRACE_PASS inputs, alternating.

    Whole passes keep the per-op counts exact for a seed.  The spans are
    written to ``spans_path`` at the end.
    """
    import numpy
    from tracing import Tracer

    items = wl.items[:TRACE_PASS]
    latencies = numpy.empty(len(items))
    tracer = Tracer()
    busy = {False: 0.0, True: 0.0}
    ops = {False: 0, True: 0}
    op_time = 0.0
    start = time.perf_counter()
    while ops[True] == 0 or time.perf_counter() - start < seconds:
        for on in (False, True):
            if on:
                with tracer.active():
                    elapsed, verdicts = _run_pass(wl, items, latencies, tracer)
                op_time += float(latencies.sum())
            else:
                elapsed, verdicts = _run_pass(wl, items, latencies)
            checker.check(items, verdicts)
            busy[on] += elapsed
            ops[on] += len(verdicts)
    metrics = tracer.layer_metrics(
        ops=ops[True],
        op_time=op_time,
        untraced_rate=ops[False] / busy[False],
        traced_rate=ops[True] / busy[True],
    )
    tracer.write_spans(spans_path)
    info = {
        "traced_passes": ops[True] // len(items),
        "traced_ops": ops[True],
        "spans": len(tracer.spans),
        "spans_file": os.path.relpath(spans_path, ROOT),
    }
    return metrics, info


def run_workload(args) -> int:
    lie3geo, numpy = _import_library()
    sys.path.insert(0, str(BENCH_DIR))
    import workloads

    size = args.inputs or workloads.DEFAULT_SIZE[args.workload]
    slots = max(int(args.seconds * LATENCY_SLOTS_PER_S), size + 2 * CHUNK)
    latencies = numpy.full(slots, numpy.nan)
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT)
    try:
        wl = workloads.build(args.workload, args.seed, size, workdir)
        record = {
            "workload": wl.name,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "commit": _commit(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "lie3geo": lie3geo.__version__,
            "nproc": os.cpu_count(),
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
            "inputs_per_pass": len(wl.items),
        }

        warm = wl.items[:WARMUP_OPS]
        _, warm_verdicts = _run_pass(wl, warm, latencies)
        checker = _Checker(wl)
        checker.check(warm, warm_verdicts)
        oracle_problems = _self_check(wl, warm, warm_verdicts)
        record["warmup_ops"] = len(warm)
        record["oracle_self_check"] = oracle_problems or "ok"

        if args.trace:
            spans_path = WORK_ROOT / f"spans-{wl.name}.jsonl"
            metrics, info = _traced(wl, checker, args.seconds, spans_path)
        else:
            payload = json.dumps(workloads.probe_payload(wl.name, wl.items[0]))
            values, info = _timed(
                wl, checker, args.seconds, latencies, lambda: _probe_setup(payload), args.setup_runs
            )
            metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        record.update(info)
        record["attempted"] = checker.attempted
        record["failed"] = checker.failed
        record["error_rate"] = checker.failed / checker.attempted
        record["failures"] = checker.examples
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass

    print(f"workload {wl.name}, seed {args.seed}, trace {args.trace}")
    for name, metric in metrics.items():
        print(f"  {name:40s} {metric['value']:.6g} {metric['unit']}")
    if not args.trace:
        print(
            f"  {'latency_tail_ms is':40s} p{record['tail_percentile']:g} "
            f"of {record['timed_ops']} samples, {record['tail_samples_beyond']} beyond it"
        )
    print(
        f"  {'error_rate':40s} {record['error_rate']:.6g} "
        f"({checker.failed} of {checker.attempted} ops)"
    )
    for line in checker.examples:
        print(f"  FAILED {line}")
    for line in oracle_problems:
        print(f"  ORACLE {line}")
    print("record: " + json.dumps(record))
    result = {
        "correct": checker.failed == 0 and not oracle_problems,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    return 0


def run_all(args) -> int:
    """Each workload in its own fresh process; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name]
        cmd += ["--seed", str(args.seed), "--seconds", str(args.seconds)]
        cmd += ["--trace", str(args.trace)]
        cmd += ["--setup-runs", str(args.setup_runs)]
        if args.inputs:
            cmd += ["--inputs", str(args.inputs)]
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stdout.write(out.stdout)
        sys.stderr.write(out.stderr)
        if out.returncode != 0:
            return out.returncode
        result = json.loads(out.stdout.strip().splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined), flush=True)
    return 0


def main(argv=None) -> int:
    args = _parse_args(argv)
    # A terminated run still removes its work directory.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
