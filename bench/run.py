#!/usr/bin/env python3
"""One command for the sympinv benchmark.

    python3 bench/run.py --workload {battery,deep,clouds,exact} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from ``src/``.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it holds the
provenance, the wall-clock figures and the workload's own metric names.

``--trace 0`` measures the end-to-end metrics.  One caller runs the workload
as a closed loop of whole rounds (see ``workloads.py``) until ``--seconds``
have passed and at least one cycle of rounds has run, and every output is
checked.  ``attempted`` and ``failed`` count distinct operations, one per
input (``Op.key``): a repeated input is checked too, and fails its operation
if its output differs from the first.  So a seed's counts do not depend on
how many rounds the machine's speed allows.  ``setup_s`` is the median over
several fresh interpreters of the time from start until the workload is ready.

The gated times are CPU seconds (of the one benchmark thread for a request,
of the whole process for set-up) scaled to the reference machine speed of
``gauge.py``.  The program is single-threaded and never waits (BLAS and
OpenMP pools are pinned to one thread before numpy is imported), so on an
idle machine its CPU time is its wall time; on a shared one CPU time leaves
out the time the process waits for a CPU, and the gauge the changes of the
machine's speed.  The wall-clock figures are printed next to them.

``--trace 1`` reports the per-layer metrics.  A fresh interpreter runs a fixed
number of rounds (``TRACE_ROUNDS``, so that the counters repeat exactly) and
runs every request three times: plain, with the spans of ``tracer.py`` and
with its counters.  The three outputs must be identical, and the layers' self
times, less the spans' calibrated cost, must add up to the plain time of the
same requests within ``COVERAGE_TOL``.  Its times are wall-clock seconds.
``--seconds`` does not apply.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_work"

SETUP_REPEATS = 3
# Rounds of the traced run.  Battery, deep and exact rounds run some request
# kinds once, so they take an even number of rounds, and each kind runs plain
# first as often as traced first; a clouds round repeats each kind.
TRACE_ROUNDS = {"battery": 30, "deep": 8, "clouds": 1, "exact": 2}
COVERAGE_TOL = 0.10
CHILD_TIMEOUT_S = 150


def load_program():
    """Import sympinv from this checkout's src/ and the workload module."""
    if not (SRC / "sympinv" / "__init__.py").is_file():
        raise SystemExit(f"error: no sympinv sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import workloads

    where = Path(workloads.sympinv.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise SystemExit(f"error: imported sympinv from {where}, not from {SRC}")
    return workloads


def tally(ops):
    """(attempted, failed keys): distinct operations, and those whose check
    failed or whose output changed between two runs of the same input."""
    first, failed = {}, set()
    for op in ops:
        seen = first.setdefault(op.key, op)
        if op.failed or (op.failed, op.output) != (seen.failed, seen.output):
            failed.add(op.key)
    return len(first), failed


def digest(ops):
    h = hashlib.sha256()
    for op in ops:
        h.update(repr((op.failed, op.output)).encode())
    return h.hexdigest()


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# --- child roles --------------------------------------------------------------------

def role_setup(args):
    """Fresh interpreter: import and set up, report the scaled CPU time so far, exit."""
    import gauge

    with gauge.Gauge() as g:
        t0 = time.perf_counter()
        WORKDIR.mkdir(exist_ok=True)
        workloads = load_program()
        w = workloads.build(args.workload, args.seed, str(WORKDIR))
        t1 = time.perf_counter()
    print("ready", g.scaled(time.process_time(), t0, t1), flush=True)
    w.close()
    return 0


def role_pass(args):
    """Fresh interpreter: the traced run's fixed rounds, each request three times.

    Every request (the set-up included) runs plain, with spans and with the
    counters, in turn; which of the first two runs first alternates from
    round to round and from request to request.  The outputs of the three
    must be identical.  The layers' self times, which leave out the wrappers'
    cost as calibrated just before each request, are checked against the
    plain time of the same requests (``coverage``).
    """
    import tracer

    WORKDIR.mkdir(exist_ok=True)
    t0 = time.perf_counter()
    workloads = load_program()
    import_s = time.perf_counter() - t0
    tr = tracer.Tracer()
    spans, counters = tracer.install(tr)
    costs = []
    seconds = {"plain": 0.0, "spans": 0.0}
    mismatched = []

    def three_ways(plain_first, request):
        """{mode: result} of request() plain, with spans and with the counters."""
        # Calibrated before both timed executions, so that either runs
        # right after the calibration as often as the other.
        tr.cost[:] = tracer.calibrate()
        costs.append(tr.cost[0] + tr.cost[1])
        results = {}
        for mode in (("plain", "spans") if plain_first else ("spans", "plain")) + ("counters",):
            bindings = {"plain": None, "spans": spans, "counters": counters}[mode]
            if bindings is not None:
                bindings.switch(True)
            t0 = time.perf_counter()
            try:
                results[mode] = tr.run_root(request) if mode == "spans" else request()
            finally:
                t1 = time.perf_counter()
                if bindings is not None:
                    bindings.switch(False)
            if mode in seconds:
                seconds[mode] += t1 - t0
        return results

    built = three_ways(True, lambda: workloads.build(args.workload, args.seed, str(WORKDIR)))
    w = built.pop("plain")
    for other in built.values():
        other.close()
    ops = []
    requests = [((r + j) % 2 == 1, q) for r in range(args.rounds)
                for j, q in enumerate(w.requests(r))]
    for plain_first, request in requests:
        results = three_ways(plain_first, request)
        ops.append(results["plain"])
        if len({repr((op.failed, op.output)) for op in results.values()}) != 1:
            mismatched.append(str(results["plain"].output[0]))
    attempted, failed = tally(ops)
    result = {
        "layers": tracer.layer_metrics(tr),
        "wall_s": seconds["plain"],
        "traced_wall_s": seconds["spans"],
        "coverage": tr.self_total() / seconds["plain"],
        "overhead_frac": seconds["spans"] / seconds["plain"] - 1.0,
        "span_cost_us": [q * 1e6 for q in statistics.quantiles(costs, n=4)],
        "import_s": import_s,
        "mismatched": mismatched,
        "attempted": attempted,
        "failed": len(failed),
        "digest": digest(ops),
    }
    if args.workload == "clouds":
        import reference

        result["reference_errors"] = reference.check(str(WORKDIR))
    w.close()
    print(json.dumps(result), flush=True)
    return 0


def child(role, args, extra=()):
    """Start this script in another role; returns (Popen, start time)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--role", role,
           "--workload", args.workload, "--seed", str(args.seed), *extra]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=str(ROOT))
    return proc, t0


def finish(proc, what):
    """Wait for a child and return the rest of its standard output."""
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit(f"error: {what} timed out")
    if proc.returncode != 0:
        raise SystemExit(f"error: {what} exited with {proc.returncode}")
    return out


def measure_setup(args):
    """Median scaled CPU seconds from interpreter start to a ready workload, and wall times."""
    cpu, wall = [], []
    for _ in range(SETUP_REPEATS):
        proc, t0 = child("setup", args)
        line = proc.stdout.readline().split()
        wall.append(time.perf_counter() - t0)
        finish(proc, "setup run")
        if not line or line[0] != "ready":
            raise SystemExit("error: setup run did not become ready")
        cpu.append(float(line[1]))
    return statistics.median(cpu), wall


# --- provenance ---------------------------------------------------------------------

def provenance():
    import numpy
    import scipy

    import gauge

    sympinv = load_program().sympinv

    return {
        "commit": _commit(),
        "src_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "backend": sympinv.backend_name(),
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "gauge_ref_probe_s": gauge.REF_PROBE_S,
    }


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _commit():
    if shutil.which("git") is None or not (ROOT / ".git").exists():
        return None
    out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=str(ROOT),
                         capture_output=True, text=True)
    return out.stdout.strip() or None


def _source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "sympinv").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


# --- the two measured modes ---------------------------------------------------------

def run_end_to_end(args):
    import gauge

    setup_s, setup_wall = measure_setup(args)
    WORKDIR.mkdir(exist_ok=True)
    workloads = load_program()
    w = workloads.build(args.workload, args.seed, str(WORKDIR))
    ops, timings = [], []
    rounds = 0
    with gauge.Gauge() as g:
        start = time.perf_counter()
        while rounds < w.cycle or time.perf_counter() - start < args.seconds:
            for request in w.requests(rounds):
                c0, t0 = time.thread_time(), time.perf_counter()
                ops.append(request())
                timings.append((time.thread_time() - c0, t0, time.perf_counter()))
            rounds += 1
    w.close()
    reference_errors = []
    if args.workload == "clouds":
        import reference

        reference_errors = reference.check(str(WORKDIR))

    scaled = [g.scaled(c, t0, t1) for c, t0, t1 in timings]
    wall = [t1 - t0 for c, t0, t1 in timings]
    # A failed operation's work does not count: a change that makes requests
    # fail early must not read as a faster program.
    items = sum(op.items for op in ops if not op.failed)
    attempted, failed = tally(ops)
    metrics = {
        "setup_s": (setup_s, "s"),
        "items_per_s": (items / sum(scaled), "1/s"),
        "request_ms_p90": (percentile(scaled, 90) * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    detail = {
        "workload": args.workload, "seed": args.seed, "rounds": rounds,
        "requests": len(ops), "items": items, "attempted": attempted,
        "failed": len(failed), "failed_requests": sorted(str(key) for key in failed),
        "reference_errors": reference_errors,
        "named": named_metrics(args.workload, ops, scaled, metrics,
                               len(failed) / attempted, attempted),
        "wall": {
            "run_s": time.perf_counter() - start,
            "cpu_share": sum(c for c, t0, t1 in timings) / sum(wall),
            "speed_factor": g.factor(start, start + args.seconds),
            "items_per_s": items / sum(wall),
            "request_ms_p50": statistics.median(wall) * 1e3,
            "request_ms_p90": percentile(wall, 90) * 1e3,
            "setup_s": statistics.median(setup_wall),
            "setup_runs_s": setup_wall,
        },
        "provenance": provenance(),
    }
    print(json.dumps({"detail": detail}))
    return not reference_errors, attempted, len(failed), metrics


def named_metrics(workload, ops, scaled, metrics, fail_frac, attempted):
    """The figures under the workload's own names: [value, unit, samples].

    The median request is reported but not gated: in the battery and deep
    mixes it falls between targets of very different cost, so it moves with
    the seed.
    """
    out = {"setup_s": [metrics["setup_s"][0], "s", SETUP_REPEATS],
           "peak_rss_mb": [metrics["peak_rss_mb"][0], "MB", 1],
           "fail_frac": [fail_frac, "fraction", attempted]}
    rate = metrics["items_per_s"][0]
    if workload in ("battery", "deep"):
        out["pairs_per_s"] = [rate, "1/s", len(ops)]
        out["pair_ms_p50"] = [statistics.median(scaled) * 1e3, "ms", len(ops)]
        out["pair_ms_p90"] = [metrics["request_ms_p90"][0], "ms", len(ops)]
        # reported, not gated: only battery has ten or more pairs beyond p99
        out["pair_ms_p99"] = [percentile(scaled, 99) * 1e3, "ms", len(ops)]
    elif workload == "clouds":
        verdicts = [s for s, op in zip(scaled, ops) if op.kind in ("image", "cubic")]
        out["samples_per_s"] = [rate, "1/s", sum(op.items for op in ops if not op.failed)]
        out["verdict_s"] = [statistics.median(verdicts), "s", len(verdicts)]
    else:
        out["certs_per_s"] = [rate, "1/s", len(ops)]
    return out


def run_traced(args):
    rounds = TRACE_ROUNDS[args.workload]
    traced = json.loads(finish(child("pass", args, ["--rounds", str(rounds)])[0],
                               "traced pass").splitlines()[-1])
    covered = abs(traced["coverage"] - 1.0) <= COVERAGE_TOL
    metrics = {name: (value, unit_of(name)) for name, value in traced["layers"].items()}
    metrics["import.s"] = (traced["import_s"], "s")
    metrics["trace.overhead_frac"] = (traced["overhead_frac"], "fraction")
    metrics["trace.coverage"] = (traced["coverage"], "fraction")
    wall = traced["wall_s"]
    detail = {
        "workload": args.workload, "seed": args.seed, "rounds": rounds,
        "untraced_wall_s": wall, "traced_wall_s": traced["traced_wall_s"],
        "outputs_identical": not traced["mismatched"], "mismatched": traced["mismatched"],
        "coverage_ok": covered, "span_cost_us_quartiles": traced["span_cost_us"],
        "reference_errors": traced.get("reference_errors", []),
        "self_share": {name[:-2]: value / wall for name, value in traced["layers"].items()
                       if name.endswith(".s") and value},
        "provenance": provenance(),
    }
    print(json.dumps({"detail": detail}))
    ok = not traced["mismatched"] and covered and not detail["reference_errors"]
    return ok, traced["attempted"], traced["failed"], metrics


def unit_of(name):
    if name.endswith(".s"):
        return "s"
    if name == "kernels.madds":
        return "madd"
    return "count"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]],
                        required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("setup", "pass"), default=None,
                        help=argparse.SUPPRESS)
    parser.add_argument("--rounds", type=int, default=1, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.role == "setup":
            return role_setup(args)
        if args.role == "pass":
            return role_pass(args)
        run = run_traced if args.trace else run_end_to_end
        correct, attempted, failed, metrics = run(args)
    finally:
        try:
            WORKDIR.rmdir()
        except OSError:
            pass
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
