"""z2z8 benchmark: one workload, one seed, measured from outside the library.

    python3 perfbench/run.py --workload count-large --seed 1 --seconds 30 --trace 0

Run from a checkout of the repository; the library is imported from its
``src/``.  The run repeats passes over the workload's fixed job list until
``--seconds`` have passed (at least one pass), checks every job's output
right after its pass (outside the pass's timing), and prints the metrics,
one per line with its unit, then a JSON summary as the last line.

Timing.  On a shared machine the same job can run up to 2x slower for
seconds to minutes at a time, in CPU time as much as in wall time, and the
slowdown comes and goes in bursts of milliseconds, so a job of 100 ms or
more almost never runs at full speed in such a phase.  The end-to-end
timings are therefore scaled to a quiet machine.  Right before each job and
each set-up, a fixed millisecond of pure-Python work that does not touch
z2z8 (big-integer products, a dict keyed by tuples, a set) is timed PROBES
times, and the job's time is multiplied by PROBE_QUIET_S over the median of
those probes.  The scaled times read as seconds on a machine where that
probe takes PROBE_QUIET_S: the reference machine when it is quiet.  Each
job's value is the lower quartile of its scaled times over the passes of
the run.  ``wall_s`` is the sum of these values over the job list,
``job_ms_p50`` / ``job_ms_p90`` are percentiles of them, and ``setup_s`` is
the median of the run's scaled set-ups, one before each pass and at least
SETUPS in all: a cold ``import z2z8.cli`` in a child interpreter, seeded
input generation and a warm-up.  The process, and with it every child, is
pinned to one CPU, so that the probe reads the CPU the job then runs on.

``--trace 0`` gives the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes, and reports per-layer metrics from the spans of
the traced passes, plus the tracing overhead (traced over untraced pass
time).  On cli-small it also times ``cli.main`` in-process and untraced.
Spans are written to ``.perfbench/`` in the checkout.

Correctness.  A job fails when it raises, exits non-zero, or its output
fails its check; ``failed`` counts every failure.  ``correct`` is false
when an output is wrong, or when a job fails in any other way than the
known defect it is marked with (cli-small's counts above the int/str digit
limit).  Failed jobs rank as the slowest in the latency percentiles.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUPS = 9
PROBES = 3  # probe runs before each timed job or set-up
# the median of PROBES probes on the reference machine when it is quiet
PROBE_QUIET_S = 0.75e-3
CLI_REPS = 2  # in-process cli.main runs per command line, best taken
MIN_TAIL_SAMPLES = 10  # a percentile with fewer samples above it says so in its note


def percentile(latencies: list[float], q: float) -> float:
    """Nearest-rank percentile; failed jobs (inf) rank last and read as the
    slowest measured job."""
    ordered = sorted(latencies)
    value = ordered[max(0, math.ceil(q * len(ordered)) - 1)]
    if math.isinf(value):
        value = max((x for x in ordered if not math.isinf(x)), default=0.0)
    return value


def probe() -> int:
    """About a millisecond of fixed pure-Python work, untouched by z2z8: its
    time says how much the machine is slowing this process down just now."""
    x = 3 ** 3000
    s = 0
    for i in range(40):
        s ^= (x * (x + i)) & 0xFFFF
    d = {}
    for i in range(800):
        d[(i & 63, i >> 2)] = i
    return s + len({a * 31 + b for a, b in d})


def probe_reading() -> float:
    """The machine's slowness just now: the median time of PROBES probes."""
    times = []
    for _ in range(PROBES):
        t0 = time.perf_counter()
        probe()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def pin_to_one_cpu() -> None:
    """Keep this process, and so the probe and every child it starts, on one
    CPU: the probe then reads the slowness of the CPU the next job runs on."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def scaled(secs: float, reading: float) -> float:
    """A time measured right after `reading`, scaled to a quiet machine."""
    return secs * PROBE_QUIET_S / reading


def lower_quartile(values: list[float]) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[0]


def digest(output) -> bytes:
    h = hashlib.sha256()
    if isinstance(output, int) and not isinstance(output, bool):
        h.update(output.to_bytes((output.bit_length() + 8) // 8, "little", signed=True))
    elif hasattr(output, "stdout"):
        h.update(output.stdout.encode())
    else:
        h.update(repr(output).encode())
    return h.digest()


@dataclass
class Outcome:
    """One job of one pass, once checked; the output itself is not kept, so
    memory does not grow with the number of passes."""

    secs: float
    probe: float | None  # the probe reading right before the job
    digest: bytes | None  # None when the job failed to produce an output
    problem: str | None
    wrong: bool  # it produced an output, and the output is wrong
    spans: dict | None  # what a traced CLI child sent back


def run_pass(jobs, tracer=None, pass_no: int = 0, probes: bool = False) -> tuple[float, list]:
    """One timed pass: (wall seconds, [(job seconds, probe reading, output, error)]).

    With `probes`, the probe is read right before each job, outside the
    job's timing.  With a tracer, spans carry the job id "pass:job".
    """
    results = []
    t_pass = time.perf_counter()
    for i, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = f"{pass_no}:{i}"
        local = probe_reading() if probes else None
        t0 = time.perf_counter()
        try:
            output, error = job.call(), None
        except Exception as exc:  # a failed job is counted, not fatal
            output, error = exc, f"{type(exc).__name__}: {exc}"
        results.append((time.perf_counter() - t0, local, output, error))
    return time.perf_counter() - t_pass, results


def check_pass(jobs, results) -> list[Outcome]:
    """Check each output of a pass, outside its timing and with tracing off."""
    out = []
    for job, (secs, local, output, error) in zip(jobs, results):
        spans = getattr(output, "spans", None)
        if error is not None:
            out.append(Outcome(secs, local, None, error, False, spans))
        else:
            problem = job.check(output)
            out.append(Outcome(secs, local, digest(output), problem, problem is not None, spans))
    return out


def evaluate(jobs, passes) -> dict:
    """Count failures and give each job one time over the passes.

    When the passes carry probe readings, a job's time is the lower quartile
    of its scaled times; without, it is the job's best time.  Each job's
    output must also agree across passes.  A failure is expected only when
    the job is marked with a known failure and its error says so; a job that
    failed in any pass has no time (inf).
    """
    attempted = failed = wrong = unexpected = 0
    times: list[list[float]] = [[] for _ in jobs]
    failed_jobs = set()
    first_error = None
    reference = [o.digest for o in passes[0][1]]
    for _, outcomes in passes:
        for i, (job, ref, o) in enumerate(zip(jobs, reference, outcomes)):
            attempted += 1
            problem, is_wrong = o.problem, o.wrong
            if problem is None and o.digest != ref:
                problem, is_wrong = "output differs from the first pass", True
            wrong += is_wrong
            if problem is None:
                times[i].append(o.secs if o.probe is None else scaled(o.secs, o.probe))
                continue
            failed += 1
            failed_jobs.add(i)
            if is_wrong or not (job.known_failure and job.known_failure in problem):
                unexpected += 1
                first_error = first_error or f"{job.label}: {problem}"
    pick = min if passes[0][1][0].probe is None else lower_quartile
    per_job = [math.inf if i in failed_jobs else pick(t) for i, t in enumerate(times)]
    overall = hashlib.sha256(b"".join(r or b"-" for r in reference)).hexdigest()
    return {"attempted": attempted, "failed": failed, "wrong": wrong, "unexpected": unexpected,
            "per_job": per_job, "first_error": first_error, "digest": overall}


def pass_seconds(per_job: list[float]) -> float:
    """One pass with every job at its own time; failed jobs add nothing."""
    return sum(x for x in per_job if not math.isinf(x))


def peak_rss_mib(in_children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if in_children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024  # KiB on Linux


def child_seconds(w, cmd: list[str], times: int) -> list[float]:
    out = []
    for _ in range(times):
        t0 = time.perf_counter()
        w.run_child(cmd)
        out.append(time.perf_counter() - t0)
    return out


def set_up(w, workload, seed: int) -> tuple[float, list]:
    """One set-up: cold import in a child, seeded inputs, warm-up."""
    t0 = time.perf_counter()
    w.run_child([sys.executable, "-c", "import z2z8.cli"])
    jobs = workload.jobs(seed)
    workload.warm_up()
    return time.perf_counter() - t0, jobs


def end_to_end(args, w, workload) -> tuple[dict, dict]:
    for _ in range(5):  # warm the probe up
        probe()
    passes, setups, jobs = [], [], None
    began = time.perf_counter()
    took = 0.0  # by the last set-up and pass; the next should take as long
    while not passes or time.perf_counter() + took - began < args.seconds:
        t0 = time.perf_counter()
        local = probe_reading()
        secs, fresh = set_up(w, workload, args.seed)
        setups.append((secs, local))
        jobs = jobs or fresh  # the first list keeps the expected outputs it has computed
        wall, results = run_pass(jobs, probes=True)
        passes.append((wall, check_pass(jobs, results)))
        took = time.perf_counter() - t0
    while len(setups) < SETUPS:
        local = probe_reading()
        setups.append((set_up(w, workload, args.seed)[0], local))
    ev = evaluate(jobs, passes)
    ev["probe_s"] = statistics.median(o.probe for _, outcomes in passes for o in outcomes)
    per_job = ev["per_job"]
    n, k = len(per_job), len(passes)
    setup = statistics.median(scaled(secs, local) for secs, local in setups)
    how = f"n={n} jobs, each the lower quartile of {k} scaled passes"
    metrics = {
        "setup_s": (setup, "s", f"median of {len(setups)} scaled set-ups"),
        "wall_s": (pass_seconds(per_job), "s", f"sum over {how}"),
        "job_ms_p50": (percentile(per_job, 0.50) * 1e3, "ms", how),
        "job_ms_p90": (percentile(per_job, 0.90) * 1e3, "ms", how),
        "peak_rss_mib": (peak_rss_mib(workload.in_children), "MiB",
                         "largest child" if workload.in_children else "this process"),
    }
    for q, name in ((0.5, "job_ms_p50"), (0.9, "job_ms_p90")):
        if n - math.ceil(q * n) < MIN_TAIL_SAMPLES:
            metrics[name] = (*metrics[name][:2], metrics[name][2] + f", fewer than {MIN_TAIL_SAMPLES} samples above")
    return metrics, ev


LAYER_SELF_MS = {
    "qnum.q_binomial.ms": "qnum.q_binomial",
    "qnum.q_multinomial.ms": "qnum.q_multinomial",
    "counting.count.ms": "counting.count",
    "counting.count_closed_form.ms": "counting.count_closed_form",
    "counting.count_product.ms": "counting.count_product",
    "counting.check_identities.ms": "counting.check_identities",
    "census.enumerate_subgroups.ms": "census.enumerate_subgroups",
    "census.formula_census.ms": "census.formula_census",
    "census.verify_formula.ms": "census.verify_formula",
    "codes.assemble.ms": "codes.assemble",
    "codes.span.ms": "codes.span",
    "codes.classify_type.ms": "codes.classify_type",
    "codes.parity_check.ms": "codes.parity_check",
    "codes.dual_bruteforce.ms": "codes.dual_bruteforce",
}
LAYER_COUNTS = {
    "qnum.calls": ("qnum.calls", "count"),
    "qnum.result_bits": ("qnum.result_bits", "bits"),
    "counting.count.calls": ("counting.count.calls", "count"),
    "counting.result_bits": ("counting.result_bits", "bits"),
    "census.subgroups": ("census.subgroups", "count"),
    "codes.span.words": ("codes.span.words", "count"),
    "codes.classify_type.calls": ("codes.classify_type.calls", "count"),
    "codes.dual_bruteforce.words_scanned": ("codes.dual_bruteforce.words_scanned", "count"),
}


def cli_layer(w, seed: int) -> dict:
    """`cli.main` run in-process and untraced on every cli-small command line,
    best of CLI_REPS each: its whole time, and its time outside the library
    calls it makes (timed at that boundary only), summed over the list."""
    from spans import LibraryBoundary

    main_s = self_s = 0.0
    for argv, _ in w.cli_small_inputs(seed):
        runs = []
        for _ in range(CLI_REPS):
            boundary = LibraryBoundary()
            boundary.install(w.cli)
            t0 = time.perf_counter()
            try:
                w.in_process(argv)
            except Exception:  # the known defect raises here; the passes judge it
                pass
            finally:
                secs = time.perf_counter() - t0
                boundary.uninstall()
            runs.append((secs, secs - boundary.seconds))
        secs, own = min(runs)
        main_s += secs
        self_s += own
    return {
        "cli.main.ms": (main_s * 1e3, "ms", f"in-process, untraced, best of {CLI_REPS}, per pass"),
        "cli.self_ms": (self_s * 1e3, "ms", "cli.main.ms minus its library calls"),
    }


def per_layer(args, w, workload) -> tuple[dict, dict]:
    """Alternate untraced and traced passes, so both meet the same machine."""
    from spans import Tracer, layer_times, merge_layers

    jobs = set_up(w, workload, args.seed)[1]
    traced_jobs = workload.jobs(args.seed, traced=True)
    tracer = Tracer()
    plain, traced = [], []
    began = time.perf_counter()
    took = 0.0  # by the last pair of passes; the next should take as long
    while not traced or time.perf_counter() + took - began < args.seconds:
        t0 = time.perf_counter()
        wall, results = run_pass(jobs)
        plain.append((wall, check_pass(jobs, results)))
        tracer.install()
        try:
            wall, results = run_pass(traced_jobs, tracer, len(traced))
        finally:
            tracer.uninstall()
        traced.append((wall, check_pass(traced_jobs, results)))
        took = time.perf_counter() - t0
    ev = evaluate(traced_jobs, traced)
    ev_plain = evaluate(jobs, plain)
    for key in ("attempted", "failed", "wrong", "unexpected"):
        ev[key] += ev_plain[key]
    ev["first_error"] = ev["first_error"] or ev_plain["first_error"]

    # in-process spans, plus what traced CLI children sent back
    layers = layer_times(tracer.spans)
    counters = dict(tracer.counters)
    n_spans = len(tracer.spans)
    for _, outcomes in traced:
        for o in outcomes:
            doc = o.spans
            if doc:
                merge_layers(layers, doc["layers"])
                for name, value in doc["counters"].items():
                    counters[name] += value
                n_spans += doc["spans"]

    k = len(traced)
    incl = {name: v[0] for name, v in layers.items()}
    metrics = {name: (layers.get(fn, [0.0, 0.0])[1] * 1e3 / k, "ms", "self time per pass")
               for name, fn in LAYER_SELF_MS.items()}
    # cli.main is not called in-process on the other workloads
    metrics.update(cli_layer(w, args.seed) if args.workload == "cli-small" else {
        "cli.main.ms": (0.0, "ms", "not called"), "cli.self_ms": (0.0, "ms", "not called")})
    for name, (counter, unit) in LAYER_COUNTS.items():
        metrics[name] = (counters[counter] / k, unit, "per pass")
    count_s = incl.get("counting.count", 0.0)
    metrics["counting.cross_check_share"] = (
        incl.get("counting.count_product", 0.0) / count_s if count_s else 0.0,
        "ratio", "count_product time / count time")
    enum_s = incl.get("census.enumerate_subgroups", 0.0)
    metrics["census.subgroups_per_s"] = (
        counters["census.subgroups"] / enum_s if enum_s else 0.0, "1/s", "")
    scanned = counters["codes.dual_bruteforce.words_scanned"]
    metrics["codes.dual_bruteforce.hit_ratio"] = (
        counters["codes.dual_bruteforce.dual_words"] / scanned if scanned else 0.0,
        "ratio", "dual words / words scanned")

    interp = statistics.median(child_seconds(w, [sys.executable, "-c", "pass"], 5))
    imported = statistics.median(child_seconds(w, [sys.executable, "-c", "import z2z8.cli"], 5))
    metrics["cli.interp_ms"] = (interp * 1e3, "ms", "python -c pass, median of 5")
    metrics["cli.import_ms"] = ((imported - interp) * 1e3, "ms", "import z2z8.cli minus the floor")
    plain_wall, traced_wall = pass_seconds(ev_plain["per_job"]), pass_seconds(ev["per_job"])
    metrics["trace.overhead_ratio"] = (
        traced_wall / plain_wall, "ratio",
        f"traced {traced_wall:.4f} s / untraced {plain_wall:.4f} s, per-job bests of {k} passes")
    metrics["trace.spans"] = (n_spans / k, "count", "per pass")

    w.TRACE_DIR.mkdir(exist_ok=True)
    with open(w.TRACE_DIR / f"trace-{args.workload}-seed{args.seed}.json", "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "passes": k,
                   "layers": layers, "counters": counters, "spans": tracer.spans}, fh)
    return metrics, ev


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "z2z8" / "__init__.py").is_file():
        print(f"error: no z2z8 sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads as w

    if args.workload not in w.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {', '.join(w.WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = w.WORKLOADS[args.workload]
    pin_to_one_cpu()
    if args.trace:
        metrics, ev = per_layer(args, w, workload)
    else:
        metrics, ev = end_to_end(args, w, workload)

    for name, (value, unit, note) in metrics.items():
        print(f"{name:40s} {value:14.6g} {unit:6s} {note}")
    print(f"{'fail_frac':40s} {ev['failed'] / ev['attempted']:14.6g} {'ratio':6s} "
          f"{ev['failed']}/{ev['attempted']} jobs")
    print(f"{'failed other than a known defect':40s} {ev['unexpected']:14d} count")
    if args.workload == "cli-small":
        print(f"{'jobs above 4300 digits':40s} {w.too_long_share(args.seed):14.6g} ratio")
    if "probe_s" in ev:
        print(f"probe: median reading {ev['probe_s'] * 1e3:.4f} ms, "
              f"quiet {PROBE_QUIET_S * 1e3:.4f} ms")
    print(f"results digest {ev['digest'][:16]}")
    if ev["first_error"]:
        print(f"first failure: {ev['first_error']}")
    summary = {
        "correct": ev["wrong"] == 0 and ev["unexpected"] == 0,
        "attempted": ev["attempted"],
        "failed": ev["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
