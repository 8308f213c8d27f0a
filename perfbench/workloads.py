"""The four benchmark workloads: seeded job lists, warm-ups and output checks.

Each workload turns a seed into a fixed list of jobs.  A job's `call` does
the timed work through the public functions of `z2z8` and returns a small
output; its `check` says, after the timed passes, what is wrong with that
output (None when it is right).  The library only ever sees the generated
inputs, never the seed.

Every workload puts most of its time in one layer and little or none in
the others, so that an optimisation of one layer moves one workload and
leaves the rest unchanged:

* count-large   -- bigint arithmetic in `counting` and `qnum`;
* cli-small     -- cold `python -m z2z8` processes on small inputs;
* oracle-census -- the lattice walk in `census`, and `classify_type`;
* codes-dual    -- `span` and `dual_bruteforce` on a few large codes.

Job costs are stratified (a fixed number of jobs per cost class, the seed
choosing within each class) so that a pass costs nearly the same for every
seed and the latency percentiles fall inside a class, not between two.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import io
import itertools
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from z2z8 import cli, codes, counting, qnum
from z2z8.counting import TypeProfile

# the package re-exports the function `census` under the module's name
census = importlib.import_module("z2z8.census")

ROOT = Path(__file__).resolve().parent.parent
TRACE_DIR = ROOT / ".perfbench"
SPAN_MARKER = "PERFBENCH_SPANS "
CLI_TIMEOUT_S = 120
# CPython 3.11+ refuses int -> str above this many digits unless told otherwise
MAX_STR_DIGITS = getattr(sys.int_info, "default_max_str_digits", 4300)
# how the CLI fails today when it prints such an integer (a known defect)
DIGIT_LIMIT_ERROR = f"Exceeds the limit ({MAX_STR_DIGITS} digits) for integer string conversion"


@dataclass
class Job:
    label: str
    call: Callable[[], object]
    check: Callable[[object], str | None]
    # a known defect: the job may fail with an error containing this text
    # and still leave the run correct; any other failure makes it incorrect
    known_failure: str | None = None


class JobFailed(Exception):
    """A CLI job exited non-zero; carries the spans its traced child sent."""

    def __init__(self, message: str, spans=None):
        super().__init__(message)
        self.spans = spans


@dataclass
class CliResult:
    stdout: str
    spans: object = None


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(cmd: list[str]) -> subprocess.CompletedProcess:
    """One child process at a time; waits for it, kills it on timeout."""
    return subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                          text=True, timeout=CLI_TIMEOUT_S)


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}/{seed}")


# ---------------------------------------------------------------------------
# count-large: count() on large profiles, plus the eight built-in families
# ---------------------------------------------------------------------------

COUNT_PROFILES = 100
COUNT_JITTER = 3
ALPHA_RANGE = (40, 300)
# Bits of the product formula's numerator, k0(a+b) + k1(3b+a) + k2(2b+a) + k3*b:
# count() takes about 1.2e-12 * bits^2 seconds (within 30%), dominated by the
# big division in count_product.  Profiles are stratified on it.
MAX_NUMERATOR_BITS = 260_000
# family -> base r; the seed adds 0..7.  Chosen so each term costs 30-60 ms.
FAMILY_R = {"t1": 150, "t2": 400, "t3": 400, "t4": 170, "t5": 200, "t6": 400, "t7": 150, "t8": 3000}


def numerator_bits(alpha: int, beta: int, k0: int, k1: int, k2: int, k3: int) -> int:
    return k0 * (alpha + beta) + k1 * (3 * beta + alpha) + k2 * (2 * beta + alpha) + k3 * beta


def count_large_inputs(seed: int) -> list[tuple]:
    """100 profiles, one at the middle of each equal slice of
    [0, MAX_NUMERATOR_BITS].

    Each profile has a shape: alpha in ALPHA_RANGE, beta in [alpha, 2*alpha],
    and random shares for its non-zero k-slots, scaled to its numerator
    size.  Each of the 15 patterns of zero / non-zero k-slots (at least one
    non-zero) appears 6 or 7 times; zero slots skip whole factor loops of
    the product formula.  The shapes are drawn once, the same for every
    seed: at one numerator size, count() still costs up to 2x more for one
    shape than for another, which would make the median job move with the
    seed.  The seed moves alpha and beta by up to COUNT_JITTER each and the
    k-slots are solved again for the same size, so it changes every profile
    but hardly the cost of any job.
    """
    rng = _rng("count-large", seed)
    out = []
    for alpha, beta, shares, target in _count_shapes():
        moved = (alpha + rng.randint(-COUNT_JITTER, COUNT_JITTER),
                 beta + rng.randint(-COUNT_JITTER, COUNT_JITTER))
        if moved[0] <= moved[1] <= 2 * moved[0] and _fit(*moved, shares, target):
            alpha, beta = moved
        out.append(("count", (alpha, beta, *_fit(alpha, beta, shares, target))))
    for name in sorted(FAMILY_R):
        out.append(("family", (name, FAMILY_R[name] + rng.randrange(8))))
    return out


@functools.cache
def _count_shapes() -> list[tuple]:
    """(alpha, beta, shares, target bits) of every count-large profile; the
    same for every seed, so drawn once (a few thousand draws miss a target
    and are drawn again)."""
    shapes = _rng("count-large", "shapes")
    n = COUNT_PROFILES
    patterns = [p for p in itertools.product((False, True), repeat=4) if any(p)]
    pattern_of = shapes.sample([patterns[i % len(patterns)] for i in range(n)], n)
    out = []
    for i in range(n):
        target = MAX_NUMERATOR_BITS * (i + 0.5) / n
        nonzero = pattern_of[i]
        while True:
            alpha = shapes.randint(*ALPHA_RANGE)
            beta = shapes.randint(alpha, 2 * alpha)
            shares = [shapes.random() if nonzero[0] else 0.0]
            z8 = [shapes.random() if on else 0.0 for on in nonzero[1:]]
            total = sum(z8) or 1.0
            shares += [x / total for x in z8]
            if _fit(alpha, beta, shares, target):
                out.append((alpha, beta, shares, target))
                break
    return out


def _fit(alpha: int, beta: int, shares: list[float], target: float) -> tuple | None:
    """k-slots with these shares of alpha and beta whose numerator has about
    `target` bits, or None when even the full shares fall short."""
    full = [shares[0] * alpha] + [x * beta for x in shares[1:]]
    scale = target / numerator_bits(alpha, beta, *full)
    if scale > 1:
        return None
    return tuple(max(1, round(x * scale)) if x else 0 for x in full)


def _count_job(slots: tuple) -> Job:
    return Job(f"count{slots}", lambda: counting.count(TypeProfile(*slots)),
               lambda out: None if isinstance(out, int) and out > 0 else f"count {out!r}")


def _family_job(name: str, r: int) -> Job:
    exprs = cli.FAMILIES[name][0]

    def check(out) -> str | None:
        if not isinstance(out, int) or out <= 0:
            return f"term {out!r}"
        # t7 is the central 2-binomial [2r; r]_2: an independent check
        if name == "t7" and out != qnum.q_binomial(2 * r, r, 2):
            return "t7 term differs from the central 2-binomial"
        return None

    return Job(f"family {name} r={r}", lambda: cli.family_term(exprs, r), check)


def count_large_jobs(seed: int, traced: bool = False) -> list[Job]:
    jobs = []
    for kind, args in count_large_inputs(seed):
        jobs.append(_count_job(args) if kind == "count" else _family_job(*args))
    return jobs


def count_large_warm_up() -> None:
    counting.count(TypeProfile(60, 90, 20, 20, 20, 20))
    cli.family_term(cli.FAMILIES["t2"][0], 10)


# ---------------------------------------------------------------------------
# cli-small: sequential cold `python -m z2z8` processes
# ---------------------------------------------------------------------------

def _parse_decimal(text: str) -> int:
    """Decimal string to int in chunks below the int/str digit limit."""
    text = text.strip()
    value = 0
    for i in range(0, len(text), 4000):
        chunk = text[i:i + 4000]
        value = value * 10 ** len(chunk) + int(chunk)
    return value


def _too_long(value: int) -> bool:
    return value >= 10 ** MAX_STR_DIGITS


def _small_profile(rng: random.Random, max_alpha: int, max_beta: int) -> tuple[int, ...]:
    alpha = rng.randint(1, max_alpha)
    beta = rng.randint(1, max_beta)
    k0 = rng.randint(0, alpha)
    k1 = rng.randint(0, beta)
    k2 = rng.randint(0, beta - k1)
    k3 = rng.randint(0, beta - k1 - k2)
    return (alpha, beta, k0, k1, k2, k3)


def _profile_flags(p) -> list[str]:
    return [x for name, v in zip(("alpha", "beta", "k0", "k1", "k2", "k3"), p)
            for x in (f"--{name}", str(v))]


def cli_small_inputs(seed: int) -> list[tuple]:
    """21 command lines over all six subcommands: (argv, expectation).

    An expectation is ("cli",) -- the same argv through `cli.main` in this
    process -- or ("ints", values): stdout, as plain lines or a JSON list,
    must parse to exactly these integers.  The last three jobs print counts
    of more than 4300 digits (or just under); the first two of them hit the
    int/str limit in the CLI today and fail.

    The list is short so that a run repeats every job seven times or more
    (a pass takes about 3 s): a cold process's fastest time is steady only
    over several tries.  Nearly every job costs the same ~120 ms of start-up,
    import and argparse, so the median sits among them; the slowest job that
    succeeds, and so the 90th percentile (rank 19 of 21, above it only the
    two failing jobs), is one of two equal check-identities jobs.
    """
    rng = _rng("cli-small", seed)
    jobs: list[tuple] = []
    # README golden values
    jobs.append((["count", "--alpha", "2", "--beta", "2", "--k0", "1", "--k1", "1",
                  "--k2", "1", "--k3", "0"], ("ints", (36,))))
    jobs.append((["sequence", "t2", "--start", "1", "--end", "5"],
                 ("ints", (36, 84, 180, 372, 756))))
    for extra in ([], ["--breakdown"], ["--dual"], ["--format", "json"],
                  ["--breakdown", "--dual", "--format", "json"]):
        jobs.append((["count", *_profile_flags(_small_profile(rng, 8, 8)), *extra], ("cli",)))
    for name, fmt in zip(rng.sample(sorted(cli.FAMILIES), 3), ("plain", "json", "bfile")):
        start = cli.FAMILIES[name][1] + rng.randrange(6)
        end = start + rng.randint(2, 6)
        jobs.append((["sequence", name, "--start", str(start), "--end", str(end),
                      "--format", fmt], ("cli",)))
    exprs = f"r+{rng.randint(0, 3)},{rng.randint(2, 4)},r,{rng.randint(0, 1)},1,{rng.randint(0, 1)}"
    jobs.append((["sequence", "--exprs", exprs, "--start", "1",
                  "--end", str(rng.randint(4, 12))], ("cli",)))
    verify_pool = [(1, 1, 3), (2, 1, 3), (1, 1, 2), (2, 1, 2), (0, 2, 3), (1, 2, 2)]
    for i, (a, b, e) in enumerate(rng.sample(verify_pool, 2)):
        fmt = ["--format", "json"] if i % 2 else []
        jobs.append((["verify", "--alpha", str(a), "--beta", str(b), "--e", str(e), *fmt], ("cli",)))
    # many small counts in one process; two equal jobs, see above
    for _ in range(2):
        jobs.append((["check-identities", "--max-alpha", "5", "--max-beta", "5"], ("cli",)))
    for e in (3, 2):
        alpha, beta = rng.randint(1, 3), rng.randint(1, 3)
        k0 = rng.randint(0, alpha)
        k1 = rng.randint(0, beta)
        k2 = rng.randint(0, beta - k1)
        k3 = rng.randint(0, beta - k1 - k2) if e == 3 else 0
        argv = ["matrix", *_profile_flags((alpha, beta, k0, k1, k2, k3)), "--e", str(e),
                "--seed", str(rng.randrange(1000)), "--span"]
        argv += ["--parity"] if e == 3 else ["--format", "json"]
        jobs.append((argv, ("cli",)))
    a, b, e = rng.choice([(1, 1, 3), (2, 1, 3), (1, 2, 2), (2, 1, 2), (1, 1, 2)])
    jobs.append((["census-export", "--alpha", str(a), "--beta", str(b), "--e", str(e)], ("cli",)))
    big = TypeProfile(100, 200, 50, 50, 50, 50)
    jobs.append((["count", *_profile_flags((100, 200, 50, 50, 50, 50))],
                 ("ints", (counting.count(big),))))
    t1, t7 = cli.FAMILIES["t1"][0], cli.FAMILIES["t7"][0]
    jobs.append((["sequence", "t1", "--start", "100", "--end", "102", "--format", "json"],
                 ("ints", tuple(cli.family_term(t1, r) for r in range(100, 103)))))
    jobs.append((["sequence", "t7", "--start", "95", "--end", "100", "--format", "json"],
                 ("ints", tuple(cli.family_term(t7, r) for r in range(95, 101)))))
    return jobs


def _expects_too_long(expect: tuple) -> bool:
    return expect[0] == "ints" and any(map(_too_long, expect[1]))


def too_long_share(seed: int) -> float:
    """Share of cli-small jobs whose expected output has a > 4300-digit integer."""
    inputs = cli_small_inputs(seed)
    return sum(_expects_too_long(exp) for _, exp in inputs) / len(inputs)


def in_process(argv: list[str]) -> tuple[int, str]:
    """Exit code and stdout of `cli.main(argv)` run in this process."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _cli_check(argv: list[str], expect: tuple) -> Callable[[object], str | None]:
    expected: list[tuple[int, str]] = []  # computed on first use, once per job

    def check(out) -> str | None:
        text = out.stdout
        if expect[0] == "ints":
            try:
                doc = json.loads(text) if text.lstrip().startswith("[") else text.split()
                got = tuple(_parse_decimal(x) for x in doc)
            except ValueError as exc:
                return f"unparsable stdout: {exc}"
            return None if got == expect[1] else "integers differ from expected"
        if not expected:
            expected.append(in_process(argv))
        code, want = expected[0]
        if code != 0:
            return f"in-process exit {code}"
        return None if text == want else "stdout differs from in-process cli.main"

    return check


def _cli_call(prefix: list[str], argv: list[str]) -> Callable[[], CliResult]:
    def call() -> CliResult:
        proc = run_child([*prefix, *argv])
        spans = None
        for line in proc.stderr.splitlines():
            if line.startswith(SPAN_MARKER):
                spans = json.loads(line[len(SPAN_MARKER):])
        if proc.returncode != 0:
            tail = [ln for ln in proc.stderr.splitlines() if not ln.startswith(SPAN_MARKER)]
            raise JobFailed(f"exit {proc.returncode}: {tail[-1] if tail else ''}", spans)
        return CliResult(proc.stdout, spans)

    return call


CLI = [sys.executable, "-m", "z2z8"]


def cli_small_jobs(seed: int, traced: bool = False) -> list[Job]:
    jobs = []
    for i, (argv, expect) in enumerate(cli_small_inputs(seed)):
        prefix = CLI
        if traced:  # each child writes its spans to its own file
            spans_file = TRACE_DIR / f"cli-small-seed{seed}" / f"job{i:02d}.json"
            prefix = [sys.executable, str(Path(__file__).resolve().parent / "traced_cli.py"),
                      str(spans_file)]
        known = DIGIT_LIMIT_ERROR if _expects_too_long(expect) else None
        jobs.append(Job(" ".join(argv), _cli_call(prefix, argv), _cli_check(argv, expect), known))
    return jobs


def cli_small_warm_up() -> None:
    run_child([*CLI, "count", *_profile_flags((2, 2, 1, 1, 1, 0))])


# ---------------------------------------------------------------------------
# oracle-census: verify_formula over ambients from three cost tiers
# ---------------------------------------------------------------------------

# Every ambient of the pool is verified CENSUS_REPEATS times per pass; the
# seed sets the order.  Milliseconds per verify_formula on the reference
# machine: (3,1,3) 52, (5,0,3) 52, (2,2,2) 67, (1,2,3) 70, (4,1,2) 190,
# (1,3,2) 232, so a pass takes about 2 s and a run repeats each job a dozen
# times.  The median (rank 9 of 18) falls on the 67-70 ms pair and the 90th
# percentile (rank 17) inside the three (1,3,2) jobs.  Larger ambients
# ((2,2,3) 0.6 s, (0,3,3) 1.5 s, (2,3,2) 5 s) would leave each job too few
# repeats in a run for its time to be steady.
CENSUS_POOL = ((3, 1, 3), (5, 0, 3), (2, 2, 2), (1, 2, 3), (4, 1, 2), (1, 3, 2))
CENSUS_REPEATS = 3


def oracle_census_inputs(seed: int) -> list[tuple[int, int, int]]:
    """Every pool member CENSUS_REPEATS times, in an order the seed chooses:
    verify_formula is deterministic, so the cost of a pass does not depend
    on the seed."""
    rng = _rng("oracle-census", seed)
    out = [amb for amb in CENSUS_POOL for _ in range(CENSUS_REPEATS)]
    rng.shuffle(out)
    return out


def _verify_job(a: int, b: int, e: int) -> Job:
    def call():
        report = census.verify_formula(a, b, e)
        return (report.all_match, report.total_enumerated)

    return Job(f"verify({a},{b},e={e})", call,
               lambda out: None if out[0] else "enumeration and formula disagree")


def oracle_census_jobs(seed: int, traced: bool = False) -> list[Job]:
    return [_verify_job(*amb) for amb in oracle_census_inputs(seed)]


def oracle_census_warm_up() -> None:
    census.verify_formula(2, 1, 3)


# ---------------------------------------------------------------------------
# codes-dual: standard-form codes on ambients of 2^10 - 2^15 words
# ---------------------------------------------------------------------------

# ambient bits -> jobs per pass, 101 in all, for a pass of about 2.5 s on
# the reference machine (2^10 words: about 7 ms a job, 2^13: 50 ms, 2^15:
# 220 ms).  The median (rank 51) falls inside the 2^11 class (ranks 41-70)
# and the 90th percentile (rank 91, ten jobs above it) in the middle of the
# 2^13 class (ranks 85-97), clear of the costliest 2^12 jobs.  The three
# largest classes use one fixed type each, so that their costs, and with
# them the percentile and half of wall_s, vary little with the seed.
DUAL_STRATA = {10: 40, 11: 30, 12: 14, 13: 13, 14: 3, 15: 1}
# bits -> (alpha, beta, ks) at e = 3, with log2|C| within one of bits/2
FIXED_AMBIENTS = {13: (1, 4, (1, 1, 1, 1)), 14: (2, 4, (1, 1, 1, 1)), 15: (3, 4, (1, 1, 1, 2))}
MAX_BINARY = 6


def _dual_profile(rng: random.Random, bits: int, e: int, i: int) -> tuple:
    """(alpha, beta, ks) for the i-th job of a class: alpha + e*beta = bits,
    the split between alpha and beta set by i, and ks random with
    log2|C| within one of bits/2, so that code and dual are of similar size."""
    if bits in FIXED_AMBIENTS:
        return FIXED_AMBIENTS[bits]
    betas = [b for b in range(1, bits // e + 1) if bits - e * b <= MAX_BINARY]
    beta = betas[i % len(betas)]
    alpha = bits - e * beta
    weights = (1, 3, 2, 1) if e == 3 else (1, 2, 1)
    while True:
        k0 = rng.randint(0, alpha)
        rest = [0] * (len(weights) - 1)
        room = beta
        for j in rng.sample(range(len(rest)), len(rest)):
            rest[j] = rng.randint(0, room)
            room -= rest[j]
        ks = (k0, *rest)
        size = sum(w * k for w, k in zip(weights, ks))
        if abs(2 * size - bits) <= 2:
            return alpha, beta, ks


def codes_dual_inputs(seed: int) -> list[tuple]:
    """The seed draws the type of every code below 2^13 words, the entries
    of every generator matrix, and the order of the jobs."""
    rng = _rng("codes-dual", seed)
    out = []
    for bits, n in DUAL_STRATA.items():
        for i in range(n):
            e = 2 if i % 4 == 3 and bits not in FIXED_AMBIENTS else 3
            alpha, beta, ks = _dual_profile(rng, bits, e, i)
            out.append((alpha, beta, e, ks, rng.randrange(1 << 30)))
    rng.shuffle(out)
    return out


def _dual_job(alpha: int, beta: int, e: int, ks: tuple, block_seed: int) -> Job:
    def call():
        # fresh Code objects every call, so classify_type's cache hides nothing
        if e == 3:
            m = codes.random_standard_form(TypeProfile(alpha, beta, *ks), block_seed)
        else:
            m = codes.random_standard_form_z4(alpha, beta, *ks, seed=block_seed)
        code = codes.span(codes.assemble(m), alpha=alpha, beta=beta, e=e)
        found = codes.classify_type(code)
        dual = codes.dual_bruteforce(code)
        parity_ok = None
        if e == 3:
            rows = list(codes.parity_check(m).rows)
            parity_ok = codes.span(rows, alpha=alpha, beta=beta, e=e) == dual
        return (tuple(found.ks) if e == 3 else tuple(found), len(code), len(dual), parity_ok)

    def check(out) -> str | None:
        found, n_code, n_dual, parity_ok = out
        if found != tuple(ks):
            return f"classify_type gave {found}, expected {ks}"
        if n_code * n_dual != 2 ** (alpha + e * beta):
            return "|C| * |C_perp| differs from the ambient size"
        if parity_ok is False:
            return "span of the parity-check rows differs from the brute-force dual"
        return None

    return Job(f"dual({alpha},{beta},e={e};{ks})", call, check)


def codes_dual_jobs(seed: int, traced: bool = False) -> list[Job]:
    return [_dual_job(*args) for args in codes_dual_inputs(seed)]


def codes_dual_warm_up() -> None:
    _dual_job(1, 3, 3, (1, 1, 1, 0), 0).call()


@dataclass(frozen=True)
class Workload:
    inputs: Callable[[int], list]
    jobs: Callable[..., list[Job]]
    warm_up: Callable[[], None]
    in_children: bool  # the work runs in child processes


WORKLOADS = {
    "count-large": Workload(count_large_inputs, count_large_jobs, count_large_warm_up, False),
    "cli-small": Workload(cli_small_inputs, cli_small_jobs, cli_small_warm_up, True),
    "oracle-census": Workload(oracle_census_inputs, oracle_census_jobs, oracle_census_warm_up, False),
    "codes-dual": Workload(codes_dual_inputs, codes_dual_jobs, codes_dual_warm_up, False),
}
