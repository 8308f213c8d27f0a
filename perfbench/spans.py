"""Run-time span tracer for the z2z8 public functions.

`Tracer.install()` replaces each traced function, in every loaded ``z2z8``
module that holds a reference to it, by a wrapper that records one span per
call: name, start, end, parent span and job id.  Nothing under ``src/`` is
edited; `Tracer.uninstall()` puts the originals back.  Spans stay in memory
until the run ends.  A few wrappers also add counters measured on the
arguments or the result (sizes, bit lengths), so ratios are taken where the
work happens.

`LibraryBoundary` is much lighter: it times only the calls that `cli`
makes into the library, so that `cli.main` can be split into its own time
and the library's without tracing the library's inner calls.
"""

from __future__ import annotations

import functools
import sys
import time
import types

# (module, function) pairs that get a span.  Functions called once per word
# (inner_product, MixedWord arithmetic) are left out: a span per call would
# cost more than the work it measures.
TRACED = (
    ("qnum", "q_integer"),
    ("qnum", "q_factorial"),
    ("qnum", "q_binomial"),
    ("qnum", "q_multinomial"),
    ("counting", "count"),
    ("counting", "count_closed_form"),
    ("counting", "count_product"),
    ("counting", "count_z8"),
    ("counting", "count_z2z4"),
    ("counting", "count_dual"),
    ("counting", "check_identities"),
    ("census", "enumerate_subgroups"),
    ("census", "census"),
    ("census", "formula_census"),
    ("census", "verify_formula"),
    ("codes", "random_standard_form"),
    ("codes", "random_standard_form_z4"),
    ("codes", "assemble"),
    ("codes", "span"),
    ("codes", "classify_type"),
    ("codes", "parity_check"),
    ("codes", "dual_bruteforce"),
    ("cli", "main"),
    ("cli", "family_term"),
)


# counter name -> (span names, what one call adds)
COUNTERS = {
    "qnum.calls": (("qnum.q_binomial", "qnum.q_multinomial"), lambda args, r: 1),
    "qnum.result_bits": (("qnum.q_binomial", "qnum.q_multinomial"), lambda args, r: r.bit_length()),
    "counting.count.calls": (("counting.count",), lambda args, r: 1),
    "counting.result_bits": (("counting.count",), lambda args, r: r.bit_length()),
    "census.subgroups": (("census.enumerate_subgroups",), lambda args, r: len(r)),
    "codes.span.words": (("codes.span",), lambda args, r: len(r)),
    "codes.classify_type.calls": (("codes.classify_type",), lambda args, r: 1),
    "codes.dual_bruteforce.words_scanned": (
        ("codes.dual_bruteforce",), lambda args, r: 2 ** (args[0].alpha + args[0].e * args[0].beta)),
    "codes.dual_bruteforce.dual_words": (("codes.dual_bruteforce",), lambda args, r: len(r)),
}


class Tracer:
    """Records spans around the traced functions while installed."""

    def __init__(self) -> None:
        # each span: [name, start, end, parent index or -1, job id]
        self.spans: list[list] = []
        self.counters: dict[str, int] = {name: 0 for name in COUNTERS}
        self.job = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, counters = self.spans, self._stack, self.counters
        hooks = [(c, add) for c, (names, add) in COUNTERS.items() if name in names]
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            for counter, add in hooks:
                counters[counter] += add(args, result)
            return result

        return traced

    def install(self) -> None:
        import z2z8.cli  # noqa: F401 - load every module that may hold a reference

        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "z2z8" or n.startswith("z2z8."))]
        for mod_name, fn_name in TRACED:
            original = getattr(sys.modules[f"z2z8.{mod_name}"], fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()


def layer_times(spans: list[list]) -> dict[str, list[float]]:
    """Per-name [inclusive seconds, self seconds, calls].

    Self time is a span's duration minus the time its child spans cover;
    children of one span never overlap, since every call is synchronous.
    """
    children = [0.0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            children[s[3]] += s[2] - s[1]
    out: dict[str, list[float]] = {}
    for i, s in enumerate(spans):
        d = s[2] - s[1]
        acc = out.setdefault(s[0], [0.0, 0.0, 0])
        acc[0] += d
        acc[1] += d - children[i]
        acc[2] += 1
    return out


def merge_layers(into: dict[str, list[float]], other: dict[str, list[float]]) -> None:
    for name, values in other.items():
        acc = into.setdefault(name, [0.0, 0.0, 0])
        for j, v in enumerate(values):
            acc[j] += v


LIBRARY = ("z2z8.qnum", "z2z8.counting", "z2z8.census", "z2z8.codes")


def _is_library_function(value) -> bool:
    return isinstance(value, types.FunctionType) and value.__module__ in LIBRARY


class LibraryBoundary:
    """Times the library calls that the `cli` module makes itself.

    `install(cli)` replaces cli's own references to the library -- the
    `codes` and `counting` modules and the functions it imported by name --
    by timed versions.  The library's calls inside itself go through its own
    globals and stay untimed, so one clock pair is paid per call where cli
    crosses into the library, and `seconds` is the time spent on the library
    side of that boundary.
    """

    def __init__(self) -> None:
        self.seconds = 0.0
        self._patched: list[tuple[object, str, object]] = []

    def _timed(self, fn):
        clock = time.perf_counter

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self.seconds += clock() - t0

        return timed

    def install(self, cli) -> None:
        for name, value in list(vars(cli).items()):
            if isinstance(value, types.ModuleType) and value.__name__ in LIBRARY:
                timed = types.SimpleNamespace(**{
                    k: self._timed(v) if _is_library_function(v) else v
                    for k, v in vars(value).items()})
            elif _is_library_function(value):
                timed = self._timed(value)
            else:
                continue
            self._patched.append((cli, name, value))
            setattr(cli, name, timed)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()
