"""Span recorder for the traced run.

`Recorder.install()` replaces every public function of every mathieulab
module, in every module namespace that binds it (harness imports `L_map` and
`power_scan` by name), plus a fixed set of methods and the ring dunders on
their classes, with a wrapper that records a span: site, start, end, parent
span and op id.  `uninstall()` puts the originals back, so untraced passes
run the unmodified program.

Self time is a span's duration minus the time its child spans cover.  The
recorder's own bookkeeping time is measured and left out of every enclosing
span, so it does not land in a caller's self time.  Calls into `Fraction`
(stdlib) cannot be wrapped: Q coefficient time is the caller's self time.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
import types
from collections import Counter
from fractions import Fraction

MODULES = ("rings", "poly", "parsing", "imagemap", "weyl", "harness", "charp",
           "ortho", "linalg", "cli")

METHODS = {
    "poly.Polynomial": ("__init__", "__add__", "__sub__", "__neg__", "__mul__",
                        "__rmul__", "scale", "__pow__", "partial", "to_str", "embed",
                        "substitute", "exact_divide", "homogeneous_components"),
    "weyl.WeylElement": ("compose", "apply", "power", "left_normal_terms"),
    "imagemap.MembershipCertificate": ("verify",),
    "harness.SubspaceOracle": ("__call__",),
}

SPAN_LIMIT = 200_000  # spans kept in memory; calls beyond it are still counted

RING_CLASSES = ("rings.GaussianRational", "rings.PrimeFieldElement")
RING_DUNDERS = ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__",
                "__rmul__", "__truediv__", "__rtruediv__", "__bool__", "__eq__")


def coeff_bits(c) -> int:
    """Largest numerator/denominator bit length of one coefficient."""
    if isinstance(c, Fraction):
        return max(c.numerator.bit_length(), c.denominator.bit_length())
    if hasattr(c, "residue"):
        return c.residue.bit_length()
    return max(coeff_bits(c.re), coeff_bits(c.im))


def _poly_init(counters, args, _result):
    terms = args[0].terms
    if len(terms) > counters["poly.peak_terms"]:
        counters["poly.peak_terms"] = len(terms)
    if terms:
        bits = max(map(coeff_bits, terms.values()))
        if bits > counters["poly.max_coeff_bits"]:
            counters["poly.max_coeff_bits"] = bits


def _poly_mul(counters, _args, result):
    counters["poly.mul.terms_out"] += len(result.terms)


def _lmap(counters, args, _result):
    problem, f = args[0], args[1]
    n = problem.n
    counters["imagemap.L_map.terms_in"] += len(f.terms)
    counters["imagemap.L_map.terms_kept"] += sum(
        1 for e in f.terms if all(a <= b for a, b in zip(e[:n], e[n:])))


def _lemma81(counters, _args, result):
    counters["charp.lemma81.primes_tried"] += len(result.tried)
    counters["charp.lemma81.primes_certified"] += result.status == "certified"


def _parse(counters, args, _result):
    counters["parsing.parse.chars"] += len(args[0])


HOOKS = {
    "poly.Polynomial.__init__": _poly_init,
    "poly.Polynomial.__mul__": _poly_mul,
    "imagemap.L_map": _lmap,
    "charp.lemma81_nonvanishing": _lemma81,
    "parsing.parse_polynomial": _parse,
}


class Recorder:
    """Aggregates calls and self time per site; keeps spans while `keep` is set."""

    def __init__(self):
        self.stats = {}  # site -> [calls, self_ns]
        self.counters = Counter()
        self.stack = []  # open spans: [start_ns, overhead at entry, child_ns, span id]
        self.overhead = 0
        self.next_id = 0
        self.keep = False
        self.op = None
        self.spans = []
        self.code_of = {}  # site -> code object of the wrapped function
        self._patches = []  # (owner, attribute, original, wrapper)

    # -- installing ---------------------------------------------------

    def install(self):
        if not self._patches:
            self._patches = self._discover()
        for owner, attr, _original, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, _wrapper in self._patches:
            setattr(owner, attr, original)

    def _discover(self):
        package = importlib.import_module("mathieulab")
        modules = {short: importlib.import_module(f"mathieulab.{short}") for short in MODULES}
        namespaces = [package] + list(modules.values())
        patches = []
        for short, module in modules.items():
            for name, fn in list(vars(module).items()):
                if (isinstance(fn, types.FunctionType) and not name.startswith("_")
                        and fn.__module__ == module.__name__):
                    wrapper = self._wrap(f"{short}.{name}", fn)
                    for ns in namespaces:
                        for attr, value in list(vars(ns).items()):
                            if value is fn:
                                patches.append((ns, attr, fn, wrapper))
        methods = list(METHODS.items()) + [(path, RING_DUNDERS) for path in RING_CLASSES]
        for path, attrs in methods:
            short, cls_name = path.split(".")
            cls = getattr(modules[short], cls_name)
            for attr in attrs:
                fn = cls.__dict__.get(attr)
                if isinstance(fn, types.FunctionType):
                    patches.append((cls, attr, fn, self._wrap(f"{path}.{attr}", fn)))
        return patches

    def _wrap(self, site, fn):
        rec = self
        stat = self.stats.setdefault(site, [0, 0])
        self.code_of[site] = fn.__code__
        hook = HOOKS.get(site)
        counters = self.counters
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = rec.stack
            frame = [0, rec.overhead, 0, rec.next_id]
            rec.next_id += 1
            stack.append(frame)
            frame[0] = start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start - (rec.overhead - frame[1])
                stat[0] += 1
                stat[1] += duration - frame[2]
                if stack:
                    stack[-1][2] += duration
                if rec.keep and len(rec.spans) < SPAN_LIMIT:
                    rec.spans.append((frame[3], stack[-1][3] if stack else None, site,
                                      start, end, rec.op))
                rec.overhead += clock() - end
            if hook is not None:
                mark = clock()
                hook(counters, args, result)
                rec.overhead += clock() - mark
            return result

        return traced

    # -- reading ------------------------------------------------------

    def reset(self):
        for stat in self.stats.values():
            stat[:] = [0, 0]
        self.counters.clear()

    def group(self, prefix: str):
        """(calls, self seconds) summed over sites named `prefix` or `prefix.*`."""
        calls = self_ns = 0
        for site, (n, own) in self.stats.items():
            if site == prefix or site.startswith(prefix + "."):
                calls += n
                self_ns += own
        return calls, self_ns / 1e9

    def calls_by_code(self) -> Counter:
        out = Counter()
        for site, (n, _own) in self.stats.items():
            out[self.code_of[site]] += n
        return out

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, parent, site, start, end, op in self.spans:
                handle.write(json.dumps({"id": span_id, "parent": parent, "name": site,
                                         "start_ns": start, "end_ns": end, "op": op}) + "\n")
