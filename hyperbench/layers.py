"""Per-layer tracing for the hyperrank benchmark.

The tracer wraps hyperrank's entry points from outside the package: every
module namespace that binds an entry point (``cli`` and ``ergodicity``
import functions by name) gets its own wrapper, and ``QMat`` methods are
wrapped on the class.  Each wrapped call records a span (id, parent, layer,
start, end) and a count; a layer's self time is its spans' duration minus
the time covered by their child spans.  Nothing is recorded unless the
tracer is installed, and uninstalling restores every original binding.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from collections import defaultdict

# layer -> (defining module, attribute or Class.method) of its entry points
LAYERS = {
    "cli.main": [("hyperrank.cli", "main")],
    "exact.power": [("hyperrank.exact.intmat", "QMat.power")],
    "exact.matmul": [("hyperrank.exact.intmat", "QMat.__matmul__")],
    "exact.charpoly": [("hyperrank.exact.intmat", "QMat.charpoly")],
    "exact.charpoly_mod": [("hyperrank.exact.intmat",
                            "berkowitz_charpoly_mod")],
    "exact.elim": [("hyperrank.exact.intmat", f"QMat.{m}")
                   for m in ("det", "inverse", "rank", "solve", "kernel",
                             "adjugate")],
    "exact.poly_gcd": [("hyperrank.exact.poly", "poly_gcd")],
    "exact.factor": [("hyperrank.exact.factorq", "factor_over_q")],
    "exact.hensel": [("hyperrank.exact.modp", "hensel_lift")],
    "ergodicity.is_ergodic": [("hyperrank.ergodicity", "is_ergodic")],
    "ergodicity.z2_search": [("hyperrank.ergodicity",
                              "ergodic_z2_subgroup")],
    "ergodicity.splitting": [("hyperrank.ergodicity", "rational_splitting")],
    "ergodicity.rank_one": [("hyperrank.ergodicity", "has_rank_one_factor")],
    "spectra.joint_spectrum": [("hyperrank.spectra", "joint_spectrum")],
    "spectra.real_lyapunov": [("hyperrank.spectra", "real_lyapunov"),
                              ("hyperrank.spectra", "_real_refine")],
    "spectra.padic": [("hyperrank.spectra", "_padic_functionals")],
    "spectra.chambers": [("hyperrank.spectra", m)
                         for m in ("coarse_classes", "weyl_chambers",
                                   "min_expansion_rate")],
    "nilpotent.crt": [("hyperrank.nilpotent", "nil_crt")],
    "solenoid.mc": [("hyperrank.solenoid", "monte_carlo_correlation")],
    "solenoid.haar_sample": [("hyperrank.solenoid", "haar_sample")],
    "solenoid.exact_curve": [("hyperrank.solenoid", "mixing_curve")],
    "solenoid.clt": [("hyperrank.solenoid", "clt_check")],
    "conjugacy.solve": [("hyperrank.conjugacy", "solve_conjugacy")],
    "conjugacy.verify": [("hyperrank.conjugacy", "verify_conjugacy")],
    "conjugacy.holder": [("hyperrank.conjugacy", "holder_estimate")],
    "conjugacy.csv": [("hyperrank.conjugacy", "field_to_csv")],
}

# The bindings through which the program (and the benchmark, for cli.main
# and clt_check) actually calls each entry point.  Re-exports in package
# namespaces are wrapped too but nothing calls through them.
CALL_SITES = {
    "cli.main": ["hyperrank.cli:main"],
    "exact.power": ["hyperrank.exact.intmat:QMat.power"],
    "exact.matmul": ["hyperrank.exact.intmat:QMat.__matmul__"],
    "exact.charpoly": ["hyperrank.exact.intmat:QMat.charpoly"],
    "exact.charpoly_mod": ["hyperrank.spectra:berkowitz_charpoly_mod"],
    # adjugate only serves solenoid.apply_inverse, which no command calls
    "exact.elim": [f"hyperrank.exact.intmat:QMat.{m}"
                   for m in ("det", "inverse", "rank", "solve", "kernel")],
    "exact.poly_gcd": ["hyperrank.ergodicity:poly_gcd",
                       "hyperrank.exact.poly:poly_gcd"],
    "exact.factor": ["hyperrank.ergodicity:factor_over_q"],
    "exact.hensel": ["hyperrank.exact.factorq:hensel_lift",
                     "hyperrank.spectra:hensel_lift"],
    "ergodicity.is_ergodic": ["hyperrank.cli:is_ergodic",
                              "hyperrank.ergodicity:is_ergodic"],
    "ergodicity.z2_search": ["hyperrank.cli:ergodic_z2_subgroup"],
    "ergodicity.splitting": ["hyperrank.ergodicity:rational_splitting"],
    "ergodicity.rank_one": ["hyperrank.cli:has_rank_one_factor"],
    "spectra.joint_spectrum": ["hyperrank.cli:joint_spectrum",
                               "hyperrank.ergodicity:joint_spectrum"],
    "spectra.real_lyapunov": ["hyperrank.conjugacy:real_lyapunov",
                              "hyperrank.spectra:_real_refine"],
    "spectra.padic": ["hyperrank.spectra:_padic_functionals"],
    "spectra.chambers": ["hyperrank.cli:coarse_classes",
                         "hyperrank.cli:weyl_chambers",
                         "hyperrank.cli:min_expansion_rate"],
    "nilpotent.crt": ["hyperrank.cli:nil_crt"],
    "solenoid.mc": ["hyperrank.cli:monte_carlo_correlation"],
    "solenoid.haar_sample": ["hyperrank.solenoid:haar_sample"],
    "solenoid.exact_curve": ["hyperrank.cli:mixing_curve"],
    "solenoid.clt": ["hyperrank.solenoid:clt_check"],
    "conjugacy.solve": ["hyperrank.cli:solve_conjugacy"],
    "conjugacy.verify": ["hyperrank.cli:verify_conjugacy"],
    "conjugacy.holder": ["hyperrank.cli:holder_estimate"],
    "conjugacy.csv": ["hyperrank.cli:field_to_csv"],
}


def _resolve(module, qualname):
    obj = sys.modules[module]
    owner = None
    for part in qualname.split("."):
        owner, obj = obj, getattr(obj, part)
    return owner, qualname.split(".")[-1], obj


class Tracer:
    """Spans and counts for every wrapped entry point, kept in memory."""

    def __init__(self):
        self.spans = []            # (id, parent id, layer, start, end)
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.reached = set()       # "module:qualname" bindings called
        self.bindings = []         # (owner, attr, original, binding name)
        self._stack = []           # [span id, child seconds] per open span
        self._next_id = 0
        self._active = defaultdict(int)

    def install(self):
        """Wrap every binding of every entry point in loaded hyperrank
        modules (and the QMat class attributes)."""
        modules = {name: mod for name, mod in list(sys.modules.items())
                   if name == "hyperrank" or name.startswith("hyperrank.")}
        for layer, targets in LAYERS.items():
            for module, qualname in targets:
                owner, attr, original = _resolve(module, qualname)
                if isinstance(owner, type):
                    self._wrap(owner, attr, original, layer,
                               f"{module}:{qualname}")
                    continue
                for name, mod in sorted(modules.items()):
                    for key, val in list(vars(mod).items()):
                        if val is original:
                            self._wrap(mod, key, original, layer,
                                       f"{name}:{key}")
        return self

    def uninstall(self):
        for owner, attr, original, _ in reversed(self.bindings):
            setattr(owner, attr, original)
        self.bindings = []

    def _wrap(self, owner, attr, original, layer, binding):
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return tracer._call(layer, binding, original, args, kwargs)

        setattr(owner, attr, wrapper)
        self.bindings.append((owner, attr, original, binding))

    def _call(self, layer, binding, fn, args, kwargs):
        self.reached.add(binding)
        if layer == "ergodicity.is_ergodic" and \
                self._active["ergodicity.z2_search"]:
            self.counts["z2_tests"] += 1
        parent = self._stack[-1][0] if self._stack else None
        frame = [self._next_id, 0.0]
        self._next_id += 1
        self._stack.append(frame)
        self._active[layer] += 1
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._active[layer] -= 1
            self._stack.pop()
            dur = end - start
            self.spans.append((frame[0], parent, layer, start, end))
            self.self_s[layer] += dur - frame[1]
            self.calls[layer] += 1
            if self._stack:
                self._stack[-1][1] += dur
        if layer == "ergodicity.z2_search":
            self.counts["z2_certs"] += 1
        elif layer == "conjugacy.solve":
            self.counts["sweeps"] += len(result.residuals)
        return result

    def write_spans(self, path):
        """JSON lines, gzip-compressed: a z2_search run has ~10^5 spans."""
        with gzip.open(path, "wt", encoding="ascii") as fobj:
            for sid, parent, layer, start, end in self.spans:
                fobj.write(json.dumps({"id": sid, "parent": parent,
                                       "name": layer, "start": start,
                                       "end": end}) + "\n")

    def layer_metrics(self, passes):
        """Per-pass self seconds and call counts of every layer, plus the
        derived counters, as {metric: (value, unit)}."""
        out = {}
        for layer in LAYERS:
            stem = "cli.self" if layer == "cli.main" else layer
            out[f"{stem}_s"] = (self.self_s[layer] / passes, "s")
            out[f"{stem}_calls"] = (self.calls[layer] / passes, "count")
        certs = self.counts["z2_certs"]
        out["ergodicity.z2_tests_per_cert"] = (
            self.counts["z2_tests"] / certs if certs else 0.0, "count")
        out["conjugacy.sweeps"] = (self.counts["sweeps"] / passes, "count")
        return out
