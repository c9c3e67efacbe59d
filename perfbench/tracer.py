"""Per-layer tracing installed from outside the library.

The tracer wraps public functions of each phaseq module, plus the four
``numpy.fft`` transforms the grid layer uses, and records one span per
call: name, start, end, parent span and operation id. Self time is a
span's duration minus the time its child spans cover. Aggregates are kept
exactly; spans are kept in memory up to ``span_cap`` and written out at
the end of the run.

A wrapper replaces every name a caller can resolve: the attribute in the
defining module, every ``from .x import y`` copy in other phaseq modules,
the re-export in the ``phaseq`` package, and class attributes for
methods. Coefficient arithmetic is only counted, not timed, because it
runs millions of times.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import Counter

import numpy as np

# (metric prefix, module, attribute) for module-level functions
FUNCTIONS = [
    ("star.moyal_star", "phaseq.star", "moyal_star"),
    ("star.commutator_on", "phaseq.star", "commutator_on"),
    ("algebra.poisson_bracket", "phaseq.algebra", "poisson_bracket"),
    ("parsing.parse_expression", "phaseq.parsing", "parse_expression"),
    ("parsing.format_polynomial", "phaseq.parsing", "format_polynomial"),
    ("poincare.check_poincare_algebra", "phaseq.poincare", "check_poincare_algebra"),
    ("poincare.check_casimirs", "phaseq.poincare", "check_casimirs"),
    ("dirac.dirac_square_check", "phaseq.dirac", "dirac_square_check"),
    ("grids.grid_star", "phaseq.grids", "grid_star"),
    ("grids.wigner_from_amplitude", "phaseq.grids", "wigner_from_amplitude"),
    ("grids.bandlimit", "phaseq.grids", "bandlimit"),
    ("grids.inner_product", "phaseq.grids", "inner_product"),
    ("grids.fourier_derivative", "phaseq.grids", "fourier_derivative"),
    ("grids.fd_derivative", "phaseq.grids", "fd_derivative"),
    ("grids.kg_two_route_check", "phaseq.grids", "kg_two_route_check"),
    ("grids.write_field_binary", "phaseq.grids", "write_field_binary"),
    ("grids.write_field_csv", "phaseq.grids", "write_field_csv"),
    ("grids.read_field_binary", "phaseq.grids", "read_field_binary"),
    ("landau.wigner_landau", "phaseq.landau", "wigner_landau"),
    ("landau.full_operator_apply", "phaseq.landau", "full_operator_apply"),
    ("landau.reduction_equivalence_check", "phaseq.landau", "reduction_equivalence_check"),
    ("landau.rayleigh_quotient", "phaseq.landau", "rayleigh_quotient"),
    ("landau.eigenfunction", "phaseq.landau", "eigenfunction"),
    ("confluent.kummer_m", "phaseq.confluent", "kummer_m"),
    ("confluent.kummer_u", "phaseq.confluent", "kummer_u"),
    ("confluent.laguerre", "phaseq.confluent", "laguerre"),
    ("cli.main", "phaseq.cli", "main"),
]

# (metric prefix, module, class, attributes) for methods timed as spans
METHODS = [
    ("algebra.mul", "phaseq.algebra", "PhasePolynomial", ("__mul__",)),
    ("algebra.add", "phaseq.algebra", "PhasePolynomial", ("__add__", "__radd__")),
    ("algebra.derivative", "phaseq.algebra", "PhasePolynomial", ("derivative",)),
]

# methods that are counted only
COUNTED = [
    ("algebra.coeff_ops", "phaseq.algebra", "ComplexRational",
     ("__add__", "__radd__", "__mul__", "__rmul__")),
]

FFT_FUNCTIONS = ("fftn", "ifftn", "fft", "ifft")

# extra work counters: (metric name, better)
EXTRA_COUNTS = [
    ("star.moyal_star.term_pairs", "lower"),
    ("star.moyal_star.out_terms", "lower"),
    ("algebra.mul.term_pairs", "lower"),
    ("algebra.coeff_ops", "lower"),
    ("parsing.format_polynomial.chars", "lower"),
    ("poincare.identities", "higher"),
    ("dirac.identities", "higher"),
    ("grids.grid_star.modes_kept", "lower"),
    ("grids.grid_star.modes_total", "lower"),
    ("grids.write_field_binary.bytes", "lower"),
    ("grids.write_field_csv.bytes", "lower"),
    ("grids.read_field_binary.bytes", "lower"),
    ("fft.points", "lower"),
]

SPAN_NAMES = [name for name, *_ in FUNCTIONS] + [name for name, *_ in METHODS] + ["fft"]


EXACT_LAYER = [n for n in SPAN_NAMES if n.split(".")[0] in ("star", "algebra", "parsing", "poincare", "dirac")]
GRID_LAYER = [n for n in SPAN_NAMES if n.split(".")[0] in ("grids", "landau", "confluent", "fft")]

# trace-coverage check: spans each workload must record, and spans it must not
EXPECTED_CALLS = {
    "exact": EXACT_LAYER + ["cli.main"],
    "wigner": [
        "grids.grid_star", "grids.wigner_from_amplitude", "grids.bandlimit",
        "grids.inner_product", "landau.wigner_landau", "landau.eigenfunction",
        "fft", "cli.main",
    ],
    "grid-ops": [
        "grids.fourier_derivative", "grids.fd_derivative", "grids.kg_two_route_check",
        "grids.write_field_binary", "grids.write_field_csv", "grids.read_field_binary",
        "landau.full_operator_apply", "landau.reduction_equivalence_check",
        "landau.rayleigh_quotient", "landau.eigenfunction", "confluent.kummer_m",
        "confluent.kummer_u", "confluent.laguerre", "fft", "cli.main",
    ],
}
BYPASSED = {
    "exact": GRID_LAYER,
    "wigner": EXACT_LAYER,
    "grid-ops": EXACT_LAYER + ["grids.grid_star", "grids.wigner_from_amplitude", "landau.wigner_landau"],
}


def per_layer_metrics():
    """The per-layer metric list, in BENCHMARK.json form."""
    out = []
    for name in SPAN_NAMES:
        out.append({"name": f"{name}.calls", "unit": "count", "better": "lower"})
        out.append({"name": f"{name}.self_s", "unit": "s", "better": "lower"})
    for name, better in EXTRA_COUNTS:
        unit = "B" if name.endswith(".bytes") else "count"
        out.append({"name": name, "unit": unit, "better": better})
    out += [
        {"name": "trace.wall_s", "unit": "s", "better": "lower"},
        {"name": "trace.overhead_s", "unit": "s", "better": "lower"},
        {"name": "trace.spans", "unit": "count", "better": "lower"},
    ]
    return out


def _nyquist_free(spectrum, shape):
    for axis, n in enumerate(shape):
        if n % 2 == 0:
            cut = [slice(None)] * len(shape)
            cut[axis] = n // 2
            spectrum[tuple(cut)] = 0.0
    return spectrum


class Tracer:
    """Span recorder with exact per-name aggregates."""

    def __init__(self, span_cap: int = 200_000):
        self.span_cap = span_cap
        self.stack = []  # frames: [name, start, child_s, span_id]
        self.calls = Counter()
        self.self_s = Counter()
        self.counts = Counter()
        self.spans = []
        self.span_total = 0
        self.op_id = -1
        self._patches = []
        self._fft = {}

    # -- recording -----------------------------------------------------

    def _hidden(self, started: float):
        """Keep bookkeeping time out of the enclosing span's self time."""
        if self.stack:
            self.stack[-1][2] += time.perf_counter() - started

    def _span(self, name, fn, before=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                t = time.perf_counter()
                before(tracer.counts, args)
                tracer._hidden(t)
            tracer.span_total += 1
            frame = [name, time.perf_counter(), 0.0, tracer.span_total]
            parent = tracer.stack[-1][3] if tracer.stack else 0
            tracer.stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer.stack.pop()
                dur = end - frame[1]
                tracer.calls[name] += 1
                tracer.self_s[name] += dur - frame[2]
                if tracer.stack:
                    tracer.stack[-1][2] += dur
                if len(tracer.spans) < tracer.span_cap:
                    tracer.spans.append(
                        (frame[3], parent, tracer.op_id, name, frame[1], end)
                    )
            if after is not None:
                t = time.perf_counter()
                after(tracer.counts, args, result)
                tracer._hidden(t)
            return result

        return wrapper

    # -- work counters -------------------------------------------------

    def _hooks(self, name):
        def star_pairs(counts, args):
            counts["star.moyal_star.term_pairs"] += len(args[0].terms) * len(args[1].terms)

        def star_out(counts, args, result):
            counts["star.moyal_star.out_terms"] += len(result.terms)

        def mul_pairs(counts, args):
            other = args[1]
            if hasattr(other, "terms"):
                counts["algebra.mul.term_pairs"] += len(args[0].terms) * len(other.terms)

        def chars(counts, args, result):
            counts["parsing.format_polynomial.chars"] += len(result)

        def identities(key):
            def hook(counts, args, result):
                counts[key] += result.checked
            return hook

        def written(key):
            def hook(counts, args, result):
                counts[key] += os.path.getsize(args[1])
            return hook

        def read(counts, args, result):
            counts["grids.read_field_binary.bytes"] += os.path.getsize(args[0])

        fft = self._fft

        def modes(counts, args):
            # modes grid_star keeps: nonzero after the Nyquist projection and
            # above its threshold, recomputed with the unwrapped transform
            g = args[1]
            threshold = args[2] if len(args) > 2 else 1e-14
            ghat = _nyquist_free(fft["fftn"](g.values), g.values.shape)
            mag = np.abs(ghat)
            counts["grids.grid_star.modes_kept"] += int(
                np.count_nonzero(mag > threshold * mag.max())
            )
            counts["grids.grid_star.modes_total"] += int(mag.size)

        return {
            "star.moyal_star": (star_pairs, star_out),
            "algebra.mul": (mul_pairs, None),
            "parsing.format_polynomial": (None, chars),
            "poincare.check_poincare_algebra": (None, identities("poincare.identities")),
            "poincare.check_casimirs": (None, identities("poincare.identities")),
            "dirac.dirac_square_check": (None, identities("dirac.identities")),
            "grids.grid_star": (modes, None),
            "grids.write_field_binary": (None, written("grids.write_field_binary.bytes")),
            "grids.write_field_csv": (None, written("grids.write_field_csv.bytes")),
            "grids.read_field_binary": (None, read),
        }.get(name, (None, None))

    # -- installation --------------------------------------------------

    def _replace_everywhere(self, original, wrapper, extra_modules=()):
        modules = [
            mod
            for key, mod in list(sys.modules.items())
            if key == "phaseq" or key.startswith("phaseq.")
        ]
        for mod in list(modules) + list(extra_modules):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def install(self):
        for name, modname, attr in FUNCTIONS:
            original = getattr(sys.modules[modname], attr)
            before, after = self._hooks(name)
            self._replace_everywhere(original, self._span(name, original, before, after))
        for name, modname, clsname, attrs in METHODS:
            cls = getattr(sys.modules[modname], clsname)
            before, after = self._hooks(name)
            for attr in attrs:
                original = cls.__dict__[attr]
                self._patches.append((cls, attr, original))
                setattr(cls, attr, self._span(name, original, before, after))
        for name, modname, clsname, attrs in COUNTED:
            cls = getattr(sys.modules[modname], clsname)
            for attr in attrs:
                original = cls.__dict__[attr]
                self._patches.append((cls, attr, original))
                setattr(cls, attr, self._counter(name, original))

        def fft_points(counts, args):
            counts["fft.points"] += int(np.size(args[0]))

        for attr in FFT_FUNCTIONS:
            original = getattr(np.fft, attr)
            self._fft[attr] = original
            self._replace_everywhere(
                original, self._span("fft", original, fft_points), (np.fft,)
            )

    def _counter(self, name, fn):
        counts = self.counts

        def wrapper(*args):
            counts[name] += 1
            return fn(*args)

        return wrapper

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- output --------------------------------------------------------

    def metrics(self) -> dict:
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
        for name, _ in EXTRA_COUNTS:
            out[name] = self.counts[name]
        out["trace.spans"] = self.span_total
        return out

    def write_spans(self, path):
        """Tab-separated spans: id, parent, op, name, start_s, end_s."""
        with open(path, "w") as fh:
            fh.write("id\tparent\top\tname\tstart_s\tend_s\n")
            for span_id, parent, op, name, start, end in self.spans:
                fh.write(f"{span_id}\t{parent}\t{op}\t{name}\t{start:.9f}\t{end:.9f}\n")
            if self.span_total > len(self.spans):
                fh.write(f"# {self.span_total - len(self.spans)} further spans not kept\n")
