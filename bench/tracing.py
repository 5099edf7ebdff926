"""In-memory spans around calls into the program's public functions.

The benchmark's traced run replaces each traced function, in every module
that holds a reference to it, by a wrapper that records a span (name,
start, end, parent span, operation label).  Spans stay in memory and are
written once, when the run ends.  Self time of a span is its duration less
the durations of its direct child spans, so time spent in a traced callee
is charged to the callee only.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import time
from collections import Counter, defaultdict

# (module, attribute, span name): the public functions the traced run times.
# A function imported by name into another module (``frame_at`` inside
# ``birkhoff``, ``integrate`` called from inside ``specfun``) is replaced
# there too, because that module looks the name up in its own namespace.
TRACED = (
    ("billiard_weyl.folding", "obtuse_corner_constant", "folding.obtuse_corner_constant"),
    ("billiard_weyl.folding", "broken_path_propagator", "folding.broken_path_propagator"),
    ("billiard_weyl.folding", "signature_oracle", "folding.signature_oracle"),
    ("numpy.polynomial.legendre", "leggauss", "numpy.leggauss"),
    ("billiard_weyl.specfun", "integrate", "specfun.integrate"),
    ("billiard_weyl.specfun", "hankel_time_integral", "specfun.hankel_time_integral"),
    ("billiard_weyl.specfun", "hankel0_halfline_moment", "specfun.hankel0_halfline_moment"),
    ("billiard_weyl.orbit_terms", "green_fourier", "orbit_terms.green_fourier"),
    ("billiard_weyl.orbit_terms", "length_term_density_quadrature",
     "orbit_terms.length_term_density_quadrature"),
    ("billiard_weyl.orbit_terms", "corner_delta_by_quadrature",
     "orbit_terms.corner_delta_by_quadrature"),
    ("billiard_weyl.spectra", "disk_spectrum", "spectra.disk_spectrum"),
    ("billiard_weyl.spectra", "bessel_zeros_bracketed", "spectra.bessel_zeros_bracketed"),
    ("billiard_weyl.spectra", "rectangle_spectrum", "spectra.rectangle_spectrum"),
    ("billiard_weyl.spectra", "staircase_residual", "spectra.staircase_residual"),
    ("billiard_weyl.birkhoff", "bounce_map", "birkhoff.bounce_map"),
    ("billiard_weyl.birkhoff", "chain_product", "birkhoff.chain_product"),
    ("billiard_weyl.geometry", "frame_at", "geometry.frame_at"),
    ("billiard_weyl.cli", "run", "cli.run"),
)


class Tracer:
    """Records spans of wrapped calls; install() patches, uninstall() restores."""

    def __init__(self, targets=TRACED):
        self.targets = targets
        self.spans: list = []            # (name, start, end, parent index, op)
        self.self_time: defaultdict = defaultdict(float)
        self.calls: Counter = Counter()
        self.op = ""                     # label of the operation being run
        self._stack: list = []           # [span index, start, child time]
        self._patched: list = []         # (module, attribute, original)

    def wrap(self, fn, name):
        """``fn`` wrapped so that each call records a span named ``name``."""
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1][0] if stack else -1
            frame = [index, clock(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[1]
                self.self_time[name] += duration - frame[2]
                self.calls[name] += 1
                if stack:
                    stack[-1][2] += duration
                spans[index] = (name, frame[1], end, parent, self.op)

        return traced

    def install(self) -> None:
        holders = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "billiard_weyl" or n.startswith("billiard_weyl."))]
        for module_name, attr, name in self.targets:
            home = importlib.import_module(module_name)
            original = getattr(home, attr)
            wrapped = self.wrap(original, name)
            for module in [home] + holders:
                if getattr(module, attr, None) is original:
                    self._patched.append((module, attr, original))
                    setattr(module, attr, wrapped)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def snapshot(self) -> tuple[dict, dict]:
        """Copies of the per-name self times and call counts so far."""
        return dict(self.self_time), dict(self.calls)

    def write(self, path) -> None:
        """Write every span as one JSON line (times in seconds)."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")


def span_cost(calls: int = 20000, repeats: int = 5) -> float:
    """Wall time one span adds to a call: a wrapped no-op less a bare one."""
    def bare():
        return None

    wrapped = Tracer(targets=()).wrap(bare, "calibration")
    costs = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(calls):
            bare()
        t1 = time.perf_counter()
        for _ in range(calls):
            wrapped()
        t2 = time.perf_counter()
        costs.append(((t2 - t1) - (t1 - t0)) / calls)
    return statistics.median(costs)
