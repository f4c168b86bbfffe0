"""Spans around hankelkit's public functions, installed from outside the program.

``Tracer.install`` replaces every ``hankelkit.*`` module binding of each
listed function with a wrapper.  Names imported with ``from .x import y``
are bound in several module namespaces, and replacing only the defining
module's binding would miss every cross-module call.

Each wrapper records a span (request id, span id, parent span id, name,
start, end) and adds to the function's call count and self time, which is
the span's duration minus the time its traced child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter, defaultdict
from time import perf_counter

# Public functions per layer, keyed by hankelkit module.
TRACED = {
    "core": ("fraction_free_det", "determinant_transform", "bottom_row_minors", "echelonize", "solve_unique"),
    "polynomials": ("poly_P", "poly_Q", "jacobi_from_moments"),
    "approximants": ("degree_profile", "recurrence_coeffs"),
    "rank": ("hankel_rank",),
    "inverse": ("frobenius_check", "solve_inverse"),
    "measures": ("isolate_real_roots", "psd_finite_rank_check", "recover_measure", "verify_moments"),
    "cli": ("main", "build_parser"),
    "scalars": ("parse_rational",),
}

# Spans kept for the trace file; counts and self times cover every call.
MAX_SPANS = 200_000


def traced_names() -> list[str]:
    return [f"{layer}.{name}" for layer, names in TRACED.items() for name in names]


class Tracer:
    def __init__(self) -> None:
        self.request = 0
        self.calls: Counter[str] = Counter()
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.spans: list[tuple] = []
        self.dropped = 0
        self._stack: list[list] = []  # [span id, child seconds] of open spans
        self._next_id = 0

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._next_id += 1
            span_id = self._next_id
            parent = self._stack[-1][0] if self._stack else None
            frame = [span_id, 0.0]
            self._stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                duration = end - start
                self.calls[name] += 1
                self.self_s[name] += duration - frame[1]
                if self._stack:
                    self._stack[-1][1] += duration
                if len(self.spans) < MAX_SPANS:
                    self.spans.append((self.request, span_id, parent, name, start, end))
                else:
                    self.dropped += 1

        return wrapper

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items()) if key == "hankelkit" or key.startswith("hankelkit.")]
        for layer, names in TRACED.items():
            module = importlib.import_module(f"hankelkit.{layer}")
            for name in names:
                original = getattr(module, name)
                wrapper = self.wrap(f"{layer}.{name}", original)
                for target in modules:
                    for attr, value in list(vars(target).items()):
                        if value is original:
                            setattr(target, attr, wrapper)
