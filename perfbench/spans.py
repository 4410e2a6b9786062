"""Spans around the program's public functions, recorded from outside the program.

The tracer swaps every public function of the traced modules for a wrapper
in every module namespace that holds it, so calls made through
``from .x import f`` bindings are seen too.  Each call becomes a span
``[name, parent index, start ns, end ns]`` kept in memory; self time is a
span's duration minus that of its child spans.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import Counter

#: Counts read from the objects that public functions return.
RESULT_COUNTS = {
    "optimize.maximize_EN": ("optimize.evaluations", lambda result: result.evaluations),
    "dicke.ground_state": ("dicke.matvecs", lambda result: result.iterations),
    "dicke.build_hamiltonian": ("dicke.hamiltonian_nnz", lambda result: result.matrix.nnz),
}

#: Private functions traced under a public name.  ``covariance_check`` calls
#: the binomial splitter map directly rather than through apply_beam_splitter.
PRIVATE_SPANS = {("fock", "_apply_beam_splitter_images"): "fock.apply_beam_splitter"}

#: Spans whose self time per operation is reported as "<span>.ms".
TIMED_SPANS = (
    "optimize.maximize_EN",
    "entanglement.eta_minus_sq",
    "entanglement.build_report",
    "moments.center",
    "dicke.build_hamiltonian",
    "dicke.ground_state",
    "dicke.field_moments",
    "fock.squeezed_coherent_vector",
    "fock.expm_apply",
    "fock.apply_beam_splitter",
    "fock.moments_from_vector",
    "fock.two_mode_covariance",
    "entanglement.covariance_from_input",
)

#: Spans whose calls per operation are reported as "<span>.calls".
COUNTED_SPANS = ("optimize.maximize_EN", "entanglement.eta_minus_sq", "fock.expm_apply")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._open: list[int] = []
        self._patched: list[tuple] = []

    def wrap(self, name: str, fn):
        count = RESULT_COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = [name, self._open[-1] if self._open else -1, time.perf_counter_ns(), 0]
            self.spans.append(span)
            self._open.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter_ns()
                self._open.pop()
            if count is not None:
                self.counts[count[0]] += count[1](result)
            return result

        return traced

    def install(self, package, modules) -> None:
        """Trace the public functions of ``modules`` wherever ``package`` holds them."""
        wrappers = {}
        for module in modules:
            layer = module.__name__.rsplit(".", 1)[-1]
            for name, obj in vars(module).items():
                span = PRIVATE_SPANS.get((layer, name))
                if span is None and not name.startswith("_"):
                    span = f"{layer}.{name}"
                if span and inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    wrappers[obj] = self.wrap(span, obj)
        for module in (package, *modules):
            for name, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patched.append((module, name, obj))
                    setattr(module, name, wrappers[obj])

    def uninstall(self) -> None:
        for module, name, obj in reversed(self._patched):
            setattr(module, name, obj)
        self._patched.clear()


def span_table(spans) -> dict:
    """(calls, total self time in ns) per span name."""
    child_ns = [0] * len(spans)
    for _, parent, start, end in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    table = {}
    for (name, _, start, end), covered in zip(spans, child_ns):
        calls, own = table.get(name, (0, 0))
        table[name] = (calls + 1, own + end - start - covered)
    return table


def layer_metrics(table, counts, ops: int) -> dict:
    """Per-operation self times, call counts and result counts, with units."""
    calls = lambda name: table.get(name, (0, 0))[0]  # noqa: E731
    own_ms = lambda name: table.get(name, (0, 0))[1] / 1e6  # noqa: E731
    metrics = {"cli.self_ms": {"value": own_ms("cli.main") / ops, "unit": "ms"}}
    for name in TIMED_SPANS:
        metrics[f"{name}.ms"] = {"value": own_ms(name) / ops, "unit": "ms"}
    for name in COUNTED_SPANS:
        metrics[f"{name}.calls"] = {"value": calls(name) / ops, "unit": "count"}
    for key, _ in RESULT_COUNTS.values():
        metrics[key] = {"value": counts.get(key, 0) / ops, "unit": "count"}
    return metrics
