"""Per-layer tracing through public names, and fixed-size kernel micro-benches.

``Tracer.install`` replaces each traced public function in every loaded
``quatro`` module that binds it, so calls are seen wherever the calling
module looks the name up. Private (``_``-prefixed) helpers are never
wrapped. A function that no longer exists, or is no longer called, reports
0 calls. Spans are kept in memory and summarised when the run ends.
"""
from __future__ import annotations

import functools
import statistics
import sys
import time
from contextlib import contextmanager

import numpy as np

# Traced name -> module that defines it.
TRACED = {
    "build_walk_hamiltonian": "quatro.walks",
    "boundary_detector": "quatro.walks",
    "pauli_decompose": "quatro.qcore.pauli",
    "evolution_operator": "quatro.qcore.sim",
    "apply_circuit": "quatro.qcore.sim",
    "sample": "quatro.qcore.sim",
}
# Public calls the benchmark makes itself; spans around them come from the
# workload code.
TOP_LEVEL = ("walks.absorbing_walk", "walks.calibrated_walk_model", "sim.run_noisy")


def label(attr: str) -> str:
    return f"{TRACED[attr].rsplit('.', 1)[-1]}.{attr}"


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, int, int, int]] = []  # name, start, end, parent
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        self.spans.append((name, time.perf_counter_ns(), 0, self._stack[-1] if self._stack else -1))
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            name, start, _, parent = self.spans[idx]
            self.spans[idx] = (name, start, time.perf_counter_ns(), parent)

    def _wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def install(self):
        wrappers = {}
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "quatro" or mod_name.startswith("quatro.")):
                continue
            for attr, home in TRACED.items():
                fn = getattr(module, attr, None)
                if getattr(fn, "__module__", None) != home or not callable(fn):
                    continue
                if id(fn) not in wrappers:
                    wrappers[id(fn)] = self._wrap(fn, label(attr))
                setattr(module, attr, wrappers[id(fn)])
                self._patched.append((module, attr, fn))

    def uninstall(self):
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    def summary(self, root: str) -> dict[str, float]:
        """Per-``root``-span means: calls, inclusive ms and self ms per name."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        names = list(TOP_LEVEL) + [label(a) for a in TRACED]
        calls = dict.fromkeys(names, 0)
        incl = dict.fromkeys(names, 0)
        self_ns = dict.fromkeys(names, 0)
        roots, root_ns = 0, 0
        for i, (name, start, end, _) in enumerate(self.spans):
            if name == root:
                roots += 1
                root_ns += end - start
            elif name in calls:
                calls[name] += 1
                incl[name] += end - start
                self_ns[name] += end - start - child_ns[i]
        n = max(roots, 1)
        out = {"trace.call_ms": root_ns / n / 1e6}
        for name in names:
            out[f"{name}.ms"] = incl[name] / n / 1e6
            if name in TOP_LEVEL:
                out[f"{name}.self_ms"] = self_ns[name] / n / 1e6
            else:
                out[f"{name}.calls"] = calls[name] / n
        return out


# --- micro-benches ------------------------------------------------------------

def _seconds_per_op(fn, budget_s: float = 0.25) -> float:
    """Median per-call time over batches of at least 5 ms each."""
    fn()
    reps = 1
    while True:
        t = time.perf_counter()
        for _ in range(reps):
            fn()
        if time.perf_counter() - t >= 5e-3:
            break
        reps *= 2
    samples, deadline = [], time.perf_counter() + budget_s
    while time.perf_counter() < deadline or len(samples) < 5:
        t = time.perf_counter()
        for _ in range(reps):
            fn()
        samples.append((time.perf_counter() - t) / reps)
    return statistics.median(samples)


def microbench(layered_circuit) -> dict[str, float]:
    """Public kernels at the sizes the workloads use; 0 if a kernel is gone."""
    import quatro.qcore as qcore
    import quatro.walks as walks

    from oracle import walk_matrix

    rng = np.random.default_rng(0)
    psi4 = qcore.StateVector.from_amplitudes(rng.standard_normal(16) + 1j * rng.standard_normal(16))
    detector = walks.boundary_detector(3)
    circuit5 = layered_circuit(rng, 5)
    zero5 = qcore.StateVector.zero(5)
    h64 = walk_matrix(64, -0.1, 1.0)
    kernels = {
        # metric: (public name, arguments, scale of seconds per call)
        "sim.apply_circuit.us_per_gate.q4": ("apply_circuit", (detector, psi4), 1e6 / len(detector)),
        "sim.apply_circuit.us_per_gate.q5": ("apply_circuit", (circuit5, zero5), 1e6 / len(circuit5)),
        "sim.measure_and_collapse.us.q4": ("measure_and_collapse", (psi4, 3, rng), 1e6),
        "sim.evolution_operator.ms.d64": ("evolution_operator", (h64, 1.0), 1e3),
        "pauli.pauli_decompose.ms.q6": ("pauli_decompose", (h64,), 1e3),
    }
    out = {}
    for metric, (name, args, scale) in kernels.items():
        fn = getattr(qcore, name, None)
        out[metric] = _seconds_per_op(lambda: fn(*args)) * scale if fn else 0.0
    return out
