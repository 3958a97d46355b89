"""Spans and captures around the lab's public functions, installed from outside.

The benchmark never edits ``src/``.  It replaces a module-level function by
a wrapper in every loaded ``oraclelab`` module that holds a reference to
it, so calls made through ``from .x import f`` aliases are seen too.

Two kinds of wrapper exist:

* a *capture* records ``(name, args, result)`` of a call so the workload
  checks can inspect objects the experiment entry points do not return
  (compiled oracles, certificates, circuits).  Captures are installed on
  every run.
* a *span* adds the call's self time (its duration minus the time of the
  spans it encloses) and its work counts to a :class:`Tracer`.  Spans are
  installed only on traced runs, so end-to-end metrics carry no tracing
  cost.  Spans are aggregated per name in memory, not kept one by one.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np


def _breakpoints(args, result) -> dict:
    """Distinct phases where a term of the row changes sign, computed from the input."""
    xv = np.asarray(args[0], dtype=complex).ravel()
    nonzero = xv[xv != 0]
    distinct = np.unique(np.mod(np.pi / 2 - np.angle(nonzero), np.pi)).size
    return {"signs.rows": 1, "signs.breakpoints": int(distinct)}


def _gate_amps(args, result) -> dict:
    return {"simcore.gate_applies": 1, "simcore.gate_apply_amps": int(np.size(args[0]))}


def _find_nodes(args, result) -> dict:
    spec = args[0]
    dim = 2**spec.n_symbol_bits
    return {"rfs.find_nodes": sum(dim**k for k in range(spec.depth))}


def _count_calls(key):
    return lambda args, result: {key: 1}


# (module, function, self-time metric, count metrics, counts from (args, result)).
SPANS = (
    ("oraclelab.simcore.circuits", "sample_haar_two_qubit", "simcore.haar_s",
     ("simcore.haar_draws",), _count_calls("simcore.haar_draws")),
    ("oraclelab.simcore.states", "apply_matrix_to_qubits", "simcore.gate_apply_s",
     ("simcore.gate_applies", "simcore.gate_apply_amps"), _gate_amps),
    ("oraclelab.simcore.circuits", "action_matrix", "simcore.action_matrix_s", (), None),
    ("oraclelab.simcore.groups", "qft_cyclic", "simcore.group_build_s", (), None),
    ("oraclelab.simcore.states", "fwht_normalized", "simcore.fwht_s",
     ("simcore.fwht_calls",), _count_calls("simcore.fwht_calls")),
    ("oraclelab.signs", "best_phase_signs", "signs.s",
     ("signs.rows", "signs.breakpoints"), _breakpoints),
    ("oraclelab.dispersion", "certify_dispersing", "dispersion.certify_s",
     ("dispersion.labels",), lambda args, result: {"dispersion.labels": 2 ** args[0].n_qubits}),
    ("oraclelab.oracle", "build_oracle", "oracle.build_s", (), None),
    ("oraclelab.oracle", "identify", "oracle.identify_s",
     ("oracle.identify_calls",), _count_calls("oracle.identify_calls")),
    ("oraclelab.rfs.core", "make_rfs_spec", "rfs.spec_s", (), None),
    ("oraclelab.rfs.find", "find_simulate", "rfs.find_s", ("rfs.find_nodes",), _find_nodes),
    ("oraclelab.rfs.classical", "classical_solver", "rfs.classical_s",
     ("rfs.classical_queries",), lambda args, result: {"rfs.classical_queries": result.queries}),
    ("oraclelab.rfs.referee", "z_referee", "rfs.referee_s", (), None),
    ("oraclelab.paulichain", "circuit_collision_sample", "paulichain.collision_s",
     ("paulichain.collision_circuits",), _count_calls("paulichain.collision_circuits")),
    ("oraclelab.paulichain", "two_copy_chunk", "paulichain.two_copy_s",
     ("paulichain.two_copy_samples",),
     lambda args, result: {"paulichain.two_copy_samples": args[0]}),
)

# Experiment entry points get one inclusive span each: experiments.<name>_s.
ENTRY_POINTS = ("dispersion", "oracle", "rfs", "qt", "ad2")

CAPTURES = (
    ("oraclelab.simcore.circuits", "run_random_circuit"),
    ("oraclelab.dispersion", "certify_dispersing"),
    ("oraclelab.oracle", "build_oracle"),
    ("oraclelab.rfs.find", "find_simulate"),
    ("oraclelab.rfs.classical", "classical_solver"),
)


def layer_metrics() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for _module, _fn, time_key, count_keys, _counts in SPANS:
        units.update((key, "count") for key in count_keys)
        units[time_key] = "s"
    units.update((f"experiments.{name}_s", "s") for name in ENTRY_POINTS)
    return units


class Tracer:
    """Self times and work counts, summed per metric name."""

    def __init__(self):
        self.totals: defaultdict[str, float] = defaultdict(float)
        # Time covered by enclosed spans, one accumulator per open span.
        self._child_time = [0.0]

    def span(self, fn, time_key: str, counts=None, inclusive: bool = False):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._child_time
            stack.append(0.0)
            started = perf_counter()
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                duration = perf_counter() - started
                children = stack.pop()
                self.totals[time_key] += duration if inclusive else duration - children
                if ok and counts is not None:
                    for key, value in counts(args, result).items():
                        self.totals[key] += value
                # The enclosing span excludes this call, its counting included.
                stack[-1] += perf_counter() - started

        return wrapper


class Capture:
    """Calls recorded since the last :meth:`take`, as ``(name, args, result)``."""

    def __init__(self):
        self.calls: list[tuple[str, tuple, object]] = []

    def wrap(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.calls.append((fn.__name__, args, result))
            return result

        return wrapper

    def take(self) -> list[tuple[str, tuple, object]]:
        calls, self.calls = self.calls, []
        return calls


def _replace_everywhere(original, wrapper) -> None:
    for name, module in list(sys.modules.items()):
        if name == "oraclelab" or name.startswith("oraclelab."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)


def install(capture: Capture, tracer: Tracer | None) -> None:
    """Wrap the lab's functions: captures always, spans when ``tracer`` is given."""
    for module_name, fn_name in CAPTURES:
        original = getattr(importlib.import_module(module_name), fn_name)
        _replace_everywhere(original, capture.wrap(original))
    if tracer is None:
        return
    for module_name, fn_name, time_key, _count_keys, counts in SPANS:
        original = getattr(importlib.import_module(module_name), fn_name)
        _replace_everywhere(original, tracer.span(original, time_key, counts))
    experiments = importlib.import_module("oraclelab.experiments")
    for name in ENTRY_POINTS:
        original = getattr(experiments, f"run_{name}")
        _replace_everywhere(
            original, tracer.span(original, f"experiments.{name}_s", inclusive=True)
        )
