"""Spans around the public functions of rds_kit, recorded from outside it.

Every module of the package imports its collaborators by name (``from .core
import realization_from_global_edges``), so a wrapper only takes effect where
it replaces the very name each caller looks up.  :class:`Tracer` wraps one
function once and binds the wrapper under every module attribute that held
the original, and :meth:`Tracer.uninstall` puts the originals back.

One span per call is kept in memory (layer, parent span, start, end) and
written out by :meth:`Tracer.save`.  A layer's self time is its span time
minus the time of its direct child spans, so the self times of all layers add
up to the traced time without double counting.
"""

from __future__ import annotations

import functools
import sys
from array import array
from time import perf_counter


def _steps_of_run_chain(args, kwargs, result):
    return kwargs.get("steps", args[2] if len(args) > 2 else 0)


def _steps_of_edge_frequency(args, kwargs, result):
    names = ("inst", "start", "pair", "n_samples", "burn_in", "thin")
    bound = dict(zip(names, args), **kwargs)
    return bound["burn_in"] + bound["n_samples"] * bound["thin"]


# (layer, defining module, function, optional (counter, fn(args, kwargs, result)))
TARGETS = (
    ("cli", "rds_kit.cli", "main", None),
    ("core.validate", "rds_kit.core", "validate_instance", None),
    ("core.validate", "rds_kit.core", "bipartite_instance", None),
    ("core.realization", "rds_kit.core", "realization_from_global_edges", None),
    ("core.adjacency", "rds_kit.core", "adjacency_matrix", None),
    ("construct.greedy", "rds_kit.construct", "greedy_construct", None),
    ("chain.walk", "rds_kit.chain", "run_chain", ("chain.proposals", _steps_of_run_chain)),
    ("chain.walk", "rds_kit.chain", "sample_edge_frequency",
     ("chain.proposals", _steps_of_edge_frequency)),
    ("chain.classify", "rds_kit.chain", "classify_move", None),
    ("counting", "rds_kit.counting", "approx_count", None),
    ("counting.branch", "rds_kit.counting", "branch_split", None),
    ("oracle.enumerate", "rds_kit.oracle", "enumerate_all",
     ("oracle.states", lambda args, kwargs, result: len(result))),
    ("paths.verify", "rds_kit.paths", "verify_theta_omega",
     ("paths.path_steps", lambda args, kwargs, result: len(result.steps))),
    ("paths.canonical", "rds_kit.paths", "canonical_path", None),
    ("paths.repair", "rds_kit.paths", "switch_repair", None),
    ("swaps.decompose", "rds_kit.swaps", "decompose_symmetric_difference", None),
    ("swaps.circuit", "rds_kit.swaps", "make_circuit", None),
)

LAYERS = tuple(dict.fromkeys(layer for layer, *_ in TARGETS))


class Tracer:
    """Span recorder; install() binds the wrappers, uninstall() removes them."""

    def __init__(self) -> None:
        self.layer_ids = {name: i for i, name in enumerate(LAYERS)}
        self.span_layer = array("H")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        # per layer: outermost calls, self seconds, inclusive seconds of outermost calls
        self.calls = dict.fromkeys(LAYERS, 0)
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.inclusive_s = dict.fromkeys(LAYERS, 0.0)
        self.counters: dict[str, int] = {}
        self._stack: list[list] = []  # [span index, layer, child seconds]
        self._bindings: list[tuple[object, str, object]] = []

    def _wrap(self, layer: str, fn, counter):
        layer_id = self.layer_ids[layer]
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            index = len(self.span_start)
            frame = [index, layer, 0.0]
            self.span_layer.append(layer_id)
            self.span_parent.append(parent[0] if parent else -1)
            self.span_end.append(0.0)
            stack.append(frame)
            start = perf_counter()
            self.span_start.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                self.span_end[index] = end
                duration = end - start
                self.self_s[layer] += duration - frame[2]
                if parent is not None:
                    parent[2] += duration
                if parent is None or parent[1] != layer:
                    self.calls[layer] += 1
                    self.inclusive_s[layer] += duration
            if counter is not None:
                name, measure = counter
                self.counters[name] = self.counters.get(name, 0) + measure(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "rds_kit"]
        for layer, module_name, attr, counter in TARGETS:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(layer, original, counter)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._bindings.append((module, name, original))
                        setattr(module, name, wrapper)

    def uninstall(self) -> None:
        for module, name, original in reversed(self._bindings):
            setattr(module, name, original)
        self._bindings.clear()

    @property
    def span_count(self) -> int:
        return len(self.span_start)

    def save(self, path: str) -> None:
        """Write every span as arrays: layer index, parent span (-1 for a
        root), start and end in perf_counter seconds."""
        import numpy as np

        np.savez_compressed(
            path,
            layers=np.array(LAYERS),
            layer=np.frombuffer(self.span_layer, dtype=np.uint16),
            parent=np.frombuffer(self.span_parent, dtype=np.int64),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
        )
