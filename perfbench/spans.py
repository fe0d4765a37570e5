"""Outside-in span recorder for emitterlab's public functions.

Each traced layer is a ``<module>.<function>`` name.  ``Tracer.install``
replaces the function at its module attribute, and at every other
emitterlab module attribute bound to the same object (the aliases that
``from ... import`` creates), with a wrapper that records one span per
call.  Module code looks its globals up at call time, so calls from inside
the package are seen as well.  ``uninstall`` puts the originals back.

Spans stay in memory until ``summary`` is asked for.  Each span keeps its
layer, start, end, parent and self time (its duration minus the durations
of its direct child spans); the stack of open spans is per thread.

A layer whose module or function no longer exists is reported as absent
with zero counts, so that a refactor that removes a function does not
break the benchmark.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import threading
import time

PACKAGE = "emitterlab"

# (layer, stats recorded beyond calls and self_s)
LAYERS = (
    ("qdyn.build_liouvillian", ()),
    ("qdyn.steady_state", ("fallbacks",)),
    ("qdyn.evolve", ()),
    ("qdyn.evolve_driven", ()),
    ("qdyn.regression_correlator", ()),
    ("lambda_system.at_map2d", ()),
    ("lambda_system.probe_scan", ()),
    ("tls.excitation_lineshape", ()),
    ("tls.rabi_trace_numeric", ()),
    ("tls.pulsed_rabi_scan", ()),
    ("tls.mu_mode_oracle", ("total_s",)),
    ("ramsey.ramsey_population", ()),
    ("ramsey.visibility_curve", ()),
    ("photostats.emission_spectrum", ()),
    ("photostats.g2_curve", ()),
    ("photostats.apply_irf", ()),
    ("photostats.fft_peaks", ()),
    ("synth.synth_counts", ()),
    ("fitkit.lm_fit", ("n_iter", "converged_share")),
    ("csvio.write_csv", ("bytes",)),
    ("csvio.read_csv", ("bytes",)),
    ("svgplot.line_plot", ()),
    ("svgplot.heatmap", ("bytes",)),
    ("cli.main", ()),
)

# Span record fields.
_LAYER, _START, _END, _PARENT, _SELF = range(5)


def metric_names() -> list:
    """Every per-layer metric name, ``<module>.<function>.<stat>``."""
    names = []
    for layer, extras in LAYERS:
        names.append(f"{layer}.calls")
        names.append(f"{layer}.self_s")
        names.extend(f"{layer}.{extra}" for extra in extras)
    return names


def _file_size(args) -> int:
    try:
        return os.path.getsize(args[0])
    except (IndexError, OSError, TypeError):
        return 0


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._local = threading.local()
        self._patches: list = []
        self.absent: list = []
        # per layer: bytes, n_iter, converged, returned
        self._extra = {layer: [0, 0, 0, 0] for layer, _ in LAYERS}

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, layer: str, extras: tuple, func):
        spans = self.spans
        extra = self._extra[layer]
        measure_bytes = "bytes" in extras
        is_fit = "n_iter" in extras
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1][0] if stack else -1
            index = len(spans)
            spans.append(None)
            frame = [index, 0.0]  # [span index, child time]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                spans[index] = (layer, start, end, parent, duration - frame[1])
                if stack:
                    stack[-1][1] += duration
            if measure_bytes:
                extra[0] += _file_size(args)
            if is_fit:
                extra[1] += int(getattr(result, "n_iter", 0))
                extra[2] += int(bool(getattr(result, "converged", False)))
                extra[3] += 1
            return result

        return traced

    def install(self) -> None:
        """Wrap every layer that exists; record the others as absent."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        self.absent = []
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        for layer, extras in LAYERS:
            mod_name, func_name = layer.rsplit(".", 1)
            try:
                module = importlib.import_module(f"{PACKAGE}.{mod_name}")
            except ImportError:
                self.absent.append(layer)
                continue
            original = getattr(module, func_name, None)
            if not callable(original):
                self.absent.append(layer)
                continue
            wrapper = self._wrap(layer, extras, original)
            for mod in modules + [module]:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patches.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches = []

    def summary(self, n_units: int) -> dict:
        """Per-layer metrics divided by ``n_units`` (traced passes or setups)."""
        n_units = max(n_units, 1)
        calls = {layer: 0 for layer, _ in LAYERS}
        self_s = {layer: 0.0 for layer, _ in LAYERS}
        total_s = {layer: 0.0 for layer, _ in LAYERS}
        fallback_spans = set()
        for span in self.spans:
            if span is None:
                continue
            layer = span[_LAYER]
            calls[layer] += 1
            self_s[layer] += span[_SELF]
            total_s[layer] += span[_END] - span[_START]
            parent = span[_PARENT]
            if (layer == "qdyn.evolve" and parent >= 0
                    and self.spans[parent][_LAYER] == "qdyn.steady_state"):
                fallback_spans.add(parent)
        out = {}
        for layer, extras in LAYERS:
            bytes_, n_iter, converged, returned = self._extra[layer]
            out[f"{layer}.calls"] = calls[layer] / n_units
            out[f"{layer}.self_s"] = self_s[layer] / n_units
            for stat in extras:
                if stat == "fallbacks":
                    value = len(fallback_spans) / n_units
                elif stat == "total_s":
                    value = total_s[layer] / n_units
                elif stat == "bytes":
                    value = bytes_ / n_units
                elif stat == "n_iter":
                    value = n_iter / n_units
                else:  # converged_share
                    value = converged / returned if returned else 0.0
                out[f"{layer}.{stat}"] = value
        return out
