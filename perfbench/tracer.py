"""Spans around the calls into each module of luinv, recorded from outside.

`Tracer.install` replaces every public function of the eight layer modules
with a timing wrapper, in every luinv namespace that binds it (a function
imported from `combinatorics` into `dimensions` is wrapped in both), and
wraps `numpy.linalg.svd` to see the rank oracle's matrix.  Spans are kept
in memory; `summary` turns them into the per-layer metrics and `dump`
writes them out.
"""

from __future__ import annotations

import functools
import json
import sys
import time

LAYERS = (
    "combinatorics",
    "characters",
    "dimensions",
    "series",
    "free_group_census",
    "invariants",
    "states",
    "cli",
)

# Inclusive-time metrics: name -> functions whose outermost spans add up.
FUNCTION_METRICS = {
    "series.hilbert_s": ("hilbert_series",),
    "series.euler_s": ("euler_exponents",),
    "dimensions.stable_s": ("stable_dimension",),
    "dimensions.via_characters_s": ("stable_dimension_via_characters",),
    "dimensions.restricted_s": ("restricted_dimension",),
    "characters.irreducible_s": ("irreducible_character",),
    "free_group_census.subgroups_s": ("count_subgroup_classes",),
    "free_group_census.orbits_s": ("conjugation_orbit_count",),
    "invariants.I_vector_s": ("invariant_I_vector",),
    "invariants.J_vector_s": ("invariant_J_vector",),
    "invariants.transform_s": ("j_from_i", "i_from_j"),
    "invariants.meyer_wallach_s": ("meyer_wallach",),
    "states.rank_s": ("invariant_space_rank",),
}


def luinv_modules():
    """The package and its submodules, as currently imported."""
    return [mod for name, mod in sys.modules.items() if name == "luinv" or name.startswith("luinv.")]


def memo_caches():
    """Every lru_cache in luinv, private ones included, so that a process
    that runs several CLI commands can start each with empty memos."""
    caches = []
    for mod in luinv_modules():
        for value in vars(mod).values():
            if hasattr(value, "cache_clear") and getattr(value, "__module__", None) == mod.__name__:
                caches.append(value)
    return caches


class Tracer:
    def __init__(self) -> None:
        # span: [layer, function, start, end, parent index, outermost]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._active: dict[str, int] = {}
        self.recording = False
        self.svd_seconds = 0.0
        self.svd_cols: list[int] = []
        self.ranks: list[int] = []

    def _wrap(self, layer: str, fn):
        name = fn.__name__
        spans, stack, active = self.spans, self._stack, self._active

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            depth = active.get(name, 0)
            span = [layer, name, 0.0, 0.0, stack[-1] if stack else -1, depth == 0]
            stack.append(len(spans))
            spans.append(span)
            active[name] = depth + 1
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()
                active[name] = depth
            if name == "invariant_space_rank":
                self.ranks.append(result)
            return result

        return traced

    def _wrap_svd(self, svd):
        @functools.wraps(svd)
        def traced_svd(a, *args, **kwargs):
            if not self.recording or not self._stack or self.spans[self._stack[-1]][0] != "states":
                return svd(a, *args, **kwargs)
            self.svd_cols.append(int(a.shape[-1]))
            start = time.perf_counter()
            try:
                return svd(a, *args, **kwargs)
            finally:
                self.svd_seconds += time.perf_counter() - start

        return traced_svd

    def install(self) -> None:
        import numpy

        import luinv.cli  # noqa: F401  (the cli layer is looked up too)

        modules = luinv_modules()
        wrappers = {}
        for mod in modules:
            layer = mod.__name__.rpartition(".")[2]
            if layer not in LAYERS:
                continue
            for name, value in vars(mod).items():
                if (
                    not name.startswith("_")
                    and callable(value)
                    and not isinstance(value, type)
                    and getattr(value, "__module__", None) == mod.__name__
                ):
                    wrappers[id(value)] = self._wrap(layer, value)
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if id(value) in wrappers:
                    setattr(mod, name, wrappers[id(value)])
        numpy.linalg.svd = self._wrap_svd(numpy.linalg.svd)

    def summary(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as name -> (value, unit)."""
        child_time = [0.0] * len(self.spans)
        for layer, _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls = {layer: 0 for layer in LAYERS}
        self_s = {layer: 0.0 for layer in LAYERS}
        inclusive: dict[str, float] = {}
        for i, (layer, name, start, end, _, outermost) in enumerate(self.spans):
            calls[layer] += 1
            self_s[layer] += end - start - child_time[i]
            if outermost:
                inclusive[name] = inclusive.get(name, 0.0) + end - start
        out: dict[str, tuple[float, str]] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = (calls[layer], "count")
            out[f"{layer}.self_s"] = (self_s[layer], "s")
        for metric, names in FUNCTION_METRICS.items():
            out[metric] = (sum(inclusive.get(n, 0.0) for n in names), "s")
        cols = sum(self.svd_cols)
        out["states.svd_s"] = (self.svd_seconds, "s")
        out["states.svd_cols"] = (cols, "count")
        out["states.rank_per_col"] = (sum(self.ranks) / cols if cols else 0.0, "ratio")
        return out

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for layer, name, start, end, parent, _ in self.spans:
                handle.write(json.dumps([layer, name, start, end, parent]) + "\n")

