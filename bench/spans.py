"""Span tracing of perispec's layers from outside the package.

:func:`install` wraps every public function of each perispec module and
rebinds the name in every perispec module that holds it, so calls made
inside the package go through the wrappers too. Each call records a span
(name, start, end, parent) plus an optional amount of work taken from its
result. Spans stay in compact arrays in memory; :meth:`Tracer.save` writes
them out once the run ends. Untraced runs install no wrappers.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import sys
from array import array
from time import perf_counter

import numpy as np

LAYERS = ("algebra", "superop", "structure", "positivity", "presets", "mapfile", "analysis", "cli", "suite")

# Work counted at a span boundary, read off the function's result.
AMOUNTS = {
    "superop.point_spectrum": lambda r: len(r.points),
    "superop.jordan_closure_check": lambda r: len(r.entries),
    "positivity.randomized_positivity_falsifier": lambda r: r.samples,
    "mapfile.dump_json": len,
}

# Per-layer metrics: (unit, kind, span names). "self" sums self time,
# "calls" counts spans, "amount" sums the recorded amounts.
PER_LAYER = {
    "algebra.null_space_s": ("s", "self", ["algebra.null_space"]),
    "algebra.null_space_calls": ("count", "calls", ["algebra.null_space"]),
    "algebra.general_eigenvalues_s": ("s", "self", ["algebra.general_eigenvalues"]),
    "algebra.hermitian_eig_s": ("s", "self", ["algebra.hermitian_eig"]),
    "algebra.hermitian_eig_calls": ("count", "calls", ["algebra.hermitian_eig"]),
    "algebra.polar_decomposition_s": ("s", "self", ["algebra.polar_decomposition"]),
    "superop.point_spectrum_s": ("s", "self", ["superop.point_spectrum"]),
    "superop.point_spectrum_clusters": ("count", "amount", ["superop.point_spectrum"]),
    "superop.jordan_closure_check_s": ("s", "self", ["superop.jordan_closure_check"]),
    "superop.jordan_products": ("count", "amount", ["superop.jordan_closure_check"]),
    "superop.star_closure_check_s": ("s", "self", ["superop.star_closure_check"]),
    "superop.apply_s": ("s", "self", ["superop.apply"]),
    "superop.apply_calls": ("count", "calls", ["superop.apply"]),
    "superop.invariant_state_s": ("s", "self", ["superop.invariant_state"]),
    "superop.semigroup_law_check_s": ("s", "self", ["superop.semigroup_law_check"]),
    "superop.continuous_eigen_check_s": ("s", "self", ["superop.continuous_eigen_check"]),
    "superop.from_action_s": ("s", "self", ["superop.from_action"]),
    "structure.classify_eigenvector_s": ("s", "self", ["structure.classify_eigenvector"]),
    "structure.classify_eigenvector_calls": ("count", "calls", ["structure.classify_eigenvector"]),
    "positivity.randomized_positivity_falsifier_s": (
        "s",
        "self",
        ["positivity.randomized_positivity_falsifier"],
    ),
    "positivity.falsifier_samples": ("count", "amount", ["positivity.randomized_positivity_falsifier"]),
    "positivity.choi_matrix_s": ("s", "self", ["positivity.choi_matrix"]),
    "positivity.schur_criteria_s": (
        "s",
        "self",
        ["positivity.criterion_epsilon", "positivity.criterion_epsilon_prime"],
    ),
    "positivity.criterion_commuting_s": ("s", "self", ["positivity.criterion_commuting"]),
    "positivity.oracle_psd_calls": ("count", "calls", ["positivity.oracle_psd"]),
    "presets.builder_s": ("s", "self", ["presets.builder"]),
    "presets.builder_calls": ("count", "calls", ["presets.builder"]),
    "mapfile.load_map_file_s": ("s", "self", ["mapfile.load_map_file"]),
    "mapfile.dump_json_s": ("s", "self", ["mapfile.dump_json"]),
    "mapfile.report_bytes": ("bytes", "amount", ["mapfile.dump_json"]),
    "analysis.analyze_s": ("s", "self", ["analysis.analyze"]),
    "cli.main_s": ("s", "self", ["cli.main"]),
    "suite.c03_s": ("s", "self", ["suite.criterion_03"]),
    "suite.c06_s": ("s", "self", ["suite.criterion_06"]),
    "suite.c07_s": ("s", "self", ["suite.criterion_07"]),
}

# Continuous families build their maps through a closure; these factories
# get the closure wrapped as the span "presets.builder".
_FAMILY_FACTORIES = ("presets.build_example1_continuous", "presets.build_example2_continuous")


class Tracer:
    """In-memory span store with one open-span stack (the benchmark is
    single-threaded)."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.amount = array("d")
        self._stack = [-1]

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def __len__(self) -> int:
        return len(self.start)

    def wrap(self, name: str, fn, amount=None):
        nid = self._id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self._stack[-1])
            self.amount.append(0.0)
            self.end.append(0.0)
            self._stack.append(index)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[index] = perf_counter()
                self._stack.pop()
            if amount is not None:
                self.amount[index] = amount(result)
            return result

        return traced

    def _family_factory(self, fn):
        @functools.wraps(fn)
        def build(*args, **kwargs):
            family = fn(*args, **kwargs)
            return dataclasses.replace(family, builder=self.wrap("presets.builder", family.builder))

        return build

    def aggregate(self, first: int, stop: int) -> dict[str, float]:
        """Per-layer metrics over spans [first, stop), one pass of a run."""
        name_id = np.array(self.name_id[first:stop], dtype=np.int64)
        parent = np.array(self.parent[first:stop], dtype=np.int64)
        duration = np.array(self.end[first:stop]) - np.array(self.start[first:stop])
        amount = np.array(self.amount[first:stop])
        has_parent = parent >= first
        children = np.bincount(
            parent[has_parent] - first, weights=duration[has_parent], minlength=stop - first
        )
        own = duration - children
        size = len(self.names)
        by_name = {
            "self": np.bincount(name_id, weights=own, minlength=size),
            "calls": np.bincount(name_id, minlength=size).astype(float),
            "amount": np.bincount(name_id, weights=amount, minlength=size),
        }
        out = {}
        for metric, (_, kind, spans) in PER_LAYER.items():
            ids = [self._ids[s] for s in spans if s in self._ids]
            out[metric] = float(sum(by_name[kind][i] for i in ids))
        return out

    def save(self, path, passes: list[tuple[int, int]]) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.array(self.name_id, dtype=np.int32),
            parent=np.array(self.parent, dtype=np.int32),
            start=np.array(self.start),
            end=np.array(self.end),
            amount=np.array(self.amount),
            passes=np.array(passes, dtype=np.int64).reshape(-1, 2),
        )


def install(tracer: Tracer) -> int:
    """Wrap the public functions of every layer module; returns how many."""
    wrapped = {}
    for layer in LAYERS:
        module = importlib.import_module(f"perispec.{layer}")
        for name, obj in vars(module).items():
            if name.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != module.__name__:
                continue
            span = f"{layer}.{name}"
            fn = tracer._family_factory(obj) if span in _FAMILY_FACTORIES else obj
            wrapped[id(obj)] = (obj, tracer.wrap(span, fn, AMOUNTS.get(span)))
    for module_name, module in list(sys.modules.items()):
        if module_name != "perispec" and not module_name.startswith("perispec."):
            continue
        for attr, value in list(vars(module).items()):
            hit = wrapped.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])
    return len(wrapped)
