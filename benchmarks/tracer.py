"""Spans around calls into nnlab's public functions, installed at run time.

The tracer replaces each listed function with a wrapper, in every ``nnlab``
module that holds it (``from .nngraph import build_nn_directed`` in ``cli``
is caught too), and puts the originals back on ``remove``.  A wrapper records
a span (name, start, end, parent) in memory; self time is a span's length
minus the time its child spans cover.  Per-site methods get a bare call
counter instead of a span, and file readers and writers also add the size of
the file they touched.  Nothing in ``src/`` changes.

A name that a later change removes or renames is reported as absent and the
run goes on.  Only public names are wrapped.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from pathlib import Path

import click

# (metric prefix, module, attribute paths in that module, what to record)
# "span": self time and calls; "bytes": also the size of the file at `path`;
# "count": calls only, for per-site methods where a span would cost more
# than the work it measures.
TARGETS = [
    ("cli.generate", "nnlab.cli", ["generate"], "span"),
    ("cli.verify", "nnlab.cli", ["verify"], "span"),
    ("cli.export", "nnlab.cli", ["export"], "span"),
    ("cli.census", "nnlab.cli", ["census"], "span"),
    ("generators.build", "nnlab.generators", ["GeneratorSpec.build"], "span"),
    ("generators.gen_finite_k", "nnlab.generators", ["gen_finite_k"], "span"),
    ("generators.finite_k_membership", "nnlab.generators", ["finite_k_membership"], "span"),
    ("generators.gen_zerner_merkl", "nnlab.generators", ["gen_zerner_merkl"], "span"),
    ("generators.gen_dyadic_window", "nnlab.generators", ["gen_dyadic_window"], "span"),
    ("generators.gen_layered", "nnlab.generators", ["gen_layered"], "span"),
    ("generators.modify_type_c", "nnlab.generators", ["modify_type_c"], "span"),
    ("nngraph.build_nn_directed", "nnlab.nngraph", ["build_nn_directed"], "span"),
    ("nngraph.undirected_components", "nnlab.nngraph", ["undirected_components"], "span"),
    ("nngraph.backward_sizes", "nnlab.nngraph", ["backward_sizes"], "span"),
    ("nngraph.terminal_map", "nnlab.nngraph", ["terminal_map"], "span"),
    ("nngraph.verify_all_components", "nnlab.nngraph", ["verify_all_components"], "span"),
    ("nngraph.outmap_init", "nnlab.nngraph", ["OutMap.__init__"], "span"),
    ("stats.census_once", "nnlab.stats", ["census_once"], "span"),
    ("stats.system_span_count", "nnlab.stats", ["system_span_count"], "span"),
    ("stats.core_infinite_count", "nnlab.stats", ["core_infinite_count"], "span"),
    ("weights.sample_iid_uniform", "nnlab.weights", ["sample_iid_uniform"], "span"),
    ("weights.construct_weights", "nnlab.weights", ["construct_weights"], "span"),
    ("weights.verify_theorem3_preconditions", "nnlab.weights", ["verify_theorem3_preconditions"], "span"),
    ("weights.all_distinct", "nnlab.weights", ["WeightField.all_distinct"], "span"),
    ("topology.classify_regions", "nnlab.topology", ["classify_regions"], "span"),
    ("topology.closure", "nnlab.topology", ["closure"], "span"),
    ("topology.boundary_edges", "nnlab.topology", ["boundary_edges"], "span"),
    ("topology.dual_boundary", "nnlab.topology", ["dual_boundary"], "span"),
    ("topology.check_degree_two", "nnlab.topology", ["check_degree_two"], "span"),
    ("topology.check_closure_idempotent", "nnlab.topology", ["check_closure_idempotent"], "span"),
    ("topology.check_neighbor_hole", "nnlab.topology", ["check_neighbor_hole"], "span"),
    ("serialize.write_outmap_jsonl", "nnlab.serialize", ["write_outmap_jsonl"], "bytes"),
    ("serialize.read_outmap_jsonl", "nnlab.serialize", ["read_outmap_jsonl"], "bytes"),
    ("serialize.write_weights_csv", "nnlab.serialize", ["write_weights_csv"], "bytes"),
    ("serialize.read_weights_csv", "nnlab.serialize", ["read_weights_csv"], "bytes"),
    ("serialize.file_sha256", "nnlab.serialize", ["file_sha256"], "span"),
    ("serialize.write_manifest", "nnlab.serialize", ["write_manifest"], "span"),
    ("svgexport.render_outmap_svg", "nnlab.svgexport", ["render_outmap_svg"], "span"),
    ("svgexport.write_svg", "nnlab.svgexport", ["write_svg"], "bytes"),
    ("lattice.index_coords", "nnlab.lattice", ["Box.index_coords", "Torus.index_coords"], "span"),
    ("lattice.site_index", "nnlab.lattice", ["Box.site_index", "Torus.site_index"], "count"),
    ("lattice.index_site", "nnlab.lattice", ["Box.index_site", "Torus.index_site"], "count"),
]

# Test oracles the program keeps for now and means to move to tests/; the
# benchmark never wraps or calls them.
ORACLES = frozenset({
    "closure_reference", "site_components", "flood_fill_components", "unionfind",
    "exhaustive_connection_check", "forward_closure", "r_descendant",
    "verify_component_structure",
})


def metric_names() -> list:
    """(name, unit) of every per-layer metric, in a fixed order."""
    out = []
    for prefix, _, _, kind in TARGETS:
        if kind != "count":
            out.append((prefix + ".self_s", "s"))
        out.append((prefix + ".calls", "count"))
        if kind == "bytes":
            out.append((prefix + ".bytes", "bytes"))
    return out


def _is_public(path: str) -> bool:
    return all(not p.startswith("_") or (p.startswith("__") and p.endswith("__"))
               for p in path.split("."))


class Tracer:
    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list = []  # [name, start, end, parent index]
        self.stack: list = []
        self.calls: dict = {t[0]: 0 for t in targets}
        self.nbytes: dict = {t[0]: 0 for t in targets if t[3] == "bytes"}
        self.absent: list = []
        self._undo: list = []

    # ---- wrappers ---------------------------------------------------------------

    def _span_wrapper(self, name, fn, kind):
        spans, stack, calls, nbytes = self.spans, self.stack, self.calls, self.nbytes
        clock = time.perf_counter
        sig = inspect.signature(fn) if kind == "bytes" else None

        def wrapper(*args, **kwargs):
            calls[name] += 1
            i = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(i)
            try:
                return fn(*args, **kwargs)
            finally:
                spans[i][2] = clock()
                stack.pop()
                if sig is not None:
                    path = sig.bind(*args, **kwargs).arguments.get("path")
                    if path is not None and Path(path).exists():
                        nbytes[name] += Path(path).stat().st_size

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_wrapper(self, name, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # ---- install / remove ---------------------------------------------------------

    def install(self):
        for name, modname, paths, kind in self.targets:
            for path in paths:
                if not _is_public(path) or path.split(".")[-1] in ORACLES:
                    raise ValueError(f"refusing to trace {modname}.{path}")
                if not self._install_one(name, modname, path, kind):
                    self.absent.append(f"{modname}.{path}")
        return self

    def _install_one(self, name, modname, path, kind) -> bool:
        try:
            owner = importlib.import_module(modname)
        except ImportError:
            return False
        parts = path.split(".")
        for p in parts[:-1]:
            owner = getattr(owner, p, None)
            if owner is None:
                return False
        attr = parts[-1]
        orig = getattr(owner, attr, None)
        if orig is None:
            return False
        if isinstance(orig, click.Command):
            # a CLI verb: time its callback, the verb's own body
            self._set(orig, "callback", self._span_wrapper(name, orig.callback, kind))
            return True
        wrap = (self._count_wrapper(name, orig) if kind == "count"
                else self._span_wrapper(name, orig, kind))
        if inspect.isclass(owner):
            self._set(owner, attr, wrap)
            return True
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("nnlab"):
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._set(mod, key, wrap)
        return True

    def _set(self, owner, attr, value):
        had_own = attr in vars(owner)
        self._undo.append((owner, attr, vars(owner).get(attr), had_own))
        setattr(owner, attr, value)

    def remove(self):
        for owner, attr, old, had_own in reversed(self._undo):
            if had_own:
                setattr(owner, attr, old)
            else:
                delattr(owner, attr)
        self._undo.clear()

    # ---- results ---------------------------------------------------------------------

    def self_times(self) -> dict:
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict = {}
        for (name, start, end, _), c in zip(self.spans, child):
            out[name] = out.get(name, 0.0) + (end - start - c)
        return out

    def metrics(self) -> dict:
        selfs = self.self_times()
        vals = {}
        for name, _, _, kind in self.targets:
            if kind != "count":
                vals[name + ".self_s"] = selfs.get(name, 0.0)
            vals[name + ".calls"] = self.calls[name]
            if kind == "bytes":
                vals[name + ".bytes"] = self.nbytes[name]
        return vals

    def dump(self, path):
        doc = {
            "absent": self.absent,
            "spans": [{"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in self.spans],
        }
        Path(path).write_text(json.dumps(doc) + "\n")
