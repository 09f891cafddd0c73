"""Per-layer tracing from outside the program.

The traced run wraps each target function at every name the package binds
it to (``adesurf.localmodel.rank``, ``adesurf.spectral.irreducible_factors``,
...), so calls made inside the package are seen as well as the
benchmark's own.  Spans (name, start, end, parent, counts) are kept in
memory and written out when the run ends.  A layer's self time is its
span's duration minus the time its wrapped children cover.
"""

from __future__ import annotations

import importlib
import json
import math
import sys
import time

# (span name, module, attribute, counter); a counter maps (args, result)
# to the deterministic counts recorded on the span.


def _box(args, res):
    bounds = args[1]
    return {"box_volume": math.prod(2 * b + 1 for b in bounds), "solutions": len(res)}


def _matrix(args, res):
    mat = args[0]
    cols = len(mat[0]) if mat else 0
    return {"entries": len(mat) * cols, "nonzeros": sum(1 for row in mat for x in row if x)}


TARGETS = [
    ("linesroots.bounds", "adesurf.linesroots", "coefficient_bounds", None),
    ("linesroots.classes", "adesurf.linesroots", "enumerate_classes", None),
    ("linesroots.roots", "adesurf.linesroots", "enumerate_roots", None),
    ("linesroots.orbit", "adesurf.linesroots", "weyl_orbit", lambda a, r: {"size": len(r)}),
    ("enumkernel.sweep", "adesurf._enumkernel", "enumerate_diag", _box),
    ("divisors.effectivity", "adesurf.divisors", "is_effective", lambda a, r: {"nodes": r.nodes_used}),
    ("divisors.ext", "adesurf.divisors", "ext_profile", None),
    ("transform.transform", "adesurf.transform", "transform", None),
    ("bundles.restrict", "adesurf.bundles", "restrict_to_boundary", None),
    ("spectral.discriminant", "adesurf.spectral", "discriminant", lambda a, r: {"degree": r.degree}),
    ("qpoly.rational_roots", "adesurf.qpoly", "rational_roots", None),
    ("qpoly.factor", "adesurf.qpoly", "irreducible_factors", None),
    ("localmodel.check_generate", "adesurf.localmodel", "check_generate", None),
    ("localmodel.check_free", "adesurf.localmodel", "check_free", None),
    ("localmodel.min_generators", "adesurf.localmodel", "min_generator_profile", None),
    ("localmodel.verify", "adesurf.localmodel", "verify_extension_chain", None),
    ("localmodel.basis", "adesurf.localmodel", "TruncRing.basis", None),
    ("linalg.rank", "adesurf._linalg", "rank", _matrix),
    ("linalg.nullspace", "adesurf._linalg", "nullspace", _matrix),
    ("cli.run", "adesurf.cli", "run", None),
    ("json.dumps", "adesurf._json", "dumps", None),
]

# per-layer metric -> (unit, better); every value is per round of the
# workload's operation list unless the README says otherwise
METRICS = {
    "linesroots.bounds_ms": ("ms", "lower"),
    "linesroots.bounds_calls": ("count", "lower"),
    "linesroots.classes_ms": ("ms", "lower"),
    "linesroots.roots_ms": ("ms", "lower"),
    "linesroots.orbit_ms": ("ms", "lower"),
    "linesroots.orbit_size": ("count", "lower"),
    "enumkernel.sweep_ms": ("ms", "lower"),
    "enumkernel.box_volume": ("count", "lower"),
    "enumkernel.solutions": ("count", "lower"),
    "enumkernel.hit_ratio": ("ratio", "higher"),
    "divisors.effectivity_ms": ("ms", "lower"),
    "divisors.effectivity_calls": ("count", "lower"),
    "divisors.search_nodes": ("count", "lower"),
    "divisors.ext_ms": ("ms", "lower"),
    "transform.transform_ms": ("ms", "lower"),
    "bundles.restrict_ms": ("ms", "lower"),
    "spectral.discriminant_ms": ("ms", "lower"),
    "spectral.discriminant_degree": ("count", "lower"),
    "qpoly.rational_roots_ms": ("ms", "lower"),
    "qpoly.factor_ms": ("ms", "lower"),
    "localmodel.check_generate_ms": ("ms", "lower"),
    "localmodel.check_free_ms": ("ms", "lower"),
    "localmodel.min_generators_ms": ("ms", "lower"),
    "localmodel.verify_ms": ("ms", "lower"),
    "localmodel.basis_ms": ("ms", "lower"),
    "linalg.rank_ms": ("ms", "lower"),
    "linalg.rank_calls": ("count", "lower"),
    "linalg.nullspace_ms": ("ms", "lower"),
    "linalg.matrix_entries": ("count", "lower"),
    "linalg.nonzero_ratio": ("ratio", "lower"),
    "cli.interpreter_ms": ("ms", "lower"),
    "cli.import_ms": ("ms", "lower"),
    "cli.run_ms": ("ms", "lower"),
    "json.dumps_ms": ("ms", "lower"),
    "trace.overhead_pct": ("%", "lower"),
}


# metrics whose span is not the metric name's prefix
OWNERS = {
    "enumkernel.box_volume": "enumkernel.sweep",
    "enumkernel.solutions": "enumkernel.sweep",
    "enumkernel.hit_ratio": "enumkernel.sweep",
    "divisors.search_nodes": "divisors.effectivity",
    "linalg.matrix_entries": "linalg.rank",
    "linalg.nonzero_ratio": "linalg.rank",
}


def _resolve(module, attr):
    """(owner object, attribute name, original) or None when the target is gone."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    orig = getattr(owner, name, None)
    return None if orig is None else (owner, name, orig)


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, counts]
        self._stack = []
        self._patched = []  # (owner, name, original)
        self.missing = []

    def _wrap(self, span_name, fn, counter):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            span = [span_name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                res = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if counter is not None:
                span[4] = counter(args, res)
            return res

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        """Wrap every target at each name the package binds it to."""
        self.missing = []
        for span_name, module, attr, counter in TARGETS:
            found = _resolve(module, attr)
            if found is None:
                self.missing.append(span_name)
                continue
            owner, name, orig = found
            wrapper = self._wrap(span_name, orig, counter)
            if "." in attr:
                self._patched.append((owner, name, orig))
                setattr(owner, name, wrapper)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] != "adesurf" or mod is None:
                    continue
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._patched.append((mod, key, orig))
                        setattr(mod, key, wrapper)

    def uninstall(self):
        for owner, name, orig in reversed(self._patched):
            setattr(owner, name, orig)
        self._patched.clear()

    def layer_metrics(self, rounds, scale):
        """Per-round layer metrics, times scaled by `scale`; a target that no longer exists reads None."""
        self_ms, calls, counts = {}, {}, {}
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _c in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, _parent, cnt) in enumerate(self.spans):
            inclusive = name == "cli.run"  # the whole in-process query
            self_ms[name] = self_ms.get(name, 0.0) + 1000 * (end - start - (0 if inclusive else child[i]))
            calls[name] = calls.get(name, 0) + 1
            for key, v in (cnt or {}).items():
                counts[(name, key)] = counts.get((name, key), 0) + v

        def per_round(v):
            return v / rounds

        out = {}
        for span_name, _m, _a, _c in TARGETS:
            out[f"{span_name}_ms"] = per_round(self_ms.get(span_name, 0.0)) * scale
        out["linesroots.bounds_calls"] = per_round(calls.get("linesroots.bounds", 0))
        out["linesroots.orbit_size"] = per_round(counts.get(("linesroots.orbit", "size"), 0))
        box = counts.get(("enumkernel.sweep", "box_volume"), 0)
        sols = counts.get(("enumkernel.sweep", "solutions"), 0)
        out["enumkernel.box_volume"] = per_round(box)
        out["enumkernel.solutions"] = per_round(sols)
        out["enumkernel.hit_ratio"] = sols / box if box else 0.0
        out["divisors.effectivity_calls"] = per_round(calls.get("divisors.effectivity", 0))
        out["divisors.search_nodes"] = per_round(counts.get(("divisors.effectivity", "nodes"), 0))
        out["spectral.discriminant_degree"] = per_round(counts.get(("spectral.discriminant", "degree"), 0))
        out["linalg.rank_calls"] = per_round(calls.get("linalg.rank", 0))
        entries = sum(counts.get((n, "entries"), 0) for n in ("linalg.rank", "linalg.nullspace"))
        nonzeros = sum(counts.get((n, "nonzeros"), 0) for n in ("linalg.rank", "linalg.nullspace"))
        out["linalg.matrix_entries"] = per_round(entries)
        out["linalg.nonzero_ratio"] = nonzeros / entries if entries else 0.0
        for metric in out:
            owner = OWNERS.get(metric, metric.rsplit("_", 1)[0])
            if owner in self.missing:
                out[metric] = None
        return out

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"missing": self.missing, "spans": self.spans}, fh, separators=(",", ":"))
