"""Per-layer tracing from outside the package.

``install`` replaces module-level function bindings of ``ffactors`` with
timing and counting wrappers.  A function imported by name into another
module (``components_masks`` into ``tutte`` and ``invariants``, for
example) is wrapped at every binding, so each call passes exactly one
wrapper whichever module makes it.

Each wrapper adds its duration to its caller's child time, so a layer's
self time is its duration minus that of the wrapped calls it makes.
Coarse calls also record a span (name, start, end, parent span, operation);
the hot inner calls (one per pair, cutset or flow) are only counted and
timed, because a span each would not fit in memory.
"""

from __future__ import annotations

import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

# (module, function) -> (layer, hot)
LAYERS = {
    ("instances", "parse_instance"): ("instances.parse_s", False),
    ("instances", "serialize_instance"): ("instances.serialize_s", False),
    ("instances", "instance_digest"): ("instances.serialize_s", False),
    ("reports", "build_report"): ("reports.build_s", False),
    ("reports", "dumps_report"): ("reports.build_s", False),
    ("reports", "recheck_report"): ("reports.recheck_s", False),
    ("solver", "find_f_factor"): ("solver.find_f_factor_self_s", False),
    ("solver", "tutte_gadget"): ("solver.gadget_s", False),
    ("solver", "_blossom_matching"): ("solver.matching_s", False),
    ("tutte", "find_violating_pair"): ("tutte.search_s", False),
    ("tutte", "deficiency"): ("tutte.search_s", False),
    ("tutte", "_evaluate"): ("tutte.search_s", True),
    ("graph", "components_masks"): ("graph.components_s", True),
    ("invariants", "stability_number"): ("invariants.alpha_s", False),
    ("invariants", "vertex_connectivity"): ("invariants.kappa_s", False),
    ("invariants", "_vertex_disjoint_paths"): ("invariants.kappa_s", True),
    ("invariants", "is_t_odd_tough"): ("invariants.odd_tough_s", False),
    ("invariants", "odd_toughness"): ("invariants.odd_tough_s", False),
    ("invariants", "find_small_odd_tough_violation"): ("invariants.odd_tough_s", False),
    ("theorems", "check_main_theorem"): ("theorems.check_s", False),
    ("theorems", "check_corollary_kappa"): ("theorems.check_s", False),
}

# counts per call, by function, and by the module whose binding was called
CALL_COUNTS = {
    ("tutte", "_evaluate"): "tutte.pairs_evaluated",
    ("invariants", "_vertex_disjoint_paths"): "invariants.kappa_flow_calls",
}
BINDING_COUNTS = {
    ("graph", "components_masks", "tutte"): "tutte.components_calls",
    ("graph", "components_masks", "invariants"): "invariants.components_calls",
}

class Tracer:
    def __init__(self):
        self.self_time = defaultdict(float)
        self.counts = Counter()
        self.spans = []
        self.child = [0.0]
        self.ids = [0]
        self.next_id = 1
        self.op = None
        self.ops = 0

    def begin_op(self, op_key: str) -> None:
        self.op = op_key
        self.child = [0.0]
        self.ids = [self.next_id]
        self.next_id += 1

    def end_op(self, start: float, end: float) -> None:
        self.self_time["cli.self_s"] += (end - start) - self.child[0]
        self.spans.append(("op", start, end, None, self.ids[0], self.op))
        self.ops += 1

    def _wrap(self, fn, name, layer, hot, count_keys):
        tracer = self

        if hot:
            def wrapper(*args, **kwargs):
                child = tracer.child
                child.append(0.0)
                start = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    took = perf_counter() - start
                    inner = child.pop()
                    child[-1] += took
                    tracer.self_time[layer] += took - inner
                    for key in count_keys:
                        tracer.counts[key] += 1
        else:
            def wrapper(*args, **kwargs):
                child, ids = tracer.child, tracer.ids
                parent = ids[-1]
                sid = tracer.next_id
                tracer.next_id += 1
                child.append(0.0)
                ids.append(sid)
                start = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = perf_counter()
                    inner = child.pop()
                    ids.pop()
                    child[-1] += end - start
                    tracer.self_time[layer] += (end - start) - inner
                    tracer.spans.append((name, start, end, parent, sid, tracer.op))
                if name == "solver.tutte_gadget":
                    tracer.counts["solver.gadget_vertices"] += result.size
                    tracer.counts["solver.gadget_edges"] += sum(map(len, result.adj)) // 2
                return result

        return wrapper

    def install(self, package: str = "ffactors") -> None:
        modules = {name[len(package) + 1:]: mod for name, mod in sys.modules.items()
                   if name.startswith(package + ".")}
        modules[""] = sys.modules[package]
        for (mod_name, fn_name), (layer, hot) in LAYERS.items():
            original = getattr(modules[mod_name], fn_name)
            for binder, mod in modules.items():
                for attr, value in list(vars(mod).items()):
                    if value is not original:
                        continue
                    keys = [k for k in (CALL_COUNTS.get((mod_name, fn_name)),
                                        BINDING_COUNTS.get((mod_name, fn_name, binder)))
                            if k]
                    setattr(mod, attr, self._wrap(original, f"{mod_name}.{fn_name}",
                                                  layer, hot, keys))

    def metrics(self, per_layer: list) -> dict:
        """Per-operation means of every metric in ``per_layer`` (the
        BENCHMARK.json entries)."""
        ops = max(self.ops, 1)
        values = dict(self.self_time)
        values["solver.find_f_factor_s"] = (values.get("solver.find_f_factor_self_s", 0.0)
                                            + values.get("solver.gadget_s", 0.0)
                                            + values.get("solver.matching_s", 0.0))
        values.update(self.counts)
        return {m["name"]: {"value": values.get(m["name"], 0) / ops, "unit": m["unit"]}
                for m in per_layer}

    def shares(self) -> dict:
        """Each layer's share of total operation time (self times, which
        partition it)."""
        total = sum(self.self_time.values()) or 1.0
        return {layer: t / total for layer, t in sorted(self.self_time.items())}

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, sid, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "id": sid, "op": op}) + "\n")
