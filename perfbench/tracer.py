"""Spans and counters recorded around extalg's public functions, from outside.

`Tracer.install()` replaces each function or method listed in `SPANS` with a
wrapper.  Module-level functions are rebound in every `extalg.*` namespace
that holds them, because modules import each other's functions by name
(`from .complexes import minimal_resolution`).  Nothing in `src/extalg`
changes.

A "timed" wrapper records a span: its duration, its self time (duration minus
the time covered by traced child spans) and the edge from its parent span.
A "count" wrapper only counts calls; it is used on hot leaves, where a clock
read per call would swamp the work.  Spans are aggregated in memory by
(parent, name) edge, and spans of the coarse stages are also kept one by one
as a timeline; `dump()` writes both out when the command has finished.
"""

from __future__ import annotations

import json
import sys
import time

_clock = time.perf_counter

# (span name, module, attribute path, kind).  Several attributes may share one
# span name; their spans are then summed under that name.
SPANS = [
    ("linalg.echelon", "linalg", "Echelon.__init__", "timed"),
    ("linalg.kernel_basis", "linalg", "Echelon.kernel_basis", "timed"),
    ("linalg.solve", "linalg", "Echelon.solve", "timed"),
    ("linalg.insert", "linalg", "Eliminator.insert", "timed"),
    ("freealg.word_key", "freealg", "FreeAlgebra.word_key", "count"),
    ("freealg.mul", "freealg", "FreeAlgebra.mul", "count"),
    ("algebra.find_subword", "algebra", "find_subword", "count"),
    ("algebra.reduce", "algebra", "reduce_poly", "count-edge"),
    ("algebra.groebner", "algebra", "buchberger_truncated", "timed"),
    ("algebra.normal_form", "algebra", "GradedAlgebra.normal_form", "timed"),
    ("algebra.morphism_apply", "algebra", "GradedMorphism.apply", "timed"),
    ("complexes.resolution", "complexes", "minimal_resolution", "timed"),
    ("complexes.flat_matrix", "complexes", "FreeComplex.flat_matrix", "timed"),
    ("complexes.apply_diff", "complexes", "FreeComplex.apply_diff", "count"),
    ("complexes.solver_cache", "complexes", "FreeComplex.outgoing_solver", "timed"),
    ("complexes.exactness", "complexes", "verify_exactness", "timed"),
    ("complexes.transform", "complexes", "twist_complex", "timed"),
    ("complexes.transform", "complexes", "induce_up", "timed"),
    ("complexes.transform", "complexes", "mapping_cone", "timed"),
    ("complexes.shift", "complexes", "shift_complex", "timed"),
    ("complexes.shift", "complexes", "internal_shift", "timed"),
    ("cone.build", "cone", "build_cone_resolution", "timed"),
    ("cone.cross_validate", "cone", "cross_validate", "timed"),
    ("ext.lift", "ext", "lift_chain_map", "timed"),
    ("ext.lift_cache", "ext", "ExtAlgebra.lift_basis_cocycle", "timed"),
    ("ext.multiply", "ext", "ExtAlgebra.multiply", "timed"),
    ("ext.functor_map", "ext", "ext_functor_map", "timed"),
    ("ext.tau", "ext", "induced_ext_automorphism", "timed"),
    ("ext.compose", "ext", "compose_ext_maps", "timed"),
    ("ext.map_apply", "ext", "ExtMap.apply", "timed"),
    ("ext.map_apply", "ext", "ExtAutomorphism.apply", "timed"),
    ("smash.product_table", "smash", "ext_product_table", "timed"),
    ("smash.multiply", "smash", "smash_multiply", "timed"),
    ("smash.certify", "smash", "certify_smash", "timed"),
    ("smash.twist_recovery", "smash", "twist_from_factorization", "timed"),
    ("smash.table_mul", "smash", "ProductTable.mul", "count"),
    ("verify.factorization", "verify", "verify_ext_factorization", "timed"),
    ("verify.corollary", "verify", "is_finite_certified", "timed"),
    ("verify.corollary", "verify", "frobenius_check", "timed"),
    ("verify.corollary", "verify", "low_degree_generation_check", "timed"),
    ("cli.main", "cli", "main", "timed"),
]

# Spans called at most a few hundred times per command; each one is kept in
# the timeline as well as in the aggregate.
TIMELINE = {
    "algebra.groebner", "complexes.resolution", "complexes.exactness",
    "complexes.transform", "cone.build", "cone.cross_validate",
    "ext.functor_map", "ext.tau", "ext.compose", "smash.product_table",
    "smash.certify", "smash.twist_recovery", "verify.factorization",
    "verify.corollary", "cli.main",
}


class Tracer:
    def __init__(self):
        self.stack = []      # open spans: [child seconds, name]
        self.stats = {}      # name -> [calls, total s, self s, open depth]
        self.counts = {}     # name -> calls, for count-only wrappers
        self.edges = {}      # (parent, name) -> [calls, total s, self s]
        self.timeline = []   # (name, parent, start s, end s), stage spans only
        self.extra = {"echelon_nnz": 0, "insert_useful": 0,
                      "groebner_elements": 0, "resolution_generators": 0,
                      "product_entries": 0}
        self._origin = _clock()

    # -- wrappers -------------------------------------------------------------

    def _timed(self, name, fn, after):
        stack = self.stack
        stats = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        edges = self.edges
        timeline = self.timeline if name in TIMELINE else None
        origin = self._origin

        def wrapper(*args, **kwargs):
            frame = [0.0, name]
            parent = stack[-1][1] if stack else None
            stack.append(frame)
            stats[3] += 1
            t0 = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = _clock()
                dur = t1 - t0
                stack.pop()
                stats[3] -= 1
                own = dur - frame[0]
                stats[0] += 1
                if not stats[3]:
                    # a span nested in one of the same name is already covered
                    stats[1] += dur
                stats[2] += own
                edge = edges.get((parent, name))
                if edge is None:
                    edge = edges[(parent, name)] = [0, 0.0, 0.0]
                edge[0] += 1
                edge[1] += dur
                edge[2] += own
                if stack:
                    stack[-1][0] += dur
                if timeline is not None:
                    timeline.append((name, parent, t0 - origin, t1 - origin))
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _count(self, name, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _count_edge(self, name, fn):
        counts = self.counts
        counts.setdefault(name, 0)
        stack = self.stack
        edges = self.edges

        def wrapper(*args, **kwargs):
            counts[name] += 1
            key = (stack[-1][1] if stack else None, name)
            edge = edges.get(key)
            if edge is None:
                edge = edges[key] = [0, 0.0, 0.0]
            edge[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- per-call extras read from arguments and results ----------------------

    def _after_hooks(self):
        extra = self.extra

        def echelon(args, _result):
            extra["echelon_nnz"] += sum(len(r) for r in args[1])

        def insert(_args, result):
            if result:
                extra["insert_useful"] += 1

        def groebner(_args, result):
            extra["groebner_elements"] += len(result.elements)

        def resolution(_args, result):
            extra["resolution_generators"] += sum(len(g) for g in result.gens.values())

        def product_table(_args, result):
            extra["product_entries"] += len(result.products)

        return {
            "Echelon.__init__": echelon,
            "Eliminator.insert": insert,
            "buchberger_truncated": groebner,
            "minimal_resolution": resolution,
            "ext_product_table": product_table,
        }

    def install(self):
        """Wrap every entry of SPANS; call once, before the command runs."""
        import extalg  # noqa: F401  (loads every submodule)
        namespaces = [m for n, m in sys.modules.items()
                      if m is not None and (n == "extalg" or n.startswith("extalg."))]
        hooks = self._after_hooks()
        for name, module, attr, kind in SPANS:
            owner = sys.modules["extalg." + module]
            cls_name, _, meth = attr.rpartition(".")
            if cls_name:
                owner = getattr(owner, cls_name)
            original = owner.__dict__[meth]
            if kind == "timed":
                wrapped = self._timed(name, original, hooks.get(attr))
            elif kind == "count":
                wrapped = self._count(name, original)
            else:
                wrapped = self._count_edge(name, original)
            if cls_name:
                setattr(owner, meth, wrapped)
                continue
            rebound = 0
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, key, wrapped)
                        rebound += 1
            if not rebound:
                raise RuntimeError("extalg.%s.%s not found" % (module, meth))

    def dump(self, path):
        data = {
            "stats": {n: {"calls": s[0], "s": s[1], "self_s": s[2]}
                      for n, s in self.stats.items()},
            "counts": self.counts,
            "extra": self.extra,
            "edges": [{"parent": p, "name": n, "calls": e[0], "s": e[1], "self_s": e[2]}
                      for (p, n), e in self.edges.items()],
            "timeline": [{"name": n, "parent": p, "start_s": a, "end_s": b}
                         for n, p, a, b in self.timeline],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)


def layer_metrics(trace, wall_s, output_bytes):
    """Per-layer metrics of one traced command, from a dumped trace.

    Returns (metrics, problems).  `problems` is non-empty when the spans do
    not account for the run: self times must sum to the top-level span, and
    that span must cover most of the traced wall time.
    """
    stats, counts, extra = trace["stats"], trace["counts"], trace["extra"]
    edges = {(e["parent"], e["name"]): e for e in trace["edges"]}

    def st(name, field):
        return stats.get(name, {}).get(field, 0)

    def edge_calls(parent, name):
        return edges.get((parent, name), {}).get("calls", 0)

    def ratio(num, den):
        return num / den if den else 0.0

    solver_lookups = st("complexes.solver_cache", "calls")
    solver_built = edge_calls("complexes.solver_cache", "linalg.echelon")
    lift_lookups = st("ext.lift_cache", "calls")
    lift_built = edge_calls("ext.lift_cache", "ext.lift")
    reductions = counts.get("algebra.reduce", 0)
    m = {
        "linalg.echelon.calls": st("linalg.echelon", "calls"),
        "linalg.echelon.self_s": st("linalg.echelon", "self_s"),
        "linalg.echelon.nnz": extra["echelon_nnz"],
        "linalg.kernel_basis.self_s": st("linalg.kernel_basis", "self_s"),
        "linalg.insert.calls": st("linalg.insert", "calls"),
        "linalg.insert.useful_ratio": ratio(extra["insert_useful"], st("linalg.insert", "calls")),
        "linalg.solve.calls": st("linalg.solve", "calls"),
        "linalg.solve.self_s": st("linalg.solve", "self_s"),
        "freealg.word_key.calls": counts.get("freealg.word_key", 0),
        "freealg.mul.calls": counts.get("freealg.mul", 0),
        "algebra.groebner.s": st("algebra.groebner", "s"),
        "algebra.groebner.elements": extra["groebner_elements"],
        "algebra.groebner.reductions": edge_calls("algebra.groebner", "algebra.reduce"),
        "algebra.reduce.calls": reductions,
        "algebra.find_subword.calls": counts.get("algebra.find_subword", 0),
        "algebra.find_subword.per_reduction": ratio(counts.get("algebra.find_subword", 0), reductions),
        "algebra.normal_form.calls": st("algebra.normal_form", "calls"),
        "algebra.normal_form.s": st("algebra.normal_form", "s"),
        "algebra.morphism_apply.calls": st("algebra.morphism_apply", "calls"),
        "algebra.morphism_apply.s": st("algebra.morphism_apply", "s"),
        "complexes.resolution.calls": st("complexes.resolution", "calls"),
        "complexes.resolution.s": st("complexes.resolution", "s"),
        "complexes.resolution.self_s": st("complexes.resolution", "self_s"),
        "complexes.resolution.generators": extra["resolution_generators"],
        "complexes.flat_matrix.s": st("complexes.flat_matrix", "s"),
        "complexes.apply_diff.calls": counts.get("complexes.apply_diff", 0),
        "complexes.solver_cache.lookups": solver_lookups,
        "complexes.solver_cache.hit_ratio": ratio(solver_lookups - solver_built, solver_lookups),
        "complexes.exactness.s": st("complexes.exactness", "s"),
        "complexes.transform.s": st("complexes.transform", "s"),
        "complexes.shift.s": st("complexes.shift", "s"),
        "cone.build.s": st("cone.build", "s"),
        "cone.cross_validate.s": st("cone.cross_validate", "s"),
        "ext.lift.calls": st("ext.lift", "calls"),
        "ext.lift.s": st("ext.lift", "s"),
        "ext.lift.self_s": st("ext.lift", "self_s"),
        "ext.lift_cache.lookups": lift_lookups,
        "ext.lift_cache.hit_ratio": ratio(lift_lookups - lift_built, lift_lookups),
        "ext.multiply.calls": st("ext.multiply", "calls"),
        "ext.multiply.self_s": st("ext.multiply", "self_s"),
        "ext.functor_map.s": st("ext.functor_map", "s"),
        "ext.tau.s": st("ext.tau", "s"),
        "ext.compose.self_s": st("ext.compose", "self_s"),
        "ext.map_apply.calls": st("ext.map_apply", "calls"),
        "ext.map_apply.self_s": st("ext.map_apply", "self_s"),
        "smash.product_table.s": st("smash.product_table", "s"),
        "smash.product_table.entries": extra["product_entries"],
        "smash.multiply.calls": st("smash.multiply", "calls"),
        "smash.multiply.self_s": st("smash.multiply", "self_s"),
        "smash.certify.s": st("smash.certify", "s"),
        "smash.twist_recovery.s": st("smash.twist_recovery", "s"),
        "smash.table_mul.calls": counts.get("smash.table_mul", 0),
        "verify.factorization.self_s": st("verify.factorization", "self_s"),
        "verify.corollary.s": st("verify.corollary", "s"),
        "cli.main.s": st("cli.main", "s"),
        "cli.self_s": st("cli.main", "self_s"),
        "cli.output_bytes": output_bytes,
    }
    problems = []
    top = sum(e["s"] for e in trace["edges"] if e["parent"] is None)
    self_sum = sum(s["self_s"] for s in stats.values())
    if top <= 0 or abs(self_sum - top) > 0.01 * top:
        problems.append("span self times sum to %.4fs, top-level spans to %.4fs" % (self_sum, top))
    if top < 0.8 * wall_s:
        problems.append("top-level spans cover %.4fs of %.4fs traced wall time" % (top, wall_s))
    return m, problems
