"""Run one benchmark job in this interpreter with spans around public calls.

    PYTHONPATH=src python3 perfbench/tracer.py OUT JOB_ID cli census --group gl12 ...
    PYTHONPATH=src python3 perfbench/tracer.py OUT JOB_ID replay 09 --seed 1

Before the job runs, every function in TIMED is replaced, in each module
namespace that binds it, by a wrapper that records a span (name, start, end,
parent span).  The hottest leaves, in COUNTED, are only counted: they run
about 10^7 times per pass and a span each would swamp the job.  Spans stay in
memory; when the job returns they are written to OUT.bin (int64 quadruples)
and OUT.json (names, counters, job id).  Spans inside `src/` are not added
here: the program is measured only at its public boundaries.
"""

from __future__ import annotations

import importlib
import itertools
import json
import sys
from array import array
from collections import Counter
from time import perf_counter_ns

MODULES = ("cli", "census", "coverage", "invariant_rings", "laurent", "root_datum", "gf",
           "oracle")

# "module:attribute" or "module:Class.method"; span names drop the colon.
TIMED = (
    "cli:main", "cli:cmd_census", "cli:cmd_coverage", "cli:cmd_bg_ring",
    "cli:cmd_oracle_twisted", "cli:cmd_oracle_commutant", "cli:cmd_oracle_avoidant",
    "cli:cmd_oracle_identities",
    "census:census", "census:partitions", "census:unipotent_classes",
    "census:component_group", "census:twisted_class_count", "census:cyclic_group",
    "census:direct_product", "census:symmetric_group_3", "census:quaternion_group",
    "census:ExplicitGroup.__init__",
    "coverage:coverage_report", "coverage:standard_levis",
    "invariant_rings:bg_presentation", "invariant_rings:fundamental_invariants",
    "invariant_rings:rewrite_in_generators", "invariant_rings:adams",
    "invariant_rings:frobenius_pullback", "invariant_rings:orbit_sum",
    "invariant_rings:dickson_polynomial",
    "laurent:LaurentPolynomial.__mul__", "laurent:LaurentPolynomial.__pow__",
    "laurent:LaurentPolynomial.evaluate_in_field", "laurent:LaurentPolynomial.substitute",
    "root_datum:build_group", "root_datum:height", "root_datum:orbit_of_weight",
    "gf:FiniteField.__init__", "gf:rref", "gf:nullspace", "gf:mat_mul", "gf:mat_pow",
    "gf:mat_det", "gf:mat_inverse", "gf:charpoly",
    "oracle:solve_commutant", "oracle:twisted_orbits_bruteforce", "oracle:all_automorphisms",
    "oracle:avoidant_check", "oracle:eval_identity_trials",
)
COUNTED = (
    "gf:FiniteField.mul", "gf:FiniteField.add", "census:ExplicitGroup.mul",
    "coverage:is_regular_in", "oracle:is_member",
)


def _mul_pairs(args, result):
    other = args[1]
    return len(args[0].terms) * (len(other.terms) if hasattr(other, "terms") else 1)


# Extra counters derived from a call's arguments and result: name -> (key, fn).
EXTRA = {
    "laurent.LaurentPolynomial.__mul__": ("laurent.mul_term_pairs", _mul_pairs),
    "invariant_rings.rewrite_in_generators": ("invariant_rings.rewrite_out_terms",
                                              lambda args, r: len(r.terms)),
    "coverage.standard_levis": ("coverage.levis_built", lambda args, r: len(r)),
    "coverage.is_regular_in": ("coverage.regular_hits", lambda args, r: int(r)),
    "oracle.solve_commutant": ("oracle.commutant_solutions", lambda args, r: len(r)),
    "oracle.all_automorphisms": ("oracle.automorphisms_found", lambda args, r: len(r)),
}


class Tracer:
    """Span and counter store for one job; wrappers close over it."""

    def __init__(self):
        self.names: list[str] = []
        self.spans = array("q")  # name index, start ns, end ns, parent span (-1: root)
        self.stack = [-1]
        self.counts: Counter = Counter()
        self.call_counters: dict = {}

    def timed(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack, counts = self.spans, self.stack, self.counts
        extra_key, extra = EXTRA.get(name, (None, None))

        def wrapper(*args, **kwargs):
            me = len(spans) // 4
            spans.extend((name_id, 0, 0, stack[-1]))
            stack.append(me)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[4 * me + 1] = start
                spans[4 * me + 2] = end
            if extra is not None:
                counts[extra_key] += extra(args, result)
            return result

        return wrapper

    def counted(self, name: str, fn):
        # The counted leaves are only ever called positionally.  A C-level
        # itertools.count keeps the wrapper at about 0.1 us per call.
        calls = itertools.count()
        self.call_counters[name] = calls
        extra_key, extra = EXTRA.get(name, (None, None))
        if extra is None:
            def wrapper(*args, _next=next, _calls=calls, _fn=fn):
                _next(_calls)
                return _fn(*args)
        else:
            counts = self.counts

            def wrapper(*args):
                next(calls)
                result = fn(*args)
                counts[extra_key] += extra(args, result)
                return result
        return wrapper

    def install(self, namespaces: list) -> None:
        """Wrap every target in its defining module and wherever it is re-bound."""
        for spec, make in [(s, self.timed) for s in TIMED] + [(s, self.counted) for s in COUNTED]:
            mod_name, attr = spec.split(":")
            module = importlib.import_module(f"param_atlas.{mod_name}")
            name = f"{mod_name}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, meth, make(name, cls.__dict__[meth]))
                continue
            original = getattr(module, attr)
            wrapped = make(name, original)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, key, wrapped)

    def dump(self, out: str, job_id: str) -> None:
        for name, calls in self.call_counters.items():
            self.counts[name] = next(calls)
        with open(out + ".bin", "wb") as fh:
            self.spans.tofile(fh)
        with open(out + ".json", "w") as fh:
            json.dump({"job": job_id, "names": self.names, "counts": dict(self.counts)}, fh)


def main(argv: list[str]) -> int:
    out, job_id, kind, *job_argv = argv
    import param_atlas
    modules = [importlib.import_module(f"param_atlas.{m}") for m in MODULES]
    tracer = Tracer()
    tracer.install([param_atlas, *modules])
    try:
        if kind == "cli":
            return param_atlas.cli.main(job_argv)
        # imported after install so its `from param_atlas... import` sees the wrappers
        import replay
        replay.run = tracer.timed("replay.run", replay.run)
        return replay.main(job_argv)
    finally:
        tracer.dump(out, job_id)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
