"""Spans and counters recorded around the calls into each horobound module.

Nothing here edits the package: ``Tracer.install`` replaces the listed
functions and methods with wrappers at run time, wherever their names are
bound (modules import each other with ``from .x import y``, so a function
can be bound in several modules). A span records its name, start, end and
the span that was open when it started. Spans stay in memory until
``write`` dumps them at the end of the run.

Hooks whose target no longer exists are skipped; their metrics read 0.
"""

from __future__ import annotations

import json
import statistics
import sys
from time import perf_counter

MODULES = ("cli", "groups", "cayley", "boundary", "annihilator", "vabelian", "polytope", "metrics")

# module -> public functions timed as spans
SPANNED = {
    "cli": ("parse_spec", "run_command", "emit_report"),
    "groups": ("build_group", "symmetric_generating_set"),
    "cayley": ("grow_ball", "segment", "geodesic_prefixes"),
    "boundary": (
        "boundary_approx",
        "busemann_functional",
        "slow_geodesic",
        "kernel_approx",
        "kernel_index_estimate",
    ),
    "annihilator": ("annihilator_candidates",),
    "vabelian": ("simple_cycle_labels", "lipschitz_hom", "step1_membership", "infinite_boundary_witness"),
    "polytope": ("convex_hull",),
    "metrics": ("build_ball_system", "metric_axiom_check", "bs_annihilator_check"),
}
# (module, class, method) timed as spans
SPANNED_METHODS = (("cayley", "Ball", "reach_data"),)
# per-element primitives: counted, never spanned
COUNTED = {
    "linalg.mat_vec_calls": ("linalg", "mat_vec"),
    "boundary.act_calls": ("boundary", "act"),
    "annihilator.profile_calls": ("annihilator", "indistinguishability_profile"),
    "polytope.solve_lp_calls": ("polytope", "solve_lp"),
}
COUNTED_METHODS = {
    "boundary.functional_inits": ("boundary", "Functional", "__init__"),
    "metrics.sphere_data_calls": ("metrics", "BallSystem", "sphere_data"),
}
# span name -> (counter, function of the call's result that it adds)
RESULT_COUNTS = {
    "cayley.grow_ball": ("cayley.ball_elements", len),
    "cayley.segment": ("cayley.segment_calls", lambda _: 1),
    "boundary.busemann_functional": ("boundary.busemann_functional_calls", lambda _: 1),
    "boundary.boundary_approx": ("boundary.classes", lambda a: a.class_count()),
    "metrics.metric_axiom_check": ("metrics.pairs_checked", lambda r: r.pairs_checked),
    "metrics.build_ball_system": ("metrics.level_elements", lambda bs: sum(bs.layer_sizes())),
    "cli.emit_report": ("cli.report_bytes", len),
    # counted from the public report, so it survives a change of prefix structure
    "cli.run_command": (
        "cayley.prefix_count",
        lambda out: out[0].get("prefix_tree", {}).get("count", 0),
    ),
}

SPAN_METRICS = tuple(f"{mod}.{fn}" for mod, fns in SPANNED.items() for fn in fns) + tuple(
    f"{mod}.{meth}" for mod, _, meth in SPANNED_METHODS
)
COUNT_METRICS = (
    "groups.mul_data_calls",
    "groups.inv_data_calls",
    "cayley.data_up_to_calls",
    "cayley.data_up_to_items",
    *COUNTED,
    *COUNTED_METHODS,
    *(counter for counter, _ in RESULT_COUNTS.values()),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.stack: list[int] = []
        self.counts = dict.fromkeys(COUNT_METRICS, 0)
        self.marks: list[int] = []  # span index at which each pass starts
        self.count_marks: list[dict] = []  # counter snapshot at each pass start

    # -- wrappers ----------------------------------------------------------
    def _spanned(self, name: str, fn):
        spans, stack, counts = self.spans, self.stack, self.counts
        counter, measure = RESULT_COUNTS.get(name, (None, None))

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, perf_counter(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][2] = perf_counter()
                stack.pop()
            if counter is not None:
                counts[counter] += measure(result)
            return result

        return wrapper

    def _counted(self, counter: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _data_up_to(self, fn):
        counts = self.counts

        def wrapper(ball, r):
            counts["cayley.data_up_to_calls"] += 1
            out = fn(ball, r)
            counts["cayley.data_up_to_items"] += len(out)
            return out

        return wrapper

    # -- installation ------------------------------------------------------
    def install(self) -> None:
        """Wrap every hooked function of the imported horobound modules."""
        package = {
            name: mod
            for name, mod in sys.modules.items()
            if mod is not None and (name == "horobound" or name.startswith("horobound."))
        }

        def rebind(original, wrapper) -> None:
            for mod in package.values():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)

        def defined(mod: str, attr: str):
            return getattr(package.get(f"horobound.{mod}"), attr, None)

        for mod, fns in SPANNED.items():
            for fn in fns:
                original = defined(mod, fn)
                if original is not None:
                    rebind(original, self._spanned(f"{mod}.{fn}", original))
        for counter, (mod, fn) in COUNTED.items():
            original = defined(mod, fn)
            if original is not None:
                rebind(original, self._counted(counter, original))

        def patch_method(mod: str, cls_name: str, meth: str, make) -> None:
            cls = defined(mod, cls_name)
            if cls is not None and meth in vars(cls):
                setattr(cls, meth, make(vars(cls)[meth]))

        for mod, cls_name, meth in SPANNED_METHODS:
            patch_method(mod, cls_name, meth, lambda f, n=f"{mod}.{meth}": self._spanned(n, f))
        for counter, (mod, cls_name, meth) in COUNTED_METHODS.items():
            patch_method(mod, cls_name, meth, lambda f, c=counter: self._counted(c, f))
        patch_method("cayley", "Ball", "data_up_to", self._data_up_to)

        base = defined("groups", "Group")
        for cls in vars(package["horobound.groups"]).values() if base else ():
            if isinstance(cls, type) and issubclass(cls, base) and cls is not base:
                for meth in ("mul_data", "inv_data"):
                    if meth in vars(cls):
                        setattr(cls, meth, self._counted(f"groups.{meth}_calls", vars(cls)[meth]))

    # -- passes ------------------------------------------------------------
    def start_pass(self) -> None:
        self.marks.append(len(self.spans))
        self.count_marks.append(dict(self.counts))

    def _pass_ranges(self) -> list[tuple[int, int]]:
        ends = self.marks[1:] + [len(self.spans)]
        return list(zip(self.marks, ends))

    def _totals(self, lo: int, hi: int) -> tuple[dict, dict]:
        """Inclusive time per span name and self time per module, spans lo..hi."""
        inclusive = dict.fromkeys(SPAN_METRICS, 0.0)
        self_time = dict.fromkeys(MODULES, 0.0)
        child_time = [0.0] * (hi - lo)
        for i in range(hi - 1, lo - 1, -1):
            name, start, end, parent = self.spans[i]
            duration = end - start
            inclusive[name] += duration
            self_time[name.split(".")[0]] += duration - child_time[i - lo]
            if parent >= lo:
                child_time[parent - lo] += duration
        return inclusive, self_time

    def layer_metrics(self) -> dict:
        """Per-pass layer metrics.

        Times: spans of the set-up, plus the median over passes of each
        pass's sum. Counts: set-up plus the first pass, which repeat exactly.
        """
        setup_incl, setup_self = self._totals(0, self.marks[0])
        per_pass = [self._totals(lo, hi) for lo, hi in self._pass_ranges()]
        metrics = {}
        for name in SPAN_METRICS:
            median = statistics.median(incl[name] for incl, _ in per_pass)
            metrics[f"{name}_s"] = (setup_incl[name] + median, "s")
        for mod in MODULES:
            median = statistics.median(own[mod] for _, own in per_pass)
            metrics[f"{mod}.self_s"] = (setup_self[mod] + median, "s")
        first_pass_end = self.count_marks[1] if len(self.count_marks) > 1 else self.counts
        for name in COUNT_METRICS:
            unit = "bytes" if name == "cli.report_bytes" else "count"
            metrics[name] = (first_pass_end[name], unit)
        return metrics

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"pass_starts": self.marks, "spans": self.spans}, fh)
