"""Outside-in span tracer for simplexstats.

The tracer replaces module-level functions of the library with wrappers
that record one span per call: the function's name, start and end on the
monotonic clock, the span that was open when it was called, and, for the
special functions, the element count of the argument. A run id identifies
the job whose spans these are. Spans stay in memory until ``write``.

Several modules import helpers by name (``_digamma_core``,
``_trigamma_core`` and ``_lgamma_core`` into ``dirichlet``, ``inference``
and ``nested``; ``chi_square_sf`` into ``simulate`` and ``inference``), so
``install`` patches every binding of the same function object in every
loaded simplexstats module, not only the defining one. Calls made inside
the defining module go through its global and are covered by the same
patch. No library source changes.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
import time
from array import array
from collections import Counter

import numpy as np

# Functions the tracer wraps, as "module.attribute" under the package. The
# two outcome helpers of simulate are wrapped so that the self time of
# simulate._run is the tally alone.
TARGETS = (
    "simulate._run",
    "simulate._draw_stacks",
    "simulate._stack_stats",
    "simulate._node_blocks",
    "simulate._lrt_outcomes",
    "simulate._maugard_outcomes",
    "dirichlet.sample",
    "dirichlet._fit_batch",
    "dirichlet.mle",
    "inference._two_sample_lrt_batch",
    "inference._common_mean_fit",
    "inference._uniformity_null_batch",
    "inference._uniformity_lrt_batch",
    "inference._null_lrt_sample",
    "numerics._digamma_core",
    "numerics._trigamma_core",
    "numerics._lgamma_core",
    "numerics.chi_square_sf",
    "numerics.f_sf",
    "nested.sample",
    "nested.decompose",
    "nested.mle",
    "treesearch.enumerate_trees",
    "treesearch.filter_impossible",
    "treesearch.select_tree",
    "report.parse_csv",
    "report.ResultDocument.to_json",
    "cli.main",
)
SPECIAL = ("numerics._digamma_core", "numerics._trigamma_core", "numerics._lgamma_core")
# A null-fit row past this many iterations counts toward the slow tail.
TAIL_ITERATIONS = 20


class Tracer:
    """Spans and per-call observations of one traced job."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.size = array("q")
        self.errors: list[int] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.iterations: dict[str, list[np.ndarray]] = {"fit": [], "null_fit": []}
        self.node_inputs: set[bytes] = set()
        self._package = None

    # -- recording ---------------------------------------------------------

    def _wrap(self, index: int, fn, before=None, after=None):
        name, start, end, parent, size = self.name, self.start, self.end, self.parent, self.size
        stack, errors, clock = self.stack, self.errors, time.perf_counter_ns
        sized = TARGETS[index] in SPECIAL

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(start)
            name.append(index)
            parent.append(stack[-1] if stack else -1)
            size.append(args[0].size if sized else 0)
            end.append(0)
            if before is not None:
                before(self, args)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                errors.append(i)
                raise
            finally:
                end[i] = clock()
                stack.pop()
            if after is not None:
                after(self, result)
            return result

        return wrapper

    def install(self, package) -> None:
        """Wrap every target at every binding under the package."""
        self._package = package
        prefix = package.__name__ + "."
        for target in TARGETS:
            importlib.import_module(prefix + target.split(".")[0])
        modules = [
            m for key, m in sys.modules.items()
            if key == package.__name__ or key.startswith(prefix)
        ]
        for index, target in enumerate(TARGETS):
            mod_name, _, attr = target.partition(".")
            owner = sys.modules[prefix + mod_name]
            before, after = _HOOKS.get(target, (None, None))
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, meth, self._wrap(index, cls.__dict__[meth], before, after))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(index, original, before, after)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapper)

    def _inside(self, target: str) -> bool:
        index = TARGETS.index(target)
        return any(self.name[j] == index for j in self.stack)

    # -- output ------------------------------------------------------------

    def write(self, path, **meta) -> None:
        """Write every span as [name, start_ns, end_ns, parent, size]."""
        spans = [
            [TARGETS[n], s, e, p, z]
            for n, s, e, p, z in zip(self.name, self.start, self.end, self.parent, self.size)
        ]
        doc = {"run_id": self.run_id, **meta, "errors": self.errors, "spans": spans}
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh)

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics of the job; see perfbench/README.md."""
        name = np.array(self.name, dtype=np.int32)
        start = np.array(self.start, dtype=np.int64)
        dur = (np.array(self.end, dtype=np.int64) - start) / 1e9
        parent = np.array(self.parent, dtype=np.int64)
        size = np.array(self.size, dtype=np.int64)
        child = np.zeros_like(dur)
        nested_spans = parent >= 0
        np.add.at(child, parent[nested_spans], dur[nested_spans])
        self_time = dur - child

        def mask(*targets):
            return np.isin(name, [TARGETS.index(t) for t in targets])

        def total(*targets):
            return float(dur[mask(*targets)].sum())

        def self_s(*targets):
            return float(self_time[mask(*targets)].sum())

        def calls(*targets):
            return int(mask(*targets).sum())

        def ns_per_elem(target):
            m = mask(target)
            elems = int(size[m].sum())
            return float(dur[m].sum() * 1e9 / elems) if elems else 0.0

        def ratio(num, den):
            return float(num / den) if den else 0.0

        def pct(key, q):
            its = self.iterations[key]
            return float(np.percentile(np.concatenate(its), q)) if its else 0.0

        c = self.counts
        select = TARGETS.index("treesearch.select_tree")
        failed_fits = sum(
            1 for i in self.errors
            if TARGETS[self.name[i]] == "nested.mle" and _has_ancestor(self, i, select)
        )
        null_its = np.concatenate(self.iterations["null_fit"]) if self.iterations["null_fit"] else np.zeros(0)
        special_elems = int(size[mask(*SPECIAL)].sum())
        draw_s = total("simulate._draw_stacks")
        return {
            "simulate.draw_s": draw_s,
            "simulate.draw_us_per_replicate": ratio(draw_s * 1e6, c["replicates_drawn"]),
            "simulate.reduce_s": total("simulate._stack_stats", "simulate._node_blocks"),
            "simulate.tally_s": self_s("simulate._run"),
            "simulate.draw_failures": c["draw_failures"],
            "dirichlet.sample_calls": calls("dirichlet.sample"),
            "dirichlet.sample_s": total("dirichlet.sample"),
            "dirichlet.fit_batch_calls": calls("dirichlet._fit_batch"),
            "dirichlet.fit_rows": c["fit_rows"],
            "dirichlet.fit_s": total("dirichlet._fit_batch"),
            "dirichlet.fit_self_s": self_s("dirichlet._fit_batch"),
            "dirichlet.fit_iters_p50": pct("fit", 50),
            "dirichlet.fit_iters_p99": pct("fit", 99),
            "dirichlet.fit_iters_max": pct("fit", 100),
            "dirichlet.fit_converged_ratio": ratio(c["fit_converged"], c["fit_usable"]),
            "dirichlet.fit_unusable_rows": c["fit_rows"] - c["fit_usable"],
            "dirichlet.mle_calls": calls("dirichlet.mle"),
            "dirichlet.mle_s": total("dirichlet.mle"),
            "inference.lrt_batch_s": total("inference._two_sample_lrt_batch"),
            "inference.null_fit_s": total("inference._common_mean_fit"),
            "inference.null_fit_self_s": self_s("inference._common_mean_fit"),
            "inference.null_fit_rows": c["null_fit_rows"],
            "inference.null_fit_iters_p50": pct("null_fit", 50),
            "inference.null_fit_iters_p99": pct("null_fit", 99),
            "inference.null_fit_iters_max": pct("null_fit", 100),
            "inference.null_fit_converged_ratio": ratio(c["null_fit_converged"], c["null_fit_rows"]),
            "inference.null_fit_tail_iter_share": ratio(
                int(null_its[null_its > TAIL_ITERATIONS].sum()), int(null_its.sum())
            ),
            "inference.uniformity_null_s": total("inference._uniformity_null_batch"),
            "inference.uniformity_null_rows": c["uniformity_rows"],
            "inference.uniformity_converged_ratio": ratio(c["uniformity_converged"], c["uniformity_rows"]),
            "inference.calibration_s": total("inference._null_lrt_sample"),
            "inference.calibration_hits": c["calibration_hits"],
            "inference.calibration_misses": c["calibration_misses"],
            "numerics.digamma_ns_per_elem": ns_per_elem("numerics._digamma_core"),
            "numerics.trigamma_ns_per_elem": ns_per_elem("numerics._trigamma_core"),
            "numerics.lgamma_ns_per_elem": ns_per_elem("numerics._lgamma_core"),
            "numerics.special_calls": calls(*SPECIAL),
            "numerics.special_elems_per_call": ratio(special_elems, calls(*SPECIAL)),
            "numerics.special_self_s": self_s(*SPECIAL),
            "numerics.tail_s": total("numerics.chi_square_sf", "numerics.f_sf"),
            "nested.sample_s": total("nested.sample"),
            "nested.decompose_calls": calls("nested.decompose"),
            "nested.decompose_s": total("nested.decompose"),
            "nested.mle_calls": calls("nested.mle"),
            "nested.mle_s": total("nested.mle"),
            "treesearch.enumerate_s": total("treesearch.enumerate_trees"),
            "treesearch.filter_s": total("treesearch.filter_impossible"),
            "treesearch.select_s": total("treesearch.select_tree"),
            "treesearch.candidates": c["candidates"],
            "treesearch.survivors": c["survivors"],
            "treesearch.node_fits": c["node_fits"],
            "treesearch.distinct_node_fits": len(self.node_inputs),
            "treesearch.distinct_node_fit_ratio": ratio(len(self.node_inputs), c["node_fits"]),
            "treesearch.failed_fits": failed_fits,
            "report.parse_csv_s": total("report.parse_csv"),
            "report.to_json_s": total("report.ResultDocument.to_json"),
            "cli.main_s": total("cli.main"),
        }


def _has_ancestor(tracer: Tracer, span: int, name_index: int) -> bool:
    p = tracer.parent[span]
    while p >= 0:
        if tracer.name[p] == name_index:
            return True
        p = tracer.parent[p]
    return False


# -- observations at layer boundaries ------------------------------------------


def _after_draw(t: Tracer, result) -> None:
    drawn = result[2]
    t.counts["replicates_drawn"] += int(drawn.size)
    t.counts["draw_failures"] += int((~drawn).sum())


def _after_fit(t: Tracer, result) -> None:
    _, _, iterations, converged, usable = result
    t.counts["fit_rows"] += int(usable.size)
    t.counts["fit_usable"] += int(usable.sum())
    t.counts["fit_converged"] += int((converged & usable).sum())
    t.iterations["fit"].append(np.array(iterations[usable]))


def _after_null_fit(t: Tracer, result) -> None:
    converged, iterations = result[4], result[5]
    t.counts["null_fit_rows"] += int(converged.size)
    t.counts["null_fit_converged"] += int(converged.sum())
    t.iterations["null_fit"].append(np.array(iterations))


def _after_uniformity(t: Tracer, result) -> None:
    converged = result[2]
    t.counts["uniformity_rows"] += int(converged.size)
    t.counts["uniformity_converged"] += int(converged.sum())


def _before_calibration(t: Tracer, args) -> None:
    cache = t._package.inference._NULL_LRT_CACHE
    key = tuple(int(a) for a in args[:4])
    t.counts["calibration_hits" if key in cache else "calibration_misses"] += 1


def _before_mle(t: Tracer, args) -> None:
    if t._inside("treesearch.select_tree"):
        data = np.ascontiguousarray(args[0], dtype=float)
        t.counts["node_fits"] += 1
        t.node_inputs.add(repr(data.shape).encode() + data.tobytes())


def _after_enumerate(t: Tracer, result) -> None:
    t.counts["candidates"] += len(result)


def _after_filter(t: Tracer, result) -> None:
    t.counts["survivors"] += sum(1 for c in result if not c.filtered)


_HOOKS = {
    "simulate._draw_stacks": (None, _after_draw),
    "dirichlet._fit_batch": (None, _after_fit),
    "dirichlet.mle": (_before_mle, None),
    "inference._common_mean_fit": (None, _after_null_fit),
    "inference._uniformity_null_batch": (None, _after_uniformity),
    "inference._null_lrt_sample": (_before_calibration, None),
    "treesearch.enumerate_trees": (None, _after_enumerate),
    "treesearch.filter_impossible": (None, _after_filter),
}
