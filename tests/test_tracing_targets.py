"""The benchmark tracer's targets name functions that exist, and its hooks
read their results where those results hold what they count.

perfbench/tracing.py wraps library functions by "module.attribute" name,
private helpers among them, and its after-hooks read their targets' result
tuples by position. This reads its tables and calls its hooks without
installing anything, so renaming or deleting a traced function, or
reordering a result a hook reads, fails here too.
"""

import importlib
import importlib.util
import pathlib

import numpy as np

from simplexstats import dirichlet, inference, simulate, treesearch
from simplexstats.composition import SufficientStats
from simplexstats.dirichlet import DirichletParams
from simplexstats.numerics import Tolerance
from simplexstats.simulate import DirichletLRT, SimSpec

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves_to_a_callable():
    tracing = _tracing()
    for target in tracing.TARGETS:
        mod_name, _, attr = target.partition(".")
        obj = importlib.import_module(f"simplexstats.{mod_name}")
        for part in attr.split("."):
            obj = getattr(obj, part, None)
        assert callable(obj), target


def test_every_hook_belongs_to_a_target():
    tracing = _tracing()
    assert set(tracing._HOOKS) <= set(tracing.TARGETS)
    assert set(tracing.SPECIAL) <= set(tracing.TARGETS)


def test_after_hooks_read_real_results_of_their_targets():
    # Each after-hook reads its target's result by position. Fed a real
    # result on a small input, it must fill its counters with what that
    # result says, so a reshuffled result tuple fails here.
    tracing = _tracing()
    gen = DirichletParams(alpha=(6.0, 4.0, 3.0))
    spec = SimSpec(gen, gen, 7, DirichletLRT(), replicates=6, master_seed=0)
    drawn = simulate._draw_stacks(spec, 0, 6)
    x1 = drawn[0].copy()
    x1[2] = x1[2, 0]  # one repeated composition: an unusable fit
    s1, s2 = SufficientStats.reduce(x1), SufficientStats.reduce(drawn[1])
    tol = Tolerance()
    fit = dirichlet._fit_batch(s1, tol)
    a1 = fit[0].sum(axis=1)
    # Row 6 has every mean log at log(1/3): its uniform null is unconverged.
    mean_log = np.vstack((s2.mean_log, np.full((1, 3), np.log(1.0 / 3.0))))
    candidates = treesearch.enumerate_trees(4)
    corr = np.array([[1.0, 0.5, -0.5, -0.5], [0.5, 1.0, -0.5, -0.5],
                     [-0.5, -0.5, 1.0, 0.5], [-0.5, -0.5, 0.5, 1.0]])
    results = {
        "simulate._draw_stacks": drawn,
        "dirichlet._fit_batch": fit,
        "inference._common_mean_fit": inference._common_mean_fit(
            s1, s2, fit[0] / a1[:, None], a1, a1, tol
        ),
        "inference._uniformity_null_batch": inference._uniformity_null_batch(
            mean_log, np.full(7, 7.0), np.full(7, 5.0), tol
        ),
        "treesearch.enumerate_trees": candidates,
        "treesearch.filter_impossible": treesearch.filter_impossible(candidates, corr),
    }
    after = {target: hooks[1] for target, hooks in tracing._HOOKS.items() if hooks[1]}
    assert after.keys() == results.keys()
    t = tracing.Tracer("tier-1")
    for target, result in results.items():
        after[target](t, result)
    survivors = sum(1 for c in results["treesearch.filter_impossible"] if not c.filtered)
    assert dict(t.counts) == {
        "replicates_drawn": 6,
        "draw_failures": 0,
        "fit_rows": 6,
        "fit_usable": 5,
        "fit_converged": 5,
        "null_fit_rows": 6,
        "null_fit_converged": 5,
        "uniformity_rows": 7,
        "uniformity_converged": 6,
        "candidates": 26,
        "survivors": survivors,
    }
    assert 0 < survivors < 26
    (fit_its,), (null_its,) = t.iterations["fit"], t.iterations["null_fit"]
    assert fit_its.dtype.kind == null_its.dtype.kind == "i"
    assert fit_its.shape == (5,) and (fit_its > dirichlet._FIXED_POINT_WARMUP).all()
    assert null_its.shape == (6,) and (null_its >= 1).all()
