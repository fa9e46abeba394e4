"""The benchmark's own test.

Run from the root of a checkout: python3 -m pytest perfbench/test_perfbench.py

Each workload runs once at its small size, untraced and traced. The traced
job must produce the same output as the untraced one (the wrappers change
no result), and every per-layer metric the workload exercises must read
nonzero there (a binding the tracer missed would read zero).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

SEED = 3

_STUDY = [
    "simulate.draw_s",
    "simulate.draw_us_per_replicate",
    "simulate.reduce_s",
    "simulate.tally_s",
    "dirichlet.sample_calls",
    "dirichlet.sample_s",
    "dirichlet.fit_batch_calls",
    "dirichlet.fit_rows",
    "dirichlet.fit_s",
    "dirichlet.fit_self_s",
    "dirichlet.fit_iters_p50",
    "dirichlet.fit_iters_p99",
    "dirichlet.fit_iters_max",
    "dirichlet.fit_converged_ratio",
    "inference.lrt_batch_s",
    "inference.null_fit_s",
    "inference.null_fit_self_s",
    "inference.null_fit_rows",
    "inference.null_fit_iters_p50",
    "inference.null_fit_iters_p99",
    "inference.null_fit_iters_max",
    "inference.null_fit_converged_ratio",
    "numerics.digamma_ns_per_elem",
    "numerics.trigamma_ns_per_elem",
    "numerics.lgamma_ns_per_elem",
    "numerics.special_calls",
    "numerics.special_elems_per_call",
    "numerics.special_self_s",
    "numerics.tail_s",
]

EXERCISED = {
    "study-lrt-n100": _STUDY,
    "study-small-n": _STUDY + [
        "inference.uniformity_null_s",
        "inference.uniformity_null_rows",
        "inference.uniformity_converged_ratio",
        "inference.calibration_s",
        "inference.calibration_hits",
        "inference.calibration_misses",
        "nested.sample_s",
    ],
    "tree-search-k6": [
        "dirichlet.fit_batch_calls",
        "dirichlet.fit_rows",
        "dirichlet.fit_s",
        "dirichlet.fit_self_s",
        "dirichlet.fit_iters_p50",
        "dirichlet.fit_converged_ratio",
        "dirichlet.mle_calls",
        "dirichlet.mle_s",
        "numerics.digamma_ns_per_elem",
        "numerics.trigamma_ns_per_elem",
        "numerics.lgamma_ns_per_elem",
        "numerics.special_calls",
        "numerics.special_self_s",
        "nested.decompose_calls",
        "nested.decompose_s",
        "nested.mle_calls",
        "nested.mle_s",
        "treesearch.enumerate_s",
        "treesearch.filter_s",
        "treesearch.select_s",
        "treesearch.candidates",
        "treesearch.survivors",
        "treesearch.node_fits",
        "treesearch.distinct_node_fits",
        "treesearch.distinct_node_fit_ratio",
        "report.parse_csv_s",
        "report.to_json_s",
        "cli.main_s",
    ],
}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tracing_changes_no_output_and_reaches_every_layer(workload):
    plain = run.run_job(workload, SEED, "small", trace=False)
    traced = run.run_job(workload, SEED, "small", trace=True)
    assert "error" not in plain, plain.get("error")
    assert "error" not in traced, traced.get("error")
    assert run.check_output(workload, SEED, "small", plain["output"]) == []
    assert traced["output"] == plain["output"]
    layers = traced["layers"]
    assert set(layers) | {"trace.overhead_ratio", "fail_ratio"} == set(run._per_layer_units())
    silent = [name for name in EXERCISED[workload] if not layers[name] > 0]
    assert silent == []


def test_reference_check_rejects_a_changed_tally():
    ref = run._load_reference()["study-lrt-n100"]
    changed = json.loads(json.dumps(ref))
    changed["counts"]["lrt-type1"]["Reject"] += 1
    changed["counts"]["lrt-type1"]["FailToReject"] -= 1
    assert run.check_output("study-lrt-n100", workloads.DEFAULT_SEED, "full", ref) == []
    assert run.check_output("study-lrt-n100", workloads.DEFAULT_SEED, "full", changed) != []


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "study-lrt-n100",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
