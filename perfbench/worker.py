"""One benchmark job in a fresh process.

Usage: python3 worker.py WORKLOAD SEED SCALE TRACE

The worker imports simplexstats from the checkout's ``src``, builds the
workload's inputs from SEED and prints ``{"ready": ...}`` as one JSON line.
It then reads one line from stdin: ``go`` runs the job and prints
``{"result": ...}``; anything else exits without running it. With TRACE 1
the tracer wraps the library before the job, writes the spans to
``perfbench/out`` after it, and adds the per-layer metrics to the result.
"""

from __future__ import annotations

import contextlib
import io
import json
import platform
import resource
import sys
import time
import traceback
import uuid
from pathlib import Path

import numpy as np

import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
sys.path.insert(0, str(SRC))

import simplexstats  # noqa: E402
import simplexstats.cli  # noqa: E402
from simplexstats import nested, simulate  # noqa: E402
from simplexstats.dirichlet import DirichletParams  # noqa: E402


def _send(stream, message: dict) -> None:
    stream.write(json.dumps(message) + "\n")
    stream.flush()


def _cpu_s() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def _jitter(rng, values, seed: int):
    """Scale generator parameters by U(0.97, 1.03) factors drawn from the seed.

    The default seed keeps the acceptance gate's parameters unchanged, so
    its outputs can be pinned against references recorded from seed code.
    Wider factors make the work of a study cell depend on the seed: at
    +-10% the power cell's time spread from seed to seed was 24% of its
    median, against 15% at +-3% or with no jitter at all.
    """
    values = np.asarray(values, dtype=float)
    if seed == workloads.DEFAULT_SEED:
        return values
    return values * rng.uniform(0.97, 1.03, size=values.shape)


def _jitter_tree(rng, text: str, seed: int):
    tree = nested.parse_tree(text)

    def walk(node):
        alpha = None
        if node.alpha is not None:
            alpha = float(_jitter(rng, [node.alpha], seed)[0])
        if node.is_leaf:
            return nested.TreeNode(component=node.component, alpha=alpha)
        return nested.TreeNode(children=tuple(walk(c) for c in node.children), alpha=alpha)

    return nested.NestingTree(root=walk(tree.root), leaf_names=tree.leaf_names)


def _study_job(workload: str, seed: int, size: dict):
    rng = np.random.default_rng(seed)
    r, n = size["replicates"], size["n"]
    if workload == "study-lrt-n100":
        gen = DirichletParams(alpha=_jitter(rng, workloads.ROW1_ALPHA, seed))
        cells = [
            ("lrt-type1", simulate.run_type1_study,
             simulate.SimSpec(gen, gen, n, simulate.DirichletLRT(),
                              replicates=r, master_seed=seed)),
        ]
    else:
        (wt_mean, wt_prec), (ad_mean, ad_prec) = workloads.WT, workloads.AD
        wt = DirichletParams(alpha=_jitter(rng, np.multiply(wt_mean, wt_prec), seed))
        ad = DirichletParams(alpha=_jitter(rng, np.multiply(ad_mean, ad_prec), seed))
        row1 = DirichletParams(alpha=_jitter(rng, workloads.ROW1_ALPHA, seed))
        quad = _jitter_tree(rng, workloads.QUADRANT_TREE, seed)
        ndd = nested.NddParams(tree=quad)
        maugard = simulate.MaugardProcedure(
            calibration_replicates=size["calibration_replicates"]
        )
        cells = [
            ("lrt-power", simulate.run_power_study,
             simulate.SimSpec(wt, ad, n, simulate.DirichletLRT(),
                              replicates=r, master_seed=seed)),
            ("maugard-type1", simulate.run_type1_study,
             simulate.SimSpec(row1, row1, n, maugard,
                              replicates=r, master_seed=seed)),
            ("ndd-type1", simulate.run_type1_study,
             simulate.SimSpec(ndd, ndd, n, simulate.NddLRT(tree=quad.strip_alphas()),
                              replicates=r, master_seed=seed)),
        ]

    def job():
        counts = {}
        for name, run, spec in cells:
            counts[name] = dict(run(spec).counts)
        failed = sum(c[simulate.FIT_FAILURE] for c in counts.values())
        return {"counts": counts}, r * len(cells), failed

    return job, None


def _tree_search_job(seed: int, size: dict):
    rng = np.random.default_rng(seed)
    tree = _jitter_tree(rng, size["tree"], seed)
    x = nested.sample(nested.NddParams(tree=tree), size["rows"], rng)
    OUT.mkdir(exist_ok=True)
    csv_path = OUT / f"tree-search-{uuid.uuid4().hex}.csv"
    lines = ["group," + ",".join(tree.leaf_names)]
    for i, row in enumerate(x):
        lines.append(("g1" if i % 2 == 0 else "g2") + "," + ",".join(repr(float(v)) for v in row))
    csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    def job():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = simplexstats.cli.main(["tree-search", str(csv_path), "--json"])
        if code != 0:
            raise RuntimeError(f"tree-search exited with code {code}")
        res = json.loads(buf.getvalue())["results"]
        ranking = [
            [row["tree"], row.get("log_likelihood"), bool(row.get("filtered", False))]
            for row in res["ranking"]
        ]
        survivors = [r for r in ranking if not r[2]]
        failed = sum(1 for r in survivors if r[1] is None)
        output = {
            "best_tree": res["best_tree"],
            "n_candidates": res["n_candidates"],
            "n_filtered": res["n_filtered"],
            "ranking": ranking,
        }
        return output, len(survivors), failed

    return job, csv_path


def main(argv: list[str]) -> int:
    workload, seed, scale, trace = argv[1], int(argv[2]), argv[3], argv[4] == "1"
    proto = sys.stdout
    if not Path(simplexstats.__file__).resolve().is_relative_to(SRC):
        sys.stderr.write(f"simplexstats imported from {simplexstats.__file__}, not {SRC}\n")
        return 2
    size = workloads.SIZES[workload][scale]
    if workload in workloads.STUDY_CELLS:
        job, csv_file = _study_job(workload, seed, size)
    else:
        job, csv_file = _tree_search_job(seed, size)
    tracer = None
    if trace:
        import tracing

        tracer = tracing.Tracer(run_id=uuid.uuid4().hex)
        tracer.install(simplexstats)
    _send(proto, {"ready": {"python": platform.python_version(), "numpy": np.__version__}})

    try:
        if sys.stdin.readline().strip() != "go":
            return 0
        cpu0 = _cpu_s()
        t0 = time.perf_counter()
        try:
            output, attempted, failed = job()
        except Exception:
            _send(proto, {"result": {"error": traceback.format_exc()}})
            return 1
        job_s = time.perf_counter() - t0
        cpu_s = _cpu_s() - cpu0
        result = {
            "job_s": job_s,
            "cpu_s": cpu_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "attempted": attempted,
            "failed": failed,
            "output": output,
        }
        if tracer is not None:
            OUT.mkdir(exist_ok=True)
            tracer.write(OUT / f"spans-{workload}-seed{seed}-{tracer.run_id}.json.gz",
                         workload=workload, seed=seed)
            result["layers"] = tracer.layer_metrics()
        _send(proto, {"result": result})
        return 0
    finally:
        if csv_file is not None:
            csv_file.unlink(missing_ok=True)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
