"""Benchmark runner for simplexstats.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each job runs in a fresh worker process (perfbench/worker.py), one at a
time: a closed loop with one client. Job i of a run gets its inputs from
``workloads.job_seed(N, i)``. The runner starts jobs until the next one
would end past S seconds (at least three), then prints one context line
and, as the last line of stdout, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones: the median set-up
time, the mean over the run's jobs of job wall time and job CPU time, the
median worker peak RSS, and the share of operations that succeeded. With
``--trace 1`` the runner alternates untraced and traced jobs and reports
the per-layer metrics of the traced ones, with the tracer's overhead. See
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import re
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
REFERENCE = HERE / "reference.json"

MIN_JOBS = 3
MIN_TRACED_PAIRS = 3
# Set-up-only workers spawned after each job. Spread over the run, their
# set-up times follow the host's drift the way the jobs' times do, instead of
# sampling one burst at the end.
SETUPS_PER_JOB = 1
MIN_SETUPS = 12
# Every run must end within 180 s: start no job past 150 s, and kill any
# worker still running 170 s after the run began.
RUN_DEADLINE_S = 150.0
RUN_LIMIT_S = 170.0
LL_RTOL = 1e-9

# Thread pools of the numeric libraries are pinned to one thread, so a
# worker uses one core of the box and its CPU time is comparable run to run.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class WorkerError(RuntimeError):
    pass


def _worker_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update({k: "1" for k in THREAD_VARS})
    return env


def _read_message(proc: subprocess.Popen, key: str, deadline: float):
    """The worker's next stdout line, which must be {key: ...}."""
    remaining = deadline - time.monotonic()
    if remaining <= 0 or not select.select([proc.stdout], [], [], remaining)[0]:
        raise WorkerError(f"no {key!r} message within {RUN_LIMIT_S:.0f} s of the run's start")
    line = proc.stdout.readline()
    if not line:
        raise WorkerError(f"worker exited with code {proc.wait()} before {key!r}")
    message = json.loads(line)
    if key not in message:
        raise WorkerError(f"expected {key!r} from the worker, got {line.strip()!r}")
    return message[key]


class Worker:
    """One worker process, from spawn to exit."""

    def __init__(self, workload: str, seed: int, scale: str, trace: bool, deadline: float):
        self.deadline = deadline
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(WORKER), workload, str(seed), scale, "1" if trace else "0"],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            env=_worker_env(),
            cwd=ROOT,
        )
        try:
            self.info = _read_message(self.proc, "ready", self.deadline)
        except (WorkerError, ValueError):
            self.close()
            raise
        self.setup_s = time.perf_counter() - t0

    def send(self, line: str) -> None:
        self.proc.stdin.write(line + "\n")
        self.proc.stdin.flush()

    def close(self) -> None:
        if self.proc.poll() is None and self.proc.stdin and not self.proc.stdin.closed:
            try:
                self.proc.stdin.close()
            except BrokenPipeError:
                pass
        try:
            self.proc.wait(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        finally:
            if self.proc.stdout:
                self.proc.stdout.close()


def _default_deadline() -> float:
    return time.monotonic() + RUN_LIMIT_S


def setup_only(workload: str, seed: int, scale: str, deadline: float) -> float:
    """Spawn a worker, wait until it is ready, and let it exit unused."""
    worker = Worker(workload, seed, scale, False, deadline)
    try:
        worker.send("quit")
    finally:
        worker.close()
    return worker.setup_s


def run_job(workload: str, seed: int, scale: str = "full", trace: bool = False,
            deadline: float | None = None) -> dict:
    """Run one job in a fresh worker; returns its result with setup_s and
    wall_s added. A job that raises, or is still running at the monotonic
    deadline, returns a result with an "error"."""
    t0 = time.perf_counter()
    try:
        worker = Worker(workload, seed, scale, trace, deadline or _default_deadline())
    except (WorkerError, ValueError) as exc:
        return {"error": str(exc), "wall_s": time.perf_counter() - t0}
    try:
        worker.send("go")
        result = _read_message(worker.proc, "result", worker.deadline)
    except (WorkerError, ValueError, BrokenPipeError) as exc:
        result = {"error": str(exc)}
    finally:
        worker.close()
    result["setup_s"] = worker.setup_s
    result["wall_s"] = time.perf_counter() - t0
    result["info"] = worker.info
    return result


# -- output checks -----------------------------------------------------------


def _load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def _rel_close(a: float, b: float) -> bool:
    return abs(a - b) <= LL_RTOL * max(abs(a), abs(b))


_NUMBER = re.compile(r":([-+0-9.eE]+)")


def _check_study(workload: str, scale: str, output: dict) -> list[str]:
    problems = []
    r = workloads.SIZES[workload][scale]["replicates"]
    counts = output["counts"]
    if list(counts) != list(workloads.STUDY_CELLS[workload]):
        problems.append(f"cells {list(counts)} differ from {workloads.STUDY_CELLS[workload]}")
    for cell, tally in counts.items():
        if sum(tally.values()) != r:
            problems.append(f"{cell}: counts sum to {sum(tally.values())}, not R = {r}")
        if tally.get("FitFailure", 0) > 0.01 * r:
            problems.append(f"{cell}: {tally['FitFailure']} fit failures exceed 1% of {r}")
    return problems


def _check_tree_search(workload: str, scale: str, output: dict) -> list[str]:
    problems = []
    ranking = output["ranking"]
    trees = [row[0] for row in ranking]
    expected = workloads.SIZES[workload][scale]["candidates"]
    if output["n_candidates"] != expected or len(trees) != expected or len(set(trees)) != expected:
        problems.append(f"ranking does not hold each of the {expected} candidates once")
    filtered = [row for row in ranking if row[2]]
    if output["n_filtered"] != len(filtered):
        problems.append("n_filtered disagrees with the ranking")
    fitted = [row for row in ranking if not row[2]]
    if any(row[2] for row in ranking[: len(fitted)]):
        problems.append("a filtered candidate ranks above a fitted one")
    lls = [row[1] for row in fitted if row[1] is not None]
    if lls != sorted(lls, reverse=True):
        problems.append("fitted candidates are not in descending log-likelihood order")
    if not fitted or _NUMBER.sub("", output["best_tree"]) != ranking[0][0]:
        problems.append("best tree is not the top-ranked candidate")
    return problems


def _compare_reference(workload: str, output: dict, ref: dict) -> list[str]:
    if workload in workloads.STUDY_CELLS:
        return [] if output["counts"] == ref["counts"] else [
            f"tallies {output['counts']} differ from reference {ref['counts']}"
        ]
    problems = []
    got, want = output["ranking"], ref["ranking"]
    if [(r[0], r[2]) for r in got] != [(r[0], r[2]) for r in want]:
        problems.append("ranking order differs from reference")
    else:
        for (tree, ll, _), (_, ll_ref, _) in zip(got, want):
            if (ll is None) != (ll_ref is None) or (ll is not None and not _rel_close(ll, ll_ref)):
                problems.append(f"log-likelihood of {tree}: {ll} vs reference {ll_ref}")
                break
    best, best_ref = output["best_tree"], ref["best_tree"]
    if _NUMBER.sub("", best) != _NUMBER.sub("", best_ref):
        problems.append(f"best tree {best} differs from reference {best_ref}")
    elif not all(
        _rel_close(float(a), float(b))
        for a, b in zip(_NUMBER.findall(best), _NUMBER.findall(best_ref))
    ):
        problems.append(f"best-tree weights {best} differ from reference {best_ref}")
    return problems


def check_output(workload: str, seed: int, scale: str, output: dict) -> list[str]:
    """Problems with one job's output: invariants on every seed, and the
    recorded references at the default seed and full scale."""
    if workload in workloads.STUDY_CELLS:
        problems = _check_study(workload, scale, output)
    else:
        problems = _check_tree_search(workload, scale, output)
    if seed == workloads.DEFAULT_SEED and scale == "full":
        problems += _compare_reference(workload, output, _load_reference()[workload])
    return problems


# -- the run -----------------------------------------------------------------


class Tally:
    """Operations attempted and failed over a run, and the problems seen."""

    def __init__(self, workload: str, scale: str):
        self.workload, self.scale = workload, scale
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, result: dict, seed: int) -> bool:
        """Count one job run on the given seed; returns whether it succeeded
        and passed its check."""
        if "error" in result:
            problems = [result["error"].strip().splitlines()[-1]]
        else:
            problems = check_output(self.workload, seed, self.scale, result["output"])
        if problems:
            ops = result.get("attempted") or workloads.ops_per_job(self.workload, self.scale)
            self.attempted += ops
            self.failed += ops
            self.problems += problems
            return False
        self.attempted += result["attempted"]
        self.failed += result["failed"]
        return True


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _keep_going(done: int, minimum: int, started: float, seconds: float, walls: list[float]) -> bool:
    """Closed loop: start another job while it should end within the run's
    seconds, or while fewer than the minimum have run."""
    next_end = time.perf_counter() - started + statistics.median(walls)
    if next_end > RUN_DEADLINE_S:
        return False
    return done < minimum or next_end <= seconds


def measure(workload: str, seed: int, seconds: float, scale: str = "full") -> tuple[dict, dict]:
    """Untraced run: end-to-end metrics."""
    tally = Tally(workload, scale)
    deadline = _default_deadline()
    setup_only(workload, seed, scale, deadline)  # warms the file cache; not counted
    started = time.perf_counter()
    jobs, setups, walls, seeds = [], [], [], []
    while True:
        seeds.append(workloads.job_seed(seed, len(walls)))
        t0 = time.perf_counter()
        result = run_job(workload, seeds[-1], scale, deadline=deadline)
        if "setup_s" in result:
            setups.append(result["setup_s"])
            setups += [setup_only(workload, seeds[-1], scale, deadline)
                       for _ in range(SETUPS_PER_JOB)]
        walls.append(time.perf_counter() - t0)
        tally.add(result, seeds[-1])
        # A job with a wrong output is still timed; the run reports it as
        # not correct.
        if "error" not in result:
            jobs.append(result)
        if not _keep_going(len(walls), MIN_JOBS, started, seconds, walls):
            break
    while len(setups) < MIN_SETUPS and time.monotonic() < deadline:
        setups.append(setup_only(workload, seed, scale, deadline))
    metrics = {"setup_s": _metric(statistics.median(setups), "s")}
    if jobs:
        # Means, not medians: each job has inputs of its own, and on
        # study-small-n the null fit's slow tail makes one input's job take
        # twice as long as another's. The mean sums that over the run's inputs.
        metrics.update(
            job_s=_metric(statistics.fmean(j["job_s"] for j in jobs), "s"),
            cpu_s=_metric(statistics.fmean(j["cpu_s"] for j in jobs), "s"),
            peak_rss_mb=_metric(statistics.median(j["peak_rss_mb"] for j in jobs), "MB"),
        )
    metrics["success_ratio"] = _metric(1.0 - tally.failed / max(tally.attempted, 1), "ratio")
    context = {
        "jobs": len(walls),
        "job_seeds": seeds,
        "job_s_samples": [j["job_s"] for j in jobs],
        "setup_s_samples": setups,
        "info": jobs[0]["info"] if jobs else None,
    }
    return _finish(tally, metrics, context)


def measure_traced(workload: str, seed: int, seconds: float, scale: str = "full") -> tuple[dict, dict]:
    """Traced run: per-layer metrics from traced jobs, each paired with an
    untraced job for the tracer's overhead."""
    tally = Tally(workload, scale)
    deadline = _default_deadline()
    started = time.perf_counter()
    layers, plain_s, traced_s, walls, seeds = [], [], [], [], []
    while True:
        seeds.append(workloads.job_seed(seed, len(walls)))
        plain = run_job(workload, seeds[-1], scale, trace=False, deadline=deadline)
        traced = run_job(workload, seeds[-1], scale, trace=True, deadline=deadline)
        walls.append(plain["wall_s"] + traced["wall_s"])
        plain_ok = tally.add(plain, seeds[-1])
        traced_ok = tally.add(traced, seeds[-1])
        if plain_ok and traced_ok:
            if traced["output"] != plain["output"]:
                tally.problems.append("traced output differs from untraced output")
                tally.failed += traced["attempted"]
            else:
                layers.append(traced["layers"])
                plain_s.append(plain["job_s"])
                traced_s.append(traced["job_s"])
        if not _keep_going(len(walls), MIN_TRACED_PAIRS, started, seconds, walls):
            break
    metrics = {}
    for name, unit in _per_layer_units().items():
        if name == "fail_ratio":
            value = tally.failed / max(tally.attempted, 1)
        elif not layers:
            value = 0.0
        elif name == "trace.overhead_ratio":
            # Each traced job is compared with the untraced job run just
            # before it, so that the host's drift between pairs cancels.
            value = statistics.median(t / p for t, p in zip(traced_s, plain_s)) - 1.0
        else:
            value = statistics.median(l[name] for l in layers)
        metrics[name] = _metric(value, unit)
    context = {
        "pairs": len(walls),
        "job_seeds": seeds,
        "untraced_job_s_samples": plain_s,
        "traced_job_s_samples": traced_s,
        "info": plain.get("info"),
    }
    return _finish(tally, metrics, context)


def _benchmark_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def _per_layer_units() -> dict[str, str]:
    return {m["name"]: m["unit"] for m in _benchmark_spec()["per_layer"]}


def _metric_names(kind: str) -> set[str]:
    return {m["name"] for m in _benchmark_spec()[kind]}


def _finish(tally: Tally, metrics: dict, context: dict) -> tuple[dict, dict]:
    result = {
        "correct": not tally.problems,
        "attempted": max(tally.attempted, 1),
        "failed": min(tally.failed, max(tally.attempted, 1)),
        "metrics": metrics,
    }
    context["problems"] = tally.problems
    return result, context


def _prerequisites() -> str | None:
    if not (ROOT / "src" / "simplexstats" / "__init__.py").is_file():
        return f"no simplexstats sources under {ROOT / 'src'}"
    if not (ROOT / "BENCHMARK.json").is_file():
        return f"no BENCHMARK.json in {ROOT}"
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = _prerequisites()
    if missing:
        sys.stderr.write(f"perfbench: {missing}\n")
        return 2
    if args.trace:
        result, context = measure_traced(args.workload, args.seed, args.seconds)
    else:
        result, context = measure(args.workload, args.seed, args.seconds)
    wanted = _metric_names("per_layer" if args.trace else "end_to_end")
    metrics = result["metrics"]
    if set(metrics) != wanted or not all(math.isfinite(m["value"]) for m in metrics.values()):
        sys.stderr.write(f"perfbench: no complete set of metrics; problems: {context['problems']}\n")
        return 3
    context.update(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        nproc=os.cpu_count(),
        python=platform.python_version(),
        sizes=workloads.SIZES[args.workload]["full"],
    )
    print(json.dumps({"context": context}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
