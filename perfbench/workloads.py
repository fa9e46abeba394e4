"""Workload definitions shared by the runner and the worker.

Plain Python only: the runner imports this module without numpy or
simplexstats, so that it can refuse to run before anything is spawned.
"""

import hashlib

DEFAULT_SEED = 0

# The Dirichlet row-1 generator of the acceptance gate (criteria 4 and 5).
ROW1_ALPHA = (9.8, 6.1, 5.4, 5.9)
# The two reference groups of criterion 6, as (mean, precision).
WT = ((0.423, 0.194, 0.181, 0.202), 27.025)
AD = ((0.301, 0.255, 0.216, 0.228), 41.678)
# The four-quadrant nested generator of criterion 7, used for the NDD cell.
QUADRANT_TREE = "((AQ1:11.6,OQ:10.3):8.1,(AQ2:5.6,TQ:9.2):11.2)"
# K = 6 tree-search generator with three pairs. Every within-pair and
# cross-pair correlation is at least 0.2 away from zero (a-b +0.29,
# c-d -0.48, e-f +0.37, cross pairs -0.20 to -0.27), so at 200 rows the
# sign screen leaves the same 104 of 2,752 candidates on every seed. A
# pair with a near-zero correlation would flip the screen between 104 and
# 472 survivors from seed to seed, a 4x swing in the work of one job.
TREE_SEARCH_TREE = "((a:11.6,b:10.3):8.1,(c:4.0,d:5.0):14.0,(e:12.0,f:10.0):7.0)"
TREE_SEARCH_TREE_SMALL = "((a:11.6,b:10.3):8.1,(c:4.0,d:5.0):14.0)"

# Per workload and scale: the sizes the program receives. "full" is what the
# benchmark measures; "small" is what the benchmark's own test runs.
SIZES = {
    "study-lrt-n100": {
        "full": {"replicates": 10000, "n": 100},
        "small": {"replicates": 200, "n": 100},
    },
    "study-small-n": {
        "full": {"replicates": 500, "n": 7, "calibration_replicates": 10000},
        "small": {"replicates": 200, "n": 7, "calibration_replicates": 400},
    },
    "tree-search-k6": {
        # candidates: distinct nesting trees over the generator's K leaves.
        "full": {"rows": 200, "tree": TREE_SEARCH_TREE, "candidates": 2752},
        "small": {"rows": 60, "tree": TREE_SEARCH_TREE_SMALL, "candidates": 26},
    },
}

WORKLOADS = tuple(SIZES)

# Study cells of each study workload, in run order.
STUDY_CELLS = {
    "study-lrt-n100": ("lrt-type1",),
    "study-small-n": ("lrt-power", "maugard-type1", "ndd-type1"),
}


def job_seed(seed: int, index: int) -> int:
    """Seed of the index-th job of a run with the given seed.

    The first job takes the run's seed itself; the others take seeds hashed
    from (seed, index). A run's jobs thus see distinct inputs, and its
    figures average over them instead of repeating one input's luck.
    """
    if index == 0:
        return seed
    digest = hashlib.sha256(f"{seed}/{index}".encode("ascii")).digest()
    return int.from_bytes(digest[:4], "big")


def ops_per_job(workload: str, scale: str) -> int:
    """Operations one job attempts, counted when a job yields no output:
    replicates for a study, candidate trees for a tree search."""
    size = SIZES[workload][scale]
    if workload in STUDY_CELLS:
        return size["replicates"] * len(STUDY_CELLS[workload])
    return size["candidates"]
