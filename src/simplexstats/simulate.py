"""Seeded Monte Carlo studies of the tests' operating characteristics.

Each study draws two groups per replicate from configured generators, runs
one of the testing procedures, and tallies the outcome categories. Results
are deterministic functions of the master seed: replicate i draws from the
stream of default_rng(SeedSequence(entropy=master_seed, spawn_key=(i,))),
group 1 first and group 2 second, so the tally never depends on batching or
thread count. Those streams are computed in bulk: the SeedSequence hash of
a chunk's keys runs as uint32 array operations, and each result, turned
into a PCG64 state by PCG64's seeding rule, is set on one PCG64 that the
chunk reuses. When both groups share one Dirichlet generator, as in a
type-I cell, one call draws both groups' rows from that stream.

A study draws its replicates in chunks of a fixed number of draws
(inference._CHUNK_DRAWS: 1,024 replicates at n = 100, K = 4), reduces each
chunk to the sufficient statistics its procedure fits, and drops the chunk's
draws before drawing the next. Memory is O(chunk + R * K), not
O(R * n * K). A chunk's draws are observation-major (_draw_stacks), so its
reduction adds whole (B, K) blocks, bit for bit as over a C-ordered stack.
Reductions are per replicate and the fits run once on the joined (R, K)
statistics, so results do not depend on the chunk size.

Drawn columns follow generator 1; SimSpec binds named trees to them by leaf
name. The nested test runs the per-node helpers of ``nested``, as
inference.two_sample_ndd_lrt does. Fits that are independent run as one
stacked batch: both groups of the screening procedure, both groups'
alternatives of a two-sample test, and the nodes of a tree that have the
same number of children. Each batch runs in fixed blocks of rows
(dirichlet._BLOCK_ROWS), so its temporaries do not grow with R; every row's
fit is the one it gets alone, bit for bit. Every fit runs the library's one
stopping policy (README, "Models"): a study has no tolerance setting.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import dirichlet, inference, nested
from .composition import SufficientStats
from .dirichlet import DirichletParams
from .errors import InputError, NumericalError
from .nested import NddParams, NestingTree
from .numerics import _is_integer, chi_square_sf

__all__ = [
    "MaugardProcedure",
    "DirichletLRT",
    "NddLRT",
    "SimSpec",
    "SimResult",
    "run_type1_study",
    "run_power_study",
    "run_correlation_check",
    "REJECT",
    "FAIL_TO_REJECT",
    "FIT_FAILURE",
]

REJECT = "Reject"
FAIL_TO_REJECT = "FailToReject"
FIT_FAILURE = "FitFailure"

# A study aborts when more than this fraction of replicates fails to fit;
# failures below the budget stay visible as their own outcome category.
FAILURE_BUDGET = 0.01


@dataclass(frozen=True)
class MaugardProcedure:
    """Per-group uniformity screening.

    Outcomes: RejectBoth, RejectOne, FailBoth. As in
    inference.maugard_procedure, decisions are calibrated against a simulated
    finite-sample null distribution of calibration_replicates draws (at
    least 1); None decides on the asymptotic chi-square p-values.
    """

    calibration_replicates: int | None = inference.CALIBRATION_REPLICATES

    def __post_init__(self):
        if self.calibration_replicates is not None:
            inference._check_calibration_replicates(self.calibration_replicates)

    @property
    def name(self) -> str:
        return "maugard"

    @property
    def categories(self) -> tuple[str, ...]:
        return (
            inference.REJECT_BOTH,
            inference.REJECT_ONE,
            inference.FAIL_BOTH,
            FIT_FAILURE,
        )


@dataclass(frozen=True)
class DirichletLRT:
    """Two-sample equal-mean likelihood-ratio test. Outcomes: Reject,
    FailToReject."""

    @property
    def name(self) -> str:
        return "dirichlet-lrt"

    @property
    def categories(self) -> tuple[str, ...]:
        return (REJECT, FAIL_TO_REJECT, FIT_FAILURE)


@dataclass(frozen=True)
class NddLRT:
    """Two-sample nested-model likelihood-ratio test on a fixed tree."""

    tree: NestingTree

    @property
    def name(self) -> str:
        return "ndd-lrt"

    @property
    def categories(self) -> tuple[str, ...]:
        return (REJECT, FAIL_TO_REJECT, FIT_FAILURE)


def _generator_components(gen) -> int:
    if isinstance(gen, (DirichletParams, NddParams)):
        return gen.n_components
    raise InputError(
        f"generator must be DirichletParams or NddParams, got {type(gen).__name__}"
    )


def same_generator(g1, g2) -> bool:
    """Whether two generators define the same distribution.

    Trees compare by their canonical roots, positionally and names aside;
    SimSpec has already renumbered a named generator 2 to generator 1's
    names.
    """
    if isinstance(g1, DirichletParams) and isinstance(g2, DirichletParams):
        return bool(np.array_equal(g1.alpha, g2.alpha))
    if isinstance(g1, NddParams) and isinstance(g2, NddParams):
        return g1.tree.root == g2.tree.root
    return False


def _leaf_names(gen) -> tuple[str, ...] | None:
    return gen.tree.leaf_names if isinstance(gen, NddParams) else None


def _bind_names(tree: NestingTree, names: tuple[str, ...], what: str) -> NestingTree:
    """tree renumbered to generator 1's leaf order, matched by name."""
    if set(tree.leaf_names) != set(names):
        raise InputError(
            f"{what} names components {sorted(tree.leaf_names)}, "
            f"generator 1 names {sorted(names)}"
        )
    return nested._renumber(tree, names)


@dataclass(frozen=True)
class SimSpec:
    """Configuration of one Monte Carlo study.

    Columns follow generator 1. When it names its leaves, a named generator 2
    and a named test tree are renumbered to its name order, so trees that
    spell the same law or shape in another leaf order bind by name; Dirichlet
    generators and unnamed trees bind by position.
    """

    generator_1: DirichletParams | NddParams
    generator_2: DirichletParams | NddParams
    n_per_group: int | tuple[int, int]
    procedure: MaugardProcedure | DirichletLRT | NddLRT
    replicates: int = 10000
    level: float = 0.05
    master_seed: int = 0

    def __post_init__(self):
        if not _is_integer(self.replicates):
            raise InputError(f"replicates must be an integer, got {self.replicates!r}")
        if self.replicates < 1:
            raise InputError(f"replicates must be >= 1, got {self.replicates}")
        if not (0.0 < self.level < 1.0):
            raise InputError(f"level must be in (0, 1), got {self.level}")
        _seed_words(self.master_seed)
        k1 = _generator_components(self.generator_1)
        k2 = _generator_components(self.generator_2)
        if k1 != k2:
            raise InputError(
                f"generators disagree on component count: {k1} vs {k2}"
            )
        pair = isinstance(self.n_per_group, tuple)
        sizes = self.n_per_group if pair else (self.n_per_group,)
        if (pair and len(sizes) != 2) or not all(map(_is_integer, sizes)):
            raise InputError(
                f"group sizes must be an integer or a pair of integers, got {self.n_per_group!r}"
            )
        n1, n2 = self.n_pair
        if min(n1, n2) < 2:
            raise InputError("each group needs at least 2 observations")
        if isinstance(self.procedure, NddLRT):
            if self.procedure.tree.n_components != k1:
                raise InputError(
                    "the test tree covers "
                    f"{self.procedure.tree.n_components} components, "
                    f"the generators produce {k1}"
                )
        names = _leaf_names(self.generator_1)
        if names is None:
            return
        if _leaf_names(self.generator_2) is not None:
            tree = _bind_names(self.generator_2.tree, names, "generator 2")
            object.__setattr__(self, "generator_2", NddParams(tree=tree))
        if isinstance(self.procedure, NddLRT) and self.procedure.tree.leaf_names is not None:
            tree = _bind_names(self.procedure.tree, names, "the test tree")
            object.__setattr__(self, "procedure", NddLRT(tree=tree))

    @property
    def n_pair(self) -> tuple[int, int]:
        if isinstance(self.n_per_group, tuple):
            n1, n2 = self.n_per_group
            return int(n1), int(n2)
        return int(self.n_per_group), int(self.n_per_group)

    @property
    def n_components(self) -> int:
        return _generator_components(self.generator_1)


@dataclass(frozen=True)
class SimResult:
    """Tally of one study: counts, rates, and binomial Monte Carlo SEs per
    outcome category. Counts partition the replicates exactly."""

    procedure: str
    counts: dict[str, int]
    rates: dict[str, float]
    mc_se: dict[str, float]
    replicates: int
    n_per_group: tuple[int, int]
    level: float
    master_seed: int
    wall_time_seconds: float

    def __post_init__(self):
        total = sum(self.counts.values())
        if total != self.replicates:
            raise InputError(
                f"category counts sum to {total}, expected {self.replicates}"
            )


def _draw(gen, n: int, rng: np.random.Generator) -> np.ndarray:
    if isinstance(gen, DirichletParams):
        return dirichlet.sample(gen, n, rng)
    return nested.sample(gen, n, rng)


# numpy's SeedSequence hash (O'Neill's seed_seq_fe) and PCG64's seeding rule
# (O'Neill 2014), so that replicate i draws from the stream of
# default_rng(SeedSequence(entropy=master_seed, spawn_key=(i,))) without one
# SeedSequence and one PCG64 per replicate. tests/test_simulate.py pins them
# against numpy's own.
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341


def _seed_words(master_seed) -> list[int]:
    """The uint32 entropy words SeedSequence takes from a master seed."""
    if not _is_integer(master_seed) or master_seed < 0:
        raise InputError(f"seed must be a non-negative integer, got {master_seed!r}")
    s, words = int(master_seed), []
    while True:
        words.append(s & _MASK32)
        s >>= 32
        if not s:
            return words


def _spawn_words(master_seed, keys: np.ndarray) -> np.ndarray:
    """SeedSequence(entropy=master_seed, spawn_key=(i,)).generate_state(4,
    np.uint64) for every key i, as a (len(keys), 4) uint64 array."""
    if keys.size and int(keys.max()) > _MASK32:
        raise InputError("replicate keys must be below 2**32")
    hc = _INIT_A

    def hashmix(v):
        nonlocal hc
        v = v ^ np.uint32(hc)
        hc = hc * _MULT_A & _MASK32
        v = v * np.uint32(hc)
        return v ^ (v >> 16)

    def mix(x, y):
        r = np.uint32(_MIX_L) * x - np.uint32(_MIX_R) * y
        return r ^ (r >> 16)

    # With a spawn key, the seed's words are padded to the pool of four.
    words = _seed_words(master_seed)
    words = [np.array([w], np.uint32) for w in words + [0] * (4 - len(words))]
    pool = [hashmix(w) for w in words[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    # Only the last word, the key, differs between the chunk's replicates.
    for w in words[4:] + [keys.astype(np.uint32)]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(w))
    hc, out = _INIT_B, []
    for i in range(8):
        v = pool[i % 4] ^ np.uint32(hc)
        hc = hc * _MULT_B & _MASK32
        v = v * np.uint32(hc)
        out.append((v ^ (v >> 16)).astype(np.uint64))
    return np.stack([out[2 * j] | out[2 * j + 1] << 32 for j in range(4)], axis=1)


def _replicate_rngs(master_seed, lo: int, hi: int):
    """Yield the generator of each replicate lo to hi - 1 in turn.

    Replicate i's generator draws the stream of
    default_rng(SeedSequence(entropy=master_seed, spawn_key=(i,))). It is
    one Generator whose PCG64 is reset to the next replicate's state at each
    step, so a caller must be done with one replicate before the next.
    """
    bitgen = np.random.PCG64(0)
    rng = np.random.Generator(bitgen)
    words = _spawn_words(master_seed, np.arange(lo, hi, dtype=np.uint64))
    for s_hi, s_lo, q_hi, q_lo in words.tolist():
        # PCG64 seeding: state 0, inc = (seq << 1) | 1, one step, add the
        # initial state, one more step.
        inc = ((q_hi << 64 | q_lo) << 1 | 1) & _MASK128
        state = ((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _MASK128
        bitgen.state = {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        yield rng


# Replicates staged per block copy into a chunk's observation-major buffer.
_STAGE_ROWS = 64


def _draw_stacks(spec: SimSpec, lo: int, hi: int):
    """Draws of replicates lo to hi - 1, stacked to (hi - lo, n, K) per group.

    Returns (x1, x2, drawn) where drawn flags replicates whose draws
    succeeded; failed rows hold a uniform placeholder and are excluded
    from the tally as fit failures.

    Group 1 draws first and group 2 second from the replicate's stream.
    When both groups share one Dirichlet generator, one call draws both:
    the gamma variates fill the rows in stream order and each row is
    normalized alone, so the split rows equal two calls bit for bit.

    x1 and x2 are views of one observation-major (n1 + n2, hi - lo, K)
    buffer: observation i of every replicate is one contiguous (hi - lo, K)
    block, so a mean over the observation axis adds whole blocks, in the
    same order as over a C-ordered stack, and equals it bit for bit.
    Replicates are drawn into a small C-ordered stage and copied into the
    buffer a block at a time, which costs less than one strided copy per
    replicate.
    """
    n1, n2 = spec.n_pair
    k = spec.n_components
    g1, g2 = spec.generator_1, spec.generator_2
    merged = isinstance(g1, DirichletParams) and same_generator(g1, g2)
    b = hi - lo
    buf = np.empty((n1 + n2, b, k))
    rows = min(_STAGE_ROWS, b)
    stage = np.empty((rows, n1 + n2, k))
    drawn = np.ones(b, dtype=bool)
    for j, rng in enumerate(_replicate_rngs(spec.master_seed, lo, hi)):
        row = stage[j % rows]
        try:
            if merged:
                row[...] = dirichlet.sample(g1, n1 + n2, rng)
            else:
                row[:n1] = _draw(g1, n1, rng)
                row[n1:] = _draw(g2, n2, rng)
        except NumericalError:
            row[...] = 1.0 / k
            drawn[j] = False
        if (j + 1) % rows == 0 or j + 1 == b:
            first = j - j % rows
            buf[:, first : j + 1] = stage[: j + 1 - first].transpose(1, 0, 2)
    return buf[:n1].transpose(1, 0, 2), buf[n1:].transpose(1, 0, 2), drawn


def _stack_stats(x: np.ndarray) -> SufficientStats:
    return SufficientStats.reduce(x)


def _node_blocks(tree: NestingTree, x: np.ndarray) -> list[SufficientStats]:
    """Per-node carriers of a (B, n, K) stack, as the nested test fits them."""
    return [stats for stats, _ in nested._node_stats(nested._child_leaf_sets(tree), x)]


def _carriers(spec: SimSpec, x: np.ndarray) -> list[SufficientStats]:
    """What the procedure fits of one group's (B, n, K) stack: one carrier
    per internal node of the nested test's tree, else one carrier."""
    if isinstance(spec.procedure, NddLRT):
        return _node_blocks(spec.procedure.tree, x)
    return [_stack_stats(x)]


def _stream(spec: SimSpec):
    """Draw and reduce the replicates a chunk at a time.

    A chunk's stacks are dropped before the next chunk is drawn, so memory
    holds one chunk's draws and the (R, K) carriers. Returns each group's
    joined carriers and the drawn mask; reductions are per row, so they do
    not depend on the chunk size.
    """
    r = spec.replicates
    rows = inference._chunk_rows(max(spec.n_pair), spec.n_components)
    parts1, parts2, drawn = [], [], []
    for lo in range(0, r, rows):
        x1, x2, ok = _draw_stacks(spec, lo, min(lo + rows, r))
        parts1.append(_carriers(spec, x1))
        parts2.append(_carriers(spec, x2))
        drawn.append(ok)
        del x1, x2
    return (
        [SufficientStats.concat(p) for p in zip(*parts1)],
        [SufficientStats.concat(p) for p in zip(*parts2)],
        np.concatenate(drawn),
    )


def _maugard_outcomes(spec: SimSpec, c1, c2):
    # Both groups fit as one stacked batch; each group keeps its own
    # calibration, at its own n.
    proc = spec.procedure
    k = spec.n_components
    r = c1[0].mean_log.shape[0]
    res = inference._uniformity_lrt_batch(SufficientStats.concat([c1[0], c2[0]]))
    good = res["usable"] & res["converged"]
    p = []
    for rows, n in zip((slice(0, r), slice(r, 2 * r)), spec.n_pair):
        stat = res["statistic"][rows]
        if proc.calibration_replicates is not None:
            p.append(inference._calibrated_p(stat, n, k, proc.calibration_replicates))
        else:
            p.append(chi_square_sf(np.where(good[rows], stat, 0.0), k - 1))
    return inference._maugard_verdicts(p[0], p[1], spec.level), good[:r] & good[r:]


def _lrt_outcomes(spec: SimSpec, c1, c2):
    # The plain test is the one-node case: a single carrier per group.
    lam, ok = 0.0, True
    for res in nested._fit_nodes(inference._two_sample_lrt_batch, c1, c2):
        lam = lam + res["statistic"]
        ok = ok & res["usable"] & res["converged"]
    # An unusable row's statistic is NaN; it is tallied as a fit failure.
    # Every tree's per-node degrees of freedom add up to K - 1.
    p = chi_square_sf(np.where(ok, lam, 0.0), spec.n_components - 1)
    return np.where(p < spec.level, REJECT, FAIL_TO_REJECT), ok


def _run(spec: SimSpec) -> SimResult:
    t0 = time.perf_counter()
    c1, c2, drawn = _stream(spec)
    if isinstance(spec.procedure, MaugardProcedure):
        outcomes, ok = _maugard_outcomes(spec, c1, c2)
    else:
        outcomes, ok = _lrt_outcomes(spec, c1, c2)
    ok = ok & drawn

    counts = {cat: 0 for cat in spec.procedure.categories}
    for cat in np.unique(outcomes[ok]):
        counts[str(cat)] = int((outcomes[ok] == cat).sum())
    counts[FIT_FAILURE] = int((~ok).sum())

    if counts[FIT_FAILURE] > FAILURE_BUDGET * spec.replicates:
        raise NumericalError(
            f"{counts[FIT_FAILURE]} of {spec.replicates} replicates failed "
            f"to fit, above the {FAILURE_BUDGET:.0%} budget"
        )

    r = float(spec.replicates)
    rates = {cat: counts[cat] / r for cat in counts}
    mc_se = {
        cat: float(np.sqrt(rates[cat] * (1.0 - rates[cat]) / r))
        for cat in counts
    }
    return SimResult(
        procedure=spec.procedure.name,
        counts=counts,
        rates=rates,
        mc_se=mc_se,
        replicates=spec.replicates,
        n_per_group=spec.n_pair,
        level=spec.level,
        master_seed=spec.master_seed,
        wall_time_seconds=time.perf_counter() - t0,
    )


def run_type1_study(spec: SimSpec) -> SimResult:
    """Error rates under a null configuration (one shared generator)."""
    if not same_generator(spec.generator_1, spec.generator_2):
        raise InputError(
            "type I studies need both groups drawn from the same generator"
        )
    return _run(spec)


def run_power_study(spec: SimSpec) -> SimResult:
    """Rejection rates under distinct group generators."""
    if same_generator(spec.generator_1, spec.generator_2):
        raise InputError("power studies need distinct group generators")
    return _run(spec)


def run_correlation_check(
    params, n: int, master_seed: int = 0
) -> np.ndarray:
    """Sample correlation matrix of n draws from a fitted model.

    Used to check that a nested fit actually reproduces the correlation
    pattern it was selected for.
    """
    if n < 3:
        raise InputError(f"need at least 3 draws for a correlation, got {n}")
    x = _draw(params, n, next(_replicate_rngs(master_seed, 0, 1)))
    return np.corrcoef(x, rowvar=False)
