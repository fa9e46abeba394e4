"""Compositional data containers and transforms.

A composition is a vector of positive parts that sum to one. This module
validates raw vectors and matrices, bundles observations with group labels
and component names, reduces them to the sufficient statistics every fitting
routine consumes, and provides the centered log-ratio transform and the
pooled sample correlation the tree search screens on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateDataError,
    DimensionMismatchError,
    EmptyGroupError,
    InputError,
    NotNormalizedError,
    TooFewComponentsError,
    ZeroComponentError,
)

__all__ = [
    "CompositionDataset",
    "SufficientStats",
    "validate",
    "clr",
    "sample_correlation",
]

DEFAULT_SUM_TOLERANCE = 1.0e-6


def _row_tag(index: int | None) -> str:
    return "" if index is None else f" (row {index})"


def validate(x, sum_tolerance: float = DEFAULT_SUM_TOLERANCE) -> np.ndarray:
    """Check a composition vector or matrix and return it exactly normalized.

    Entries must be finite and strictly positive, and each row must sum to one
    within ``sum_tolerance``. Rows are then rescaled so they sum to one at
    machine precision. Returns a fresh float array, 1-D in, 1-D out.
    """
    arr = np.asarray(x, dtype=float)
    if arr.ndim not in (1, 2):
        raise InputError(f"expected a vector or matrix, got ndim={arr.ndim}")
    vector = arr.ndim == 1
    rows = arr[None, :] if vector else arr
    if rows.shape[-1] < 2:
        raise TooFewComponentsError(
            f"a composition needs at least 2 parts, got {rows.shape[-1]}"
        )
    if rows.shape[0] == 0:
        raise EmptyGroupError("no observations")

    finite = np.isfinite(rows)
    if not finite.all():
        bad = int(np.nonzero(~finite.all(axis=1))[0][0])
        raise InputError(f"non-finite entry{_row_tag(None if vector else bad)}")
    nonpos = rows <= 0.0
    if nonpos.any():
        bad = int(np.nonzero(nonpos.any(axis=1))[0][0])
        raise ZeroComponentError(
            "components must be strictly positive; zeros need explicit "
            f"replacement before analysis{_row_tag(None if vector else bad)}",
            row=None if vector else bad,
        )
    sums = rows.sum(axis=1)
    off = np.abs(sums - 1.0) > sum_tolerance
    if off.any():
        bad = int(np.nonzero(off)[0][0])
        raise NotNormalizedError(
            f"row sum {sums[bad]:.8g} differs from 1 by more than "
            f"{sum_tolerance:g}{_row_tag(None if vector else bad)}",
            row=None if vector else bad,
        )
    out = rows / sums[:, None]
    return out[0] if vector else out


@dataclass(frozen=True)
class SufficientStats:
    """Per-group summaries that the Dirichlet likelihood depends on.

    mean_log carries the likelihood, mean and mean_sq feed moment-based
    initialization and degeneracy checks. One dataset has (K,) arrays and
    an int n; a stack of B datasets has (B, K) arrays and a (B,) float n,
    which is what the batched fitters consume.
    """

    n: int | np.ndarray
    mean_log: np.ndarray
    mean: np.ndarray
    mean_sq: np.ndarray

    def __post_init__(self):
        for name in ("mean_log", "mean", "mean_sq"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.ndim not in (1, 2):
                raise DimensionMismatchError(
                    f"{name} must be a vector or a stack of vectors"
                )
            # A frozen array that owns its data is kept as it is, not copied.
            if arr.flags.writeable or not arr.flags.owndata:
                arr = arr.copy()
                arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        if not (self.mean_log.shape == self.mean.shape == self.mean_sq.shape):
            raise DimensionMismatchError("sufficient statistic shapes differ")
        if np.shape(self.n) != self.mean_log.shape[:-1]:
            raise DimensionMismatchError("need one sample size per dataset")
        if np.any(np.asarray(self.n) < 1):
            raise EmptyGroupError("sufficient statistics need n >= 1")

    @classmethod
    def reduce(cls, x: np.ndarray) -> "SufficientStats":
        """Statistics of an (n, K) matrix, or of each matrix in a (B, n, K)
        stack, over the observation axis. The rows are not validated.

        A matrix reduces as the one-row stack, and each row's statistics
        depend on its matrix alone, bit for bit; so a matrix's statistics
        equal its row of any stack, and a stack reduced in parts and joined
        with concat equals the whole.

        Each mean adds the observations in order, whatever the memory
        layout, so a stack and any strided view of it reduce alike, bit for
        bit. It runs fastest on an observation-major stack, whose
        observation i is one contiguous (B, K) block (the studies' draws,
        simulate._draw_stacks): each step adds a whole block, where a
        C-ordered stack adds B rows of K. The log and square scratch is
        observation-major whatever x's layout, so its two means always run
        at that speed.
        """
        if x.ndim == 2:
            row = cls.reduce(x[None])
            return cls(
                n=x.shape[0],
                mean_log=row.mean_log[0],
                mean=row.mean[0],
                mean_sq=row.mean_sq[0],
            )
        # One scratch array serves log(x) and x * x: a second full-size
        # temporary can land in fresh memory and add a stack to peak RSS.
        b, n, k = x.shape
        scratch = np.log(x, out=np.empty((n, b, k)).transpose(1, 0, 2))
        mean_log = scratch.mean(axis=1)
        # square is x * x bit for bit, and takes a quarter less time.
        np.square(x, out=scratch)
        return cls(
            n=np.full(b, float(n)),
            mean_log=mean_log,
            mean=x.mean(axis=1),
            mean_sq=scratch.mean(axis=1),
        )

    @classmethod
    def concat(cls, parts) -> "SufficientStats":
        """Stacked carriers joined along the dataset axis, in order. Each
        joined field is built once and frozen, so the carrier keeps it."""
        if len(parts) == 1:
            return parts[0]
        joined = {
            name: np.concatenate([getattr(p, name) for p in parts])
            for name in ("n", "mean_log", "mean", "mean_sq")
        }
        for arr in joined.values():
            arr.flags.writeable = False
        return cls(**joined)

    @classmethod
    def from_matrix(cls, matrix: np.ndarray) -> "SufficientStats":
        return cls.reduce(np.atleast_2d(validate(matrix)))

    @property
    def stacked(self) -> bool:
        return self.mean_log.ndim == 2

    @property
    def n_components(self) -> int:
        return self.mean_log.shape[-1]


@dataclass(frozen=True)
class CompositionDataset:
    """Observations with group labels and component names.

    matrix holds one composition per row (validated and renormalized),
    labels assigns each row to a group, components names the columns.
    """

    matrix: np.ndarray
    labels: tuple[str, ...]
    components: tuple[str, ...]
    sum_tolerance: float = field(default=DEFAULT_SUM_TOLERANCE, repr=False)

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=float)
        if mat.ndim == 1:
            mat = mat[None, :]
        mat = validate(mat, self.sum_tolerance)
        mat.flags.writeable = False
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "labels", tuple(str(v) for v in self.labels))
        object.__setattr__(self, "components", tuple(str(c) for c in self.components))
        if len(self.labels) != mat.shape[0]:
            raise DimensionMismatchError(
                f"{len(self.labels)} labels for {mat.shape[0]} rows"
            )
        if len(self.components) != mat.shape[1]:
            raise DimensionMismatchError(
                f"{len(self.components)} component names for {mat.shape[1]} columns"
            )
        if len(set(self.components)) != len(self.components):
            raise InputError("component names must be unique")

    @classmethod
    def from_arrays(cls, matrix, labels, components=None, **kw) -> "CompositionDataset":
        mat = np.asarray(matrix, dtype=float)
        if mat.ndim == 1:
            mat = mat[None, :]
        if components is None:
            components = tuple(f"c{j + 1}" for j in range(mat.shape[1]))
        return cls(matrix=mat, labels=tuple(labels), components=tuple(components), **kw)

    @property
    def n_observations(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_components(self) -> int:
        return self.matrix.shape[1]

    @property
    def groups(self) -> tuple[str, ...]:
        seen: dict[str, None] = {}
        for lab in self.labels:
            seen.setdefault(lab, None)
        return tuple(seen)

    def group_matrix(self, label: str) -> np.ndarray:
        mask = np.array([lab == label for lab in self.labels])
        if not mask.any():
            raise EmptyGroupError(f"no observations with group label {label!r}")
        return self.matrix[mask]

    def group_dataset(self, label: str) -> "CompositionDataset":
        """One group's rows as a dataset with the same component names."""
        matrix = self.group_matrix(label)
        labels = (label,) * matrix.shape[0]
        return CompositionDataset(matrix, labels, self.components, self.sum_tolerance)

    def component_index(self, name: str) -> int:
        try:
            return self.components.index(name)
        except ValueError:
            raise InputError(
                f"unknown component {name!r}; dataset has {self.components}"
            ) from None


def clr(x) -> np.ndarray:
    """Centered log-ratio transform: log x minus its rowwise mean."""
    arr = validate(x)
    logs = np.log(arr)
    return logs - logs.mean(axis=-1, keepdims=True)


def sample_correlation(data) -> np.ndarray:
    """Pearson correlation matrix of component proportions.

    ``data`` is a CompositionDataset, whose groups' rows are pooled as they
    are, or a plain matrix.
    """
    if isinstance(data, CompositionDataset):
        matrix = data.matrix
    else:
        matrix = validate(np.asarray(data, dtype=float))
        if matrix.ndim == 1:
            matrix = matrix[None, :]
    centered = matrix - matrix.mean(axis=0)

    if centered.shape[0] < 2:
        raise DegenerateDataError("correlation needs at least 2 observations")
    denom = np.sqrt((centered * centered).sum(axis=0))
    if np.any(denom <= 0.0):
        j = int(np.nonzero(denom <= 0.0)[0][0])
        raise DegenerateDataError(f"component {j} has zero variance")
    scaled = centered / denom
    corr = scaled.T @ scaled
    np.fill_diagonal(corr, 1.0)
    return np.clip(corr, -1.0, 1.0)
