"""CSV ingestion and structured result documents.

The command line tool reads compositional data from CSV (one header row,
one group column, the rest numeric component columns) and emits results in
two forms: an indented human-readable text report and a JSON document that
round-trips losslessly. Documents carry no timestamp unless one is passed
in, so repeated runs with the same seed are byte-identical.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np

from .composition import DEFAULT_SUM_TOLERANCE, CompositionDataset, _check_sum_tolerance
from .errors import (
    EmptyGroupError,
    InputError,
    MissingColumnError,
    NotNormalizedError,
    ZeroComponentError,
)

__all__ = ["ResultDocument", "parse_csv", "render_text"]


def _json_default(value):
    """json.dumps hook for the numpy values a result may hold."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    raise InputError(
        f"cannot serialize value of type {type(value).__name__}: {value!r}"
    )


def _jsonable(value):
    """Convert to plain JSON-native types by a round trip through json."""
    return json.loads(json.dumps(value, default=_json_default))


@dataclass(frozen=True)
class ResultDocument:
    """One command's structured output.

    kind names the command, config echoes its inputs, results holds the
    numbers. All content is normalized to JSON-native types on
    construction, so to_json and from_json round-trip exactly.
    """

    kind: str
    version: str
    config: dict
    results: dict
    created: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "config", _jsonable(self.config))
        object.__setattr__(self, "results", _jsonable(self.results))

    def to_json(self) -> str:
        payload = {
            "kind": self.kind,
            "version": self.version,
            "config": self.config,
            "results": self.results,
            "created": self.created,
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "ResultDocument":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InputError(f"not a valid result document: {exc}") from exc
        missing = {"kind", "version", "config", "results"} - set(payload)
        if missing:
            raise InputError(
                f"result document missing fields: {sorted(missing)}"
            )
        return cls(
            kind=payload["kind"],
            version=payload["version"],
            config=payload["config"],
            results=payload["results"],
            created=payload.get("created"),
        )


def _format_value(value) -> str:
    if isinstance(value, bool) or value is None:
        return str(value)
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _render_block(value, indent: int, lines: list[str]) -> None:
    pad = "  " * indent
    if isinstance(value, dict):
        for key, item in value.items():
            if isinstance(item, (dict, list)):
                lines.append(f"{pad}{key}:")
                _render_block(item, indent + 1, lines)
            else:
                lines.append(f"{pad}{key}: {_format_value(item)}")
    elif isinstance(value, list):
        scalar = all(not isinstance(v, (dict, list)) for v in value)
        if scalar:
            body = ", ".join(_format_value(v) for v in value)
            lines.append(f"{pad}[{body}]")
        else:
            for i, item in enumerate(value):
                lines.append(f"{pad}- [{i}]")
                _render_block(item, indent + 1, lines)
    else:
        lines.append(f"{pad}{_format_value(value)}")


def render_text(doc: ResultDocument) -> str:
    """Human-readable rendering of a result document."""
    lines = [f"{doc.kind} report (simplexstats {doc.version})"]
    if doc.created:
        lines.append(f"created: {doc.created}")
    lines.append("config:")
    _render_block(doc.config, 1, lines)
    lines.append("results:")
    _render_block(doc.results, 1, lines)
    return "\n".join(lines) + "\n"


def parse_csv(
    path: str,
    group_column: str = "group",
    components: list[str] | None = None,
    zero_replace: float | None = None,
    sum_tolerance: float = DEFAULT_SUM_TOLERANCE,
) -> CompositionDataset:
    """Read a compositional dataset from a CSV file.

    The header must contain group_column; component columns default to
    every other column, in header order. Errors carry the file's row
    number (header = row 1). zero_replace, when given, substitutes that
    value for exact zeros and renormalizes the row, a standard small-value
    replacement for compositions with structural zeros.
    """
    _check_sum_tolerance(sum_tolerance)
    if zero_replace is not None and not (0.0 < zero_replace < 1.0):
        raise InputError(
            f"zero replacement must be in (0, 1), got {zero_replace}"
        )
    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise EmptyGroupError(f"{path} is empty") from None
        if group_column not in header:
            raise MissingColumnError(
                f"group column {group_column!r} not found; header has "
                f"{header}"
            )
        if components is None:
            components = [h for h in header if h != group_column]
        else:
            components = list(components)
            absent = [c for c in components if c not in header]
            if absent:
                raise MissingColumnError(
                    f"component columns {absent} not found; header has "
                    f"{header}"
                )
        if len(components) < 2:
            raise MissingColumnError(
                "need at least 2 component columns, found "
                f"{len(components)}"
            )
        gi = header.index(group_column)
        ci = [header.index(c) for c in components]

        rows: list[np.ndarray] = []
        labels: list[str] = []
        for row_no, row in enumerate(reader, start=2):
            if not any(cell.strip() for cell in row):
                continue
            if len(row) != len(header):
                raise InputError(
                    f"row {row_no}: expected {len(header)} cells, got "
                    f"{len(row)}"
                )
            label = row[gi].strip()
            if not label:
                raise InputError(f"row {row_no}: empty group label")
            try:
                values = np.array([float(row[j]) for j in ci])
            except ValueError as exc:
                raise InputError(f"row {row_no}: {exc}") from exc
            finite = np.isfinite(values)
            if not finite.all():
                j = int(np.argmin(finite))
                raise InputError(
                    f"row {row_no}: component {components[j]!r} is not "
                    f"finite ({values[j]:g})"
                )
            if zero_replace is not None and np.any(values == 0.0):
                values = np.where(values == 0.0, zero_replace, values)
                values = values / values.sum()
            if np.any(values <= 0.0):
                bad = components[int(np.argmin(values))]
                raise ZeroComponentError(
                    f"row {row_no}: component {bad!r} is not strictly "
                    f"positive ({values.min():g})",
                    row=row_no,
                )
            if abs(values.sum() - 1.0) > sum_tolerance:
                raise NotNormalizedError(
                    f"row {row_no}: components sum to {values.sum():.6g}, "
                    f"not 1 within {sum_tolerance:g}",
                    row=row_no,
                )
            rows.append(values)
            labels.append(label)

    if not rows:
        raise EmptyGroupError(f"{path} has a header but no data rows")
    return CompositionDataset.from_arrays(
        np.array(rows),
        labels,
        components=tuple(components),
        sum_tolerance=sum_tolerance,
    )
