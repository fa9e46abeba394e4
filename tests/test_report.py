"""CSV ingestion and the JSON/text result documents."""

import importlib.resources
import json

import numpy as np
import pytest

from simplexstats.errors import (
    EmptyGroupError,
    InputError,
    MissingColumnError,
    NotNormalizedError,
    ZeroComponentError,
)
from simplexstats.report import ResultDocument, parse_csv, render_text


def _write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


GOOD_CSV = (
    "group,a,b,c\n"
    "g1,0.2,0.3,0.5\n"
    "g1,0.1,0.4,0.5\n"
    "g2,0.25,0.25,0.5\n"
)


def test_parse_csv_happy_path(tmp_path):
    ds = parse_csv(_write(tmp_path, GOOD_CSV))
    assert ds.components == ("a", "b", "c")
    assert ds.groups == ("g1", "g2")
    assert ds.n_observations == 3
    assert np.allclose(ds.matrix[0], [0.2, 0.3, 0.5])
    assert ds.labels == ("g1", "g1", "g2")


def test_parse_csv_group_column_position_and_selection(tmp_path):
    text = (
        "b,who,a\n"
        "0.3,x,0.7\n"
        "0.6,y,0.4\n"
    )
    ds = parse_csv(_write(tmp_path, text), group_column="who")
    assert ds.components == ("b", "a")
    assert np.allclose(ds.matrix[0], [0.3, 0.7])

    ds2 = parse_csv(
        _write(tmp_path, text, "again.csv"),
        group_column="who",
        components=["a", "b"],
    )
    assert ds2.components == ("a", "b")
    assert np.allclose(ds2.matrix[0], [0.7, 0.3])


def test_parse_csv_skips_blank_rows_and_strips_whitespace(tmp_path):
    text = (
        " group , a , b \n"
        "\n"
        " g1 ,0.4,0.6\n"
        "   \n"
        "g2,0.5,0.5\n"
    )
    ds = parse_csv(_write(tmp_path, text))
    assert ds.groups == ("g1", "g2")
    assert ds.n_observations == 2


def test_parse_csv_zero_replacement(tmp_path):
    text = (
        "group,a,b,c\n"
        "g1,0.0,0.4,0.6\n"
        "g1,0.2,0.3,0.5\n"
    )
    ds = parse_csv(_write(tmp_path, text), zero_replace=0.01)
    row = ds.matrix[0]
    assert row.sum() == pytest.approx(1.0)
    assert row[0] == pytest.approx(0.01 / 1.01)
    assert row[1] == pytest.approx(0.4 / 1.01)
    # rows without zeros pass through untouched
    assert np.allclose(ds.matrix[1], [0.2, 0.3, 0.5])


@pytest.mark.parametrize("bad", [0.0, 1.0, -0.5, 2.0])
def test_parse_csv_zero_replace_must_be_fractional(tmp_path, bad):
    with pytest.raises(InputError):
        parse_csv(_write(tmp_path, GOOD_CSV), zero_replace=bad)


def test_parse_csv_error_paths(tmp_path):
    with pytest.raises(InputError, match="cannot read"):
        parse_csv(str(tmp_path / "nope.csv"))
    with pytest.raises(EmptyGroupError, match="is empty"):
        parse_csv(_write(tmp_path, "", "empty.csv"))
    with pytest.raises(EmptyGroupError, match="no data rows"):
        parse_csv(_write(tmp_path, "group,a,b\n", "headonly.csv"))
    with pytest.raises(MissingColumnError, match="group column 'batch'"):
        parse_csv(_write(tmp_path, GOOD_CSV), group_column="batch")
    with pytest.raises(MissingColumnError, match=r"\['z'\] not found"):
        parse_csv(_write(tmp_path, GOOD_CSV), components=["a", "z"])
    with pytest.raises(MissingColumnError, match="found 1"):
        parse_csv(_write(tmp_path, GOOD_CSV), components=["a"])
    with pytest.raises(InputError, match="row 3: expected 4 cells, got 3"):
        parse_csv(
            _write(tmp_path, "group,a,b,c\ng1,0.2,0.3,0.5\ng1,0.5,0.5\n")
        )
    with pytest.raises(InputError, match="row 2: empty group label"):
        parse_csv(_write(tmp_path, "group,a,b\n ,0.5,0.5\n"))
    with pytest.raises(InputError, match="row 2"):
        parse_csv(_write(tmp_path, "group,a,b\ng1,oops,0.5\n"))


def test_parse_csv_value_validation(tmp_path):
    with pytest.raises(ZeroComponentError) as err:
        parse_csv(_write(tmp_path, "group,a,b\ng1,0,1.0\n"))
    assert err.value.row == 2
    assert "'a'" in str(err.value)

    with pytest.raises(NotNormalizedError) as err:
        parse_csv(_write(tmp_path, "group,a,b\ng1,0.6,0.6\n"))
    assert err.value.row == 2
    assert "1.2" in str(err.value)

    # non-finite cells are named by file row and column, not by data row
    with pytest.raises(InputError, match=r"row 4: component 'b' is not finite \(nan\)"):
        parse_csv(_write(tmp_path, "group,a,b,c\ng1,0.2,0.3,0.5\ng2,0.3,0.2,0.5\ng2,0.2,nan,0.5\n"))
    with pytest.raises(InputError, match=r"row 2: component 'a' is not finite \(inf\)"):
        parse_csv(_write(tmp_path, "group,a,b\ng1,inf,0.5\n"))

    # looser tolerance admits mildly unnormalized rows
    ds = parse_csv(
        _write(tmp_path, "group,a,b\ng1,0.6,0.41\ng1,0.5,0.5\n"),
        sum_tolerance=0.02,
    )
    assert ds.n_observations == 2


def test_packaged_example_dataset_parses():
    res = importlib.resources.files("simplexstats") / "data" / "synthetic_navigation.csv"
    ds = parse_csv(str(res))
    assert ds.components == ("TQ", "AQ1", "OQ", "AQ2")
    assert ds.n_observations == 14
    assert len(ds.groups) == 2
    assert np.allclose(ds.matrix.sum(axis=1), 1.0)


def test_document_round_trip_normalizes_numpy_types():
    doc = ResultDocument(
        kind="fit",
        version="0.1.0",
        config={
            "alpha": np.array([1.5, 2.5]),
            "n": np.int64(7),
            "flag": True,
            "note": None,
        },
        results={"stat": np.float64(3.25), "names": ("a", "b")},
    )
    assert doc.config["alpha"] == [1.5, 2.5]
    assert isinstance(doc.config["n"], int)
    assert doc.results["names"] == ["a", "b"]

    again = ResultDocument.from_json(doc.to_json())
    assert again == doc
    assert doc.to_json() == doc.to_json()
    assert doc.to_json().endswith("\n")
    payload = json.loads(doc.to_json())
    assert payload["created"] is None


def test_document_rejects_unserializable_content():
    with pytest.raises(InputError, match="cannot serialize"):
        ResultDocument(
            kind="fit", version="0", config={"x": object()}, results={}
        )


def test_document_from_json_errors():
    with pytest.raises(InputError, match="not a valid result document"):
        ResultDocument.from_json("{broken")
    with pytest.raises(InputError, match="missing fields"):
        ResultDocument.from_json(json.dumps({"kind": "fit", "version": "0"}))


def test_render_text_layout():
    doc = ResultDocument(
        kind="test",
        version="9.9",
        config={"csv": "x.csv", "level": 0.05},
        results={
            "statistic": 22.880937,
            "groups": ["control", "treatment"],
            "subtrees": [{"label": "root", "stat": 1.5}],
            "nested": {"inner": {"deep": 2}},
        },
    )
    text = render_text(doc)
    lines = text.splitlines()
    assert lines[0] == "test report (simplexstats 9.9)"
    assert "created:" not in text
    assert "config:" in lines
    assert "  csv: x.csv" in lines
    assert "  statistic: 22.8809" in lines
    assert "  groups:" in lines
    assert "    [control, treatment]" in lines
    assert "    - [0]" in lines
    assert "      label: root" in lines
    assert "    inner:" in lines
    assert "      deep: 2" in lines
    assert text.endswith("\n")

    stamped = ResultDocument(
        kind="test", version="9.9", config={}, results={}, created="2026-01-01T00:00:00Z"
    )
    assert "created: 2026-01-01T00:00:00Z" in render_text(stamped)
