"""SVG ternary diagram rendering."""

import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from simplexstats.composition import CompositionDataset
from simplexstats.errors import InputError, TooFewComponentsError
from simplexstats.ternary import (
    component_pairs,
    emit_ternary_svg,
    render_ternary_svg,
)


def _dataset(k=4):
    rng = np.random.default_rng(55)
    x = rng.dirichlet(np.full(k, 3.0), size=10)
    comps = tuple("wxyz"[:k])
    return CompositionDataset.from_arrays(
        x, ["g1"] * 6 + ["g2"] * 4, components=comps
    )


def test_component_pairs_order():
    assert component_pairs(("a", "b", "c")) == [
        ("a", "b"),
        ("a", "c"),
        ("b", "c"),
    ]


def test_render_is_deterministic_and_well_formed():
    ds = _dataset()
    svg1 = render_ternary_svg(ds)
    svg2 = render_ternary_svg(ds)
    assert svg1 == svg2
    assert svg1.startswith("<svg ")
    assert svg1.endswith("</svg>\n")
    # one triangle outline per pair plus one marker per observation per panel
    assert svg1.count('stroke="#555555"') == 6
    assert "★ = sum of the unlabeled components" in svg1
    # both group labels reach the legend
    assert ">g1</text>" in svg1
    assert ">g2</text>" in svg1


def test_markup_in_names_and_labels_is_escaped():
    # Component names and group labels reach SVG text; unescaped, "&" and
    # "<" made a document that XML parsers reject.
    rng = np.random.default_rng(55)
    x = rng.dirichlet(np.full(3, 3.0), size=6)
    ds = CompositionDataset.from_arrays(
        x, ["A&B"] * 3 + ["c<d"] * 3, components=("p&q", "r<s", "t>u")
    )
    for pairs in ([("p&q", "r<s")], [("r<s", "t>u")]):
        root = ET.fromstring(render_ternary_svg(ds, pairs=pairs))
        texts = [el.text for el in root.iter("{http://www.w3.org/2000/svg}text")]
        assert set(texts) == {"p&q", "r<s", "t>u", "A&B", "c<d"}


def test_render_three_components_has_no_star():
    ds = _dataset(k=3)
    svg = render_ternary_svg(ds, pairs=[("w", "x")])
    assert "★" not in svg
    # the remaining component labels the top corner
    assert ">y</text>" in svg


def test_marker_count_matches_observations():
    ds = _dataset(k=3)
    svg = render_ternary_svg(ds, pairs=[("w", "x")])
    # g1 plots circles, g2 crosses; legend adds one marker per group
    assert svg.count("<circle ") == 6 + 1
    assert svg.count("stroke-width=\"1.8\"") == 4 + 1


def test_vertex_geometry():
    # a composition sitting entirely on one pair component lands on the
    # matching triangle corner
    eps = 1e-12
    x = np.array(
        [
            [1.0 - 2 * eps, eps, eps],
            [eps, 1.0 - 2 * eps, eps],
            [eps, eps, 1.0 - 2 * eps],
        ]
    )
    ds = CompositionDataset.from_arrays(x, ["g"] * 3, components=("a", "b", "c"))
    svg = render_ternary_svg(ds, pairs=[("a", "b")])
    side = 300.0 - 2 * 34.0
    # left corner (34, 266), right corner (266, 266), top corner
    left = '<circle cx="34.00" cy="266.00"'
    right = '<circle cx="266.00" cy="266.00"'
    top_y = 266.0 - math.sqrt(3.0) / 2.0 * side
    top = f'<circle cx="150.00" cy="{top_y:.2f}"'
    assert left in svg
    assert right in svg
    assert top in svg


def test_render_errors():
    ds = _dataset()
    with pytest.raises(InputError, match="no component pairs requested"):
        render_ternary_svg(ds, pairs=[])
    with pytest.raises(InputError, match="repeats a component"):
        render_ternary_svg(ds, pairs=[("w", "w")])
    with pytest.raises(InputError, match="unknown component"):
        render_ternary_svg(ds, pairs=[("w", "bogus")])

    two = CompositionDataset.from_arrays(
        np.array([[0.4, 0.6], [0.5, 0.5]]), ["g", "g"]
    )
    with pytest.raises(TooFewComponentsError, match="got 2"):
        render_ternary_svg(two, pairs=[("c1", "c2")])


def test_emit_writes_file_and_reports_path(tmp_path):
    ds = _dataset()
    out = tmp_path / "plot.svg"
    returned = emit_ternary_svg(ds, str(out), pairs=[("w", "x")])
    assert returned == str(out)
    assert out.read_text(encoding="utf-8") == render_ternary_svg(
        ds, pairs=[("w", "x")]
    )

    with pytest.raises(InputError, match="cannot write"):
        emit_ternary_svg(ds, str(tmp_path / "missing" / "plot.svg"))
