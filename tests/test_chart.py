from __future__ import annotations

import math
import random
import xml.etree.ElementTree as ET
from benchlattice import replace
from xml.sax.saxutils import escape

import pytest
from hypothesis import given
from hypothesis import strategies as st

from benchlattice.chart import (
    ChartStyle,
    _attr,
    _text,
    render_bench_chart,
    render_configuration_chart,
)
from benchlattice.configuration import enumerate_configurations
from benchlattice.errors import ForeignConfiguration
from benchlattice.taxonomy import Stage, leaf_dimensions
from helpers import make_element, random_bench, uniform_bench

SVG = "{http://www.w3.org/2000/svg}"


def parse(svg: str) -> ET.Element:
    return ET.fromstring(svg)


def spoke_groups(root: ET.Element) -> list[ET.Element]:
    return [
        g for g in root.findall(f"{SVG}g") if (g.get("id") or "").startswith("spoke-")
    ]


def dots(root: ET.Element) -> list[ET.Element]:
    return [
        c
        for c in root.iter(f"{SVG}circle")
        if "element-dot" in (c.get("class") or "")
    ]


def dot_polar(circle: ET.Element, center: float) -> tuple[float, float]:
    x = float(circle.get("cx")) - center
    y = float(circle.get("cy")) - center
    return math.hypot(x, y), math.atan2(x, -y)


def test_sil_chart_structure(sil_bench):
    svg = render_bench_chart(sil_bench)
    root = parse(svg)
    assert len(spoke_groups(root)) == 11
    assert len(dots(root)) == 12


def test_sil_vehicle_dynamics_dots_fanned(sil_bench):
    style = ChartStyle()
    root = parse(render_bench_chart(sil_bench, style))
    center = style.size / 2
    by_id = {c.get("id"): c for c in dots(root)}
    single = dot_polar(by_id["dot-vd-single-track"], center)
    double = dot_polar(by_id["dot-vd-double-track"], center)
    ring1 = style.stage_radii[1] * center
    assert single[0] == pytest.approx(ring1, abs=0.5)
    assert double[0] == pytest.approx(ring1, abs=0.5)
    # Distinct angles, symmetric around the spoke (offset_step degrees each).
    assert single[1] != double[1]
    spoke = math.radians(2 * 360 / 11)  # vehicle-dynamics is the third spoke
    offset = math.radians(style.offset_step)
    assert single[1] == pytest.approx(spoke + offset, abs=1e-3)
    assert double[1] == pytest.approx(spoke - offset, abs=1e-3)


def test_vehicle_chart_all_dots_on_outer_ring(vehicle_bench):
    style = ChartStyle()
    root = parse(render_bench_chart(vehicle_bench, style))
    assert len(spoke_groups(root)) == 10
    all_dots = dots(root)
    assert len(all_dots) == 10
    center = style.size / 2
    outer = style.stage_radii[3] * center
    for circle in all_dots:
        assert dot_polar(circle, center)[0] == pytest.approx(outer, abs=0.5)


def test_simulated_bench_dots_on_inner_ring():
    bench = uniform_bench()
    style = ChartStyle()
    root = parse(render_bench_chart(bench, style))
    center = style.size / 2
    inner = style.stage_radii[1] * center
    for circle in dots(root):
        assert dot_polar(circle, center)[0] == pytest.approx(inner, abs=0.5)


def test_rendering_deterministic(sil_bench):
    assert render_bench_chart(sil_bench) == render_bench_chart(sil_bench)
    config = enumerate_configurations(sil_bench)[0]
    assert render_configuration_chart(config, sil_bench) == render_configuration_chart(
        config, sil_bench
    )


def test_configuration_polygon_closed_through_all_leaves(sil_bench):
    config = enumerate_configurations(sil_bench)[0]
    root = parse(render_configuration_chart(config, sil_bench))
    composition = [g for g in root.findall(f"{SVG}g") if g.get("id") == "composition"]
    assert len(composition) == 1
    (polygon,) = composition[0].findall(f"{SVG}polygon")
    points = polygon.get("points").split()
    assert len(points) == len(leaf_dimensions(sil_bench)) == 11
    # The selected single-track dot lies on the path.
    single = next(c for c in dots(root) if c.get("id") == "dot-vd-single-track")
    vertex = (float(single.get("cx")), float(single.get("cy")))
    assert any(
        vertex == tuple(map(float, point.split(","))) for point in points
    )


def test_configuration_chart_omits_unselected_by_default(sil_bench):
    config = enumerate_configurations(sil_bench)[0]
    root = parse(render_configuration_chart(config, sil_bench))
    ids = {c.get("id") for c in dots(root)}
    assert "dot-vd-single-track" in ids
    assert "dot-vd-double-track" not in ids
    assert len(ids) == 11

    style = ChartStyle(show_unselected=True)
    root = parse(render_configuration_chart(config, sil_bench, style))
    all_dots = dots(root)
    assert len(all_dots) == 12
    selected = [c for c in all_dots if "selected" in c.get("class")]
    assert len(selected) == 11


def test_all_real_polygon_on_outer_ring(vehicle_bench):
    style = ChartStyle()
    (config,) = enumerate_configurations(vehicle_bench)
    root = parse(render_configuration_chart(config, vehicle_bench, style))
    (polygon,) = [
        g for g in root.findall(f"{SVG}g") if g.get("id") == "composition"
    ][0].findall(f"{SVG}polygon")
    center = style.size / 2
    outer = style.stage_radii[3] * center
    points = [tuple(map(float, p.split(","))) for p in polygon.get("points").split()]
    assert len(points) == 10
    for x, y in points:
        assert math.hypot(x - center, y - center) == pytest.approx(outer, abs=0.5)


def test_multi_selection_vertex_is_centroid():
    bench = uniform_bench(
        skip_dimensions=("movable-objects",),
        extra_elements=[
            make_element("m1", "movable-objects", Stage.SIMULATED),
            make_element("m2", "movable-objects", Stage.REAL),
        ],
        combinable={"movable-objects": True},
    )
    config = next(
        c
        for c in enumerate_configurations(bench)
        if c.selection["movable-objects"] == ("m1", "m2")
    )
    style = ChartStyle(show_unselected=True)
    root = parse(render_configuration_chart(config, bench, style))
    by_id = {c.get("id"): c for c in dots(root)}
    m1 = (float(by_id["dot-m1"].get("cx")), float(by_id["dot-m1"].get("cy")))
    m2 = (float(by_id["dot-m2"].get("cx")), float(by_id["dot-m2"].get("cy")))
    centroid = ((m1[0] + m2[0]) / 2, (m1[1] + m2[1]) / 2)
    (polygon,) = [
        g for g in root.findall(f"{SVG}g") if g.get("id") == "composition"
    ][0].findall(f"{SVG}polygon")
    points = [tuple(map(float, p.split(","))) for p in polygon.get("points").split()]
    movable_index = [leaf.id for leaf in leaf_dimensions(bench)].index("movable-objects")
    assert points[movable_index][0] == pytest.approx(centroid[0], abs=0.5)
    assert points[movable_index][1] == pytest.approx(centroid[1], abs=0.5)


def test_foreign_configuration_rejected(sil_bench, vehicle_bench):
    (config,) = enumerate_configurations(vehicle_bench)
    with pytest.raises(ForeignConfiguration):
        render_configuration_chart(config, sil_bench)


def test_coordinates_inside_viewport(sil_bench, vehicle_bench):
    style = ChartStyle()
    for bench in (sil_bench, vehicle_bench):
        root = parse(render_bench_chart(bench, style))
        for tag, attrs in (("circle", ("cx", "cy")), ("text", ("x", "y")), ("line", ("x1", "y1", "x2", "y2"))):
            for node in root.iter(f"{SVG}{tag}"):
                for attr in attrs:
                    value = float(node.get(attr))
                    assert 0 <= value <= style.size


def test_display_names_escaped():
    bench = uniform_bench()
    spiced = replace(
        bench,
        dimension_tree=tuple(
            replace(node, display_name="Scenery & <friends>")
            if node.id == "scenery"
            else node
            for node in bench.dimension_tree
        ),
    )
    svg = render_bench_chart(spiced)
    assert "Scenery &amp; &lt;friends&gt;" in svg
    assert "<friends>" not in svg
    parse(svg)  # still well-formed


ADVERSARIAL_TEXT = [
    "",
    "plain",
    "&amp;",
    "&lt;already&gt; &quot;escaped&quot;",
    "<>&\"'",
    "&&<<>>\"\"",
    "Fahrdynamik – Einspur <ä&ö>",
    "雷达 & 摄像头 \"前\"",
    "emoji 🚗 <car>",
    "]]> <!-- -->",
]


@pytest.mark.parametrize("value", ADVERSARIAL_TEXT)
def test_escapes_match_saxutils(value):
    assert _text(value) == escape(value)
    assert _attr(value) == escape(value, {'"': "&quot;"})


@given(st.text())
def test_escapes_match_saxutils_on_any_text(value):
    assert _text(value) == escape(value)
    assert _attr(value) == escape(value, {'"': "&quot;"})


def test_style_invariants():
    with pytest.raises(ValueError):
        ChartStyle(stage_radii={1: 0.5, 2: 0.4, 3: 0.8})
    with pytest.raises(ValueError):
        ChartStyle(offset_step=0.0)


def test_bench_chart_contains_empty_composition_group(sil_bench):
    root = parse(render_bench_chart(sil_bench))
    (composition,) = [g for g in root.findall(f"{SVG}g") if g.get("id") == "composition"]
    assert len(list(composition)) == 0


# Every element of these dimensions sits on one stage, so that their
# elements are fanned around the spoke.
_ONE_STAGE = {
    "vehicle-dynamics": (Stage.EMULATED,),
    "scenery": (Stage.REAL,),
    "movable-objects": (Stage.SIMULATED,),
    "environment-sensor-system": (Stage.REAL, Stage.REAL, Stage.SIMULATED),
}


def _dot_centres(root: ET.Element) -> dict[str, tuple[str, str]]:
    return {c.get("id"): (c.get("cx"), c.get("cy")) for c in dots(root)}


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("show_unselected", [False, True])
def test_configuration_charts_overlay_the_bench_chart(seed, show_unselected):
    """Every dot of every configuration chart sits where the bench chart
    puts the same element, fanned ones included."""
    bench = random_bench(
        random.Random(seed), f"fan-{seed}", max_elements=4, count_cap=120, stages=_ONE_STAGE
    )
    fanned = [
        leaf.id for leaf in leaf_dimensions(bench)
        if len({e.stage for e in bench.elements if e.dimension == leaf.id})
        < sum(e.dimension == leaf.id for e in bench.elements)
    ]
    assert fanned  # some leaf holds two elements on one stage
    style = ChartStyle(show_unselected=show_unselected)
    placed = _dot_centres(parse(render_bench_chart(bench, style)))
    for config in enumerate_configurations(bench):
        drawn = _dot_centres(parse(render_configuration_chart(config, bench, style)))
        expected = placed if show_unselected else {
            f"dot-{eid}": placed[f"dot-{eid}"] for eid in config.selected_ids()
        }
        assert drawn == expected
