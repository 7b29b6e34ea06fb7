from __future__ import annotations

import hashlib
import math
import random
import xml.etree.ElementTree as ET
from benchlattice import replace
from decimal import Decimal
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
from benchlattice.configuration import ConfigurationSpace, enumerate_configurations
from benchlattice.errors import ForeignConfiguration
from benchlattice.taxonomy import Stage, TestBench, leaf_dimensions
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
    for fields in (
        {"stage_radii": {1: 0.5, 2: 0.4, 3: 0.8}},
        {"stage_radii": {1: 0.3, 2: 0.5}},  # no radius for stage 3
        {"stage_radii": {1: 0.3, 2: "0.5", 3: 0.8}},
        {"stage_radii": {1: None, 2: 0.5, 3: 0.8}},
        {"stage_radii": {1: Decimal("0.3"), 2: Decimal("0.5"), 3: Decimal("0.8")}},
        {"stage_radii": {1: 0.3, 2: 0.5, 3: True}},
        {"offset_step": 0.0},
        {"offset_step": "x"},
        {"offset_step": None},
        {"offset_step": True},
        {"size": "520"},
        {"size": True},
        {"dot_radius": "4"},
        {"line_width": Decimal("2")},
        {"label_radius": None},
    ):
        with pytest.raises(ValueError):
            ChartStyle(**fields)


# Per field, values a chart cannot carry: geometry that is not finite or not
# positive, and colours holding a character outside XML 1.0's Char (or no text).
_UNCARRIED = {
    "size": [-520, 0, math.nan, math.inf, 10**400],
    "dot_radius": [-4.0, 0.0, math.nan, -math.inf],
    "line_width": [-2.0, 0, math.nan, math.inf],
    "label_radius": [-0.88, 0.0, math.nan, math.inf],
    "offset_step": [math.inf],
    "dot_color": ["\x01blue", "blue\x0b", "\ud800", "\ufffe", None, 5],
    "line_color": ["orange\x1f", "\uffff", "\x00", b"orange"],
}


@pytest.mark.parametrize("field", sorted(_UNCARRIED))
def test_style_refuses_what_a_chart_cannot_carry(field, sil_bench):
    for value in _UNCARRIED[field]:
        with pytest.raises(ValueError, match=f"^{field} must be "):
            ChartStyle(**{field: value})
    if field.endswith("_color"):  # any other text is escaped into SVG that parses
        style = ChartStyle(**{field: "\t\n\r & \U0001f697 \ud7ff"})
        parse(render_configuration_chart(ConfigurationSpace(sil_bench).at(0), sil_bench, style))


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


_PIN_STYLES = {
    "default": ChartStyle(),
    "show-unselected": ChartStyle(show_unselected=True),
    # Every other field off its default, the colours in need of escapes.
    "every-knob": ChartStyle(
        size=400, stage_radii={1: 0.25, 2: 0.5, 3: 0.7}, dot_color='#3366cc & "dots" <',
        dot_radius=3.25, line_color='<line> & "orange"', line_width=1.5, offset_step=6.5,
        label_radius=0.93,
    ),
}

# The sha256 of the bench chart and of configuration charts 0, count // 2
# and count - 1 of a fanned random bench, by seed and style.
_PINNED_CHARTS = {
    (1, "default"): (
        "f5f696f96510e92c667c940ca5afbd19cb1af7b6112f13960d9efcb8025aba70",
        "cbb8683d8fc71a0f69b512c316dbe395804fd5a9cdee2b9ca8bd2abed99dd876",
        "fed97b4d2106ec03dfaa508266c1467903b168341e6078c150d680bc45484c15",
        "9821e161917a0b6c5525e3fd707051fd2d03617eeaff824f487163e0ca809ab7",
    ),
    (1, "show-unselected"): (
        "f5f696f96510e92c667c940ca5afbd19cb1af7b6112f13960d9efcb8025aba70",
        "c5e7e6aa45c090071eb115163e80ba030270a2cdbc61258132e0939d723b8318",
        "82f777e3312035c863d97f94c558a55a8a4c947a5cf41a8e410f1906a5cff79e",
        "cdf1f24d19092c2c15338da47857c17369a9ec5d30ea1160daa46de16ca1c47e",
    ),
    (1, "every-knob"): (
        "6f6c3e5a1b2a27053c603e1c47a8250732c58a6162844ef12579a7a93763334d",
        "6bcd6dd59ea6e82a6195079599c8e289281beb18f2c17d60b869371d0756215d",
        "71997165271539750ee37cd70ccd7541cbf1c0f5a718104c896ec823fc7e0abd",
        "f3f25805ccd4e7c56b448b1549576de1379a22c76635857347a34f08af1f5741",
    ),
    (2, "default"): (
        "078eb42de9d07b145ec66f814c67c4e908073df98aeba1f69d996c8aae9c6d14",
        "58d2a95b91e54966a96c3618e34ded8a4b5777cd602d98298439b90ae551e67e",
        "08ce19779765f630fd565dba07611e5f30d84816120f4c07205a1ffc0ed573a9",
        "6d238a4a574e182e02d09141944251756dc483c58c9f4f0ac2dbb3ebd36ecd99",
    ),
    (2, "show-unselected"): (
        "078eb42de9d07b145ec66f814c67c4e908073df98aeba1f69d996c8aae9c6d14",
        "4e910b0ec8ec7eecab2c4a82e49df44dba052584e13a7070965488318d5ee8bf",
        "e1077930830dc380b9947eac6ba39cd419d53d8c7c3399d72a29080d305701d2",
        "522fdf793d5ec35734b07a5e61f6e9bca4291281fb7983d609c6b61845b1637a",
    ),
    (2, "every-knob"): (
        "db4f7c560a3c6cc24254413ba9fd31aa7d2f247a82c0029f39a9f4f9362e46e4",
        "770aa9eef105d5525f954e34c6996cfe9b7e7a77439a885a87d7537e78402d4c",
        "a6b8f2dffef963bb69699d2c0e4afc78a8cffb723b473d6c270ef549a99a9122",
        "5a7f020d42c862829c28cbd8346ff0db79db291b6e7869b558fa3117ed1e6963",
    ),
    (14, "default"): (
        "8ad20b3a217e09547ee3d9b888f6f24760f9f48015115366e71408fb5184d165",
        "7e1ff1328d1b7a791f3f762920fe1a4f9e2e1d1228fec9e6a2a5f0332abdb54e",
        "fdc38581446321c09fa8c52d5e6370da12fcdcff07dd6cc45840ebdc775ff8bb",
        "3da47b3064c4201150b88458ff138747b1a35d5a8ea28669ab76ebc1dc5f6e44",
    ),
    (14, "show-unselected"): (
        "8ad20b3a217e09547ee3d9b888f6f24760f9f48015115366e71408fb5184d165",
        "254466704071eb8df7e11d0aad184aa8caa36040d9cc3e1d9b88cbaa5b44fcc7",
        "a6ce62512075b546b3f4320154ae77a3a751c56dcb2170fe78252051b51c2e17",
        "b8279dd246ba22b502c665c6f15b608bcbc3c5e83128e5caa7a165d7d65ce799",
    ),
    (14, "every-knob"): (
        "fdc4a3519a5a680c9736eeb4b4c381ad9d232c2c1df5d61070b69fc774a9bc54",
        "e7817a367c8663d98627a21d2b11c82015264b00092b6e8f75fe7a55b49aeac5",
        "2ac8888bbe45b546f022c70604b50723ad44d00a167bf0cf1091344ca7c53b9c",
        "df7e059043ff9d39ac868709a44614e77333dc45161424f605484886d015be6f",
    ),
}


def _pinned_bench(seed: int) -> TestBench:
    return random_bench(
        random.Random(seed), f"pin-{seed}", max_elements=4, count_cap=5000, stages=_ONE_STAGE
    )


def test_pinned_benches_cover_sub_dimensions_fans_and_multi_selections():
    spaces = [ConfigurationSpace(_pinned_bench(seed)) for seed in (1, 2, 14)]
    # Per space, the most elements of one leaf on one stage: fanned, and
    # somewhere fanned three wide.
    widest = [
        max(
            max(map([space.stage_bit[eid] for eid in ids].count, (1, 2, 4)))
            for ids in space.ids_per_leaf
        )
        for space in spaces
    ]
    assert min(widest) > 1 and max(widest) > 2
    assert [any(leaf.parent for leaf in space.leaves) for space in spaces] == [True, False, True]
    assert all(
        max(map(len, space.at(space.count // 2).selection.values())) > 1 for space in spaces
    )


@pytest.mark.parametrize("seed, style", list(_PINNED_CHARTS))
def test_chart_bytes_are_pinned(seed, style):
    bench, chart_style = _pinned_bench(seed), _PIN_STYLES[style]
    space = ConfigurationSpace(bench)
    charts = [render_bench_chart(bench, chart_style)] + [
        render_configuration_chart(space.at(index), bench, chart_style)
        for index in (0, space.count // 2, space.count - 1)
    ]
    for svg in charts:
        parse(svg)
    assert tuple(hashlib.sha256(svg.encode()).hexdigest() for svg in charts) == (
        _PINNED_CHARTS[seed, style]
    )
