"""Deterministic SVG radar charts for benches and configurations.

One spoke per leaf dimension (12 o'clock, clockwise, spoke order), three
concentric rings for the stages (1 = simulated, 2 = emulated, 3 = real),
one blue dot per element on its stage ring. Elements sharing a leaf and
stage are fanned tangentially around the spoke so they stay tellable apart.
Configuration charts add a closed orange polygon through the selected
element positions, one vertex per leaf (the centroid of the selection where
a combinable leaf picked several elements).

Rendering is pure text assembly, written top to bottom in one pass: the
stage rings, each spoke in spoke order (placing its dots and its polygon
vertex as it is drawn), the elements group, then the composition polygon.
Identical inputs yield byte-identical documents, which makes the charts
golden-testable. Stable group ids: ``spoke-<dimension>``, ``elements``,
``composition``.
"""

from __future__ import annotations

import math
from typing import Mapping

from .configuration import ConfigurationSpace, TestBenchConfiguration
from .frozen import Frozen
from .taxonomy import _FLOAT_MAX, _NOT_XML_CHAR, Stage, TestBench

__all__ = ["ChartStyle", "render_bench_chart", "render_configuration_chart"]


_set = object.__setattr__


def _number(value: object) -> bool:
    """Whether a geometry value is an int or a float; a bool is not."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


class ChartStyle(Frozen):
    """Chart geometry and colours. ``stage_radii`` maps each stage's
    :attr:`~benchlattice.taxonomy.Stage.chart_index` to its ring's radius;
    None stands for ``{1: 0.32, 2: 0.55, 3: 0.78}``."""

    __slots__ = (
        "size", "stage_radii", "dot_color", "dot_radius", "line_color", "line_width",
        "offset_step", "label_radius", "show_unselected",
    )

    def __init__(
        self, size: int = 520, stage_radii: Mapping[int, float] | None = None,
        dot_color: str = "blue", dot_radius: float = 4.0, line_color: str = "orange",
        line_width: float = 2.0,
        offset_step: float = 4.0,  # degrees, tangential fan per co-located element
        label_radius: float = 0.88,
        show_unselected: bool = False,  # configuration charts only
    ) -> None:
        if stage_radii is None:
            stage_radii = {1: 0.32, 2: 0.55, 3: 0.78}
        try:  # a stage without a radius, or a radius that is no number, fails
            radii = [stage_radii[1], stage_radii[2], stage_radii[3]]
            increasing = all(map(_number, radii)) and 0 < radii[0] < radii[1] < radii[2] <= 1
        except (LookupError, TypeError):
            increasing = False
        if not increasing:
            raise ValueError(
                f"stage radii must be numbers for stages 1, 2 and 3 that increase "
                f"strictly and stay within the plot, got {stage_radii!r}"
            )
        for name, value in (
            ("size", size), ("dot_radius", dot_radius), ("line_width", line_width),
            ("offset_step", offset_step), ("label_radius", label_radius),
        ):
            # False for NaN, and for an int past the float range.
            if not (_number(value) and 0 < value <= _FLOAT_MAX):
                raise ValueError(f"{name} must be a finite number > 0, got {value!r}")
        for name, value in (("dot_color", dot_color), ("line_color", line_color)):
            if not isinstance(value, str) or _NOT_XML_CHAR.search(value):
                raise ValueError(f"{name} must be text XML 1.0 can carry, got {value!r}")
        _set(self, "size", size)
        _set(self, "stage_radii", stage_radii)
        _set(self, "dot_color", dot_color)
        _set(self, "dot_radius", dot_radius)
        _set(self, "line_color", line_color)
        _set(self, "line_width", line_width)
        _set(self, "offset_step", offset_step)
        _set(self, "label_radius", label_radius)
        _set(self, "show_unselected", show_unselected)


def _fmt(value: float) -> str:
    return f"{value:.2f}"


# Local escapes rather than ``xml.sax.saxutils.escape``: importing saxutils
# pulls in ``urllib.request`` and with it the network and email stacks, which
# every command would pay for at start-up. Same replacements, ``&`` first.
def _text(value: str) -> str:
    return value.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _attr(value: str) -> str:
    return _text(value).replace('"', "&quot;")


def _direction(angle_deg: float) -> tuple[float, float]:
    """The sine and cosine of an angle in degrees, clockwise from 12 o'clock."""
    rad = math.radians(angle_deg)
    return math.sin(rad), math.cos(rad)


# A dot's class and stroke, selected or not.
_SELECTED = "element-dot selected", ' stroke="#1a1a1a" stroke-width="1.00"'
_UNSELECTED = "element-dot", ""


def render_bench_chart(bench: TestBench, style: ChartStyle | None = None) -> str:
    """Radar chart of every element a bench provides."""
    return _chart(ConfigurationSpace(bench), None, style or ChartStyle())


def render_configuration_chart(
    config: TestBenchConfiguration, bench: TestBench, style: ChartStyle | None = None
) -> str:
    """Bench chart plus the closed composition line of one configuration.

    Element positions match the bench chart so both overlay cleanly; the
    polygon visits one vertex per leaf in spoke order. Unselected elements
    are omitted unless ``style.show_unselected`` is set.
    """
    space = ConfigurationSpace(bench)
    space.require_same_bench(config)
    return _chart(space, config, style or ChartStyle())


def _chart(
    space: ConfigurationSpace, config: TestBenchConfiguration | None, style: ChartStyle
) -> str:
    """:func:`render_configuration_chart` of a configuration of ``space``;
    with no configuration, :func:`render_bench_chart`: every element drawn
    unselected and an empty composition group. Written top to bottom in one
    pass: each spoke places its dots and its polygon vertex as it is drawn."""
    size, center = style.size, style.size / 2
    c = _fmt(center)
    # Each stage's ring radius by its bit, the ring of its chart index.
    ring = {stage.bit: style.stage_radii[stage.chart_index] * center for stage in Stage}
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{size}" height="{size}" viewBox="0 0 {size} {size}">',
        f'  <rect width="{size}" height="{size}" fill="white"/>',
        '  <g id="stage-rings">',
    ]
    for stage in Stage:
        radius = ring[stage.bit]
        lines += [
            f'    <circle cx="{c}" cy="{c}" r="{_fmt(radius)}" '
            'fill="none" stroke="#b0b0b0" stroke-width="1.00"/>',
            f'    <text x="{_fmt(center + 5)}" y="{_fmt(center - radius - 4)}" font-size="11" '
            f'fill="#606060">{stage.chart_index}</text>',
        ]
    lines.append("  </g>")

    selected = set() if config is None else set(config.selected_ids())
    every = config is None or style.show_unselected
    paint = f'r="{_fmt(style.dot_radius)}" fill="{_attr(style.dot_color)}"'
    outer, label = ring[Stage.REAL.bit], style.label_radius * center
    dots, vertices = ['  <g id="elements">'], []
    for i, (leaf, ids) in enumerate(zip(space.leaves, space.ids_per_leaf)):
        angle = i * 360.0 / len(space.leaves)
        spoke = sin, cos = _direction(angle)
        lines += [
            f'  <g id="spoke-{_attr(leaf.id)}">',
            f'    <line x1="{c}" y1="{c}" x2="{_fmt(center + outer * sin)}" '
            f'y2="{_fmt(center - outer * cos)}" stroke="#404040" stroke-width="1.00"/>',
            f'    <text x="{_fmt(center + label * sin)}" y="{_fmt(center - label * cos)}" '
            f'font-size="11" text-anchor="middle">{_text(leaf.display_name)}</text>',
            "  </g>",
        ]
        bits = list(map(space.stage_bit.__getitem__, ids))
        total: dict[int, int] = {}
        for bit in bits:
            total[bit] = total.get(bit, 0) + 1
        seen, placed = {}, {}  # each stage's dots so far; each drawn dot's point
        for eid, bit in zip(ids, bits):
            seen[bit] = n = seen.get(bit, 0) + 1
            if not (every or eid in selected):
                continue
            if total[bit] > 1:  # the n-th of several on its stage: fanned
                step = (n + 1) // 2 * style.offset_step
                sin, cos = _direction(angle + (step if n % 2 == 1 else -step))
            else:
                sin, cos = spoke
            radius = ring[bit]
            placed[eid] = x, y = center + radius * sin, center - radius * cos
            cls, stroke = _SELECTED if eid in selected else _UNSELECTED
            dots.append(
                f'    <circle id="dot-{_attr(eid)}" class="{cls}" '
                f'cx="{_fmt(x)}" cy="{_fmt(y)}" {paint}{stroke}/>'
            )
        if config is not None:
            xs, ys = zip(*map(placed.__getitem__, config.selection[leaf.id]))
            vertices.append((sum(xs) / len(xs), sum(ys) / len(ys)))
    lines += [*dots, "  </g>", '  <g id="composition">']
    if config is not None:
        points = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in vertices)
        lines.append(
            f'    <polygon points="{points}" fill="none" '
            f'stroke="{_attr(style.line_color)}" stroke-width="{_fmt(style.line_width)}"/>'
        )
    lines += ["  </g>", "</svg>"]
    return "\n".join(lines) + "\n"
