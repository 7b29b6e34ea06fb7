"""Deterministic SVG radar charts for benches and configurations.

One spoke per leaf dimension (12 o'clock, clockwise, spoke order), three
concentric rings for the stages (1 = simulated, 2 = emulated, 3 = real),
one blue dot per element on its stage ring. Elements sharing a leaf and
stage are fanned tangentially around the spoke so they stay tellable apart.
Configuration charts add a closed orange polygon through the selected
element positions, one vertex per leaf (the centroid of the selection where
a combinable leaf picked several elements).

Rendering is pure text assembly: identical inputs yield byte-identical
documents, which makes the charts golden-testable. Stable group ids:
``spoke-<dimension>``, ``elements``, ``composition``.
"""

from __future__ import annotations

import math
from typing import Mapping

from .configuration import ConfigurationSpace, TestBenchConfiguration
from .frozen import Frozen
from .taxonomy import TestBench

__all__ = ["ChartStyle", "render_bench_chart", "render_configuration_chart"]


_set = object.__setattr__


class ChartStyle(Frozen):
    """Chart geometry and colours. ``stage_radii`` maps each stage index to
    its ring's radius; None stands for ``{1: 0.32, 2: 0.55, 3: 0.78}``."""

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
        radii = [stage_radii[i] for i in (1, 2, 3)]
        if not (0 < radii[0] < radii[1] < radii[2] <= 1):
            raise ValueError(
                f"stage radii must increase strictly with the stage index "
                f"and stay within the plot, got {radii}"
            )
        if not offset_step > 0:
            raise ValueError(f"offset_step must be > 0, got {offset_step}")
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
    """The sine and cosine of an angle in degrees: 12 o'clock is 0 degrees,
    growing clockwise."""
    rad = math.radians(angle_deg)
    return math.sin(rad), math.cos(rad)


class _Layout:
    """Shared geometry: spoke angles and the dots to draw, in spoke order,
    each at its position: every element, or only the ``drawn`` ids. Either
    way a dot sits where the bench chart puts it: its fan counts every
    element of its leaf and stage."""

    def __init__(
        self, space: ConfigurationSpace, style: ChartStyle, drawn: set[str] | None = None
    ) -> None:
        self.style = style
        self.center = style.size / 2
        self.leaves = space.leaves
        self.spoke_angle = {
            leaf.id: i * 360.0 / len(self.leaves) for i, leaf in enumerate(self.leaves)
        }
        self.dot_position: dict[str, tuple[float, float]] = {}
        for leaf, ids in zip(self.leaves, space.ids_per_leaf):
            stages = [space.stage_bit[eid] for eid in ids]
            for i, (eid, bit) in enumerate(zip(ids, stages)):
                if drawn is not None and eid not in drawn:
                    continue
                offset = 0.0
                if stages.count(bit) > 1:  # the n-th of several on its stage
                    n = stages[: i + 1].count(bit)
                    step = math.ceil(n / 2) * style.offset_step
                    offset = step if n % 2 == 1 else -step
                radius = style.stage_radii[bit.bit_length()] * self.center
                self.dot_position[eid] = self.point(
                    radius, _direction(self.spoke_angle[leaf.id] + offset)
                )

    def point(self, radius: float, direction: tuple[float, float]) -> tuple[float, float]:
        """The point at ``radius`` from the centre in a :func:`_direction`;
        SVG y points down."""
        sin, cos = direction
        return self.center + radius * sin, self.center - radius * cos


def _ring_group(layout: _Layout) -> list[str]:
    style = layout.style
    c = _fmt(layout.center)
    lines = ['  <g id="stage-rings">']
    for index in (1, 2, 3):
        radius = style.stage_radii[index] * layout.center
        lines.append(
            f'    <circle cx="{c}" cy="{c}" r="{_fmt(radius)}" '
            'fill="none" stroke="#b0b0b0" stroke-width="1.00"/>'
        )
        lines.append(
            f'    <text x="{_fmt(layout.center + 5)}" '
            f'y="{_fmt(layout.center - radius - 4)}" font-size="11" '
            f'fill="#606060">{index}</text>'
        )
    lines.append("  </g>")
    return lines


def _spoke_groups(layout: _Layout) -> list[str]:
    style = layout.style
    c = _fmt(layout.center)
    outer = style.stage_radii[3] * layout.center
    lines = []
    for leaf in layout.leaves:
        direction = _direction(layout.spoke_angle[leaf.id])
        tip = layout.point(outer, direction)
        label = layout.point(style.label_radius * layout.center, direction)
        lines.append(f'  <g id="spoke-{_attr(leaf.id)}">')
        lines.append(
            f'    <line x1="{c}" y1="{c}" x2="{_fmt(tip[0])}" y2="{_fmt(tip[1])}" '
            'stroke="#404040" stroke-width="1.00"/>'
        )
        lines.append(
            f'    <text x="{_fmt(label[0])}" y="{_fmt(label[1])}" '
            f'font-size="11" text-anchor="middle">{_text(leaf.display_name)}</text>'
        )
        lines.append("  </g>")
    return lines


def _dot(elem_id: str, position: tuple[float, float], paint: str, selected: bool) -> str:
    """One element's dot; ``paint`` is the chart's radius and fill attributes."""
    x, y = position
    cls = "element-dot selected" if selected else "element-dot"
    stroke = ' stroke="#1a1a1a" stroke-width="1.00"' if selected else ""
    return (
        f'    <circle id="dot-{_attr(elem_id)}" class="{cls}" '
        f'cx="{_fmt(x)}" cy="{_fmt(y)}" {paint}{stroke}/>'
    )


def render_bench_chart(bench: TestBench, style: ChartStyle | None = None) -> str:
    """Radar chart of every element a bench provides."""
    return _chart(ConfigurationSpace(bench), None, style or ChartStyle())


def render_configuration_chart(
    config: TestBenchConfiguration,
    bench: TestBench,
    style: ChartStyle | None = None,
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
    unselected and an empty composition group."""
    selected = set() if config is None else {
        eid for ids in config.selection.values() for eid in ids
    }
    drawn = None if config is None or style.show_unselected else selected
    layout = _Layout(space, style, drawn)
    body = _ring_group(layout) + _spoke_groups(layout)
    body.append('  <g id="elements">')
    paint = f'r="{_fmt(style.dot_radius)}" fill="{_attr(style.dot_color)}"'
    body += [
        _dot(eid, position, paint, eid in selected)
        for eid, position in layout.dot_position.items()
    ]
    body.append("  </g>")

    body.append('  <g id="composition">')
    if config is not None:
        vertices = []
        for leaf in layout.leaves:
            picked = config.selection[leaf.id]
            xs = [layout.dot_position[eid][0] for eid in picked]
            ys = [layout.dot_position[eid][1] for eid in picked]
            vertices.append((sum(xs) / len(xs), sum(ys) / len(ys)))
        points = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in vertices)
        body.append(
            f'    <polygon points="{points}" fill="none" '
            f'stroke="{_attr(style.line_color)}" stroke-width="{_fmt(style.line_width)}"/>'
        )
    body.append("  </g>")

    size = style.size
    head = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{size}" height="{size}" viewBox="0 0 {size} {size}">',
        f'  <rect width="{size}" height="{size}" fill="white"/>',
    ]
    return "\n".join(head + body + ["</svg>"]) + "\n"
