"""SVG rendering of the rank-2 arrangement.

Coordinates are floats derived from the exact data purely for drawing; every
label comes from the exact classification, never from the picture.
"""

from __future__ import annotations

from .exactfield import as_mpf


class RankNotTwo(ValueError):
    pass


def _clip_line(a, b, c, lo, hi):
    """Segment of a*x + b*y = c inside the box [lo, hi]^2, or None."""
    eps = 1e-9
    pts = []
    if abs(b) > eps:
        for x in (lo, hi):
            y = (c - a * x) / b
            if lo - eps <= y <= hi + eps:
                pts.append((x, y))
    if abs(a) > eps:
        for y in (lo, hi):
            x = (c - b * y) / a
            if lo - eps <= x <= hi + eps:
                pts.append((x, y))
    uniq = []
    for p in pts:
        if all(abs(p[0] - q[0]) + abs(p[1] - q[1]) > eps for q in uniq):
            uniq.append(p)
    if len(uniq) < 2:
        return None
    uniq.sort()
    return uniq[0], uniq[-1]


def require_rank_two(system):
    """Raise RankNotTwo unless the system is one ``figure_svg`` can draw."""
    if system.rank != 2:
        raise RankNotTwo("figures are drawn for rank-2 systems only")


def figure_svg(poset, verdicts, size=640, margin=50):
    """Draw the lines (v|beta) = -1, 0, 1 and label each nonempty region.

    The label is placed at the region's LP witness; members are printed
    1-based, the empty antichain as a lone circle glyph.
    """
    rs = poset.system
    require_rank_two(rs)

    witnesses = []
    for v in verdicts:
        if v.status == "NonEmpty" and v.witness is not None:
            witnesses.append((v.antichain,
                              tuple(float(as_mpf(x)) for x in v.witness)))
    span = max((max(w) for _, w in witnesses), default=1.0)
    world = max(2.0, 1.3 * span)

    scale = (size - 2 * margin) / world

    def to_screen(x, y):
        return (margin + x * scale, size - margin - y * scale)

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect x="0" y="0" width="{size}" height="{size}" fill="white"/>',
    ]
    for root in rs.positives:
        a, b = (float(as_mpf(c)) for c in root.coeffs)
        for level, style in ((0, "stroke:#999;stroke-dasharray:4 3"),
                             (-1, "stroke:#bbb"), (1, "stroke:#334")):
            seg = _clip_line(a, b, level, 0.0, world)
            if seg is None:
                continue
            (x1, y1), (x2, y2) = seg
            sx1, sy1 = to_screen(x1, y1)
            sx2, sy2 = to_screen(x2, y2)
            out.append(
                f'<line x1="{sx1:.2f}" y1="{sy1:.2f}" x2="{sx2:.2f}" '
                f'y2="{sy2:.2f}" style="{style};stroke-width:1"/>')
    for antichain, (wx, wy) in witnesses:
        # witnesses of unbounded regions can land outside the viewport
        wx, wy = min(wx, world), min(wy, world)
        sx, sy = to_screen(wx, wy)
        text = ",".join(str(i + 1) for i in antichain) if antichain else "&#8709;"
        out.append(
            f'<text class="region" x="{sx:.2f}" y="{sy:.2f}" '
            f'font-size="12" text-anchor="middle">{text}</text>')
    out.append("</svg>")
    return "\n".join(out)
