"""Minimal static SVG emitter for point/line diagrams in a 2D plane: a
canvas stores floats, and ``tostring`` takes the bounds and writes once."""
from __future__ import annotations


WIDTH = HEIGHT = 480
MARGIN = 24
POINT_R = 2.5


class SvgCanvas:
    def __init__(self):
        self._points = []   # (x, y)
        self._lines = []    # (x1, y1, x2, y2, style)

    def point(self, x, y):
        self._points.append((float(x), float(y)))

    def line(self, x1, y1, x2, y2, style: str = "solid"):
        self._lines.append((float(x1), float(y1), float(x2), float(y2),
                            style))

    def tostring(self) -> str:
        points, lines = self._points, self._lines
        xs = [p[0] for p in points] + [c for q in lines for c in (q[0], q[2])]
        ys = [p[1] for p in points] + [c for q in lines for c in (q[1], q[3])]
        x0, x1, y0, y1 = (min(xs), max(xs), min(ys), max(ys)) if xs \
            else (0, 1, 0, 1)
        scale = min((WIDTH - 2 * MARGIN) / max(x1 - x0, 1e-9),
                    (HEIGHT - 2 * MARGIN) / max(y1 - y0, 1e-9))
        dash = {"solid": "", "dashed": ' stroke-dasharray="7 4"',
                "dotted": ' stroke-dasharray="2 3"'}
        # data y grows upward, svg y grows downward
        parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
            f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
            f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        ]
        parts += [
            f'<line x1="{MARGIN + (ax - x0) * scale:.2f}" '
            f'y1="{HEIGHT - MARGIN - (ay - y0) * scale:.2f}" '
            f'x2="{MARGIN + (bx - x0) * scale:.2f}" '
            f'y2="{HEIGHT - MARGIN - (by - y0) * scale:.2f}" '
            f'stroke="black" stroke-width="1"{dash.get(style, "")}/>'
            for ax, ay, bx, by, style in lines]
        parts += [
            f'<circle cx="{MARGIN + (x - x0) * scale:.2f}" '
            f'cy="{HEIGHT - MARGIN - (y - y0) * scale:.2f}" r="{POINT_R}" '
            'fill="black"/>'
            for x, y in points]
        parts.append("</svg>")
        return "\n".join(parts) + "\n"


def staircase_diagram(points, chain) -> str:
    """Staircase points with the dotted rank-one lines of the descent chain;
    every point is an (x, y) pair."""
    svg = SvgCanvas()
    for p in points:
        svg.point(*p)
    for a, b in zip(chain, chain[1:]):
        svg.line(*a, *b, "dotted")
    return svg.tostring()


def spiral_diagram(corners, anchors, iterates) -> str:
    """Projection of the spiral onto the base plane: the inner rectangle,
    the four outriggers, and the dashed spiral path; every point is an
    (x, y) pair."""
    svg = SvgCanvas()
    for i in range(4):
        svg.line(*corners[i], *corners[(i + 1) % 4])
    for p, a in zip(corners, anchors):
        svg.line(*p, *a)
        svg.point(*a)
    for a, b in zip(iterates, iterates[1:]):
        svg.line(*a, *b, "dashed")
    return svg.tostring()
