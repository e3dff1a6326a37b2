"""Minimal static SVG emitter for point/line diagrams in a 2D plane."""
from __future__ import annotations


WIDTH = HEIGHT = 480
MARGIN = 24
POINT_R = 2.5


class SvgCanvas:
    def __init__(self):
        self._points = []   # (x, y)
        self._lines = []    # (x1, y1, x2, y2, style)
        self._bounds = None

    def _track(self, x, y):
        if self._bounds is None:
            self._bounds = [x, x, y, y]
        else:
            b = self._bounds
            b[0] = min(b[0], x)
            b[1] = max(b[1], x)
            b[2] = min(b[2], y)
            b[3] = max(b[3], y)

    def point(self, x, y):
        x, y = float(x), float(y)
        self._track(x, y)
        self._points.append((x, y))

    def line(self, x1, y1, x2, y2, style: str = "solid"):
        x1, y1, x2, y2 = (float(v) for v in (x1, y1, x2, y2))
        self._track(x1, y1)
        self._track(x2, y2)
        self._lines.append((x1, y1, x2, y2, style))

    def _transform(self):
        x0, x1, y0, y1 = self._bounds or [0, 1, 0, 1]
        span_x = max(x1 - x0, 1e-9)
        span_y = max(y1 - y0, 1e-9)
        scale = min((WIDTH - 2 * MARGIN) / span_x,
                    (HEIGHT - 2 * MARGIN) / span_y)

        def tf(x, y):
            # data y grows upward, svg y grows downward
            return (MARGIN + (x - x0) * scale,
                    HEIGHT - MARGIN - (y - y0) * scale)
        return tf

    def tostring(self) -> str:
        tf = self._transform()
        dash = {"solid": "", "dashed": ' stroke-dasharray="7 4"',
                "dotted": ' stroke-dasharray="2 3"'}
        parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
            f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
            f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        ]
        for x1, y1, x2, y2, style in self._lines:
            (sx1, sy1), (sx2, sy2) = tf(x1, y1), tf(x2, y2)
            parts.append(
                f'<line x1="{sx1:.2f}" y1="{sy1:.2f}" x2="{sx2:.2f}" '
                f'y2="{sy2:.2f}" stroke="black" stroke-width="1"'
                f'{dash.get(style, "")}/>')
        for x, y in self._points:
            sx, sy = tf(x, y)
            parts.append(f'<circle cx="{sx:.2f}" cy="{sy:.2f}" r="{POINT_R}" '
                         f'fill="black"/>')
        parts.append("</svg>")
        return "\n".join(parts) + "\n"


def staircase_diagram(points, chain) -> str:
    """Staircase points with the dotted rank-one lines of the descent chain."""
    svg = SvgCanvas()
    for p in points:
        svg.point(p.x, p.y)
    for a, b in zip(chain, chain[1:]):
        svg.line(a.x, a.y, b.x, b.y, "dotted")
    return svg.tostring()


def spiral_diagram(corners, anchors, iterates) -> str:
    """Projection of the spiral onto the base plane: the inner rectangle,
    the four outriggers, and the dashed spiral path."""
    svg = SvgCanvas()
    for i in range(4):
        a = corners[i]
        b = corners[(i + 1) % 4]
        svg.line(a.x, a.y, b.x, b.y)
    for p, a in zip(corners, anchors):
        svg.line(p.x, p.y, a.x, a.y)
        svg.point(a.x, a.y)
    for a, b in zip(iterates, iterates[1:]):
        svg.line(a.x, a.y, b.x, b.y, "dashed")
    return svg.tostring()
