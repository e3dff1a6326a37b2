"""JSON wire formats: exact scalars as "p/q" strings, floats as numbers,
matrices as [[a11, a12], [a21, a22]]."""
from __future__ import annotations

import json
import math
import os
import tempfile
from fractions import Fraction

from .core import Mat2, rank2x2
from .hulls import LaminateSet, RankOneSegment
from .scalar import EXACT, Scalar, mode_of

SCHEMA = "ro-hull/1"


def scalar_to_json(x: Scalar):
    if mode_of(x) == EXACT:
        return str(Fraction(x))
    return x


def scalar_from_json(v, mode: str = EXACT) -> Scalar:
    if isinstance(v, str):
        try:
            x = Fraction(v)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {v!r}") from None
    elif isinstance(v, bool):
        raise ValueError("boolean is not a scalar")
    elif isinstance(v, int):
        x = Fraction(v)
    else:
        x = float(v)
    if mode == EXACT:
        if isinstance(x, float):
            raise ValueError("float literal in exact-mode input")
        return x
    try:
        x = float(x)
        if math.isfinite(x):
            return x
    except OverflowError:
        pass
    raise ValueError(f"not a finite float: {v!r}")


def matrix_to_json(m: Mat2):
    return [[scalar_to_json(m.a11), scalar_to_json(m.a12)],
            [scalar_to_json(m.a21), scalar_to_json(m.a22)]]


def matrix_from_json(v, mode: str = EXACT) -> Mat2:
    (a, b), (c, d) = v
    return Mat2(scalar_from_json(a, mode), scalar_from_json(b, mode),
                scalar_from_json(c, mode), scalar_from_json(d, mode))


def laminate_to_json(s: LaminateSet):
    return {
        "points": [matrix_to_json(p) for p in s.points],
        "segments": [{"a": matrix_to_json(seg.a), "b": matrix_to_json(seg.b),
                      "generation": seg.generation, "approx": seg.approx}
                     for seg in s.segments],
        "order": s.order,
    }


def laminate_from_json(v, mode: str = EXACT) -> LaminateSet:
    points = tuple(matrix_from_json(p, mode) for p in v["points"])
    segments = []
    for k, seg in enumerate(v.get("segments", [])):
        a = matrix_from_json(seg["a"], mode)
        b = matrix_from_json(seg["b"], mode)
        if rank2x2(b - a) == 2:
            raise ValueError(f"segment {k} is not rank-one: b - a has rank 2")
        segments.append(RankOneSegment(a, b, int(seg.get("generation", 1)),
                                       bool(seg.get("approx", False))))
    return LaminateSet(points=points, segments=tuple(segments),
                       order=int(v.get("order", 1 if segments else 0)))


def dump_canonical(obj) -> str:
    """Deterministic JSON text: sorted keys, fixed separators, newline end."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def write_atomic(path: str, text: str) -> None:
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-rohull-")
    try:
        with os.fdopen(fd, "w") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
