"""JSON wire formats: exact scalars as "p/q" strings, floats as numbers,
matrices as [[a11, a12], [a21, a22]] (exact ones from their stored ints).
Reports are ``json.dumps`` text with sorted keys and a two-space indent."""
from __future__ import annotations

import json
import math
import os
import tempfile
from fractions import Fraction
from math import gcd

from .core import Mat2, rank2x2
from .hulls import LaminateSet, RankOneSegment
from .scalar import EXACT, Scalar, mode_of

SCHEMA = "ro-hull/1"


def scalar_to_json(x: Scalar):
    if mode_of(x) == EXACT:
        return str(x if x.__class__ is Fraction else Fraction(x))
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
    d = m._d
    if d is None:
        return [[m._n11, m._n12], [m._n21, m._n22]]
    # str(Fraction(n, d)): n and d over their gcd, "/1" dropped
    t = [f"{n // g}/{d // g}" if g != d else str(n // g)
         for n in (m._n11, m._n12, m._n21, m._n22) for g in (gcd(n, d),)]
    return [t[:2], t[2:]]


def matrix_from_json(v, mode: str = EXACT) -> Mat2:
    (a, b), (c, d) = v
    return Mat2(scalar_from_json(a, mode), scalar_from_json(b, mode),
                scalar_from_json(c, mode), scalar_from_json(d, mode))


def laminate_to_json(s: LaminateSet):
    return {
        "points": [matrix_to_json(p) for p in s.points],
        "segments": [{"a": matrix_to_json(seg.a), "b": matrix_to_json(seg.b),
                      "generation": seg.generation}
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
        segments.append(RankOneSegment(a, b, _count(seg.get("generation", 1))))
    return LaminateSet(points=points, segments=tuple(segments),
                       order=_count(v.get("order", 1 if segments else 0)))


def _count(v) -> int:
    """An order or generation as int; a float must be integral (so finite)."""
    if isinstance(v, float) and not v.is_integer():
        raise ValueError(f"not an integer: {v!r}")
    return int(v)


def dump_canonical(obj) -> str:
    """The canonical report text: sorted keys, two-space indent, newline."""
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
