"""Command line interface: exit codes, report structure, artifacts."""
import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rohull
from rohull import constructions, pchull, t4
from rohull.cli import build_parser, main
from rohull.core import GeometryError

T4_INPUT = [[["-1", "0"], ["0", "3"]], [["3", "0"], ["0", "1"]],
            [["1", "0"], ["0", "-3"]], [["-3", "0"], ["0", "-1"]]]
PC_INPUT = [[["0", "0"], ["0", "0"]], [["1", "0"], ["0", "0"]],
            [["0", "1"], ["0", "0"]]]
SET_A = {"points": [[["0", "0"], ["0", "1"]]], "segments": [], "order": 0}
SET_B = {"points": [[["0", "0"], ["0", "0"]], [["1", "0"], ["0", "0"]]],
         "segments": [], "order": 0}


def run(tmp_path, *argv):
    out = tmp_path / "out"
    code = main(["--out", str(out), *argv])
    sub = next(a for a in argv if not a.startswith("-")
               and a not in ("float", "exact"))
    report_path = out / f"{sub}.json"
    report = json.loads(report_path.read_text()) if report_path.exists() \
        else None
    return code, report, out


class TestSubcommands:
    def test_staircase(self, tmp_path):
        code, report, _ = run(tmp_path, "staircase", "--N", "5")
        assert code == 0
        assert report["schema"] == "ro-hull/1"
        assert report["certificates"]["passed"] is True

    def test_tri_spiral(self, tmp_path):
        code, report, _ = run(tmp_path, "tri-spiral", "--steps", "8")
        assert code == 0
        assert report["certificates"]["passed"] is True

    def test_sym_spiral(self, tmp_path):
        code, report, _ = run(tmp_path, "--mode", "float", "sym-spiral",
                              "--xi3", "1e-3", "--iters", "12")
        assert code == 0

    def test_sym_spiral_exact_mode_is_usage_error(self, tmp_path):
        code = main(["--out", str(tmp_path), "sym-spiral"])
        assert code == 1

    def test_five_point(self, tmp_path):
        code, report, _ = run(tmp_path, "five-point", "--epsilon", "1/2")
        assert code == 0
        assert report["results"]["mu"] == ["16/3", "7/3", "41/6", "65/24"]
        # gap_sq = 9/169 is a rational square, so gap is written exactly
        assert report["results"]["gap"] == "3/13"

    def test_t4_detect(self, tmp_path):
        src = tmp_path / "quad.json"
        src.write_text(json.dumps(T4_INPUT))
        code, report, _ = run(tmp_path, "t4-detect", "--input", str(src))
        assert code == 0
        assert report["results"]["witnesses"]

    def test_pc_hull(self, tmp_path):
        src = tmp_path / "set.json"
        src.write_text(json.dumps(PC_INPUT))
        code, report, _ = run(tmp_path, "pc-hull", "--input", str(src))
        assert code == 0

    def test_pc_hull_sign_violation_fails_certificates(self, tmp_path):
        src = tmp_path / "bad.json"
        src.write_text(json.dumps(
            [[["0", "0"], ["0", "0"]], [["1", "0"], ["0", "-1"]]]))
        code, report, _ = run(tmp_path, "pc-hull", "--input", str(src))
        assert code == 2

    def test_float_pc_hull_of_a_decimal_rank_one_pair(self, tmp_path):
        # rank one in decimal; the float det of the difference is -2.2e-16
        src = tmp_path / "pair.json"
        src.write_text(json.dumps(
            [[["0", "0"], ["0", "0"]], [["0.1", "0.9"], ["1.3", "11.7"]]]))
        code, report, _ = run(tmp_path, "--mode", "float", "pc-hull",
                              "--input", str(src))
        assert code == 0
        assert report["certificates"]["passed"] is True
        assert [p["indices"] for p in report["results"]["planes"]] == [[0, 1]]
        assert report["results"]["singletons"] == []

    def test_float_pc_hull_plane_of_a_pair_passes_its_own_tol(self, tmp_path):
        # rank one at the pairs' rule, so the pair gets its plane, and the
        # plane's containment check at --tol holds both points by the same
        # rule: one plane and a passed certificate, not two singletons
        src = tmp_path / "pair.json"
        b = "596046.4477539062"
        src.write_text(json.dumps([[["0", "0"], ["0", "20000000000000.0"]],
                                   [[b, b], [b, "20000000596046.45"]]]))
        code, report, _ = run(tmp_path, "--mode", "float", "pc-hull",
                              "--input", str(src))
        assert code == 0
        assert report["certificates"]["passed"] is True
        assert [p["indices"] for p in report["results"]["planes"]] == [[0, 1]]
        assert report["results"]["singletons"] == []

    @pytest.mark.parametrize("s", ["1e-170", "1.5e308"])
    def test_float_pc_hull_triangle_at_the_ends_of_the_float_range(
            self, tmp_path, s):
        src = tmp_path / "triangle.json"
        src.write_text(json.dumps([[["0", "0"], ["0", "0"]],
                                   [[s, "0"], ["0", "0"]],
                                   [["0", "0"], [s, "0"]]]))
        code, report, _ = run(tmp_path, "--mode", "float", "pc-hull",
                              "--input", str(src))
        assert code == 0
        assert [len(p["polygon_vertices"])
                for p in report["results"]["planes"]] == [3]

    @pytest.mark.parametrize("s", [1e-170, 0.1, 1.5e308])
    def test_float_pc_hull_is_the_exact_report_rounded_once(self, tmp_path,
                                                            s):
        # the float report holds the numbers of the exact report on the
        # floats' exact values, each rounded once
        def rounded(v):
            if isinstance(v, (list, dict)):
                return ([rounded(e) for e in v] if isinstance(v, list) else
                        {k: rounded(e) for k, e in v.items()})
            return (float(Fraction(v)) if isinstance(v, str)
                    and v[-1].isdigit() else v)
        mats = [[[0.0, 0.0], [0.0, 0.0]], [[s, 0.0], [0.0, 0.0]],
                [[0.0, 0.0], [s, 0.0]]]
        reports = []
        for mode, entry in (("float", repr), ("exact", Fraction)):
            src = tmp_path / f"{mode}.json"
            src.write_text(json.dumps([[[str(entry(e)) for e in row]
                                        for row in m] for m in mats]))
            code, report, _ = run(tmp_path / mode, "--mode", mode,
                                  "pc-hull", "--input", str(src))
            assert code == 0
            reports.append(report["results"])
        assert reports[0]["planes"] and reports[0] == rounded(reports[1])

    def test_float_pc_hull_sign_violation_below_the_float_range(
            self, tmp_path):
        # the float det of the difference underflows to -0.0
        src = tmp_path / "pair.json"
        src.write_text(json.dumps(
            [[["0", "0"], ["0", "0"]], [["1e-170", "0"], ["0", "-1e-170"]]]))
        code, report, _ = run(tmp_path, "--mode", "float", "pc-hull",
                              "--input", str(src))
        assert code == 2
        assert report["results"] == {"error": "det sign condition violated"}

    def test_hausdorff(self, tmp_path):
        pa = tmp_path / "a.json"
        pb = tmp_path / "b.json"
        pa.write_text(json.dumps(SET_A))
        pb.write_text(json.dumps(SET_B))
        code, report, _ = run(tmp_path, "hausdorff",
                              "--input-a", str(pa), "--input-b", str(pb))
        assert code == 0
        assert report["results"]["directed_a_to_b_sq"] == "1"

    def test_usc_probe(self, tmp_path):
        code, report, _ = run(tmp_path, "usc-probe", "--N", "6")
        assert code == 0
        assert report["certificates"]["passed"] is True

    def test_unknown_input_is_usage_error(self, tmp_path):
        code = main(["--out", str(tmp_path), "t4-detect",
                     "--input", str(tmp_path / "missing.json")])
        assert code == 1

    def test_sym_spiral_underflow_names_the_cycle(self, tmp_path, capsys):
        code, report, _ = run(tmp_path, "--mode", "float", "sym-spiral",
                              "--iters", "300")
        assert code == 2
        assert report is None
        assert "z underflowed to 0 in cycle" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["five-point", "--epsilon", "abc"],
    ["five-point", "--epsilon", "1/0"],
    ["five-point", "--rounds", "-1"],
    ["tri-spiral", "--steps", "-3"],
    ["staircase", "--N", "0"],
    ["staircase", "--n-max", "0"],
    ["usc-probe", "--N", "0"],
    ["--mode", "float", "sym-spiral", "--iters", "-1"],
    ["five-point", "--epsilon", "1"],
    ["--tol", "nan", "usc-probe"],
    ["--tol", "-1", "usc-probe"],
    ["--mode", "float", "--tol", "inf", "sym-spiral"],
    ["--mode", "float", "sym-spiral", "--xi3", "0"],
    ["--mode", "float", "sym-spiral", "--xi3", "-0.001"],
    ["--mode", "float", "sym-spiral", "--xi3", "nan"],
    ["usc-probe", "--N", "5", "--n-max", "4"],
    ["staircase", "--N", "5", "--n-max", "4"],
    ["--mode", "float", "sym-spiral", "--xi3", "1.5"],
    ["five-point", "--epsilon", "0"],
    ["five-point", "--epsilon", "-1/2"],
    ["--mode", "float", "staircase"],
    ["--mode", "float", "usc-probe"],
    ["--mode", "float", "five-point"],
])
def test_out_of_range_input_is_usage_error(tmp_path, capsys, argv):
    assert main(["--out", str(tmp_path), *argv]) == 1
    err = capsys.readouterr().err
    assert "error" in err
    assert "Traceback" not in err
    assert not list(tmp_path.iterdir())


SEGMENT_AS_LIST = {"points": [], "segments": [[SET_B["points"][0],
                                               SET_B["points"][1]]],
                   "order": 1}
ZERO_DENOMINATOR = [["1/0", "0"], ["0", "1"]]
# the segment [0, I]: its endpoints differ by a rank-2 matrix
RANK_TWO_SEGMENT = {"points": [], "segments": [
    {"a": [["0", "0"], ["0", "0"]], "b": [["1", "0"], ["0", "1"]]}],
    "order": 1}


@pytest.mark.parametrize("argv, data, message", [
    (["t4-detect", "--input", "{}"], {"a": 1},
     "list of 2x2 matrices, found an object"),
    (["hausdorff", "--input-a", "{}", "--input-b", "{}"], SEGMENT_AS_LIST,
     "cannot load laminate set"),
    (["t4-detect", "--input", "{}"], [ZERO_DENOMINATOR] + T4_INPUT[1:],
     "zero denominator in '1/0'"),
    (["pc-hull", "--input", "{}"], [ZERO_DENOMINATOR] + PC_INPUT[1:],
     "zero denominator in '1/0'"),
    (["hausdorff", "--input-a", "{}", "--input-b", "{}"],
     {"points": [ZERO_DENOMINATOR], "segments": [], "order": 0},
     "zero denominator in '1/0'"),
    (["hausdorff", "--input-a", "{}", "--input-b", "{}"], RANK_TWO_SEGMENT,
     "segment 0 is not rank-one"),
    (["hausdorff", "--input-a", "{}", "--input-b", "{}"],
     {"points": [], "segments": [], "order": 0}, "empty laminate set"),
    (["--mode", "float", "pc-hull", "--input", "{}"],
     [[[float("inf"), 0], [0, 0]]] + PC_INPUT[1:], "not a finite float: inf"),
    (["--mode", "float", "pc-hull", "--input", "{}"],
     [[["1e400", "0"], ["0", "0"]]] + PC_INPUT[1:],
     "not a finite float: '1e400'"),
    (["--mode", "float", "pc-hull", "--input", "{}"],
     [[[10 ** 400, 0], [0, 0]]] + PC_INPUT[1:], "not a finite float: 1000"),
    (["--mode", "float", "t4-detect", "--input", "{}"],
     [[["1e400", "0"], ["0", "0"]]] + T4_INPUT[1:],
     "not a finite float: '1e400'"),
    (["--mode", "float", "hausdorff", "--input-a", "{}", "--input-b", "{}"],
     {"points": [[[float("nan"), 0], [0, 0]]], "segments": [], "order": 0},
     "not a finite float: nan"),
    (["--mode", "float", "hausdorff", "--input-a", "{}", "--input-b", "{}"],
     {"points": [[["1e400", "0"], ["0", "0"]]], "segments": [], "order": 0},
     "not a finite float: '1e400'"),
    # JSON 1e400 and Infinity both read as float infinity
    (["hausdorff", "--input-a", "{}", "--input-b", "{}"],
     {"points": SET_B["points"], "segments": [], "order": float("inf")},
     "not an integer: inf"),
    (["hausdorff", "--input-a", "{}", "--input-b", "{}"],
     {"points": [], "segments": [{"a": SET_B["points"][0],
                                  "b": SET_B["points"][1],
                                  "generation": float("inf")}], "order": 1},
     "not an integer: inf"),
], ids=["t4-detect-object", "hausdorff-segment-list", "t4-detect-zero-den",
        "pc-hull-zero-den", "hausdorff-zero-den", "hausdorff-rank-two",
        "hausdorff-empty", "float-pc-hull-inf", "float-pc-hull-overflow",
        "float-pc-hull-huge-int", "float-t4-detect-overflow",
        "float-hausdorff-nan", "float-hausdorff-overflow",
        "hausdorff-infinite-order", "hausdorff-infinite-generation"])
def test_malformed_input_file_is_usage_error(tmp_path, capsys, argv, data,
                                             message):
    src = tmp_path / "input.json"
    src.write_text(json.dumps(data))
    out = tmp_path / "out"
    argv = [a.format(src) for a in argv]
    assert main(["--out", str(out), *argv]) == 1
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("error, code", [
    (constructions.InputError, 1),
    (constructions.ConstructionError, 2),
    (GeometryError, 2),
])
def test_exit_code_of_a_library_error(tmp_path, monkeypatch, capsys, error,
                                      code):
    """An out-of-range construction input is a usage error; any other
    library error is a failed certificate.  Neither writes a report."""
    def failing(cfg):
        raise error("raised by the test")

    monkeypatch.setattr(constructions, "staircase_iterate", failing)
    out = tmp_path / "out"
    assert main(["--out", str(out), "staircase"]) == code
    prefix = "error" if code == 1 else "certificate failure"
    assert f"{prefix}: raised by the test" in capsys.readouterr().err
    assert not out.exists()


def _mostly(usual, rare):
    """``usual`` in nine draws of ten, else ``rare``."""
    return st.integers(0, 9).flatmap(lambda k: usual if k < 9 else rare)


# any JSON leaf, bounded: no string like "1e999999999", ints up to 10^6
LEAF = st.one_of(
    st.integers(-10 ** 6, 10 ** 6), st.floats(), st.none(), st.booleans(),
    st.text("0123456789/-.", max_size=8),
    st.lists(st.integers(-10 ** 6, 10 ** 6), max_size=2),
    st.dictionaries(st.text("ab", max_size=2), st.integers(0, 9), max_size=2))
ENTRY = _mostly(st.one_of(
    st.integers(-10 ** 6, 10 ** 6),
    st.builds("{}/{}".format, st.integers(-999, 999), st.integers(1, 999)),
    # exact, or beyond the float range
    st.builds("{}e{}".format, st.integers(-9, 9), st.integers(-400, 400))),
    LEAF)
MATRIX = _mostly(st.lists(st.lists(ENTRY, min_size=2, max_size=2),
                          min_size=2, max_size=2),
                 st.one_of(LEAF, st.lists(LEAF, max_size=3)))
MATRICES = _mostly(st.lists(MATRIX, min_size=1, max_size=6), LEAF)
QUADRUPLE = _mostly(st.lists(MATRIX, min_size=4, max_size=4), MATRICES)


def _segment(a11, a12, a21, a22, b11, extra):
    """A segment along the first entry, so rank-one when both ends load."""
    return {"a": [[a11, a12], [a21, a22]], "b": [[b11, a12], [a21, a22]],
            **extra}


SEGMENT = _mostly(
    st.builds(_segment, *[ENTRY] * 5, st.fixed_dictionaries({}, optional={
        "generation": _mostly(st.integers(1, 3), LEAF), "approx": LEAF})),
    st.one_of(LEAF, st.fixed_dictionaries({"a": MATRIX, "b": MATRIX})))
LAMINATE_SET = _mostly(st.fixed_dictionaries(
    {"points": st.lists(MATRIX, min_size=1, max_size=2)},
    optional={"segments": st.lists(SEGMENT, max_size=2),
              "order": _mostly(st.integers(0, 3), LEAF)}),
    LEAF)
FUZZED = {"t4-detect": (["--input"], QUADRUPLE),
          "pc-hull": (["--input"], MATRICES),
          "hausdorff": (["--input-a", "--input-b"], LAMINATE_SET)}


def _no_constant(name):
    raise ValueError(f"{name} is not a JSON number")


@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize("sub", list(FUZZED))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_input_loaders_never_raise(sub, mode, data):
    """On near-valid input files every run exits 0, 1 or 2 without an
    exception, a usage error writes no report, and a written report is
    JSON with finite numbers only."""
    options, docs = FUZZED[sub]
    argv = ["--mode", mode, sub]
    with tempfile.TemporaryDirectory() as tmp:
        for option in options:
            path = os.path.join(tmp, option.strip("-") + ".json")
            with open(path, "w") as f:
                json.dump(data.draw(docs, label=option), f)
            argv += [option, path]
        out = os.path.join(tmp, "out")
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(["--out", out, *argv])
        assert code in (0, 1, 2)
        if code == 1:
            assert not os.path.exists(out)
        elif os.path.exists(out):
            with open(os.path.join(out, sub + ".json")) as f:
                json.load(f, parse_constant=_no_constant)


def test_t4_detect_checks_its_witnesses(tmp_path, monkeypatch):
    detect = t4.detect_t4

    def corrupted(x, **kwargs):
        det = detect(x, seeds=[(2, 2, 2, 2)], **kwargs)
        w = det.witnesses[0]
        bad = t4.T4Witness(w.ordering, w.p, w.c, (w.mu[0] + 1,) + w.mu[1:])
        return t4.Detection((bad,) + det.witnesses[1:], det.failures)

    src = tmp_path / "quad.json"
    src.write_text(json.dumps(T4_INPUT))
    monkeypatch.setattr(t4, "detect_t4", corrupted)
    code, report, _ = run(tmp_path, "t4-detect", "--input", str(src))
    assert code == 2
    assert report["certificates"]["passed"] is False



def _shift_first_plane(hull):
    """Move the first plane off the points it indexes."""
    ph = hull.planes[0]
    plane = pchull.RankOnePlane(((0, 0), (1, 0)), ph.plane.kind,
                                ph.plane.generator)
    return pchull.HullDescription(
        hull.points, (pchull.PlaneHull(plane, ph.indices, ph.vertices),)
        + hull.planes[1:], hull.singleton_indices)


def _drop_last_point(hull):
    """A hull of all but the last input point, with no planes."""
    n = len(hull.points) - 1
    return pchull.HullDescription(hull.points[:n], (), tuple(range(n)))


@pytest.mark.parametrize("corrupt", [_shift_first_plane, _drop_last_point])
def test_pc_hull_checks_its_certificate(tmp_path, monkeypatch, corrupt):
    build = pchull.pc_hull
    monkeypatch.setattr(pchull, "pc_hull",
                        lambda k, **kwargs: corrupt(build(k, **kwargs)))
    src = tmp_path / "set.json"
    src.write_text(json.dumps(PC_INPUT))
    code, report, _ = run(tmp_path, "pc-hull", "--input", str(src))
    assert code == 2
    assert report["certificates"]["passed"] is False


@pytest.mark.parametrize("argv, tol", [
    (["--mode", "float", "--tol", "1e-3"], 1e-3),
    (["--tol", "1e-3"], 1e-3),  # an exact hull is handed --tol and reads none
])
def test_pc_hull_honours_tol(tmp_path, monkeypatch, argv, tol):
    build = pchull.pc_hull
    seen = []

    def recording(k, **kwargs):
        seen.append(kwargs.get("tol"))
        return build(k, **kwargs)

    monkeypatch.setattr(pchull, "pc_hull", recording)
    src = tmp_path / "set.json"
    src.write_text(json.dumps(PC_INPUT))
    out = tmp_path / "out"
    code = main(["--out", str(out), *argv, "pc-hull", "--input", str(src)])
    assert code == 0
    report = json.loads((out / "pc-hull.json").read_text())
    assert report["certificates"]["passed"] is True
    assert seen == [tol]


@pytest.mark.parametrize("argv", [
    ["--mode", "float", "--tol", "1e-3"],
    ["--tol", "1e-3"],  # exact: the check tolerance of a float witness
])
def test_t4_detect_honours_tol(tmp_path, monkeypatch, argv):
    detect, certified = t4.detect_t4, t4.witness_certified
    seen = []

    def recording_detect(x, **kwargs):
        seen.append(("detect_t4", kwargs.get("tol")))
        return detect(x, **kwargs)

    def recording_certified(x, w, tol=1e-9):
        seen.append(("witness_certified", tol))
        return certified(x, w, tol)

    monkeypatch.setattr(t4, "detect_t4", recording_detect)
    monkeypatch.setattr(t4, "witness_certified", recording_certified)
    src = tmp_path / "quad.json"
    src.write_text(json.dumps(T4_INPUT))
    out = tmp_path / "out"
    code = main(["--out", str(out), *argv, "t4-detect", "--input", str(src)])
    assert code == 0
    assert json.loads((out / "t4-detect.json").read_text())["results"][
        "witnesses"]
    assert {name for name, _ in seen} == {"detect_t4", "witness_certified"}
    assert {tol for _, tol in seen} == {1e-3}


NO_NUMPY = """
import sys
sys.modules["numpy"] = None  # any import of numpy now raises ImportError
import rohull.pchull
from rohull import cli
src, out = sys.argv[1:]
for mode in ("float", "exact"):
    code = cli.main(["--out", out + mode, "--mode", mode,
                     "pc-hull", "--input", src])
    assert code == 0, (mode, code)
"""


def test_library_and_cli_run_without_numpy(tmp_path):
    src = tmp_path / "set.json"
    src.write_text(json.dumps(PC_INPUT))
    path = [str(Path(rohull.__file__).parents[1]),
            os.environ.get("PYTHONPATH", "")]
    proc = subprocess.run(
        [sys.executable, "-c", NO_NUMPY, str(src), str(tmp_path / "out")],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_pc_hull_on_a_huge_entry(tmp_path, capsys):
    # 10^400 overflows a float; the exact plane test must not convert it
    src = tmp_path / "big.json"
    src.write_text(json.dumps([[["0", "0"], ["0", "0"]],
                               [[str(10**400), "0"], ["0", "0"]],
                               [["0", "1"], ["0", "0"]]]))
    code, report, _ = run(tmp_path, "pc-hull", "--input", str(src))
    assert code == 0
    assert "Traceback" not in capsys.readouterr().err
    assert report["certificates"]["passed"] is True


def test_t4_detect_on_huge_exact_entries(tmp_path, capsys):
    # |X_k|^2 is about 10^401, beyond the float range
    src = tmp_path / "big.json"
    src.write_text(json.dumps([[[e + "e200" for e in row] for row in m]
                               for m in T4_INPUT]))
    code, report, _ = run(tmp_path, "t4-detect", "--input", str(src))
    assert code == 0
    assert "Traceback" not in capsys.readouterr().err
    assert [w["mu"] for w in report["results"]["witnesses"]] == \
        [["2"] * 4] * 4


def _hausdorff_to_zero(tmp_path, mode, entry):
    """hausdorff from {[[entry, entry], [0, 0]]} to {0}."""
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    pa.write_text(json.dumps({"points": [[[entry, entry], [0, 0]]]}))
    pb.write_text(json.dumps({"points": [[[0, 0], [0, 0]]]}))
    return run(tmp_path, "--mode", mode, "hausdorff",
               "--input-a", str(pa), "--input-b", str(pb))


@pytest.mark.parametrize("entry", ["1e-200", "1e200"])
def test_hausdorff_root_beyond_the_float_range(tmp_path, entry):
    # hausdorff_sq = 2 entry^2 lies outside the float range, its root inside
    code, report, _ = _hausdorff_to_zero(tmp_path, "exact", entry)
    assert code == 0
    assert report["results"]["hausdorff_sq"] == str(2 * Fraction(entry) ** 2)
    assert report["results"]["hausdorff"] == \
        pytest.approx(math.sqrt(2) * float(entry), rel=1e-15, abs=0)


@pytest.mark.parametrize("mode, entry", [("float", 1e200),
                                         ("exact", "1e350"),
                                         ("exact", "1e-350"),
                                         ("float", 1e-170),
                                         ("float", 1e-160)])
def test_hausdorff_not_a_finite_float_is_usage_error(tmp_path, capsys, mode,
                                                     entry):
    code, report, out = _hausdorff_to_zero(tmp_path, mode, entry)
    assert code == 1
    err = capsys.readouterr().err
    assert "the Hausdorff distance is not a finite float" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_hausdorff_of_a_float_set_to_itself_is_zero(tmp_path):
    # every distance is 0.0, and so is its exact value: no underflow error
    path = tmp_path / "a.json"
    path.write_text(json.dumps({"points": [[[1e-170, 1e-170], [0, 0]],
                                           [[0, 0], [0, 0]]]}))
    code, report, _ = run(tmp_path, "--mode", "float", "hausdorff",
                          "--input-a", str(path), "--input-b", str(path))
    assert code == 0
    assert set(report["results"].values()) == {0.0}


def test_float_hausdorff_is_the_exact_distance_rounded_once(tmp_path):
    # the middle point lies on the segment at the exact values of the
    # floats; float arithmetic put it 1.232595164407831e-32 away
    ends = [[[0.1, 0.2], [0, 0.3]], [[1.7, 0.2], [0, 0.3]]]
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    pa.write_text(json.dumps({"points": [ends[0], [[0.9, 0.2], [0, 0.3]],
                                         ends[1]]}))
    pb.write_text(json.dumps({"points": [], "order": 1, "segments": [
        {"a": ends[0], "b": ends[1], "generation": 1}]}))
    code, report, _ = run(tmp_path, "--mode", "float", "hausdorff",
                          "--input-a", str(pa), "--input-b", str(pb))
    assert code == 0
    assert report["results"]["directed_a_to_b_sq"] == 0.0
    assert report["results"]["hausdorff_sq"] == 0.16


DATA = Path(__file__).parent / "data"
# (subcommand, mode) -> arguments; every file the run writes is committed
# as tests/data/<subcommand>.<mode>.<json|csv|svg>
GOLDEN_ARGV = {
    ("pc-hull", "exact"): ["pc-hull",
                           "--input", str(DATA / "golden_set.json")],
    ("hausdorff", "exact"): ["hausdorff",
                             "--input-a", str(DATA / "golden_a.json"),
                             "--input-b", str(DATA / "golden_b.json")],
    ("hausdorff", "float"): ["hausdorff",
                             "--input-a", str(DATA / "golden_a.json"),
                             "--input-b", str(DATA / "golden_b.json")],
    ("t4-detect", "exact"): ["t4-detect",
                             "--input", str(DATA / "golden_t4.json")],
    ("staircase", "exact"): ["staircase", "--N", "6"],
    ("usc-probe", "exact"): ["usc-probe", "--N", "6"],
    ("tri-spiral", "exact"): ["tri-spiral", "--steps", "40"],
    ("tri-spiral", "float"): ["tri-spiral", "--steps", "300"],
    ("sym-spiral", "float"): ["sym-spiral", "--iters", "12"],
    ("five-point", "exact"): ["five-point", "--epsilon", "1/2",
                              "--rounds", "20"],
}


# float pc-hull is compared with exact pc-hull of its floats' exact values
# instead (test_float_pc_hull_is_the_exact_report_rounded_once)
@pytest.mark.parametrize("name, mode", list(GOLDEN_ARGV))
def test_reports_match_the_committed_ones(tmp_path, name, mode):
    """The JSON reports, and the CSV and SVG files where the subcommand
    writes them, are byte-identical to ones committed from an earlier
    version of the library."""
    out = tmp_path / "out"
    assert main(["--out", str(out), "--mode", mode, "--csv", "--svg",
                 *GOLDEN_ARGV[name, mode]]) == 0
    written = sorted(p.name for p in out.iterdir())
    committed = sorted(p.name.replace(f".{mode}.", ".")
                       for p in DATA.glob(f"{name}.{mode}.*"))
    assert written == committed
    for fname in written:
        stem, ext = fname.rsplit(".", 1)
        assert (out / fname).read_bytes() == \
            (DATA / f"{stem}.{mode}.{ext}").read_bytes(), fname


def test_one_parser_serves_every_call(tmp_path):
    """Runs in one process, a usage error and a float run among them, give
    the exit codes and bytes of runs on a freshly built parser."""
    runs = [["staircase", "--N", "3"], ["staircase", "--N", "0"],
            ["--mode", "float", "tri-spiral", "--steps", "5"],
            ["tri-spiral", "--steps", "5"], ["--csv", "staircase"],
            ["five-point", "--rounds", "2"]]

    def results(tag, fresh):
        got = []
        for k, argv in enumerate(runs):
            if fresh:
                build_parser.cache_clear()
            out = tmp_path / tag / str(k)
            got.append((main(["--out", str(out), *argv]),
                        {p.name: p.read_bytes() for p in out.glob("*")}
                        if out.exists() else {}))
        return got

    shared = results("shared", False)
    assert build_parser() is build_parser()
    assert [code for code, _ in shared] == [0, 1, 0, 0, 0, 0]
    assert shared == results("fresh", True)


class TestArtifacts:
    def test_csv_and_svg_emitted(self, tmp_path):
        out = tmp_path / "out"
        code = main(["--out", str(out), "--csv", "--svg",
                     "staircase", "--N", "4"])
        assert code == 0
        assert (out / "staircase.csv").exists()
        assert (out / "staircase.svg").exists()
        header = (out / "staircase.csv").read_text().splitlines()[0]
        assert header == "subspace,x,y,z"

    def test_reports_are_deterministic(self, tmp_path):
        texts = []
        for run_dir in ("r1", "r2"):
            out = tmp_path / run_dir
            assert main(["--out", str(out), "five-point"]) == 0
            texts.append((out / "five-point.json").read_bytes())
        assert texts[0] == texts[1]
