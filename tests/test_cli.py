"""Command line interface: exit codes, report structure, artifacts."""
import json
from pathlib import Path

import pytest

from rohull import pchull, t4
from rohull.cli import main

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
], ids=["t4-detect-object", "hausdorff-segment-list", "t4-detect-zero-den",
        "pc-hull-zero-den", "hausdorff-zero-den", "hausdorff-rank-two",
        "hausdorff-empty", "float-pc-hull-inf", "float-pc-hull-overflow",
        "float-pc-hull-huge-int", "float-t4-detect-overflow",
        "float-hausdorff-nan", "float-hausdorff-overflow"])
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
    (["--tol", "1e-3"], 1e-9),  # exact mode keeps the library default
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


DATA = Path(__file__).parent / "data"
GOLDEN_ARGV = {
    "pc-hull": ["pc-hull", "--input", str(DATA / "golden_set.json")],
    "hausdorff": ["hausdorff", "--input-a", str(DATA / "golden_a.json"),
                  "--input-b", str(DATA / "golden_b.json")],
    "t4-detect": ["t4-detect", "--input", str(DATA / "golden_t4.json")],
}


# float pc-hull is left out: its plane generators come from LAPACK's SVD,
# whose last bits may vary between builds
@pytest.mark.parametrize("name, mode", [
    ("pc-hull", "exact"), ("hausdorff", "exact"), ("hausdorff", "float"),
    ("t4-detect", "exact")])
def test_reports_match_the_committed_ones(tmp_path, name, mode):
    """The reports are byte-identical to ones committed from an earlier
    version of the library."""
    out = tmp_path / "out"
    assert main(["--out", str(out), "--mode", mode, *GOLDEN_ARGV[name]]) == 0
    assert (out / f"{name}.json").read_bytes() == \
        (DATA / f"{name}.{mode}.json").read_bytes()


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
