"""Command-line interface: reports, exit codes, scan CSV, SVG export."""

import dataclasses
import hashlib
import importlib.util
import json
import os
import re
import subprocess
import sys
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import grid, lattice
from framehom import (
    __version__,
    build_anchored_cosheaf,
    build_force_cosheaf,
    build_moment_cosheaf,
    counting_rules,
    format_framework,
    load_framework,
    make_desargues,
    make_named,
    perturb,
    save_framework,
)
from framehom import cli, cosheaf, les, linalg, structural
from framehom.cli import main
from framehom.framework import _parse_scalar
from framehom.les import _LesContext

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture()
def square_fw(tmp_path):
    path = tmp_path / "square.fw"
    save_framework(make_named("square"), path)
    return path


@pytest.fixture()
def desargues_fw(tmp_path):
    path = tmp_path / "desargues.fw"
    save_framework(make_desargues("1/2"), path)
    return path


def test_analyze_square(square_fw, capsys):
    code = main(["analyze", str(square_fw)])
    out = capsys.readouterr().out
    assert code == 0
    assert "s; dim H1         0      3      4" in out
    assert "m; dim H0         4      3      0" in out
    assert "all checks passed" in out


def test_analyze_digest_names_the_bytes_it_parsed(square_fw, capsys, monkeypatch):
    # the file changes right after it is parsed: the reported digest must
    # still be that of the square the report describes
    original = square_fw.read_bytes()
    parse = cli.parse_framework

    def parse_then_rewrite(text, mode):
        f = parse(text, mode)
        save_framework(make_named("triangle"), square_fw)
        return f

    monkeypatch.setattr(cli, "parse_framework", parse_then_rewrite)
    save_framework(make_named("square"), square_fw)
    assert main(["analyze", str(square_fw)]) == 0
    out = capsys.readouterr().out
    assert square_fw.read_bytes() != original
    assert f"sha256: {hashlib.sha256(original).hexdigest()}" in out
    assert "m; dim H0         4      3      0" in out  # the square's table
    save_framework(make_named("square"), square_fw)
    assert main(["analyze", str(square_fw), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["input"]["sha256"] == hashlib.sha256(original).hexdigest()
    assert doc["dims"]["force"]["h0"] == 4


def test_analyze_is_byte_identical(square_fw, capsys):
    main(["analyze", str(square_fw)])
    first = capsys.readouterr().out
    main(["analyze", str(square_fw)])
    second = capsys.readouterr().out
    assert first == second


def test_analyze_json(desargues_fw, capsys):
    code = main(["analyze", str(desargues_fw), "--json"])
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert doc["dims"] == {
        "force": {"h1": 1, "h0": 4},
        "moment": {"h1": 12, "h0": 3},
        "anchored": {"h1": 12, "h0": 0},
    }
    assert doc["ranks"]["phi_star_h1"] == 1
    assert doc["ranks"]["pi_star_h1"] == 11
    assert doc["ranks"]["theta"] == 1
    assert doc["all_passed"] is True
    assert len(doc["generators"]["anchored_h1"]) == 12
    assert len(doc["generators"]["mechanisms"]) == 1


def test_analyze_dims_only(square_fw, capsys):
    code = main(["analyze", str(square_fw), "--dims-only"])
    out = capsys.readouterr().out
    assert code == 0
    assert "dim H1" in out
    assert "counting" not in out


def test_analyze_writes_out_file(square_fw, tmp_path, capsys):
    out_path = tmp_path / "report.txt"
    main(["analyze", str(square_fw), "--out", str(out_path)])
    printed = capsys.readouterr().out
    assert out_path.read_text() == printed


def test_analyze_missing_file(tmp_path, capsys):
    code = main(["analyze", str(tmp_path / "nope.fw")])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_analyze_invalid_file(tmp_path, capsys):
    path = tmp_path / "bad.fw"
    path.write_text("dim 2\nv 0 0 0\nv 1 0 0\ne 0 1\n")
    code = main(["analyze", str(path)])
    assert code == 1
    assert "zero-length" in capsys.readouterr().err


@pytest.mark.parametrize("text, err", [
    ("dim 2\ndim 2\n", "line 2: repeated dim header"),
    ("dim 2\nv 0 0\n", "line 2: vertex needs an id and 2 coordinates"),
    ("dim 2\nv x 0 0\n", "line 2: bad vertex id 'x'"),
    ("dim 2\nv 0 0 0\nv 0 1 0\n", "line 3: duplicate vertex id 0"),
    ("dim 2\nv 0 0 0\nv 1 1 0\ne 0\n", "line 4: edge needs exactly two vertex ids"),
    ("dim 2\nv 0 0 0\nv 1 1 0\ne 0 x\n", "line 4: bad edge endpoint"),
    ("dim 2\nq 1\n", "line 2: unknown record 'q'"),
    ("e 0 1\n", "missing dim header"),
    ("dim 2\n# no vertices\n", "no vertices"),
    # each fault the parser's per-record dispatch could reorder
    ("e 0 1\nv 0 0 0\n", "line 2: vertex before dim header"),
    ("e 0 1\ne 1\ndim 2\n", "line 2: edge needs exactly two vertex ids"),
    ("dim 3\nv 0 1 1/2 x\n", "line 2: bad number literal 'x'"),
    ("dim 3\nv 0 7 -0 0.5 1e-3\n", "line 2: vertex needs an id and 3 coordinates"),
    ("dim 2\nv 0 0 0\nv 0 x 0\n", "line 3: duplicate vertex id 0"),
    ("dim 2\nv x y 0\n", "line 2: bad vertex id 'x'"),
    ("dim 2 # two\nv 0 0#0\n", "line 2: vertex needs an id and 2 coordinates"),
    ("e 0 1\ndim 2\nv 0 0 0\nv 1 1e99999 0\n", "line 4: bad number literal '1e99999'"),
    ("dim 2\nv 0 0 0\nv 2 1 0\n", "vertex ids must be dense 0-based integers"),
    ("e 0 5\ndim 2\nv 0 0 0\nv 1 1 0\n", "edge 0 references unknown vertex id (0, 5)"),
    ("dim 2\nv 0 0 0\nv 1 1 0\ne 1 1\n", "edge 0 is a self-loop at vertex 1"),
    ("dim 2\nv 0 0 0\nv 1 1 0\ne 0 1\ne 1 0\n", "duplicate edge 1: (1, 0)"),
    ("dim 2\nv 0 0 0\nv 1 1/2 0\nv 2 2/4 0\ne 0 1\ne 1 2\n", "zero-length edge 1: (1, 2)"),
], ids=["dim-twice", "vertex-arity", "vertex-id", "vertex-twice", "edge-arity",
        "edge-endpoint", "record", "no-dim", "no-vertices", "vertex-before-dim",
        "edge-before-dim", "literal-after-good-ones", "arity-before-literals",
        "vertex-twice-before-literal", "vertex-id-before-literal", "comment-cuts-a-record",
        "exponent-bound", "sparse-ids", "unknown-vertex", "self-loop", "edge-twice",
        "zero-length"])
def test_analyze_names_the_fault_of_a_malformed_file(tmp_path, capsys, text, err):
    path = tmp_path / "bad.fw"
    path.write_text(text)
    assert main(["analyze", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {err}\n"


@pytest.mark.parametrize("command", [["analyze"], ["scan", "-m", "0"],
                                     ["svg", "--generator", "N:0", "--out", "x.svg"]])
def test_non_utf8_input_is_an_error_line(tmp_path, capsys, command):
    path = tmp_path / "latin1.fw"
    path.write_bytes(b"dim 2\nv 0 0 0\xff")
    assert main([command[0], str(path), *command[1:]]) == 1
    assert capsys.readouterr().err.startswith("error: 'utf-8' codec can't decode byte 0xff")


@pytest.mark.parametrize("literal", ["nan", "inf"])
def test_analyze_float_rejects_non_finite_coordinates(tmp_path, capsys, literal):
    path = tmp_path / "nonfinite.fw"
    path.write_text(f"dim 3\nv 0 0 0 0\nv 1 {literal} 0 0\nv 2 0 1 0\ne 0 1\ne 1 2\n")
    code = main(["analyze", str(path), "--mode", "float"])
    assert code == 1
    assert capsys.readouterr().err == "error: vertex 1 has a non-finite coordinate\n"


@pytest.mark.xfail(strict=True, raises=ValueError,
                   reason="float mode uses absolute tolerances: at 10^8 solve_in_image refuses "
                          "a right-hand side in the column space")
def test_analyze_float_of_the_square_scaled_by_1e8_passes(square_fw, tmp_path):
    path = tmp_path / "square_1e8.fw"
    save_framework(make_named("square").transformed([[10 ** 8, 0], [0, 10 ** 8]], [0, 0]), path)
    assert main(["analyze", str(square_fw), "--mode", "float"]) == 0
    assert main(["analyze", str(path)]) == 0
    assert main(["analyze", str(path), "--mode", "float"]) == 0


def test_analyze_float_dims_of_the_square_scaled_by_1e155_exits_0(tmp_path):
    # its squared coordinates overflow a float: the bbox diagonal once raised OverflowError
    path = tmp_path / "square_1e155.fw"
    s = 10 ** 155
    save_framework(make_named("square").transformed([[s, 0], [0, s]], [0, 0]), path)
    assert main(["analyze", str(path), "--mode", "float", "--dims-only"]) == 0


def _float_and_exact_dims_tables(path, capsys) -> list:
    tables = []
    for mode in ("exact", "float"):
        assert main(["analyze", str(path), "--mode", mode, "--dims-only"]) == 0
        tables.append(capsys.readouterr().out.split("homology dimensions")[1])
    return tables


def test_float_dims_of_the_square_scaled_by_1e11_match_exact(tmp_path, capsys):
    # the anchored dims come from the gauge and a scale-free affine rank, not
    # from B_N, whose scale-free singular value 2 falls under EPS_RANK * sigma_max
    path = tmp_path / "square_1e11.fw"
    save_framework(make_named("square").transformed([[10 ** 11, 0], [0, 10 ** 11]], [0, 0]), path)
    tables = _float_and_exact_dims_tables(path, capsys)
    assert tables[0] == tables[1]


@pytest.mark.parametrize("text, anchored", [
    ("dim 2\nv 0 0 0\nv 1 1e-11 0\nv 2 1e-11 1e-11\nv 3 0 1e-11\n"
     "e 0 1\ne 1 2\ne 2 3\ne 3 0\n", (4, 0)),
    ("dim 2\nv 0 0 0\nv 1 1e-100 0\ne 0 1\n", (0, 0)),
], ids=["square-1e-11", "bar-1e-100"])
def test_float_dims_of_tiny_frames_match_exact(tmp_path, capsys, text, anchored):
    path = tmp_path / "tiny.fw"
    path.write_text(text)
    tables = _float_and_exact_dims_tables(path, capsys)
    assert tables[0] == tables[1]
    assert tables[0].splitlines()[2].split()[-1] == str(anchored[0])
    assert tables[0].splitlines()[3].split()[-1] == str(anchored[1])


@pytest.mark.parametrize("tok", ["1e999999999", "-1E-999_999_999", "1e4301"])
@pytest.mark.parametrize("command", ["analyze", "scan"])
def test_a_huge_decimal_exponent_is_a_bad_literal(square_fw, tmp_path, capsys, monkeypatch,
                                                  tok, command):
    # exact mode would compute 10**exponent: an exponent above the int digit
    # limit is refused at once, in a file and in a scan's magnitudes
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 4300)
    path = tmp_path / "huge.fw"
    path.write_text(f"dim 2\nv 0 0 0\nv 1 {tok} 1\ne 0 1\n")
    args = ["-m", "0"] if command == "scan" else []
    assert main([command, str(path), *args]) == 1
    assert capsys.readouterr().err == f"error: line 3: bad number literal {tok!r}\n"
    if command == "scan":
        assert main(["scan", str(square_fw), "-m", f"0,{tok}"]) == 1
        assert capsys.readouterr().err == f"error: --magnitudes: bad number literal {tok!r}\n"


@pytest.mark.parametrize("command", ["analyze", "scan"])
def test_float_mode_reads_a_huge_exponent_as_before(square_fw, tmp_path, capsys, command):
    path = tmp_path / "huge.fw"
    path.write_text("dim 2\nv 0 0 0\nv 1 1e999999999 1\ne 0 1\n")
    args = ["-m", "0"] if command == "scan" else []
    assert main([command, str(path), *args, "--mode", "float"]) == 1
    assert capsys.readouterr().err == "error: vertex 1 has a non-finite coordinate\n"
    if command == "scan":
        assert main(["scan", str(square_fw), "-m", "0,1e999999999", "--mode", "float"]) == 1
        assert capsys.readouterr().err == ("error: --magnitudes: magnitude must be finite, "
                                           "got '1e999999999'\n")


def test_an_exponent_within_the_int_digit_limit_is_read(monkeypatch):
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 5)
    assert _parse_scalar("3e5", "exact", "x") == 300000
    assert _parse_scalar("3e-5", "exact", "x") == Fraction(3, 100000)
    with pytest.raises(ValueError, match="bad number literal '3e6'"):
        _parse_scalar("3e6", "exact", "x")
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 0)   # 0: no limit
    assert _parse_scalar("1e6", "exact", "x") == 10 ** 6


@pytest.fixture
def int_digit_limit():
    """Sets int's digit limit for str (4300 is CPython's default) for one test."""
    old = sys.get_int_max_str_digits()
    yield sys.set_int_max_str_digits
    sys.set_int_max_str_digits(old)


# a triangle whose bar directions and exact entries pass float range and the
# 4300-digit limit of str(int); its exponent is within the parser's limit
HUGE_TRIANGLE = "dim 2\nv 0 0 0\nv 1 1e4000 0\nv 2 1 2\ne 0 1\ne 1 2\ne 0 2\n"


def test_json_prints_exact_entries_of_any_size(tmp_path, capsys, int_digit_limit):
    path = tmp_path / "huge.fw"
    path.write_text(HUGE_TRIANGLE)
    int_digit_limit(4300)
    assert main(["analyze", str(path), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    got = doc["generators"]["anchored_h1"]
    int_digit_limit(0)   # 0: no limit, so str prints the expected entries
    want = _LesContext(load_framework(path)).anch.h1
    assert got == [[str(x) for x in v] for v in want]
    assert max(len(x) for v in got for x in v) > 4300
    # a coordinate printed by format_framework
    f = dataclasses.replace(make_named("triangle"), positions=((0, 0), (10 ** 4300, 0), (1, 2)))
    text = format_framework(f)
    int_digit_limit(4300)
    assert format_framework(f) == text and "v 1 1" + "0" * 4300 + " 0\n" in text


def test_svg_labels_a_bar_direction_past_float_range(tmp_path):
    # the shear of a bar whose direction overflows a float is read at a
    # smaller scale of that direction; the layout at a smaller scale of all
    # coordinates
    path, out = tmp_path / "huge.fw", tmp_path / "huge.svg"
    path.write_text(HUGE_TRIANGLE)
    assert main(["svg", str(path), "--generator", "N:0", "--out", str(out)]) == 0
    labels = re.findall(r">(M=\S+) (V=\S+)<", out.read_text())
    assert len(labels) == 3
    assert all(Decimal(x[2:]).is_finite() for pair in labels for x in pair)
    # edges 0 and 1 overflow; edge 2 reads as a float, V = -2e8000 / sqrt(5)
    assert [v for _, v in labels] == ["V=0", "V=2e+4000", "V=-8.944e+7999"]


@pytest.mark.parametrize("mode, text", [
    ("exact", "dim 2\nv 0 0 0\nv 1 1e-200 1e-200\nv 2 0 1\ne 0 1\ne 1 2\ne 0 2\n"),
    ("exact", "dim 2\nv 0 0 0\nv 1 1e-400 1e-400\nv 2 0 1\ne 0 1\ne 1 2\ne 0 2\n"),
    ("float", "dim 2\nv 0 0 0\nv 1 1e-170 0\nv 2 0 1e-170\ne 0 1\ne 1 2\ne 0 2\n"),
], ids=["exact-1e-200", "exact-1e-400", "float-1e-170"])
def test_svg_labels_a_bar_direction_whose_square_underflows(tmp_path, mode, text):
    # a direction is made a unit vector by hypot, whose squares would
    # underflow to a zero length
    path, out = tmp_path / "tiny.fw", tmp_path / "tiny.svg"
    path.write_text(text)
    assert main(["svg", str(path), "--mode", mode, "--generator", "N:0", "--out", str(out)]) == 0
    labels = re.findall(r">M=(\S+) V=(\S+)<", out.read_text())
    assert len(labels) == 3
    assert all(Decimal(x).is_finite() for pair in labels for x in pair)


def test_python_m_framehom_runs_the_cli(square_fw, tmp_path):
    # the module entry point, run as its own process, exits with main's code
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))

    def run(*args):
        return subprocess.run([sys.executable, "-m", "framehom", *map(str, args)],
                              capture_output=True, text=True, env=env, timeout=120)

    version = run("--version")
    assert (version.returncode, version.stdout) == (0, f"framehom {__version__}\n")
    dims = run("analyze", square_fw, "--dims-only")
    assert dims.returncode == 0, dims.stderr
    assert "homology dimensions" in dims.stdout
    assert run("analyze", tmp_path / "nope.fw").returncode == 1


def test_main_builds_the_parser_once(square_fw, capsys):
    cli.build_parser.cache_clear()
    assert main(["analyze", str(square_fw), "--dims-only"]) == 0
    assert main(["analyze", str(square_fw), "--dims-only", "--json"]) == 0
    info = cli.build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    capsys.readouterr()


def test_analyze_check_failure_exit_2(square_fw, capsys, monkeypatch):
    # a report with one failing check exits 2 and still prints the report
    original = cli._report_from_context

    def failing(ctx):
        report = original(ctx)
        bad = dataclasses.replace(report.checks[-1], passed=False)
        return dataclasses.replace(report, checks=report.checks[:-1] + (bad,))

    monkeypatch.setattr(cli, "_report_from_context", failing)
    code = main(["analyze", str(square_fw)])
    out = capsys.readouterr().out
    assert code == 2
    assert "[FAIL ] (i)" in out
    assert "CHECK FAILURES" in out


def test_analyze_single_bar_in_space_passes(tmp_path, capsys):
    # rotation about the bar's axis moves no vertex: the rigid-body space has
    # dimension 5 < 6, and checks (e) and (i), which need all 6, do not apply
    path = tmp_path / "bar3d.fw"
    path.write_text("dim 3\nv 0 0 0 0\nv 1 1 0 0\ne 0 1\n")
    assert main(["analyze", str(path)]) == 0
    out = capsys.readouterr().out
    na = "[not applicable: rigid-body space of dimension 5 < 6]"
    assert f"(e) H0(anchored) vanishes {na}" in out
    assert f"(i) phi0* surjective onto H0(moment) {na}" in out
    assert "result: all checks passed" in out


def test_analyze_disconnected_reports_na(tmp_path, capsys):
    path = tmp_path / "two.fw"
    path.write_text("dim 2\nv 0 0 0\nv 1 1 0\nv 2 5 5\nv 3 6 5\ne 0 1\ne 2 3\n")
    code = main(["analyze", str(path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "connected=no" in out
    assert "not applicable" in out


def test_analyze_float_mode(square_fw, capsys):
    code = main(["analyze", str(square_fw), "--mode", "float"])
    out = capsys.readouterr().out
    assert code == 0
    assert "mode: float" in out
    assert "s; dim H1         0      3      4" in out


# ---------------------------------------------------------------------------
# scan
# ---------------------------------------------------------------------------

def test_scan_csv(desargues_fw, capsys):
    code = main(["scan", str(desargues_fw), "-m", "0,1/100", "-s", "1..3"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == ("magnitude,seed,h1_force,h0_force,h1_moment,h0_moment,"
                        "h1_anchored,h0_anchored,rank_phi1,rank_pi1,rank_theta")
    assert lines[1] == "0,1,1,4,12,3,12,0,1,11,1"
    assert "1/100,1,0,3,12,3,12,0,0,12,0" in lines
    assert len(lines) == 7


# sha256 of the exact `scan` CSV on Desargues over three magnitudes and
# five seeds: the scan is byte-identical by the same contract as `analyze`
SCAN_DIGEST = "982e198ef976cd9965d32cd285da839ed75c76dd95e858f77641ad0bd244b531"


def test_exact_scan_is_byte_identical(desargues_fw, capsys):
    assert main(["scan", str(desargues_fw), "-m", "0,1/100,1/1000", "-s", "1..5"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == SCAN_DIGEST


@pytest.mark.parametrize("spec, err", [
    ("x", "bad seed 'x'"),
    ("1..", "bad seed '1..'"),
    ("1.5", "bad seed '1.5'"),
    ("5..1", "empty range '5..1'"),
    ("5..1,3", "empty range '5..1'"),
], ids=["x", "1..", "1.5", "5..1", "5..1,3"])
def test_scan_bad_seed_spec(desargues_fw, capsys, spec, err):
    code = main(["scan", str(desargues_fw), "-m", "0", "-s", spec])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == f"error: --seeds: {err}\n"


@pytest.mark.parametrize("flag, err", [("-m", "no magnitudes given"),
                                       ("-s", "no seeds given")])
def test_scan_refuses_an_empty_list(desargues_fw, capsys, flag, err):
    argv = ["scan", str(desargues_fw), "-m", "0", "-s", "1"]
    argv[argv.index(flag) + 1] = ","
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {err}\n")


def test_scan_out_file(desargues_fw, tmp_path, capsys):
    out_path = tmp_path / "scan.csv"
    code = main(["scan", str(desargues_fw), "-m", "0", "-s", "1", "--out", str(out_path)])
    assert code == 0
    assert out_path.read_text().startswith("magnitude,seed")


def test_float_scan_parses_rational_magnitudes(desargues_fw, capsys):
    # the example of --help, in float mode: literals parse as in .fw files
    code = main(["scan", str(desargues_fw), "-m", "0,1/100", "-s", "1", "--mode", "float"])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    lines = captured.out.strip().splitlines()
    assert [line.split(",")[:2] for line in lines[1:]] == [["0.0", "1"], ["0.01", "1"]]


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_scan_rejects_a_bad_magnitude_literal(desargues_fw, capsys, mode):
    code = main(["scan", str(desargues_fw), "-m", "0,1/0", "--mode", mode])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "error: --magnitudes: bad number literal '1/0'\n"


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_scan_rejects_a_negative_magnitude(square_fw, capsys, mode):
    code = main(["scan", str(square_fw), "-m=-1/100", "-s", "1..2", "--mode", mode])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == ("error: --magnitudes: magnitude must be nonnegative, "
                            "got '-1/100'\n")


@pytest.mark.parametrize("tok", ["nan", "inf", "-inf", "1e400"])
def test_scan_rejects_a_non_finite_magnitude(square_fw, capsys, tok):
    # float mode parses these literals (1e400 overflows to inf); exact mode
    # reads nan and inf as no number at all, and 1e400 as a finite rational
    code = main(["scan", str(square_fw), f"-m=0,{tok}", "-s", "1", "--mode", "float"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == f"error: --magnitudes: magnitude must be finite, got {tok!r}\n"
    if tok != "1e400":
        assert main(["scan", str(square_fw), f"-m=0,{tok}", "-s", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --magnitudes: bad number literal {tok!r}\n"


@pytest.mark.parametrize("argv", [["analyze", "--json"], ["scan", "-m", "0"],
                                  ["svg", "--generator", "N:0"]])
def test_unwritable_out_path_is_an_input_error(desargues_fw, tmp_path, capsys, argv):
    out = tmp_path / "missing" / "x"
    code = main([argv[0], str(desargues_fw), *argv[1:], "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: ") and str(out) in captured.err
    assert not out.exists()


# ---------------------------------------------------------------------------
# svg
# ---------------------------------------------------------------------------

def test_svg_square_anchored_generator(square_fw, tmp_path):
    out = tmp_path / "sq.svg"
    code = main(["svg", str(square_fw), "--generator", "N:3", "--out", str(out)])
    assert code == 0
    svg = out.read_text()
    assert svg.startswith("<?xml")
    assert "</svg>" in svg
    # the anchored-only generator carries resultant arrows at all 4 corners
    assert svg.count('marker-end="url(#arrow)"') == 4
    assert "M=" in svg and "V=" in svg


def test_svg_no_values_flag(square_fw, tmp_path):
    out = tmp_path / "sq2.svg"
    main(["svg", str(square_fw), "--generator", "N:3", "--out", str(out),
          "--no-svg-values"])
    svg = out.read_text()
    assert "M=" not in svg
    assert svg.count('marker-end="url(#arrow)"') == 4


def test_svg_force_generator_on_desargues(desargues_fw, tmp_path):
    out = tmp_path / "d.svg"
    code = main(["svg", str(desargues_fw), "--generator", "F:0", "--out", str(out)])
    assert code == 0
    assert "t=" in out.read_text()


def test_svg_no_generators(tmp_path, capsys):
    path = tmp_path / "tri.fw"
    save_framework(make_named("triangle"), path)
    out = tmp_path / "tri.svg"
    code = main(["svg", str(path), "--generator", "F:0", "--out", str(out)])
    assert code == 1
    assert "no generators" in capsys.readouterr().err


def test_svg_index_out_of_range(square_fw, tmp_path, capsys):
    out = tmp_path / "sq3.svg"
    code = main(["svg", str(square_fw), "--generator", "N:99", "--out", str(out)])
    assert code == 1
    assert "out of range" in capsys.readouterr().err


def test_exact_svg_of_a_generator_past_the_float_square_range(tmp_path, capsys):
    # the last anchored generator of random3d-4 lifts to exact couple entries
    # past 1e154, whose float squares overflow; the norms must not square them
    f = make_named("random3d", 4)
    path, out = tmp_path / "random3d_4.fw", tmp_path / "r.svg"
    save_framework(f, path)
    last = build_anchored_cosheaf(f).dims[0] - 1
    code = main(["svg", str(path), "--generator", f"N:{last}", "--out", str(out)])
    assert code == 0, capsys.readouterr().err
    assert out.read_text().endswith("</svg>\n")


def test_exact_svg_of_a_generator_past_the_float_range(tmp_path, capsys):
    # anchored generator 35 of the perturbed box3d lifts to couple entries
    # past 1.8e308, which no float holds; each |M| and |V| label is the exact
    # norm of its couple's moment and force to four significant digits
    f = perturb(make_named("box3d"), Fraction(1, 100), 1)
    path, out = _saved(tmp_path, "box3d", f), tmp_path / "b.svg"
    code = main(["svg", str(path), "--generator", "N:35", "--out", str(out)])
    assert code == 0, capsys.readouterr().err
    labels = re.findall(r">\|M\|=(\S+) \|V\|=(\S+)<", out.read_text())
    ctx = _LesContext(f)
    gen = ctx.anchored_generators[35].reshape(-1, 1)
    couples = ctx.section.apply_c1(gen).reshape(f.num_edges, -1).tolist()
    assert len(labels) == f.num_edges
    assert max(abs(x) for c in couples for x in c) > 2 ** 1024
    with localcontext(prec=40):
        for texts, couple in zip(labels, couples):
            for text, part in zip(texts, (couple[:3], couple[3:])):
                sq = sum(Fraction(x) ** 2 for x in part)
                norm = (Decimal(sq.numerator) / Decimal(sq.denominator)).sqrt()
                assert abs(Decimal(text) - norm) <= norm / 2000, (text, norm)


@pytest.fixture()
def simplex4_fw(tmp_path):
    """The complete graph on the origin and the four unit points of R^4."""
    path = tmp_path / "simplex4.fw"
    path.write_text("dim 4\nv 0 0 0 0 0\nv 1 1 0 0 0\nv 2 0 1 0 0\nv 3 0 0 1 0\n"
                    "v 4 0 0 0 1\n" + "".join(f"e {a} {b}\n" for a in range(5)
                                              for b in range(a + 1, 5)))
    return path


def test_svg_refuses_four_dimensional_frameworks(simplex4_fw, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "_LesContext", None)  # refused before any homology
    code = main(["svg", str(simplex4_fw), "--generator", "N:0",
                 "--out", str(tmp_path / "s.svg")])
    assert code == 1
    assert capsys.readouterr().err == "error: svg export needs a 2- or 3-dimensional framework\n"
    assert not (tmp_path / "s.svg").exists()


def test_analyze_four_dimensional_simplex_passes(simplex4_fw, capsys):
    assert main(["analyze", str(simplex4_fw)]) == 0
    out = capsys.readouterr().out
    assert f"{'s; dim H1':12s} {0:>6d} {60:>6d} {60:>6d}" in out
    assert "9|E|-6|V|" in out
    assert "CHECK FAILURES" not in out


def test_svg_bad_generator_spec(square_fw, tmp_path, capsys):
    code = main(["svg", str(square_fw), "--generator", "Z:0",
                 "--out", str(tmp_path / "x.svg")])
    assert code == 1


def test_analyze_runs_cleanly_on_corpus_samples(tmp_path, capsys):
    paths = []
    for name in ("bar", "triangle", "square", "box3d"):
        p = tmp_path / f"{name}.fw"
        save_framework(make_named(name), p)
        paths.append(p)
    for name, seed in (("random2d", 0), ("random3d", 0)):
        p = tmp_path / f"{name}.fw"
        save_framework(make_named(name, seed), p)
        paths.append(p)
    for p in paths:
        assert main(["analyze", str(p)]) == 0, p
        capsys.readouterr()


def test_svg_desargues_perp_generator_matches_mechanism(desargues_fw, tmp_path):
    # the last anchored generator (orthogonal to im pi*) maps onto the sole
    # mechanism; its arrows must be nonzero
    out = tmp_path / "d11.svg"
    code = main(["svg", str(desargues_fw), "--generator", "N:11", "--out", str(out)])
    assert code == 0
    assert out.read_text().count('marker-end="url(#arrow)"') >= 4


# ---------------------------------------------------------------------------
# byte identity of the exact reports
# ---------------------------------------------------------------------------

# sha256 of the exact-mode `analyze`, `analyze --json` and
# `analyze --dims-only` output, and of the float-mode `analyze --dims-only`
# output, for each framework that scripts/make_corpus.py writes, with the
# input path replaced by "<input>".  Exact reports are byte-identical by
# contract: a change that moves one of these digests changes a report, and
# has to say why.  Dims are integers, so the float digest does not depend on
# BLAS round-off.
CORPUS_DIGESTS = {
    "bar": (
        "2331d3cd5eb641390ad20ce6f2aaf5785bc0b54254da840a5e50c5bec5c4a0ba",
        "4893fab4f5b8f8f4937c32e05a44420d40288267cd3cd24bf2baabca89fbcb99",
        "61e1f4e3fa16509df15ab3ede7c1a66ed144c97ef7c534fc3a07b9ab0ad87395",
        "90c3af1d0c7bb30f4dc0cbd33bf6bec65915b63502aba5f5b4547cf92b5b92fd"),
    "box3d": (
        "ecc09a7edfdd974f28e55219ab22ea568c79278e03089706a48a33eabd03009b",
        "2116901eba7d793bc23ca517b4fe94f2cb87094953aa0de6c04746e8a199536e",
        "35c45ccb6275657cd7aac415d0bacb1a86bbbf0d5a5c6a53d9f9e63025b53de9",
        "913569465c04b7e26e68ddb46b1452458309220ea87233cee3d2dd81375d9a40"),
    "desargues": (
        "84144252a520bcb12475e0b7c2703bbf0c9228ccf48ca3ab6098a3e6afd2dfa5",
        "a857d3f0b87c98b1f10ebe9ea25c97a371db094696e87dc72a75790add876642",
        "e1d9b9686f08b5cef11a0d3ca4cfcae9708d63dc86454fb8b0da1a2858455091",
        "c42652c3807497ea98abd616de6f168b94c7fe42144af0ef0015ab1a57c03cf7"),
    "random2d_0": (
        "fdd6571c53e5b36718ae824b5225f347501f9a506197e6101872ef301f08dc60",
        "b10341ac18f9404e9554b2dbdaf2d8d12bfada149ba79fc944cffa680ce32415",
        "521ebdf99a89ea361687297328434d60c5fe75ae3b2e84dd46f0044919014a55",
        "171dfc93c4305c4246a50053e7c4a3a3631ec4d3536ab70d4f60d62d33e0ea35"),
    "random2d_1": (
        "721983c1632b04ca70c1138f5f0beddc13795d1985a070ca21607f48e4e473fd",
        "52dcf465070cdf0789ed8fc3cea4fcfa346710913aefa74c05548663a2f4695b",
        "5826750e4570b3e3a8a7991681f677543a87e176d1a4ea3679fb2cf99b40eb35",
        "a2eeb32becaa4c56dccc2bc24fb135ff0270cc872061a404abb5f0f9cb86ef4a"),
    "random2d_2": (
        "902e0000bf9cc08e822e923a3d55b87aa6f14b268c0a72a5c44d2ae642909356",
        "a6ad3c09e9d8cc07a2785f201308d7f42483708edb5e1af963c0fedaeab39db5",
        "0ef66ed4b0097598f6e7979eb7fd03075e912e56ef326441301b76b81ddf44ad",
        "1d7d9d97e4895fe1d8f6b18acc4bf0fea5132558b334cddd06111e92cc7dcbdc"),
    "random2d_3": (
        "09b590e3b7bff481bc063f209ddfc98a7879ae4966f996f3e854f29a617d19bf",
        "4164e5d1f1bf5db845b1ee88397c6841a1f811c02a8b190c36c305513ce333aa",
        "65eb283a0ede7efdb36bb30151a365a8443cc08b61a9f31ae16d4c5cb2b322b8",
        "b0aa3dcddf7b8eb3e80f05acdc1b4acc8d2d4b89638840b27af992e19695be84"),
    "random2d_4": (
        "b08b3129934302f13c66faa371456a8233a7c452e0d0e0a918c19d8ce181e197",
        "f5ae124396b82cc9254ccc6a944d74645244be5d8433e55de3c02012fa70a7ff",
        "cb75274a87b2c2338d4e283400ea88d6dcc4b0d89abd86afc10efc0d0026baae",
        "d061c8375858029da81dd4c7a1fcb5a2823b449cb9463168d6d3d6da880e5a5c"),
    "random3d_0": (
        "5c727d048865af1cf46a23ff5db956bf2c0711b8eb3d19e3aa90a30b9cec89af",
        "27a86b159d209eac0da114b2ad52c4be92ac62f3a810ef3f31e902266d471e99",
        "fbc11e7d3d6a34b043c8aa4fc435cf41969423f5fcbea19d45ba9755851b5eef",
        "72dd310dcd03542428df79caba8772746ac256d31097c9a0c3bb9750610368a8"),
    "random3d_1": (
        "2fdf8351d068385a62822de27bdb1c6faa2e463b1248e024b3912f2e12873202",
        "160e1642c82a50c86dbc4cf9a9d456444d8964ef8e16c05522aec9d7776e06ba",
        "9ba802226d24572331940227f919f1757e049e1567f188789a480a05396b54cf",
        "6984236f9686a186e21067084bb0eb260e55e00a88421561a73cfea9b6b030dd"),
    "random3d_2": (
        "67005d5a7e2a90508207513c05e1d3b4e000a7337d874f1e3dd809691fb1f464",
        "9572f76c53a4c661f0e0a7c585d9a0181fbfc9519c32175dfd73b515d4161243",
        "e84b068ab8644a307b84955219970d743d81f69880103146a215829032755646",
        "7cda5c58507161fb0467207f0e1bdaef5f9a6e6f8758ce2c758b259df39a5fbc"),
    "random3d_3": (
        "41b7a02e7e69ea701c2a12272b93b133a65218942debe6ba13fffe77737112bd",
        "21e23f4eef0b94570955271a3d9c08e1aa99b0d6d5fbe2fc8e42a8ce1d4d1e57",
        "5f8af953e174489991a34c06e57de9e730068f8c442c004cfe3183eda6956e43",
        "d6f7784d28518e0aee56bbb5784ec19a99b9a16b8bed0e3607fd80db9d97db42"),
    "random3d_4": (
        "fb0e9017f5adbb1669407534dc5fdee77f7b4aa63dbdd5cf9740b0bc9b116d7f",
        "bba68c7b3bf723af8b1d7ef3f25fa624c032762db3c40cb62cbed172890169b7",
        "3146de3cf6d4340a2fcd0813333b2a3d852c685ca06e0b24846e8d70ff222b28",
        "df9c80097868bca8ff81125b1f2224830d2522bc4925b3101fccd6eb82be38cd"),
    "square": (
        "07543620205517c00c5b2c4b43b2b15caec9085bbe26f8445c34c21ddbb6edb9",
        "91af0c22b20f1682fce7d9377c9e0e4d577c618261f54f7358f9aadf2caec2c3",
        "e59b96b48cac0c54ce70eb0c74ccac4ac643aef4e61c49d65a1eb96f2caf1434",
        "ba618433d643fb9bfbc4ef04979aabc8c57328e75a9f7105e33029840b5b95a8"),
    "triangle": (
        "ccf294bf94539112889192c38b906d518befbee27badeea56a300e483fd3c4a8",
        "715adaa3b174cc33d6d499e29faa34cf6de064bca5edb9822eaf60c3fd3f77a9",
        "7c261edd76a2df8f8863b02c269110afcf184f2153ddcc4c1a43bd23179bc6f0",
        "78ff4cced4748df99c38831d382306a63feb14f0c460fa9408da39fa0a93ad39"),
}


def _load_script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sys, "argv", ["make_corpus.py", str(out)])
        _load_script("make_corpus").main()
    return out


def test_make_corpus_writes_the_digested_frameworks(corpus_dir):
    assert sorted(p.stem for p in corpus_dir.glob("*.fw")) == sorted(CORPUS_DIGESTS)


@pytest.mark.parametrize("name", sorted(CORPUS_DIGESTS))
def test_exact_reports_are_byte_identical(corpus_dir, capsys, name):
    path = corpus_dir / f"{name}.fw"
    digests = []
    for flags in ([], ["--json"], ["--dims-only"], ["--dims-only", "--mode", "float"]):
        main(["analyze", str(path), *flags])
        out = capsys.readouterr().out.replace(str(path), "<input>")
        digests.append(hashlib.sha256(out.encode()).hexdigest())
    assert tuple(digests) == CORPUS_DIGESTS[name]


# ---------------------------------------------------------------------------
# front ends reading one pipeline
# ---------------------------------------------------------------------------

def _json_dims(capsys, path, *flags):
    assert main(["analyze", str(path), "--json", *flags]) == 0
    d = json.loads(capsys.readouterr().out)["dims"]
    return tuple((d[c]["h1"], d[c]["h0"]) for c in ("force", "moment", "anchored"))


def test_dims_only_counting_rules_and_verify_les_agree(corpus, corpus_reports,
                                                       tmp_path, capsys):
    # the pipeline reads dims off the boundary ranks; a fresh cosheaf's h1 and
    # h0 count the basis vectors of ker B and ker B^T
    for label, f in corpus:
        report = corpus_reports[label]
        dims = (report.dims_force, report.dims_moment, report.dims_anchored)
        hs = (build_force_cosheaf(f), build_moment_cosheaf(f), build_anchored_cosheaf(f))
        assert tuple(h.dims for h in hs) == dims, label
        assert all((len(h.h1), len(h.h0)) == h.dims for h in hs), label
        path = tmp_path / f"{label}.fw"
        save_framework(f, path)
        assert _json_dims(capsys, path, "--dims-only") == dims, label
        counting = counting_rules(f)
        assert counting == report.counting, label
        computed = {c.name: c.computed for c in counting}
        assert computed["moment_circuit_rank"] == dims[1][0], label


@pytest.mark.parametrize("text, components, dims", [
    # three vertices and no edge: every vertex is its own component
    ("dim 2\nv 0 0 0\nv 1 1 0\nv 2 0 2\n", 3, ((0, 6), (0, 9), (0, 3))),
    # a triangle and a separate bar in space; the bar keeps H0(N) = 1
    ("dim 3\nv 0 0 0 0\nv 1 1 0 0\nv 2 0 1 0\nv 3 5 5 5\nv 4 6 5 7\n"
     "e 0 1\ne 1 2\ne 0 2\ne 3 4\n", 2, ((0, 11), (6, 12), (6, 1))),
])
def test_analyze_and_dims_only_on_disconnected_frameworks(tmp_path, capsys, text,
                                                          components, dims):
    path = tmp_path / "parts.fw"
    path.write_text(text)
    assert load_framework(path).components == components
    assert _json_dims(capsys, path, "--dims-only") == dims
    assert _json_dims(capsys, path) == dims
    assert main(["analyze", str(path)]) == 0
    out = capsys.readouterr().out
    assert "connected=no" in out
    assert f"{'m; dim H0':12s} {dims[0][1]:>6d} {dims[1][1]:>6d} {dims[2][1]:>6d}" in out
    assert "reported not applicable" in out


def test_analyze_one_vertex_frame_names_the_missing_edges(tmp_path, capsys):
    path = tmp_path / "point.fw"
    path.write_text("dim 3\nv 0 0 0 0\n")
    assert main(["analyze", str(path)]) == 0
    out = capsys.readouterr().out
    assert "connected=yes" in out
    assert "disconnected" not in out
    assert "framework has no edges" in out


@pytest.mark.parametrize("text, missing", [
    ("dim 2\nv 0 0 0\n", "a framework with an edge"),
    ("dim 2\nv 0 0 0\nv 1 1 0\nv 2 5 5\nv 3 6 5\ne 0 1\ne 2 3\n", "a connected framework"),
], ids=["one vertex", "two bars"])
@pytest.mark.parametrize("command", ["scan", "svg"])
def test_scan_and_svg_name_what_the_frame_lacks(tmp_path, capsys, text, missing, command):
    path = tmp_path / "frame.fw"
    path.write_text(text)
    if command == "scan":
        argv, what = ["scan", str(path), "-m", "0", "-s", "1..2"], "perturbation scans need"
    else:
        argv = ["svg", str(path), "--generator", "F:0", "--out", str(tmp_path / "f.svg")]
        what = "svg export needs"
    assert main(argv) == 1
    out = capsys.readouterr()
    assert (out.out, out.err) == ("", f"error: {what} {missing}\n")
    assert not (tmp_path / "f.svg").exists()


def test_benchmark_span_hooks_see_the_pipeline(square_fw, capsys, monkeypatch):
    # the benchmark wraps les._LesContext.__init__, les._report_from_context
    # and the CosheafMap apply methods, and rebinds les.kernel_basis, all by
    # name; a rename has to fail here, not only in a traced run
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import spans
    import framehom.les
    from framehom.cosheaf import CosheafMap

    def hooks():
        return (framehom.les.kernel_basis, framehom.les._LesContext.__init__,
                CosheafMap.apply_c0, CosheafMap.apply_c1, cli.main)

    originals = hooks()
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert spans.installed()
        assert all(hasattr(obj, "perfbench_span") for obj in hooks())
        assert main(["analyze", str(square_fw)]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    names = {span[0] for span in tracer.spans}
    assert {"les._LesContext", "les._report_from_context"} <= names
    assert not spans.installed()
    assert all(a is b for a, b in zip(hooks(), originals))


def _saved(tmp_path, name, f):
    path = tmp_path / f"{name}.fw"
    save_framework(f, path)
    return path


def test_dims_only_reads_ranks_without_back_substitution(tmp_path, capsys, monkeypatch):
    # dims come from the forward echelon of each boundary; only the kernels,
    # row bases and solves of a full analyze back-substitute
    path = _saved(tmp_path, "grid3", grid(3))
    calls = []
    original = linalg._back_substitute

    def counting(echelon):
        calls.append(len(echelon))
        return original(echelon)

    monkeypatch.setattr(linalg, "_back_substitute", counting)
    assert main(["analyze", str(path), "--dims-only"]) == 0
    # |E| - 2|V| + 3 truss, 3(|E| - |V| + 1) frame and 2|E| - |V| anchored stresses
    assert f"{'s; dim H1':12s} {1:>6d} {24:>6d} {23:>6d}" in capsys.readouterr().out
    assert calls == []
    assert main(["analyze", str(path)]) == 0
    capsys.readouterr()
    assert calls


def test_quotient_runs_once_per_distinct_stalk_map(tmp_path, capsys, monkeypatch):
    # --dims-only reads the anchored dims off the gauge and builds no quotient;
    # in a full analyze all vertices share one stalk map of phi and each bar
    # direction has its own: grid3's bars run three ways, and with every other
    # edge reversed six (1 vertex + 6 directions, not 1 + 3 lines)
    calls = []
    original = cosheaf._stalk_section

    def counting(red, where):
        calls.append(where)
        return original(red, where)

    monkeypatch.setattr(cosheaf, "_stalk_section", counting)
    for f, sections, products in (
            (grid(3), ["vertex 0", "edge 0", "edge 6", "edge 12"], 6),
            (_every_other_edge_flipped(grid(3)),
             ["vertex 0", "edge 0", "edge 1", "edge 6", "edge 7", "edge 12", "edge 13"], 12)):
        path = _saved(tmp_path, "grid3", f)
        calls.clear()
        assert main(["analyze", str(path), "--dims-only"]) == 0
        assert calls == []
        assert main(["analyze", str(path)]) == 0
        capsys.readouterr()
        assert calls == sections
        # one anchored stalk map per distinct (P, T, S) slot triple: a tail and
        # a head map per bar direction, formed once each
        anch = build_anchored_cosheaf(f)
        assert len(anch.maps) == len({id(m) for m in anch.tail_maps + anch.head_maps}) == products
    # with the last column moved from x = 2 to x = 3, the horizontal bars have
    # lengths 1 and 2, two directions with a section each, and the diagonals
    # run (1, 1) from edge 12 and (2, 1) from edge 13
    f = grid(3)
    f = dataclasses.replace(f, positions=tuple((3 if x == 2 else x, y) for x, y in f.positions))
    calls.clear()
    assert main(["analyze", str(_saved(tmp_path, "grid3-stretched", f))]) == 0
    capsys.readouterr()
    assert calls == ["vertex 0", "edge 0", "edge 1", "edge 6", "edge 12", "edge 13"]


def test_dims_and_counting_rules_build_neither_pi_nor_the_section(tmp_path, capsys,
                                                                  monkeypatch):
    # the dims read the anchored cosheaf's off the gauge, so neither builds
    # it: its sections, projections, pi and the section wait for a reader
    path = _saved(tmp_path, "grid3", grid(3))
    maps, solves, quotients = [], [], []
    post_init, solve = cosheaf.CosheafMap.__post_init__, cosheaf.solve_in_image
    quotient = les.quotient_cosheaf
    monkeypatch.setattr(les, "quotient_cosheaf", lambda m: quotients.append(1) or quotient(m))
    monkeypatch.setattr(cosheaf.CosheafMap, "__post_init__",
                        lambda self: maps.append(self) or post_init(self))
    monkeypatch.setattr(cosheaf, "solve_in_image",
                        lambda a, *rest: solves.append(a.shape) or solve(a, *rest))

    def edge_dims():  # (source, target) edge stalk dims of each map built
        return [(m.source.edge_dim, m.target.edge_dim) for m in maps]

    assert main(["analyze", str(path), "--dims-only"]) == 0
    capsys.readouterr()
    assert edge_dims() == [(1, 3)]  # phi: F -> M
    assert solves == []
    maps.clear()
    assert all(c.passed for c in counting_rules(grid(3)))
    assert edge_dims() == [(1, 3)] and solves == [] and quotients == []
    maps.clear()
    solves.clear()
    assert main(["analyze", str(path)]) == 0
    capsys.readouterr()
    # phi, then pi: M -> N and the section N -> M once each, in the order read
    assert edge_dims() == [(1, 3), (3, 2), (2, 3)]
    # the vertex projection onto the 1-dim anchored stalk, one edge projection per bar direction
    assert solves == [(1, 1)] + [(2, 2)] * 3
    assert quotients == [1]


def test_a_full_analyze_checks_the_anchored_rules_against_the_anchored_rank(tmp_path, capsys,
                                                                           monkeypatch):
    # the dims and counting_rules read H1(N) off M's gauge; a full analyze
    # tests the anchored rules against B_N's elimination, which theta runs
    # anyway, so an anchored rank off by one fails both rules and exits 2
    path = _saved(tmp_path, "grid3", grid(3))
    quotient = les.quotient_cosheaf

    def off_by_one(m):
        q, pi, section = quotient(m)
        q._reduction.rank -= 1
        return q, pi, section
    monkeypatch.setattr(les, "quotient_cosheaf", off_by_one)
    assert all(c.passed for c in counting_rules(grid(3)))
    assert main(["analyze", str(path), "--json"]) == 2
    doc = json.loads(capsys.readouterr().out)
    rules = {c["name"]: c for c in doc["counting"]}
    for name in ("anchored_stress_count", "anchored_decomposition"):
        assert not rules[name]["passed"]
        assert rules[name]["computed"] == rules[name]["expected"] + 1
        assert rules[name]["expected"] == doc["dims"]["anchored"]["h1"] == 2 * 16 - 9
    assert [c["name"] for c in doc["counting"] if not c["passed"]] == [
        "anchored_stress_count", "anchored_decomposition"]
    assert all(c["passed"] for c in doc["les_checks"])
    assert main(["analyze", str(path)]) == 2
    assert "[FAIL ] anchored_stress_count" in capsys.readouterr().out


def test_a_full_analyze_checks_the_circuit_rank_rule_against_the_moment_rank(tmp_path, capsys,
                                                                             monkeypatch):
    # the dims and counting_rules read H1(M) off M's gauge; a full analyze
    # tests the circuit-rank rule against B_M's elimination, which phi1* runs
    # anyway, so a moment rank off by one fails that rule alone and exits 2
    path = _saved(tmp_path, "grid3", grid(3))
    assert main(["analyze", str(path), "--json"]) == 0
    dims = json.loads(capsys.readouterr().out)["dims"]
    build = les.build_phi

    def off_by_one(f):
        phi = build(f)
        phi.target._reduction.rank -= 1
        return phi
    monkeypatch.setattr(les, "build_phi", off_by_one)
    assert all(c.passed for c in counting_rules(grid(3)))
    assert main(["analyze", str(path), "--json"]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["dims"] == dims
    assert [c["name"] for c in doc["counting"] if not c["passed"]] == ["moment_circuit_rank"]
    rule = next(c for c in doc["counting"] if c["name"] == "moment_circuit_rank")
    assert rule["computed"] == rule["expected"] + 1
    assert rule["expected"] == dims["moment"]["h1"] == 3 * (16 - 9 + 1)
    assert all(c["passed"] for c in doc["les_checks"])
    assert main(["analyze", str(path)]) == 2
    assert "[FAIL ] moment_circuit_rank" in capsys.readouterr().out


def test_exact_analyze_of_grid4_runs_26_eliminations(tmp_path, capsys, monkeypatch):
    # theta pulls every vertex of every anchored cycle back in one solve, so
    # the padding map is eliminated once, not once per cycle (76 before);
    # exactness checks (b), (c) and (h) read ranks, not stacked bases (28 before)
    path = _saved(tmp_path, "grid4", grid(4))
    calls = []
    original = linalg.Reduction._forward
    monkeypatch.setattr(linalg.Reduction, "_forward",
                        lambda self, rows: calls.append(1) or original(self, rows))
    assert main(["analyze", str(path), "--json"]) == 0
    capsys.readouterr()
    assert len(calls) <= 26


def test_only_the_connecting_map_assembles_a_dense_boundary(tmp_path, capsys, monkeypatch):
    # eliminations read sparse boundary rows; theta multiplies by the dense
    # moment boundary, written from the rows the moment elimination read, so
    # each cosheaf (force, moment, anchored) builds its rows once; the dims
    # read the moment and anchored ranks off the gauge, so only the force
    # rows are built for them; the moment rows wait for phi*
    path = _saved(tmp_path, "grid3", grid(3))
    calls, built = [], []
    original, original_rows = cosheaf.assemble_boundary, cosheaf.boundary_rows
    monkeypatch.setattr(cosheaf, "assemble_boundary",
                        lambda k: calls.append(k.c0_dim) or original(k))
    monkeypatch.setattr(cosheaf, "boundary_rows",
                        lambda k: built.append(k.c0_dim) or original_rows(k))
    assert main(["analyze", str(path), "--dims-only"]) == 0
    assert calls == []
    assert built == [18]
    built.clear()
    assert main(["analyze", str(path)]) == 0
    capsys.readouterr()
    assert calls == [9 * 3]
    assert built == [18, 27, 9]


def test_dims_read_off_the_gauge_eliminate_no_moment_boundary(tmp_path, capsys, monkeypatch):
    # grid3's moment boundary has 27 rows; --dims-only and counting_rules take
    # the moment dims from its gauge, a full analyze still eliminates it
    path = _saved(tmp_path, "grid3", grid(3))
    rows = []
    original = linalg.Reduction._forward
    monkeypatch.setattr(linalg.Reduction, "_forward",
                        lambda red, ints: rows.append(red.shape[0]) or original(red, ints))
    assert main(["analyze", str(path), "--dims-only"]) == 0
    counting_rules(grid(3))
    assert rows and 27 not in rows
    rows.clear()
    assert main(["analyze", str(path)]) == 0
    capsys.readouterr()
    assert 27 in rows


def test_dims_only_builds_one_transport_per_signed_lever(tmp_path, monkeypatch):
    # one reversed bar makes the head map of one direction the tail map of
    # its reverse; each signed lever's matrix is made once, by the build, and
    # the gauge certificate checks the stored maps without making any
    f = grid(3).with_flipped_edge(0)
    deltas, _ = f.direction_form
    levers = set(deltas) | {tuple(-x for x in d) for d in deltas}
    calls, built = [], []
    transport, build = structural._transport, structural.build_moment_cosheaf
    monkeypatch.setattr(structural, "_transport",
                        lambda d, *rest: calls.append(d) or transport(d, *rest))
    monkeypatch.setattr(structural, "build_moment_cosheaf",
                        lambda fw: (build(fw), built.append(len(calls)))[0])
    assert main(["analyze", str(_saved(tmp_path, "grid3-flipped", f)), "--dims-only"]) == 0
    assert sorted(calls) == sorted(levers)
    assert built == [len(levers)]


# sha256 of the exact `analyze --dims-only --json` and `analyze --json`
# output, input path replaced by "<input>", on frames larger than the corpus;
# grid8, the largest frame of the dims-exact benchmark, pins its dims alone
# (its full report takes about 15 s).  A "-flipped" frame has every other
# edge reversed, so bars of one line run both ways and share a stalk quotient.
LARGE_DIGESTS = {
    "grid6": ("7bd0de45ac876c3886a0a2d63e7f7f07f8c439d22bd4b2201e7968fc4fdc6aec",
              "9f3c4dbcbb08f5ca97ac1aa1b0c287f171f7757bc65c47c83049a696d9aba160"),
    "grid8": ("df5e5d81eee03a48be731dbe000bd6099d88530864d86bc6616bc656afab4645",),
    "lattice3": ("688d2142f5edad2efa6edd0234a6f706318972bba09f6f46c761d67e9c394cb0",
                 "5c946b0a6dd418c8b4822a806cc41de0955434e67b3778fef1a470b988fb861d"),
    "grid6-flipped": ("4cfcde34855e8e46075b07a9862993a9cdbf96b12f82d99ec6f6590d72781b2b",
                      "adf2c2d5056f1d03a35530d93ca443151aa1eb750abbfced689477418080748c"),
    "lattice3-flipped": ("1c357208e0cc4005499bf6abd2f59620f3d11ef1da6b285e0b4872eeb3925637",),
}


def _every_other_edge_flipped(f):
    for e in range(0, f.num_edges, 2):
        f = f.with_flipped_edge(e)
    return f


@pytest.mark.parametrize("name", sorted(LARGE_DIGESTS))
def test_exact_reports_on_larger_frames_are_byte_identical(tmp_path, capsys, name):
    frame, _, flipped = name.partition("-")
    f = lattice(3) if frame == "lattice3" else grid(int(frame[4:]))
    path = _saved(tmp_path, name, _every_other_edge_flipped(f) if flipped else f)
    digests = []
    for flags in (["--dims-only", "--json"], ["--json"])[:len(LARGE_DIGESTS[name])]:
        assert main(["analyze", str(path), *flags]) == 0
        out = capsys.readouterr().out.replace(str(path), "<input>")
        digests.append(hashlib.sha256(out.encode()).hexdigest())
    assert tuple(digests) == LARGE_DIGESTS[name]


# sha256 of the exact `analyze --json` output, input path replaced by
# "<input>", after perturb(f, 1/100, 1): coordinates with denominators up to
# 409600, whose anchored generators and mechanism bases pass through the
# stalk quotients, the induced maps and the solves
PERTURBED_DIGESTS = {
    "box3d": "3a8bd24488dfc89a5da2f1ecbf0d5f0459c92ca76935ee01b450891bcd028e59",
    "desargues": "1a65fb44955e9277488f307c6313e3d121f284dc055531b50123b95d2f5e088e",
}


@pytest.mark.parametrize("name", sorted(PERTURBED_DIGESTS))
def test_exact_reports_on_perturbed_frames_are_byte_identical(tmp_path, capsys, name):
    f = make_named("box3d") if name == "box3d" else make_desargues("1/2")
    path = _saved(tmp_path, name, perturb(f, Fraction(1, 100), 1))
    assert main(["analyze", str(path), "--json"]) == 0
    out = capsys.readouterr().out.replace(str(path), "<input>")
    assert hashlib.sha256(out.encode()).hexdigest() == PERTURBED_DIGESTS[name]


# sha256 of the written `svg --generator` file, for the first and last
# generator of H1(force) and H1(anchored), in both modes.  The planar frames'
# anchored labels carry the transverse shear read off the bar directions,
# box3d's the couple norms.  The float digests pin the SVD bases this numpy
# build returns, which are not canonical (see CHANGES.md).
SVG_DIGESTS = {
    ('square', 'exact'): {
        'N0': 'e8e4597a282c5bfdd288402782a09478b65031a22ee2e10cefaf11346b0f1e2b',
        'N3': 'c13af6e056a114479b4ef9bbaefe2dd88ba5a95834c13e16af1f197d71e55142',
    },
    ('square', 'float'): {
        'N0': '0e1a5163c1a6e164b8cafdc6ee9caf60cca8043f45a9eff602d08680297070a9',
        'N3': '1d6b5eaf8585d787eaff376aa2750ac6375dad9d5123b710acfc94da15b80f38',
    },
    ('desargues', 'exact'): {
        'F0': '0fea212896fb4cd3ac61a0a0724089fc561c5b4496ff072e3dbdad59f3d704b2',
        'N0': '469d7cdf7e695879df500ef06d8ea46ed12dca2d2e15995469e4e1c3e2ac809f',
        'N11': '2483714b165bd463f84ae93b965e2feb33cb5fe64196bdb35b2971f44b583e0c',
    },
    ('desargues', 'float'): {
        'F0': 'f175f128ccd69205c1816c4427e81c94edfedc298df329e805090e830c82f411',
        'N0': '1939601818c8d9e0aec947b9ac2bb0376b30da177a2ce9982411dbbafccf29ce',
        'N11': '98f497285c004491f3ee820afec8f3be3aab306dda3363d2ff87569061140669',
    },
    ('box3d', 'exact'): {
        'N0': '0e2b48a0cb535c00b007f82ddda4e116aab426e87fe80fe3c7fbfa384b76f571',
        'N35': '81c3176ed68d94fd1c588c62199e8bce213d7767eb6d1a43c876692a4dd6deb2',
    },
    ('box3d', 'float'): {
        'N0': '26358c49f230403ca3b31dc6dd3b1681c3accaded0e468554b58c3b577269056',
        'N35': '9ba550031a4ffd578cc7d1f98fece6355a4f6a6a99c8fb9bfc65c0d0d2bb2819',
    },
    ('grid4', 'exact'): {
        'F0': '71538e20ab4e40aff9b4cee1ec34f2eefbf92d5a1916cc51a002f032bd93e9a4',
        'F3': 'eac6aa6cb6642877a021e18f1ae4d113134f7cd46a3d72f7c35d1bfa02ac7048',
        'N0': '5e406565fb77896bea4e8e1a07c198daeb4c12f1798085843074bcb7e1779f36',
        'N49': '00ec01143badea70d631f54fc2b5b41f54b08b5141a4476dd93840b96ae37b54',
    },
    ('grid4', 'float'): {
        'F0': 'aa489d86cca946ab813a1a96f34cf14347c4e2483a3471703ba7e297e7d4a710',
        'F3': '20846701ca4571a3e8a93da0449e27236f6a9530c982b8b845ff3bbf4b91ed61',
        'N0': 'c1353f065bb093714b4712a507a150e38abdd64b8e5889c81952078f35db9685',
        'N49': '5d740eff012c6e74e25e20013c7ecdde844ad4d1dafd380fa81942d5fdca6396',
    },
}


def _svg_frame(name):
    return {"grid4": grid(4), "desargues": make_desargues("1/2")}.get(name) or make_named(name)


@pytest.mark.parametrize("name, mode", sorted(SVG_DIGESTS))
def test_svg_drawings_are_byte_identical(tmp_path, capsys, name, mode):
    f = _svg_frame(name)
    path, out = _saved(tmp_path, name, f), tmp_path / "g.svg"
    g = f if mode == "exact" else f.as_float()
    counts = (build_force_cosheaf(g).dims[0], build_anchored_cosheaf(g).dims[0])
    digests = {}
    for space, count in zip("FN", counts):
        for idx in sorted({0, count - 1}) if count else ():
            assert main(["svg", str(path), "--mode", mode, "--generator", f"{space}:{idx}",
                         "--out", str(out)]) == 0, capsys.readouterr().err
            digests[f"{space}{idx}"] = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digests == SVG_DIGESTS[name, mode]
