"""Framework construction, validation, file I/O, and generators."""

import math
import re
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import affine_dims_of_positions
from framehom import (
    Framework,
    FrameworkError,
    format_framework,
    load_framework,
    make_desargues,
    make_grid,
    make_lattice,
    make_named,
    parse_framework,
    perturb,
    save_framework,
)
from framehom.framework import _parse_scalar, affine_dim

ROOT = Path(__file__).resolve().parents[1]

SQUARE_TEXT = """\
# unit square
dim 2
v 0 0 0
v 1 1 0
v 2 1 1
v 3 0 1
e 0 1
e 1 2
e 2 3
e 3 0
"""


def test_parse_square():
    f = parse_framework(SQUARE_TEXT)
    assert f.dim == 2
    assert f.num_vertices == 4
    assert f.num_edges == 4
    assert f.positions[2] == (Fraction(1), Fraction(1))
    assert f.connected()


def test_parse_rational_and_decimal_literals():
    f = parse_framework("dim 2\nv 0 1/2 0.25\nv 1 1 1\ne 0 1\n")
    assert f.positions[0] == (Fraction(1, 2), Fraction(1, 4))


def test_zero_length_edge_rejected():
    text = "dim 2\nv 0 0 0\nv 1 0 0\ne 0 1\n"
    with pytest.raises(FrameworkError, match="zero-length edge"):
        parse_framework(text)


def test_dangling_edge_rejected():
    text = "dim 2\nv 0 0 0\nv 1 1 0\ne 0 5\n"
    with pytest.raises(FrameworkError, match="unknown vertex"):
        parse_framework(text)


def test_duplicate_edge_rejected():
    text = "dim 2\nv 0 0 0\nv 1 1 0\ne 0 1\ne 1 0\n"
    with pytest.raises(FrameworkError, match="duplicate edge"):
        parse_framework(text)


def test_self_loop_rejected():
    text = "dim 2\nv 0 0 0\nv 1 1 0\ne 1 1\n"
    with pytest.raises(FrameworkError, match="self-loop"):
        parse_framework(text)


def test_sparse_vertex_ids_rejected():
    text = "dim 2\nv 0 0 0\nv 2 1 0\ne 0 2\n"
    with pytest.raises(FrameworkError, match="dense"):
        parse_framework(text)


def test_missing_dim_rejected():
    with pytest.raises(FrameworkError, match="dim"):
        parse_framework("v 0 0 0\n")


@pytest.mark.parametrize("token", ["1", "0", "-3", "x", "2.5", "\u00b2"])
def test_dim_below_two_or_not_an_integer_rejected(token):
    with pytest.raises(FrameworkError, match="line 1: expected 'dim N'"):
        parse_framework(f"dim {token}\nv 0 0 0\nv 1 1 0\ne 0 1\n")


@pytest.mark.parametrize("dim", [1, 0, -3, "x"])
def test_framework_rejects_dim_below_two(dim):
    with pytest.raises(FrameworkError, match="ambient dimension"):
        Framework(dim, ((0,),), ())


@pytest.mark.parametrize("args, err", [
    ((2, ((0, 0),), (), "fuzzy"), "unknown mode 'fuzzy'"),
    ((2, (), ()), "framework has no vertices"),
    ((2, ((0, 0), (1, 0, 0)), ()), "vertex 1 has 3 coordinates, expected 2"),
], ids=["mode", "no-vertices", "coordinates"])
def test_framework_names_its_fault(args, err):
    with pytest.raises(FrameworkError, match=f"^{re.escape(err)}$"):
        Framework(*args)


def test_parse_four_dimensional_framework(tmp_path):
    text = "dim 4\nv 0 0 0 0 0\nv 1 1 0 0 1/2\ne 0 1\n"
    f = parse_framework(text)
    assert f.dim == 4
    assert f.direction_form == ([(2, 0, 0, 1)], 2)
    assert format_framework(f) == text


@pytest.mark.parametrize("literal", ["nan", "inf", "-inf"])
def test_float_mode_rejects_non_finite_coordinates(literal):
    text = f"dim 2\nv 0 0 0\nv 1 {literal} 0\nv 2 1 1\ne 0 1\ne 1 2\n"
    with pytest.raises(FrameworkError, match="vertex 1 has a non-finite coordinate"):
        parse_framework(text, mode="float")


def test_exact_mode_reads_a_float_coordinate_as_its_repr():
    assert Framework(2, ((0.5, 0), (1, 0)), ((0, 1),)).positions == ((Fraction(1, 2), 0), (1, 0))
    sq = make_named("square").transformed([[0.5, 0], [0, 1]], [0, 0])
    assert sq.positions == ((0, 0), (Fraction(1, 2), 0), (Fraction(1, 2), 1), (0, 1))
    assert {type(x) for p in sq.positions for x in p} == {int, Fraction}


@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize("x", [float("nan"), float("inf"), float("-inf")])
def test_a_non_finite_coordinate_is_refused_in_both_modes(mode, x):
    with pytest.raises(FrameworkError, match="vertex 0 has a non-finite coordinate"):
        Framework(2, ((x, 0), (1, 0)), ((0, 1),), mode)


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_affine_dim(mode):
    # one point: no difference rows, an empty 0 x 3 matrix of rank 0
    assert affine_dim(3, [(1, 2, 3)], mode) == 0
    assert affine_dim(3, [(0, 0, 0), (1, 1, 1), (2, 2, 2)], mode) == 1
    assert affine_dim(3, [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)], mode) == 3
    # scale-free: tiny and huge frames keep their affine dimension
    for s in (Fraction(1, 10 ** 100), 10 ** 11):
        s = s if mode == "exact" else float(s)
        assert affine_dim(3, [(0, 0, 0), (s, 0, 0), (0, s, 0), (s, s, 0)], mode) == 2


K4_IN_R4 = ((0, 0, 0, 0), (1, 0, 1, 0), (0, 1, 0, 2), (2, 3, 2, 6))

AFFINE_FRAMES = {
    "isolated vertices": (Framework(3, ((1, 2, 3), (4, 5, 6), (0, 0, 0)), ()), (0, 0, 0)),
    "collinear path in space": (Framework(3, ((0, 0, 0), (1, 2, 3), (3, 6, 9), (4, 8, 12)),
                                          ((0, 1), (2, 1), (2, 3))), (1,)),
    "planar K4 in R^4": (Framework(4, K4_IN_R4, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3),
                                                  (2, 3))), (2,)),
    # a triangle, an isolated point, a bar and a tetrahedron, vertices interleaved
    "disconnected mixture": (Framework(3, ((0, 0, 0), (9, 9, 9), (1, 0, 0), (5, 5, 5),
                                           (0, 1, 0), (6, 5, 5), (2, 2, 2), (3, 2, 2),
                                           (2, 3, 2), (2, 2, 3)),
                                       ((0, 2), (4, 2), (0, 4), (3, 5), (6, 7), (6, 8),
                                        (9, 6), (7, 8), (8, 9), (7, 9))), (2, 0, 1, 3)),
    "square": (make_named("square"), (2,)),
}


@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize("label", AFFINE_FRAMES)
def test_affine_dims_read_off_the_bar_directions(label, mode):
    f, want = AFFINE_FRAMES[label]
    f = f if mode == "exact" else f.as_float()
    assert f.affine_dims == affine_dims_of_positions(f) == want


@pytest.mark.parametrize("scale", [1e155, 1e-11], ids=["1e155", "1e-11"])
@pytest.mark.parametrize("label", ["collinear path in space", "planar K4 in R^4",
                                   "disconnected mixture", "square"])
def test_float_affine_dims_are_scale_free(label, scale):
    f, want = AFFINE_FRAMES[label]
    f = f.as_float()
    g = f.transformed([[scale * (i == j) for j in range(f.dim)] for i in range(f.dim)],
                      [0.0] * f.dim)
    assert g.affine_dims == affine_dims_of_positions(g) == want


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_affine_dims_of_a_bar_of_length_1e_100(mode):
    tiny = Fraction(1, 10 ** 100) if mode == "exact" else 1e-100
    bar = Framework(2, ((0, 0), (tiny, 0)), ((0, 1),), mode)
    path = Framework(3, ((0, 0, 0), (tiny, 0, 0), (tiny, tiny, 0)), ((0, 1), (1, 2)), mode)
    assert bar.affine_dims == affine_dims_of_positions(bar) == (1,)
    assert path.affine_dims == affine_dims_of_positions(path) == (2,)


@pytest.mark.parametrize("tok", ["3", "-3", "+3", "007", "1_000", "\u0663", "-0", "3/4", "1.5",
                                 "1e3", "0x10", "1__0", "_1", "\u00b3", "1/0"])
def test_exact_scalars_read_as_fraction_reads_them(tok):
    # int is tried first; every token it reads, Fraction reads to the same value
    try:
        want = Fraction(tok)
    except (ValueError, ZeroDivisionError):
        with pytest.raises(FrameworkError, match="line 1: bad number literal"):
            _parse_scalar(tok, "exact", "line 1")
        return
    got = _parse_scalar(tok, "exact", "line 1")
    assert got == want
    assert type(got) is (int if want.denominator == 1 else Fraction)


def test_bad_literal_reports_line():
    with pytest.raises(FrameworkError, match="line 2"):
        parse_framework("dim 2\nv 0 zero 0\nv 1 1 0\ne 0 1\n")


@pytest.mark.parametrize("mode, tok, err", [
    ("exact", "x", "line 3: bad number literal 'x'"),
    ("float", "x", "line 3: bad number literal 'x'"),
    ("exact", "1/0", "line 3: bad number literal '1/0'"),
    ("float", "1/0", "line 3: bad number literal '1/0'"),
    ("exact", "inf", "line 3: bad number literal 'inf'"),
    ("float", "inf", "vertex 1 has a non-finite coordinate"),
    ("float", "1/x", "line 3: bad number literal '1/x'"),
])
def test_a_bad_literal_after_good_ones_is_named_in_both_modes(mode, tok, err):
    # the good literals of the line are read before the bad one is met
    text = f"dim 3\nv 0 0 0 0\nv 1 1/2 0.5 {tok}\ne 0 1\n"
    with pytest.raises(FrameworkError, match=f"^{re.escape(err)}$"):
        parse_framework(text, mode)


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_mixed_literals_read_as_each_one_alone(mode):
    # a line of int literals, a line of mixed ones, and an edge before the
    # dim header, against frames built from each literal read on its own
    text = "e 0 1\n# mixed\ndim 6\nv 0 1 2 3 4 5 6\nv 1 3 -0 1/2 0.5 1e-3 7E+2  # tail\n"
    toks = [["1", "2", "3", "4", "5", "6"], ["3", "-0", "1/2", "0.5", "1e-3", "7E+2"]]
    f = parse_framework(text, mode)
    want = tuple(tuple(_parse_scalar(t, mode, "") for t in row) for row in toks)
    assert f == Framework(6, want, ((0, 1),), mode)
    assert [[type(x) for x in p] for p in f.positions] == [[type(x) for x in p] for p in want]
    if mode == "exact":
        assert f.positions[1] == (3, 0, Fraction(1, 2), Fraction(1, 2), Fraction(1, 1000), 700)
        assert [type(x) for x in f.positions[1]] == [int, int] + [Fraction] * 3 + [int]
    else:
        assert f.positions[1] == (3.0, -0.0, 0.5, 0.5, 1e-3, 700.0)
        assert all(type(x) is float for p in f.positions for x in p)


def test_framework_checks_every_vertex_before_it_converts_one():
    # a coordinate exact mode cannot convert does not hide a later vertex's fault
    with pytest.raises(FrameworkError, match=r"^vertex 1 has 3 coordinates, expected 2$"):
        Framework(2, (("a", 0), (1, 0, 0)), ())
    with pytest.raises(FrameworkError, match=r"^vertex 1 has a non-finite coordinate$"):
        Framework(2, (("a", 0), (math.inf, 0)), ())
    f = Framework(2, [[0, 0], [Fraction(1), True]], [(0, 1)])
    assert f.positions == ((0, 0), (1, 1)) and type(f.positions) is tuple
    assert all(type(p) is tuple and all(type(x) is int for x in p) for p in f.positions)


def test_disconnected_accepted_but_flagged():
    text = "dim 2\nv 0 0 0\nv 1 1 0\nv 2 5 5\nv 3 6 5\ne 0 1\ne 2 3\n"
    f = parse_framework(text)
    assert not f.connected()


def test_roundtrip_is_bit_exact(tmp_path):
    f = make_desargues(Fraction(1, 2))
    path = tmp_path / "d.fw"
    save_framework(f, path)
    g = load_framework(path)
    assert g == f
    save_framework(g, tmp_path / "d2.fw")
    assert (tmp_path / "d.fw").read_bytes() == (tmp_path / "d2.fw").read_bytes()


def test_int_coordinates_roundtrip_exactly(tmp_path):
    # ints are written as integers, not through float: 2**53 + 1 has no
    # float64 and would come back as 2**53
    big = 2 ** 53 + 1
    f = Framework(2, ((0, 0), (big, 1), (1, -big)), ((0, 1), (1, 2)))
    path = tmp_path / "big.fw"
    save_framework(f, path)
    assert "v 1 9007199254740993 1\n" in path.read_text()
    assert load_framework(path) == f


@pytest.mark.parametrize("token, value, text", [
    ("4/2", 2, "2"),
    ("-0", 0, "0"),
    ("1.50", Fraction(3, 2), "3/2"),
    ("1e3", 1000, "1000"),
    (str(2 ** 60 + 1), 2 ** 60 + 1, str(2 ** 60 + 1)),
    ("-6/4", Fraction(-3, 2), "-3/2"),
])
def test_exact_tokens_parse_to_int_where_integral_and_round_trip(token, value, text):
    f = parse_framework(f"dim 2\nv 0 0 0\nv 1 {token} 1\ne 0 1\n")
    x = f.positions[1][0]
    assert x == value
    assert type(x) is (int if value.denominator == 1 else Fraction)
    out = format_framework(f)
    assert f"v 1 {text} 1\n" in out
    g = parse_framework(out)
    assert g == f and type(g.positions[1][0]) is type(x)


def test_integral_coordinates_are_int_from_every_constructor():
    f = Framework(2, ((Fraction(2), Fraction(1, 2)), (Fraction(0), 3)), ((0, 1),))
    assert f.positions == ((2, Fraction(1, 2)), (0, 3))
    assert [type(x) for p in f.positions for x in p] == [int, Fraction, int, int]
    g = f.transformed([[Fraction(1, 2), 0], [0, 2]], (Fraction(1, 1), Fraction(1, 2)))
    assert [type(x) for p in g.positions for x in p] == [int, Fraction, int, Fraction]
    assert all(type(x) is int for p in make_named("box3d").positions for x in p)
    rows, d = make_desargues(Fraction(1, 2)).direction_form   # edge 0: (0, 4) -> (-3, -2)
    assert (rows[0], d) == ((-6, -12), 2)
    assert all(type(x) is int for r in rows for x in r)


def test_framework_equality_and_hash_ignore_int_or_fraction():
    a = Framework(2, ((Fraction(2), Fraction(0)), (Fraction(0), Fraction(1, 3))), ((0, 1),))
    b = Framework(2, ((2, 0), (0, Fraction(1, 3))), ((0, 1),))
    assert a == b and hash(a) == hash(b)


def test_float_mode_parsing(tmp_path):
    path = tmp_path / "s.fw"
    path.write_text(SQUARE_TEXT)
    f = load_framework(path, mode="float")
    assert f.mode == "float"
    assert f.positions[1] == (1.0, 0.0)


def test_float_mode_zero_length_threshold():
    # two vertices 1e-12 apart in a unit-scale framework: below eps * diagonal
    text = "dim 2\nv 0 0 0\nv 1 1e-12 0\nv 2 1 1\ne 0 1\ne 1 2\n"
    with pytest.raises(FrameworkError, match="zero-length"):
        parse_framework(text, mode="float")
    parse_framework(text)  # exact mode: distinct rationals are fine


@pytest.mark.parametrize("scale", [13 * 10 ** 153, 10 ** 155, 10 ** 300],
                         ids=["1.3e154", "1e155", "1e300"])
def test_a_float_frame_whose_squared_coordinates_overflow_builds(scale):
    # a coordinate squared past the float range once made the bbox diagonal
    # inf (every edge then read as zero-length) or raised OverflowError
    f = make_named("square").as_float().transformed([[scale, 0], [0, scale]], [0, 0])
    assert f.bbox_diagonal() == pytest.approx(scale * math.sqrt(2))


@pytest.mark.parametrize("gap", [0.0, 1e-12])
def test_float_mode_zero_length_threshold_at_a_huge_scale(gap):
    s = 1e200
    pos = ((0.0, 0.0), (s, 0.0), (s, s), (s * (1 + gap), 0.0))
    with pytest.raises(FrameworkError, match=r"zero-length edge 1: \(1, 3\)"):
        Framework(2, pos, ((0, 1), (1, 3), (1, 2)), "float")


def _directions(f):
    """Every edge's direction head - tail, read off ``direction_form``."""
    rows, d = f.direction_form
    return [tuple(x / d if f.mode == "float" else Fraction(x, d) for x in r) for r in rows]


def test_edge_geometry_consistency():
    # direction_form clears the positions to integers over one D in exact
    # mode; float rows are the float differences, over 1
    exact = make_desargues(Fraction(1, 2))
    for f, den, kind in ((exact, 2, int), (exact.as_float(), 1, float)):
        rows, d = f.direction_form
        assert d == den
        assert all(type(x) is kind for r in rows for x in r)
        assert _directions(f) == [tuple(b - a for a, b in zip(f.positions[t], f.positions[h]))
                                  for t, h in f.edges]


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [3, 4])
def test_grid_and_lattice_generators_match_the_benchmark_inputs(monkeypatch, n):
    # the benchmark keeps its own copies; the frames must stay the same,
    # vertex and edge order included
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    from inputs import cubic_lattice, triangulated_grid
    assert make_grid(n) == triangulated_grid(n)
    assert make_lattice(n) == cubic_lattice(n)


def test_make_named_bar():
    f = make_named("bar")
    assert (f.num_vertices, f.num_edges) == (2, 1)


def test_make_named_unknown():
    with pytest.raises(FrameworkError, match="unknown framework"):
        make_named("pentagon")


def test_make_named_square_matches_golden_file():
    assert format_framework(make_named("square")) == \
        "dim 2\nv 0 0 0\nv 1 1 0\nv 2 1 1\nv 3 0 1\ne 0 1\ne 1 2\ne 2 3\ne 3 0\n"


def test_make_named_box3d():
    f = make_named("box3d")
    assert f.dim == 3
    assert (f.num_vertices, f.num_edges) == (8, 12)
    assert f.connected()


@pytest.mark.parametrize("name,seed", [("random2d", 7), ("random3d", 11)])
def test_random_frameworks_valid_and_deterministic(name, seed):
    f = make_named(name, seed)
    g = make_named(name, seed)
    assert f == g
    assert f.connected()
    # exact coordinates: int where integral, Fraction otherwise
    assert all(type(x) is (int if x.denominator == 1 else Fraction)
               for p in f.positions for x in p)
    assert make_named(name, seed + 1) != f


def test_desargues_structure():
    f = make_desargues(Fraction(1, 2))
    assert (f.num_vertices, f.num_edges) == (6, 9)
    # inner triangle is the outer one scaled through the origin, so every
    # connector bar lies on a line through the origin
    for i in range(3):
        outer, inner = f.positions[i], f.positions[3 + i]
        assert inner == tuple(Fraction(1, 2) * x for x in outer)
    assert (0, 3) in f.edges and (1, 4) in f.edges and (2, 5) in f.edges


@pytest.mark.parametrize("t", [0, 1, Fraction(3, 2), -1])
def test_desargues_scale_range(t):
    with pytest.raises(FrameworkError):
        make_desargues(t)


# ---------------------------------------------------------------------------
# perturbation
# ---------------------------------------------------------------------------

def test_perturb_zero_magnitude_is_identity():
    f = make_desargues(Fraction(1, 2))
    assert perturb(f, 0, seed=3) == f


def test_perturb_deterministic_and_rational():
    f = make_named("square")
    g1 = perturb(f, Fraction(1, 100), seed=1)
    g2 = perturb(f, Fraction(1, 100), seed=1)
    assert g1 == g2
    assert g1 != f
    for p, q in zip(f.positions, g1.positions):
        for a, b in zip(p, q):
            assert isinstance(b, Fraction)
            assert abs(b - a) <= Fraction(1, 100)


def test_perturb_accepts_decimal_string_magnitude():
    f = make_named("square")
    assert perturb(f, "0.01", seed=1) == perturb(f, Fraction(1, 100), seed=1)


def test_perturb_negative_magnitude_rejected():
    with pytest.raises(FrameworkError):
        perturb(make_named("square"), -1, seed=0)


@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize("magnitude", [float("nan"), float("inf"), float("-inf")])
def test_perturb_non_finite_magnitude_rejected(mode, magnitude):
    f = make_named("square")
    with pytest.raises(FrameworkError, match="magnitude must be finite"):
        perturb(f if mode == "exact" else f.as_float(), magnitude, seed=0)


@pytest.mark.parametrize("magnitude", [Decimal("NaN"), Decimal("Infinity"), Fraction(10**400),
                                       10**400])
def test_perturb_float_mode_rejects_a_magnitude_not_finite_as_float(magnitude):
    with pytest.raises(FrameworkError, match="magnitude must be finite"):
        perturb(make_named("square").as_float(), magnitude, seed=0)


def test_perturb_float_mode():
    f = make_named("square").as_float()
    g = perturb(f, 0.01, seed=5)
    assert g.mode == "float"
    for p, q in zip(f.positions, g.positions):
        for a, b in zip(p, q):
            assert abs(b - a) <= 0.01


# ---------------------------------------------------------------------------
# symmetry helpers
# ---------------------------------------------------------------------------

def test_flip_edge():
    f = make_named("square")
    g = f.with_flipped_edge(0)
    assert g.edges[0] == (1, 0)
    assert g.edges[1:] == f.edges[1:]


def test_vertex_permutation_roundtrip():
    f = make_named("square")
    perm = [2, 0, 3, 1]
    g = f.with_vertex_permutation(perm)
    assert g.num_edges == f.num_edges
    for i, p in enumerate(f.positions):
        assert g.positions[perm[i]] == p
    inv = [perm.index(i) for i in range(4)]
    assert g.with_vertex_permutation(inv) == f


def test_transform_rigid_motion():
    f = make_named("triangle")
    rot = [[Fraction(3, 5), Fraction(-4, 5)], [Fraction(4, 5), Fraction(3, 5)]]
    g = f.transformed(rot, (Fraction(5), Fraction(7)))
    assert g.num_edges == f.num_edges
    # rational rotation preserves exact squared lengths
    for k in range(f.num_edges):
        d1, d2 = _directions(f)[k], _directions(g)[k]
        assert sum(x * x for x in d1) == sum(x * x for x in d2)


def test_edge_geometry_is_kept_per_instance():
    # each derived framework computes its own geometry, even when the one
    # it came from has filled its cache already
    f = make_named("random3d", 2)
    assert f.direction_form is f.direction_form
    rot = [[Fraction(3, 5), Fraction(-4, 5), 0], [Fraction(4, 5), Fraction(3, 5), 0], [0, 0, 1]]
    for g in (f.with_flipped_edge(1), perturb(f, Fraction(1, 10), 3),
              f.transformed(rot, (Fraction(1), Fraction(2), Fraction(-1)))):
        assert all(type(x) is int for r in g.direction_form[0] for x in r)
        assert _directions(g) == [tuple(b - a for a, b in zip(g.positions[t], g.positions[h]))
                                  for t, h in g.edges]
