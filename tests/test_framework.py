"""Framework construction, validation, file I/O, and generators."""

from fractions import Fraction

import pytest

from framehom import (
    Framework,
    FrameworkError,
    format_framework,
    load_framework,
    make_desargues,
    make_named,
    parse_framework,
    perturb,
    save_framework,
)

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


def test_parse_four_dimensional_framework(tmp_path):
    text = "dim 4\nv 0 0 0 0 0\nv 1 1 0 0 1/2\ne 0 1\n"
    f = parse_framework(text)
    assert f.dim == 4
    assert f.edge_geometry(0).direction == (1, 0, 0, Fraction(1, 2))
    assert format_framework(f) == text


@pytest.mark.parametrize("literal", ["nan", "inf", "-inf"])
def test_float_mode_rejects_non_finite_coordinates(literal):
    text = f"dim 2\nv 0 0 0\nv 1 {literal} 0\nv 2 1 1\ne 0 1\ne 1 2\n"
    with pytest.raises(FrameworkError, match="vertex 1 has a non-finite coordinate"):
        parse_framework(text, mode="float")


def test_bad_literal_reports_line():
    with pytest.raises(FrameworkError, match="line 2"):
        parse_framework("dim 2\nv 0 zero 0\nv 1 1 0\ne 0 1\n")


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


def test_edge_geometry_consistency():
    f = make_desargues(Fraction(1, 2))
    for k in range(f.num_edges):
        g = f.edge_geometry(k)
        assert tuple(2 * x for x in g.half_lever) == tuple(g.direction)


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

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
    assert all(isinstance(x, Fraction) for p in f.positions for x in p)
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
        d1 = f.edge_geometry(k).direction
        d2 = g.edge_geometry(k).direction
        assert sum(x * x for x in d1) == sum(x * x for x in d2)


def test_edge_geometry_is_kept_per_instance():
    # each derived framework computes its own geometry, even when the one
    # it came from has filled its cache already
    f = make_named("random3d", 2)
    assert f.edge_geometry(0) is f.edge_geometry(0)
    rot = [[Fraction(3, 5), Fraction(-4, 5), 0], [Fraction(4, 5), Fraction(3, 5), 0], [0, 0, 1]]
    for g in (f.with_flipped_edge(1), perturb(f, Fraction(1, 10), 3),
              f.transformed(rot, (Fraction(1), Fraction(2), Fraction(-1)))):
        for k, (t, h) in enumerate(g.edges):
            d = tuple(a - b for a, b in zip(g.positions[h], g.positions[t]))
            geom = g.edge_geometry(k)
            assert geom.direction == d
            assert geom.half_lever == tuple(Fraction(x, 2) for x in d)
