"""The structural layer in any dimension n: exact LES and counting rules in R^4 and R^5.

These frames stay out of the shared corpus in ``conftest``: its invariance
criterion rotates in the plane or in space only, and float-mode theta is
not asserted here (exact mode is the oracle).
"""

import importlib.util
import itertools
import math
import operator
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import affine_dims_of_positions, build_corpus, grid, lattice, per_cell_map
from framehom import (
    Framework,
    build_anchored_cosheaf,
    build_moment_cosheaf,
    check_cosheaf_map,
    constant_cosheaf,
    counting_rules,
    verify_les,
    wedge,
)
from framehom.framework import _random_framework
from framehom.les import _LesContext
from framehom.linalg import MODE_EXACT, MODE_FLOAT, from_integer_form, zeros
from framehom.structural import _transport, bivector_pairs, couple_dim, moment_dim

ints = st.integers(-50, 50)


def simplex4():
    """The complete graph on the origin and the four unit points of R^4."""
    pts = [(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]
    positions = tuple(tuple(Fraction(x) for x in p) for p in pts)
    return Framework(4, positions, tuple(itertools.combinations(range(5), 2)))


def complete6_in_4d():
    """K6 on six general points of R^4: 15 bars against 4*6 - 10 = 14, one self-stress."""
    pts = [(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (1, 2, 3, 5)]
    positions = tuple(tuple(Fraction(x) for x in p) for p in pts)
    return Framework(4, positions, tuple(itertools.combinations(range(6), 2)))


# (dims F, dims M, dims N, rigid, mechanisms, rank phi1*, rank pi1*, rank theta, rank phi0*)
# For every connected frame with full affine span:
#   dims M = (k(|E|-|V|+1), k) with k = n(n+1)/2,
#   dims N = ((k-1)|E| - n(n-1)/2 |V|, 0), rigid = k.
FRAMES = {
    "simplex4": (simplex4, ((0, 10), (60, 10), (60, 0), 10, 0, 0, 60, 0, 10)),
    "k6-4d": (complete6_in_4d, ((1, 10), (100, 10), (99, 0), 10, 0, 1, 99, 0, 10)),
    "random4d-0": (lambda: _random_framework(4, 0, 8),
                   ((0, 23), (20, 10), (33, 0), 10, 13, 0, 20, 13, 10)),
    "random4d-1": (lambda: _random_framework(4, 1, 8),
                   ((0, 18), (10, 10), (18, 0), 10, 8, 0, 10, 8, 10)),
    "random5d-3": (lambda: _random_framework(5, 3, 8),
                   ((0, 23), (30, 15), (38, 0), 15, 8, 0, 30, 8, 15)),
}


def signature(r):
    return (r.dims_force, r.dims_moment, r.dims_anchored, r.rigid_dim, r.mech_dim,
            r.rank_phi1, r.rank_pi1, r.rank_theta, r.rank_phi0)


@pytest.mark.parametrize("label", sorted(FRAMES))
def test_exact_les_and_counting_rules_hold(label):
    build, expected = FRAMES[label]
    f = build()
    report = verify_les(f)
    assert signature(report) == expected
    assert [c.code for c in report.checks if not c.passed] == []
    assert len(report.checks) == 9
    rules = counting_rules(f)
    assert all(c.applicable and c.passed for c in rules), rules
    assert rules == report.counting


def test_anchored_count_note_names_the_general_formula():
    notes = {c.name: c.note for c in counting_rules(simplex4())}
    assert notes["anchored_stress_count"] == "9|E|-6|V|"
    assert notes["moment_circuit_rank"].startswith("10(|E|-|V|+1)")


def test_five_dimensional_frame_has_a_cycle():
    f = _random_framework(5, 3, 8)
    assert f.num_edges - f.num_vertices + 1 == 2


def _plane_rotation(n, i, j):
    """A rational rotation by the 3-4-5 angle in the (i, j) coordinate plane."""
    rot = [[Fraction(int(r == c)) for c in range(n)] for r in range(n)]
    rot[i][i], rot[i][j] = Fraction(3, 5), Fraction(-4, 5)
    rot[j][i], rot[j][j] = Fraction(4, 5), Fraction(3, 5)
    return rot


@pytest.mark.parametrize("label", ["simplex4", "random4d-1", "random5d-3"])
def test_results_are_invariant(label):
    build, expected = FRAMES[label]
    f = build()
    n = f.dim
    perm = list(range(f.num_vertices))
    random.Random(f"perm:{label}").shuffle(perm)
    offset = tuple(Fraction(c, 3) for c in (5, 7, -2, 4, 1)[:n])
    moved = (f.with_flipped_edge(f.num_edges - 1),
             f.with_vertex_permutation(perm),
             f.transformed(_plane_rotation(n, 1, n - 1), offset))
    for g in moved:
        report = verify_les(g)
        assert signature(report) == expected
        assert all(c.passed for c in report.checks)
        assert all(c.passed for c in report.counting)


def test_bivector_pairs_cover_each_coordinate_plane_once():
    assert bivector_pairs(2) == ((0, 1),)
    assert bivector_pairs(3) == ((1, 2), (2, 0), (0, 1))
    assert bivector_pairs(4) == ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
    for n in range(2, 7):
        pairs = bivector_pairs(n)
        assert len(pairs) == moment_dim(n) == n * (n - 1) // 2
        assert {frozenset(p) for p in pairs} == {frozenset(p) for p in
                                                 itertools.combinations(range(n), 2)}


couples = st.integers(2, 5).flatmap(lambda n: st.tuples(
    st.lists(ints, min_size=n, max_size=n),
    st.lists(ints, min_size=n, max_size=n),
    st.lists(ints, min_size=moment_dim(n), max_size=moment_dim(n))))


@settings(max_examples=80, deadline=None)
@given(couples)
def test_transport_adds_the_lever_moment(case):
    lever, force, moment = case
    # the lever delta / (2 den) with delta = 2 lever and den = 1: ints over 2
    ints = _transport(tuple(2 * x for x in lever), 1, MODE_EXACT)
    t = from_integer_form(ints, 2)
    assert (ints == 2 * t).all()
    assert list(t @ ([0] * len(moment) + force)) == list(wedge(force, lever)) + force
    moved = t @ (moment + force)
    assert list(moved) == [m + c for m, c in zip(moment, wedge(force, lever))] + force
    # the group law the gauge certificate of moment_rank rests on
    for den in (1, 3):
        a, b = _transport(tuple(lever), den, MODE_EXACT), _transport(tuple(force), den, MODE_EXACT)
        both = _transport(tuple(map(operator.add, lever, force)), den, MODE_EXACT)
        assert (a @ b).tolist() == (2 * den * both).tolist()


@settings(max_examples=80, deadline=None)
@given(couples)
def test_wedge_is_antisymmetric(case):
    a, b, _ = case
    assert wedge(a, b) == tuple(-x for x in wedge(b, a))
    assert wedge(a, a) == (0,) * moment_dim(len(a))


def _transport_as_before(delta, den, mode):
    """The matrix-writing transport that the int-row one replaced, kept as its
    oracle: zeros, 2 den stored on the diagonal, then one store per lever entry."""
    n = len(delta)
    w = moment_dim(n)
    out = zeros(w + n, w + n, mode)
    out[range(w + n), range(w + n)] = 2 * den
    for r, (i, j) in enumerate(bivector_pairs(n)):
        out[r, w + i] = delta[j]
        out[r, w + j] = -delta[i]
    return out


@settings(max_examples=80, deadline=None)
@given(st.integers(2, 5).flatmap(lambda n: st.lists(ints, min_size=n, max_size=n)),
       st.integers(1, 3))
def test_int_row_transport_equals_the_matrix_writer(delta, den):
    delta = tuple(delta)
    exact = _transport(delta, den, MODE_EXACT)
    assert exact.dtype == object
    assert all(type(x) is int for x in exact.ravel().tolist())
    assert exact.tolist() == _transport_as_before(delta, den, MODE_EXACT).tolist()
    floats = tuple(x / 7 for x in delta)
    got = _transport(floats, den, MODE_FLOAT)
    assert got.dtype == np.float64
    assert got.tolist() == _transport_as_before(floats, den, MODE_FLOAT).tolist()


@pytest.mark.parametrize("f", [grid(3).with_flipped_edge(0), lattice(2).with_flipped_edge(0)],
                         ids=["grid3", "lattice2"])
def test_moment_cosheaf_stores_one_matrix_per_signed_lever(f):
    # edge 0 reversed: the head map of its direction is the tail map of the
    # unreversed bars parallel to it
    m = build_moment_cosheaf(f)
    deltas, _ = f.direction_form
    assert any(tuple(-x for x in d) in deltas for d in deltas)
    stored = {}
    for d, tail, head in zip(deltas, m.tail_maps, m.head_maps):
        stored.setdefault(d, set()).add(id(head))
        stored.setdefault(tuple(-x for x in d), set()).add(id(tail))
    assert all(len(ids) == 1 for ids in stored.values())
    assert len(m.maps) == len({id(a) for a in m.tail_maps + m.head_maps}) == len(stored)


def moment_gauge(f):
    """The gauge from the constant cosheaf R^k onto the moment cosheaf of f:
    the couple transports T(p_v) on vertices and T(c_e), c_e the bar
    midpoint, on edges, as ``_transport`` of twice the lever over 2."""
    pos = f.positions
    return per_cell_map(
        constant_cosheaf(f, couple_dim(f.dim)), build_moment_cosheaf(f),
        tuple(_transport(tuple(2 * x for x in p), 1, f.mode) for p in pos),
        tuple(_transport(tuple(map(operator.add, pos[t], pos[h])), 1, f.mode)
              for t, h in f.edges),
        den=2)


GAUGE_FRAMES = dict(build_corpus()) | {label: build() for label, (build, _) in FRAMES.items()}


@pytest.mark.parametrize("label", GAUGE_FRAMES)
def test_moment_gauge_is_a_cosheaf_map(label):
    # the oracle of moment_rank's certificate: the explicit gauge commutes
    assert check_cosheaf_map(moment_gauge(GAUGE_FRAMES[label])).passed


# ---------------------------------------------------------------------------
# the anchored dims read off M's gauge, against B_N's elimination
# ---------------------------------------------------------------------------

def _load_make_corpus():
    path = Path(__file__).resolve().parents[1] / "scripts" / "make_corpus.py"
    spec = importlib.util.spec_from_file_location("make_corpus", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


LARGE_FRAMES = _load_make_corpus().large_frames()
ORACLE_FRAMES = GAUGE_FRAMES | {f"large-{k}": f for k, f in LARGE_FRAMES.items()}


def _anchored_dims(f):
    """The anchored dims the pipeline reads off the gauge, and those of B_N's elimination."""
    return _LesContext(f).dims[2], build_anchored_cosheaf(f).dims


@pytest.mark.parametrize("label", ORACLE_FRAMES)
def test_anchored_dims_from_the_gauge_match_the_elimination(label):
    got, want = _anchored_dims(ORACLE_FRAMES[label])
    assert got == want


def _frame(dim, points, edges):
    return Framework(dim, tuple(map(tuple, points)), tuple(edges))


# frames whose components span less than the whole space: H0(N) = sum_c C(n - a_c, 2)
DEGENERATE_FRAMES = {
    "collinear-path-3d": (LARGE_FRAMES["collinear-path-3d"], (4, 1)),
    "planar-k4-4d": (LARGE_FRAMES["planar-k4-4d"], (31, 1)),
    "collinear-path-4d": (_frame(4, [(0, 0, 0, 0), (1, 1, 0, 2), (3, 3, 0, 6)],
                                 [(0, 1), (1, 2)]), (3, 3)),
    "bar-beside-triangle-3d": (LARGE_FRAMES["two-components"], (6, 1)),
    "point-3d": (_frame(3, [(1, 2, 3)], []), (0, 3)),
    "three-points-2d": (_frame(2, [(0, 0), (1, 0), (0, 1)], []), (0, 3)),
    "simplex5": (_frame(5, [[0] * 5] + [[int(i == j) for j in range(5)] for i in range(5)],
                        itertools.combinations(range(6), 2)), (150, 0)),
}


@pytest.mark.parametrize("mode", [MODE_EXACT, MODE_FLOAT])
@pytest.mark.parametrize("label", DEGENERATE_FRAMES)
def test_anchored_dims_of_degenerate_frames(label, mode):
    f, want = DEGENERATE_FRAMES[label]
    assert _anchored_dims(f if mode == MODE_EXACT else f.as_float()) == (want, want)


AFFINE_FRAMES = ORACLE_FRAMES | {f"degenerate-{k}": f for k, (f, _) in DEGENERATE_FRAMES.items()}


@pytest.mark.parametrize("mode", [MODE_EXACT, MODE_FLOAT])
@pytest.mark.parametrize("label", AFFINE_FRAMES)
def test_affine_dims_off_the_bar_directions_match_the_positions(label, mode):
    # the make_corpus set (its top level is the conftest corpus), the frames
    # in R^4 and R^5, and the degenerate ones: the rank of each component's
    # distinct bar directions is the affine dimension of its points
    f = AFFINE_FRAMES[label]
    f = f if mode == MODE_EXACT else f.as_float()
    assert f.affine_dims == affine_dims_of_positions(f)


@st.composite
def flat_frames(draw):
    """Small integer frames in R^2 - R^5 with one to three components, each
    component's points drawn on a random point, line, plane or wider flat."""
    n = draw(st.integers(2, 5))
    small = st.integers(-3, 3)
    points, edges = [], []
    for _ in range(draw(st.integers(1, 3))):
        base = draw(st.tuples(*[small] * n))
        dirs = draw(st.lists(st.tuples(*[small] * n), max_size=n))
        pts = list(dict.fromkeys(
            tuple(b + sum(c * d[i] for c, d in zip(cs, dirs)) for i, b in enumerate(base))
            for cs in draw(st.lists(st.tuples(*[small] * len(dirs)), min_size=1, max_size=6))))
        first = len(points)
        points += pts
        tree = [(first + draw(st.integers(0, i - 1)), first + i) for i in range(1, len(pts))]
        extra = draw(st.lists(st.tuples(st.integers(0, len(pts) - 1),
                                        st.integers(0, len(pts) - 1)), max_size=4))
        chords = {(first + min(a, b), first + max(a, b)) for a, b in extra if a != b}
        edges += tree + sorted(chords - set(tree))
    return _frame(n, points, edges)


@settings(max_examples=60, deadline=None)
@given(flat_frames())
def test_anchored_dims_from_the_gauge_match_the_elimination_on_flat_frames(f):
    got, want = _anchored_dims(f)
    assert got == want
    assert f.affine_dims == affine_dims_of_positions(f)
    assert f.as_float().affine_dims == affine_dims_of_positions(f.as_float())
    assert got[1] == sum(math.comb(f.dim - a, 2) for a in f.affine_dims)
