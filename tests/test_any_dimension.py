"""The structural layer in any dimension n: exact LES and counting rules in R^4 and R^5.

These frames stay out of the shared corpus in ``conftest``: its invariance
criterion rotates in the plane or in space only, and float-mode theta is
not asserted here (exact mode is the oracle).
"""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framehom import Framework, counting_rules, verify_les, wedge
from framehom.framework import _random_framework
from framehom.linalg import MODE_EXACT
from framehom.structural import _transport, bivector_pairs, moment_dim

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
    # the lever delta / (2 den) with delta = 2 lever and den = 1
    t, (ints, den) = _transport(tuple(2 * x for x in lever), 1, MODE_EXACT)
    assert den == 2 and (ints == 2 * t).all()
    assert list(t @ ([0] * len(moment) + force)) == list(wedge(force, lever)) + force
    moved = t @ (moment + force)
    assert list(moved) == [m + c for m, c in zip(moment, wedge(force, lever))] + force


@settings(max_examples=80, deadline=None)
@given(couples)
def test_wedge_is_antisymmetric(case):
    a, b, _ = case
    assert wedge(a, b) == tuple(-x for x in wedge(b, a))
    assert wedge(a, a) == (0,) * moment_dim(len(a))
