"""Structural cosheaves: wedge algebra, stalk maps, golden homology tables."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framehom import (
    assemble_boundary,
    build_anchored_cosheaf,
    build_force_cosheaf,
    build_moment_cosheaf,
    build_phi,
    check_cosheaf_map,
    make_desargues,
    make_named,
    quotient_cosheaf,
    rigid_body_space,
    wedge,
)
from framehom.framework import Framework
from framehom.linalg import rank, subspace_contains

ints = st.integers(-50, 50)


def test_wedge_unit_square_orientation():
    assert wedge((1, 0), (0, 1)) == (1,)
    assert wedge((0, 1), (1, 0)) == (-1,)


@settings(max_examples=80, deadline=None)
@given(st.tuples(ints, ints), st.tuples(ints, ints))
def test_wedge_antisymmetry_2d(a, b):
    assert wedge(a, b) == tuple(-x for x in wedge(b, a))
    assert wedge(a, a) == (0,)


@settings(max_examples=80, deadline=None)
@given(st.tuples(ints, ints, ints), st.tuples(ints, ints, ints))
def test_wedge_3d_matches_cross_product(a, b):
    assert wedge(a, b) == tuple(np.cross(a, b))
    assert wedge(a, a) == (0, 0, 0)


def test_wedge_dimension_mismatch():
    with pytest.raises(ValueError):
        wedge((1, 0), (1, 0, 0))


# ---------------------------------------------------------------------------
# stalk maps
# ---------------------------------------------------------------------------

def horizontal_edge():
    return Framework(2, ((Fraction(0), Fraction(0)), (Fraction(2), Fraction(0))),
                     ((0, 1),))


def test_force_stalk_map_is_bar_direction():
    f = make_named("bar")
    k = build_force_cosheaf(f)
    assert [x for x in k.stalk_map(0, 0)[:, 0]] == [1, 0]
    assert [x for x in k.stalk_map(0, 1)[:, 0]] == [1, 0]
    assert k.vertex_dims == (2, 2)
    assert k.edge_dims == (1,)


def test_moment_transport_shear_on_horizontal_edge():
    # unit shear at the center of the edge (0,0)->(2,0): the half lever is
    # (1,0), so the moment landing at the head is wedge((0,1),(1,0)) = -1
    # and at the tail, with lever (-1,0), +1
    f = horizontal_edge()
    k = build_moment_cosheaf(f)
    shear = np.array([0, 0, 1], dtype=object)
    at_head = k.stalk_map(0, 1) @ shear
    at_tail = k.stalk_map(0, 0) @ shear
    assert [x for x in at_head] == [-1, 0, 1]
    assert [x for x in at_tail] == [1, 0, 1]
    assert at_head[0] == wedge((0, 1), (1, 0))[0]


def test_moment_transport_axial_and_pure_moment():
    f = horizontal_edge()
    k = build_moment_cosheaf(f)
    axial = np.array([0, 1, 0], dtype=object)
    assert [x for x in k.stalk_map(0, 1) @ axial] == [0, 1, 0]
    pure = np.array([1, 0, 0], dtype=object)
    assert [x for x in k.stalk_map(0, 1) @ pure] == [1, 0, 0]
    assert [x for x in k.stalk_map(0, 0) @ pure] == [1, 0, 0]


def test_moment_transport_endpoint_matrix_form():
    # explicit endpoint matrices for the horizontal edge with unit half
    # lever, basis order (M, Fx, Fy)
    f = horizontal_edge()
    k = build_moment_cosheaf(f)
    head = [[1, 0, -1], [0, 1, 0], [0, 0, 1]]
    tail = [[1, 0, 1], [0, 1, 0], [0, 0, 1]]
    assert [[x for x in row] for row in k.stalk_map(0, 1)] == head
    assert [[x for x in row] for row in k.stalk_map(0, 0)] == tail


def test_moment_stalk_dims_3d():
    k = build_moment_cosheaf(make_named("box3d"))
    assert set(k.vertex_dims) == {6}
    assert set(k.edge_dims) == {6}


def test_moment_transport_3d_shear():
    f = Framework(3, ((Fraction(0),) * 3, (Fraction(2), Fraction(0), Fraction(0))),
                  ((0, 1),))
    k = build_moment_cosheaf(f)
    # unit z-force at the center, half lever (1,0,0): moment = F ^ lever =
    # cross((0,0,1),(1,0,0)) = (0,1,0)
    shear = np.array([0, 0, 0, 0, 0, 1], dtype=object)
    out = k.stalk_map(0, 1) @ shear
    assert [x for x in out] == [0, 1, 0, 0, 0, 1]


# ---------------------------------------------------------------------------
# the embedding and the quotient
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ["bar", "triangle", "square", "box3d"])
def test_phi_commutes_and_is_injective(name):
    f = make_named(name)
    phi = build_phi(f)
    assert check_cosheaf_map(phi).passed
    for m in phi.vertex_maps:
        assert rank(m) == m.shape[1]
    for m in phi.edge_maps:
        assert rank(m) == m.shape[1]


@pytest.mark.parametrize("name", ["square", "box3d"])
def test_pi_commutes_and_kills_phi(name):
    f = make_named(name)
    phi = build_phi(f)
    pi = quotient_cosheaf(phi)[1]
    assert check_cosheaf_map(pi).passed
    for v in range(f.num_vertices):
        prod = pi.vertex_maps[v] @ phi.vertex_maps[v]
        assert all(x == 0 for x in prod.flat)
    for e in range(f.num_edges):
        prod = pi.edge_maps[e] @ phi.edge_maps[e]
        assert all(x == 0 for x in prod.flat)


@pytest.mark.parametrize("name", ["bar", "triangle", "square", "box3d"])
def test_stalk_dimension_decomposition(name):
    f = make_named(name)
    force = build_force_cosheaf(f)
    moment = build_moment_cosheaf(f)
    anch = build_anchored_cosheaf(f)
    for v in range(f.num_vertices):
        assert moment.vertex_dims[v] == force.vertex_dims[v] + anch.vertex_dims[v]
    for e in range(f.num_edges):
        assert moment.edge_dims[e] == force.edge_dims[e] + anch.edge_dims[e]


# ---------------------------------------------------------------------------
# golden homology tables
# ---------------------------------------------------------------------------

GOLDEN_DIMS = {
    # name -> ((h1 force, h0 force), (h1 moment, h0 moment), (h1 anchored, h0 anchored))
    "bar": ((0, 3), (0, 3), (0, 0)),
    "triangle": ((0, 3), (3, 3), (3, 0)),
    "square": ((0, 4), (3, 3), (4, 0)),
    "box3d": ((0, 12), (30, 6), (36, 0)),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_DIMS))
def test_golden_dims_named(name):
    f = make_named(name)
    expected_f, expected_m, expected_n = GOLDEN_DIMS[name]
    assert build_force_cosheaf(f).dims == expected_f
    assert build_moment_cosheaf(f).dims == expected_m
    assert build_anchored_cosheaf(f).dims == expected_n


def test_golden_dims_desargues():
    f = make_desargues(Fraction(1, 2))
    assert build_force_cosheaf(f).dims == (1, 4)
    assert build_moment_cosheaf(f).dims == (12, 3)
    assert build_anchored_cosheaf(f).dims == (12, 0)
    assert rank(assemble_boundary(build_force_cosheaf(f))) == 8


def test_desargues_translation_invariance():
    f = make_desargues(Fraction(1, 2))
    ident = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
    g = f.transformed(ident, (Fraction(5), Fraction(7)))
    assert build_force_cosheaf(g).dims == (1, 4)


def test_desargues_broken_concurrency_loses_the_stress():
    f = make_desargues(Fraction(1, 2))
    pos = list(f.positions)
    pos[0] = (Fraction(1, 10), Fraction(4))  # outer corner leaves the pencil
    g = Framework(2, tuple(pos), f.edges)
    assert build_force_cosheaf(g).dims == (0, 3)


def test_moment_homology_matches_circuit_rank_on_randoms():
    for seed in range(4):
        f = make_named("random2d", seed)
        circuit = f.num_edges - f.num_vertices + 1
        assert build_moment_cosheaf(f).dims == (3 * circuit, 3)
    for seed in range(4):
        f = make_named("random3d", seed)
        circuit = f.num_edges - f.num_vertices + 1
        assert build_moment_cosheaf(f).dims == (6 * circuit, 6)


def test_force_self_stress_equilibrates_each_vertex():
    # independent restatement without the boundary matrix: at every vertex
    # the signed sum of axial force times bar direction vanishes
    f = make_desargues(Fraction(1, 2))
    h = build_force_cosheaf(f)
    assert h.dims[0] == 1
    w = h.h1[0]
    rows, _ = f.direction_form   # directions times one D, which the zero sums ignore
    for v in range(f.num_vertices):
        total = [Fraction(0)] * 2
        for e, (t, hd) in enumerate(f.edges):
            d = rows[e]
            if hd == v:
                total = [a + w[e] * x for a, x in zip(total, d)]
            elif t == v:
                total = [a - w[e] * x for a, x in zip(total, d)]
        assert total == [0, 0]


# ---------------------------------------------------------------------------
# rigid-body space
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name,dim", [("bar", 3), ("triangle", 3), ("square", 3),
                                      ("box3d", 6)])
def test_rigid_body_dimension(name, dim):
    assert len(rigid_body_space(make_named(name))) == dim


def test_rigid_body_space_annihilates_rigidity_matrix():
    f = make_named("box3d")
    b = assemble_boundary(build_force_cosheaf(f))
    r = rigid_body_space(f)
    for v in r:
        assert all(x == 0 for x in b.T @ v)


def test_rigid_body_space_inside_h0():
    f = make_desargues(Fraction(1, 2))
    h = build_force_cosheaf(f)
    assert subspace_contains(h.h0, rigid_body_space(f))


def test_rigid_body_space_needs_connectivity():
    from framehom import parse_framework
    f = parse_framework("dim 2\nv 0 0 0\nv 1 1 0\nv 2 5 5\nv 3 6 5\ne 0 1\ne 2 3\n")
    with pytest.raises(ValueError, match="connected"):
        rigid_body_space(f)
