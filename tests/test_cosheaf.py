"""Generic cosheaf machinery: boundary assembly, homology, maps, quotients."""

import random
from fractions import Fraction

import numpy as np
import pytest

from framehom import (
    Chain,
    CosheafMap,
    assemble_boundary,
    chain_pack,
    chain_unpack,
    check_cosheaf_map,
    constant_cosheaf,
    homology,
    make_desargues,
    make_named,
    parse_framework,
    quotient_cosheaf,
)
from framehom.cosheaf import Cosheaf
from framehom.linalg import exact_matrix, identity, rank, zeros
from framehom.structural import build_force_cosheaf, build_moment_cosheaf, build_phi


def classical_betti(f):
    """Independent oracle: b0 by graph search, b1 by the Euler formula."""
    seen = set()
    adj = {i: [] for i in range(f.num_vertices)}
    for t, h in f.edges:
        adj[t].append(h)
        adj[h].append(t)
    b0 = 0
    for start in range(f.num_vertices):
        if start in seen:
            continue
        b0 += 1
        stack = [start]
        seen.add(start)
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
    b1 = f.num_edges - f.num_vertices + b0
    return b0, b1


def test_single_bar_force_boundary_column():
    f = make_named("bar")
    b = assemble_boundary(build_force_cosheaf(f))
    assert b.shape == (4, 1)
    # tail vertex 0 gets -direction, head vertex 1 gets +direction
    assert [x for x in b[:, 0]] == [-1, 0, 1, 0]


def test_boundary_assembly_is_deterministic():
    f = make_desargues(Fraction(1, 2))
    k = build_moment_cosheaf(f)
    b1 = assemble_boundary(k)
    b2 = assemble_boundary(k)
    assert (b1 == b2).all()


def test_moment_boundary_rank_on_square():
    b = assemble_boundary(build_moment_cosheaf(make_named("square")))
    assert b.shape == (12, 12)
    assert rank(b) == 9


def test_constant_cosheaf_is_signed_incidence():
    f = make_named("triangle")
    b = assemble_boundary(constant_cosheaf(f))
    expected = exact_matrix([
        [-1, 0, 1],
        [1, -1, 0],
        [0, 1, -1],
    ])
    assert (b == expected).all()


@pytest.mark.parametrize("name", ["triangle", "square", "box3d"])
def test_constant_cosheaf_homology_equals_betti(name):
    f = make_named(name)
    h = homology(constant_cosheaf(f))
    b0, b1 = classical_betti(f)
    assert (h.dim_h0, h.dim_h1) == (b0, b1)


def test_constant_cosheaf_on_disconnected_graph():
    f = parse_framework("dim 2\nv 0 0 0\nv 1 1 0\nv 2 5 5\nv 3 6 5\ne 0 1\ne 2 3\n")
    h = homology(constant_cosheaf(f))
    assert (h.dim_h0, h.dim_h1) == (2, 0)


def test_homology_result_invariants():
    f = make_desargues(Fraction(1, 2))
    k = build_force_cosheaf(f)
    b = assemble_boundary(k)
    h = homology(k)
    for v in h.h1.vectors:
        assert all(x == 0 for x in b @ v)
    for v in h.h0.vectors:
        assert all(x == 0 for x in b.T @ v)


@pytest.mark.parametrize("name", ["bar", "triangle", "square", "box3d"])
def test_euler_characteristic_identity(name):
    f = make_named(name)
    for k in (build_force_cosheaf(f), build_moment_cosheaf(f), constant_cosheaf(f)):
        h = homology(k)
        assert k.c0_dim - k.c1_dim == h.dim_h0 - h.dim_h1


# ---------------------------------------------------------------------------
# chains
# ---------------------------------------------------------------------------

def test_chain_pack_unpack_roundtrip():
    f = make_named("square")
    k = build_moment_cosheaf(f)
    flat = np.array([Fraction(i, 3) for i in range(k.c1_dim)], dtype=object)
    chain = chain_unpack(k, 1, flat)
    assert len(chain.components) == f.num_edges
    again = chain_pack(k, chain)
    assert (again == flat).all()


def test_unit_chain_boundary_matches_column():
    f = make_named("square")
    k = build_moment_cosheaf(f)
    b = assemble_boundary(k)
    comps = [[0] * d for d in k.edge_dims]
    comps[0][0] = 1  # unit moment at edge 0
    flat = chain_pack(k, Chain(1, tuple(tuple(c) for c in comps)))
    assert (b @ flat == b[:, 0]).all()


def test_chain_dimension_mismatch():
    k = build_force_cosheaf(make_named("bar"))
    with pytest.raises(ValueError):
        chain_pack(k, Chain(1, ((1, 2),)))
    with pytest.raises(ValueError):
        chain_unpack(k, 0, np.array([1, 2, 3], dtype=object))


# ---------------------------------------------------------------------------
# cosheaf maps
# ---------------------------------------------------------------------------

def test_identity_map_commutes():
    f = make_named("square")
    k = build_force_cosheaf(f)
    ident = CosheafMap(
        source=k, target=k,
        vertex_maps=tuple(identity(d, f.mode) for d in k.vertex_dims),
        edge_maps=tuple(identity(d, f.mode) for d in k.edge_dims))
    assert check_cosheaf_map(ident).passed


def test_corrupted_lever_sign_fails_at_that_incidence():
    # flipping the lever sign in one moment stalk map is invisible to the
    # axial embedding (the bar direction wedges to zero against any lever
    # along the bar) but breaks the projection map, whose edge stalks carry
    # transverse shear
    f = make_named("square")
    phi = build_phi(f)
    assert check_cosheaf_map(phi).passed
    q = quotient_cosheaf(phi)
    moment = phi.target
    bad_map = moment.head_maps[2].copy()
    bad_map[0, 1] = -bad_map[0, 1]
    bad_map[0, 2] = -bad_map[0, 2]
    heads = list(moment.head_maps)
    heads[2] = bad_map
    corrupted = Cosheaf(
        base=f, vertex_dims=moment.vertex_dims, edge_dims=moment.edge_dims,
        tail_maps=moment.tail_maps, head_maps=tuple(heads))
    bad_phi = CosheafMap(source=phi.source, target=corrupted,
                         vertex_maps=phi.vertex_maps, edge_maps=phi.edge_maps)
    assert check_cosheaf_map(bad_phi).passed  # axial forces cannot see it
    bad_pi = CosheafMap(source=corrupted, target=q.cosheaf,
                        vertex_maps=q.projection.vertex_maps,
                        edge_maps=q.projection.edge_maps)
    chk = check_cosheaf_map(bad_pi)
    assert not chk.passed
    assert [(e, v) for e, v, _ in chk.failures] == [(2, f.edges[2][1])]


def test_map_shape_validation():
    f = make_named("bar")
    k = build_force_cosheaf(f)
    with pytest.raises(ValueError):
        CosheafMap(source=k, target=k,
                   vertex_maps=(identity(2, f.mode),) * 2,
                   edge_maps=(identity(2, f.mode),))


@pytest.mark.parametrize("ncols", [0, 1, 3])
def test_apply_on_stacked_chains_matches_block_products(ncols):
    # phi changes every stalk dimension (2 -> 3 at vertices, 1 -> 3 on
    # edges), so source and target blocks start at different offsets
    f = make_named("triangle")
    phi = build_phi(f)
    rng = random.Random(ncols)
    for maps, apply in ((phi.vertex_maps, phi.apply_c0), (phi.edge_maps, phi.apply_c1)):
        n = sum(m.shape[1] for m in maps)
        x = exact_matrix([[Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                           for _ in range(ncols)] for _ in range(n)], ncols)
        # reference: each column, block by block
        want = []
        for j in range(ncols):
            col, pos = [], 0
            for m in maps:
                col.extend(m @ x[pos:pos + m.shape[1], j])
                pos += m.shape[1]
            want.append(col)
        got = apply(x)
        assert got.shape == (sum(m.shape[0] for m in maps), ncols)
        assert [list(got[:, j]) for j in range(ncols)] == want
        for j in range(ncols):
            assert list(apply(x[:, j])) == want[j]


# ---------------------------------------------------------------------------
# quotients
# ---------------------------------------------------------------------------

def zero_cosheaf(f):
    return Cosheaf(
        base=f,
        vertex_dims=(0,) * f.num_vertices,
        edge_dims=(0,) * f.num_edges,
        tail_maps=tuple(zeros(0, 0, f.mode) for _ in f.edges),
        head_maps=tuple(zeros(0, 0, f.mode) for _ in f.edges))


def test_quotient_by_zero_is_identity():
    f = make_named("square")
    moment = build_moment_cosheaf(f)
    z = zero_cosheaf(f)
    emb = CosheafMap(
        source=z, target=moment,
        vertex_maps=tuple(zeros(d, 0, f.mode) for d in moment.vertex_dims),
        edge_maps=tuple(zeros(d, 0, f.mode) for d in moment.edge_dims))
    q = quotient_cosheaf(emb)
    assert q.cosheaf.vertex_dims == moment.vertex_dims
    assert q.cosheaf.edge_dims == moment.edge_dims
    for pm in q.projection.vertex_maps + q.projection.edge_maps:
        assert (pm == identity(pm.shape[0], f.mode)).all()
    h1 = homology(q.cosheaf)
    h2 = homology(moment)
    assert h1.dims == h2.dims


@pytest.mark.parametrize("name,edims,vdims", [("square", 2, 1), ("box3d", 5, 3)])
def test_anchored_quotient_stalk_dims(name, edims, vdims):
    f = make_named(name)
    q = quotient_cosheaf(build_phi(f))
    assert set(q.cosheaf.edge_dims) == {edims}
    assert set(q.cosheaf.vertex_dims) == {vdims}


def test_quotient_stalkwise_exactness():
    f = make_desargues(Fraction(1, 2))
    phi = build_phi(f)
    q = quotient_cosheaf(phi)
    for v in range(f.num_vertices):
        stacked = np.hstack([phi.vertex_maps[v], q.vertex_sections[v]])
        assert rank(stacked) == phi.target.vertex_dims[v]
        prod = q.projection.vertex_maps[v] @ phi.vertex_maps[v]
        assert all(x == 0 for x in prod.flat)
    for e in range(f.num_edges):
        stacked = np.hstack([phi.edge_maps[e], q.edge_sections[e]])
        assert rank(stacked) == phi.target.edge_dims[e]
        prod = q.projection.edge_maps[e] @ phi.edge_maps[e]
        assert all(x == 0 for x in prod.flat)


def test_quotient_projection_commutes():
    f = make_named("box3d")
    q = quotient_cosheaf(build_phi(f))
    assert check_cosheaf_map(q.projection).passed


def test_quotient_rejects_non_injective_map():
    f = make_named("bar")
    k = build_force_cosheaf(f)
    collapse = CosheafMap(
        source=k, target=k,
        vertex_maps=tuple(zeros(2, 2, f.mode) for _ in range(2)),
        edge_maps=tuple(zeros(1, 1, f.mode) for _ in range(1)))
    with pytest.raises(ValueError, match="not injective"):
        quotient_cosheaf(collapse)


def _random_invertible(n, rng):
    while True:
        m = exact_matrix([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
        if rank(m) == n:
            return m


def test_quotient_homology_invariant_under_stalk_change_of_basis():
    # conjugating the target by invertible stalk matrices is a cosheaf
    # isomorphism, so the quotient homology dimensions cannot move
    f = make_named("square")
    phi = build_phi(f)
    rng = random.Random(99)
    moment = phi.target
    t_v = [_random_invertible(d, rng) for d in moment.vertex_dims]
    t_e = [_random_invertible(d, rng) for d in moment.edge_dims]
    from framehom.linalg import solve_in_image
    inv_e = [solve_in_image(t, identity(t.shape[0], f.mode)) for t in t_e]
    tails = tuple(t_v[t] @ moment.tail_maps[e] @ inv_e[e]
                  for e, (t, h) in enumerate(f.edges))
    heads = tuple(t_v[h] @ moment.head_maps[e] @ inv_e[e]
                  for e, (t, h) in enumerate(f.edges))
    twisted = Cosheaf(base=f, vertex_dims=moment.vertex_dims,
                      edge_dims=moment.edge_dims, tail_maps=tails, head_maps=heads)
    twisted_phi = CosheafMap(
        source=phi.source, target=twisted,
        vertex_maps=tuple(t_v[v] @ phi.vertex_maps[v] for v in range(f.num_vertices)),
        edge_maps=tuple(t_e[e] @ phi.edge_maps[e] for e in range(f.num_edges)))
    assert check_cosheaf_map(twisted_phi).passed
    q0 = quotient_cosheaf(phi)
    q1 = quotient_cosheaf(twisted_phi)
    assert homology(q0.cosheaf).dims == homology(q1.cosheaf).dims
