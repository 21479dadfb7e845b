"""Generic cosheaf machinery: boundary assembly, homology, maps, quotients."""

import dataclasses
import math
import random
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import block_boundary, exact_matrix, grid, per_cell_cosheaf, per_cell_map
from framehom import (
    CosheafMap,
    Framework,
    assemble_boundary,
    check_cosheaf_map,
    constant_cosheaf,
    make_desargues,
    make_named,
    parse_framework,
    perturb,
    quotient_cosheaf,
    verify_les,
)
from framehom import cosheaf, les, linalg, structural
from framehom.cosheaf import Cosheaf, _stalk_section, boundary_rows
from framehom.les import _LesContext
from framehom.linalg import (
    Reduction,
    from_integer_form,
    identity,
    kernel_basis,
    rank,
    solve_in_image,
    zeros,
)
from framehom.structural import (
    build_anchored_cosheaf,
    build_force_cosheaf,
    build_moment_cosheaf,
    build_phi,
    bivector_pairs,
    moment_dim,
)


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
    h = constant_cosheaf(f)
    b0, b1 = classical_betti(f)
    assert (h.dims[1], h.dims[0]) == (b0, b1)


def test_constant_cosheaf_on_disconnected_graph():
    f = parse_framework("dim 2\nv 0 0 0\nv 1 1 0\nv 2 5 5\nv 3 6 5\ne 0 1\ne 2 3\n")
    h = constant_cosheaf(f)
    assert (h.dims[1], h.dims[0]) == (2, 0)


def test_homology_result_invariants():
    f = make_desargues(Fraction(1, 2))
    k = build_force_cosheaf(f)
    b = assemble_boundary(k)
    for v in k.h1:
        assert all(x == 0 for x in b @ v)
    for v in k.h0:
        assert all(x == 0 for x in b.T @ v)


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_boundary_rows_are_the_rows_of_the_dense_boundary(corpus, mode):
    # every other edge flipped, so head and tail blocks trade signs; the dense
    # boundary is the block matrix, its rows those of d B, d the lcm of B's
    # denominators (1 in float mode), an exact reduction's pivot columns the
    # rows of d B^T at B's pivots, and the homology read off them is the one
    # read off the dense matrix
    for label, f in corpus:
        for e in range(0, f.num_edges, 2):
            f = f.with_flipped_edge(e)
        if mode == "float":
            f = f.as_float()
        cosheaves = (build_force_cosheaf(f), build_moment_cosheaf(f),
                     build_anchored_cosheaf(f), constant_cosheaf(f))
        for k in cosheaves:
            b = block_boundary(k)
            assert np.array_equal(assemble_boundary(k), b), label
            d = math.lcm(*(x.denominator for x in b.ravel())) if mode == "exact" else 1
            rows = boundary_rows(k)
            assert rows == [{j: d * x for j, x in enumerate(r) if x} for r in b.tolist()], label
            if mode == "exact":
                assert all(type(x) is int for row in rows for x in row.values()), label
                cols = k._reduction.pivot_columns()
                bt = b.T.tolist()
                assert cols == [{i: d * x for i, x in enumerate(bt[c]) if x}
                                for c in k._reduction.pivots], label
                assert all(type(x) is int for col in cols for x in col.values()), label
            assert np.array_equal(k.h1, kernel_basis(b)), label
            assert np.array_equal(k.h0, kernel_basis(b.T.copy())), label


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_exact_h0_reduces_only_the_independent_rows_of_the_transpose(monkeypatch, mode):
    # exact h0 hands the elimination the rank B rows of B^T at B's pivot
    # columns, which span its row space; float h0 keeps the SVD of all of B^T
    f = grid(3) if mode == "exact" else grid(3).as_float()
    echelon, svd = linalg._echelon, np.linalg.svd
    for k in (build_force_cosheaf(f), build_moment_cosheaf(f), build_anchored_cosheaf(f)):
        r = k._reduction.rank
        seen = []
        with monkeypatch.context() as m:
            m.setattr(linalg, "_echelon", lambda *args: seen.append(len(args[0])) or echelon(*args))
            m.setattr(np.linalg, "svd", lambda a, **kw: seen.append(a.shape[0]) or svd(a, **kw))
            h0 = k.h0
        assert seen == [r if mode == "exact" else k.c1_dim]
        assert len(h0) == k.c0_dim - r
        assert np.array_equal(h0, kernel_basis(assemble_boundary(k).T.copy()))


def test_integer_forms_put_every_stalk_map_over_one_denominator():
    # the anchored stalk maps of a perturbed Desargues frame have many denominators;
    # handed in as rationals over 1, they are stored as integers over their lcm
    f = perturb(make_desargues(Fraction(1, 2)), Fraction(1, 100), 4)
    anch = build_anchored_cosheaf(f)
    table = tuple(from_integer_form(m, anch.den) for m in anch.maps)
    dens = {math.lcm(*(x.denominator for x in m.ravel().tolist())) for m in table}
    assert len(dens) > 1
    k = Cosheaf(base=f, vertex_dim=anch.vertex_dim, edge_dim=anch.edge_dim,
                maps=table, tail_slots=anch.tail_slots, head_slots=anch.head_slots)
    d = k.den
    assert d == math.lcm(*dens)
    assert len(k.maps) == len(table)
    slots, stored = k.tail_slots + k.head_slots, k.tail_maps + k.head_maps
    for s, ints in zip(slots, stored, strict=True):
        assert all(type(x) is int for x in ints.ravel().tolist())
        assert np.array_equal(ints, table[s] * d)
    assert [[a is b for b in stored] for a in stored] == [[s == t for t in slots] for s in slots]


def _stalk_maps_as_before(f):
    """The force, moment and phi stalk maps built from Fraction or float
    directions: columns of the direction, and transports that are the
    identity plus the half lever (halved as floats in float mode).  Edge
    ends with equal levers share the first matrix made, as in ``structural``,
    so a float lever's -0.0 entries go where theirs do."""
    n, w = f.dim, moment_dim(f.dim)
    cols, transports, emaps, shared = [], [], [], {}
    for t, h in f.edges:
        d = tuple(f.positions[h][i] - f.positions[t][i] for i in range(n))
        half = [x / 2.0 for x in d] if f.mode == "float" else [Fraction(x, 2) for x in d]
        for lever in (half, [-x for x in half]):  # head, then tail
            out = identity(w + n, f.mode)
            for r, (i, j) in enumerate(bivector_pairs(n)):
                out[r, w + i] = lever[j]
                out[r, w + j] = -lever[i]
            transports.append(shared.setdefault(("lever",) + tuple(lever), out))
        col = zeros(w + n, 1, f.mode)
        col[w:, 0] = d
        cols.append(shared.setdefault(("force",) + d, col[w:]))
        emaps.append(shared.setdefault(("phi",) + d, col))
    return cols, transports, emaps


def _same_entries(got, want):
    """Equal matrices: bit for bit in float mode, equal values of the same
    type (int where integral, Fraction otherwise) in exact mode."""
    assert got.dtype == want.dtype and got.shape == want.shape
    if got.dtype != object:
        return got.tobytes() == want.tobytes()
    return all(x == y and type(x) is (int if Fraction(y).denominator == 1 else Fraction)
               for x, y in zip(got.ravel().tolist(), want.ravel().tolist()))


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_stored_stalk_maps_are_integers_in_lowest_terms(corpus, mode):
    # every cosheaf and map of the pipeline stores its matrices once, as ints over
    # one den with no common factor (floats over 1), and reads back the stalk
    # maps built from Fraction or float directions
    perturbed = [(f"{name}-perturbed", perturb(f, Fraction(1, 100), 1)) for name, f in
                 (("desargues", make_desargues(Fraction(1, 2))), ("box3d", make_named("box3d")))]
    for label, f in corpus + perturbed:
        f = f if mode == "exact" else f.as_float()
        phi = build_phi(f)
        _, pi, section = quotient_cosheaf(phi)
        stored = ([(k, k.tail_maps + k.head_maps) for k in (phi.source, phi.target, pi.target)]
                  + [(m, m.vertex_maps + m.edge_maps) for m in (phi, pi, section)])
        for obj, mats in stored:
            entries = [x for a in mats for x in a.ravel().tolist()]
            if mode == "float":
                assert obj.den == 1, label
            else:
                assert all(type(x) is int for x in entries), label
                assert math.gcd(obj.den, *entries) == 1, label
        cols, transports, emaps = _stalk_maps_as_before(f)
        force, moment = phi.source, phi.target
        heads_tails = [moment.stalk_map(e, v) for e, (t, h) in enumerate(f.edges) for v in (h, t)]
        got_maps = ([force.stalk_map(e, h) for e, (t, h) in enumerate(f.edges)]
                    + [force.stalk_map(e, t) for e, (t, h) in enumerate(f.edges)]
                    + heads_tails + [from_integer_form(m, phi.den) for m in phi.edge_maps])
        for got, want in zip(got_maps, cols + cols + transports + emaps, strict=True):
            assert _same_entries(got, want), label


def test_the_pipeline_writes_no_rational_stalk_map(monkeypatch):
    # the structural and quotient cosheaves and maps are built and stored as
    # integers: no from_integer_form call divides by a den other than 1
    calls = []
    original = linalg.from_integer_form

    def recording(ints, den):
        if den != 1:
            calls.append(ints.shape)
        return original(ints, den)

    for module in (linalg, cosheaf, structural, les):
        if getattr(module, "from_integer_form", None) is original:
            monkeypatch.setattr(module, "from_integer_form", recording)
    for f in (perturb(make_desargues(Fraction(1, 2)), Fraction(1, 100), 1), grid(3).as_float()):
        _LesContext(f)
    assert calls == []
    _LesContext(grid(3)).moment.stalk_map(0, 0)  # the rational view does go through it
    assert calls


@pytest.mark.parametrize("name", ["bar", "triangle", "square", "box3d"])
def test_euler_characteristic_identity(name):
    f = make_named(name)
    for k in (build_force_cosheaf(f), build_moment_cosheaf(f), constant_cosheaf(f)):
        assert k.c0_dim - k.c1_dim == k.dims[1] - k.dims[0]


# ---------------------------------------------------------------------------
# chains
# ---------------------------------------------------------------------------

def test_unit_chain_boundary_matches_column():
    # a unit moment on edge 0 has boundary +head map column at the head
    # vertex block, -tail map column at the tail block, zero elsewhere
    f = make_named("square")
    k = build_moment_cosheaf(f)
    b = assemble_boundary(k)
    unit = np.zeros(k.c1_dim, dtype=object)
    unit[0] = 1
    t, h = f.edges[0]
    want = [0] * k.c0_dim
    for v, m, sign in ((h, k.stalk_map(0, h), 1), (t, k.stalk_map(0, t), -1)):
        for i in range(k.vertex_dim):
            want[v * k.vertex_dim + i] = sign * m[i, 0]
    assert list(b @ unit) == want


# ---------------------------------------------------------------------------
# cosheaf maps
# ---------------------------------------------------------------------------

def test_identity_map_commutes():
    f = make_named("square")
    k = build_force_cosheaf(f)
    ident = per_cell_map(k, k, tuple(identity(k.vertex_dim, f.mode) for _ in f.positions),
                         tuple(identity(k.edge_dim, f.mode) for _ in f.edges))
    assert check_cosheaf_map(ident).passed


def _lever_sign_flipped(moment, *edges, side="head_maps"):
    """``moment`` with the lever sign flipped in the ``side`` ("head_maps" or
    "tail_maps") stalk map of each of ``edges``, each flipped map a new object."""
    cells = {"tail_maps": list(moment.tail_maps), "head_maps": list(moment.head_maps)}
    maps = cells[side]
    for e in edges:
        maps[e] = maps[e].copy()
        maps[e][0, 1:3] = -maps[e][0, 1:3]
    return per_cell_cosheaf(moment.base, moment.vertex_dim, moment.edge_dim,
                            cells["tail_maps"], cells["head_maps"], den=moment.den)


def test_corrupted_lever_sign_fails_at_that_incidence():
    # flipping the lever sign in one moment stalk map is invisible to the
    # axial embedding (the bar direction wedges to zero against any lever
    # along the bar) but breaks the projection map, whose edge stalks carry
    # transverse shear
    f = make_named("square")
    phi = build_phi(f)
    assert check_cosheaf_map(phi).passed
    pi = quotient_cosheaf(phi)[1]
    corrupted = _lever_sign_flipped(phi.target, 2)
    bad_phi = dataclasses.replace(phi, target=corrupted)
    assert check_cosheaf_map(bad_phi).passed  # axial forces cannot see it
    bad_pi = dataclasses.replace(pi, source=corrupted)
    chk = check_cosheaf_map(bad_pi)
    assert not chk.passed
    assert [(e, v) for e, v, _ in chk.failures] == [(2, f.edges[2][1])]


def test_moment_rank_names_a_corrupted_lever():
    # the gauge certificate refuses a moment cosheaf with one wrong lever
    f = make_named("square")
    moment = build_moment_cosheaf(f)
    assert structural.moment_rank(moment) == 3 * (f.num_vertices - 1)
    with pytest.raises(ValueError, match=f"edge 2 at vertex {f.edges[2][1]} is not"):
        structural.moment_rank(_lever_sign_flipped(moment, 2))


def test_moment_rank_names_a_corrupted_tail_at_its_tail():
    # square: edge 1's tail map is shared with edge 3's head; only edge 1's copy is bad
    f = make_named("square")
    bad = _lever_sign_flipped(build_moment_cosheaf(f), 1, side="tail_maps")
    with pytest.raises(ValueError, match=f"edge 1 at vertex {f.edges[1][0]} is not"):
        structural.moment_rank(bad)


def test_moment_rank_names_the_lowest_failing_edge_head_first():
    # the first failure in edge order is named, whatever order the checks ran in
    f = make_named("square")
    moment = build_moment_cosheaf(f)
    bad = _lever_sign_flipped(_lever_sign_flipped(moment, 3), 1, side="tail_maps")
    with pytest.raises(ValueError, match=f"edge 1 at vertex {f.edges[1][0]} is not"):
        structural.moment_rank(bad)
    bad = _lever_sign_flipped(_lever_sign_flipped(moment, 2, 3), 2, side="tail_maps")
    with pytest.raises(ValueError, match=f"edge 2 at vertex {f.edges[2][1]} is not"):
        structural.moment_rank(bad)


@pytest.mark.parametrize("kept, shared", [(0, 2), (2, 0), (0, 1)])
def test_moment_rank_refuses_a_shared_map_where_its_lever_differs(kept, shared):
    # one slot serves as the head map of two edges with different
    # directions: it is checked per signed lever, and refused where it is wrong
    f = make_named("square")
    moment = build_moment_cosheaf(f)
    heads = list(moment.head_slots)
    heads[shared] = heads[kept]
    bad = dataclasses.replace(moment, head_slots=tuple(heads))
    assert bad.head_maps[shared] is bad.head_maps[kept]
    with pytest.raises(ValueError, match=f"edge {shared} at vertex {f.edges[shared][1]} is not"):
        structural.moment_rank(bad)


def _tampered(phi, kind, cell, matrix):
    cells = {"vertex": list(phi.vertex_maps), "edge": list(phi.edge_maps)}
    cells[kind][cell] = matrix
    return per_cell_map(phi.source, phi.target, cells["vertex"], cells["edge"], den=phi.den)


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_anchored_dims_names_a_tampered_phi_map(mode):
    # the certificate behind the anchored dims refuses a phi whose stored map
    # of one cell is not the embedding of forces, and names that cell
    f = make_named("square") if mode == "exact" else make_named("square").as_float()
    phi = build_phi(f)
    assert structural.anchored_dims(phi) == (4, 0)
    with pytest.raises(ValueError, match="map of edge 2 is not"):
        structural.anchored_dims(_tampered(phi, "edge", 2, 2 * phi.edge_maps[2]))
    # one slot shared by edges of different directions fails where it is wrong
    with pytest.raises(ValueError, match="map of edge 1 is not"):
        structural.anchored_dims(_tampered(phi, "edge", 1, phi.edge_maps[0]))
    moment_row = phi.vertex_maps[3].copy()
    moment_row[0, 0] = 1
    with pytest.raises(ValueError, match="map of vertex 3 is not"):
        structural.anchored_dims(_tampered(phi, "vertex", 3, moment_row))


@pytest.mark.parametrize("defect", [Fraction(1, 10**400), 10**400])
def test_exact_map_check_decides_on_exact_entries(defect):
    # as floats, a defect of 1/10**400 reads 0.0 and one of 10**400 overflows
    f = make_named("bar")
    k = constant_cosheaf(f)
    one = identity(1, f.mode)
    bent = per_cell_map(k, k, (one, exact_matrix([[1 + defect]])), (one,))
    chk = check_cosheaf_map(bent)
    assert not chk.passed
    assert chk.failures == ((0, 1, defect),)


def _product_failures(m):
    """(edge, vertex, largest |entry|) of each incidence whose two products
    differ, the products formed on the rational matrices the stored ones
    stand for."""
    src, tgt = m.source, m.target
    out = []
    for e, (t, h) in enumerate(src.base.edges):
        for v, side in ((t, "tail_maps"), (h, "head_maps")):
            diff = (from_integer_form(getattr(tgt, side)[e], tgt.den)
                    @ from_integer_form(m.edge_maps[e], m.den)
                    - from_integer_form(m.vertex_maps[v], m.den)
                    @ from_integer_form(getattr(src, side)[e], src.den))
            res = max((abs(x) for x in diff.ravel().tolist()), default=0)
            if res:
                out.append((e, v, res))
    return tuple(out)


def test_exact_map_check_reports_the_product_difference(monkeypatch):
    # the check compares integer forms and forms the difference of a failing
    # incidence only, which must still report the exact residual of the
    # Fraction products, with the same types
    f = perturb(make_desargues(Fraction(1, 2)), Fraction(1, 100), 4)
    pi = quotient_cosheaf(build_phi(f))[1]
    products = []
    monkeypatch.setattr(cosheaf, "from_integer_form",
                        lambda *form: products.append(1) or from_integer_form(*form))
    assert check_cosheaf_map(pi).passed
    assert products == []
    vertex_maps = [from_integer_form(a, pi.den) for a in pi.vertex_maps]
    edge_maps = [from_integer_form(a, pi.den) for a in pi.edge_maps]
    vertex_maps[3] = vertex_maps[3].copy()
    vertex_maps[3][0, 2] += Fraction(1, 7)
    edge_maps[5] = edge_maps[5] * 2
    broken = per_cell_map(pi.source, pi.target, tuple(vertex_maps), tuple(edge_maps))
    want = _product_failures(broken)
    assert len(want) >= 3
    chk = check_cosheaf_map(broken)
    assert not chk.passed
    assert len(products) == len(want)
    assert chk.failures == want
    assert repr(chk.failures) == repr(want)


def test_map_shape_validation():
    f = make_named("bar")
    k = build_force_cosheaf(f)
    with pytest.raises(ValueError):
        per_cell_map(k, k, (identity(2, f.mode),) * 2, (identity(2, f.mode),))


def test_a_misshapen_stalk_map_is_named_by_its_cell():
    # the maps are checked against the two stalk dims, and the first
    # offending cell is named; a cosheaf's map that no cell reads is
    # checked too, and named by its slot once every cell has passed
    f = make_named("triangle")  # edges (0, 1), (1, 2), (2, 0)
    col = zeros(2, 1, f.mode)
    good = (col,) * 3
    heads = (col, zeros(4, 1, f.mode), col)
    with pytest.raises(ValueError, match=re.escape(
            "stalk map of edge 1 at vertex 2 has shape (4, 1), expected (2, 1)")):
        per_cell_cosheaf(f, 2, 1, good, heads)
    k = per_cell_cosheaf(f, 2, 1, good, good)
    vmaps = (col, col, zeros(2, 2, f.mode))
    with pytest.raises(ValueError, match=re.escape(
            "vertex map 2 has shape (2, 2), expected (2, 1)")):
        per_cell_map(constant_cosheaf(f), k, vmaps, (identity(1, f.mode),) * 3)
    with pytest.raises(ValueError, match=r"^map 1 has shape \(3, 1\), expected \(2, 1\)$"):
        Cosheaf(base=f, vertex_dim=2, edge_dim=1, maps=(col, zeros(3, 1, f.mode)),
                tail_slots=(0, 0, 0), head_slots=(0, 0, 0))


@pytest.mark.parametrize("bad", [-1, 2])
def test_a_slot_outside_the_table_is_named_by_its_cell(bad):
    # a slot must index the table: -1 would silently read its last map, which
    # has the shape the cell needs
    f = make_named("triangle")  # edges (0, 1), (1, 2), (2, 0)
    maps = (zeros(2, 1, f.mode), zeros(2, 1, f.mode))
    with pytest.raises(ValueError, match=re.escape(
            f"stalk map of edge 1 at vertex 2 reads slot {bad}, not one of the 2 maps")):
        Cosheaf(base=f, vertex_dim=2, edge_dim=1, maps=maps,
                tail_slots=(0, 0, 0), head_slots=(1, bad, 1))
    k = Cosheaf(base=f, vertex_dim=2, edge_dim=1, maps=maps,
                tail_slots=(0, 0, 0), head_slots=(1, 1, 1))
    maps = (identity(2, f.mode), identity(1, f.mode))
    with pytest.raises(ValueError, match=re.escape(
            f"edge map 2 reads slot {bad}, not one of the 2 maps")):
        CosheafMap(source=k, target=k, maps=maps, vertex_slots=(0, 0, 0),
                   edge_slots=(1, 1, bad))
    with pytest.raises(ValueError, match=re.escape(
            f"vertex map 1 reads slot {bad}, not one of the 2 maps")):
        CosheafMap(source=k, target=k, maps=maps[::-1], vertex_slots=(1, bad, 1),
                   edge_slots=(0, 0, 0))


@pytest.mark.parametrize("den", [0, -2, 2.0, Fraction(2)])
def test_cosheaf_den_must_be_a_positive_int(den):
    # a zero den would divide by zero in the normalizer, a negative one flip every sign
    f = make_named("bar")
    k = constant_cosheaf(f, 2)
    with pytest.raises(ValueError, match="den must be a positive int"):
        dataclasses.replace(k, den=den)


@pytest.mark.parametrize("den", [0, -2, 2.0, Fraction(2)])
def test_cosheaf_map_den_must_be_a_positive_int(den):
    f = make_named("bar")
    k = constant_cosheaf(f, 2)
    with pytest.raises(ValueError, match="den must be a positive int"):
        per_cell_map(k, k, (identity(2, f.mode),) * 2, (identity(2, f.mode),), den=den)


@st.composite
def _stalk_tables(draw, shape, cells):
    """A table of 1-3 distinct Fraction or int matrices of ``shape`` and
    ``cells`` slots into it, so some cells share one slot."""
    entry = st.one_of(st.integers(-60, 60), st.fractions(max_denominator=12, min_value=-5,
                                                         max_value=5))
    pool = tuple(exact_matrix(draw(st.lists(st.lists(entry, min_size=shape[1],
                                                     max_size=shape[1]),
                                            min_size=shape[0], max_size=shape[0])), shape[1])
                 for _ in range(draw(st.integers(1, 3))))
    return pool, tuple(draw(st.lists(st.integers(0, len(pool) - 1),
                                     min_size=cells, max_size=cells)))


@settings(max_examples=60, deadline=None)
@given(st.data(), st.integers(1, 3), st.integers(1, 3), st.integers(1, 720))
def test_lowest_terms_keeps_the_values_and_the_sharing(data, rows, cols, den):
    # the one-gcd normalizer stores each map of the table as ints over one den
    # with no common factor, keeps the table's length, reads every cell equal
    # entry by entry to what was handed in over den, and keeps cells that
    # shared a slot sharing one matrix
    f = make_named("triangle")
    (cos_maps, cos_slots), (map_maps, map_slots) = (
        data.draw(_stalk_tables((rows, cols), 6)) for _ in range(2))
    cos = Cosheaf(base=f, vertex_dim=rows, edge_dim=cols, maps=cos_maps,
                  tail_slots=cos_slots[:3], head_slots=cos_slots[3:], den=den)
    m = CosheafMap(source=constant_cosheaf(f, cols), target=constant_cosheaf(f, rows),
                   maps=map_maps, vertex_slots=map_slots[:3], edge_slots=map_slots[3:],
                   den=den)
    for obj, handed, slots, stored in (
            (cos, cos_maps, cos_slots, cos.tail_maps + cos.head_maps),
            (m, map_maps, map_slots, m.vertex_maps + m.edge_maps)):
        assert len(obj.maps) == len(handed)
        entries = [x for a in obj.maps for x in a.ravel().tolist()]
        assert all(type(x) is int for x in entries)
        assert math.gcd(obj.den, *entries) == 1
        for s, b in zip(slots, stored, strict=True):
            assert [Fraction(x, obj.den) for x in b.ravel().tolist()] == \
                [Fraction(x) / den for x in handed[s].ravel().tolist()]
        assert [[a is b for b in stored] for a in stored] == \
            [[s == t for t in slots] for s in slots]


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
        vertex_dim=0,
        edge_dim=0,
        maps=(zeros(0, 0, f.mode),),
        tail_slots=(0,) * f.num_edges,
        head_slots=(0,) * f.num_edges)


def test_quotient_by_zero_is_identity():
    f = make_named("square")
    moment = build_moment_cosheaf(f)
    z = zero_cosheaf(f)
    emb = per_cell_map(z, moment,
                       tuple(zeros(moment.vertex_dim, 0, f.mode) for _ in f.positions),
                       tuple(zeros(moment.edge_dim, 0, f.mode) for _ in f.edges))
    pi = quotient_cosheaf(emb)[1]
    assert pi.target.vertex_dim == moment.vertex_dim
    assert pi.target.edge_dim == moment.edge_dim
    for pm in pi.vertex_maps + pi.edge_maps:
        assert (pm == identity(pm.shape[0], f.mode)).all()
    assert pi.target.dims == moment.dims


@pytest.mark.parametrize("name,edims,vdims", [("square", 2, 1), ("box3d", 5, 3)])
def test_anchored_quotient_stalk_dims(name, edims, vdims):
    f = make_named(name)
    anch = quotient_cosheaf(build_phi(f))[0]
    assert anch.edge_dim == edims
    assert anch.vertex_dim == vdims


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_projection_and_section_share_the_quotient_and_invert_on_every_stalk(corpus, mode):
    for label, f in corpus:
        phi = build_phi(f if mode == "exact" else f.as_float())
        _, pi, section = quotient_cosheaf(phi)
        assert pi.target is section.source, label
        assert section.target is phi.target, label
        for p, s in zip(pi.vertex_maps + pi.edge_maps,
                        section.vertex_maps + section.edge_maps):
            err = (from_integer_form(p, pi.den) @ from_integer_form(s, section.den)
                   - identity(s.shape[1], mode))
            if mode == "exact":
                assert not err.any(), label
            else:
                assert np.abs(err).max(initial=0.0) <= 1e-12, label


def test_quotient_stalkwise_exactness():
    f = make_desargues(Fraction(1, 2))
    phi = build_phi(f)
    _, pi, section = quotient_cosheaf(phi)
    for v in range(f.num_vertices):
        stacked = np.hstack([phi.vertex_maps[v], section.vertex_maps[v]])
        assert rank(stacked) == phi.target.vertex_dim
        prod = pi.vertex_maps[v] @ phi.vertex_maps[v]
        assert all(x == 0 for x in prod.flat)
    for e in range(f.num_edges):
        stacked = np.hstack([phi.edge_maps[e], section.edge_maps[e]])
        assert rank(stacked) == phi.target.edge_dim
        prod = pi.edge_maps[e] @ phi.edge_maps[e]
        assert all(x == 0 for x in prod.flat)


def _flipped_grid(n, flips):
    """A triangulated n x n grid with the edges ``flips`` reoriented."""
    f = grid(n)
    for k in flips:
        f = f.with_flipped_edge(k)
    return f


def _same(a, b):
    return a.shape == b.shape and (a == b).all()


@pytest.mark.parametrize("f", [
    _flipped_grid(4, (0, 4, 7, 13, 20)),
    _flipped_grid(4, (0, 4, 7, 13, 20)).as_float(),
    perturb(make_desargues(Fraction(1, 2)), Fraction(1, 100), 1),
], ids=["grid4-flipped", "grid4-flipped-float", "desargues-perturbed"])
def test_quotient_stalks_match_per_stalk_quotients(f):
    # cells with equal stalk maps share one quotient; every stalk must still
    # be what its own quotient gives
    phi = build_phi(f)
    moment = phi.target
    _, pi, section = quotient_cosheaf(phi)

    def own_quotient(m):  # the section of m's stored integers and its projection, written out
        s = _stalk_section(Reduction(m.T), "")
        st = s.T.copy()
        return s, from_integer_form(*solve_in_image(st @ s, st))

    def rational(obj, m):
        return from_integer_form(m, obj.den)

    vertex = [own_quotient(m) for m in phi.vertex_maps]
    for v, (s, p) in enumerate(vertex):
        assert _same(rational(section, section.vertex_maps[v]), s)
        assert _same(rational(pi, pi.vertex_maps[v]), p)
    for e, (t, h) in enumerate(f.edges):
        s, p = own_quotient(phi.edge_maps[e])
        assert _same(rational(section, section.edge_maps[e]), s)
        assert _same(rational(pi, pi.edge_maps[e]), p)
        assert _same(pi.target.stalk_map(e, t), vertex[t][1] @ moment.stalk_map(e, t) @ s)
        assert _same(pi.target.stalk_map(e, h), vertex[h][1] @ moment.stalk_map(e, h) @ s)


def test_reversed_and_parallel_bars_get_equal_quotient_stalks():
    # each stalk map of phi gets its own quotient, but the kernel basis is the
    # canonical RREF one: on the flipped grid3 with its last column moved to
    # x = 3, the horizontal bars run -(1, 0) and (2, 0), two stalk maps of phi
    # with equal sections and projections; the vertical bars 6 and 7 run
    # -(0, 1) and (0, 1), so each one's tail map is the other's head map
    g = _flipped_grid(3, range(0, 16, 2))
    f = dataclasses.replace(g, positions=tuple((3 if x == 2 else x, y) for x, y in g.positions))
    phi = build_phi(f)
    anch, pi, section = quotient_cosheaf(phi)
    for line in ((0, 1, 2, 3, 4, 5), (6, 7, 8, 9, 10, 11)):
        assert len({phi.edge_slots[e] for e in line}) == 2
        for maps in (section.edge_maps, pi.edge_maps):
            assert all(_same(maps[e], maps[line[0]]) for e in line)
    assert [d for d, _ in (f.direction_form[0][e] for e in (0, 1))] == [-1, 2]
    assert [d for _, d in (f.direction_form[0][e] for e in (6, 7))] == [-1, 1]
    assert _same(anch.tail_maps[6], anch.head_maps[7])
    assert _same(anch.head_maps[6], anch.tail_maps[7])


def test_quotient_projection_commutes():
    f = make_named("box3d")
    pi = quotient_cosheaf(build_phi(f))[1]
    assert check_cosheaf_map(pi).passed


def test_quotient_rejects_non_injective_map():
    f = make_named("bar")
    k = build_force_cosheaf(f)
    collapse = per_cell_map(k, k, tuple(zeros(2, 2, f.mode) for _ in range(2)),
                            tuple(zeros(1, 1, f.mode) for _ in range(1)))
    with pytest.raises(ValueError, match="not injective on the vertex 0 stalk"):
        quotient_cosheaf(collapse)


def test_quotient_eliminates_every_map_of_the_table():
    # a map no cell reads is still eliminated, and named by its slot
    f = make_named("bar")
    k = build_force_cosheaf(f)
    m = CosheafMap(source=k, target=k, maps=(identity(2, f.mode), identity(1, f.mode),
                                             zeros(1, 1, f.mode)),
                   vertex_slots=(0, 0), edge_slots=(1,))
    with pytest.raises(ValueError, match="not injective on the map 2 stalk"):
        quotient_cosheaf(m)


def test_stalk_quotient_eliminates_twice(monkeypatch):
    # each stalk quotient eliminates phi^T once, for the injectivity rank and
    # the section S, and solves once for the projection P: the vertex one and
    # the edge one; the section solves nothing
    calls = []
    original = linalg._echelon
    monkeypatch.setattr(linalg, "_echelon", lambda *args: calls.append(1) or original(*args))
    phi = build_phi(Framework(dim=3, positions=((0, 0, 0), (1, 2, 3)), edges=((0, 1),)))
    calls.clear()
    _, pi, section = quotient_cosheaf(phi)
    assert len(calls) == 4
    s = from_integer_form(section.edge_maps[0], section.den)
    p = from_integer_form(pi.edge_maps[0], pi.den)
    assert s.shape == (6, 5) and p.shape == (5, 6)
    assert (p @ s == identity(5, "exact")).all()
    assert len(calls) == 4


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
    t_v = [_random_invertible(moment.vertex_dim, rng) for _ in f.positions]
    t_e = [_random_invertible(moment.edge_dim, rng) for _ in f.edges]
    inv_e = [from_integer_form(*solve_in_image(t, identity(t.shape[0], f.mode))) for t in t_e]
    tails = tuple(t_v[t] @ moment.stalk_map(e, t) @ inv_e[e]
                  for e, (t, h) in enumerate(f.edges))
    heads = tuple(t_v[h] @ moment.stalk_map(e, h) @ inv_e[e]
                  for e, (t, h) in enumerate(f.edges))
    twisted = per_cell_cosheaf(f, moment.vertex_dim, moment.edge_dim, tails, heads)
    twisted_phi = per_cell_map(
        phi.source, twisted,
        tuple(t_v[v] @ phi.vertex_maps[v] for v in range(f.num_vertices)),
        tuple(t_e[e] @ phi.edge_maps[e] for e in range(f.num_edges)), den=phi.den)
    assert check_cosheaf_map(twisted_phi).passed
    assert quotient_cosheaf(phi)[0].dims == quotient_cosheaf(twisted_phi)[0].dims
