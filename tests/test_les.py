"""Induced maps, the connecting homomorphism, exactness, counting, scans."""

import random
from fractions import Fraction

import pytest

from framehom import (
    connecting_map,
    counting_rules,
    homology,
    induced_map,
    make_desargues,
    make_named,
    parse_framework,
    perturbation_scan,
    rigid_body_space,
    verify_les,
)
from framehom.cosheaf import assemble_boundary
from framehom.les import _LesContext
from framehom.linalg import (
    complement_within,
    identity,
    image_basis,
    solve_gram,
    span_rows,
    subspaces_equal,
)
from framehom.structural import build_force_cosheaf, build_moment_cosheaf, build_phi


def signature(report):
    return (report.dims_force, report.dims_moment, report.dims_anchored,
            report.rigid_dim, report.mech_dim,
            report.rank_phi1, report.rank_pi1, report.rank_theta)


# ---------------------------------------------------------------------------
# induced maps
# ---------------------------------------------------------------------------

def test_induced_ranks_on_desargues():
    f = make_desargues(Fraction(1, 2))
    phi = build_phi(f)
    h_f = homology(phi.source)
    h_m = homology(phi.target)
    phi1 = induced_map(phi, 1, h_f, h_m)
    assert phi1.rank == 1
    assert phi1.kernel.dim == 0  # injective
    ctx = _LesContext(f)
    assert ctx.pi1.rank == 11
    assert ctx.theta.rank == 1


def test_induced_map_requires_commuting():
    f = make_named("square")
    force = build_force_cosheaf(f)
    moment = build_moment_cosheaf(f)
    phi = build_phi(f)
    from framehom.cosheaf import CosheafMap
    bad = CosheafMap(source=force, target=moment,
                     vertex_maps=tuple(m.copy() for m in phi.vertex_maps),
                     edge_maps=tuple(-m for m in phi.edge_maps))
    bad.vertex_maps[0][1, 0] = 5  # break commuting at vertex 0
    with pytest.raises(ValueError, match="commute"):
        induced_map(bad, 1, homology(force), homology(moment))


def test_phi0_surjective_with_mechanism_kernel():
    for name in ("square", "triangle", "box3d"):
        ctx = _LesContext(make_named(name))
        assert ctx.phi0.rank == ctx.h_moment.h0.dim
        assert ctx.phi0.kernel.dim == ctx.mech.dim


# ---------------------------------------------------------------------------
# connecting homomorphism
# ---------------------------------------------------------------------------

def test_connecting_on_square_spans_the_mechanism():
    f = make_named("square")
    cm = connecting_map(f)
    assert cm.rank == 1
    ctx = _LesContext(f)
    mech_ambient = ctx.mechanism_basis_ambient()
    assert subspaces_equal(mech_ambient, ctx.mech)


def test_connecting_zero_on_triangle():
    f = make_named("triangle")
    cm = connecting_map(f)
    assert cm.rank == 0
    ctx = _LesContext(f)
    assert ctx.h_anch.h1.dim == 3
    assert ctx.pi1.rank == 3


def test_connecting_section_independence():
    for name, fw in (("square", make_named("square")),
                     ("desargues", make_desargues(Fraction(1, 2))),
                     ("random2d-3", make_named("random2d", 3))):
        base = connecting_map(fw)
        for seed in (11, 23):
            other = connecting_map(fw, random.Random(seed))
            assert (base.matrix == other.matrix).all(), name


@pytest.mark.parametrize("seed", [None, 5])
def test_section_lifts_edge_by_edge(seed):
    f = make_desargues(Fraction(1, 2))
    ctx = _LesContext(f, None if seed is None else random.Random(seed))
    sections = ctx.section.edge_maps
    assert (seed is None) == all((a == b).all() for a, b in
                                 zip(sections, ctx.anch.edge_sections))
    for e, sec in enumerate(sections):
        assert (ctx.pi.edge_maps[e] @ sec == identity(sec.shape[1], f.mode)).all()
    dims = ctx.anch.cosheaf.edge_dims
    for w in ctx.h_anch.h1.vectors[:4]:
        # reference: lift each edge's component through its own section
        want, pos = [], 0
        for e, d in enumerate(dims):
            want.extend(sections[e] @ w[pos:pos + d])
            pos += d
        assert list(ctx.section.apply_c1(w)) == want


def test_connecting_map_requires_connected():
    f = parse_framework("dim 2\nv 0 0 0\nv 1 1 0\nv 2 5 5\nv 3 6 5\ne 0 1\ne 2 3\n")
    with pytest.raises(ValueError, match="connected"):
        connecting_map(f)


def test_resultants_sum_to_zero_and_kill_rigid_motions():
    f = make_desargues(Fraction(1, 2))
    ctx = _LesContext(f)
    rigid = rigid_body_space(f)
    for res in ctx.theta.resultants:
        flat = res.reshape(-1)
        for gen in rigid.vectors:
            assert sum(a * b for a, b in zip(flat, gen)) == 0


def test_desargues_perp_generator_maps_onto_the_unique_mechanism():
    # the anchored generator orthogonal to im pi* is outside ker theta, so
    # its homology class lands on (a multiple of) the sole mechanism
    f = make_desargues(Fraction(1, 2))
    ctx = _LesContext(f)
    h1n = ctx.h_anch.h1
    im_ambient = span_rows(ctx.pi1.image.vectors @ h1n.vectors, h1n.ambient_dim)
    perp = complement_within(im_ambient, h1n)
    assert perp.dim == 1
    res = ctx.vertex_resultants(perp.vectors[0]).reshape(-1)
    b_force = assemble_boundary(build_force_cosheaf(f))
    im = image_basis(b_force).matrix()
    rep = res - im @ solve_gram(im, res)
    mech = ctx.mech
    assert mech.dim == 1
    assert any(x != 0 for x in rep)
    assert subspaces_equal(span_rows(rep.reshape(1, -1), len(rep)), mech)


def test_theta_image_orthogonal_to_rigid_space():
    for name in ("square", "box3d"):
        ctx = _LesContext(make_named(name))
        rigid = rigid_body_space(ctx.f)
        for v in ctx.mechanism_basis_ambient().vectors:
            for gen in rigid.vectors:
                assert sum(a * b for a, b in zip(v, gen)) == 0


# ---------------------------------------------------------------------------
# verify_les
# ---------------------------------------------------------------------------

def test_verify_les_passes_on_corpus(corpus_reports):
    for label, report in corpus_reports.items():
        assert report.all_passed, (label, [c for c in report.checks if not c.passed])


def test_verify_les_golden_square(corpus_reports):
    r = corpus_reports["square"]
    assert signature(r) == (((0, 4)), (3, 3), (4, 0), 3, 1, 0, 3, 1)


def test_verify_les_golden_desargues(corpus_reports):
    r = corpus_reports["desargues"]
    assert signature(r) == ((1, 4), (12, 3), (12, 0), 3, 1, 1, 11, 1)


def test_verify_les_float_mode_detects_the_singular_geometry():
    # roundoff leaves the smallest singular value ~1e-16 * sigma_max, far
    # below the 1e-10 rank cutoff, so float mode still sees the Desargues
    # self-stress; exactness checks run on principal angles
    r = verify_les(make_desargues(Fraction(1, 2)).as_float())
    assert (r.dims_force, r.dims_moment, r.dims_anchored) == ((1, 4), (12, 3), (12, 0))
    assert (r.rank_phi1, r.rank_pi1, r.rank_theta) == (1, 11, 1)
    assert r.all_passed


def test_verify_les_requires_connected():
    f = parse_framework("dim 2\nv 0 0 0\nv 1 1 0\nv 2 5 5\nv 3 6 5\ne 0 1\ne 2 3\n")
    with pytest.raises(ValueError, match="connected"):
        verify_les(f)


def test_verify_les_flags_degenerate_3d_bar():
    # a single bar in space has only 5 rigid DOF, so phi0* cannot reach all
    # six frame DOF and H0(anchored) survives: checks (e) and (i) fail
    # honestly while the rest of the report stays coherent
    f = parse_framework("dim 3\nv 0 0 0 0\nv 1 1 0 0\ne 0 1\n")
    r = verify_les(f)
    assert not r.all_passed
    failing = {c.code for c in r.checks if not c.passed}
    assert failing == {"e", "i"}
    assert r.dims_anchored == (0, 1)
    assert r.rigid_dim == 5
    counting = {c.name: c for c in r.counting}
    assert not counting["anchored_stress_count"].applicable


def test_exactness_is_subspace_equality_not_just_dims(corpus_reports):
    # spot check: im phi* really is ker pi* as subspaces for Desargues
    f = make_desargues(Fraction(1, 2))
    ctx = _LesContext(f)
    assert subspaces_equal(ctx.phi1.image, ctx.pi1.kernel)
    assert subspaces_equal(ctx.pi1.image, ctx.theta.kernel)


# ---------------------------------------------------------------------------
# counting rules
# ---------------------------------------------------------------------------

def test_counting_rules_square():
    checks = {c.name: c for c in counting_rules(make_named("square"))}
    assert checks["maxwell_calladine"].expected == 4
    assert checks["anchored_stress_count"].expected == 4
    assert checks["anchored_stress_count"].computed == 4
    assert all(c.passed for c in checks.values())


def test_counting_rules_desargues_decomposition():
    checks = {c.name: c for c in counting_rules(make_desargues(Fraction(1, 2)))}
    # the anchored count splits as extended cycle count minus Maxwell count:
    # 12 = 9 - (-3)
    assert checks["anchored_stress_count"].computed == 12
    assert checks["anchored_decomposition"].expected == 12
    assert checks["anchored_decomposition"].passed


def test_counting_rules_disconnected_marked_not_applicable():
    f = parse_framework("dim 2\nv 0 0 0\nv 1 1 0\nv 2 5 5\nv 3 6 5\ne 0 1\ne 2 3\n")
    checks = {c.name: c for c in counting_rules(f)}
    assert all(not c.applicable for c in checks.values())
    assert all(c.passed for c in checks.values())


def test_counting_rules_3d_formula():
    f = make_named("random3d", 11)
    checks = {c.name: c for c in counting_rules(f)}
    expected = 5 * f.num_edges - 3 * f.num_vertices
    assert checks["anchored_stress_count"].expected == expected
    assert checks["anchored_stress_count"].passed
    # oracle: the anchored count is the kernel dimension of the assembled
    # anchored boundary, already verified against homology inside the rule
    from framehom import build_anchored_cosheaf
    from framehom.linalg import kernel_basis
    b = assemble_boundary(build_anchored_cosheaf(f).cosheaf)
    assert kernel_basis(b).dim == expected


# ---------------------------------------------------------------------------
# perturbation scans
# ---------------------------------------------------------------------------

def test_scan_desargues_baseline_and_migration():
    f = make_desargues(Fraction(1, 2))
    rows = perturbation_scan(f, [Fraction(0), Fraction(1, 100)], [1, 2, 3])
    baseline = [r for r in rows if r.magnitude == 0]
    moved = [r for r in rows if r.magnitude != 0]
    for r in baseline:
        assert (r.dims_force, r.dims_moment, r.dims_anchored) == ((1, 4), (12, 3), (12, 0))
        assert (r.rank_phi1, r.rank_pi1, r.rank_theta) == (1, 11, 1)
    for r in moved:
        assert (r.dims_force, r.dims_moment, r.dims_anchored) == ((0, 3), (12, 3), (12, 0))
        assert (r.rank_phi1, r.rank_pi1, r.rank_theta) == (0, 12, 0)


def test_scan_square_dims_are_perturbation_stable():
    f = make_named("square")
    rows = perturbation_scan(f, [Fraction(0), Fraction(1, 100)], [2, 5])
    sigs = {(r.dims_force, r.dims_moment, r.dims_anchored) for r in rows}
    assert sigs == {((0, 4), (3, 3), (4, 0))}


def test_scan_flags_invalid_rows(monkeypatch):
    from framehom import framework as fw_mod

    real = fw_mod.perturb

    def sometimes_broken(f, magnitude, seed):
        if seed == 2:
            raise fw_mod.FrameworkError("zero-length edge 0: (0, 1)")
        return real(f, magnitude, seed)

    monkeypatch.setattr(fw_mod, "perturb", sometimes_broken)
    rows = perturbation_scan(make_named("square"), [Fraction(1, 100)], [1, 2, 3])
    flags = [(r.seed, r.valid) for r in rows]
    assert flags == [(1, True), (2, False), (3, True)]
    assert "zero-length" in rows[1].error


# ---------------------------------------------------------------------------
# invariance spot checks (the acceptance suite covers the whole corpus)
# ---------------------------------------------------------------------------

def test_orientation_invariance_square():
    f = make_named("square")
    base = signature(verify_les(f))
    for k in range(f.num_edges):
        assert signature(verify_les(f.with_flipped_edge(k))) == base


def test_rigid_motion_invariance_desargues():
    f = make_desargues(Fraction(1, 2))
    base = signature(verify_les(f))
    rot = [[Fraction(3, 5), Fraction(-4, 5)], [Fraction(4, 5), Fraction(3, 5)]]
    g = f.transformed(rot, (Fraction(5), Fraction(7)))
    assert signature(verify_les(g)) == base


def test_vertex_permutation_invariance():
    f = make_desargues(Fraction(1, 2))
    base = signature(verify_les(f))
    perm = [3, 1, 4, 0, 5, 2]
    assert signature(verify_les(f.with_vertex_permutation(perm))) == base
