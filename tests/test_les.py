"""Induced maps, the connecting homomorphism, exactness, counting, scans."""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    block_boundary,
    build_corpus,
    domain_matrix,
    exact_matrix,
    float_matrix,
    fractions_of,
    grid,
    lattice,
    per_cell_map,
    random_section,
    same_span,
    theta_with_random_section,
)
from framehom import (
    connecting_map,
    counting_rules,
    induced_map,
    make_desargues,
    make_named,
    parse_framework,
    perturb,
    perturbation_scan,
    rigid_body_space,
    verify_les,
)
from framehom import cosheaf, les, linalg
from framehom.cosheaf import assemble_boundary
from framehom.les import InducedMap, _LesContext
from framehom.linalg import (
    Reduction,
    from_integer_form,
    identity,
    integer_form,
    rank,
    solve_gram,
    solve_in_image,
    span_rows,
)
from framehom.structural import (
    build_force_cosheaf,
    build_moment_cosheaf,
    build_phi,
    moment_dim,
)


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
    phi1 = induced_map(phi, 1)
    assert phi1.rank == 1
    assert len(phi1.kernel) == 0  # injective
    ctx = _LesContext(f)
    assert ctx.pi1.rank == 11
    assert ctx.theta.rank == 1


def test_induced_map_requires_commuting():
    f = make_named("square")
    force = build_force_cosheaf(f)
    moment = build_moment_cosheaf(f)
    phi = build_phi(f)
    bad = per_cell_map(force, moment, tuple(m.copy() for m in phi.vertex_maps),
                       tuple(-m for m in phi.edge_maps), den=phi.den)
    bad.vertex_maps[0][1, 0] = 5  # break commuting at vertex 0
    with pytest.raises(ValueError, match="commute"):
        induced_map(bad, 1)


FAMILIES = [("grid", n) for n in range(2, 13)] + [("lattice", n) for n in range(2, 5)]


@pytest.mark.parametrize("family,n", FAMILIES, ids=[f"{fam}{n}" for fam, n in FAMILIES])
def test_counting_rules_hold_on_grid_and_lattice_families(family, n):
    # triangulated grids and face-diagonal lattices are infinitesimally rigid:
    # no mechanism, and self-stresses |E| - (n|V| - k) with k = couple_dim(n)
    f = grid(n) if family == "grid" else lattice(n)
    ctx = _LesContext(f)
    rules = ctx.counting
    assert [c.name for c in rules] == ["maxwell_calladine", "moment_circuit_rank",
                                       "anchored_stress_count", "anchored_decomposition",
                                       "les_alternating_sum"]
    assert [c.name for c in rules if not c.passed] == []
    assert len(ctx.mech) == 0
    ne, nv = f.num_edges, f.num_vertices
    want = ne - 2 * nv + 3 if f.dim == 2 else ne - 3 * nv + 6
    assert ctx.force.dims[0] == want
    # the moment dims come from the certified gauge; the elimination is the oracle
    assert ctx.dims[1] == build_moment_cosheaf(f).dims


def test_phi0_surjective_with_mechanism_kernel():
    for name in ("square", "triangle", "box3d"):
        ctx = _LesContext(make_named(name))
        assert ctx.phi0.rank == len(ctx.moment.h0)
        assert len(ctx.phi0.kernel) == len(ctx.mech)


def _assert_h1_coordinates_match_solve(f):
    # phi1 and pi1 read their coordinates at the free columns; the old
    # elimination of [basis | image] must give the same matrix
    ctx = _LesContext(f)
    for h, chains in ((ctx.moment, ctx.phi.apply_c1(ctx.force.h1.T.copy())),
                      (ctx.anch, ctx.pi.apply_c1(ctx.moment.h1.T.copy()))):
        got = from_integer_form(*h.h1_coordinates_form(*integer_form(chains)))
        want = from_integer_form(*solve_in_image(h.h1.T.copy(), chains))
        assert got.shape == want.shape == (len(h.h1), chains.shape[1])
        assert (got == want).all()
        assert (h.h1.T.copy() @ got == chains).all()


def test_h1_coordinates_match_solve_in_image_on_corpus(corpus):
    for _, f in corpus:
        _assert_h1_coordinates_match_solve(f)


@settings(max_examples=12, deadline=None)
@given(st.sampled_from(["random2d", "random3d"]), st.integers(0, 10**6),
       st.sampled_from([Fraction(0), Fraction(1, 7), Fraction(3, 1000)]))
def test_h1_coordinates_match_solve_in_image_on_random_frames(name, seed, magnitude):
    _assert_h1_coordinates_match_solve(perturb(make_named(name, seed), magnitude, seed))


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_h1_coordinates_reject_a_chain_that_is_not_a_cycle(mode):
    f = make_desargues(Fraction(1, 2))
    h = build_moment_cosheaf(f if mode == "exact" else f.as_float())
    chains = h.h1.T.copy()
    assert h.h1_coordinates_form(chains, 1)[0].shape == (len(h.h1), len(h.h1))
    chains[0, 1] += 1  # column 0 of the boundary is nonzero
    with pytest.raises(ValueError, match="not in the column space"):
        h.h1_coordinates_form(chains, 1)


@pytest.mark.parametrize("name", ["desargues", "box3d", "grid4", "random2d-0", "random3d-1"])
def test_exact_bases_are_integer_spans(name):
    # a span does not depend on scale: every exact basis the pipeline exposes
    # holds int entries, images of the induced maps included
    family, _, seed = name.partition("-")
    f = (make_desargues(Fraction(1, 2)) if name == "desargues" else grid(4) if name == "grid4"
         else make_named(family, int(seed or 0)))
    ctx = _LesContext(f)
    bases = {"rigid": ctx.rigid, "mech": ctx.mech,
             "mechanism_basis_ambient": ctx.mechanism_basis_ambient(),
             "anchored_generators": ctx.anchored_generators}
    for label, k in (("F", ctx.force), ("M", ctx.moment), ("N", ctx.anch)):
        bases[f"h1 {label}"], bases[f"h0 {label}"] = k.h1, k.h0
    for label in ("phi1", "pi1", "theta", "phi0"):
        m = getattr(ctx, label)
        bases[f"{label} kernel"], bases[f"{label} image"] = m.kernel, m.image
    for label, b in bases.items():
        assert b.dtype == object, label
        assert {type(x) for x in b.ravel().tolist()} <= {int}, label


def test_exact_degree1_induced_maps_make_no_solve_in_image_call(monkeypatch):
    ctx = _LesContext(perturb(make_desargues(Fraction(1, 2)), Fraction(1, 100), 1))
    for k in (ctx.phi, ctx.pi):  # the map checks run before any induced map
        assert k.check.passed
    calls = []
    for module in (cosheaf, les, linalg):
        original = module.solve_in_image
        monkeypatch.setattr(module, "solve_in_image",
                            lambda *a, _f=original: calls.append(1) or _f(*a))
    assert (ctx.phi1.rank, ctx.pi1.rank) == (0, 12)
    assert calls == []
    assert ctx.phi0.rank == 3
    assert calls  # the degree-0 Gram solve still goes through solve_in_image


def _as_fractions(a):
    return np.array([Fraction(x) for x in a.ravel().tolist()], dtype=object).reshape(a.shape)


def _apply_entrywise(cmap, chains):
    # the block-diagonal chain map of cmap's edge maps, every entry a sum of
    # Fraction products
    blocks, c = [], 0
    for m in (from_integer_form(a, cmap.den) for a in cmap.edge_maps):
        blocks.append(_as_fractions(m) @ chains[c:c + m.shape[1]])
        c += m.shape[1]
    return np.vstack(blocks)


@pytest.mark.parametrize("name", ["desargues", "grid4"])
def test_exact_induced_maps_match_a_fraction_recomputation_and_sympy(name):
    # perturbed coordinates give pi a common denominator of hundreds of bits;
    # the matrices that pass integer forms between stages must still be the
    # coordinates of the chain-map images, with sympy's ranks
    f = perturb(make_desargues(Fraction(1, 2)) if name == "desargues" else grid(4),
                Fraction(1, 100), 1)
    ctx = _LesContext(f)
    for m, ind in ((ctx.phi, ctx.phi1), (ctx.pi, ctx.pi1)):
        image = _apply_entrywise(m, _as_fractions(m.source.h1.T.copy()))
        coords = _as_fractions(ind.matrix)
        assert (_as_fractions(m.target.h1.T.copy()) @ coords == image).all()
        assert ind.rank == domain_matrix(coords.tolist(), coords.shape[1]).rank()
    # theta: lift the anchored basis, take the frame boundary, keep each
    # vertex's force (its moment must vanish), project onto H0(force)
    lift = _apply_entrywise(ctx.section, _as_fractions(ctx.anch.h1.T.copy()))
    y = _as_fractions(block_boundary(ctx.moment)) @ lift
    w, n, k = moment_dim(f.dim), f.dim, lift.shape[1]
    couples = y.reshape(f.num_vertices, w + n, k)
    assert not couples[:, :w].any()
    forces = couples[:, w:].reshape(f.num_vertices * n, k)
    h = _as_fractions(ctx.force.h0.T.copy())
    gram = domain_matrix((h.T @ h).tolist(), h.shape[1])
    rhs = domain_matrix((h.T @ forces).tolist(), k)
    theta = _as_fractions(ctx.theta.matrix)
    assert theta.tolist() == fractions_of(gram.inv() * rhs)
    assert ctx.theta.rank == domain_matrix(theta.tolist(), k).rank()


def test_induced_rank_is_read_without_back_substitution(monkeypatch):
    calls = []
    original = linalg._back_substitute
    monkeypatch.setattr(linalg, "_back_substitute",
                        lambda ech: calls.append(1) or original(ech))
    m = InducedMap(integer_form(exact_matrix([[1, 1, 0], [0, 1, 1]])))
    assert m.rank == 2
    assert calls == []
    assert m.kernel.tolist() == [[1, -1, 1]]
    assert len(m.image) == 2
    assert len(calls) == 1


def test_scan_row_reads_ranks_only():
    ctx = _LesContext(perturb(make_desargues(Fraction(1, 2)), Fraction(1, 1000), 2))
    assert (ctx.phi1.rank, ctx.pi1.rank, ctx.theta.rank) == (0, 12, 0)
    for m in (ctx.phi1, ctx.pi1, ctx.theta):
        assert "kernel" not in vars(m) and "image" not in vars(m)
    assert len(ctx.theta.kernel) == 12


# ---------------------------------------------------------------------------
# connecting homomorphism
# ---------------------------------------------------------------------------

def test_connecting_on_square_spans_the_mechanism():
    f = make_named("square")
    cm = connecting_map(f)
    assert cm.rank == 1
    ctx = _LesContext(f)
    mech_ambient = ctx.mechanism_basis_ambient()
    assert same_span(mech_ambient, ctx.mech)


def test_connecting_zero_on_triangle():
    f = make_named("triangle")
    cm = connecting_map(f)
    assert cm.rank == 0
    ctx = _LesContext(f)
    assert len(ctx.anch.h1) == 3
    assert ctx.pi1.rank == 3


def test_connecting_section_independence():
    for name, fw in (("square", make_named("square")),
                     ("desargues", make_desargues(Fraction(1, 2))),
                     ("random2d-3", make_named("random2d", 3))):
        base = connecting_map(fw)
        for seed in (11, 23):
            other = theta_with_random_section(fw, random.Random(seed))
            assert (base.matrix == other.matrix).all(), name


def _resultants(ctx, chains):
    """The resultants of ``chains``, written out of their form."""
    return from_integer_form(*ctx.resultants(chains))


@pytest.mark.parametrize("name", ["desargues", "square"])
def test_random_section_moves_resultants_but_not_theta(name):
    # the section check above has teeth: the randomized section lifts the
    # anchored cycles differently, and only their homology classes agree
    f = make_desargues(Fraction(1, 2)) if name == "desargues" else make_named("square")
    base, ctx = _LesContext(f), _LesContext(f)
    ctx.section = random_section(ctx, random.Random(11))
    chains = base.anch.h1.T.copy()
    assert not (_resultants(base, chains) == _resultants(ctx, chains)).all()
    assert (base.theta.matrix == ctx.theta.matrix).all()


@pytest.mark.parametrize("seed", [None, 5])
def test_section_lifts_edge_by_edge(seed):
    f = make_desargues(Fraction(1, 2))
    ctx = _LesContext(f)
    canonical = [from_integer_form(a, ctx.section.den) for a in ctx.section.edge_maps]
    if seed is not None:
        ctx.section = random_section(ctx, random.Random(seed))
    sections = [from_integer_form(a, ctx.section.den) for a in ctx.section.edge_maps]
    assert (seed is None) == all((a == b).all() for a, b in zip(sections, canonical))
    for e, sec in enumerate(sections):
        proj = from_integer_form(ctx.pi.edge_maps[e], ctx.pi.den)
        assert (proj @ sec == identity(sec.shape[1], f.mode)).all()
    d = ctx.anch.edge_dim
    for w in ctx.anch.h1[:4]:
        # reference: lift each edge's component through its own section
        want = []
        for e in range(f.num_edges):
            want.extend(sections[e] @ w[e * d:(e + 1) * d])
        assert list(ctx.section.apply_c1(w)) == want


def test_connecting_map_requires_connected():
    f = parse_framework("dim 2\nv 0 0 0\nv 1 1 0\nv 2 5 5\nv 3 6 5\ne 0 1\ne 2 3\n")
    with pytest.raises(ValueError, match="connected"):
        connecting_map(f)


def test_resultants_sum_to_zero_and_kill_rigid_motions():
    f = make_desargues(Fraction(1, 2))
    ctx = _LesContext(f)
    rigid = rigid_body_space(f)
    for flat in _resultants(ctx, ctx.anch.h1.T.copy()).T:
        for gen in rigid:
            assert sum(a * b for a, b in zip(flat, gen)) == 0


def test_desargues_perp_generator_maps_onto_the_unique_mechanism():
    # the anchored generator orthogonal to im pi* is outside ker theta, so
    # its homology class lands on (a multiple of) the sole mechanism
    f = make_desargues(Fraction(1, 2))
    ctx = _LesContext(f)
    gens = ctx.anchored_generators  # im pi* first, then its complement
    assert len(gens) - len(ctx.pi1.image) == 1
    res = _resultants(ctx, gens[-1:].T)[:, 0]
    b_force = assemble_boundary(build_force_cosheaf(f))
    im = Reduction(b_force).image().T.copy()
    rep = res - im @ from_integer_form(*solve_gram(im, res))
    mech = ctx.mech
    assert len(mech) == 1
    assert any(x != 0 for x in rep)
    assert same_span(span_rows(rep.reshape(1, -1)), mech)


def _per_cycle_resultants(ctx, chains):
    # reference: one lift, boundary product and padding solve per cycle
    padding = from_integer_form(ctx.phi.vertex_maps[0], ctx.phi.den)
    b_moment = assemble_boundary(ctx.moment)
    cols = []
    for w in chains.T:
        y = b_moment @ ctx.section.apply_c1(w)
        couples = y.reshape(ctx.f.num_vertices, -1).T.copy()
        cols.append(from_integer_form(*solve_in_image(padding, couples)).T.reshape(-1))
    return np.array(cols).T.reshape(ctx.f.num_vertices * ctx.f.dim, chains.shape[1])


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_batched_resultants_match_one_cycle_at_a_time(corpus, mode):
    for label, f in corpus:
        ctx = _LesContext(f if mode == "exact" else f.as_float())
        chains = ctx.anch.h1.T.copy()
        got, want = _resultants(ctx, chains), _per_cycle_resultants(ctx, chains)
        assert got.shape == want.shape == (f.num_vertices * f.dim, chains.shape[1]), label
        if mode == "exact":
            assert (got == want).all(), label
        else:
            assert np.allclose(got, want, rtol=1e-9, atol=1e-9 * np.abs(want).max(initial=1.0)), label


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_resultants_reject_a_chain_that_is_not_an_anchored_cycle(mode):
    f = make_desargues(Fraction(1, 2))
    ctx = _LesContext(f if mode == "exact" else f.as_float())
    chains = ctx.anch.h1.T.copy()
    assert _resultants(ctx, chains).shape == (f.num_vertices * 2, chains.shape[1])
    chains[0, 1] += 1
    with pytest.raises(ValueError, match="not in the column space"):
        ctx.resultants(chains)


def test_theta_makes_two_solves_on_grid4(monkeypatch):
    # one padding solve for every vertex of every cycle, one Gram solve; the
    # quotient's projections are solved when the anchored cosheaf is first read
    ctx = _LesContext(grid(4))
    ctx.anch
    calls = []
    for module in (cosheaf, les, linalg):
        original = module.solve_in_image
        monkeypatch.setattr(module, "solve_in_image",
                            lambda *a, _f=original: calls.append(1) or _f(*a))
    assert len(ctx.anch.h1) == 50
    assert ctx.theta.rank == 0
    assert len(calls) == 2


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_theta_on_a_bar_is_an_empty_map(mode):
    f = make_named("bar")
    ctx = _LesContext(f if mode == "exact" else f.as_float())
    assert len(ctx.anch.h1) == 0
    assert ctx.theta.matrix.shape == (len(ctx.force.h0), 0)
    assert ctx.theta.rank == 0
    assert len(ctx.mechanism_basis_ambient()) == 0


def test_theta_image_orthogonal_to_rigid_space():
    for name in ("square", "box3d"):
        ctx = _LesContext(make_named(name))
        rigid = rigid_body_space(ctx.f)
        for v in ctx.mechanism_basis_ambient():
            for gen in rigid:
                assert sum(a * b for a, b in zip(v, gen)) == 0


# ---------------------------------------------------------------------------
# verify_les
# ---------------------------------------------------------------------------

def test_verify_les_passes_on_corpus(corpus_reports):
    for label, report in corpus_reports.items():
        assert report.all_passed, (label, [c for c in report.checks if not c.passed])


# Frames where float mode reads rank theta off round-off: exact theta is zero,
# so every float singular value is noise and the relative cutoff keeps them all
# (float rank theta 3 in the plane, 6 in space).  Strict, so a fix shows up as
# a failure until its mark is removed.
FLOAT_THETA_DEFECT = {"triangle", "grid4", "lattice2", "random2d-5", "random2d-6",
                      "random2d-7"}


@pytest.mark.parametrize("label", [
    pytest.param(label, marks=pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="float rank theta counts round-off (exact rank 0)"))
    if label in FLOAT_THETA_DEFECT else label
    for label, _ in build_corpus()])
def test_float_induced_ranks_match_exact(corpus, corpus_reports, label):
    ctx = _LesContext(dict(corpus)[label].as_float())
    r = corpus_reports[label]
    assert (ctx.phi1.rank, ctx.pi1.rank, ctx.theta.rank) == \
        (r.rank_phi1, r.rank_pi1, r.rank_theta)


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
    # six frame DOF and H0(anchored) survives: checks (e) and (i), which need
    # k = 6 rigid motions, are reported not applicable, and every other check
    # is evaluated and passes
    f = parse_framework("dim 3\nv 0 0 0 0\nv 1 1 0 0\ne 0 1\n")
    r = verify_les(f)
    assert r.all_passed
    na = {c.code for c in r.checks if c.residual.startswith("not applicable")}
    assert na == {"e", "i"}
    assert {c.residual for c in r.checks if c.code in na} == {
        "not applicable: rigid-body space of dimension 5 < 6"}
    assert (r.rank_phi0, r.dims_moment[1]) == (5, 6)
    assert r.dims_anchored == (0, 1)
    assert r.rigid_dim == 5
    counting = {c.name: c for c in r.counting}
    assert not counting["anchored_stress_count"].applicable


def test_exactness_is_subspace_equality_not_just_dims(corpus_reports):
    # spot check: im phi* really is ker pi* as subspaces for Desargues
    f = make_desargues(Fraction(1, 2))
    ctx = _LesContext(f)
    assert same_span(ctx.phi1.image, ctx.pi1.kernel)
    assert same_span(ctx.pi1.image, ctx.theta.kernel)


def _exact_by_ranks(a: InducedMap, b: InducedMap) -> bool:
    """Whether im A = ker B for composable exact maps A, B, read off ranks:
    rank A = n - rank B and BA = 0, n the source dimension of B.  Asserts on
    the way that rank [im A; ker B] = (n - rank B) + rank BA."""
    n = b.form[0].shape[1]
    composite = b.form[0] @ a.form[0]
    assert rank(np.vstack([a.image, b.kernel])) == (n - b.rank) + rank(composite)
    return a.rank == n - b.rank and not any(composite.ravel().tolist())


def test_exactness_checks_b_c_h_are_a_rank_identity(corpus):
    # the report decides (b), (c) and (h) from ranks without writing a
    # kernel basis; the rank identity, which reads the kernels, agrees
    for label, f in corpus:
        if les.les_obstacle(f):
            continue
        ctx = _LesContext(f)
        passed = {c.code: c.passed for c in les._report_from_context(ctx).checks}
        maps = (ctx.phi1, ctx.pi1, ctx.theta, ctx.phi0)
        assert not any("kernel" in vars(m) for m in maps), label
        for code, a, b in zip("bch", maps, maps[1:]):
            assert _exact_by_ranks(a, b) == passed[code], (label, code)


def test_float_exactness_checks_compare_kernel_bases():
    ctx = _LesContext(make_desargues(Fraction(1, 2)).as_float())
    les._report_from_context(ctx)
    assert all("kernel" in vars(m) for m in (ctx.pi1, ctx.theta, ctx.phi0))


@pytest.mark.parametrize("code, broken", [("b", "phi1"), ("b", "pi1"), ("c", "pi1"),
                                          ("c", "theta"), ("h", "theta"), ("h", "phi0")])
def test_a_broken_map_fails_its_rank_read_check_as_the_bases_do(code, broken):
    # a random integer map in place of one side of the node: the check read
    # off ranks carries the verdict and residual of comparing the bases
    ctx = _LesContext(make_desargues(Fraction(1, 2)))
    rng = random.Random(code + broken)
    shape = getattr(ctx, broken).form[0].shape
    ctx.__dict__[broken] = InducedMap((exact_matrix(
        [[rng.randint(-2, 2) for _ in range(shape[1])] for _ in range(shape[0])]), 1))
    a, b = {"b": (ctx.phi1, ctx.pi1), "c": (ctx.pi1, ctx.theta), "h": (ctx.theta, ctx.phi0)}[code]
    check = next(c for c in les._report_from_context(ctx).checks if c.code == code)
    assert not check.passed
    assert check == les._subspace_check(code, check.description, a.image, b.kernel)


def _int_matrix(nrows, ncols):
    return st.lists(st.lists(st.integers(-2, 2), min_size=ncols, max_size=ncols),
                    min_size=nrows, max_size=nrows)


@settings(max_examples=60, deadline=None)
@given(st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4)).flatmap(
    lambda d: st.tuples(_int_matrix(d[1], d[0]), _int_matrix(d[2], d[1]))))
def test_rank_identity_fails_the_check_on_a_nonzero_composite(mats):
    a, b = (InducedMap((exact_matrix(m), 1)) for m in mats)
    assume(any((b.form[0] @ a.form[0]).ravel().tolist()))
    assert not _exact_by_ranks(a, b)
    assert not same_span(a.image, b.kernel)


@pytest.mark.parametrize("mode,a,b,passed,residual", [
    ("exact", [[1, 2, 0], [0, 1, 1]], [[1, 3, 1], [2, 4, 0]], True, "exact subspace equality"),
    ("exact", [[1, 0, 0]], [[0, 1, 0]], False, "dims 1 vs 1, union rank 2"),
    ("exact", [], [[0, 1, 0]], False, "dims 0 vs 1"),
    ("float", [], [[0, 1, 0]], False, "dims 0 vs 1"),
    ("float", [[1, 0, 0]], [[0, 1, 0]], False, "largest principal angle 1.571e+00"),
])
def test_subspace_check_reports_its_residual(mode, a, b, passed, residual):
    matrix = exact_matrix if mode == "exact" else float_matrix
    check = les._subspace_check("x", "a = b", span_rows(matrix(a, 3)), span_rows(matrix(b, 3)))
    assert (check.passed, check.residual) == (passed, residual)


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
    b = assemble_boundary(build_anchored_cosheaf(f))
    assert len(kernel_basis(b)) == expected


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


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_scan_rows_read_their_dims_off_the_eliminations(monkeypatch, mode):
    # phi1*, pi1* and theta eliminate B_F, B_M and B_N, so a scan row reads its
    # dims off them and pays for neither gauge: with both patched to raise, a
    # Desargues scan returns the rows that the gauge's dims give
    f = make_desargues(Fraction(1, 2))
    f = f if mode == "exact" else f.as_float()
    mags, seeds = [Fraction(0), Fraction(1, 100), Fraction(1, 1000)], [1, 2, 3]
    expected = []
    for mag in mags:
        for seed in seeds:
            ctx = _LesContext(perturb(f, mag, seed))
            expected.append(les.ScanRow(mag, seed, True, *ctx.dims, ctx.phi1.rank,
                                        ctx.pi1.rank, ctx.theta.rank))

    def refuse(*args):
        raise AssertionError("a scan row read the gauge")
    monkeypatch.setattr(les, "moment_rank", refuse)
    monkeypatch.setattr(les, "anchored_dims", refuse)
    assert list(perturbation_scan(f, mags, seeds)) == expected


def test_scan_square_dims_are_perturbation_stable():
    f = make_named("square")
    rows = perturbation_scan(f, [Fraction(0), Fraction(1, 100)], [2, 5])
    sigs = {(r.dims_force, r.dims_moment, r.dims_anchored) for r in rows}
    assert sigs == {((0, 4), (3, 3), (4, 0))}


def test_scan_reads_one_shot_iterables_once():
    f = make_named("square")
    mags = [Fraction(0), Fraction(1, 100)]
    rows = perturbation_scan(f, iter(mags), (s for s in range(1, 4)))
    assert rows == perturbation_scan(f, mags, [1, 2, 3])
    assert [(r.magnitude, r.seed) for r in rows] == [(m, s) for m in mags for s in (1, 2, 3)]


def test_scan_flags_invalid_rows(monkeypatch):
    from framehom import framework as fw_mod

    real = les.perturb

    def sometimes_broken(f, magnitude, seed):
        if seed == 2:
            raise fw_mod.FrameworkError("zero-length edge 0: (0, 1)")
        return real(f, magnitude, seed)

    monkeypatch.setattr(les, "perturb", sometimes_broken)
    rows = perturbation_scan(make_named("square"), [Fraction(1, 100)], [1, 2, 3])
    flags = [(r.seed, r.valid) for r in rows]
    assert flags == [(1, True), (2, False), (3, True)]
    assert "zero-length" in rows[1].error


def test_scan_lets_an_internal_error_propagate(monkeypatch):
    def broken(m, degree):
        raise ValueError("cosheaf map does not commute")

    monkeypatch.setattr(les, "induced_map", broken)
    with pytest.raises(ValueError, match="does not commute"):
        perturbation_scan(make_desargues(Fraction(1, 2)), [Fraction(1, 100)], [1, 2])


def test_scan_requires_connected():
    f = parse_framework("dim 2\nv 0 0 0\nv 1 1 0\nv 2 5 5\nv 3 6 5\ne 0 1\ne 2 3\n")
    with pytest.raises(ValueError, match="connected"):
        perturbation_scan(f, [Fraction(0)], [1])


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
