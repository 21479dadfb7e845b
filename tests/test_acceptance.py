"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one ``[PASS]``/``[FAIL]`` line (visible with ``pytest -s``
or in captured output) and then asserts, so a red criterion is also a red
test.  All homology assertions run in exact mode with zero tolerance.
"""

import json
import random
import time
from fractions import Fraction

from conftest import exact_matrix, float_matrix, same_span, theta_with_random_section
from framehom import (
    counting_rules,
    make_desargues,
    make_named,
    perturb,
    save_framework,
    verify_les,
)
from framehom.cli import main
from framehom.cosheaf import assemble_boundary
from framehom.les import _LesContext
from framehom.linalg import rank
from framehom.structural import (
    build_anchored_cosheaf,
    build_force_cosheaf,
    build_moment_cosheaf,
)


def _report(num, desc, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {desc}")
    return ok


def _signature(r):
    return (r.dims_force, r.dims_moment, r.dims_anchored, r.rigid_dim, r.mech_dim,
            r.rank_phi1, r.rank_pi1, r.rank_theta)


def test_criterion_1_box_frame_golden_table(tmp_path, capsys):
    path = tmp_path / "square.fw"
    save_framework(make_named("square"), path)
    t0 = time.perf_counter()
    code = main(["analyze", str(path), "--json"])
    elapsed = time.perf_counter() - t0
    doc = json.loads(capsys.readouterr().out)
    ok = (code == 0
          and doc["dims"] == {"force": {"h1": 0, "h0": 4},
                              "moment": {"h1": 3, "h0": 3},
                              "anchored": {"h1": 4, "h0": 0}}
          and elapsed < 1.0)
    with capsys.disabled():
        assert _report(1, f"square frame dims table, {elapsed:.2f}s", ok)


def test_criterion_2_desargues_golden_table(tmp_path, capsys):
    path = tmp_path / "desargues.fw"
    save_framework(make_desargues(Fraction(1, 2)), path)
    t0 = time.perf_counter()
    code = main(["analyze", str(path), "--json"])
    elapsed = time.perf_counter() - t0
    doc = json.loads(capsys.readouterr().out)
    ok = (code == 0
          and doc["dims"] == {"force": {"h1": 1, "h0": 4},
                              "moment": {"h1": 12, "h0": 3},
                              "anchored": {"h1": 12, "h0": 0}}
          and doc["ranks"] == {"phi_star_h1": 1, "pi_star_h1": 11,
                               "theta": 1, "phi_star_h0": 3}
          and elapsed < 5.0)
    with capsys.disabled():
        assert _report(2, f"Desargues dims and induced ranks, {elapsed:.2f}s", ok)


def test_criterion_3_counting_rules_on_50_randoms(capsys):
    t0 = time.perf_counter()
    bad = []
    for dim_name, count in (("random2d", 25), ("random3d", 25)):
        for seed in range(count):
            f = make_named(dim_name, seed)
            for c in counting_rules(f):
                if not (c.applicable and c.passed):
                    bad.append((dim_name, seed, c))
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 60.0
    with capsys.disabled():
        assert _report(3, f"counting rules on 50 random frameworks, {elapsed:.1f}s",
                       ok), bad


def test_criterion_4_les_exactness_suite(corpus_reports, capsys):
    bad = {}
    for label, report in corpus_reports.items():
        failures = [c.code for c in report.checks if not c.passed]
        failures += [c.name for c in report.counting if not c.passed]
        if failures:
            bad[label] = failures
    ok = not bad
    with capsys.disabled():
        assert _report(4, f"LES exactness (a)-(g) on {len(corpus_reports)} corpus "
                          "frameworks", ok), bad


def test_criterion_5_theta_image_is_the_mechanism_space(corpus, capsys):
    bad = []
    for label, f in corpus:
        ctx = _LesContext(f)
        if not same_span(ctx.mechanism_basis_ambient(), ctx.mech):
            bad.append(label)
    # the square's single mechanism: equal-magnitude corner velocities in
    # the parallelogram shear pattern, up to one overall scale
    ctx = _LesContext(make_named("square"))
    mech = ctx.mechanism_basis_ambient()
    pattern = [1, 1, 1, -1, -1, -1, -1, 1]  # (1,1),(1,-1),(-1,-1),(-1,1) per corner
    square_ok = len(mech) == 1
    if square_ok:
        v = list(mech[0])
        base = next((Fraction(a, b) for a, b in zip(v, pattern) if b and a), None)
        square_ok = base is not None and all(x == base * p for x, p in zip(v, pattern))
        mags = [v[2 * i] ** 2 + v[2 * i + 1] ** 2 for i in range(4)]
        square_ok = square_ok and len(set(mags)) == 1
    ok = not bad and square_ok
    with capsys.disabled():
        assert _report(5, "theta image equals the mechanism space; square shear "
                          "pattern", ok), (bad, square_ok)


def test_criterion_6_perturbation_migration(capsys):
    f = make_desargues(Fraction(1, 2))
    baseline = verify_les(f)
    ok = _signature(baseline)[:3] == ((1, 4), (12, 3), (12, 0)) \
        and (baseline.rank_phi1, baseline.rank_pi1) == (1, 11)
    bad = []
    for seed in range(1, 11):
        r = verify_les(perturb(f, Fraction(1, 100), seed))
        got = (r.dims_force, r.dims_moment, r.dims_anchored, r.rank_phi1, r.rank_pi1)
        if got != ((0, 3), (12, 3), (12, 0), 0, 12):
            bad.append((seed, got))
    ok = ok and not bad
    with capsys.disabled():
        assert _report(6, "Desargues stress migrates into the frame under 10 "
                          "perturbation seeds", ok), bad


def test_criterion_7_float_exact_rank_oracle_equivalence(corpus, capsys):
    bad = []
    for label, f in corpus:
        g = f.as_float()
        for build in (build_force_cosheaf, build_moment_cosheaf,
                      build_anchored_cosheaf):
            exact_rank = rank(assemble_boundary(build(f)))
            float_rank = rank(assemble_boundary(build(g)))
            if exact_rank != float_rank:
                bad.append((label, build.__name__, exact_rank, float_rank))
    rng = random.Random(777)
    for i in range(100):
        rows = [[rng.randint(-10, 10) for _ in range(rng.randint(1, 30))]]
        cols = len(rows[0])
        rows += [[rng.randint(-10, 10) for _ in range(cols)]
                 for _ in range(rng.randint(0, 19))]
        if rank(exact_matrix(rows)) != rank(float_matrix(rows)):
            bad.append(("random-matrix", i))
    ok = not bad
    with capsys.disabled():
        assert _report(7, "float-mode SVD ranks match exact ranks (corpus + 100 "
                          "matrices)", ok), bad


def test_criterion_8_section_independence(corpus, capsys):
    bad = []
    for label, f in corpus:
        a = theta_with_random_section(f, random.Random(1000))
        b = theta_with_random_section(f, random.Random(2000))
        if a.matrix.shape != b.matrix.shape or not (a.matrix == b.matrix).all():
            bad.append(label)
    ok = not bad
    with capsys.disabled():
        assert _report(8, "connecting map is identical under two randomized "
                          "sections", ok), bad


def test_criterion_9_invariance_suite(corpus, corpus_reports, capsys):
    bad = []
    rot2 = [[Fraction(3, 5), Fraction(-4, 5)], [Fraction(4, 5), Fraction(3, 5)]]
    rot3 = [[Fraction(3, 5), Fraction(-4, 5), Fraction(0)],
            [Fraction(4, 5), Fraction(3, 5), Fraction(0)],
            [Fraction(0), Fraction(0), Fraction(1)]]
    for label, f in corpus:
        base = _signature(corpus_reports[label])
        small = f.num_edges <= 9
        flips = range(f.num_edges) if small else [0]
        for k in flips:
            if _signature(verify_les(f.with_flipped_edge(k))) != base:
                bad.append((label, f"flip edge {k}"))
        rng = random.Random(f"perm:{label}")
        perm = list(range(f.num_vertices))
        rng.shuffle(perm)
        if _signature(verify_les(f.with_vertex_permutation(perm))) != base:
            bad.append((label, "vertex permutation"))
        rot = rot2 if f.dim == 2 else rot3
        offset = tuple(Fraction(c) for c in ((5, 7) if f.dim == 2 else (5, 7, -2)))
        if _signature(verify_les(f.transformed(rot, offset))) != base:
            bad.append((label, "rigid motion"))
    ok = not bad
    with capsys.disabled():
        assert _report(9, "dims and ranks invariant under edge flips, vertex "
                          "permutations, rigid motions", ok), bad
