"""Projective invariance: a projective map of the coordinates keeps every
dimension, rank and verdict of the long exact sequence, and carries
self-stresses along by a per-bar scale."""

import random
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from conftest import exact_matrix, same_span
from framehom import Framework, verify_les
from framehom.les import _LesContext
from framehom.linalg import rank, span_rows

FRAMES = ("square", "triangle", "box3d", "desargues", "grid4", "lattice2")
SEEDS = (1, 2)


def projective_map(f: Framework, seed: int):
    """(g, d): ``f`` under x -> (Ax + b) / (c.x + 1) with small seeded integer
    A, b and rational c != 0, and d_i = c.p_i + 1 > 0 at each vertex i.  The
    homogeneous matrix [[A, b], [c, 1]] is invertible, so g is a framework."""
    rng, n = random.Random(seed), f.dim
    bound = 8 * (1 + max(abs(x) for p in f.positions for x in p))
    while True:
        a = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        b = [rng.randint(-2, 2) for _ in range(n)]
        c = [Fraction(rng.randint(-2, 2), bound) for _ in range(n)]
        if any(c) and rank(exact_matrix([r + [t] for r, t in zip(a, b)] + [c + [1]])) == n + 1:
            break
    d = [1 + sum(ci * x for ci, x in zip(c, p)) for p in f.positions]
    assert all(di > 0 for di in d)
    pos = tuple(tuple((sum(aij * x for aij, x in zip(row, p)) + bi) / di
                      for row, bi in zip(a, b)) for p, di in zip(f.positions, d))
    return Framework(n, pos, f.edges), d


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("label", FRAMES)
def test_projective_map_keeps_the_report(corpus, corpus_reports, label, seed):
    g, _ = projective_map(dict(corpus)[label], seed)
    # dims, rigid and mechanism dims, the four ranks, every check and counting
    # rule with its residual; only the mechanism vectors move with the map
    assert (replace(verify_les(g), mechanism_basis=())
            == replace(corpus_reports[label], mechanism_basis=()))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("label", ["desargues", "grid4"])
def test_projective_map_scales_self_stresses_by_their_end_denominators(corpus, label, seed):
    f = dict(corpus)[label]
    g, d = projective_map(f, seed)
    h1 = _LesContext(f).force.h1
    assert len(h1)
    scaled = np.array([[w * d[t] * d[h] for w, (t, h) in zip(row, f.edges)] for row in h1],
                      dtype=object)
    assert rank(scaled) == len(h1)
    assert same_span(_LesContext(g).force.h1, span_rows(scaled))
