from fractions import Fraction

import pytest

from framehom import Framework, linalg, make_desargues, make_named, verify_les
from framehom.cosheaf import CosheafMap
from framehom.les import _LesContext

RANDOM_2D_SEEDS = range(10)
RANDOM_3D_SEEDS = range(10)


def grid(n=3):
    """A triangulated n x n grid: three member directions, every edge one way."""
    edges = [(j * n + i, j * n + i + 1) for j in range(n) for i in range(n - 1)]
    edges += [(j * n + i, (j + 1) * n + i) for j in range(n - 1) for i in range(n)]
    edges += [(j * n + i, (j + 1) * n + i + 1) for j in range(n - 1) for i in range(n - 1)]
    return Framework(2, tuple((i, j) for j in range(n) for i in range(n)), tuple(edges))


def lattice(n=3):
    """An n x n x n lattice with the diagonal of every unit face square from
    its lowest corner, every edge one way."""
    points = [(i, j, k) for k in range(n) for j in range(n) for i in range(n)]
    steps = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (0, 1, 1), (1, 0, 1))
    edges = [(points.index(p), points.index(q)) for p in points for d in steps
             if max(q := tuple(a + b for a, b in zip(p, d))) < n]
    return Framework(3, tuple(points), tuple(edges))


def block_boundary(k):
    """B written block by block: +head map in the head vertex's rows, -tail map
    in the tail's, in the edge's columns; cells in list order."""
    b = linalg.zeros(k.c0_dim, k.c1_dim, k.mode)
    voff = [sum(k.vertex_dims[:v]) for v in range(len(k.vertex_dims))]
    for e, (t, h) in enumerate(k.base.edges):
        cols = slice(sum(k.edge_dims[:e]), sum(k.edge_dims[:e + 1]))
        b[voff[h]:voff[h] + k.vertex_dims[h], cols] += k.head_maps[e]
        b[voff[t]:voff[t] + k.vertex_dims[t], cols] -= k.tail_maps[e]
    return b


def domain_matrix(rows, ncols):
    """The rational rows as a sympy DomainMatrix over QQ, the independent oracle."""
    from sympy import QQ
    from sympy.polys.matrices import DomainMatrix
    return DomainMatrix([[QQ(Fraction(x).numerator, Fraction(x).denominator) for x in r]
                         for r in rows], (len(rows), ncols), QQ)


def fractions_of(dm):
    """The entries of a DomainMatrix over QQ as nested lists of Fraction."""
    return [[Fraction(int(x.numerator), int(x.denominator)) for x in r] for r in dm.to_list()]


def build_corpus():
    """The standard test corpus: named frameworks, Desargues, a triangulated
    4 x 4 grid (16 vertices), the 2 x 2 x 2 lattice, 20 randoms."""
    frameworks = [
        ("bar", make_named("bar")),
        ("triangle", make_named("triangle")),
        ("square", make_named("square")),
        ("box3d", make_named("box3d")),
        ("desargues", make_desargues("1/2")),
        ("grid4", grid(4)),
        ("lattice2", lattice(2)),
    ]
    for seed in RANDOM_2D_SEEDS:
        frameworks.append((f"random2d-{seed}", make_named("random2d", seed)))
    for seed in RANDOM_3D_SEEDS:
        frameworks.append((f"random3d-{seed}", make_named("random3d", seed)))
    return frameworks


@pytest.fixture(scope="session")
def corpus():
    return build_corpus()


@pytest.fixture(scope="session")
def corpus_reports(corpus):
    """verify_les on the whole corpus, computed once per session."""
    return {label: verify_les(f) for label, f in corpus}


def random_section(ctx, rng):
    """A randomized lifting section N -> M for the pipeline ``ctx``.

    Each edge map is the canonical section plus an axial component phi_e @ r
    with entries of r drawn from ``rng.randint(-3, 3)``, edge by edge, row by
    row.  It is still a right inverse of the projection, and the snake
    construction must quotient the axial component away.
    """
    edge_maps = []
    for e, sec in enumerate(ctx.section.edge_maps):
        r = linalg.zeros(ctx.force.edge_dims[e], sec.shape[1], ctx.f.mode)
        for i in range(r.shape[0]):
            for j in range(r.shape[1]):
                r[i, j] = rng.randint(-3, 3)
        edge_maps.append(sec + ctx.phi.edge_maps[e] @ r)
    return CosheafMap(source=ctx.anch, target=ctx.moment,
                      vertex_maps=ctx.section.vertex_maps, edge_maps=tuple(edge_maps))


def theta_with_random_section(f, rng):
    """The connecting map of ``f`` computed through ``random_section``."""
    ctx = _LesContext(f)
    ctx.section = random_section(ctx, rng)
    return ctx.theta
