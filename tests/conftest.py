from fractions import Fraction

import numpy as np
import pytest

from framehom import linalg, make_desargues, make_named, verify_les
from framehom import make_grid as grid, make_lattice as lattice  # noqa: F401
from framehom.cosheaf import Cosheaf, CosheafMap
from framehom.framework import affine_dim
from framehom.linalg import from_integer_form, subspace_contains
from framehom.les import _LesContext

RANDOM_2D_SEEDS = range(10)
RANDOM_3D_SEEDS = range(10)


def exact_matrix(rows, cols=None):
    """Nested rows of rationals as an exact-mode (object) matrix; ``cols``
    gives a matrix without rows its width."""
    return np.array(rows, dtype=object).reshape(len(rows), -1 if cols is None else cols)


def float_matrix(rows, cols=None):
    """Nested rows as a float-mode matrix; ``cols`` as for ``exact_matrix``."""
    return np.array(rows, dtype=float).reshape(len(rows), -1 if cols is None else cols)


def stalk_table(*cells):
    """Per-cell tuples of matrices as one table: ``(maps, slots, ...)`` with
    each distinct matrix object once in ``maps``, in first-seen order, and
    one tuple of slots into ``maps`` per tuple of cells."""
    table = {}  # id of a matrix -> (slot, matrix); the cells keep every id alive
    slots = tuple(tuple(table.setdefault(id(m), (len(table), m))[0] for m in group)
                  for group in cells)
    return (tuple(m for _, m in table.values()), *slots)


def per_cell_cosheaf(f, vertex_dim, edge_dim, tail_maps, head_maps, den=1):
    """The ``Cosheaf`` whose edge k has the stalk maps ``tail_maps[k]`` and
    ``head_maps[k]``, cells handed the same object sharing its slot."""
    maps, tails, heads = stalk_table(tail_maps, head_maps)
    return Cosheaf(base=f, vertex_dim=vertex_dim, edge_dim=edge_dim, maps=maps,
                   tail_slots=tails, head_slots=heads, den=den)


def per_cell_map(source, target, vertex_maps, edge_maps, den=1):
    """The ``CosheafMap`` with the maps ``vertex_maps[v]`` and ``edge_maps[k]``,
    cells handed the same object sharing its slot."""
    maps, vertex_slots, edge_slots = stalk_table(vertex_maps, edge_maps)
    return CosheafMap(source=source, target=target, maps=maps, vertex_slots=vertex_slots,
                      edge_slots=edge_slots, den=den)


def same_span(a, b):
    """Whether the bases ``a`` and ``b`` span one subspace."""
    return len(a) == len(b) and subspace_contains(a, b)


def affine_dims_of_positions(f):
    """``framework.affine_dim`` of each component's positions, components in
    order of their first vertex, found by a search of their own: the oracle of
    ``Framework.affine_dims``, which ranks the bar directions instead."""
    adjacent = [set() for _ in f.positions]
    for t, h in f.edges:
        adjacent[t].add(h)
        adjacent[h].add(t)
    seen, dims = set(), []
    for v in range(f.num_vertices):
        if v in seen:
            continue
        seen.add(v)
        stack, component = [v], []
        while stack:
            component.append(u := stack.pop())
            stack += adjacent[u] - seen
            seen |= adjacent[u]
        dims.append(affine_dim(f.dim, [f.positions[u] for u in sorted(component)], f.mode))
    return tuple(dims)


def block_boundary(k):
    """B written block by block: +head map in the head vertex's rows, -tail map
    in the tail's, in the edge's columns; cells in list order."""
    b = linalg.zeros(k.c0_dim, k.c1_dim, k.mode)
    vd, ed = k.vertex_dim, k.edge_dim
    for e, (t, h) in enumerate(k.base.edges):
        cols = slice(e * ed, (e + 1) * ed)
        b[h * vd:(h + 1) * vd, cols] += k.stalk_map(e, h)
        b[t * vd:(t + 1) * vd, cols] -= k.stalk_map(e, t)
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
    section, phi = ctx.section, ctx.phi
    vertex_maps = tuple(from_integer_form(m, section.den) for m in section.vertex_maps)
    edge_maps = []
    for e, sec in enumerate(section.edge_maps):
        r = linalg.zeros(ctx.force.edge_dim, sec.shape[1], ctx.f.mode)
        for i in range(r.shape[0]):
            for j in range(r.shape[1]):
                r[i, j] = rng.randint(-3, 3)
        edge_maps.append(from_integer_form(sec, section.den)
                         + from_integer_form(phi.edge_maps[e], phi.den) @ r)
    return per_cell_map(ctx.anch, ctx.moment, vertex_maps, tuple(edge_maps))


def theta_with_random_section(f, rng):
    """The connecting map of ``f`` computed through ``random_section``."""
    ctx = _LesContext(f)
    ctx.section = random_section(ctx, rng)
    return ctx.theta
