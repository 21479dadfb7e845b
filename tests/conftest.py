import pytest

from framehom import linalg, make_desargues, make_named, verify_les
from framehom.cosheaf import CosheafMap
from framehom.les import _LesContext

RANDOM_2D_SEEDS = range(10)
RANDOM_3D_SEEDS = range(10)


def build_corpus():
    """The standard test corpus: named frameworks, Desargues, 20 randoms."""
    frameworks = [
        ("bar", make_named("bar")),
        ("triangle", make_named("triangle")),
        ("square", make_named("square")),
        ("box3d", make_named("box3d")),
        ("desargues", make_desargues("1/2")),
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
