"""The three structural cosheaves over a framework and the maps joining them.

* force cosheaf  — pin-jointed truss statics: one axial scalar per bar,
  nodal force vectors at vertices; stalk maps embed the axial line along
  the bar direction.
* moment cosheaf — rigid-frame statics: force couples (moment bivector +
  force vector) at edge centers and vertices; stalk maps transport a
  couple from the edge center to an endpoint, picking up the lever-arm
  moment F ^ lever.
* anchored cosheaf — the quotient of the moment cosheaf by the embedded
  axial forces: mid-member sliding joints kill axial force, pinned vertex
  anchors absorb net force, so only moments and transverse shears remain.

Moment stalk coordinate order is (M, Fx, Fy) in the plane and
(Myz, Mzx, Mxy, Fx, Fy, Fz) in space.  Force vertex stalks are (Fx, Fy)
or (Fx, Fy, Fz) and force edge stalks the axial scalar t.  Anchored
stalks are coordinates in a basis of the complement of the axial forces:
the moments at a vertex, the moments and transverse shears (V, or V1, V2
in space) on an edge.  Bar directions are used unnormalized (head - tail)
so exact rational arithmetic survives.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from . import linalg
from .cosheaf import Cosheaf, CosheafMap, QuotientCosheaf, quotient_cosheaf
from .framework import Framework
from .linalg import MODE_EXACT, SubspaceBasis, span_rows


@dataclass(frozen=True)
class Wedge2:
    """A bivector in Lambda^2 R^n: 1 component (n=2) or 3 components (n=3)."""

    components: tuple

    def __post_init__(self):
        if len(self.components) not in (1, 3):
            raise ValueError("bivector needs 1 (planar) or 3 (spatial) components")


def wedge(a, b) -> Wedge2:
    """Exterior product of two vectors: the moment of force a at lever b.

    In the plane this is the single x^y coefficient a_x b_y - a_y b_x; in
    space the three components (yz, zx, xy), matching the cross product.
    """
    if len(a) != len(b):
        raise ValueError("wedge needs two vectors of the same dimension")
    if len(a) == 2:
        return Wedge2((a[0] * b[1] - a[1] * b[0],))
    if len(a) == 3:
        return Wedge2((a[1] * b[2] - a[2] * b[1],
                       a[2] * b[0] - a[0] * b[2],
                       a[0] * b[1] - a[1] * b[0]))
    raise ValueError("only 2- and 3-dimensional vectors are supported")


def moment_dim(n: int) -> int:
    return 1 if n == 2 else 3


def couple_dim(n: int) -> int:
    return moment_dim(n) + n


def _couple_transport(lever, n: int, mode: str) -> np.ndarray:
    """Stalk map (M, F) -> (M + F ^ lever, F) in matrix form.

    Column j of the lever block is the unit vector e_j wedged with the lever.
    """
    w = moment_dim(n)
    out = linalg.identity(w + n, mode)
    for j in range(n):
        unit = [1 if i == j else 0 for i in range(n)]
        for i, c in enumerate(wedge(unit, lever).components):
            out[i, w + j] = c if mode == MODE_EXACT else float(c)
    return out


def build_force_cosheaf(f: Framework) -> Cosheaf:
    """Axial force cosheaf: edge stalks R, vertex stalks R^n.

    Both stalk maps of an edge are the single column spanned by the bar
    direction head - tail, so an axial scalar becomes a force along the
    bar.
    """
    n = f.dim
    cols = []
    for k in range(f.num_edges):
        d = f.edge_geometry(k).direction
        col = linalg.zeros(n, 1, f.mode)
        for i in range(n):
            col[i, 0] = d[i]
        cols.append(col)
    return Cosheaf(
        base=f,
        vertex_dims=(n,) * f.num_vertices,
        edge_dims=(1,) * f.num_edges,
        tail_maps=tuple(cols),
        head_maps=tuple(cols),
    )


def build_moment_cosheaf(f: Framework) -> Cosheaf:
    """Moment cosheaf: force-couple stalks on every cell.

    The stalk map into an endpoint transports the couple from the edge
    center: the lever is +half_lever into the head and -half_lever into
    the tail.  Edge ends with equal levers share one matrix.
    """
    n = f.dim
    transport = cache(lambda lever: _couple_transport(lever, n, f.mode))
    tails, heads = [], []
    for k in range(f.num_edges):
        half = f.edge_geometry(k).half_lever
        heads.append(transport(half))
        tails.append(transport(tuple(-x for x in half)))
    return Cosheaf(
        base=f,
        vertex_dims=(couple_dim(n),) * f.num_vertices,
        edge_dims=(couple_dim(n),) * f.num_edges,
        tail_maps=tuple(tails),
        head_maps=tuple(heads),
    )


def build_phi(f: Framework) -> CosheafMap:
    """The embedding of truss statics into frame statics.

    Edge maps send an axial scalar t to the zero-moment couple
    (0, t * direction); vertex maps pad nodal forces with a zero moment.
    The commuting condition holds because the bar direction wedged with
    its own half lever vanishes.
    """
    n = f.dim
    w = moment_dim(n)
    force = build_force_cosheaf(f)
    moment = build_moment_cosheaf(f)
    vmap = linalg.zeros(w + n, n, f.mode)
    for i in range(n):
        vmap[w + i, i] = 1 if f.mode == MODE_EXACT else 1.0
    emaps = []
    for k in range(f.num_edges):
        d = f.edge_geometry(k).direction
        col = linalg.zeros(w + n, 1, f.mode)
        for i in range(n):
            col[w + i, 0] = d[i]
        emaps.append(col)
    return CosheafMap(
        source=force,
        target=moment,
        vertex_maps=(vmap,) * f.num_vertices,
        edge_maps=tuple(emaps),
    )


def build_anchored_cosheaf(f: Framework) -> QuotientCosheaf:
    """Anchored cosheaf: the moment cosheaf modulo embedded axial forces.

    Edge stalks keep the moment plus the transverse shear (dim 2 in the
    plane, 5 in space); vertex stalks keep only moments (dim 1 / 3), the
    pinned anchors absorbing residual force.  Returns the quotient with
    its projection and sections.
    """
    return quotient_cosheaf(build_phi(f))


def rigid_body_space(f: Framework) -> SubspaceBasis:
    """Rigid-body velocity fields inside the truss C_0 space.

    Spanned by the n translations and the n(n-1)/2 infinitesimal rotations
    about the origin evaluated at the vertex positions.  These annihilate
    the transposed boundary matrix, so they already lie in the degree-0
    homology representative space; no projection is needed.
    """
    if not f.connected():
        raise ValueError("rigid-body space is defined for connected frameworks")
    n = f.dim
    ambient = n * f.num_vertices
    gens = []
    one = 1 if f.mode == MODE_EXACT else 1.0
    for axis in range(n):
        row = linalg.zeros(1, ambient, f.mode)[0]
        for v in range(f.num_vertices):
            row[v * n + axis] = one
        gens.append(row)
    for field in _rotation_fields(f):
        gens.append(field)
    stacked = np.vstack([g.reshape(1, -1) for g in gens])
    return span_rows(stacked, ambient)


def _rotation_fields(f: Framework):
    n = f.dim
    ambient = n * f.num_vertices
    if n == 2:
        row = linalg.zeros(1, ambient, f.mode)[0]
        for v, p in enumerate(f.positions):
            row[v * n] = -p[1]
            row[v * n + 1] = p[0]
        yield row
        return
    for omega in range(3):
        row = linalg.zeros(1, ambient, f.mode)[0]
        for v, p in enumerate(f.positions):
            if omega == 0:                       # about x: (0, -z, y)
                row[v * n + 1] = -p[2]
                row[v * n + 2] = p[1]
            elif omega == 1:                     # about y: (z, 0, -x)
                row[v * n] = p[2]
                row[v * n + 2] = -p[0]
            else:                                # about z: (-y, x, 0)
                row[v * n] = -p[1]
                row[v * n + 1] = p[0]
        yield row
