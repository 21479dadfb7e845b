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

In R^n a moment has one coordinate M_ij per pair of ``bivector_pairs(n)``:
lexicographic i < j, except the cross-product order (yz, zx, xy) in space.
Moment stalks list those n(n-1)/2 moments, then the force (F_0, ..., F_n-1):
(M, Fx, Fy) in the plane, (Myz, Mzx, Mxy, Fx, Fy, Fz) in space,
(M01, M02, M03, M12, M13, M23, F0, F1, F2, F3) in R^4.  Force vertex stalks
are the n force components and force edge stalks the axial scalar t.
Anchored stalks are coordinates in a basis of the complement of the axial
forces: the moments at a vertex, the moments and the n - 1 transverse
shears on an edge.  Bar directions are used unnormalized (head - tail) so
exact rational arithmetic survives.

The stalk maps are made from the framework's ``direction_form``, the
directions as integers over one common denominator D: a force column is
(P_h - P_t) over D, a couple transport (2D I + lever entries) over 2D, a
``phi`` edge map the force column under zero moment rows, over D.  Each
cosheaf and map is handed these forms with its matrices; in float mode the
form is the float matrix, over 1, and halving it is exact.
"""

from __future__ import annotations

from functools import cache

import numpy as np

from . import linalg
from .cosheaf import Cosheaf, CosheafMap, quotient_cosheaf
from .framework import Framework
from .linalg import MODE_EXACT, SubspaceBasis, from_integer_form, span_rows


@cache
def bivector_pairs(n: int) -> tuple:
    """The coordinate pairs (i, j) that index bivectors in Lambda^2 R^n.

    Lexicographic i < j, except in space, where the cross-product order
    (yz, zx, xy) makes the moment coordinates those of the moment vector.
    """
    if n == 3:
        return ((1, 2), (2, 0), (0, 1))
    return tuple((i, j) for i in range(n) for j in range(i + 1, n))


def wedge(a, b) -> tuple:
    """Exterior product of two vectors: the moment of force a at lever b.

    One component a_i b_j - a_j b_i per pair of ``bivector_pairs``: the
    single x^y coefficient in the plane, the cross product in space.
    """
    if len(a) != len(b):
        raise ValueError("wedge needs two vectors of the same dimension")
    return tuple(a[i] * b[j] - a[j] * b[i] for i, j in bivector_pairs(len(a)))


def moment_dim(n: int) -> int:
    return n * (n - 1) // 2


def couple_dim(n: int) -> int:
    return moment_dim(n) + n


def _stalk(ints: np.ndarray, den) -> tuple[np.ndarray, tuple]:
    """The stalk map ints / den and the form its cosheaf is handed: (ints, den)
    in exact mode, the float matrix over 1 in float mode (halving is exact)."""
    if linalg.mode_of(ints) != MODE_EXACT:
        ints, den = ints / den, 1
    return from_integer_form(ints, den), (ints, den)


def _padded_direction(pad: int, delta, den, mode: str) -> tuple[np.ndarray, tuple]:
    """The column of ``pad`` zeros over the direction delta / den, and its form."""
    col = linalg.zeros(pad + len(delta), 1, mode)
    col[pad:, 0] = delta
    return _stalk(col, den)


def _transport(delta, den, mode: str) -> tuple[np.ndarray, tuple]:
    """Stalk map (M, F) -> (M + F ^ lever, F) for the lever delta / (2 den),
    and its form over 2 den: 2 den on the diagonal, and moment row r = (i, j)
    picks up delta_j F_i - delta_i F_j."""
    n = len(delta)
    w = moment_dim(n)
    out = linalg.zeros(w + n, w + n, mode)
    out[range(w + n), range(w + n)] = 2 * den
    for r, (i, j) in enumerate(bivector_pairs(n)):
        out[r, w + i] = delta[j]
        out[r, w + j] = -delta[i]
    return _stalk(out, 2 * den)


def build_force_cosheaf(f: Framework) -> Cosheaf:
    """Axial force cosheaf: edge stalks R, vertex stalks R^n.

    Both stalk maps of an edge are the single column spanned by the bar
    direction head - tail, so an axial scalar becomes a force along the
    bar.  Edges with equal directions share one matrix.
    """
    deltas, den = f.direction_form
    column = cache(lambda d: _padded_direction(0, d, den, f.mode))
    cols = [column(d) for d in deltas]
    maps = tuple(m for m, _ in cols)
    return Cosheaf(
        base=f,
        vertex_dims=(f.dim,) * f.num_vertices,
        edge_dims=(1,) * f.num_edges,
        tail_maps=maps,
        head_maps=maps,
        forms=cols,
    )


def build_moment_cosheaf(f: Framework) -> Cosheaf:
    """Moment cosheaf: force-couple stalks on every cell.

    The stalk map into an endpoint transports the couple from the edge
    center: the lever is +half the direction into the head and -half into
    the tail.  Edge ends with equal levers share one matrix.
    """
    deltas, den = f.direction_form
    transport = cache(lambda d: _transport(d, den, f.mode))
    tails, heads = [], []
    for d in deltas:
        heads.append(transport(d))
        tails.append(transport(tuple(-x for x in d)))
    return Cosheaf(
        base=f,
        vertex_dims=(couple_dim(f.dim),) * f.num_vertices,
        edge_dims=(couple_dim(f.dim),) * f.num_edges,
        tail_maps=tuple(m for m, _ in tails),
        head_maps=tuple(m for m, _ in heads),
        forms=tails + heads,
    )


def build_phi(f: Framework) -> CosheafMap:
    """The embedding of truss statics into frame statics.

    Edge maps send an axial scalar t to the zero-moment couple
    (0, t * direction); vertex maps pad nodal forces with a zero moment.
    The commuting condition holds because the bar direction wedged with
    its own half lever vanishes.  Equal directions share one edge map.
    """
    n = f.dim
    w = moment_dim(n)
    vmap = linalg.zeros(w + n, n, f.mode)
    for i in range(n):
        vmap[w + i, i] = 1
    deltas, den = f.direction_form
    column = cache(lambda d: _padded_direction(w, d, den, f.mode))
    emaps = [column(d) for d in deltas]
    return CosheafMap(
        source=build_force_cosheaf(f),
        target=build_moment_cosheaf(f),
        vertex_maps=(vmap,) * f.num_vertices,
        edge_maps=tuple(m for m, _ in emaps),
        forms=emaps + [(vmap, (vmap, 1))],
    )


def build_anchored_cosheaf(f: Framework) -> Cosheaf:
    """Anchored cosheaf: the moment cosheaf modulo embedded axial forces.

    Edge stalks keep the moments plus the transverse shears (dim
    n(n+1)/2 - 1: 2 in the plane, 5 in space); vertex stalks keep only the
    n(n-1)/2 moments, the pinned anchors absorbing residual force.
    """
    projection, _ = quotient_cosheaf(build_phi(f))
    return projection.target


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
        row[axis::n] = one
        gens.append(row)
    gens.extend(_rotation_fields(f))
    return span_rows(np.vstack(gens), ambient)


def _rotation_fields(f: Framework):
    """One infinitesimal rotation per coordinate plane (i, j): v_i = -p_j, v_j = p_i."""
    n = f.dim
    for i, j in bivector_pairs(n):
        row = linalg.zeros(1, n * f.num_vertices, f.mode)[0]
        row[i::n] = [-p[j] for p in f.positions]
        row[j::n] = [p[i] for p in f.positions]
        yield row
