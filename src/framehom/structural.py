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
  Its dims need no quotient: ``anchored_dims`` reads them off M's gauge.

In R^n a moment has one coordinate M_ij per pair of ``bivector_pairs(n)``:
lexicographic i < j, except the cross-product order (yz, zx, xy) in space.
Moment stalks list those n(n-1)/2 moments, then the force (F_0, ..., F_n-1):
(M, Fx, Fy) in the plane, (Myz, Mzx, Mxy, Fx, Fy, Fz) in space,
(M01, M02, M03, M12, M13, M23, F0, F1, F2, F3) in R^4.  Each cosheaf has
one stalk dim on vertices and one on edges: F has n (the force) and 1 (the
axial scalar t), M n(n+1)/2 on both, and N M's minus F's.  Anchored stalks
are coordinates in a basis of the complement of the axial forces: the
moments at a vertex, the moments and the n - 1 transverse shears on an edge.  Bar directions are used unnormalized (head - tail) so
exact rational arithmetic survives.

The stalk maps are made from the framework's ``direction_form``, the
directions as integers over one common denominator D: a force column is
(P_h - P_t) over D, a couple transport (2D I + lever entries) over 2D, a
``phi`` edge map the force column under zero moment rows and its vertex
map D [0; I], both over D.  Each is made once per slot of the framework's
``direction_index`` (once per signed lever for M), and the index is
handed through as the cells' slots into that table.  Each cosheaf and
map is handed these integers and their denominator, and stores them in
lowest terms; in float mode it divides the float matrices by the
denominator once, and halving is exact.
"""

from __future__ import annotations

import math
from functools import cache

import numpy as np

from . import linalg
from .cosheaf import Cosheaf, CosheafMap, quotient_cosheaf
from .framework import Framework
from .linalg import MODE_EXACT, span_rows


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


def _padded_direction(pad: int, delta, mode: str) -> np.ndarray:
    """The column of ``pad`` zeros over the direction delta."""
    col = linalg.zeros(pad + len(delta), 1, mode)
    col[pad:, 0] = delta
    return col


def _transport_rows(delta, den) -> list:
    """Stalk map (M, F) -> (M + F ^ lever, F) for the lever delta / (2 den),
    times 2 den, as int rows: 2 den on the diagonal, and moment row
    r = (i, j) picks up delta_j F_i - delta_i F_j."""
    n = len(delta)
    w = moment_dim(n)
    rows = [[0] * (w + n) for _ in range(w + n)]
    for r, row in enumerate(rows):
        row[r] = 2 * den
    for row, (i, j) in zip(rows, bivector_pairs(n)):
        row[w + i], row[w + j] = delta[j], -delta[i]
    return rows


def _transport(delta, den, mode: str) -> np.ndarray:
    """``_transport_rows`` as one matrix: object ints in exact mode, float64 in float."""
    return np.array(_transport_rows(delta, den), dtype=object if mode == MODE_EXACT else float)


def build_force_cosheaf(f: Framework) -> Cosheaf:
    """Axial force cosheaf: edge stalks R, vertex stalks R^n.

    Both stalk maps of an edge are the single column spanned by the bar
    direction head - tail, so an axial scalar becomes a force along the
    bar.  The table holds one column per slot of ``direction_index``.
    """
    slots, index = f.direction_index
    return Cosheaf(
        base=f,
        vertex_dim=f.dim,
        edge_dim=1,
        maps=tuple(_padded_direction(0, d, f.mode) for d in slots),
        tail_slots=index,
        head_slots=index,
        den=f.direction_form[1],
    )


def build_moment_cosheaf(f: Framework) -> Cosheaf:
    """Moment cosheaf: force-couple stalks on every cell.

    The stalk map into an endpoint transports the couple from the edge
    center: the lever is +half the direction into the head and -half into
    the tail.  The table holds one matrix per distinct signed lever: the
    head map of direction delta is the tail map of direction -delta.
    """
    (slots, index), den = f.direction_index, f.direction_form[1]
    maps, tails, heads = [], [], []
    for i, d in enumerate(slots):  # an earlier slot -d made this slot's pair, swapped
        if slots.get(m := tuple(-x for x in d), i) < i:
            tails.append(heads[slots[m]])
            heads.append(tails[slots[m]])
        else:
            tails.append(len(maps))
            heads.append(len(maps) + 1)
            maps += [_transport(m, den, f.mode), _transport(d, den, f.mode)]
    return Cosheaf(
        base=f,
        vertex_dim=couple_dim(f.dim),
        edge_dim=couple_dim(f.dim),
        maps=tuple(maps),
        tail_slots=tuple(map(tails.__getitem__, index)),
        head_slots=tuple(map(heads.__getitem__, index)),
        den=2 * den,
    )


def moment_rank(m: Cosheaf) -> int:
    """rank B of the moment cosheaf m, k (|V| - b0), read off its gauge.

    Couple transports compose, T(a) T(b) = T(a + b), so T(p_v) on vertices
    and T(c_e), c_e the bar midpoint, on edges carry the constant cosheaf R^k
    onto m once each stalk map is certified as the transport along its lever
    p_v - c_e, +-delta / 2.  Each distinct (slot, signed lever) is checked
    once, with no matrix made: the stored ints x 2 den against the int rows
    of ``_transport_rows`` x m.den.  If one fails, the edges are rescanned
    in order, head before tail, and ValueError names the first failing
    edge and endpoint."""
    f = m.base
    (slots, index), den = f.direction_index, f.direction_form[1]
    heads = list(slots)
    tails = [tuple(-x for x in d) for d in heads]

    def fits(slot, lever) -> bool:  # the rows are linear in (lever, den): formula x m.den
        return ([[x * 2 * den for x in row] for row in m.maps[slot].tolist()]
                == _transport_rows(tuple(x * m.den for x in lever), den * m.den))

    if not (all(fits(s, heads[i]) for s, i in set(zip(m.head_slots, index)))
            and all(fits(s, tails[i]) for s, i in set(zip(m.tail_slots, index)))):
        for e, ((t, h), i, hs, ts) in enumerate(zip(f.edges, index, m.head_slots, m.tail_slots)):
            for v, slot, lever in ((h, hs, heads[i]), (t, ts, tails[i])):
                if not fits(slot, lever):
                    raise ValueError(f"moment stalk map of edge {e} at vertex {v} is not "
                                     "the couple transport along its lever")
    return couple_dim(f.dim) * (f.num_vertices - f.components)


def build_phi(f: Framework) -> CosheafMap:
    """The embedding of truss statics into frame statics.

    Edge maps send an axial scalar t to the zero-moment couple
    (0, t * direction); vertex maps pad nodal forces with a zero moment.
    The commuting condition holds because the bar direction wedged with
    its own half lever vanishes.  The table holds the vertex map, then one
    edge map per slot of ``direction_index``.
    """
    n = f.dim
    w = moment_dim(n)
    (slots, index), den = f.direction_index, f.direction_form[1]
    vmap = linalg.zeros(w + n, n, f.mode)
    vmap[range(w, w + n), range(n)] = den
    return CosheafMap(
        source=build_force_cosheaf(f),
        target=build_moment_cosheaf(f),
        maps=(vmap, *(_padded_direction(w, d, f.mode) for d in slots)),
        vertex_slots=(0,) * f.num_vertices,
        edge_slots=tuple(s + 1 for s in index),
        den=den,
    )


def anchored_dims(phi: CosheafMap) -> tuple[int, int]:
    """(dim H1, dim H0) of N = M / phi(F) off M's gauge, once ``moment_rank``
    has certified M: phi(F_v) is then the forces through p_v, so H0 = sum_c
    C(n - a_c, 2) over the components' ``Framework.affine_dims`` and H1 = H0 +
    c1 - c0.  Each distinct (slot, cell kind) of phi, an edge's kind being
    its direction slot, is first certified as den [0; I] or the padded
    direction, over den; ValueError names the first failing cell."""
    f, pd = phi.source.base, phi.den
    n, w = f.dim, moment_dim(f.dim)
    (dirs, index), den = f.direction_index, f.direction_form[1]
    table = list(dirs)
    pad = [[0] * n] * w + [[pd * (i == j) for j in range(n)] for i in range(n)]

    def fits(slot, i) -> bool:  # stored / pd: [0; I] at a vertex (i None), (0; d_i) / den
        want, scale = (pad, 1) if i is None else ([[0]] * w + [[x * pd] for x in table[i]], den)
        return (phi.maps[slot] * scale).tolist() == want

    cells = (("vertex", phi.vertex_slots, (None,) * f.num_vertices),
             ("edge", phi.edge_slots, index))
    if not all(fits(*key) for _, slots, kinds in cells for key in set(zip(slots, kinds))):
        for kind, slots, kinds in cells:
            for c, key in enumerate(zip(slots, kinds)):
                if not fits(*key):
                    raise ValueError(f"phi's stalk map of {kind} {c} is not the embedding "
                                     "of its forces")
    h0 = sum(math.comb(n - a, 2) for a in f.affine_dims)
    return (couple_dim(n) - 1) * f.num_edges - w * f.num_vertices + h0, h0


def build_anchored_cosheaf(f: Framework) -> Cosheaf:
    """Anchored cosheaf: the moment cosheaf modulo embedded axial forces.

    Edge stalks keep the moments plus the transverse shears (dim
    n(n+1)/2 - 1: 2 in the plane, 5 in space); vertex stalks keep only the
    n(n-1)/2 moments, the pinned anchors absorbing residual force.
    """
    return quotient_cosheaf(build_phi(f))[0]


def rigid_body_space(f: Framework) -> np.ndarray:
    """The basis of the rigid-body velocity fields inside the truss C_0
    space, one field per row.

    Spanned by the n translations and the n(n-1)/2 infinitesimal rotations
    about the origin evaluated at the vertex positions.  These annihilate
    the transposed boundary matrix, so they already lie in the degree-0
    homology representative space; no projection is needed.
    """
    if not f.connected():
        raise ValueError("rigid-body space is defined for connected frameworks")
    n = f.dim
    gens = linalg.zeros(couple_dim(n), n * f.num_vertices, f.mode)
    for axis in range(n):
        gens[axis, axis::n] = 1
    # one rotation per coordinate plane (i, j): v_i = -p_j, v_j = p_i
    for r, (i, j) in enumerate(bivector_pairs(n), start=n):
        gens[r, i::n] = [-p[j] for p in f.positions]
        gens[r, j::n] = [p[i] for p in f.positions]
    return span_rows(gens)
