"""Cellular cosheaves over a framework's graph, their boundary and homology.

A cosheaf assigns a vector-space stalk to every vertex and edge and a
linear stalk map from each edge stalk into the stalks of its two
endpoints.  The boundary operator stacks the stalk maps into one block
matrix with orientation signs (+ into the head, - out of the tail); its
kernel is degree-1 homology (self-stresses for the structural cosheaves)
and the orthogonal complement of its image represents degree-0 homology
(degrees of freedom).  Each cosheaf carries its own homology, computed
on first read and kept.  Exact eliminations read the boundary as sparse
integer rows built edge block by edge block, once per cosheaf; the dense
block matrix is those rows written out, for the connecting map and for
the float-mode SVDs.

Each cosheaf and each cosheaf map stores its matrices once, as integers
in lowest terms over one denominator ``den`` (float matrices over 1).
The structural ``build_*`` functions and ``quotient_cosheaf`` hand in
integers and their denominator, other callers rational matrices over 1;
``Cosheaf.stalk_map`` is the rational view.  The eliminations read the
integer rows of den B, which has the rank, pivots and kernel of B; maps
are checked to commute on the stored integers.  Chains travel between
stages as forms (ints, d):
``CosheafMap.apply_form`` takes chains as (ints, d) and returns their
image as a form, and ``Cosheaf.h1_coordinates_form`` reads the H1
coordinates of such cycles at the free columns of the boundary's
reduction and returns a form.  ``apply_c0`` and ``apply_c1`` wrap
``apply_form`` for callers holding matrices.  A stalk
quotient is read off its map's integers, once per distinct stalk-map
object: the section is an integer kernel basis, one solve returns the
projection as a form, and each quotient stalk map is an integer product
of the vertex projection, the target's stalk map and the section.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain

import numpy as np

from . import linalg
from .framework import Framework
from .linalg import (
    MODE_EXACT,
    Reduction,
    from_integer_form,
    integer_form,
    solve_in_image,
)


@dataclass(frozen=True)
class Cosheaf:
    """Stalk dimensions and stalk maps over a framework's graph, and the
    homology read off the boundary B on first use.

    ``tail_maps[k]`` / ``head_maps[k]`` are the two stalk maps of edge k,
    each of shape (vertex stalk dim, edge stalk dim).  ``h1`` = ker B
    (cycles in C_1) and the rank of B come from one reduction of B, ``h0``
    (representatives in C_0 spanning ker B^T = (im B)^perp) from one of
    B^T: in exact mode of B's sparse integer rows, and of only B's columns
    at its pivots, which span B^T's row space and so give the same
    canonical kernel; in float mode of the dense ``boundary``, assembled
    once.  The rows of den B are built once (``boundary_rows``), and both
    the exact elimination and the dense ``boundary`` read that one list;
    neither writes to it.  The dimensions need only the rank.
    ``h1_coordinates_form`` reads cycles in the ``h1`` basis off B's reduction.

    The stalk maps handed in are read over ``den`` and stored as integers
    in lowest terms over one ``den`` (``_lowest_terms``; float maps over
    1); ``stalk_map`` is the rational view.
    """

    base: Framework
    vertex_dims: tuple
    edge_dims: tuple
    tail_maps: tuple
    head_maps: tuple
    den: int = 1

    def __post_init__(self):
        f = self.base
        if len(self.vertex_dims) != f.num_vertices or len(self.edge_dims) != f.num_edges:
            raise ValueError("stalk dimension lists do not match the framework")
        if len(self.tail_maps) != f.num_edges or len(self.head_maps) != f.num_edges:
            raise ValueError("need exactly two stalk maps per edge")
        vdims, cells = self.vertex_dims, self.tail_maps + self.head_maps
        distinct = dict(zip(map(id, cells), cells))
        if not _one_shape(distinct, vdims, self.edge_dims):
            for k, ((t, h), tm, hm, ed) in enumerate(zip(f.edges, self.tail_maps,
                                                          self.head_maps, self.edge_dims)):
                if tm.shape != (vdims[t], ed) or hm.shape != (vdims[h], ed):
                    v, m = (t, tm) if tm.shape != (vdims[t], ed) else (h, hm)
                    raise ValueError(f"stalk map of edge {k} at vertex {v} has shape "
                                     f"{m.shape}, expected {(vdims[v], ed)}")
        _lowest_terms(self, ("tail_maps", "head_maps"), distinct)

    @property
    def mode(self) -> str:
        return self.base.mode

    @property
    def c0_dim(self) -> int:
        return sum(self.vertex_dims)

    @property
    def c1_dim(self) -> int:
        return sum(self.edge_dims)

    def stalk_map(self, k: int, v: int) -> np.ndarray:
        """Stalk map of edge k into endpoint vertex v, as a rational matrix."""
        t, h = self.base.edges[k]
        if v not in (t, h):
            raise ValueError(f"vertex {v} is not an endpoint of edge {k}")
        return from_integer_form((self.tail_maps if v == t else self.head_maps)[k], self.den)

    @cached_property
    def boundary(self) -> np.ndarray:
        return assemble_boundary(self)

    @cached_property
    def _rows(self) -> list[dict]:
        return boundary_rows(self)

    @cached_property
    def _reduction(self) -> Reduction:
        if self.mode == MODE_EXACT:
            return Reduction.of_rows(self._rows, self.c1_dim)
        return Reduction(self.boundary)

    @cached_property
    def h1(self) -> np.ndarray:
        return self._reduction.kernel()

    @cached_property
    def h0(self) -> np.ndarray:
        if self.mode == MODE_EXACT:
            return Reduction.of_rows(self._reduction.pivot_columns(), self.c0_dim).kernel()
        return Reduction(self.boundary.T).kernel()

    def h1_coordinates_form(self, ints: np.ndarray, den: int) -> tuple[np.ndarray, int]:
        """Coordinates in the ``h1`` basis of the cycles held one per column
        of the matrix ints / den, as a form (ints, d).

        Exact mode runs no elimination.  Each ``h1`` vector v_j is the kernel
        vector of one free column fc_j of B's RREF and is zero at every other
        free column, so coordinate j of a cycle y is y[fc_j] / v_j[fc_j].  The
        columns are first checked to be cycles, B @ chains = 0, on the rows
        of d B and the integer chains.  Float mode solves by least squares.
        Raises ValueError when a column is not a cycle.
        """
        red = self._reduction
        if not red.exact:
            return solve_in_image(self.h1.T.copy(), ints, den)
        if not red.annihilates(ints):
            raise ValueError("right-hand side is not in the column space")
        free = red.free_columns
        diag = self.h1[range(len(free)), free].tolist()
        lcm = math.lcm(*diag)
        scale = np.array([lcm // d for d in diag], dtype=object).reshape(-1, 1)
        return ints[free] * scale, den * lcm

    @property
    def dims(self) -> tuple[int, int]:
        """(dim H1, dim H0) = (c1 - rank B, c0 - rank B)."""
        r = self._reduction.rank
        return (self.c1_dim - r, self.c0_dim - r)


def _offsets(dims) -> list[int]:
    """Start of each cell's block in a flat chain whose stalks have ``dims``."""
    offs, total = [], 0
    for d in dims:
        offs.append(total)
        total += d
    return offs


def assemble_boundary(k: Cosheaf) -> np.ndarray:
    """Block boundary matrix C_1 -> C_0: the rows of den B that the exact
    elimination reads, written by ``linalg.from_rows``, over den."""
    return from_integer_form(linalg.from_rows(k._rows, k.c1_dim, k.mode), k.den)


def boundary_rows(k: Cosheaf) -> list[dict]:
    """The rows of den B as sparse {column: nonzero entry} maps of the
    stored integer stalk maps (float maps in float mode).  The block in the rows
    of vertex v and columns of edge e is +(stalk map) when v is the head of
    e and -(stalk map) when v is the tail; cells are in list order, stalk
    coordinates within each cell.  Each distinct stalk map's signed nonzeros
    are listed once."""
    maps = k.tail_maps + k.head_maps
    plus = {key: [(i, j, x) for i, mrow in enumerate(mi.tolist()) for j, x in enumerate(mrow) if x]
            for key, mi in dict(zip(map(id, maps), maps)).items()}
    minus = {key: [(i, j, -x) for i, j, x in ent] for key, ent in plus.items()}
    voff, eoff = _offsets(k.vertex_dims), _offsets(k.edge_dims)
    rows = [{} for _ in range(k.c0_dim)]
    for (t, h), hm, tm, eo in zip(k.base.edges, k.head_maps, k.tail_maps, eoff):
        for vo, entries in ((voff[h], plus[id(hm)]), (voff[t], minus[id(tm)])):
            for i, j, x in entries:
                rows[vo + i][eo + j] = x
    return rows


def constant_cosheaf(f: Framework, dim: int = 1) -> Cosheaf:
    """All stalks R^dim with identity maps; boundary = signed incidence matrix."""
    ident = linalg.identity(dim, f.mode)
    return Cosheaf(
        base=f,
        vertex_dims=(dim,) * f.num_vertices,
        edge_dims=(dim,) * f.num_edges,
        tail_maps=(ident,) * f.num_edges,
        head_maps=(ident,) * f.num_edges,
    )


# ---------------------------------------------------------------------------
# cosheaf maps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CosheafMap:
    """Stalk-wise linear maps between two cosheaves over the same framework.

    Valid maps commute with the stalk maps at every incidence; call
    check_cosheaf_map to verify, or read ``check`` for that verdict
    computed once per map.  The vertex and edge maps are stored as for
    ``Cosheaf``: integers over one ``den``, in lowest terms.
    """

    source: Cosheaf
    target: Cosheaf
    vertex_maps: tuple
    edge_maps: tuple
    den: int = 1

    def __post_init__(self):
        if self.source.base is not self.target.base and \
                self.source.base != self.target.base:
            raise ValueError("source and target live over different frameworks")
        f = self.source.base
        if len(self.vertex_maps) != f.num_vertices or len(self.edge_maps) != f.num_edges:
            raise ValueError("need one matrix per vertex and per edge")
        distinct = {}
        for kind, maps, rows, cols in (
                ("vertex", self.vertex_maps, self.target.vertex_dims, self.source.vertex_dims),
                ("edge", self.edge_maps, self.target.edge_dims, self.source.edge_dims)):
            group = dict(zip(map(id, maps), maps))
            distinct.update(group)
            for i, (m, want) in enumerate(() if _one_shape(group, rows, cols) else
                                          zip(maps, zip(rows, cols))):
                if m.shape != want:
                    raise ValueError(f"{kind} map {i} has shape {m.shape}, expected {want}")
        _lowest_terms(self, ("vertex_maps", "edge_maps"), distinct)

    @cached_property
    def check(self) -> MapCheck:
        return check_cosheaf_map(self)

    def apply_c1(self, x: np.ndarray) -> np.ndarray:
        """Apply the edge maps to a flat C_1 chain or to one chain per column."""
        return from_integer_form(*self.apply_form(1, *integer_form(x)))

    def apply_c0(self, x: np.ndarray) -> np.ndarray:
        """Apply the vertex maps to a flat C_0 chain or to one chain per column."""
        return from_integer_form(*self.apply_form(0, *integer_form(x)))

    def apply_form(self, degree: int, ints: np.ndarray, den: int) -> tuple[np.ndarray, int]:
        """Apply the edge maps (degree 1) or vertex maps (degree 0) to the
        chains ints / den, one flat chain or one chain per column, and return
        the image as a form (ints, d).

        Each block's rows of the result are its stored integer map times the
        block's rows of ``ints``, over the map's ``den`` times ``den``; in
        float mode both are float matrices, over 1.
        """
        maps = self.edge_maps if degree == 1 else self.vertex_maps
        rows = [m.shape[0] for m in maps]
        cols = [m.shape[1] for m in maps]
        out = np.zeros((sum(rows),) + ints.shape[1:], dtype=np.result_type(ints, *maps))
        for m, r, c in zip(maps, _offsets(rows), _offsets(cols)):
            out[r:r + m.shape[0]] = m @ ints[c:c + m.shape[1]]
        return out, self.den * den


def _one_shape(distinct: dict, rows, cols) -> bool:
    """Whether all cells need one shape (one value in ``rows`` and one in
    ``cols``) and each ``distinct`` matrix has it; if not, the caller's
    per-cell check runs and names the offender."""
    r, c = set(rows), set(cols)
    return len(r) == len(c) == 1 and all(a.shape == (*r, *c) for a in distinct.values())


def _lowest_terms(obj, names, distinct: dict) -> None:
    """Store the matrices of ``obj``'s fields ``names``, read over
    ``obj.den``, as integers in lowest terms over their least common
    denominator, and that denominator as ``obj.den``; a float matrix is
    divided by ``den`` and stored over 1.  The fields' ``distinct`` matrices,
    by id, are cleared once over one D0 and divided by G = gcd(D0, every
    entry), so shared matrices stay shared and D0 / G is the least common
    denominator; fields whose matrices are all kept are not rebuilt."""
    den = obj.den
    if type(den) is not int or den < 1:
        raise ValueError(f"den must be a positive int, got {den!r}")
    if any(linalg.mode_of(a) != MODE_EXACT for a in distinct.values()):
        lowest, d = {key: a / den if den != 1 else a for key, a in distinct.items()}, 1
    else:
        forms = {key: integer_form(a) for key, a in distinct.items()}
        m = math.lcm(*(md for _, md in forms.values()))
        lowest = {key: a if md == m else a * (m // md) for key, (a, md) in forms.items()}
        d = den * m
        g = math.gcd(d, *chain.from_iterable(a.ravel().tolist() for a in lowest.values()))
        if g > 1:
            lowest, d = {key: a // g for key, a in lowest.items()}, d // g
    if any(lowest[key] is not a for key, a in distinct.items()):
        for name in names:
            object.__setattr__(obj, name, tuple(map(lowest.__getitem__,
                                                    map(id, getattr(obj, name)))))
    object.__setattr__(obj, "den", d)


@dataclass(frozen=True)
class MapCheck:
    passed: bool
    failures: tuple  # (edge index, vertex id, residual) per failing incidence


def check_cosheaf_map(m: CosheafMap) -> MapCheck:
    """Verify the commuting condition at every incidence.

    At each incidence the target stalk map T composed with the edge map E
    must equal the vertex map V composed with the source stalk map S: on
    the stored integers of the map and both cosheaves, (T E) d_S = (V S) d_T
    (the map's own d cancels).  Only a failing incidence forms T E - V S,
    as that difference over d_m d_S d_T, and reports its largest |entry|,
    exactly in exact mode; float mode tolerates 1e-9.
    """
    src, tgt, dm = m.source, m.target, m.den
    tol = 0 if src.mode == MODE_EXACT else 1e-9
    failures = []
    for e, (t, h) in enumerate(src.base.edges):
        for v, tm, sm in ((t, tgt.tail_maps[e], src.tail_maps[e]),
                          (h, tgt.head_maps[e], src.head_maps[e])):
            te = (tm @ m.edge_maps[e]) * src.den
            vs = (m.vertex_maps[v] @ sm) * tgt.den
            if te.tolist() == vs.tolist():
                continue
            diff = from_integer_form(te - vs, dm * src.den * tgt.den)
            res = max((abs(x) for x in diff.ravel().tolist()), default=0)
            if res > tol:
                failures.append((e, v, res))
    return MapCheck(passed=not failures, failures=tuple(failures))


# ---------------------------------------------------------------------------
# quotient cosheaves
# ---------------------------------------------------------------------------

def _stalk_section(red: Reduction, where: str) -> np.ndarray:
    # red: the elimination of phi^T for a stalk map phi.  Its rank is rank phi,
    # its kernel (im phi)^perp: the columns of a section S, integer in exact mode
    if red.rank != red.shape[0]:
        raise ValueError(f"map is not injective on the {where} stalk")
    return red.kernel().T.copy()


def quotient_cosheaf(m: CosheafMap) -> tuple:
    """Quotient target/im(m) for a stalk-wise injective cosheaf map.

    Returns ``(q, projection, section)``: the quotient cosheaf q, the
    projection target -> q and the canonical section q -> target.  Each
    quotient stalk is realized as the orthogonal complement of the embedded
    image inside the target stalk, and the section's columns span it.  The
    section is a stalk-wise right inverse of the projection, not a cosheaf
    map: it need not commute with the stalk maps.  Stalk-wise exactness
    holds by construction: proj . m = 0 on every cell and [m | section]
    spans each target stalk.

    The section S is the kernel of phi^T, and each distinct stalk-map
    object of m is eliminated once: once for all vertices of the structural
    phi and once per bar direction.  A non-injective stalk raises at its
    first cell.  The same object's projection P = (S^T S)^-1 S^T is one
    solve, and each P is brought over one common d_P once.  Each quotient
    stalk map is the integer product P T S of its vertex's projection, the
    target's stalk map and its edge's section, over d_P d_T, formed per
    cell.  The kernel basis is the canonical RREF one, so bars on one line,
    of any length and either way round, get equal sections and projections.
    """
    tgt, f = m.target, m.target.base
    memo = {}  # id of a stalk map of m -> (S, P, d of P)
    for kind, maps in (("vertex", m.vertex_maps), ("edge", m.edge_maps)):
        for i, phi in enumerate(maps):  # m keeps each map referenced, so no id is reused
            if id(phi) not in memo:
                s = _stalk_section(Reduction(phi.T), f"{kind} {i}")
                st = s.T.copy()
                memo[id(phi)] = (s, *solve_in_image(st @ s, st))
    d = math.lcm(*(pd for _, _, pd in memo.values()))
    memo = {key: (s, p if pd == d else p * (d // pd)) for key, (s, p, pd) in memo.items()}
    vs, vp, es, ep = (tuple(memo[id(phi)][j] for phi in maps)
                      for maps in (m.vertex_maps, m.edge_maps) for j in (0, 1))
    q = Cosheaf(
        base=f,
        vertex_dims=tuple(s.shape[1] for s in vs),
        edge_dims=tuple(s.shape[1] for s in es),
        tail_maps=tuple(vp[t] @ tm @ s for (t, _), tm, s in zip(f.edges, tgt.tail_maps, es)),
        head_maps=tuple(vp[h] @ hm @ s for (_, h), hm, s in zip(f.edges, tgt.head_maps, es)),
        den=d * tgt.den,
    )
    return (q, CosheafMap(source=tgt, target=q, vertex_maps=vp, edge_maps=ep, den=d),
            CosheafMap(source=q, target=tgt, vertex_maps=vs, edge_maps=es))
