"""Cellular cosheaves over a framework's graph, their boundary and homology.

A cosheaf assigns a vector-space stalk to every vertex and edge and a
linear stalk map from each edge stalk into the stalks of its two
endpoints.  The boundary operator stacks the stalk maps into one block
matrix with orientation signs (+ into the head, - out of the tail); its
kernel is degree-1 homology (self-stresses for the structural cosheaves)
and the orthogonal complement of its image represents degree-0 homology
(degrees of freedom).  Each cosheaf carries its own homology, computed
on first read and kept.  The eliminations read the boundary as sparse rows
built edge block by edge block; the dense block matrix is assembled only
for the connecting map, which multiplies chains by it.

In exact mode the build and the chain-map work run on integers.  Each
cosheaf and each map keeps the integer forms of its matrices (one lcm
per matrix).  The eliminations read the integer rows of d B, d > 0, which
has the rank, pivots and kernel of B; maps are applied to chains, and
checked to commute, on integer forms; and the H1 coordinates of a cycle
are read at the free columns of the boundary's reduction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import linalg
from .framework import Framework
from .linalg import (
    MODE_EXACT,
    Reduction,
    SubspaceBasis,
    from_integer_form,
    integer_form,
    product,
    solve_in_image,
)


@dataclass(frozen=True)
class Cosheaf:
    """Stalk dimensions and stalk maps over a framework's graph, and the
    homology read off the boundary B on first use.

    ``tail_maps[k]`` / ``head_maps[k]`` are the two stalk maps of edge k,
    each of shape (vertex stalk dim, edge stalk dim).  ``h1`` = ker B
    (cycles in C_1) and the rank of B come from one elimination of B's
    sparse rows, ``h0`` (representatives in C_0 spanning ker B^T =
    (im B)^perp) from one of B^T's.  The dimensions need only the rank.
    ``h1_coordinates`` reads cycles in the ``h1`` basis off B's reduction.
    The dense ``boundary`` is assembled on first read, for the connecting
    map alone.
    """

    base: Framework
    vertex_dims: tuple
    edge_dims: tuple
    tail_maps: tuple
    head_maps: tuple

    def __post_init__(self):
        f = self.base
        if len(self.vertex_dims) != f.num_vertices or len(self.edge_dims) != f.num_edges:
            raise ValueError("stalk dimension lists do not match the framework")
        if len(self.tail_maps) != f.num_edges or len(self.head_maps) != f.num_edges:
            raise ValueError("need exactly two stalk maps per edge")
        for k, (t, h) in enumerate(f.edges):
            for v, m in ((t, self.tail_maps[k]), (h, self.head_maps[k])):
                want = (self.vertex_dims[v], self.edge_dims[k])
                if m.shape != want:
                    raise ValueError(
                        f"stalk map of edge {k} at vertex {v} has shape {m.shape}, "
                        f"expected {want}")

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
        """Stalk map of edge k into endpoint vertex v."""
        t, h = self.base.edges[k]
        if v == t:
            return self.tail_maps[k]
        if v == h:
            return self.head_maps[k]
        raise ValueError(f"vertex {v} is not an endpoint of edge {k}")

    @cached_property
    def boundary(self) -> np.ndarray:
        return assemble_boundary(self)

    @cached_property
    def _forms(self) -> dict:
        return _integer_forms(self.tail_maps + self.head_maps)

    @cached_property
    def _reduction(self) -> Reduction:
        return Reduction.of_rows(boundary_rows(self), self.c1_dim, self.mode)

    @cached_property
    def h1(self) -> SubspaceBasis:
        return self._reduction.kernel()

    @cached_property
    def h0(self) -> SubspaceBasis:
        return Reduction.of_rows(boundary_rows(self, transpose=True), self.c0_dim,
                                self.mode).kernel()

    def h1_coordinates(self, chains: np.ndarray) -> np.ndarray:
        """Coordinates in the ``h1`` basis of the cycles held one per column of
        the matrix ``chains``.

        Exact mode runs no elimination.  Each ``h1`` vector v_j is the kernel
        vector of one free column fc_j of B's RREF and is zero at every other
        free column, so coordinate j of a cycle y is y[fc_j] / v_j[fc_j].  The
        columns are first checked to be cycles, B @ chains = 0, on the rows
        of d B and the chains cleared to integers.  Float mode solves by least
        squares.  Raises ValueError when a column is not a cycle.
        """
        red = self._reduction
        if not red.exact:
            return solve_in_image(self.h1.matrix(), chains)
        ints, den = integer_form(chains)
        if not red.annihilates(ints):
            raise ValueError("right-hand side is not in the column space")
        pivots = set(red.pivots)
        free = [c for c in range(self.c1_dim) if c not in pivots]
        diag = self.h1.vectors[range(len(free)), free].tolist()
        lcm = math.lcm(*diag)
        scale = np.array([lcm // d for d in diag], dtype=object).reshape(-1, 1)
        return from_integer_form(ints[free] * scale, den * lcm)

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
    """Block boundary matrix C_1 -> C_0.

    The block in the rows of vertex v and columns of edge e is +(stalk map)
    when v is the head of e and -(stalk map) when v is the tail.  Cells are
    in list order, stalk coordinates within each cell.
    """
    out = linalg.zeros(k.c0_dim, k.c1_dim, k.mode)
    voff, eoff = _offsets(k.vertex_dims), _offsets(k.edge_dims)
    for e, (t, h) in enumerate(k.base.edges):
        c0, c1 = eoff[e], eoff[e] + k.edge_dims[e]
        out[voff[h]:voff[h] + k.vertex_dims[h], c0:c1] += k.head_maps[e]
        out[voff[t]:voff[t] + k.vertex_dims[t], c0:c1] -= k.tail_maps[e]
    return out


def boundary_rows(k: Cosheaf, transpose: bool = False) -> list[dict]:
    """The rows of d B, B = ``assemble_boundary(k)``, or of d B^T when
    ``transpose``, as sparse {column: nonzero entry} maps built one edge
    block at a time from the stalk maps: +head map, -tail map.  d is the
    lcm of the stalk maps' denominators (1 in float mode), so exact entries
    are ``int``; each distinct stalk map is listed once as its entries."""
    d = math.lcm(*(md for _, md in k._forms.values()))
    entries = {key: [(j, i, x * (d // md)) if transpose else (i, j, x * (d // md))
                     for i, mrow in enumerate(mi.tolist()) for j, x in enumerate(mrow) if x]
               for key, (mi, md) in k._forms.items()}
    voff, eoff = _offsets(k.vertex_dims), _offsets(k.edge_dims)
    rows = [{} for _ in range(k.c1_dim if transpose else k.c0_dim)]
    for e, (t, h) in enumerate(k.base.edges):
        for v, m, sign in ((h, k.head_maps[e], 1), (t, k.tail_maps[e], -1)):
            r, c = (eoff[e], voff[v]) if transpose else (voff[v], eoff[e])
            for i, j, x in entries[id(m)]:
                rows[r + i][c + j] = sign * x
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
    computed once per map.
    """

    source: Cosheaf
    target: Cosheaf
    vertex_maps: tuple
    edge_maps: tuple

    def __post_init__(self):
        if self.source.base is not self.target.base and \
                self.source.base != self.target.base:
            raise ValueError("source and target live over different frameworks")
        f = self.source.base
        if len(self.vertex_maps) != f.num_vertices or len(self.edge_maps) != f.num_edges:
            raise ValueError("need one matrix per vertex and per edge")
        for v, m in enumerate(self.vertex_maps):
            want = (self.target.vertex_dims[v], self.source.vertex_dims[v])
            if m.shape != want:
                raise ValueError(f"vertex map {v} has shape {m.shape}, expected {want}")
        for e, m in enumerate(self.edge_maps):
            want = (self.target.edge_dims[e], self.source.edge_dims[e])
            if m.shape != want:
                raise ValueError(f"edge map {e} has shape {m.shape}, expected {want}")

    @cached_property
    def check(self) -> MapCheck:
        return check_cosheaf_map(self)

    @cached_property
    def _forms(self) -> dict:
        return _integer_forms(self.vertex_maps + self.edge_maps)

    def apply_c1(self, x: np.ndarray) -> np.ndarray:
        """Apply the edge maps to a flat C_1 chain or to one chain per column."""
        return self._apply_blocks(self.edge_maps, x)

    def apply_c0(self, x: np.ndarray) -> np.ndarray:
        """Apply the vertex maps to a flat C_0 chain or to one chain per column."""
        return self._apply_blocks(self.vertex_maps, x)

    def _apply_blocks(self, maps, x: np.ndarray) -> np.ndarray:
        """Apply the block-diagonal matrix with diagonal blocks ``maps`` to ``x``.

        ``x`` is one flat chain or a matrix holding one chain per column; each
        block's rows of the result are its map times the block's rows of
        ``x``.  Exact mode multiplies integer forms: each distinct map is
        cleared of its denominators once per cosheaf map and ``x`` once per
        call, every block is brought to one common denominator, and the
        result is divided by it once.
        """
        rows = [m.shape[0] for m in maps]
        cols = [m.shape[1] for m in maps]
        forms = self._forms
        den = math.lcm(*(forms[id(m)][1] for m in maps))
        xi, xd = integer_form(x)
        out = np.zeros((sum(rows),) + x.shape[1:], dtype=np.result_type(x, *maps))
        for m, r, c in zip(maps, _offsets(rows), _offsets(cols)):
            mi, md = forms[id(m)]
            y = mi @ xi[c:c + m.shape[1]]
            out[r:r + m.shape[0]] = y if md == den else y * (den // md)
        return from_integer_form(out, den * xd)


def _integer_forms(mats) -> dict:
    """``linalg.integer_form`` of each distinct matrix in ``mats``, keyed on its id;
    valid while the matrices are referenced."""
    forms = {}
    for a in mats:
        if id(a) not in forms:
            forms[id(a)] = integer_form(a)
    return forms


@dataclass(frozen=True)
class MapCheck:
    passed: bool
    failures: tuple  # (edge index, vertex id, residual) per failing incidence


def check_cosheaf_map(m: CosheafMap) -> MapCheck:
    """Verify the commuting condition at every incidence.

    At each incidence the target stalk map composed with the edge map must
    equal the vertex map composed with the source stalk map.  Exact mode
    reads the integer forms that the map and both cosheaves keep and
    compares the two sides by integer cross-multiplication; only a failing
    incidence forms the difference, and reports its largest |entry|
    exactly.  Float mode tolerates 1e-9.
    """
    exact = m.source.mode == MODE_EXACT
    if exact:
        forms = m._forms | m.source._forms | m.target._forms

    def commutes(a, b, c, d) -> bool:
        (ai, ad), (bi, bd), (ci, cd), (di, dd) = (forms[id(x)] for x in (a, b, c, d))
        return not np.any((ai @ bi) * (cd * dd) != (ci @ di) * (ad * bd))

    failures = []
    tol = 0 if exact else 1e-9
    for e, (t, h) in enumerate(m.source.base.edges):
        for v in (t, h):
            sides = (m.target.stalk_map(e, v), m.edge_maps[e],
                     m.vertex_maps[v], m.source.stalk_map(e, v))
            if exact and commutes(*sides):
                continue
            diff = product(*sides[:2]) - product(*sides[2:])
            res = max((abs(x) for x in diff.ravel().tolist()), default=0)
            if res > tol:
                failures.append((e, v, res))
    return MapCheck(passed=not failures, failures=tuple(failures))


# ---------------------------------------------------------------------------
# quotient cosheaves
# ---------------------------------------------------------------------------

def _stalk_quotient(phi: np.ndarray, where: str):
    # one elimination of phi^T: its rank is rank phi, its kernel (im phi)^perp
    red = Reduction(phi.T.copy())
    if red.rank != phi.shape[1]:
        raise ValueError(f"map is not injective on the {where} stalk")
    section = red.kernel().matrix()                       # t_dim x q
    gram = section.T.copy() @ section
    proj = solve_in_image(gram, section.T.copy())          # q x t_dim
    return section, proj


def quotient_cosheaf(m: CosheafMap) -> tuple[CosheafMap, CosheafMap]:
    """Quotient target/im(m) for a stalk-wise injective cosheaf map.

    Returns ``(projection, section)``: the projection target -> q and the
    canonical section q -> target, two maps that share the quotient
    cosheaf q.  Each quotient stalk is realized as the orthogonal
    complement of the embedded image inside the target stalk, and the
    section's columns span it.  The section is a stalk-wise right inverse
    of the projection, not a cosheaf map: it need not commute with the
    stalk maps.  Stalk-wise exactness holds by construction: proj . m = 0
    on every cell and [m | section] spans each target stalk.

    Each distinct stalk map (shape and entries) is quotiented once and its
    cells share the result: one quotient for all vertices of the structural
    phi, one per bar direction (head - tail).  A non-injective stalk raises
    at its first cell.  Each distinct triple of factors of a quotient stalk
    map is one linalg.product.
    """
    src, tgt = m.source, m.target
    f = src.base
    quotients, products = {}, {}

    def stalk_quotient(phi: np.ndarray, where: str):
        key = (phi.shape, tuple(x.as_integer_ratio() for x in phi.ravel().tolist()))
        if key not in quotients:
            quotients[key] = _stalk_quotient(phi, where)
        return quotients[key]

    def stalk_map(proj, transport, section):
        # every factor stays referenced until the return, so no id is reused
        key = (id(proj), id(transport), id(section))
        if key not in products:
            products[key] = product(proj, transport, section)
        return products[key]

    v_sections, v_projs = [], []
    for v in range(f.num_vertices):
        s, p = stalk_quotient(m.vertex_maps[v], f"vertex {v}")
        v_sections.append(s)
        v_projs.append(p)
    e_sections, e_projs = [], []
    for e in range(f.num_edges):
        s, p = stalk_quotient(m.edge_maps[e], f"edge {e}")
        e_sections.append(s)
        e_projs.append(p)
    tails, heads = [], []
    for e, (t, h) in enumerate(f.edges):
        tails.append(stalk_map(v_projs[t], tgt.tail_maps[e], e_sections[e]))
        heads.append(stalk_map(v_projs[h], tgt.head_maps[e], e_sections[e]))
    q = Cosheaf(
        base=f,
        vertex_dims=tuple(s.shape[1] for s in v_sections),
        edge_dims=tuple(s.shape[1] for s in e_sections),
        tail_maps=tuple(tails),
        head_maps=tuple(heads),
    )
    return (CosheafMap(source=tgt, target=q,
                       vertex_maps=tuple(v_projs), edge_maps=tuple(e_projs)),
            CosheafMap(source=q, target=tgt,
                       vertex_maps=tuple(v_sections), edge_maps=tuple(e_sections)))
