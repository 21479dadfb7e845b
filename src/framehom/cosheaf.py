"""Cellular cosheaves over a framework's graph, their boundary and homology.

A cosheaf assigns a vector-space stalk to every vertex and edge and a
linear stalk map from each edge stalk into the stalks of its two
endpoints.  The boundary operator stacks the stalk maps into one block
matrix with orientation signs (+ into the head, - out of the tail); its
kernel is degree-1 homology (self-stresses for the structural cosheaves)
and the orthogonal complement of its image represents degree-0 homology
(degrees of freedom).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import linalg
from .framework import Framework
from .linalg import (
    MODE_EXACT,
    Reduction,
    SubspaceBasis,
    image_complement_basis,
    rank,
    solve_in_image,
)


@dataclass(frozen=True)
class Cosheaf:
    """Stalk dimensions and stalk maps over a framework's graph.

    ``tail_maps[k]`` / ``head_maps[k]`` are the two stalk maps of edge k,
    each of shape (vertex stalk dim, edge stalk dim).
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


def _offsets(dims) -> list[int]:
    """Start of each cell's block in a flat chain whose stalks have ``dims``."""
    offs, total = [], 0
    for d in dims:
        offs.append(total)
        total += d
    return offs


@dataclass(frozen=True)
class Chain:
    """Per-cell stalk components of one element of C_0 or C_1."""

    degree: int
    components: tuple

    def __post_init__(self):
        if self.degree not in (0, 1):
            raise ValueError("degree must be 0 or 1")


def chain_pack(k: Cosheaf, chain: Chain) -> np.ndarray:
    """Concatenate per-cell components into one flat vector.

    The ordering matches assemble_boundary: cells in list order, stalk
    coordinates within each cell.
    """
    dims = k.vertex_dims if chain.degree == 0 else k.edge_dims
    if len(chain.components) != len(dims):
        raise ValueError("component count does not match the cell count")
    parts = []
    for i, (comp, d) in enumerate(zip(chain.components, dims)):
        if len(comp) != d:
            raise ValueError(f"component {i} has length {len(comp)}, stalk dim is {d}")
        parts.extend(comp)
    if k.mode == MODE_EXACT:
        out = np.empty(len(parts), dtype=object)
        out[:] = parts
        return out
    return np.asarray(parts, dtype=float)


def chain_unpack(k: Cosheaf, degree: int, flat: np.ndarray) -> Chain:
    """Split a flat C_0/C_1 vector back into per-cell components."""
    dims = k.vertex_dims if degree == 0 else k.edge_dims
    if len(flat) != sum(dims):
        raise ValueError(f"vector length {len(flat)} does not match chain space {sum(dims)}")
    comps, pos = [], 0
    for d in dims:
        comps.append(tuple(flat[pos:pos + d]))
        pos += d
    return Chain(degree, tuple(comps))


def assemble_boundary(k: Cosheaf) -> np.ndarray:
    """Block boundary matrix C_1 -> C_0.

    The block in the rows of vertex v and columns of edge e is +(stalk map)
    when v is the head of e and -(stalk map) when v is the tail.
    """
    out = linalg.zeros(k.c0_dim, k.c1_dim, k.mode)
    voff, eoff = _offsets(k.vertex_dims), _offsets(k.edge_dims)
    for e, (t, h) in enumerate(k.base.edges):
        c0, c1 = eoff[e], eoff[e] + k.edge_dims[e]
        out[voff[h]:voff[h] + k.vertex_dims[h], c0:c1] += k.head_maps[e]
        out[voff[t]:voff[t] + k.vertex_dims[t], c0:c1] -= k.tail_maps[e]
    return out


class Homology:
    """Homology of one cosheaf, read off its boundary B on first use.

    ``h1`` = ker B (cycles in C_1) and the rank of B come from one
    elimination of B; ``h0`` holds representatives in C_0 spanning
    ker B^T = (im B)^perp, from one elimination of B^T.  The dimensions
    need only the rank.
    """

    def __init__(self, k: Cosheaf):
        self.boundary = assemble_boundary(k)

    @cached_property
    def _reduction(self) -> Reduction:
        return Reduction(self.boundary)

    @cached_property
    def h1(self) -> SubspaceBasis:
        return self._reduction.kernel()

    @cached_property
    def h0(self) -> SubspaceBasis:
        return image_complement_basis(self.boundary)

    @property
    def dims(self) -> tuple[int, int]:
        """(dim H1, dim H0) = (c1 - rank B, c0 - rank B)."""
        c0, c1 = self.boundary.shape
        r = self._reduction.rank
        return (c1 - r, c0 - r)

    @property
    def dim_h1(self) -> int:
        return self.dims[0]

    @property
    def dim_h0(self) -> int:
        return self.dims[1]


def homology(k: Cosheaf) -> Homology:
    """The homology of ``k``: its boundary now, every reduction on first read."""
    return Homology(k)


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
    check_cosheaf_map to verify.
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

    def apply_c1(self, x: np.ndarray) -> np.ndarray:
        """Apply the edge maps to a flat C_1 chain or to one chain per column."""
        return _apply_blocks(self.edge_maps, x)

    def apply_c0(self, x: np.ndarray) -> np.ndarray:
        """Apply the vertex maps to a flat C_0 chain or to one chain per column."""
        return _apply_blocks(self.vertex_maps, x)


def _apply_blocks(maps, x: np.ndarray) -> np.ndarray:
    """Apply the block-diagonal matrix with diagonal blocks ``maps`` to ``x``.

    ``x`` is one flat chain or a matrix holding one chain per column; each
    block's rows of the result are its map times the block's rows of ``x``.
    """
    rows = [m.shape[0] for m in maps]
    cols = [m.shape[1] for m in maps]
    out = np.zeros((sum(rows),) + x.shape[1:], dtype=np.result_type(x, *maps))
    for m, r, c in zip(maps, _offsets(rows), _offsets(cols)):
        out[r:r + m.shape[0]] = m @ x[c:c + m.shape[1]]
    return out


@dataclass(frozen=True)
class MapCheck:
    passed: bool
    failures: tuple  # (edge index, vertex id, residual) per failing incidence


def _residual(m: np.ndarray) -> float:
    if m.size == 0:
        return 0.0
    return float(max(abs(float(x)) for x in m.flat))


def check_cosheaf_map(m: CosheafMap) -> MapCheck:
    """Verify the commuting condition at every incidence.

    At each incidence the target stalk map composed with the edge map must
    equal the vertex map composed with the source stalk map (exactly in
    exact mode).
    """
    failures = []
    tol = 0.0 if m.source.mode == MODE_EXACT else 1e-9
    for e, (t, h) in enumerate(m.source.base.edges):
        for v in (t, h):
            lhs = m.target.stalk_map(e, v) @ m.edge_maps[e]
            rhs = m.vertex_maps[v] @ m.source.stalk_map(e, v)
            res = _residual(lhs - rhs)
            if res > tol:
                failures.append((e, v, res))
    return MapCheck(passed=not failures, failures=tuple(failures))


# ---------------------------------------------------------------------------
# quotient cosheaves
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuotientCosheaf:
    """Quotient of an injective cosheaf map, with projection and section.

    The quotient stalk at each cell is realized concretely as the
    orthogonal complement of the embedded image inside the target stalk.
    ``vertex_sections``/``edge_sections`` are right inverses of the
    projection whose columns span those complements.
    """

    cosheaf: Cosheaf
    projection: CosheafMap
    vertex_sections: tuple
    edge_sections: tuple


def _stalk_quotient(phi: np.ndarray, where: str):
    t_dim, s_dim = phi.shape
    if rank(phi) != s_dim:
        raise ValueError(f"map is not injective on the {where} stalk")
    section = image_complement_basis(phi).matrix()        # t_dim x q
    gram = section.T.copy() @ section
    proj = solve_in_image(gram, section.T.copy())          # q x t_dim
    return section, proj


def quotient_cosheaf(m: CosheafMap) -> QuotientCosheaf:
    """Quotient target/im(m) for a stalk-wise injective cosheaf map.

    Returns the quotient cosheaf, the projection map from the target, and
    the canonical sections.  Stalk-wise exactness holds by construction:
    proj . m = 0 on every cell and [m | section] spans each target stalk.
    """
    src, tgt = m.source, m.target
    f = src.base
    v_sections, v_projs = [], []
    for v in range(f.num_vertices):
        s, p = _stalk_quotient(m.vertex_maps[v], f"vertex {v}")
        v_sections.append(s)
        v_projs.append(p)
    e_sections, e_projs = [], []
    for e in range(f.num_edges):
        s, p = _stalk_quotient(m.edge_maps[e], f"edge {e}")
        e_sections.append(s)
        e_projs.append(p)
    tails, heads = [], []
    for e, (t, h) in enumerate(f.edges):
        tails.append(v_projs[t] @ tgt.tail_maps[e] @ e_sections[e])
        heads.append(v_projs[h] @ tgt.head_maps[e] @ e_sections[e])
    q = Cosheaf(
        base=f,
        vertex_dims=tuple(s.shape[1] for s in v_sections),
        edge_dims=tuple(s.shape[1] for s in e_sections),
        tail_maps=tuple(tails),
        head_maps=tuple(heads),
    )
    proj_map = CosheafMap(source=tgt, target=q,
                          vertex_maps=tuple(v_projs), edge_maps=tuple(e_projs))
    return QuotientCosheaf(cosheaf=q, projection=proj_map,
                           vertex_sections=tuple(v_sections),
                           edge_sections=tuple(e_sections))
