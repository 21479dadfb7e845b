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

In exact mode the build and the chain-map work run on integers.  Each
cosheaf and each map keeps its matrices as integers over one common
denominator d.  The structural ``build_*`` functions and ``quotient_cosheaf``
make their matrices from integers and hand those forms in at construction;
only a cosheaf or map built from plain matrices clears them itself.  The
eliminations read the integer rows of d B, which has
the rank, pivots and kernel of B; maps are checked to commute on these
forms as they are.  Chains travel between stages as forms too:
``CosheafMap.apply_form`` takes chains as (ints, d) and returns their
image as a form, and ``Cosheaf.h1_coordinates_form`` reads the H1
coordinates of such cycles at the free columns of the boundary's
reduction and returns a form.  ``apply_c0``, ``apply_c1`` and
``h1_coordinates`` wrap them for callers holding matrices.  A stalk
quotient is read off its map's integer form: the section is an integer
kernel basis, the solve returns the projection as a form, and each
quotient stalk map is an integer product of forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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
    once.  The rows of d B are built once (``boundary_rows``), and both the
    exact elimination and the dense ``boundary`` read that one list; neither
    writes to it.  The dimensions need only the rank.  ``h1_coordinates`` reads
    cycles in the ``h1`` basis off B's reduction.  Code that makes the
    stalk maps from integers hands in ``forms``, (matrix, (ints, d)) pairs
    with matrix = ints / d; the common form is then read off them, and the
    matrices are not cleared again.
    """

    base: Framework
    vertex_dims: tuple
    edge_dims: tuple
    tail_maps: tuple
    head_maps: tuple
    forms: list | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        f = self.base
        if len(self.vertex_dims) != f.num_vertices or len(self.edge_dims) != f.num_edges:
            raise ValueError("stalk dimension lists do not match the framework")
        if len(self.tail_maps) != f.num_edges or len(self.head_maps) != f.num_edges:
            raise ValueError("need exactly two stalk maps per edge")
        vdims = self.vertex_dims
        for k, ((t, h), tm, hm, ed) in enumerate(zip(f.edges, self.tail_maps, self.head_maps,
                                                      self.edge_dims)):
            if tm.shape != (vdims[t], ed) or hm.shape != (vdims[h], ed):
                v, m = (t, tm) if tm.shape != (vdims[t], ed) else (h, hm)
                raise ValueError(f"stalk map of edge {k} at vertex {v} has shape {m.shape}, "
                                 f"expected {(vdims[v], ed)}")

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
    def _forms(self) -> tuple[dict, int]:
        if self.forms is None:
            return _integer_forms(self.tail_maps + self.head_maps)
        return _common_form(self.forms)

    @cached_property
    def _rows(self) -> list[dict]:
        return boundary_rows(self)

    @cached_property
    def _reduction(self) -> Reduction:
        if self.mode == MODE_EXACT:
            return Reduction.of_rows(self._rows, self.c1_dim)
        return Reduction(self.boundary)

    @cached_property
    def h1(self) -> SubspaceBasis:
        return self._reduction.kernel()

    @cached_property
    def h0(self) -> SubspaceBasis:
        if self.mode == MODE_EXACT:
            return Reduction.of_rows(self._reduction.pivot_columns(), self.c0_dim).kernel()
        return Reduction(self.boundary.T).kernel()

    def h1_coordinates(self, chains: np.ndarray) -> np.ndarray:
        """Coordinates in the ``h1`` basis of one flat cycle or of the cycles
        held one per column of the matrix ``chains``; see
        ``h1_coordinates_form``."""
        return from_integer_form(*self.h1_coordinates_form(*integer_form(chains)))

    def h1_coordinates_form(self, ints: np.ndarray, den: int) -> tuple[np.ndarray, int]:
        """``h1_coordinates`` of the chains ints / den, as a form (ints, d).

        Exact mode runs no elimination.  Each ``h1`` vector v_j is the kernel
        vector of one free column fc_j of B's RREF and is zero at every other
        free column, so coordinate j of a cycle y is y[fc_j] / v_j[fc_j].  The
        columns are first checked to be cycles, B @ chains = 0, on the rows
        of d B and the integer chains.  Float mode solves by least squares.
        Raises ValueError when a column is not a cycle.
        """
        if ints.ndim == 1:
            out, d = self.h1_coordinates_form(ints.reshape(-1, 1), den)
            return out[:, 0], d
        red = self._reduction
        if not red.exact:
            return solve_in_image(self.h1.matrix(), ints, den)
        if not red.annihilates(ints):
            raise ValueError("right-hand side is not in the column space")
        free = red.free_columns
        diag = self.h1.vectors[range(len(free)), free].tolist()
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
    """Block boundary matrix C_1 -> C_0: the cosheaf's rows of d B, the
    list its exact elimination reads, written out densely over d."""
    out = linalg.zeros(k.c0_dim, k.c1_dim, k.mode)
    for i, row in enumerate(k._rows):
        out[i, list(row)] = list(row.values())
    return from_integer_form(out, k._forms[1])


def boundary_rows(k: Cosheaf) -> list[dict]:
    """The rows of d B as sparse {column: nonzero entry} maps of the stalk
    maps' integer form over d (d = 1 in float mode).  The block in the rows
    of vertex v and columns of edge e is +(stalk map) when v is the head of
    e and -(stalk map) when v is the tail; cells are in list order, stalk
    coordinates within each cell.  Each distinct stalk map's signed nonzeros
    are listed once."""
    plus = {key: [(i, j, x) for i, mrow in enumerate(mi.tolist()) for j, x in enumerate(mrow) if x]
            for key, mi in k._forms[0].items()}
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
    computed once per map.  ``forms`` is as for ``Cosheaf``.
    """

    source: Cosheaf
    target: Cosheaf
    vertex_maps: tuple
    edge_maps: tuple
    forms: list | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.source.base is not self.target.base and \
                self.source.base != self.target.base:
            raise ValueError("source and target live over different frameworks")
        f = self.source.base
        if len(self.vertex_maps) != f.num_vertices or len(self.edge_maps) != f.num_edges:
            raise ValueError("need one matrix per vertex and per edge")
        for kind, maps, rows, cols in (
                ("vertex", self.vertex_maps, self.target.vertex_dims, self.source.vertex_dims),
                ("edge", self.edge_maps, self.target.edge_dims, self.source.edge_dims)):
            for i, (m, want) in enumerate(zip(maps, zip(rows, cols))):
                if m.shape != want:
                    raise ValueError(f"{kind} map {i} has shape {m.shape}, expected {want}")

    @cached_property
    def check(self) -> MapCheck:
        return check_cosheaf_map(self)

    @cached_property
    def _forms(self) -> tuple[dict, int]:
        if self.forms is None:
            return _integer_forms(self.vertex_maps + self.edge_maps)
        return _common_form(self.forms)

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

        Each block's rows of the result are its map's integer form times the
        block's rows of ``ints``, over the map's d times ``den``; in float
        mode both forms are the float matrices, over 1.
        """
        maps = self.edge_maps if degree == 1 else self.vertex_maps
        rows = [m.shape[0] for m in maps]
        cols = [m.shape[1] for m in maps]
        forms, d = self._forms
        out = np.zeros((sum(rows),) + ints.shape[1:], dtype=np.result_type(ints, *maps))
        for m, r, c in zip(maps, _offsets(rows), _offsets(cols)):
            out[r:r + m.shape[0]] = forms[id(m)] @ ints[c:c + m.shape[1]]
        return out, d * den


def _integer_forms(mats) -> tuple[dict, int]:
    """The distinct matrices of ``mats`` cleared with ``integer_form`` and
    brought over one common denominator by ``_common_form``."""
    return _common_form([(a, integer_form(a)) for a in {id(a): a for a in mats}.values()])


def _common_form(pairs) -> tuple[dict, int]:
    """(matrix, (ints, d)) ``pairs`` in lowest terms over their least common
    d: ({id: ints}, d), each distinct matrix = ints / d (a float matrix is
    its own ints, over 1); valid while the matrices are referenced."""
    low = {}
    for a, (ints, md) in pairs:
        if id(a) not in low:
            g = math.gcd(md, *ints.ravel().tolist()) if md != 1 else 1
            low[id(a)] = (ints // g, md // g) if g > 1 else (ints, md)
    d = math.lcm(*(md for _, md in low.values()))
    return {key: ints if md == d else ints * (d // md) for key, (ints, md) in low.items()}, d


@dataclass(frozen=True)
class MapCheck:
    passed: bool
    failures: tuple  # (edge index, vertex id, residual) per failing incidence


def check_cosheaf_map(m: CosheafMap) -> MapCheck:
    """Verify the commuting condition at every incidence.

    At each incidence the target stalk map T composed with the edge map E
    must equal the vertex map V composed with the source stalk map S: on
    the integer forms of the map and both cosheaves, (T E) d_S = (V S) d_T
    (the map's own d cancels).  Only a failing incidence forms T E - V S,
    as that difference over d_m d_S d_T, and reports its largest |entry|,
    exactly in exact mode; float mode tolerates 1e-9.
    """
    (fm, dm), (fs, ds), (ft, dt) = m._forms, m.source._forms, m.target._forms
    tol = 0 if m.source.mode == MODE_EXACT else 1e-9
    failures = []
    for e, (t, h) in enumerate(m.source.base.edges):
        for v in (t, h):
            te = (ft[id(m.target.stalk_map(e, v))] @ fm[id(m.edge_maps[e])]) * ds
            vs = (fm[id(m.vertex_maps[v])] @ fs[id(m.source.stalk_map(e, v))]) * dt
            if te.tolist() == vs.tolist():
                continue
            diff = from_integer_form(te - vs, dm * ds * dt)
            res = max((abs(x) for x in diff.ravel().tolist()), default=0)
            if res > tol:
                failures.append((e, v, res))
    return MapCheck(passed=not failures, failures=tuple(failures))


# ---------------------------------------------------------------------------
# quotient cosheaves
# ---------------------------------------------------------------------------

def _stalk_quotient(red: Reduction, where: str):
    # red: the elimination of phi^T for a stalk map phi.  Its rank is rank phi,
    # its kernel (im phi)^perp, a section S (integer in exact mode); one solve
    # of [S^T S | S^T] gives the projection (S^T S)^-1 S^T as a form
    if red.rank != red.shape[0]:
        raise ValueError(f"map is not injective on the {where} stalk")
    st = red.kernel().vectors                                   # q x t_dim
    section = st.T.copy()
    return section, solve_in_image(st @ section, st)


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

    S and P depend only on im phi, so exact mode quotients once per key of
    phi's shape and the RREF of phi^T, which fix im phi and injectivity: one
    quotient for all vertices of the structural phi and one per bar line,
    whatever the bar's length or orientation.  Float mode keys on the
    stalk-map object.  A non-injective stalk raises at its first cell.  Each
    distinct triple of factors P T S of a quotient stalk map is one integer
    product of their forms, over d_P d_T.  The quotient cosheaf and both
    maps are handed the forms they are made of.
    """
    src, tgt = m.source, m.target
    f = src.base
    (mforms, _), (tforms, dt) = m._forms, tgt._forms
    keys, quotients, products = {}, {}, {}

    # every stalk map and factor stays referenced until the return, so no id is reused
    def stalk_quotients(maps, kind: str) -> list:
        for i, phi in enumerate(maps):
            if id(phi) not in keys:
                red = Reduction.of_form(mforms[id(phi)].T.copy(), 1)
                key = keys[id(phi)] = (red.shape, red.rref_rows() if red.exact else id(phi))
                if key not in quotients:
                    s, proj = _stalk_quotient(red, f"{kind} {i}")
                    quotients[key] = s, from_integer_form(*proj), proj
        return [quotients[keys[id(phi)]] for phi in maps]

    def stalk_map(vq, transport, eq):
        key = (id(vq[1]), id(transport), id(eq[0]))
        if key not in products:
            (p, dp), s = vq[2], eq[0]
            form = (p @ tforms[id(transport)] @ s, dp * dt)
            products[key] = from_integer_form(*form), form
        return products[key]

    vq, eq = stalk_quotients(m.vertex_maps, "vertex"), stalk_quotients(m.edge_maps, "edge")
    tails = [stalk_map(vq[t], tgt.tail_maps[e], eq[e]) for e, (t, h) in enumerate(f.edges)]
    heads = [stalk_map(vq[h], tgt.head_maps[e], eq[e]) for e, (t, h) in enumerate(f.edges)]
    q = Cosheaf(
        base=f,
        vertex_dims=tuple(s.shape[1] for s, _, _ in vq),
        edge_dims=tuple(s.shape[1] for s, _, _ in eq),
        tail_maps=tuple(a for a, _ in tails),
        head_maps=tuple(a for a, _ in heads),
        forms=list(products.values()),
    )
    distinct = quotients.values()
    return (CosheafMap(source=tgt, target=q, vertex_maps=tuple(p for _, p, _ in vq),
                       edge_maps=tuple(p for _, p, _ in eq),
                       forms=[(p, form) for _, p, form in distinct]),
            CosheafMap(source=q, target=tgt, vertex_maps=tuple(s for s, _, _ in vq),
                       edge_maps=tuple(s for s, _, _ in eq),
                       forms=[(s, (s, 1)) for s, _, _ in distinct]))
