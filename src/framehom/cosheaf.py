"""Cellular cosheaves over a framework's graph, their boundary and homology.

A cosheaf assigns the stalk R^vertex_dim to every vertex and R^edge_dim to
every edge, and a linear stalk map from each edge stalk into the stalks of
its two endpoints; a chain is one block per cell, in cell order.  The
boundary operator stacks the stalk maps into one block matrix with
orientation signs (+ into the head, - out of the tail); its kernel is
degree-1 homology (self-stresses for the structural cosheaves) and the
orthogonal complement of its image represents degree-0 homology (degrees
of freedom).  Each cosheaf carries its own homology, computed
on first read and kept.  Exact eliminations read the boundary as sparse
integer rows built edge block by edge block, once per cosheaf; the dense
block matrix is those rows written out, for the connecting map and for
the float-mode SVDs.

Each cosheaf and each cosheaf map stores its stalk maps as a table: each
distinct map once, in ``maps``, and one slot into it per cell
(``tail_slots``/``head_slots``, ``vertex_slots``/``edge_slots``);
``tail_maps``, ``head_maps``, ``vertex_maps`` and ``edge_maps`` are the
per-cell views.  The table holds integers in lowest terms over one
denominator ``den`` (float matrices over 1).  The structural ``build_*``
functions pass the framework's ``direction_index`` through as the slots
and, like ``quotient_cosheaf``, hand in integers and their denominator;
other callers hand in rational matrices over 1.
``Cosheaf.stalk_map`` is the rational view.  The eliminations read the
integer rows of den B, which has the rank, pivots and kernel of B; maps
are checked to commute on the stored integers.  Chains travel between
stages as forms (ints, d):
``CosheafMap.apply_form`` takes chains as (ints, d) and returns their
image as a form, and ``Cosheaf.h1_coordinates_form`` reads the H1
coordinates of such cycles at the free columns of the boundary's
reduction and returns a form.  ``apply_c0`` and ``apply_c1`` wrap
``apply_form`` for callers holding matrices.  A stalk
quotient is read off the map's table, once per map: the section is an
integer kernel basis, one solve returns the projection as a form, the
quotient's stalk dims are the target's minus the source's, and its table
holds one integer product of a vertex projection, a stalk map of the
target and a section per distinct triple of slots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, repeat
from operator import itemgetter

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


def _per_cell(slots: str) -> cached_property:
    """The read-only view of a table that lists each cell's map, in cell
    order, for the readers that work cell by cell; made on first read."""
    return cached_property(lambda obj: tuple(map(obj.maps.__getitem__, getattr(obj, slots))))


@dataclass(frozen=True)
class Cosheaf:
    """Stalks R^vertex_dim on vertices and R^edge_dim on edges, the stalk
    maps over a framework's graph, and the homology of the boundary B.

    Edge k's two stalk maps are ``maps[tail_slots[k]]`` and
    ``maps[head_slots[k]]``; each map of the table is checked once to have
    shape (vertex_dim, edge_dim), and a failure names the first cell that
    reads a bad slot or map (a map no cell reads as ``map j``).
    ``tail_maps`` / ``head_maps`` are the maps per edge.  ``h1`` = ker B
    (cycles in C_1) and the rank of B come from one reduction of B, ``h0``
    (representatives in C_0 spanning ker B^T = (im B)^perp) from one of
    B^T: in exact mode of B's sparse integer rows, and of only B's columns
    at its pivots, which span B^T's row space and so give the same
    canonical kernel; in float mode of the dense ``boundary``, assembled
    once.  The rows of den B are built once (``boundary_rows``), and both
    the exact elimination and the dense ``boundary`` read that one list;
    neither writes to it.  The dimensions need only the rank.
    ``h1_coordinates_form`` reads cycles in the ``h1`` basis off B's reduction.

    The table handed in is read over ``den`` and stored as integers in
    lowest terms over one ``den`` (``_lowest_terms``; float maps over 1);
    ``stalk_map`` is the rational view.
    """

    base: Framework
    vertex_dim: int
    edge_dim: int
    maps: tuple
    tail_slots: tuple
    head_slots: tuple
    den: int = 1

    def __post_init__(self):
        f, maps, shape = self.base, self.maps, (self.vertex_dim, self.edge_dim)
        if len(self.tail_slots) != f.num_edges or len(self.head_slots) != f.num_edges:
            raise ValueError("need a tail and a head slot per edge")
        if not (_in_range(self.tail_slots + self.head_slots, maps)
                and all(m.shape == shape for m in maps)):
            _check_slots(maps, chain(
                ((f"stalk map of edge {k} at vertex {v}", s, shape) for k, ((t, h), ts, hs)
                 in enumerate(zip(f.edges, self.tail_slots, self.head_slots))
                 for v, s in ((t, ts), (h, hs))),
                ((f"map {j}", j, shape) for j in range(len(maps)))))
        _lowest_terms(self)

    tail_maps = _per_cell("tail_slots")
    head_maps = _per_cell("head_slots")

    @property
    def mode(self) -> str:
        return self.base.mode

    @property
    def c0_dim(self) -> int:
        return self.vertex_dim * self.base.num_vertices

    @property
    def c1_dim(self) -> int:
        return self.edge_dim * self.base.num_edges

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


def assemble_boundary(k: Cosheaf) -> np.ndarray:
    """Block boundary matrix C_1 -> C_0: the rows of den B that the exact
    elimination reads, written by ``linalg.from_rows``, over den."""
    return from_integer_form(linalg.from_rows(k._rows, k.c1_dim, k.mode), k.den)


def boundary_rows(k: Cosheaf) -> list[dict]:
    """The rows of den B as sparse {column: nonzero entry} maps of the
    stored integer stalk maps (float maps in float mode).  The block in the
    vertex_dim rows from v vertex_dim and the edge_dim columns from
    e edge_dim is +(stalk map) when v is the head of e and -(stalk map) when
    v is the tail.  Each map of the table has its signed nonzeros listed
    once."""
    plus = [[(i, j, x) for i, mrow in enumerate(mi.tolist()) for j, x in enumerate(mrow) if x]
            for mi in k.maps]
    minus = [[(i, j, -x) for i, j, x in ent] for ent in plus]
    vd, ed = k.vertex_dim, k.edge_dim
    rows = [{} for _ in range(k.c0_dim)]
    for e, ((t, h), hs, ts) in enumerate(zip(k.base.edges, k.head_slots, k.tail_slots)):
        for vo, entries in ((h * vd, plus[hs]), (t * vd, minus[ts])):
            for i, j, x in entries:
                rows[vo + i][e * ed + j] = x
    return rows


def constant_cosheaf(f: Framework, dim: int = 1) -> Cosheaf:
    """All stalks R^dim with identity maps; boundary = signed incidence matrix."""
    ident = linalg.identity(dim, f.mode)
    return Cosheaf(
        base=f,
        vertex_dim=dim,
        edge_dim=dim,
        maps=(ident,),
        tail_slots=(0,) * f.num_edges,
        head_slots=(0,) * f.num_edges,
    )


# ---------------------------------------------------------------------------
# cosheaf maps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CosheafMap:
    """Stalk-wise linear maps between two cosheaves over the same framework.

    Valid maps commute with the stalk maps at every incidence; call
    check_cosheaf_map to verify, or read ``check`` for that verdict
    computed once per map.  Vertex v's map is ``maps[vertex_slots[v]]``
    and edge k's ``maps[edge_slots[k]]``; each map a slot reads is checked
    once against (target dim, source dim) of its cell kind, and a failure
    names the first failing cell.  ``vertex_maps`` / ``edge_maps`` are the
    maps per cell.  The table is stored as for ``Cosheaf``: integers over
    one ``den``, in lowest terms.
    """

    source: Cosheaf
    target: Cosheaf
    maps: tuple
    vertex_slots: tuple
    edge_slots: tuple
    den: int = 1

    def __post_init__(self):
        if self.source.base is not self.target.base and \
                self.source.base != self.target.base:
            raise ValueError("source and target live over different frameworks")
        f, src, tgt = self.source.base, self.source, self.target
        if len(self.vertex_slots) != f.num_vertices or len(self.edge_slots) != f.num_edges:
            raise ValueError("need one slot per vertex and per edge")
        maps = self.maps
        cells = (("vertex", self.vertex_slots, (tgt.vertex_dim, src.vertex_dim)),
                 ("edge", self.edge_slots, (tgt.edge_dim, src.edge_dim)))
        if not all(_in_range(slots, maps) and all(maps[s].shape == shape for s in set(slots))
                   for _, slots, shape in cells):
            _check_slots(maps, ((f"{kind} map {i}", s, shape) for kind, slots, shape in cells
                                for i, s in enumerate(slots)))
        _lowest_terms(self)

    vertex_maps = _per_cell("vertex_slots")
    edge_maps = _per_cell("edge_slots")

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

        Cell i's r rows of the result, from i r, are its stored integer map
        times the c rows of ``ints`` from i c, r and c being the target's and
        the source's stalk dim, over the map's ``den`` times ``den``; in
        float mode both are float matrices, over 1.
        """
        maps, r, c = ((self.vertex_maps, self.target.vertex_dim, self.source.vertex_dim),
                      (self.edge_maps, self.target.edge_dim, self.source.edge_dim))[degree]
        out = np.zeros((r * len(maps),) + ints.shape[1:], dtype=np.result_type(ints, *maps))
        for i, m in enumerate(maps):
            out[i * r:(i + 1) * r] = m @ ints[i * c:(i + 1) * c]
        return out, self.den * den


def _in_range(slots, maps) -> bool:
    """Whether every slot indexes the table ``maps``: a negative one would
    silently pick a map from the end."""
    return 0 <= min(slots, default=0) and max(slots, default=0) < len(maps)


def _check_slots(maps, cells) -> None:
    """Raise ValueError naming the first of ``cells``, (name, slot, shape)
    each, whose slot is outside range(len(maps)) or picks a map of another
    shape; read only once a check of the whole table has failed."""
    n = len(maps)
    for name, s, shape in cells:
        if not 0 <= s < n:
            raise ValueError(f"{name} reads slot {s}, not one of the {n} maps")
        if maps[s].shape != shape:
            raise ValueError(f"{name} has shape {maps[s].shape}, expected {shape}")


def _lowest_terms(obj) -> None:
    """Store ``obj.maps``, read over ``obj.den``, as integers in lowest
    terms over their least common denominator, and that denominator as
    ``obj.den``; a float table is divided by ``den`` and stored over 1.
    The maps are cleared once over one D0 and divided by G = gcd(D0, every
    entry), so D0 / G is the least common denominator; an int map that
    needs no scaling is kept as it is."""
    den, maps = obj.den, obj.maps
    if type(den) is not int or den < 1:
        raise ValueError(f"den must be a positive int, got {den!r}")
    if any(linalg.mode_of(a) != MODE_EXACT for a in maps):
        lowest, d = [a / den if den != 1 else a for a in maps], 1
    else:
        forms = [integer_form(a) for a in maps]
        m = math.lcm(*(md for _, md in forms))
        lowest = [a if md == m else a * (m // md) for a, md in forms]
        d = den * m
        g = math.gcd(d, *chain.from_iterable(a.ravel().tolist() for a in lowest))
        if g > 1:
            lowest, d = [a // g for a in lowest], d // g
    object.__setattr__(obj, "maps", tuple(lowest))
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

    The section S is the kernel of phi^T, and each map of m's table is
    eliminated once, in table order: once for all vertices of the
    structural phi and once per bar direction.  A non-injective stalk
    raises at the first cell that reads its map.  The same map's projection
    P = (S^T S)^-1 S^T is one solve, and each P is brought over one common
    d_P once; the projection and the section keep m's slots.  Each quotient
    stalk map is the integer product P T S of its vertex's projection, the
    target's stalk map and its edge's section, over d_P d_T, formed once
    per distinct triple of their slots.  The kernel basis is the canonical
    RREF one, so bars on one line, of any length and either way round, get
    equal sections and projections.
    """
    tgt, f, vslots, eslots = m.target, m.target.base, m.vertex_slots, m.edge_slots
    first = {}  # slot of m -> (kind, index) of the first cell reading it
    for kind, slots in (("edge", eslots), ("vertex", vslots)):
        first.update(zip(reversed(slots), zip(repeat(kind), range(len(slots) - 1, -1, -1))))
    sections, solved = [], []
    for j, phi in enumerate(m.maps):
        s = _stalk_section(Reduction(phi.T), "%s %d" % first.get(j, ("map", j)))
        st = s.T.copy()
        sections.append(s)
        solved.append(solve_in_image(st @ s, st))
    d = math.lcm(*(pd for _, pd in solved))
    proj = tuple(p if pd == d else p * (d // pd) for p, pd in solved)
    triples = {}  # (P slot, T slot, S slot) -> slot of q
    tail_slots, head_slots = (
        tuple(triples.setdefault(key, len(triples)) for key in zip(
            map(vslots.__getitem__, map(itemgetter(end), f.edges)), tslots, eslots))
        for end, tslots in enumerate((tgt.tail_slots, tgt.head_slots)))
    q = Cosheaf(
        base=f,
        vertex_dim=tgt.vertex_dim - m.source.vertex_dim,
        edge_dim=tgt.edge_dim - m.source.edge_dim,
        maps=tuple(proj[a] @ tgt.maps[b] @ sections[c] for a, b, c in triples),
        tail_slots=tail_slots,
        head_slots=head_slots,
        den=d * tgt.den,
    )
    return (q, CosheafMap(source=tgt, target=q, maps=proj, vertex_slots=vslots,
                          edge_slots=eslots, den=d),
            CosheafMap(source=q, target=tgt, maps=tuple(sections), vertex_slots=vslots,
                       edge_slots=eslots))
