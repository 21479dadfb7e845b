"""Geometric frameworks: straight-line graph embeddings in R^n, n >= 2.

A framework is an ordered vertex list with positions in R^n (coordinates
0 .. n-1: x, y in the plane, x, y, z in space) plus a list of oriented
edges (tail -> head).  Exact coordinates are ``int`` where integral, else
``Fraction``; a floating mode exists for tolerance experiments.  Frameworks
are immutable; every generator is a deterministic function of its arguments.

File format (line oriented, ``#`` starts a comment; ``dim N`` with N >= 2,
then one ``v`` record of an id and N coordinates per vertex)::

    dim 2
    v 0 0 0
    v 1 1 0
    v 2 1/2 3/4
    e 0 1
    e 1 2
"""

from __future__ import annotations

import math
import operator
import random
import sys
from dataclasses import dataclass, replace
from decimal import Decimal
from fractions import Fraction
from functools import cached_property

import numpy as np

from .linalg import MODE_EXACT, MODE_FLOAT, Reduction, rank as _matrix_rank

EPS_GEOM = 1e-9  # float mode: zero-length threshold, relative to the bbox diagonal

NAMED_FRAMEWORKS = ("bar", "triangle", "square", "box3d", "random2d", "random3d")


class FrameworkError(ValueError):
    """Invalid framework file or geometry."""


def _as_fraction(x) -> Fraction:
    if isinstance(x, float):
        return Fraction(Decimal(repr(x)))
    return Fraction(x)


def _integral(x):
    """An exact rational as ``int`` when it is integral, else unchanged."""
    return x.numerator if x.denominator == 1 else x


@dataclass(frozen=True)
class Framework:
    """Immutable geometric framework (graph + positions).

    Vertex ids are dense 0-based integers equal to list position.  Edge
    orientation is tail -> head as listed.
    """

    dim: int
    positions: tuple
    edges: tuple
    mode: str = MODE_EXACT

    def __post_init__(self):
        if not isinstance(self.dim, int) or self.dim < 2:
            raise FrameworkError(f"ambient dimension must be an integer >= 2, got {self.dim!r}")
        if self.mode not in (MODE_EXACT, MODE_FLOAT):
            raise FrameworkError(f"unknown mode {self.mode!r}")
        if not self.positions:
            raise FrameworkError("framework has no vertices")
        # one walk of the positions; exact mode then stores every vertex as a tuple
        # of int or Fraction, so parser, generators and transforms agree
        exact, pos, rebuild = self.mode == MODE_EXACT, self.positions, []
        for i, p in enumerate(pos):
            if len(p) != self.dim:
                raise FrameworkError(f"vertex {i} has {len(p)} coordinates, expected {self.dim}")
            if type(p) is not tuple or not all(type(x) is int for x in p):
                if any(isinstance(x, float) and not math.isfinite(x) for x in p):
                    raise FrameworkError(f"vertex {i} has a non-finite coordinate")
                rebuild.append(i)
        if exact and (rebuild or type(pos) is not tuple):
            pos = list(pos)
            for i in rebuild:
                pos[i] = tuple(_integral(_as_fraction(x) if isinstance(x, float) else x)
                               for x in pos[i])
            object.__setattr__(self, "positions", pos := tuple(pos))
        if not exact:
            eps = EPS_GEOM * max(self.bbox_diagonal(), 1e-300)
        nv, seen = len(pos), set()
        for k, (t, h) in enumerate(self.edges):
            if not (0 <= t < nv and 0 <= h < nv):
                raise FrameworkError(f"edge {k} references unknown vertex id ({t}, {h})")
            if t == h:
                raise FrameworkError(f"edge {k} is a self-loop at vertex {t}")
            key = (t, h) if t < h else (h, t)
            if key in seen:
                raise FrameworkError(f"duplicate edge {k}: ({t}, {h})")
            seen.add(key)
            if (pos[t] == pos[h]) if exact else math.dist(pos[t], pos[h]) <= eps:
                raise FrameworkError(f"zero-length edge {k}: ({t}, {h})")

    @property
    def num_vertices(self) -> int:
        return len(self.positions)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def bbox_diagonal(self) -> float:
        lo = [min(float(p[i]) for p in self.positions) for i in range(self.dim)]
        hi = [max(float(p[i]) for p in self.positions) for i in range(self.dim)]
        return math.dist(lo, hi)

    def connected(self) -> bool:
        return self.components == 1

    @cached_property
    def _labels(self) -> list:
        """Each vertex's component label, its union-find root: the one labelling
        behind ``components`` and ``affine_dims``."""
        parent = list(range(self.num_vertices))

        def root(v):
            while parent[v] != v:
                parent[v] = v = parent[parent[v]]
            return v
        for t, h in self.edges:
            parent[root(t)] = root(h)
        return [root(v) for v in range(len(parent))]

    @property
    def components(self) -> int:
        """The number of connected components b0."""
        return len(set(self._labels))

    @cached_property
    def affine_dims(self) -> tuple:
        """Each component's affine dimension, components ordered by first vertex.

        A component's affine span is spanned by its bar directions, so its
        dimension is the rank of its distinct rows of ``direction_form``
        (0 for an isolated vertex): exact, by ``Reduction.of_rows`` on the
        integer rows, or scale-free by SVD in float mode."""
        (slots, index), labels = self.direction_index, self._labels
        table, groups = list(slots), {label: set() for label in labels}
        for (t, _), s in zip(self.edges, index):
            groups[labels[t]].add(s)
        rows = [[table[s] for s in sorted(g)] for g in groups.values()]
        if self.mode == MODE_EXACT:
            return tuple(Reduction.of_rows([{j: x for j, x in enumerate(r) if x} for r in rs],
                                           self.dim).rank for rs in rows)
        return tuple(_matrix_rank(np.array(rs, dtype=float).reshape(-1, self.dim)) for rs in rows)

    @cached_property
    def direction_form(self) -> tuple[list, int]:
        """Every edge's direction head - tail over one common denominator D,
        (rows, D): the positions are cleared to integers over D once, so exact
        rows hold ints; float rows hold the float differences, over 1."""
        pos, d = self.positions, 1
        if self.mode == MODE_EXACT:
            d = math.lcm(*(x.denominator for p in pos for x in p))
            if d != 1:
                pos = [[x.numerator * (d // x.denominator) for x in p] for p in pos]
        return [tuple(map(operator.sub, pos[h], pos[t])) for t, h in self.edges], d

    @cached_property
    def direction_index(self) -> tuple[dict, tuple]:
        """(slots, index): the distinct rows of ``direction_form``, each mapped
        to its slot in first-seen order, and each edge's slot.  The structural
        builders make one matrix per slot and hand the index through as the
        edges' slots into that table."""
        slots = {}
        return slots, tuple(slots.setdefault(d, len(slots)) for d in self.direction_form[0])

    def as_float(self) -> Framework:
        """The same framework with float coordinates."""
        if self.mode == MODE_FLOAT:
            return self
        pos = tuple(tuple(float(x) for x in p) for p in self.positions)
        return Framework(self.dim, pos, self.edges, MODE_FLOAT)

    def with_flipped_edge(self, k: int) -> Framework:
        edges = list(self.edges)
        t, h = edges[k]
        edges[k] = (h, t)
        return replace(self, edges=tuple(edges))

    def with_vertex_permutation(self, perm) -> Framework:
        """Relabel vertex i as perm[i], reordering the position list to match."""
        if sorted(perm) != list(range(self.num_vertices)):
            raise FrameworkError("not a permutation of the vertex ids")
        pos = [None] * self.num_vertices
        for i, p in enumerate(self.positions):
            pos[perm[i]] = p
        edges = tuple((perm[t], perm[h]) for t, h in self.edges)
        return replace(self, positions=tuple(pos), edges=edges)

    def transformed(self, linear, offset) -> Framework:
        """Apply p -> linear @ p + offset to every vertex position."""
        pos = []
        for p in self.positions:
            q = [sum(linear[i][j] * p[j] for j in range(self.dim)) + offset[i]
                 for i in range(self.dim)]
            pos.append(tuple(q))
        return replace(self, positions=tuple(pos))


# ---------------------------------------------------------------------------
# file format
# ---------------------------------------------------------------------------

def _parse_scalar(tok: str, mode: str, where: str):
    try:
        if mode == MODE_EXACT:  # int reads a subset of Fraction's literals, to equal values
            try:
                return int(tok)
            except ValueError:
                # Fraction computes 10**exponent: bound it as int bounds digit strings
                _, e, exp = tok.lower().partition("e")
                limit = sys.get_int_max_str_digits()
                if e and limit and abs(int(exp)) > limit:
                    raise ValueError(f"decimal exponent above {limit}")
                return _integral(Fraction(tok))
        if "/" in tok:
            num, den = tok.split("/", 1)
            return float(num) / float(den)
        return float(tok)
    except (ValueError, ZeroDivisionError) as exc:
        raise FrameworkError(f"{where}: bad number literal {tok!r}") from exc


def parse_framework(text: str, mode: str = MODE_EXACT) -> Framework:
    """Read the line-oriented format.  Each error names its line; a line's
    ``where`` text is made only when it raises."""
    dim = None
    verts: dict[int, tuple] = {}
    edges: list[tuple[int, int]] = []
    number = int if mode == MODE_EXACT else float  # reads a subset of _parse_scalar's literals
    for lineno, raw in enumerate(text.splitlines(), start=1):
        toks = (raw.split("#", 1)[0] if "#" in raw else raw).split()
        if not toks:
            continue
        if toks[0] == "v":
            if dim is None:
                raise FrameworkError(f"line {lineno}: vertex before dim header")
            if len(toks) != 2 + dim:
                raise FrameworkError(f"line {lineno}: vertex needs an id and {dim} coordinates")
            try:
                vid = int(toks[1])
            except ValueError:
                raise FrameworkError(f"line {lineno}: bad vertex id {toks[1]!r}") from None
            if vid in verts:
                raise FrameworkError(f"line {lineno}: duplicate vertex id {vid}")
            try:
                verts[vid] = tuple(map(number, toks[2:]))
            except ValueError:
                verts[vid] = tuple(_parse_scalar(t, mode, f"line {lineno}") for t in toks[2:])
        elif toks[0] == "e":
            if len(toks) != 3:
                raise FrameworkError(f"line {lineno}: edge needs exactly two vertex ids")
            try:
                edges.append((int(toks[1]), int(toks[2])))
            except ValueError:
                raise FrameworkError(f"line {lineno}: bad edge endpoint") from None
        elif toks[0] == "dim":
            if dim is not None:
                raise FrameworkError(f"line {lineno}: repeated dim header")
            if len(toks) != 2 or not toks[1].isdecimal() or int(toks[1]) < 2:
                raise FrameworkError(f"line {lineno}: expected 'dim N' with an integer N >= 2")
            dim = int(toks[1])
        else:
            raise FrameworkError(f"line {lineno}: unknown record {toks[0]!r}")
    if dim is None:
        raise FrameworkError("missing dim header")
    if not verts:
        raise FrameworkError("no vertices")
    if sorted(verts) != list(range(len(verts))):
        raise FrameworkError("vertex ids must be dense 0-based integers")
    positions = tuple(verts[i] for i in range(len(verts)))
    return Framework(dim, positions, tuple(edges), mode)


def load_framework(path, mode: str = MODE_EXACT) -> Framework:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_framework(fh.read(), mode)


def _format_scalar(x) -> str:
    """An exact value in full, at any size (``Decimal(int)`` is exact and,
    unlike ``str(int)``, not bound by ``sys.get_int_max_str_digits()``);
    any other value as a float's repr."""
    if isinstance(x, Fraction):
        text = str(Decimal(x.numerator))
        return text if x.denominator == 1 else f"{text}/{Decimal(x.denominator)}"
    if isinstance(x, int):
        return str(Decimal(x))
    return repr(float(x))


def format_framework(f: Framework) -> str:
    lines = [f"dim {f.dim}"]
    for i, p in enumerate(f.positions):
        lines.append("v " + str(i) + " " + " ".join(_format_scalar(x) for x in p))
    for t, h in f.edges:
        lines.append(f"e {t} {h}")
    return "\n".join(lines) + "\n"


def save_framework(f: Framework, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_framework(f))


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

_DESARGUES_OUTER = ((0, 4), (-3, -2), (3, -2))


def make_desargues(t) -> Framework:
    """Two triangles in perspective from the origin, joined corner to corner.

    Vertices 0-2 are the outer triangle, 3-5 the inner copy scaled by ``t``.
    The three connecting bars lie on lines through the origin, so their
    extensions are concurrent: the configuration carries one self-stress
    and one mechanism.
    """
    t = _as_fraction(t)
    if not 0 < t < 1:
        raise FrameworkError(f"scale must satisfy 0 < t < 1, got {t}")
    outer = list(_DESARGUES_OUTER)
    inner = [(t * x, t * y) for x, y in outer]
    positions = tuple(outer + inner)
    edges = ((0, 1), (1, 2), (2, 0),       # outer triangle
             (3, 4), (4, 5), (5, 3),       # inner triangle
             (0, 3), (1, 4), (2, 5))       # connectors through the origin
    return Framework(2, positions, edges)


def make_grid(n: int) -> Framework:
    """A triangulated n x n grid: three member directions, every edge one way."""
    edges = [(j * n + i, j * n + i + 1) for j in range(n) for i in range(n - 1)]
    edges += [(j * n + i, (j + 1) * n + i) for j in range(n - 1) for i in range(n)]
    edges += [(j * n + i, (j + 1) * n + i + 1) for j in range(n - 1) for i in range(n - 1)]
    return Framework(2, tuple((i, j) for j in range(n) for i in range(n)), tuple(edges))


def make_lattice(n: int) -> Framework:
    """An n x n x n lattice with the diagonal of every unit face square from
    its lowest corner, every edge one way."""
    points = [(i, j, k) for k in range(n) for j in range(n) for i in range(n)]
    steps = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (0, 1, 1), (1, 0, 1))
    edges = [(points.index(p), points.index(q)) for p in points for d in steps
             if max(q := tuple(a + b for a, b in zip(p, d))) < n]
    return Framework(3, tuple(points), tuple(edges))


def _cube_positions():
    pts = []
    for z in (0, 1):
        for x, y in ((0, 0), (1, 0), (1, 1), (0, 1)):
            pts.append((x, y, z))
    return tuple(pts)


_CUBE_EDGES = ((0, 1), (1, 2), (2, 3), (3, 0),
               (4, 5), (5, 6), (6, 7), (7, 4),
               (0, 4), (1, 5), (2, 6), (3, 7))


def affine_dim(dim: int, positions, mode: str = MODE_EXACT) -> int:
    """The dimension of the points' affine span: the rank in ``mode`` (scale-free
    in float) of the differences from the first point, one row each."""
    rel = [[p[i] - positions[0][i] for i in range(dim)] for p in positions[1:]]
    return _matrix_rank(np.array(rel, dtype=object if mode == MODE_EXACT else float)
                        .reshape(-1, dim))


def _random_framework(dim: int, seed: int, max_vertices: int) -> Framework:
    rng = random.Random(f"framehom:random{dim}d:{seed}")
    while True:
        nv = rng.randint(4, max_vertices)
        pos = [tuple(Fraction(rng.randint(-64, 64), 8) for _ in range(dim))
               for _ in range(nv)]
        if len(set(pos)) != nv:
            continue
        # affine span must be full dimensional (collinear/coplanar sets break
        # the rigid-body DOF count the counting rules presume)
        if affine_dim(dim, pos) < dim:
            continue
        edges = [(rng.randrange(i), i) for i in range(1, nv)]  # random spanning tree
        undirected = {(min(t, h), max(t, h)) for t, h in edges}
        candidates = [(a, b) for a in range(nv) for b in range(a + 1, nv)
                      if (a, b) not in undirected]
        rng.shuffle(candidates)
        extra = rng.randint(0, nv)
        for a, b in candidates[:extra]:
            if rng.random() < 0.5:
                a, b = b, a
            edges.append((a, b))
        try:
            return Framework(dim, tuple(pos), tuple(edges))
        except FrameworkError:
            continue


def make_named(name: str, seed: int = 0) -> Framework:
    """Deterministic corpus frameworks.

    ``bar``, ``triangle``, ``square`` and ``box3d`` ignore the seed;
    ``random2d``/``random3d`` are connected random frameworks with rational
    coordinates and full-dimensional affine span.
    """
    if name == "bar":
        return Framework(2, ((0, 0), (1, 0)), ((0, 1),))
    if name == "triangle":
        return Framework(2, ((0, 0), (2, 0), (1, 2)), ((0, 1), (1, 2), (2, 0)))
    if name == "square":
        return Framework(2, ((0, 0), (1, 0), (1, 1), (0, 1)),
                         ((0, 1), (1, 2), (2, 3), (3, 0)))
    if name == "box3d":
        return Framework(3, _cube_positions(), _CUBE_EDGES)
    if name == "random2d":
        return _random_framework(2, seed, 15)
    if name == "random3d":
        return _random_framework(3, seed, 10)
    raise FrameworkError(f"unknown framework name {name!r}")


def perturb(f: Framework, magnitude, seed: int) -> Framework:
    """Shift every coordinate by an independent uniform offset in [-m, m].

    Offsets are dyadic rational multiples of the magnitude in exact mode, so
    the result stays exactly representable.  magnitude 0 returns an
    identical framework.  A negative or non-finite magnitude raises
    FrameworkError.
    """
    rng = random.Random(f"framehom:perturb:{seed}")
    if f.mode == MODE_EXACT:
        if isinstance(magnitude, float) and not math.isfinite(magnitude):
            raise FrameworkError(f"magnitude must be finite, got {magnitude!r}")
        mag = _as_fraction(magnitude)
        if mag < 0:
            raise FrameworkError("magnitude must be nonnegative")
        pos = tuple(
            tuple(x + mag * Fraction(rng.randint(-4096, 4096), 4096) for x in p)
            for p in f.positions)
    else:
        try:
            mag = float(magnitude)
        except OverflowError:  # an int or Fraction beyond float range
            mag = math.inf
        if not math.isfinite(mag):
            raise FrameworkError(f"magnitude must be finite, got {magnitude!r}")
        if mag < 0:
            raise FrameworkError("magnitude must be nonnegative")
        pos = tuple(tuple(x + rng.uniform(-mag, mag) for x in p) for p in f.positions)
    return replace(f, positions=pos)
