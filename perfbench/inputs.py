"""Benchmark input frameworks: triangulated grids, cubic lattices, named frames.

Every generator is a deterministic function of its arguments.  The
workload seed only reorients edges (tail <-> head): that changes the
files and the signs of every generator the program prints, but not the
sparsity pattern the exact eliminations see, so the cost of an item does
not depend on the seed.  Choosing the grid diagonals from the seed was
tried and rejected: it moves the exact 8x8 grid by 30% between seeds.
"""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction

from framehom import Framework, make_desargues, make_named


def triangulated_grid(n: int) -> Framework:
    """n x n vertices at integer points, one diagonal per unit square.

    Vertex (i, j) has id j*n + i; every square gets the diagonal from its
    lower-left to its upper-right corner.  Every triangulation of a disk
    is infinitesimally rigid in the plane, so the closed forms hold.
    """
    def vid(i, j):
        return j * n + i

    positions = tuple((Fraction(i), Fraction(j)) for j in range(n) for i in range(n))
    edges = []
    for j in range(n):
        for i in range(n - 1):
            edges.append((vid(i, j), vid(i + 1, j)))
    for j in range(n - 1):
        for i in range(n):
            edges.append((vid(i, j), vid(i, j + 1)))
    for j in range(n - 1):
        for i in range(n - 1):
            edges.append((vid(i, j), vid(i + 1, j + 1)))
    return Framework(2, positions, tuple(edges))


def cubic_lattice(n: int) -> Framework:
    """n x n x n vertices at integer points, one diagonal on every face square.

    Vertex (i, j, k) has id (k*n + j)*n + i.  Each unit square, on the
    boundary or inside, gets the diagonal from its lowest corner to the
    opposite one.  n = 2 is one cube with face diagonals.
    """
    def vid(i, j, k):
        return (k * n + j) * n + i

    positions = tuple((Fraction(i), Fraction(j), Fraction(k))
                      for k in range(n) for j in range(n) for i in range(n))
    edges = []
    for k in range(n):
        for j in range(n):
            for i in range(n):
                a = vid(i, j, k)
                di, dj, dk = i + 1 < n, j + 1 < n, k + 1 < n
                if di:
                    edges.append((a, vid(i + 1, j, k)))
                if dj:
                    edges.append((a, vid(i, j + 1, k)))
                if dk:
                    edges.append((a, vid(i, j, k + 1)))
                if di and dj:
                    edges.append((a, vid(i + 1, j + 1, k)))
                if dj and dk:
                    edges.append((a, vid(i, j + 1, k + 1)))
                if di and dk:
                    edges.append((a, vid(i + 1, j, k + 1)))
    return Framework(3, positions, tuple(edges))


def reoriented(f: Framework, seed: int, label: str) -> Framework:
    """Flip each edge's orientation with probability 1/2, from (seed, label)."""
    rng = random.Random(f"perfbench:{label}:{seed}")
    edges = tuple((h, t) if rng.random() < 0.5 else (t, h) for t, h in f.edges)
    return Framework(f.dim, f.positions, edges, f.mode)


def build(spec: str) -> Framework:
    """Framework for one input spec, before reorientation.

    ``desargues`` (t = 1/2), ``box3d``, ``random2d-<s>``, ``random3d-<s>``,
    ``grid<n>`` and ``lattice<n>``.
    """
    if spec == "desargues":
        return make_desargues(Fraction(1, 2))
    if spec == "box3d":
        return make_named("box3d")
    if spec.startswith(("random2d-", "random3d-")):
        name, seed = spec.split("-")
        return make_named(name, int(seed))
    if spec.startswith("grid"):
        return triangulated_grid(int(spec[4:]))
    if spec.startswith("lattice"):
        return cubic_lattice(int(spec[7:]))
    raise ValueError(f"unknown input spec {spec!r}")


def sha256_of(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()
