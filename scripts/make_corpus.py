#!/usr/bin/env python3
"""Write the standard corpus of framework files for CLI experiments.

Usage: python scripts/make_corpus.py [outdir]

The top level of ``outdir`` gets the 15 corpus frames; ``outdir/large/``
gets the larger frames whose exact reports the tests pin: triangulated
grids 3, 4, 6 and 8, lattices 2 and 3, the box3d and Desargues frames
perturbed at 1/100 with seed 1, and grid6 and lattice3 with every other
edge reversed.  Comparing two versions of framehom is then

    PYTHONPATH=src python scripts/output_digests.py corpus/*.fw corpus/large/*.fw

on each, and a diff of the two outputs.
"""

import sys
from fractions import Fraction
from pathlib import Path

from framehom import Framework, make_desargues, make_named, perturb, save_framework


def grid(n):
    """A triangulated n x n grid: three member directions, every edge one way."""
    edges = [(j * n + i, j * n + i + 1) for j in range(n) for i in range(n - 1)]
    edges += [(j * n + i, (j + 1) * n + i) for j in range(n - 1) for i in range(n)]
    edges += [(j * n + i, (j + 1) * n + i + 1) for j in range(n - 1) for i in range(n - 1)]
    return Framework(2, tuple((i, j) for j in range(n) for i in range(n)), tuple(edges))


def lattice(n):
    """An n x n x n lattice with the diagonal of every unit face square from
    its lowest corner, every edge one way."""
    points = [(i, j, k) for k in range(n) for j in range(n) for i in range(n)]
    steps = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (0, 1, 1), (1, 0, 1))
    edges = [(points.index(p), points.index(q)) for p in points for d in steps
             if max(q := tuple(a + b for a, b in zip(p, d))) < n]
    return Framework(3, tuple(points), tuple(edges))


def every_other_edge_flipped(f):
    for e in range(0, f.num_edges, 2):
        f = f.with_flipped_edge(e)
    return f


def large_frames() -> dict:
    frames = {f"grid{n}": grid(n) for n in (3, 4, 6, 8)}
    frames.update(lattice2=lattice(2), lattice3=lattice(3))
    frames["box3d-perturbed"] = perturb(make_named("box3d"), Fraction(1, 100), 1)
    frames["desargues-perturbed"] = perturb(make_desargues(Fraction(1, 2)), Fraction(1, 100), 1)
    for name in ("grid6", "lattice3"):
        frames[f"{name}-flipped"] = every_other_edge_flipped(frames[name])
    return frames


def main():
    outdir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("corpus")
    large = outdir / "large"
    large.mkdir(parents=True, exist_ok=True)
    for name in ("bar", "triangle", "square", "box3d"):
        save_framework(make_named(name), outdir / f"{name}.fw")
    save_framework(make_desargues(Fraction(1, 2)), outdir / "desargues.fw")
    for seed in range(5):
        save_framework(make_named("random2d", seed), outdir / f"random2d_{seed}.fw")
        save_framework(make_named("random3d", seed), outdir / f"random3d_{seed}.fw")
    for name, f in large_frames().items():
        save_framework(f, large / f"{name}.fw")
    print(f"wrote {len(list(outdir.glob('*.fw')))} framework files to {outdir}/ "
          f"and {len(list(large.glob('*.fw')))} to {large}/")


if __name__ == "__main__":
    main()
