#!/usr/bin/env python3
"""Write the standard corpus of framework files for CLI experiments.

Usage: python scripts/make_corpus.py [outdir]

The top level of ``outdir`` gets the 15 corpus frames; ``outdir/large/``
gets the larger frames whose exact reports the tests pin: triangulated
grids 3, 4, 6 and 8, lattices 2 and 3, the box3d and Desargues frames
perturbed at 1/100 with seed 1, and grid6 and lattice3 with every other
edge reversed.  ``large/`` also gets ``two-components``, a triangle beside
a separate bar in space, so the digests cover a frame with b0 > 1, and two
connected frames whose vertices span less than the whole space, so that
H0(anchored) = 1: ``collinear-path-3d``, a path along one line in space,
and ``planar-k4-4d``, the complete graph on four points of a plane in R^4.
Comparing two versions of framehom is then

    PYTHONPATH=src python scripts/output_digests.py corpus

on each, and a diff of the two outputs.
"""

import sys
from fractions import Fraction
from pathlib import Path

from framehom import (make_desargues, make_grid, make_lattice, make_named, parse_framework,
                      perturb, save_framework)

TWO_COMPONENTS = ("dim 3\nv 0 0 0 0\nv 1 1 0 0\nv 2 0 1 0\nv 3 5 5 5\nv 4 6 5 7\n"
                  "e 0 1\ne 1 2\ne 0 2\ne 3 4\n")
COLLINEAR_PATH_3D = "dim 3\nv 0 0 0 0\nv 1 1 2 3\nv 2 3 6 9\nv 3 4 8 12\ne 0 1\ne 1 2\ne 2 3\n"
PLANAR_K4_4D = ("dim 4\nv 0 0 0 0 0\nv 1 1 0 1 0\nv 2 0 1 0 2\nv 3 2 3 2 6\n"
                "e 0 1\ne 0 2\ne 0 3\ne 1 2\ne 1 3\ne 2 3\n")


def every_other_edge_flipped(f):
    for e in range(0, f.num_edges, 2):
        f = f.with_flipped_edge(e)
    return f


def large_frames() -> dict:
    frames = {f"grid{n}": make_grid(n) for n in (3, 4, 6, 8)}
    frames.update(lattice2=make_lattice(2), lattice3=make_lattice(3))
    frames["box3d-perturbed"] = perturb(make_named("box3d"), Fraction(1, 100), 1)
    frames["desargues-perturbed"] = perturb(make_desargues(Fraction(1, 2)), Fraction(1, 100), 1)
    for name in ("grid6", "lattice3"):
        frames[f"{name}-flipped"] = every_other_edge_flipped(frames[name])
    frames["two-components"] = parse_framework(TWO_COMPONENTS)
    frames["collinear-path-3d"] = parse_framework(COLLINEAR_PATH_3D)
    frames["planar-k4-4d"] = parse_framework(PLANAR_K4_4D)
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
