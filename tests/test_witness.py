"""An independent witness of each cosheaf's homology bases.

The boundary is written here cell by cell from ``Cosheaf.stalk_map``, as
den B with integer entries, and checked against ``h1`` and ``h0`` with exact
integer products and ranks mod the prime P = 2^61 - 1; nothing here comes
from ``framehom.linalg``.  A rank mod P is at most the rank over Q, so three
facts prove that the rows of ``h1`` are a basis of ker B over Q: B kills
every row, the rows are independent mod P, and rank B mod P = c1 - dim H1.
Likewise ``h0`` against B^T.
"""

from dataclasses import replace
from fractions import Fraction
from math import lcm

import pytest

from framehom import make_desargues, make_grid, make_lattice, make_named, perturb
from framehom.structural import (build_anchored_cosheaf, build_force_cosheaf,
                                 build_moment_cosheaf)

P = 2**61 - 1


def den_boundary(k) -> tuple[list[dict], list[dict]]:
    """The rows and the columns of den B as sparse {index: nonzero int} maps,
    written block by block: +head map in the head vertex's rows, -tail map in
    the tail's, in the edge's columns."""
    vd, ed = k.vertex_dim, k.edge_dim
    rows = [{} for _ in range(k.c0_dim)]
    cols = [{} for _ in range(k.c1_dim)]
    for e, (t, h) in enumerate(k.base.edges):
        for v, sign in ((h, 1), (t, -1)):
            for i, row in enumerate(k.stalk_map(e, v).tolist()):
                for j, x in enumerate(row):
                    x = Fraction(x) * k.den * sign
                    assert x.denominator == 1
                    if x:
                        rows[v * vd + i][e * ed + j] = cols[e * ed + j][v * vd + i] = int(x)
    return rows, cols


def integer_rows(basis) -> list[dict]:
    """Each row of ``basis`` times the lcm of its denominators, as a sparse map."""
    out = []
    for row in basis.tolist():
        fr = [Fraction(x) for x in row]
        d = lcm(*(x.denominator for x in fr))
        out.append({j: int(x * d) for j, x in enumerate(fr) if x})
    return out


def kills(lines: list[dict], vectors: list[dict]) -> bool:
    """Whether every vector is orthogonal to every line, where ``lines`` are
    the columns of the matrix whose rows the vectors are, sparse."""
    for vec in vectors:
        acc = {}
        for j, x in vec.items():
            for i, b in lines[j].items():
                acc[i] = acc.get(i, 0) + b * x
        if any(acc.values()):
            return False
    return True


def rank_mod_p(rows: list[dict]) -> int:
    """Rank mod P of the sparse integer rows, by elimination on each row's
    last column."""
    pivots = {}  # column -> a reduced row whose last column it is, scaled to 1 there
    for row in rows:
        r = {j: x % P for j, x in row.items() if x % P}
        while r:
            j = max(r)
            if j not in pivots:
                inv = pow(r[j], -1, P)
                pivots[j] = {i: x * inv % P for i, x in r.items()}
                break
            c = r[j]
            for i, x in pivots[j].items():
                if y := (r.get(i, 0) - c * x) % P:
                    r[i] = y
                else:
                    r.pop(i, None)
    return len(pivots)


def witness_failures(k, h1, h0) -> list[str]:
    """The facts that fail for the bases h1 and h0 of the cosheaf k."""
    rows, cols = den_boundary(k)
    z1, z0 = integer_rows(h1), integer_rows(h0)
    facts = {
        "B kills h1": kills(cols, z1),
        "rank B = c1 - dim H1": rank_mod_p(cols) == k.c1_dim - len(z1),
        "h1 independent": rank_mod_p(z1) == len(z1),
        "B^T kills h0": kills(rows, z0),
        "rank B^T = c0 - dim H0": rank_mod_p(rows) == k.c0_dim - len(z0),
        "h0 independent": rank_mod_p(z0) == len(z0),
    }
    return [name for name, holds in facts.items() if not holds]


BUILDERS = {"F": build_force_cosheaf, "M": build_moment_cosheaf, "N": build_anchored_cosheaf}

LARGE = {
    "grid6": lambda: make_grid(6),
    "grid8": lambda: make_grid(8),
    "lattice3": lambda: make_lattice(3),
    "desargues-perturbed": lambda: perturb(make_desargues(Fraction(1, 2)), Fraction(1, 100), 1),
    "box3d-perturbed": lambda: perturb(make_named("box3d"), Fraction(1, 100), 1),
}


@pytest.mark.parametrize("which", BUILDERS)
def test_the_corpus_bases_pass_the_witness(corpus, which):
    for label, f in corpus:
        k = BUILDERS[which](f)
        assert witness_failures(k, k.h1, k.h0) == [], label


@pytest.mark.parametrize("name", LARGE)
def test_the_large_frames_bases_pass_the_witness(name):
    f = LARGE[name]()
    for which, build in BUILDERS.items():
        k = build(f)
        assert witness_failures(k, k.h1, k.h0) == [], which


def test_the_witness_fails_a_changed_entry_a_dependent_row_and_a_changed_map():
    k = build_moment_cosheaf(make_grid(3))
    assert len(k.h1) >= 3
    changed = k.h1.copy()
    changed[1, 0] += 1  # column 0 is edge 0's, whose stalk maps are invertible
    assert witness_failures(k, changed, k.h0) == ["B kills h1"]
    dependent = k.h1.copy()
    dependent[2] = dependent[0] + dependent[1]
    assert witness_failures(k, dependent, k.h0) == ["h1 independent"]
    tampered = replace(k, maps=(k.maps[0] + 1,) + k.maps[1:])
    assert "B kills h1" in witness_failures(tampered, k.h1, k.h0)
