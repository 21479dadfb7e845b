"""Exact and float linear algebra kernel tests."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import domain_matrix, fractions_of, grid, lattice
from framehom import linalg, make_desargues, perturb
from framehom.cosheaf import boundary_rows
from framehom.linalg import (
    complement_within,
    exact_matrix,
    float_matrix,
    from_integer_form,
    integer_form,
    kernel_basis,
    rank,
    solve_in_image,
    span_rows,
    subspace_contains,
    subspaces_equal,
)
from framehom.structural import build_force_cosheaf, build_moment_cosheaf


def small_int_matrices(max_rows=6, max_cols=6, lo=-10, hi=10):
    shapes = st.tuples(st.integers(1, max_rows), st.integers(1, max_cols))
    return shapes.flatmap(
        lambda rc: st.lists(
            st.lists(st.integers(lo, hi), min_size=rc[1], max_size=rc[1]),
            min_size=rc[0], max_size=rc[0]))


def test_rank_identity():
    assert rank(linalg.identity(3, "exact")) == 3
    assert rank(linalg.identity(3, "float")) == 3


def test_rank_proportional_rows():
    assert rank(exact_matrix([[1, 2], [2, 4]])) == 1
    assert rank(float_matrix([[1, 2], [2, 4]])) == 1


def test_rank_empty_shapes():
    assert rank(linalg.zeros(0, 4, "exact")) == 0
    assert rank(linalg.zeros(4, 0, "exact")) == 0
    assert rank(linalg.zeros(0, 0, "float")) == 0


def test_kernel_of_zero_matrix():
    k = kernel_basis(linalg.zeros(2, 3, "exact"))
    assert k.dim == 3
    assert k.ambient_dim == 3


def test_kernel_vectors_are_primitive_integers():
    m = exact_matrix([[Fraction(1, 2), Fraction(1, 3), 0], [0, 0, 0]])
    k = kernel_basis(m)
    assert k.dim == 2
    for v in k.vectors:
        ints = [int(x) for x in v]
        assert ints == list(v)
        from math import gcd
        g = 0
        for x in ints:
            g = gcd(g, x)
        assert g == 1
    for v in k.vectors:
        assert all(x == 0 for x in m @ v)


def test_image_complement_of_surjective_map():
    assert kernel_basis(linalg.identity(2, "exact").T.copy()).dim == 0


def test_image_complement_single_column():
    # 4x1 column; complement dimension checked against a float SVD oracle
    col = exact_matrix([[1], [0], [-1], [0]])
    comp = kernel_basis(col.T.copy())
    assert comp.dim == 3
    u, s, vh = np.linalg.svd(col.astype(float))
    svd_rank = int(np.count_nonzero(s > 1e-12))
    assert comp.dim == 4 - svd_rank
    for v in comp.vectors:
        assert all(x == 0 for x in col.T @ v)


def _solve(a, b):
    """The solution of a @ x = b, written out of its form."""
    return from_integer_form(*solve_in_image(a, b))


def test_solve_identity():
    b = np.array([Fraction(3), Fraction(-2)], dtype=object)
    x = _solve(linalg.identity(2, "exact"), b)
    assert list(x) == [3, -2]


def test_solve_consistent_overdetermined():
    m = exact_matrix([[1], [2]])
    x = _solve(m, np.array([2, 4], dtype=object))
    assert list(x) == [2]


def test_solve_inconsistent_raises():
    m = exact_matrix([[1], [2]])
    with pytest.raises(ValueError):
        solve_in_image(m, np.array([1, 3], dtype=object))
    with pytest.raises(ValueError):
        solve_in_image(float_matrix([[1], [2]]), np.array([1.0, 3.0]))


def test_solve_multiple_rhs():
    m = exact_matrix([[2, 0], [0, 4]])
    b = exact_matrix([[2, 6], [4, 8]])
    x = _solve(m, b)
    assert x.shape == (2, 2)
    assert (m @ x == b).all()


def test_complement_within():
    whole = span_rows(linalg.identity(3, "exact"), 3)
    axis = span_rows(exact_matrix([[1, 0, 0]]), 3)
    comp = complement_within(axis, whole)
    assert comp.dim == 2
    for v in comp.vectors:
        assert v[0] == 0


def test_complement_within_containment_violation():
    a = span_rows(exact_matrix([[1, 0, 0]]), 3)
    b = span_rows(exact_matrix([[0, 1, 0]]), 3)
    with pytest.raises(ValueError):
        complement_within(a, b)


def test_subspaces_equal_and_contains():
    a = span_rows(exact_matrix([[1, 1, 0], [0, 1, 0]]), 3)
    b = span_rows(exact_matrix([[1, 0, 0], [1, 2, 0]]), 3)
    c = span_rows(exact_matrix([[0, 0, 1]]), 3)
    assert subspaces_equal(a, b)
    assert not subspaces_equal(a, c)
    assert subspace_contains(a, b)
    assert not subspace_contains(a, c)


@settings(max_examples=60, deadline=None)
@given(small_int_matrices())
def test_rank_equals_rank_of_transpose(rows):
    m = exact_matrix(rows)
    assert rank(m) == rank(m.T.copy())


@settings(max_examples=60, deadline=None)
@given(small_int_matrices())
def test_rank_nullity_exact(rows):
    m = exact_matrix(rows)
    r = rank(m)
    assert kernel_basis(m).dim == m.shape[1] - r
    assert kernel_basis(m.T.copy()).dim == m.shape[0] - r
    assert linalg.Reduction(m).image().dim == r


@settings(max_examples=60, deadline=None)
@given(small_int_matrices())
def test_kernel_annihilated_exactly(rows):
    m = exact_matrix(rows)
    k = kernel_basis(m)
    for v in k.vectors:
        assert all(x == 0 for x in m @ v)


@settings(max_examples=60, deadline=None)
@given(small_int_matrices())
def test_float_kernel_residual_small(rows):
    m = float_matrix(rows)
    k = kernel_basis(m)
    norm = np.linalg.norm(m)
    for v in k.vectors:
        bound = linalg.EPS_RANK * max(norm, 1.0) * max(np.linalg.norm(v), 1.0)
        assert np.linalg.norm(m @ v) <= bound * 1.01


@settings(max_examples=60, deadline=None)
@given(small_int_matrices())
def test_exact_and_float_rank_agree(rows):
    assert rank(exact_matrix(rows)) == rank(float_matrix(rows))


def test_exact_float_rank_agreement_bulk():
    # 100 random integer matrices, entries in [-10, 10], sizes up to 20x30
    rng = random.Random(20260809)
    for _ in range(100):
        r = rng.randint(1, 20)
        c = rng.randint(1, 30)
        rows = [[rng.randint(-10, 10) for _ in range(c)] for _ in range(r)]
        assert rank(exact_matrix(rows)) == rank(float_matrix(rows))


def test_solve_first_pivot_solution_is_deterministic():
    m = exact_matrix([[1, 1, 0], [0, 0, 1]])
    b = np.array([2, 5], dtype=object)
    x1 = _solve(m, b)
    x2 = _solve(m, b)
    assert list(x1) == list(x2) == [2, 0, 5]


def test_span_rows_canonicalizes():
    a = span_rows(exact_matrix([[2, 4], [1, 2], [3, 6]]), 2)
    assert a.dim == 1
    assert list(a.vectors[0]) == [1, 2]


def test_largest_principal_angle_identical_spans():
    a = span_rows(float_matrix([[1.0, 0.0], [0.0, 1.0]]), 2)
    b = span_rows(float_matrix([[1.0, 1.0], [1.0, -1.0]]), 2)
    assert linalg.largest_principal_angle(a, b) < 1e-12


# ---------------------------------------------------------------------------
# independent oracle: sympy DomainMatrix over QQ
# ---------------------------------------------------------------------------

def _perturbed_entry(rng):
    # a coordinate moved like framework.perturb at magnitude 1/1000, times a lever
    shift = Fraction(1, 1000) * Fraction(rng.randint(-4096, 4096), 4096)
    return (Fraction(rng.randint(-3, 3), 2) + shift) * (Fraction(rng.randint(-5, 5), 4) + shift)


def _random_sparse(rng, nrows, ncols, density=0.3, large=False):
    def entry():
        if rng.random() >= density:
            return 0
        if large:
            return _perturbed_entry(rng)
        return Fraction(rng.randint(-9, 9), rng.choice([1, 1, 2, 3, 7]))
    return [[entry() for _ in range(ncols)] for _ in range(nrows)]


def _oracle_cases():
    rng = random.Random(20261018)
    cases = [("empty rows", [], 5), ("empty cols", [[]] * 4, 0), ("empty", [], 0),
             ("zero", [[0] * 6 for _ in range(4)], 6),
             ("row denominators 1, 2, 21", [[1, 2, 0, 3], [Fraction(1, 2), 0, 1, Fraction(1, 2)],
                                            [Fraction(2, 3), Fraction(4, 7), 0, 0]], 4)]
    for i in range(6):
        cases.append((f"tall {i}", _random_sparse(rng, 14, 6), 6))
        cases.append((f"wide {i}", _random_sparse(rng, 5, 15), 15))
        cases.append((f"large denominators {i}", _random_sparse(rng, 8, 10, 0.5, True), 10))
        base = _random_sparse(rng, 4, 9, 0.4)
        mult = Fraction(rng.randint(1, 5), rng.randint(1, 5)) * rng.choice([-1, 1])
        rows = base + [list(base[1]), [mult * x for x in base[0]], base[3]]
        rng.shuffle(rows)
        cases.append((f"repeated rows {i}", rows, 9))
    # the integer boundary rows the benchmark eliminates, in the insertion
    # order that keeps their fill low
    for label, k in (("grid6 moment boundary", build_moment_cosheaf(grid(6))),
                     ("lattice3 force boundary", build_force_cosheaf(lattice(3)))):
        cases.append((label, [linalg._dense(r, k.c1_dim) for r in boundary_rows(k)], k.c1_dim))
    # a perturbation scan's coefficients: the moment boundary of a Desargues
    # frame perturbed at 10^-60, with integer entries of about 210 bits
    k = build_moment_cosheaf(perturb(make_desargues("1/2"), Fraction(1, 10 ** 60), 1))
    rows = [linalg._dense(r, k.c1_dim) for r in boundary_rows(k)]
    cases.append(("perturbed desargues moment boundary", rows, k.c1_dim))
    cases.append(("perturbed desargues moment boundary transposed",
                  [list(c) for c in zip(*rows)], k.c0_dim))
    return cases


ORACLE_CASES = _oracle_cases()


def _as_matrix(rows, ncols):
    return exact_matrix(rows, ncols) if rows else linalg.zeros(0, ncols, "exact")


@pytest.mark.parametrize("label, rows, ncols", ORACLE_CASES, ids=[c[0] for c in ORACLE_CASES])
def test_exact_reduction_matches_sympy_domain_matrix(label, rows, ncols):
    m, dm = _as_matrix(rows, ncols), domain_matrix(rows, ncols)
    red = linalg.Reduction(m)
    rref, pivots = dm.rref()
    assert red.rank == rank(m) == dm.rank() == len(pivots)
    assert red.pivots == list(pivots)
    # RREF: the row basis scaled to leading entries of 1
    ours = [[Fraction(x, r[p]) for x in r] for r, p in zip(red.row_basis().tolist(), pivots)]
    assert ours == fractions_of(rref)[:len(pivots)]
    # image: the pivot columns of the matrix cleared to integers, whatever its rows'
    # denominators
    ints = integer_form(m)[0].tolist()
    assert red.image().vectors.tolist() == [[r[p] for r in ints] for p in pivots]
    # kernel: integer, primitive, positive first nonzero entry, same span as sympy's
    kern = kernel_basis(m)
    assert kern.dim == ncols - len(pivots)
    for v in kern.vectors:
        assert all(type(x) is int for x in v)
        assert math.gcd(*v) == 1
        assert next(x for x in v if x) > 0
        assert all(x == 0 for x in m @ v)
    if kern.dim:
        nulls = fractions_of(dm.nullspace())
        assert domain_matrix(kern.vectors.tolist() + nulls, ncols).rank() == kern.dim == len(nulls)


@pytest.mark.parametrize("label, rows, ncols", ORACLE_CASES, ids=[c[0] for c in ORACLE_CASES])
def test_exact_solve_matches_sympy_domain_matrix(label, rows, ncols):
    rng = random.Random(label)
    m = _as_matrix(rows, ncols)
    nrows = m.shape[0]
    x0 = exact_matrix([[Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(2)]
                       for _ in range(ncols)], 2) if ncols else linalg.zeros(0, 2, "exact")
    b = m @ x0 if ncols else linalg.zeros(nrows, 2, "exact")
    x = _solve(m, b)
    assert (m @ x == b).all()
    # b handed in as a form (ints, d): the same solution, over d times the solve's own
    ints, d = solve_in_image(m, *integer_form(b))
    assert from_integer_form(ints, d).tolist() == x.tolist()
    # the from_integer_form convention: int where integral, reduced Fraction otherwise
    assert all(type(v) is (int if v.denominator == 1 else Fraction) for v in x.flat)
    # the solution of the RREF of [A | b] with every free variable set to zero
    rref, pivots = domain_matrix(np.hstack([m, b]).tolist(), ncols + 2).rref()
    want = [[Fraction(0)] * 2 for _ in range(ncols)]
    rref = fractions_of(rref)
    for r, p in enumerate(pivots):
        want[p] = rref[r][ncols:]
    assert x.tolist() == want
    # a right-hand side with a component in (im A)^perp = ker A^T is refused
    for off in fractions_of(domain_matrix(m.T.tolist(), nrows).nullspace()):
        bad = b.copy()
        bad[:, 1] = bad[:, 1] + np.array(off, dtype=object)
        with pytest.raises(ValueError, match="not in the column space"):
            solve_in_image(m, bad)


def test_integer_form_of_an_integral_matrix():
    # all-int entries: the matrix is its own form, over 1, not a copy
    a = exact_matrix([[1, -2, 0], [3, 10 ** 40, 5]])
    ints, d = integer_form(a)
    assert ints is a and d == 1
    # a Fraction of denominator 1 takes the clearing path and comes back as int
    ints, d = integer_form(exact_matrix([[Fraction(2, 1), 3], [0, Fraction(-4, 1)]]))
    assert d == 1 and ints.tolist() == [[2, 3], [0, -4]]
    assert all(type(x) is int for x in ints.flat)
    # a true fraction clears over the lcm of the denominators
    ints, d = integer_form(exact_matrix([[Fraction(1, 2), 1], [Fraction(2, 3), 0]]))
    assert d == 6 and ints.tolist() == [[3, 6], [4, 0]]
    assert all(type(x) is int for x in ints.flat)


def _random_rational(rng, shape, den_bits, zero=False):
    rows = [[0 if zero or rng.random() < 0.3 else
             Fraction(rng.randint(-50, 50), rng.randint(1, 2 ** den_bits))
             for _ in range(shape[1])] for _ in range(shape[0])]
    return exact_matrix(rows, shape[1])


@pytest.mark.parametrize("dims, den_bits, zero", [
    ((3, 4, 2), 4, None), ((2, 5, 5, 3), 8, None), ((4, 4, 4), 80, None),
    ((0, 3, 2), 4, None), ((3, 0, 2), 4, None), ((3, 2, 0), 4, None),
    ((3, 3, 4), 6, 0), ((2, 3, 3, 2), 6, 2), ((1, 1), 3, None),
])
def test_product_matches_object_matmul(dims, den_bits, zero):
    # an exact product formed as the code forms it: the factors' integer
    # forms multiplied, over the product of their denominators;
    # zero: index of an all-zero factor, if any
    rng = random.Random(f"{dims}:{den_bits}:{zero}")
    for _ in range(5):
        factors = [_random_rational(rng, (r, c), den_bits, zero=(i == zero))
                   for i, (r, c) in enumerate(zip(dims, dims[1:]))]
        want = factors[0]
        for a in factors[1:]:
            want = want @ a
        ints, den = integer_form(factors[0])
        for a in factors[1:]:
            a_ints, d = integer_form(a)
            ints, den = ints @ a_ints, den * d
        got = from_integer_form(ints, den)
        assert got.dtype == object and got.shape == want.shape
        assert (got == want).all()
        for x in got.flat:
            assert type(x) is (int if Fraction(x).denominator == 1 else Fraction)
