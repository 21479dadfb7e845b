"""Exact and float linear algebra kernel tests."""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framehom import linalg
from framehom.linalg import (
    complement_within,
    exact_matrix,
    float_matrix,
    image_basis,
    image_complement_basis,
    kernel_basis,
    rank,
    solve_in_image,
    span_rows,
    subspace_contains,
    subspaces_equal,
    to_float,
)


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
    assert image_complement_basis(linalg.identity(2, "exact")).dim == 0


def test_image_complement_single_column():
    # 4x1 column; complement dimension checked against a float SVD oracle
    col = exact_matrix([[1], [0], [-1], [0]])
    comp = image_complement_basis(col)
    assert comp.dim == 3
    u, s, vh = np.linalg.svd(to_float(col))
    svd_rank = int(np.count_nonzero(s > 1e-12))
    assert comp.dim == 4 - svd_rank
    for v in comp.vectors:
        assert all(x == 0 for x in col.T @ v)


def test_solve_identity():
    b = np.array([Fraction(3), Fraction(-2)], dtype=object)
    x = solve_in_image(linalg.identity(2, "exact"), b)
    assert list(x) == [3, -2]


def test_solve_consistent_overdetermined():
    m = exact_matrix([[1], [2]])
    x = solve_in_image(m, np.array([2, 4], dtype=object))
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
    x = solve_in_image(m, b)
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
    assert image_complement_basis(m).dim == m.shape[0] - r
    assert image_basis(m).dim == r


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
    x1 = solve_in_image(m, b)
    x2 = solve_in_image(m, b)
    assert list(x1) == list(x2) == [2, 0, 5]


def test_span_rows_canonicalizes():
    a = span_rows(exact_matrix([[2, 4], [1, 2], [3, 6]]), 2)
    assert a.dim == 1
    assert list(a.vectors[0]) == [1, 2]


def test_largest_principal_angle_identical_spans():
    a = span_rows(float_matrix([[1.0, 0.0], [0.0, 1.0]]), 2)
    b = span_rows(float_matrix([[1.0, 1.0], [1.0, -1.0]]), 2)
    assert linalg.largest_principal_angle(a, b) < 1e-12
