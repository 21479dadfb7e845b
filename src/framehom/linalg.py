"""Linear algebra over exact rationals, with a floating fallback.

Matrices are plain 2-D numpy arrays.  ``dtype=object`` entries are exact
rationals (``fractions.Fraction`` or int) and make up "exact" mode;
``dtype=float64`` is "float" mode.  A computation never mixes modes: the
mode of every derived matrix is the mode of its inputs.

Exact mode eliminates on sparse integer rows: a dense matrix is cleared
to ``integer_form`` ints / d once, and each row of the ints becomes a
{column: int} map; a caller with integer rows, such as a cosheaf
boundary, hands them to ``Reduction.of_rows``; a float caller hands the
SVD a dense matrix.  d scales no span, so it is dropped: every exact
basis is a span of integer rows.  Rows are reduced fraction-free
(Bareiss, Math. Comp. 22, 1968) on private copies, and enter the
echelon in decreasing order of their leading column, for low fill.  A
row's gcd content is removed once per pivot or RREF row, not after every
step.  The rank is read off the forward echelon; back-substitution runs
only when a kernel, row basis or solution is first read.  Pivot columns
and RREF depend neither on the elimination order nor on positive row
scalings, so ranks, kernels, row bases and solutions are those of a
Gauss-Jordan RREF over the rationals, bit-for-bit.  ``solve_in_image``
and ``solve_gram`` take a right-hand side over a denominator and return
their solution as a form (ints, d): the RREF numerators over the lcm of
the pivot entries.
Float mode ranks are SVD-based with a relative singular value cutoff of
``EPS_RANK``; subspace comparisons use principal angles with threshold
``EPS_ANGLE``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

import numpy as np

MODE_EXACT = "exact"
MODE_FLOAT = "float"

EPS_RANK = 1e-10   # float mode: singular values below EPS_RANK * sigma_max count as zero
EPS_ANGLE = 1e-7   # float mode: largest principal angle tolerated in subspace comparisons
EPS_SOLVE = 1e-8   # float mode: relative residual tolerated by solve_in_image


def mode_of(a: np.ndarray) -> str:
    return MODE_EXACT if a.dtype == object else MODE_FLOAT


def exact_matrix(rows, cols: int | None = None) -> np.ndarray:
    """Build an exact-mode matrix from nested sequences of rationals."""
    rows = [list(r) for r in rows]
    if not rows:
        if cols is None:
            raise ValueError("empty matrix needs an explicit column count")
        return np.zeros((0, cols), dtype=object)
    ncols = len(rows[0])
    out = np.empty((len(rows), ncols), dtype=object)
    for i, r in enumerate(rows):
        if len(r) != ncols:
            raise ValueError("ragged rows")
        out[i, :] = r
    return out


def float_matrix(rows, cols: int | None = None) -> np.ndarray:
    if not len(rows):
        if cols is None:
            raise ValueError("empty matrix needs an explicit column count")
        return np.zeros((0, cols))
    return np.asarray(rows, dtype=float)


def zeros(rows: int, cols: int, mode: str) -> np.ndarray:
    return np.zeros((rows, cols), dtype=object if mode == MODE_EXACT else float)


def identity(n: int, mode: str) -> np.ndarray:
    out = zeros(n, n, mode)
    for i in range(n):
        out[i, i] = 1 if mode == MODE_EXACT else 1.0
    return out


def integer_form(a: np.ndarray) -> tuple[np.ndarray, int]:
    """A matrix as (integer matrix, d) with ``a`` = ints / d: in exact mode d
    is the lcm of the denominators of its entries.  A float matrix, and an
    exact one whose entries are all ``int``, is its own form, over 1, not a
    copy; no caller writes to a form."""
    if mode_of(a) == MODE_FLOAT:
        return a, 1
    flat = a.ravel().tolist()
    if set(map(type, flat)) <= {int}:
        return a, 1
    d = math.lcm(*(x.denominator for x in flat))
    ints = np.array([x.numerator * (d // x.denominator) for x in flat], dtype=object)
    return ints.reshape(a.shape), d


def from_integer_form(ints: np.ndarray, den: int) -> np.ndarray:
    """The matrix ints / den: integral entries as ``int``, others as reduced
    ``Fraction``."""
    if den == 1:
        return ints
    flat = [x // den if x % den == 0 else Fraction(x, den) for x in ints.ravel().tolist()]
    return np.array(flat, dtype=object).reshape(ints.shape)


@dataclass(frozen=True)
class SubspaceBasis:
    """Linearly independent spanning vectors of a subspace of R^ambient_dim.

    ``vectors`` has shape (dim, ambient_dim): each row is one basis vector.
    An empty row set (the zero subspace) is legal.  A span does not depend
    on scale, so an exact basis holds only ``int`` entries.
    """

    ambient_dim: int
    vectors: np.ndarray

    def __post_init__(self):
        if self.vectors.ndim != 2 or self.vectors.shape[1] != self.ambient_dim:
            raise ValueError(
                f"basis vectors have shape {self.vectors.shape}, "
                f"ambient dimension is {self.ambient_dim}")

    @property
    def dim(self) -> int:
        return self.vectors.shape[0]

    @property
    def mode(self) -> str:
        return mode_of(self.vectors)

    def matrix(self) -> np.ndarray:
        """Basis vectors as the columns of an (ambient_dim x dim) matrix."""
        return self.vectors.T.copy()


# ---------------------------------------------------------------------------
# exact elimination: sparse integer rows, fraction-free
# ---------------------------------------------------------------------------

def _clear(row: dict, piv: dict, c: int):
    """Clear column c of ``row`` in place with ``piv``: row <- (p_c/g) row - (r_c/g) piv.

    ``piv[c]`` is positive, so ``row`` is scaled by a positive factor
    wherever ``piv`` is zero; its content is left for ``_primitive``.
    """
    g = math.gcd(row[c], piv[c])
    a, b = piv[c] // g, row[c] // g
    if a != 1:
        for j, v in row.items():
            row[j] = a * v
    for j, v in piv.items():
        w = row.get(j, 0) - b * v
        if w:
            row[j] = w
        else:
            del row[j]


def _primitive(row: dict, c: int) -> dict:
    """``row`` divided by its content, with a positive entry at column c."""
    g = math.gcd(*row.values()) * (1 if row[c] > 0 else -1)
    return {j: v // g for j, v in row.items()} if g != 1 else row


def _echelon(rows: list[dict]) -> dict[int, dict]:
    """Forward elimination: {leading column: row}, rows content-free, leads positive.

    Rows enter in decreasing order of their leading column, which keeps
    fill low; each is copied and reduced in place against the pivot at its
    current leading column until it is zero or leads at a new column.
    """
    piv: dict[int, dict] = {}
    for c, row in sorted(((min(r), r) for r in rows if r), key=lambda cr: cr[0], reverse=True):
        row = dict(row)
        while c in piv:
            _clear(row, piv[c], c)
            if not row:
                break
            c = min(row)
        else:
            piv[c] = _primitive(row, c)
    return piv


def _back_substitute(echelon: dict[int, dict]) -> dict[int, dict]:
    """Clear each pivot row at every other pivot column, last pivot first.

    Every row is reduced against rows already cleared, so each result is
    its RREF row times a positive integer, content-free.
    """
    out: dict[int, dict] = {}
    for c in sorted(echelon, reverse=True):
        row = dict(echelon[c])
        for k in [k for k in row if k != c and k in out]:
            _clear(row, out[k], k)
        out[c] = _primitive(row, c)
    return out


def _sparse_rows(ints: np.ndarray) -> list[dict]:
    return [{j: x for j, x in enumerate(row) if x} for row in ints.tolist()]


def _dense(row: dict, n: int) -> list:
    v = [0] * n
    for j, x in row.items():
        v[j] = x
    return v


# ---------------------------------------------------------------------------
# rank / kernel / image / complement
# ---------------------------------------------------------------------------

class Reduction:
    """One elimination of a matrix, read for its rank, kernel, image and rows.

    Exact mode keeps the sparse integer rows of the matrix times the lcm d
    of its denominators, their forward echelon and its pivot and free
    columns, and back-substitutes once, on the first read of the kernel,
    the row basis or a solution.  Float mode keeps the
    full SVD.
    """

    def __init__(self, a: np.ndarray):
        self.shape = a.shape
        self.exact = mode_of(a) == MODE_EXACT
        if self.exact:
            self._forward(_sparse_rows(integer_form(a)[0]))
        elif a.size:
            self.u, s, self.vh = np.linalg.svd(a, full_matrices=True)
            self.rank = int(np.count_nonzero(s > EPS_RANK * s[0]))
        else:
            self.u, self.vh, self.rank = np.eye(a.shape[0]), np.eye(a.shape[1]), 0

    @classmethod
    def of_rows(cls, rows: list[dict], ncols: int) -> Reduction:
        """The exact elimination of the matrix whose rows are the sparse
        integer {column: nonzero entry} maps ``rows``; the rows are
        eliminated as they are."""
        red = cls.__new__(cls)
        red.shape, red.exact = (len(rows), ncols), True
        red._forward(rows)
        return red

    def _forward(self, ints: list[dict]):
        self._int_rows = ints
        self._echelon = _echelon(ints)
        self.pivots = sorted(self._echelon)
        self.rank = len(self.pivots)
        self.free_columns = [c for c in range(self.shape[1]) if c not in self._echelon]

    @cached_property
    def _reduced(self) -> dict[int, dict]:
        """The echelon cleared at every other pivot column; kept when already so."""
        ech = self._echelon
        if any(k != c and k in ech for c, row in ech.items() for k in row):
            return _back_substitute(ech)
        return ech

    def kernel(self) -> SubspaceBasis:
        """Basis of the right nullspace {x : a @ x = 0}.

        Exact mode returns one integer vector per free column, with entries
        of gcd 1 and a positive first nonzero entry; float mode the
        orthonormal rows of V beyond the numerical rank.
        """
        ncols = self.shape[1]
        if not self.exact:
            return SubspaceBasis(ncols, self.vh[self.rank:, :].copy())
        red = self._reduced
        touching: dict[int, list] = {}   # free column -> pivot rows with a nonzero there
        for c, row in red.items():
            for k in row:
                if k != c:
                    touching.setdefault(k, []).append(c)
        vecs = []
        for fc in self.free_columns:
            pcs = touching.get(fc, [])
            lcm = math.lcm(*(red[c][c] for c in pcs))
            v = [0] * ncols
            v[fc] = lcm
            for c in pcs:
                v[c] = -red[c][fc] * (lcm // red[c][c])
            g = math.gcd(lcm, *(v[c] for c in pcs)) * (-1 if pcs and v[min(pcs)] < 0 else 1)
            for j in (fc, *pcs):
                v[j] //= g
            vecs.append(v)
        return SubspaceBasis(ncols, exact_matrix(vecs, ncols))

    def annihilates(self, ints: np.ndarray) -> bool:
        """True when the exact matrix times the integer matrix ``ints`` is
        zero; read on the integer multiples of its rows, so no ``Fraction``
        is formed.  Each row's product is summed on Python lists, which
        beats object-array arithmetic on these short rows."""
        rows = ints.tolist()
        for row in self._int_rows:
            acc = [0] * ints.shape[1]
            for j, v in row.items():
                acc = [a + v * x for a, x in zip(acc, rows[j])]
            if any(acc):
                return False
        return True

    def image(self) -> SubspaceBasis:
        """Basis of the column space: the integer pivot columns of the rows
        held (``pivot_columns``) in exact mode, the leading left singular
        vectors in float mode."""
        nrows = self.shape[0]
        if not self.exact:
            return SubspaceBasis(nrows, self.u[:, :self.rank].T.copy())
        vecs = [_dense(col, nrows) for col in self.pivot_columns()]
        return SubspaceBasis(nrows, exact_matrix(vecs, nrows))

    def pivot_columns(self) -> list[dict]:
        """The integer columns at the pivots, as sparse {row: entry} maps read
        off the rows held: rows that span the transpose's row space."""
        cols = {c: {} for c in self.pivots}
        for i, row in enumerate(self._int_rows):
            for j, x in row.items():
                if j in cols:
                    cols[j][i] = x
        return list(cols.values())

    def rref_rows(self) -> tuple:
        """Exact mode: the nonzero RREF rows, primitive with positive leading
        entries, as sorted (column, entry) tuples; a hashable canonical
        name for the row space."""
        return tuple(tuple(sorted(self._reduced[c].items())) for c in self.pivots)

    def row_basis(self) -> np.ndarray:
        """Canonical independent rows spanning the row space: the nonzero
        RREF rows as primitive integers with positive leading entries in
        exact mode, orthonormal rows in float mode."""
        if not self.exact:
            return self.vh[:self.rank, :].copy()
        ncols = self.shape[1]
        return exact_matrix([_dense(self._reduced[c], ncols) for c in self.pivots], ncols)


def rank(a: np.ndarray) -> int:
    """Matrix rank: exact over the rationals, SVD cutoff in float mode."""
    return Reduction(a).rank


def kernel_basis(a: np.ndarray) -> SubspaceBasis:
    """Basis of the right nullspace {x : a @ x = 0}; see Reduction.kernel."""
    return Reduction(a).kernel()


# ---------------------------------------------------------------------------
# solving
# ---------------------------------------------------------------------------

def solve_in_image(a: np.ndarray, b: np.ndarray, den: int = 1) -> tuple[np.ndarray, int]:
    """Solve a @ x = b / den for b / den in the column space of ``a``, and
    return x as a form (ints, d).

    ``b`` may be a vector or a matrix of stacked right-hand-side columns
    (all solved in one elimination pass); ``den`` is 1 in float mode, where
    forms are over 1.  Exact mode reads the solution with all RREF-free
    variables set to zero off the one reduction of [a | b]: the RREF
    numerators over the lcm of its pivot entries, times ``den``.  Float
    mode returns the minimum-norm solution.  Raises ValueError when any
    right-hand side is outside the column space.
    """
    single = b.ndim == 1
    bm = b.reshape(-1, 1) if single else b
    if bm.shape[0] != a.shape[0]:
        raise ValueError(f"shape mismatch: {a.shape} vs {bm.shape}")
    nrows, ncols = a.shape
    nrhs = bm.shape[1]
    if nrhs == 0:  # nothing to solve for; skip the elimination of ``a``
        return zeros(ncols, 0, mode_of(a)), den
    if mode_of(a) == MODE_EXACT:
        red = Reduction(np.hstack([a, bm]))
        if red.pivots and red.pivots[-1] >= ncols:
            raise ValueError("right-hand side is not in the column space")
        rref = red._reduced
        d = math.lcm(*(row[c] for c, row in rref.items()))
        out = np.zeros((ncols, nrhs), dtype=object)
        for c, row in rref.items():
            scale = d // row[c]
            for k, v in row.items():
                if k >= ncols:
                    out[c, k - ncols] = v * scale
        den *= d
    else:
        if ncols == 0:
            if bm.size and np.linalg.norm(bm) > EPS_SOLVE * max(1.0, float(np.abs(a).sum())):
                raise ValueError("right-hand side is not in the column space")
            out = np.zeros((0, nrhs))
        else:
            out, *_ = np.linalg.lstsq(a, bm, rcond=None)
            resid = a @ out - bm
            scale = max(1.0, float(np.abs(a).max(initial=0.0)) *
                        float(np.abs(out).max(initial=0.0)), float(np.abs(bm).max(initial=0.0)))
            if float(np.abs(resid).max(initial=0.0)) > EPS_SOLVE * scale:
                raise ValueError("right-hand side is not in the column space")
    return (out[:, 0] if single else out), den


def solve_gram(basis_matrix: np.ndarray, rhs: np.ndarray, den: int = 1) -> tuple[np.ndarray, int]:
    """Solve (B^T B) x = B^T rhs / den where B has independent columns, and
    return x as a form (ints, d).

    Gives the coordinates of the orthogonal projection of each column of
    rhs / den onto span(B).  B and rhs are multiplied as they are: integers
    in the exact callers, which pass a form's ints as rhs.
    """
    bt = basis_matrix.T.copy()
    return solve_in_image(bt @ basis_matrix, bt @ rhs, den)


# ---------------------------------------------------------------------------
# subspace toolkit
# ---------------------------------------------------------------------------

def _check_same_ambient(a: SubspaceBasis, b: SubspaceBasis):
    if a.ambient_dim != b.ambient_dim:
        raise ValueError(f"ambient dimensions differ: {a.ambient_dim} vs {b.ambient_dim}")
    if a.dim and b.dim and a.mode != b.mode:
        raise ValueError("mixed exact/float subspaces")


def span_rows(vectors: np.ndarray, ambient_dim: int) -> SubspaceBasis:
    """SubspaceBasis spanned by the rows of ``vectors`` (made independent)."""
    return SubspaceBasis(ambient_dim, Reduction(vectors).row_basis())


def complement_within(sub: SubspaceBasis, ambient_sub: SubspaceBasis) -> SubspaceBasis:
    """Orthogonal complement of span(sub) inside span(ambient_sub).

    Requires sub ⊆ ambient_sub.
    """
    _check_same_ambient(sub, ambient_sub)
    if not subspace_contains(ambient_sub, sub):
        raise ValueError("sub is not contained in ambient_sub")
    w = ambient_sub.matrix()
    if sub.dim == 0:
        return SubspaceBasis(ambient_sub.ambient_dim, ambient_sub.vectors.copy())
    constraints = sub.vectors @ w
    coeffs = kernel_basis(constraints)
    vecs = coeffs.vectors @ ambient_sub.vectors
    return span_rows(vecs, ambient_sub.ambient_dim)


def subspace_contains(outer: SubspaceBasis, inner: SubspaceBasis) -> bool:
    """True when span(outer) ⊇ span(inner)."""
    _check_same_ambient(outer, inner)
    if inner.dim == 0:
        return True
    if outer.dim == 0:
        return False
    if outer.mode == MODE_EXACT:
        stacked = np.vstack([outer.vectors, inner.vectors])
        return rank(stacked) == outer.dim
    q = Reduction(outer.vectors).row_basis()
    resid = inner.vectors - (inner.vectors @ q.T) @ q
    norms = np.linalg.norm(inner.vectors, axis=1)
    norms[norms == 0] = 1.0
    return bool(np.all(np.linalg.norm(resid, axis=1) / norms < EPS_ANGLE))


def subspaces_equal(a: SubspaceBasis, b: SubspaceBasis) -> bool:
    """True when span(a) = span(b).

    Exact mode certifies, for equal dimensions, that span(a) contains
    span(b) through one rank identity; float mode requires equal dimensions
    and largest principal angle < EPS_ANGLE.
    """
    _check_same_ambient(a, b)
    if a.dim != b.dim:
        return False
    if a.dim == 0:
        return True
    if a.mode == MODE_EXACT:
        return subspace_contains(a, b)
    return largest_principal_angle(a, b) < EPS_ANGLE


def largest_principal_angle(a: SubspaceBasis, b: SubspaceBasis) -> float:
    """Largest principal angle between two float-mode subspaces, radians."""
    _check_same_ambient(a, b)
    if a.dim == 0 or b.dim == 0:
        return 0.0 if a.dim == b.dim else math.pi / 2
    qa = Reduction(a.vectors).row_basis()
    qb = Reduction(b.vectors).row_basis()
    s = np.linalg.svd(qa @ qb.T, compute_uv=False)
    k = min(qa.shape[0], qb.shape[0])
    smin = float(s[k - 1]) if s.size >= k and k > 0 else 0.0
    return math.acos(min(1.0, max(-1.0, smin)))
