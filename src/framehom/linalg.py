"""Linear algebra over exact rationals, with a floating fallback.

Matrices are plain 2-D numpy arrays, built by numpy (``np.array`` with a
dtype) or by ``from_rows``, and every shape is read off the array.
``dtype=object`` entries are exact rationals (``fractions.Fraction`` or
int) and make up "exact" mode; ``dtype=float64`` is "float" mode.  A
computation never mixes modes: the mode of every derived matrix is the
mode of its inputs.  A basis of a subspace of R^m is the 2-D array of
shape (dim, m) whose independent rows span it: its dimension is
``len(b)``, its ambient dimension ``b.shape[1]`` even with no rows, and
``b.T.copy()`` its column matrix.  A span does not depend on scale, so an
exact basis holds only ``int`` entries.

Exact mode eliminates on sparse integer rows: a dense matrix is cleared
to ``integer_form`` ints / d once, and each row of the ints becomes a
{column: int} map; a caller with integer rows, such as a cosheaf
boundary, hands them to ``Reduction.of_rows``; a float caller hands the
SVD a dense matrix.  d scales no span, so it is dropped: every exact
basis is a span of integer rows.  Rows are reduced fraction-free
(Bareiss, Math. Comp. 22, 1968) on private copies, and enter the
echelon in decreasing order of their leading column, for low fill.  A
row's gcd content is removed once per pivot or RREF row, not after every
step.  The forward echelon stops once every column holds a pivot, as
the rows left lie in the span; the rank is read off it, and
back-substitution runs only when a kernel, row basis or solution is
first read.  Pivot columns
and RREF depend neither on the elimination order nor on positive row
scalings, so ranks, kernels, row bases and solutions are those of a
Gauss-Jordan RREF over the rationals, bit-for-bit.  ``solve_in_image``
and ``solve_gram`` take a right-hand side over a denominator and return
their solution as a form (ints, d): the RREF numerators over the lcm of
the pivot entries.  Exact bases, RREF rows, solutions, the dense boundary
and the identity are written once from sparse rows by ``from_rows``.
Float mode ranks are SVD-based with a relative singular value cutoff of
``EPS_RANK``; float containment tests, and the largest principal angles
by which the float exactness checks compare subspaces, are held to
``EPS_ANGLE``.
"""

from __future__ import annotations

import math
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


def zeros(rows: int, cols: int, mode: str) -> np.ndarray:
    return np.zeros((rows, cols), dtype=object if mode == MODE_EXACT else float)


def from_rows(rows: list[dict], ncols: int, mode: str) -> np.ndarray:
    """The (len(rows) x ncols) matrix whose row i holds the sparse
    {column: entry} map ``rows[i]``, and zeros elsewhere."""
    out = zeros(len(rows), ncols, mode)
    out.flat[[i * ncols + j for i, row in enumerate(rows) for j in row]] = [
        x for row in rows for x in row.values()]
    return out


def identity(n: int, mode: str) -> np.ndarray:
    return from_rows([{i: 1} for i in range(n)], n, mode)


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


def _echelon(rows: list[dict], ncols: int) -> dict[int, dict]:
    """Forward elimination: {leading column: row}, rows content-free, leads positive.

    Rows enter in decreasing order of their leading column, which keeps
    fill low; each is copied and reduced in place against the pivot at its
    current leading column until it is zero or leads at a new column.  Once
    each of the ``ncols`` columns holds a pivot, the rows left lie in the
    span and would reduce to zero, so they are not read.
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
            if len(piv) == ncols:
                break
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


# ---------------------------------------------------------------------------
# rank / kernel / image / complement
# ---------------------------------------------------------------------------

class Reduction:
    """One elimination of a matrix, read for its rank, kernel, image and rows.

    Exact mode keeps the sparse integer rows of the matrix times the lcm d
    of its denominators, all of them, their forward echelon and its pivot
    and free columns, and back-substitutes once, on the first read of the
    kernel, the row basis or a solution.  Float mode keeps the full SVD.
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
        self._echelon = _echelon(ints, self.shape[1])
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

    def kernel(self) -> np.ndarray:
        """Basis of the right nullspace {x : a @ x = 0}, one vector per row.

        Exact mode writes by ``from_rows`` one sparse integer row per free
        column (it and the pivot rows touching it), of gcd 1 and a positive
        first nonzero entry; float mode the orthonormal rows of V past the rank.
        """
        ncols = self.shape[1]
        if not self.exact:
            return self.vh[self.rank:, :].copy()
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
            v = {c: -red[c][fc] * (lcm // red[c][c]) for c in pcs}
            v[fc] = lcm
            vecs.append(_primitive(v, min(v)))
        return from_rows(vecs, ncols, MODE_EXACT)

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

    def image(self) -> np.ndarray:
        """Basis of the column space, one vector per row: ``from_rows`` of the
        integer pivot columns (``pivot_columns``) in exact mode, the leading
        left singular vectors in float mode."""
        if not self.exact:
            return self.u[:, :self.rank].T.copy()
        return from_rows(self.pivot_columns(), self.shape[0], MODE_EXACT)

    def pivot_columns(self) -> list[dict]:
        """The integer columns at the pivots, as sparse {row: entry} maps read
        off the rows held: rows that span the transpose's row space."""
        cols = {c: {} for c in self.pivots}
        for i, row in enumerate(self._int_rows):
            for j, x in row.items():
                if j in cols:
                    cols[j][i] = x
        return list(cols.values())

    def row_basis(self) -> np.ndarray:
        """Canonical independent rows spanning the row space: the nonzero
        RREF rows, primitive with positive leading entries, written by
        ``from_rows`` in exact mode; orthonormal rows in float mode."""
        if not self.exact:
            return self.vh[:self.rank, :].copy()
        return from_rows([self._reduced[c] for c in self.pivots], self.shape[1], MODE_EXACT)


def rank(a: np.ndarray) -> int:
    """Matrix rank: exact over the rationals, SVD cutoff in float mode."""
    return Reduction(a).rank


def kernel_basis(a: np.ndarray) -> np.ndarray:
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
        sol = {c: {k - ncols: v * (d // row[c]) for k, v in row.items() if k >= ncols}
               for c, row in rref.items()}
        out = from_rows([sol.get(c, {}) for c in range(ncols)], nrhs, MODE_EXACT)
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

def _check_same_ambient(a: np.ndarray, b: np.ndarray):
    for v in (a, b):
        if v.ndim != 2:
            raise ValueError(f"basis vectors have shape {v.shape}, not 2-D")
    if a.shape[1] != b.shape[1]:
        raise ValueError(f"ambient dimensions differ: {a.shape[1]} vs {b.shape[1]}")
    if len(a) and len(b) and mode_of(a) != mode_of(b):
        raise ValueError("mixed exact/float subspaces")


def span_rows(vectors: np.ndarray) -> np.ndarray:
    """The basis of the span of the rows of the 2-D array ``vectors``: its
    canonical independent rows (``Reduction.row_basis``), in the ambient
    space of its columns, even with no rows."""
    return Reduction(vectors).row_basis()


def complement_within(sub: np.ndarray, ambient_sub: np.ndarray) -> np.ndarray:
    """The basis of the orthogonal complement of span(sub) inside
    span(ambient_sub), one vector per row.

    Requires sub ⊆ ambient_sub.
    """
    _check_same_ambient(sub, ambient_sub)
    if not subspace_contains(ambient_sub, sub):
        raise ValueError("sub is not contained in ambient_sub")
    if len(sub) == 0:
        return ambient_sub.copy()
    coeffs = kernel_basis(sub @ ambient_sub.T.copy())
    return span_rows(coeffs @ ambient_sub)


def subspace_contains(outer: np.ndarray, inner: np.ndarray) -> bool:
    """True when span(outer) ⊇ span(inner)."""
    _check_same_ambient(outer, inner)
    if len(inner) == 0:
        return True
    if len(outer) == 0:
        return False
    if mode_of(outer) == MODE_EXACT:
        stacked = np.vstack([outer, inner])
        return rank(stacked) == len(outer)
    q = Reduction(outer).row_basis()
    resid = inner - (inner @ q.T) @ q
    norms = np.linalg.norm(inner, axis=1)
    norms[norms == 0] = 1.0
    return bool(np.all(np.linalg.norm(resid, axis=1) / norms < EPS_ANGLE))


def largest_principal_angle(a: np.ndarray, b: np.ndarray) -> float:
    """Largest principal angle between two float-mode subspaces, radians."""
    _check_same_ambient(a, b)
    if len(a) == 0 or len(b) == 0:
        return 0.0 if len(a) == len(b) else math.pi / 2
    qa = Reduction(a).row_basis()
    qb = Reduction(b).row_basis()
    s = np.linalg.svd(qa @ qb.T, compute_uv=False)
    k = min(qa.shape[0], qb.shape[0])
    smin = float(s[k - 1]) if s.size >= k and k > 0 else 0.0
    return math.acos(min(1.0, max(-1.0, smin)))
