"""Dense linear algebra over exact rationals, with a floating fallback.

Matrices are plain 2-D numpy arrays.  ``dtype=object`` entries are exact
rationals (``fractions.Fraction`` or int) and make up "exact" mode;
``dtype=float64`` is "float" mode.  A computation never mixes modes: the
mode of every derived matrix is the mode of its inputs.

Exact mode reduces with deterministic pivoting (first nonzero entry in
column order), so ranks, kernels and complements are reproducible
bit-for-bit.  Float mode ranks are SVD-based with a relative singular
value cutoff of ``EPS_RANK``; subspace comparisons use principal angles
with threshold ``EPS_ANGLE``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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


def to_float(a: np.ndarray) -> np.ndarray:
    return np.asarray([[float(x) for x in row] for row in a], dtype=float) if a.size \
        else np.zeros(a.shape)


@dataclass(frozen=True)
class SubspaceBasis:
    """Linearly independent spanning vectors of a subspace of R^ambient_dim.

    ``vectors`` has shape (dim, ambient_dim): each row is one basis vector.
    An empty row set (the zero subspace) is legal.
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
# exact kernel: reduced row echelon form with first-nonzero pivoting
# ---------------------------------------------------------------------------

def _rref(rows: list[list], ncols: int) -> tuple[list[list], list[int]]:
    """In-place RREF over exact rationals. Returns (rows, pivot columns)."""
    nrows = len(rows)
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, nrows):
            if rows[i][c]:
                pr = i
                break
        if pr is None:
            continue
        if pr != r:
            rows[r], rows[pr] = rows[pr], rows[r]
        p = rows[r][c]
        if p != 1:
            rows[r] = [x / p if x else x for x in rows[r]]
        top = rows[r]
        for i in range(nrows):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b if b else a for a, b in zip(rows[i], top)]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots


def _q_rows(a: np.ndarray) -> list[list]:
    """Rows of ``a`` as lists of Fractions, so that division stays exact.

    Zeros become one shared object.  Nonzero Fractions are immutable and
    are shared as they are; only ints are converted.
    """
    zero = Fraction(0)
    return [[(x if isinstance(x, Fraction) else Fraction(x)) if x else zero for x in row]
            for row in a]


def _clear_primitive(vec: list) -> list[int]:
    """Scale a rational vector to coprime integers with positive leading entry."""
    den = 1
    for x in vec:
        den = den * x.denominator // math.gcd(den, x.denominator)
    ints = [int(x * den) for x in vec]
    g = 0
    for v in ints:
        g = math.gcd(g, v)
    if g > 1:
        ints = [v // g for v in ints]
    for v in ints:
        if v:
            if v < 0:
                ints = [-w for w in ints]
            break
    return ints


def _exact_rows_to_array(vectors: list[list], ncols: int) -> np.ndarray:
    if not vectors:
        return np.zeros((0, ncols), dtype=object)
    out = np.empty((len(vectors), ncols), dtype=object)
    for i, v in enumerate(vectors):
        out[i, :] = v
    return out


# ---------------------------------------------------------------------------
# rank / kernel / image / complement
# ---------------------------------------------------------------------------

class Reduction:
    """One elimination of a matrix, read for its rank, kernel, image and rows.

    Exact mode keeps the RREF rows and pivot columns (first-nonzero
    pivoting, so every read is reproducible); float mode keeps the full
    SVD with the ``EPS_RANK`` cutoff.
    """

    def __init__(self, a: np.ndarray):
        self.a = a
        self.exact = mode_of(a) == MODE_EXACT
        if self.exact:
            self.rows, self.pivots = _rref(_q_rows(a), a.shape[1])
            self.rank = len(self.pivots)
        elif a.size:
            self.u, s, self.vh = np.linalg.svd(a, full_matrices=True)
            self.rank = int(np.count_nonzero(s > EPS_RANK * s[0]))
        else:
            self.u, self.vh, self.rank = np.eye(a.shape[0]), np.eye(a.shape[1]), 0

    def kernel(self) -> SubspaceBasis:
        """Basis of the right nullspace {x : a @ x = 0}.

        Exact mode returns integer vectors with entries of gcd 1, derived
        from the RREF free columns; float mode the orthonormal rows of V
        beyond the numerical rank.
        """
        ncols = self.a.shape[1]
        if not self.exact:
            return SubspaceBasis(ncols, self.vh[self.rank:, :].copy())
        vecs = []
        for fc in sorted(set(range(ncols)) - set(self.pivots)):
            v = [Fraction(0)] * ncols
            v[fc] = Fraction(1)
            for r, pc in enumerate(self.pivots):
                v[pc] = -self.rows[r][fc]
            vecs.append(_clear_primitive(v))
        return SubspaceBasis(ncols, _exact_rows_to_array(vecs, ncols))

    def image(self) -> SubspaceBasis:
        """Basis of the column space: the pivot columns of ``a`` in exact
        mode, the leading left singular vectors in float mode."""
        nrows = self.a.shape[0]
        if not self.exact:
            return SubspaceBasis(nrows, self.u[:, :self.rank].T.copy())
        vecs = [list(self.a[:, c]) for c in self.pivots]
        return SubspaceBasis(nrows, _exact_rows_to_array(vecs, nrows))

    def row_basis(self) -> np.ndarray:
        """Canonical independent rows spanning the row space: the nonzero
        RREF rows cleared to primitive integers in exact mode, orthonormal
        rows in float mode."""
        if not self.exact:
            return self.vh[:self.rank, :].copy()
        vecs = [_clear_primitive(self.rows[r]) for r in range(self.rank)]
        return _exact_rows_to_array(vecs, self.a.shape[1])


def rank(a: np.ndarray) -> int:
    """Matrix rank: exact over the rationals, SVD cutoff in float mode."""
    return Reduction(a).rank


def kernel_basis(a: np.ndarray) -> SubspaceBasis:
    """Basis of the right nullspace {x : a @ x = 0}; see Reduction.kernel."""
    return Reduction(a).kernel()


def image_basis(a: np.ndarray) -> SubspaceBasis:
    """Basis of the column space; see Reduction.image."""
    return Reduction(a).image()


def image_complement_basis(a: np.ndarray) -> SubspaceBasis:
    """Basis of the orthogonal complement of the column space of ``a``.

    This realizes the cokernel concretely: (im a)^perp = ker(a^T), of
    dimension rows - rank(a).
    """
    return kernel_basis(a.transpose().copy())


# ---------------------------------------------------------------------------
# solving
# ---------------------------------------------------------------------------

def solve_in_image(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve a @ x = b for b in the column space of ``a``.

    ``b`` may be a vector or a matrix of stacked right-hand-side columns
    (all solved in one elimination pass).  Exact mode returns the solution
    with all RREF-free variables set to zero; float mode the minimum-norm
    solution.  Raises ValueError when any right-hand side is outside the
    column space.
    """
    single = b.ndim == 1
    bm = b.reshape(-1, 1) if single else b
    if bm.shape[0] != a.shape[0]:
        raise ValueError(f"shape mismatch: {a.shape} vs {bm.shape}")
    nrows, ncols = a.shape
    nrhs = bm.shape[1]
    if nrhs == 0:  # nothing to solve for; skip the elimination of ``a``
        return zeros(ncols, 0, mode_of(a))
    if mode_of(a) == MODE_EXACT:
        red, pivots = _rref(_q_rows(np.hstack([a, bm])), ncols + nrhs)
        bad = [p for p in pivots if p >= ncols]
        if bad:
            raise ValueError("right-hand side is not in the column space")
        x = [[Fraction(0)] * nrhs for _ in range(ncols)]
        for r, pc in enumerate(pivots):
            for j in range(nrhs):
                x[pc][j] = red[r][ncols + j]
        out = _exact_rows_to_array(x, nrhs) if ncols else np.zeros((0, nrhs), dtype=object)
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
    return out[:, 0] if single else out


def solve_gram(basis_matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve (B^T B) x = B^T rhs where B has independent columns.

    Gives the coordinates of the orthogonal projection of each rhs column
    onto span(B).
    """
    bt = basis_matrix.T.copy()
    return solve_in_image(bt @ basis_matrix, bt @ rhs)


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
    qa = Reduction(to_float(a.vectors) if a.mode == MODE_EXACT else a.vectors).row_basis()
    qb = Reduction(to_float(b.vectors) if b.mode == MODE_EXACT else b.vectors).row_basis()
    s = np.linalg.svd(qa @ qb.T, compute_uv=False)
    k = min(qa.shape[0], qb.shape[0])
    smin = float(s[k - 1]) if s.size >= k and k > 0 else 0.0
    return math.acos(min(1.0, max(-1.0, smin)))
