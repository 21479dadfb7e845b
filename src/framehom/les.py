"""The long exact sequence tying truss, frame, and anchored-frame homology.

The short exact sequence of structural cosheaves induces, on homology,

    0 -> H1(force) -> H1(moment) -> H1(anchored) -> H0(force) -> H0(moment) -> 0

with the middle arrow into degree 0 given by the snake-lemma connecting
homomorphism: lift an anchored self-stress through the section, take the
frame boundary, and read off the resultant shear forces at the vertices.
Its image, projected to homology representatives, is exactly the space of
truss mechanisms.  It is built in one pass: all H1(anchored) basis cycles
are lifted and pulled back together, then projected onto the H0(force)
representatives in one Gram solve.

In exact mode the induced maps and theta pass integer forms (ints, d)
from stage to stage into ``InducedMap``, and every exact basis is a span
of integer rows (``test_exact_bases_are_integer_spans``).  One dense
``Fraction`` matrix product is left: the frame boundary times the lifted
cycles in ``resultants``, which dominates theta on big frames (ROADMAP
item 2 waits on the benchmark, item 1).  The moment and anchored dims come
from M's certified gauge (``moment_rank``, ``anchored_dims``), so the dims
eliminate no B_M and build no N; the tests check both by elimination,
which the H1 bases still need.  A full report's circuit-rank and anchored
counting rules compare the gauge's formulas with the ranks of B_M and B_N,
which the H1 bases of phi1* and theta have already paid for; a perturbation
scan reads its rows' dims off those same eliminations, with no gauge.
Exact mode reads checks (b), (c) and (h) off ranks (``_exact_at``), with no
kernel.

This module computes the induced maps and the connecting homomorphism,
verifies exactness at every node, evaluates the counting rules
(Maxwell-Calladine, the circuit-rank rule for frame self-stresses, and
the anchored stress count), and runs perturbation scans.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import linalg
from .cosheaf import CosheafMap, quotient_cosheaf
from .framework import Framework, FrameworkError, perturb
from .linalg import (
    EPS_ANGLE,
    MODE_EXACT,
    Reduction,
    complement_within,
    from_integer_form,
    integer_form,
    mode_of,
    rank,
    solve_gram,
    solve_in_image,
    span_rows,
)
# not called here: the benchmark's self-test checks that its tracer rebinds
# framehom.les.kernel_basis, so the name stays importable from this module
from .linalg import kernel_basis  # noqa: F401
from .structural import (anchored_dims, build_phi, couple_dim, moment_dim, moment_rank,
                         rigid_body_space)


@dataclass(frozen=True)
class InducedMap:
    """A map between homology spaces, expressed in their basis coordinates.

    ``form`` is the map's matrix as (ints, d), an ``integer_form``;
    ``matrix`` = ints / d has shape (dim target H, dim source H) and is
    written out on first read.  Kernel and image are bases, one vector per
    row, of subspaces of the source / target coordinate spaces.  Rank,
    kernel and image come from one elimination of ints, each on first read:
    the rank needs only the forward echelon, the kernel (which only float
    mode's exactness checks read) back-substitutes.
    """

    form: tuple[np.ndarray, int]

    @cached_property
    def matrix(self) -> np.ndarray:
        return from_integer_form(*self.form)

    @cached_property
    def _reduction(self) -> Reduction:
        return Reduction(self.form[0])

    @property
    def rank(self) -> int:
        return self._reduction.rank

    @cached_property
    def kernel(self) -> np.ndarray:
        return self._reduction.kernel()

    @cached_property
    def image(self) -> np.ndarray:
        return self._reduction.image()


def induced_map(m: CosheafMap, degree: int) -> InducedMap:
    """Induced map on homology: apply the chain map to the homology basis of
    ``m.source`` and re-express the images in that of ``m.target``.

    Degree 1 images are automatically cycles of the target; their
    coordinates are read by ``Cosheaf.h1_coordinates_form``, in exact mode
    at the free columns of the target boundary with no elimination.  The
    images, the coordinates and the rank's elimination pass integer forms
    along.  Degree 0 representatives span (im B)^perp = ker B^T of the
    target boundary B, so the coordinates of an image class are those of
    its orthogonal projection onto that span: one solve against the Gram
    matrix of the representatives.  Refuses to run when the commuting condition fails.
    """
    if not m.check.passed:
        raise ValueError(f"cosheaf map does not commute at incidences {m.check.failures}")
    src, tgt = m.source, m.target
    if degree == 1:
        # exact kernel vectors are integers: the basis is its own form, over 1
        chains = m.apply_form(1, src.h1.T.copy(), 1)
        return InducedMap(tgt.h1_coordinates_form(*chains))
    if degree == 0:
        return InducedMap(solve_gram(tgt.h0.T.copy(), *m.apply_form(0, src.h0.T.copy(), 1)))
    raise ValueError("degree must be 0 or 1")


def les_obstacle(f: Framework) -> str | None:
    """Why the long exact sequence cannot run on ``f``: "disconnected", "no
    edges" (connected, without an edge), or None when it can."""
    return "disconnected" if not f.connected() else None if f.num_edges else "no edges"


def _require_les(f: Framework):
    """Raise ValueError unless ``f`` is connected and has an edge."""
    if why := les_obstacle(f):
        raise ValueError("framework has no edges" if why == "no edges" else
                         "the long exact sequence machinery needs a connected framework")


class _LesContext:
    """The staged pipeline for one framework, read by every front end.

    ``__init__`` builds the cosheaves F and M and phi: F -> M.  Each later
    stage (N = M / phi(F) as ``anch``, ``pi``: M -> N, the ``section`` N -> M,
    the reductions, the induced maps, ``theta``, the counting checks, the svg
    generator list) is computed on first read and kept, so a reader pays only
    for the stages it reads; an exact report reads no induced map's kernel.  The
    LES stages need a connected framework with an edge; ``theta`` raises
    ValueError otherwise.
    """

    def __init__(self, f: Framework):
        self.f = f
        self.phi = build_phi(f)
        self.force = self.phi.source
        self.moment = self.phi.target

    # N with pi: M -> N and the canonical section, which lifts chains; by the
    # snake lemma any right inverse of pi gives the same theta
    _quotient = cached_property(lambda self: quotient_cosheaf(self.phi))
    anch = cached_property(lambda self: self._quotient[0])
    pi = cached_property(lambda self: self._quotient[1])
    section = cached_property(lambda self: self._quotient[2])

    @cached_property
    def dims(self) -> tuple:
        """(dim H1, dim H0) of the force, moment and anchored cosheaves; the
        last two read off M's certified gauge (``moment_rank``, ``anchored_dims``),
        which the tests check against ``Cosheaf.dims``'s elimination."""
        m, r = self.moment, moment_rank(self.moment)
        return self.force.dims, (m.c1_dim - r, m.c0_dim - r), anchored_dims(self.phi)

    @cached_property
    def rigid(self) -> np.ndarray:
        return rigid_body_space(self.f)

    @cached_property
    def mech(self) -> np.ndarray:
        return complement_within(self.rigid, self.force.h0)

    @cached_property
    def phi1(self) -> InducedMap:
        return induced_map(self.phi, 1)

    @cached_property
    def phi0(self) -> InducedMap:
        return induced_map(self.phi, 0)

    @cached_property
    def pi1(self) -> InducedMap:
        return induced_map(self.pi, 1)

    @cached_property
    def counting(self) -> tuple:
        """The counting rules, N-free: the circuit-rank and anchored rules read
        H1(M) and H1(N) off M's gauge, so they hold whenever the certificates
        of M and phi do.  A full report checks them on the eliminations of B_M
        and B_N instead (``_report_from_context``)."""
        return _counting_checks(self, self.dims[1][0], self.dims[2][0])

    @property
    def alternating_sum(self) -> int:
        """The alternating dimension sum of the reduced sequence, zero when it is
        exact: (self-stresses - mechanisms) + anchored stresses - frame stresses."""
        (h1f, _), (h1m, _), (h1n, _) = self.dims
        return (h1f - len(self.mech)) + h1n - h1m

    def resultants(self, chains: np.ndarray) -> tuple[np.ndarray, int]:
        """Vertex force resultants of the anchored C1 cycles held one per
        column of ``chains``, as a form (ints, d) of an (n|V| x k) matrix,
        rows vertex-major.

        One lift through the section and one product with the frame boundary
        serve every cycle; one solve against the truss embedding (which pads
        a force with a zero moment) pulls back every vertex couple of every
        cycle, cleared to integers once.  That is exact only when the moment
        components vanish, as for cycles of the anchored boundary; otherwise
        it raises ValueError.
        """
        pad = from_integer_form(self.phi.vertex_maps[0], self.phi.den)
        (rows, n), nv, k = pad.shape, self.f.num_vertices, chains.shape[1]
        y = self.moment.boundary @ self.section.apply_c1(chains)
        couples = y.reshape(nv, rows, k).transpose(1, 0, 2).reshape(rows, nv * k)
        forces, d = solve_in_image(pad, *integer_form(couples))
        return forces.reshape(n, nv, k).transpose(1, 0, 2).reshape(nv * n, k), d

    @cached_property
    def theta(self) -> InducedMap:
        """The connecting map: resultants of the H1(anchored) generators, in
        H0(force) coordinates."""
        _require_les(self.f)
        return InducedMap(solve_gram(self.force.h0.T.copy(),
                                     *self.resultants(self.anch.h1.T.copy())))

    def mechanism_basis_ambient(self) -> np.ndarray:
        """The basis of the image of the connecting map, one vector of the truss
        C_0 space per row."""
        return span_rows(self.theta.image @ self.force.h0)

    @cached_property
    def anchored_generators(self) -> np.ndarray:
        """H1(anchored) generators, one per row, in the order svg numbers
        them: the frame-stress images (im pi*) first, then the complement
        orthogonal to im pi* (the anchored-only stresses)."""
        h1n = self.anch.h1
        im_ambient = span_rows(self.pi1.image @ h1n)
        return np.vstack([im_ambient, complement_within(im_ambient, h1n)])


def connecting_map(f: Framework) -> InducedMap:
    """Snake-lemma connecting homomorphism H1(anchored) -> H0(force), as the
    induced map whose column j holds the H0(force) coordinates of the
    resultants of the j-th H1(anchored) basis cycle.
    """
    return _LesContext(f).theta


# ---------------------------------------------------------------------------
# counting rules
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CountCheck:
    name: str
    applicable: bool
    expected: int | None
    computed: int | None
    passed: bool
    note: str = ""


def _rule(name: str, expected: int, computed: int, note: str) -> CountCheck:
    return CountCheck(name, True, expected, computed, expected == computed, note)


def _not_applicable(name: str, why: str) -> CountCheck:
    return CountCheck(name, False, None, None, True, f"not applicable: {why}")


def _counting_checks(ctx: _LesContext, h1m: int, h1n: int) -> tuple:
    """The counting rules of ``ctx``'s framework; the circuit-rank rule tests
    the computed dim H1(M) ``h1m``, the anchored ones dim H1(N) ``h1n``."""
    f = ctx.f
    if not f.connected():
        why = "framework is disconnected"
        return (_not_applicable("maxwell_calladine", why),
                _not_applicable("moment_circuit_rank", why),
                _not_applicable("anchored_stress_count", "disconnected"),
                _not_applicable("anchored_decomposition", "disconnected"),
                _not_applicable("les_alternating_sum", why))
    n, nv, ne = f.dim, f.num_vertices, f.num_edges
    w, k = moment_dim(n), couple_dim(n)
    (h1f, _), _, _ = ctx.dims
    mech = len(ctx.mech)
    checks = [
        _rule("maxwell_calladine", n * nv - ne, len(ctx.rigid) + mech - h1f,
              "n|V|-|E| vs rigid + mechanisms - self-stresses"),
        _rule("moment_circuit_rank", k * (ne - nv + 1), h1m,
              f"{k}(|E|-|V|+1) independent stress resultants across the cuts"),
    ]
    if f.affine_dims == (n,):
        reduced_maxwell = ne - n * nv + k
        checks += [
            _rule("anchored_stress_count", (k - 1) * ne - w * nv, h1n,
                  f"{k - 1}|E|-{w if w != 1 else ''}|V|"),
            _rule("anchored_decomposition", k * (ne - nv + 1) - reduced_maxwell, h1n,
                  "cycle-rule count minus the reduced Maxwell count"),
        ]
    else:
        checks += [_not_applicable("anchored_stress_count", "degenerate affine span"),
                   _not_applicable("anchored_decomposition", "degenerate affine span")]
    checks.append(_rule("les_alternating_sum", 0, ctx.alternating_sum,
                        "(self-stresses - mechanisms) + anchored stresses - frame stresses"))
    return tuple(checks)


def counting_rules(f: Framework) -> tuple:
    """Evaluate the counting rules on one framework.

    Rules that presume connectivity (or, for the anchored count, a
    non-degenerate embedding) are marked not applicable rather than
    failing.
    """
    return _LesContext(f).counting


# ---------------------------------------------------------------------------
# the verification report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LesCheck:
    code: str
    description: str
    passed: bool
    residual: str


@dataclass(frozen=True)
class LesReport:
    """Everything verify_les knows about one framework."""

    dims_force: tuple[int, int]
    dims_moment: tuple[int, int]
    dims_anchored: tuple[int, int]
    rigid_dim: int
    mech_dim: int
    rank_phi1: int
    rank_pi1: int
    rank_theta: int
    rank_phi0: int
    checks: tuple
    counting: tuple
    mechanism_basis: tuple

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks) and all(c.passed for c in self.counting)


def _span_check(code, desc, da: int, db: int, union: int) -> LesCheck:
    """The check span A = span B, read off dim A, dim B and dim (A + B)."""
    if da == db == union:
        residual = "exact subspace equality"
    elif da and db:
        residual = f"dims {da} vs {db}, union rank {union}"
    else:
        residual = f"dims {da} vs {db}"
    return LesCheck(code, desc, da == db == union, residual)


def _subspace_check(code, desc, a: np.ndarray, b: np.ndarray) -> LesCheck:
    """The check span(a) = span(b) of two bases, exact or by principal angle."""
    if len(a) and len(b) and mode_of(a) != MODE_EXACT:
        angle = linalg.largest_principal_angle(a, b)
        return LesCheck(code, desc, len(a) == len(b) and angle < EPS_ANGLE,
                        f"largest principal angle {angle:.3e}")
    union = rank(np.vstack([a, b])) if len(a) and len(b) else len(a) + len(b)
    return _span_check(code, desc, len(a), len(b), union)


def _exact_at(code, desc, a: InducedMap, b: InducedMap) -> LesCheck:
    """The check im A = ker B for induced maps A: U -> V, B: V -> W.  In exact
    mode dim (im A + ker B) = (dim V - rank B) + rank BA, with BA ranked only
    when nonzero; float mode compares the bases of im A and ker B."""
    if mode_of(a.form[0]) != MODE_EXACT:
        return _subspace_check(code, desc, a.image, b.kernel)
    ba = b.form[0] @ a.form[0]
    dk = b.form[0].shape[1] - b.rank
    return _span_check(code, desc, a.rank, dk,
                       dk + (rank(ba) if any(ba.ravel().tolist()) else 0))


def verify_les(f: Framework) -> LesReport:
    """Compute the long exact sequence and verify exactness at every node.

    Checks (a)-(g) plus the degree-0 tail; each verdict carries residual
    evidence.  Counting-rule results are embedded in the report.
    """
    return _report_from_context(_LesContext(f))


def _report_from_context(ctx: _LesContext) -> LesReport:
    _require_les(ctx.f)
    checks = []

    dims_f, dims_m, dims_n = ctx.dims
    (h1f, _), (_, h0m), (h1n, h0n) = dims_f, dims_m, dims_n
    # (e) and (i) need all k = n(n+1)/2 rigid motions; a collinear frame in space lacks one
    k = couple_dim(ctx.f.dim)
    na = (f"not applicable: rigid-body space of dimension {len(ctx.rigid)} < {k}"
          if len(ctx.rigid) < k else "")
    checks.append(LesCheck(
        "a", "phi* injective on H1", ctx.phi1.rank == h1f,
        f"rank {ctx.phi1.rank} of {h1f}"))
    checks.append(_exact_at("b", "im phi* = ker pi* inside H1(moment)", ctx.phi1, ctx.pi1))
    checks.append(_exact_at("c", "im pi* = ker theta inside H1(anchored)", ctx.pi1, ctx.theta))

    mech_ambient = ctx.mechanism_basis_ambient()
    checks.append(_subspace_check(
        "d", "theta surjective onto the mechanism space", mech_ambient, ctx.mech))
    checks.append(LesCheck(
        "e", "H0(anchored) vanishes", bool(na) or h0n == 0, na or f"dim {h0n}"))
    alt = ctx.alternating_sum
    checks.append(LesCheck(
        "f", "alternating dimension sum of the reduced sequence is zero", alt == 0,
        f"sum {alt}"))
    checks.append(LesCheck(
        "g", "dim H1(anchored) = rank pi* + rank theta",
        h1n == ctx.pi1.rank + ctx.theta.rank,
        f"{h1n} vs {ctx.pi1.rank} + {ctx.theta.rank}"))
    checks.append(_exact_at("h", "im theta = ker phi0* inside H0(force)", ctx.theta, ctx.phi0))
    checks.append(LesCheck(
        "i", "phi0* surjective onto H0(moment)", bool(na) or ctx.phi0.rank == h0m,
        na or f"rank {ctx.phi0.rank} of {h0m}"))

    return LesReport(
        dims_force=dims_f,
        dims_moment=dims_m,
        dims_anchored=dims_n,
        rigid_dim=len(ctx.rigid),
        mech_dim=len(ctx.mech),
        rank_phi1=ctx.phi1.rank,
        rank_pi1=ctx.pi1.rank,
        rank_theta=ctx.theta.rank,
        rank_phi0=ctx.phi0.rank,
        checks=tuple(checks),
        # B_M's and B_N's ranks, which phi1* and theta ran
        counting=_counting_checks(ctx, ctx.moment.dims[0], ctx.anch.dims[0]),
        mechanism_basis=tuple(mech_ambient),
    )


# ---------------------------------------------------------------------------
# perturbation scans
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScanRow:
    magnitude: object
    seed: int
    valid: bool
    dims_force: tuple | None = None
    dims_moment: tuple | None = None
    dims_anchored: tuple | None = None
    rank_phi1: int | None = None
    rank_pi1: int | None = None
    rank_theta: int | None = None
    error: str = ""


def perturbation_scan(f: Framework, magnitudes, seeds) -> tuple:
    """Homology dims and induced ranks across coordinate perturbations.

    One row per (magnitude, seed); rows whose perturbation breaks the
    framework (a zero-length edge) are flagged invalid; any other error
    raises, and so does a disconnected or edgeless ``f``, as in ``verify_les``.
    ``magnitudes`` and ``seeds`` are read once, so any iterables will do.
    """
    _require_les(f)
    rows, magnitudes, seeds = [], tuple(magnitudes), tuple(seeds)
    for mag in magnitudes:
        for seed in seeds:
            try:
                g = perturb(f, mag, seed)
            except FrameworkError as exc:
                rows.append(ScanRow(magnitude=mag, seed=seed, valid=False, error=str(exc)))
                continue
            ctx = _LesContext(g)
            rows.append(ScanRow(magnitude=mag, seed=seed, valid=True, dims_force=ctx.force.dims,
                                dims_moment=ctx.moment.dims, dims_anchored=ctx.anch.dims,
                                rank_phi1=ctx.phi1.rank, rank_pi1=ctx.pi1.rank,
                                rank_theta=ctx.theta.rank))
    return tuple(rows)
