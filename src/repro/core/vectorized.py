"""Round-parallel vectorized Hestenes-Jacobi SVD in column space.

The Brent-Luk cyclic ordering (Fig. 6) makes every round's n/2 pairs
index-disjoint — which is exactly why the paper's FPGA can issue eight
independent rotations every 64 cycles.  This engine exploits the same
property in NumPy: for each round it gathers *all* disjoint (i, j)
column pairs at once, computes every rotation parameter in one batched
pass over vectors of norms and covariances (either Algorithm 1's
textbook formulas or the division-restructured hardware equations 8-10),
and applies the whole round with a single gather/scatter update.  The
one round kernel, :class:`repro.core.fused.FusedSweeper`, works on a
fused ``[Bᵀ | Vᵀ]`` row store, so V rides along with B.

It is the round-parallel counterpart of
:func:`repro.core.hestenes.reference_svd` — same recompute-from-columns
numerics (never squaring the condition number, unlike the cached-Gram
``modified``/``blocked`` engines: norms and covariances are recomputed
from the columns every round), same convergence-trace schema, and
rotation parameters that agree with the sequential loop to the rounding
of the batched dot products.  ``tests/core/test_differential.py`` pins
the batched primitives round-for-round (:func:`pair_dots` and
:func:`repro.core.blocked.batch_rotation_params` against the scalar
loop) and the engine's trace schema against the reference.

A ``block_rounds`` knob additionally fuses consecutive rounds through
:func:`repro.core.ordering.fuse_rounds` when no pair conflicts — a
no-op for the dense cyclic ordering, but it batches the one-pair-per-
round sequential orderings ("row", "random") back up to hardware-style
groups.

Mixed-precision fast path
-------------------------
The ``precision`` knob selects the working-precision schedule:
``"fp64"`` (the default: double-precision sweeps on a float64 store),
``"mixed"`` (cheap float32 bulk sweeps, then a re-derived fp64 handoff
and the same double-precision sweeps — same final accuracy class as
fp64), and ``"fp32"`` (float32 throughout, the documented ~1e-5
class).  Every schedule runs the same round kernel; only the store's
dtype differs.  The fp32 phase and the Newton-Schulz handoff live in
:mod:`repro.core.fused` next to the kernel.
``tests/core/test_differential.py`` enforces the per-tier tolerance
schedule.  Finalization is always fp64.
"""

from __future__ import annotations

import numpy as np

from repro.core.convergence import (
    ConvergenceCriterion,
    ConvergenceTrace,
    measure,
    run_sweeps,
)
from repro.core.fused import (
    FusedSweeper,
    compile_fused_plan,
    fp32_phase,
    polar_orthonormalize,
)
from repro.core.hestenes import FlopCounter, finalize_columns
from repro.core.ordering import fuse_rounds, make_sweep
from repro.core.registry import PRECISIONS
from repro.core.result import SVDResult
from repro.obs import span
from repro.util.validation import (
    as_float_matrix,
    check_in_choices,
    check_positive_float,
    check_positive_int,
)

__all__ = [
    "vectorized_svd",
    "pair_dots",
    "round_plan",
    "PRECISIONS",
    "DEFAULT_SWITCH_TOL",
]

#: Default ``switch_tol``: the scale-free off-diagonal estimate at
#: which the mixed schedule hands over to fp64 finishing sweeps.  1e-5
#: sits comfortably above the fp32 noise floor while leaving the fp64
#: phase only ~2 full sweeps of quadratic-convergence work.
DEFAULT_SWITCH_TOL = 1e-5

#: Sweeps of the ``criterion.max_sweeps`` budget reserved for the fp64
#: finishing phase of the mixed schedule; the fp32 phase may consume
#: the rest.  Three sweeps take a ~1e-2 handoff to the fp64 floor under
#: quadratic convergence, so even a tight total budget (the classic
#: max_sweeps=6) leaves the cleanup enough room.
_RESERVED_FP64_SWEEPS = 3


def pair_dots(
    b: np.ndarray, idx_i: np.ndarray, idx_j: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Batched squared norms and covariances for disjoint column pairs.

    Returns ``(norm_i, norm_j, cov)`` where entry k carries the three
    length-m dot products of columns ``idx_i[k]`` and ``idx_j[k]`` —
    the same quantities the scalar loop recomputes pair by pair, here
    produced by three einsum reductions over the gathered columns.
    """
    cols_i = b[:, idx_i]
    cols_j = b[:, idx_j]
    norm_i = np.einsum("ij,ij->j", cols_i, cols_i)
    norm_j = np.einsum("ij,ij->j", cols_j, cols_j)
    cov = np.einsum("ij,ij->j", cols_i, cols_j)
    return norm_i, norm_j, cov


def round_plan(
    n: int,
    ordering: str = "cyclic",
    seed=None,
    block_rounds: int = 1,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Precompiled sweep schedule: one ``(idx_i, idx_j)`` pair of index
    arrays per (possibly fused) round.

    Converting the pair lists to integer arrays once per sweep moves the
    remaining Python-level work out of the rotation hot path.
    """
    rounds = fuse_rounds(make_sweep(n, ordering, seed), block_rounds)
    plan = []
    for round_pairs in rounds:
        if not round_pairs:
            continue
        k = len(round_pairs)
        idx_i = np.fromiter((p[0] for p in round_pairs), dtype=np.intp, count=k)
        idx_j = np.fromiter((p[1] for p in round_pairs), dtype=np.intp, count=k)
        plan.append((idx_i, idx_j))
    return plan


def _plan_maker(n, ordering, seed, block_rounds):
    """Zero-argument sweep-schedule builder: static orderings compile
    the :func:`round_plan` for the fused kernel
    (:func:`repro.core.fused.compile_fused_plan`) once and return it
    every sweep; "random" rebuilds it per call."""

    def build():
        return compile_fused_plan(round_plan(n, ordering, seed, block_rounds))

    if ordering == "random":
        return build
    plan = build()
    return lambda: plan


def vectorized_svd(
    a,
    *,
    compute_uv: bool = True,
    criterion: ConvergenceCriterion | None = None,
    ordering: str = "cyclic",
    seed=None,
    pair_threshold: float = 1e-15,
    rotation_impl: str = "textbook",
    block_rounds: int = 1,
    precision: str = "fp64",
    switch_tol: float | None = None,
    flops: FlopCounter | None = None,
) -> SVDResult:
    """Round-parallel one-sided Jacobi SVD with batched rotations.

    Parameters
    ----------
    a : array_like
        Input m x n matrix (any rectangular shape).
    compute_uv : bool
        When True, return U and Vᵀ in addition to the singular values.
    criterion : ConvergenceCriterion
        Sweep cap and optional early-stopping threshold.  Default:
        ``ConvergenceCriterion(max_sweeps=30, tol=None)`` — the same
        generous cap as the sequential reference engine; the loop also
        stops when a full sweep performs no rotation.
    ordering : str
        Pair ordering per sweep (:data:`repro.core.ordering.ORDERINGS`).
        The cyclic ordering exposes n/2-wide rounds; "row" and "random"
        start one pair per round and rely on *block_rounds* for width.
    seed
        Only used by the "random" ordering.
    pair_threshold : float
        de Rijk relative skip threshold, as in
        :func:`repro.core.hestenes.reference_svd`: the pair rotates only
        when ``|cov| > pair_threshold * sqrt(norm_i) * sqrt(norm_j)``.
        The fp32 phase clamps this from below at float32 eps, where
        smaller covariances are indistinguishable from rounding noise.
    rotation_impl : {"textbook", "dataflow"}
        Batched rotation-parameter formulation — Algorithm 1 lines 11-14
        or the FPGA's division-restructured equations (8)-(10).  The
        textbook form matches the reference engine's parameters exactly
        for identical norm/covariance inputs.
    block_rounds : int
        Fuse up to this many consecutive conflict-free rounds into one
        batched update (:func:`repro.core.ordering.fuse_rounds`).  Exact
        for any value: fused pairs are index-disjoint, so their
        rotations neither observe nor perturb each other.
    precision : {"fp64", "mixed", "fp32"}
        Working-precision schedule (see the module docstring).  "mixed"
        runs cheap float32 bulk sweeps, then re-orthonormalizes V,
        recomputes ``B = A @ V`` in fp64 and finishes with float64
        sweeps — same final accuracy class as "fp64".
        "fp32" stays in float32 throughout (documented ~1e-5 class).
        Finalization is always fp64.
    switch_tol : float, optional
        Mixed-precision handoff threshold on the scale-free off-diagonal
        estimate ``off_fro(BᵀB)/‖BᵀB‖_F``; defaults to
        :data:`DEFAULT_SWITCH_TOL`.  Any positive value converges to the
        fp64 class — the threshold trades fp32 vs fp64 sweep counts, not
        final accuracy (the fp32 phase additionally self-limits at its
        noise floor and the fp64 phase always retains
        budget).  Ignored for "fp64" and "fp32".
    flops : FlopCounter, optional
        Tallies dot-product and update work; totals match the scalar
        reference loop for an identical sweep schedule.

    Returns
    -------
    SVDResult
        Economy-size decomposition, singular values descending, with
        ``method="vectorized"``, the standard per-sweep trace, and the
        precision schedule recorded as ``precision``/``fp32_sweeps``.
    """
    a = as_float_matrix(a, name="a")
    m, n = a.shape
    criterion = criterion or ConvergenceCriterion(max_sweeps=30, tol=None)
    check_positive_int(block_rounds, name="block_rounds")
    check_in_choices(precision, PRECISIONS, name="precision")
    if switch_tol is None:
        switch_tol = DEFAULT_SWITCH_TOL
    else:
        check_positive_float(switch_tol, name="switch_tol")

    make_plan = _plan_maker(n, ordering, seed, block_rounds)
    trace = ConvergenceTrace(metric=criterion.metric)
    g0 = a.T @ a
    trace.record(0, measure(g0, criterion.metric))

    fp32_sweeps = 0
    if precision == "fp32" or (
        precision == "mixed" and float(measure(g0, "relative")) > switch_tol
    ):
        budget = (
            criterion.max_sweeps
            if precision == "fp32"
            else max(1, criterion.max_sweeps - _RESERVED_FP64_SWEEPS)
        )
        low, fp32_sweeps, converged = fp32_phase(
            a,
            criterion=criterion,
            make_plan=make_plan,
            pair_threshold=pair_threshold,
            rotation_impl=rotation_impl,
            switch_tol=switch_tol if precision == "mixed" else None,
            budget=budget,
            trace=trace,
            flops=flops,
        )
        # "fp32" finalizes this float32 store as-is; "mixed" hands it
        # over to the fp64 tail below.
        w = low
        sweeps_done = fp32_sweeps

    if precision != "fp32":
        # fp64 tail, on a float64 [Bᵀ | Vᵀ] row store: columns of B
        # (and of V) live as contiguous rows, so each round's
        # gather/reduce/scatter runs at unit stride.  Filling a fresh
        # store never mutates the input.
        w = np.zeros((n, m + n if compute_uv else m))
        if fp32_sweeps:
            # Mixed handoff: re-derive the fp64 state rather than
            # upcasting it.  V's fp32 orthogonality defect is polished
            # away by the polar iteration, then B is recomputed from
            # the *original* fp64 input so no fp32 rounding survives
            # into the finishing sweeps.
            with span(
                "core.precision_switch",
                method="vectorized",
                fp32_sweeps=fp32_sweeps,
            ):
                v = np.ascontiguousarray(low[:, m:].T, dtype=np.float64)
                v = polar_orthonormalize(v)
                w[:, :m] = (a @ v).T
                if compute_uv:
                    w[:, m:] = v.T
        else:
            # fp64, or a mixed input already below switch_tol (e.g.
            # diagonal): the sweeps start from the input itself.
            w[:, :m] = a.T
            if compute_uv:
                np.fill_diagonal(w[:, m:], 1.0)
        sweeper = FusedSweeper(
            w,
            m,
            pair_threshold=pair_threshold,
            rotation_impl=rotation_impl,
            flops=flops,
        )
        sweeps_done, converged = run_sweeps(
            lambda index, rspan: sweeper.sweep(make_plan(), rspan),
            lambda: measure(w[:, :m] @ w[:, :m].T, criterion.metric),
            method="vectorized",
            criterion=criterion,
            trace=trace,
            start=fp32_sweeps,
        )
    trace.converged = converged

    # Finalization is always fp64, on the (n, m[+n]) [Bᵀ | Vᵀ] store.
    b = np.ascontiguousarray(w[:, :m].T, dtype=np.float64)
    v = np.ascontiguousarray(w[:, m:].T, dtype=np.float64) if compute_uv else None
    s_vals, u, out_vt = finalize_columns(b, v, compute_uv=compute_uv)
    return SVDResult(
        s=s_vals,
        u=u,
        vt=out_vt,
        sweeps=sweeps_done,
        trace=trace,
        method="vectorized",
        converged=converged,
        precision=precision,
        fp32_sweeps=fp32_sweeps,
    )
