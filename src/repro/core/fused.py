"""Fused-store sweep kernel for the reduced-precision Jacobi schedules.

This module is the machinery behind the ``precision`` knob of
:func:`repro.core.vectorized.vectorized_svd` — the software analogue of
the paper's cheap-arithmetic rotation cascade (see "A mixed precision
Jacobi SVD algorithm", Gao/Ma/Shao).  The engine's default fp64 path
never touches it; the ``"mixed"`` and ``"fp32"`` schedules run on the
kernel here:

* :class:`FusedSweeper` performs one Jacobi sweep over a fused
  ``[Bᵀ | Vᵀ]`` row store with Algorithm 1's cached-norm updates and
  one stacked ``(k,2,2) @ (k,2,width)`` matmul per round.  It is the
  round kernel of both the fp32 bulk phase and the mixed schedule's
  fp64 finishing sweeps (which the engine drives through
  :func:`repro.core.convergence.run_sweeps` on a float64 store).
* :func:`fp32_phase` runs bulk float32 sweeps until the scale-free
  off-diagonal estimate drops below the switch threshold (or the fp32
  noise floor, or the sweeps stop making progress).
* :func:`polar_orthonormalize` is the mixed schedule's handoff step —
  two Newton-Schulz iterations that strip V of its fp32 orthogonality
  defect so the fp64 finish can reach the fp64 accuracy class.

None of this carries the reference loop's bit-identity contract (only
the engine's default fp64 path does), which is what lets every routine
here trade exact arithmetic order for a large constant-factor win.
The fp32 phase takes its round schedule as a zero-argument
``make_plan`` callable built by the vectorized engine, so this module
never imports it back — the dependency points one way.
"""

from __future__ import annotations

import numpy as np

from repro.core.blocked import batch_rotation_params
from repro.core.convergence import (
    ConvergenceCriterion,
    ConvergenceTrace,
    measure,
    run_sweeps,
)
from repro.core.hestenes import FlopCounter

__all__ = [
    "FusedSweeper",
    "fp32_phase",
    "polar_orthonormalize",
    "lean_rotation_params",
    "compile_fused_plan",
    "FP32_EST_FLOOR",
]

#: Below this scale-free off-diagonal estimate, further fp32 sweeps
#: cannot make reliable progress (the estimate itself is computed from
#: an fp32 Gram product, whose rounding floor is a few n*eps32); the
#: low-precision phase stops here even if ``switch_tol`` is smaller.
FP32_EST_FLOOR = 1e-6

#: Minimum de Rijk skip threshold used inside the fp32 phase: relative
#: covariances below eps32 are pure rounding noise in float32, so
#: rotating on them only churns the store.
_FP32_PAIR_FLOOR = float(np.finfo(np.float32).eps)


def polar_orthonormalize(v: np.ndarray, iterations: int = 2) -> np.ndarray:
    """Newton-Schulz polar iteration ``V ← V (3I − VᵀV) / 2``.

    Converges quadratically to the orthogonal polar factor whenever
    every singular value of V lies in (0, √3).  The fp32 phase hands
    over a product of plane rotations whose singular values sit at
    1 ± O(1e-5), so two iterations (four GEMMs) drive the orthogonality
    defect ``‖VᵀV − I‖_F`` from ~1e-5 through ~1e-10 to the fp64
    rounding floor — far cheaper than a QR re-factorization and, unlike
    a plain upcast, it removes the fp32 defect that would otherwise cap
    the finished accuracy at fp32 levels.
    """
    eye = np.eye(v.shape[1])
    for _ in range(iterations):
        v = v @ (1.5 * eye - 0.5 * (v.T @ v))
    return v


def lean_rotation_params(
    norm_i: np.ndarray,
    norm_j: np.ndarray,
    cov: np.ndarray,
    one,
    zero,
    neg_one,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lean evaluation of Algorithm 1's textbook rotation formulas.

    Same closed forms as :func:`repro.core.blocked.batch_rotation_params`
    stripped to the ~15 array ops the fused sweep loop actually needs
    (the general function's validation, sign bookkeeping and masking
    cost more than the arithmetic at round granularity).  ``one`` /
    ``zero`` / ``neg_one`` are scalars of the working dtype, which pins
    every intermediate to that dtype.  Two simplifications are exact:

    * No explicit huge-|rho| asymptote: ``rho*rho`` overflowing to inf
      drives ``t`` to 0, and the true asymptotic tangent ``1/(2 rho)``
      is below the working precision's resolution everywhere the
      overflow can happen (|rho| > 1e19 in float32, > 1e154 in float64).
    * Inactive pairs (``cov == 0``) produce ``t = ±inf → 0`` or ``nan``
      directly from the division; one final ``where`` pins them to the
      identity rotation.

    Caller must hold ``np.errstate(over/divide/invalid="ignore")``.
    Returns ``(c, s, t)``.
    """
    d = norm_j - norm_i
    rho = d / (cov + cov)
    t = np.where(
        cov == zero,
        zero,
        np.where(np.signbit(rho), neg_one, one)
        / (np.abs(rho) + np.sqrt(one + rho * rho)),
    )
    c = one / np.sqrt(one + t * t)
    return c, c * t, t


def compile_fused_plan(plan):
    """Stack each round's (i, j) indices as (k, 2) so one fancy-index
    gather yields the (k, 2, width) operand of the stacked matmul."""
    return [
        (idx_i, idx_j, np.stack([idx_i, idx_j], axis=1))
        for idx_i, idx_j in plan
    ]


class FusedSweeper:
    """One Jacobi sweep over a fused ``[Bᵀ | Vᵀ]`` row store.

    The workhorse of the reduced-precision schedules, shared by the
    fp32 bulk phase and the mixed schedule's fp64 finishing phase.  It
    departs from the bit-pinned fp64 reference loop in three ways, each
    a large constant-factor win at round granularity:

    * Column norms are *cached* and updated with Algorithm 1's closed
      form ``n_i ← n_i − t·cov`` / ``n_j ← n_j + t·cov`` instead of
      being recomputed, eliminating two of the three einsum reductions
      per round (the paper's own FPGA bookkeeping, lines 15-17).  Drift
      is O(eps) per update in the working dtype and only feeds the skip
      test and rotation angles, never the final singular values (those
      come from ``finalize_columns`` on the actual columns).
    * B and V share one gather/scatter: rotations act on rows of the
      fused store, so the V accumulation rides along at no extra
      indexing cost.
    * Each round's rotations apply as one stacked ``(k,2,2) @
      (k,2,width)`` matmul into a reused buffer — ~4x faster than the
      six separate elementwise passes at these operand sizes.
    """

    def __init__(
        self,
        w: np.ndarray,
        m: int,
        *,
        pair_threshold: float,
        rotation_impl: str,
        flops: FlopCounter | None,
    ):
        dtype = w.dtype
        self.w = w
        self.m = m
        self.norms = np.einsum("ij,ij->i", w[:, :m], w[:, :m])
        self.thresh = dtype.type(pair_threshold)
        self.one = dtype.type(1.0)
        self.zero = dtype.type(0.0)
        self.neg_one = dtype.type(-1.0)
        self.lean = rotation_impl == "textbook"
        self.rotation_impl = rotation_impl
        self.flops = flops
        self._rot = None
        self._out = None

    def sweep(self, plan, rspan) -> tuple[int, int]:
        """Run one full sweep; returns ``(rotations, skipped)``."""
        w = self.w
        m = self.m
        norms = self.norms
        flops = self.flops
        rotations = 0
        skipped = 0
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            for round_index, (idx_i, idx_j, pair_idx) in enumerate(plan):
                with rspan("core.round", round=round_index, pairs=len(idx_i)):
                    x = w[pair_idx]
                    cov = np.einsum("kj,kj->k", x[:, 0, :m], x[:, 1, :m])
                    ni = norms[idx_i]
                    nj = norms[idx_j]
                    if flops is not None:
                        flops.add_pairs(m, len(idx_i))
                    active = np.abs(cov) > self.thresh * np.sqrt(
                        ni
                    ) * np.sqrt(nj)
                    n_active = int(np.count_nonzero(active))
                    skipped += len(idx_i) - n_active
                    if n_active == 0:
                        continue
                    rotations += n_active
                    # Zeroed covariances yield the identity rotation, so
                    # the whole round scatters in one shot without
                    # re-gathering a filtered subset.
                    if n_active < len(idx_i):
                        cov = np.where(active, cov, self.zero)
                    if self.lean:
                        c, s, t = lean_rotation_params(
                            ni, nj, cov, self.one, self.zero, self.neg_one
                        )
                    else:
                        c, s, t, _ = batch_rotation_params(
                            ni, nj, cov,
                            rotation_impl=self.rotation_impl,
                            dtype=w.dtype,
                        )
                    k = len(idx_i)
                    rot = self._rot
                    if rot is None or rot.shape[0] != k:
                        rot = self._rot = np.empty((k, 2, 2), dtype=w.dtype)
                        self._out = np.empty(
                            (k, 2, w.shape[1]), dtype=w.dtype
                        )
                    rot[:, 0, 0] = c
                    rot[:, 0, 1] = -s
                    rot[:, 1, 0] = s
                    rot[:, 1, 1] = c
                    np.matmul(rot, x, out=self._out)
                    w[pair_idx] = self._out
                    delta = t * cov
                    # max(…, 0): the cached norm drifts by O(eps) per
                    # update and must stay a valid squared length for
                    # the sqrt in the skip test.
                    norms[idx_i] = np.maximum(ni - delta, self.zero)
                    norms[idx_j] = nj + delta
                    if flops is not None:
                        flops.add_updates(m, n_active)
        return rotations, skipped


def fp32_phase(
    a: np.ndarray,
    *,
    criterion: ConvergenceCriterion,
    make_plan,
    pair_threshold: float,
    rotation_impl: str,
    switch_tol: float | None,
    budget: int,
    trace: ConvergenceTrace,
    flops: FlopCounter | None,
) -> tuple[np.ndarray, int, bool]:
    """Run batched float32 sweeps on a fused ``[Bᵀ | Vᵀ]`` row store.

    ``make_plan`` is a zero-argument callable returning the compiled
    round schedule for one sweep (static orderings return the same
    plan every call; "random" recompiles).  Returns ``(w, sweeps_done,
    low_converged)`` where ``w`` is the float32 combined store (first
    ``m`` columns: Bᵀ; remaining ``n``: Vᵀ) and ``low_converged``
    reports whether the loop stopped because a full sweep performed no
    rotation or the criterion's own tolerance was met — the only two
    outcomes that count as *convergence* for the pure-fp32 tier
    (hitting ``switch_tol`` merely hands over to fp64).
    """
    m, n = a.shape
    w = np.zeros((n, m + n), dtype=np.float32)
    w[:, :m] = a.T
    np.fill_diagonal(w[:, m:], 1.0)
    sweeper = FusedSweeper(
        w,
        m,
        pair_threshold=max(pair_threshold, _FP32_PAIR_FLOOR),
        rotation_impl=rotation_impl,
        flops=flops,
    )

    est = prev_est = float("inf")

    def metric_value():
        nonlocal est
        bpart = w[:, :m]
        g = bpart @ bpart.T
        est = float(measure(g, "relative"))
        return measure(g, criterion.metric)

    def stop():
        # Hand over at switch_tol; otherwise stop at the fp32 noise
        # floor or once a sweep stops improving the estimate — burning
        # more cheap sweeps cannot help.
        nonlocal prev_est
        done = (
            (switch_tol is not None and est <= switch_tol)
            or est <= FP32_EST_FLOOR
            or est >= prev_est
        )
        prev_est = est
        return done

    sweeps_done, low_converged = run_sweeps(
        lambda index, rspan: sweeper.sweep(make_plan(), rspan),
        metric_value,
        method="vectorized",
        criterion=criterion,
        trace=trace,
        last=budget,
        stop=stop,
        precision="fp32",
    )
    return w, sweeps_done, low_converged
