"""Fused-store round kernel of the vectorized Jacobi engine.

This module holds the one round kernel of
:func:`repro.core.vectorized.vectorized_svd`, for every value of its
``precision`` knob, plus the reduced-precision machinery — the software
analogue of the paper's cheap-arithmetic rotation cascade (see "A mixed
precision Jacobi SVD algorithm", Gao/Ma/Shao):

* :class:`FusedSweeper` performs one Jacobi sweep over a fused
  ``[Bᵀ | Vᵀ]`` row store, recomputing each round's norms and
  covariances from the gathered rows and applying the round as one
  stacked ``(k,2,2) @ (k,2,width)`` matmul.  It runs the fp32 bulk
  phase on a float32 store, and every fp64 sweep (the default schedule
  and the mixed schedule's finish) on a float64 store, driven by
  :func:`repro.core.convergence.run_sweeps`.
* :func:`fp32_phase` runs bulk float32 sweeps until the scale-free
  off-diagonal estimate drops below the switch threshold (or the fp32
  noise floor, or the sweeps stop making progress).
* :func:`polar_orthonormalize` is the mixed schedule's handoff step —
  two Newton-Schulz iterations that strip V of its fp32 orthogonality
  defect so the fp64 finish can reach the fp64 accuracy class.

The kernel's rotation parameters agree with the sequential reference
loop's to the rounding of the batched dot products, and the stacked
matmul may round the two-term update differently from the elementwise
form, so the contract with the reference loop is the trace schema and
the accuracy class, not bit-identity (``tests/core/test_differential.py``).
The round schedule is built by the vectorized engine and passed in
(:func:`fp32_phase` takes it as a zero-argument ``make_plan``
callable), so this module never imports it back — the dependency
points one way.
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
) -> tuple[np.ndarray, np.ndarray]:
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
    Returns ``(c, s)``.
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
    return c, c * t


def compile_fused_plan(plan):
    """Stack each round's (i, j) indices as (k, 2) so one fancy-index
    gather yields the (k, 2, width) operand of the stacked matmul."""
    return [np.stack([idx_i, idx_j], axis=1) for idx_i, idx_j in plan]


class FusedSweeper:
    """One Jacobi sweep over a fused ``[Bᵀ | Vᵀ]`` row store.

    The vectorized engine's only round kernel, in float64 and float32
    alike.  Norms and covariances are recomputed every round from the
    rows already gathered for the update, never cached: a cached norm
    updated by Algorithm 1's ``n_i ← n_i − t·cov`` drifts, and the
    drift steers the skip test and rotation angles wrongly on graded and
    rank-deficient inputs.  It departs from the sequential reference
    loop's column-pair form in two ways, each a large constant-factor
    win at round granularity:

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
        flops = self.flops
        rotations = 0
        skipped = 0
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            for round_index, pair_idx in enumerate(plan):
                k = len(pair_idx)
                with rspan("core.round", round=round_index, pairs=k):
                    x = w[pair_idx]
                    xb = x[:, :, :m]
                    norms = np.einsum("kpj,kpj->kp", xb, xb)
                    ni = norms[:, 0]
                    nj = norms[:, 1]
                    cov = np.einsum("kj,kj->k", xb[:, 0], xb[:, 1])
                    if flops is not None:
                        flops.add_pairs(m, k)
                    active = np.abs(cov) > self.thresh * np.sqrt(
                        ni
                    ) * np.sqrt(nj)
                    n_active = int(np.count_nonzero(active))
                    skipped += k - n_active
                    if n_active == 0:
                        continue
                    rotations += n_active
                    # Zeroed covariances yield the identity rotation, so
                    # the whole round scatters in one shot without
                    # re-gathering a filtered subset.
                    if n_active < k:
                        cov = np.where(active, cov, self.zero)
                    if self.lean:
                        c, s = lean_rotation_params(
                            ni, nj, cov, self.one, self.zero, self.neg_one
                        )
                    else:
                        c, s, _, _ = batch_rotation_params(
                            ni, nj, cov,
                            rotation_impl=self.rotation_impl,
                            dtype=w.dtype,
                        )
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
