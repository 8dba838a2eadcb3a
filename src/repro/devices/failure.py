"""Decision-failure model for scouting-logic sensing (Sec. 2.2, Fig. 2b).

Scouting logic activates ``k`` rows of one column simultaneously and senses
the parallel combination of the ``k`` cell resistances against a reference.
With ``j`` of the cells in HRS ('1') and ``k - j`` in LRS ('0'), the
composite conductance is Gaussian (sum of per-cell conductances, delta
method):

    μ_j = j·G_HRS + (k-j)·G_LRS
    σ_j² = j·σ_G_HRS² + (k-j)·σ_G_LRS² + σ_ref²

Each logic operation has to discriminate particular *adjacent* composite
states (adjacent states differ by one cell flip, i.e. by |G_LRS − G_HRS|):

* ``AND/NAND(k)``  — all-ones vs one-zero (j = k vs k−1).  These states are
  HRS-dominated, where the absolute conductance noise is smallest, so this
  is the most robust boundary: the reason the paper lowers XOR/OR to NAND
  on STT-MRAM.
* ``OR/NOR(k)``    — all-zeros vs one-one (j = 0 vs 1), LRS-dominated and
  noisy.
* ``XOR/XNOR(k)``  — parity: every adjacent pair must be separated, so the
  failure probability is the union bound over all k−1 boundaries.
* single-row reads (plain read, NOT, copy) — j = 0 vs 1 with k = 1.

Per boundary we place the threshold at the equal-z-score point between the
two Gaussians, giving an error of ``Q(Δμ / (σ_left + σ_right))``.  Increasing
``k`` shrinks no boundary gap but inflates every σ, reproducing Fig. 2b's
overlap growth with the number of activated rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.devices.technology import Technology
from repro.dfg.ops import OpType
from repro.errors import DeviceError


_SQRT_2PI = math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class CompositeState:
    """Gaussian model of the sensed conductance for j HRS cells out of k."""

    mu: float
    sigma: float


def composite_state(tech: Technology, k: int, j: int) -> CompositeState:
    """Conductance distribution of ``j`` HRS cells among ``k`` activated."""
    if k < 1:
        raise DeviceError(f"activated row count must be >= 1, got {k}")
    if not 0 <= j <= k:
        raise DeviceError(f"HRS count {j} out of range for k={k}")
    mu = j * tech.g_hrs + (k - j) * tech.g_lrs
    var = (j * tech.sigma_g_hrs ** 2
           + (k - j) * tech.sigma_g_lrs ** 2
           + tech.sigma_ref_siemens ** 2)
    return CompositeState(mu, math.sqrt(var))


def boundary_error(left: CompositeState, right: CompositeState) -> float:
    """Misclassification probability between two adjacent composite states:
    the Gaussian tail ``Q(z) = ½·erfc(z/√2)`` at the equal-z-score point."""
    gap = abs(left.mu - right.mu)
    spread = left.sigma + right.sigma
    if spread == 0.0:
        return 0.0
    return 0.5 * math.erfc(gap / spread / math.sqrt(2.0))


def _boundaries_for(op: OpType, k: int) -> list[tuple[int, int]]:
    """The (j_left, j_right) composite-state pairs the op must separate."""
    base = op.base
    if base is OpType.AND:
        return [(k - 1, k)]
    if base is OpType.OR:
        return [(0, 1)]
    if base is OpType.XOR:
        return [(j, j + 1) for j in range(k)]
    if base is OpType.NOT:
        return [(0, 1)]
    raise DeviceError(f"no sensing model for op {op.value}")


def decision_failure_probability(tech: Technology, op: OpType, k: int) -> float:
    """``P_DF`` of one scouting-logic operation on ``k`` activated rows.

    For NOT / plain single-row reads pass ``k = 1``; the boundary is then
    the plain LRS-vs-HRS read margin (large, but not zero).
    """
    if op is OpType.NOT or k == 1:
        states = (composite_state(tech, 1, 0), composite_state(tech, 1, 1))
        return boundary_error(*states)
    if k < 2:
        raise DeviceError(f"logic op {op.value} needs k >= 2 activated rows")
    if k > tech.max_activated_rows:
        raise DeviceError(
            f"{tech.name} supports at most {tech.max_activated_rows} "
            f"activated rows, got {k}")
    total = 0.0
    for j_left, j_right in _boundaries_for(op, k):
        total += boundary_error(composite_state(tech, k, j_left),
                                composite_state(tech, k, j_right))
    return min(total, 1.0)


def application_failure_probability(op_failures: list[float]) -> float:
    """``P_app = 1 − Π (1 − P_DF_i)`` over all operations (Sec. 4.2).

    Computed in log space so that thousands of tiny probabilities do not
    round to zero.
    """
    log_ok = 0.0
    for p in op_failures:
        if not 0.0 <= p <= 1.0:
            raise DeviceError(f"probability out of range: {p}")
        if p >= 1.0:
            return 1.0
        log_ok += math.log1p(-p)
    return -math.expm1(log_ok)


def overlap_curve(tech: Technology, k: int, points: int = 512) -> dict[str, list[float]]:
    """Composite-conductance densities for all j = 0..k (Fig. 2b data).

    Returns ``{"conductance": xs, "state_0": pdf, ..., "state_k": pdf}`` —
    the raw series from which the paper's overlap plot is drawn.
    """
    states = [composite_state(tech, k, j) for j in range(k + 1)]
    lo = min(s.mu - 4 * s.sigma for s in states)
    hi = max(s.mu + 4 * s.sigma for s in states)
    xs = [lo + (hi - lo) * i / (points - 1) for i in range(points)]
    curves: dict[str, list[float]] = {"conductance": xs}
    for j, s in enumerate(states):
        curves[f"state_{j}"] = [
            math.exp(-((x - s.mu) / s.sigma) ** 2 / 2.0) / _SQRT_2PI / s.sigma
            for x in xs]
    return curves
