"""Cross-cutting utilities shared by the runtime subsystems.

:mod:`repro.util.retry` is the bounded-retry / exponential-backoff helper
used by the serve worker pool (:mod:`repro.serve.service`) and the
parallel campaign shard recovery (:mod:`repro.reliability.campaign`);
:mod:`repro.util.chaos` is the deterministic chaos-injection harness the
robustness acceptance tests and the ``run_all.sh`` chaos gate drive the
service with; :mod:`repro.util.vote` is the bit-sliced majority kernel
the ``reread-vote`` recovery policy and serve's voted requests share.
"""

from repro.util.chaos import (
    ChaosEvent,
    ChaosInjector,
    ChaosSchedule,
    latent_victims,
    write_victims,
)
from repro.util.retry import RetryPolicy, compute_backoff, retry_call

__all__ = [
    "ChaosEvent",
    "ChaosInjector",
    "ChaosSchedule",
    "RetryPolicy",
    "compute_backoff",
    "latent_victims",
    "retry_call",
    "write_victims",
]
