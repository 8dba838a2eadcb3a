"""Exception hierarchy for the Sherlock reproduction.

Every error raised by this package derives from :class:`SherlockError`, so
callers can catch one type at the API boundary while the subclasses keep
diagnostics precise.
"""

from __future__ import annotations


class SherlockError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class GraphError(SherlockError):
    """Malformed data-flow graph (cycles, bad arity, unknown nodes...)."""


class FrontendError(SherlockError):
    """Error while lexing/parsing/lowering the C-subset input."""


class MappingError(SherlockError):
    """The mapper could not place the DAG on the target (capacity, ...)."""


class CapacityError(MappingError):
    """The DAG does not fit the target's cell/column capacity.

    Structured capacity diagnostics: ``required_cells`` is the mapper's
    estimate of the cells the failing request needed, ``available_cells``
    the capacity it had, and ``suggested_num_arrays`` a computed target
    size that would (conservatively) fit.  Any field may be ``None`` when
    the failing site cannot estimate it.  ``suggestion_validated`` records
    whether the compiler *proved* the suggestion by retrying the
    multi-array schedule at that array count (``True``), disproved the
    naive estimate and corrected it (also ``True`` — the field describes
    the final suggestion), probed without finding a fitting count
    (``False``), or never checked (``None``).
    """

    def __init__(self, message: str, *,
                 required_cells: int | None = None,
                 available_cells: int | None = None,
                 num_arrays: int | None = None,
                 suggested_num_arrays: int | None = None,
                 suggestion_validated: bool | None = None) -> None:
        super().__init__(message)
        self.required_cells = required_cells
        self.available_cells = available_cells
        self.num_arrays = num_arrays
        if (suggested_num_arrays is None and required_cells is not None
                and available_cells and num_arrays):
            # scale the array count by the overshoot, never shrinking and
            # always proposing at least one extra array
            import math

            scaled = math.ceil(num_arrays * required_cells / available_cells)
            suggested_num_arrays = max(num_arrays + 1, scaled)
        self.suggested_num_arrays = suggested_num_arrays
        self.suggestion_validated = suggestion_validated

    def details(self) -> list[str]:
        """Human-readable diagnostic lines for the CLI error path."""
        lines = []
        if self.required_cells is not None:
            lines.append(f"required cells:  {self.required_cells}")
        if self.available_cells is not None:
            lines.append(f"available cells: {self.available_cells}")
        if self.suggested_num_arrays is not None:
            note = ""
            if self.suggestion_validated:
                note = " — validated: the multi-array schedule fits there"
            lines.append(
                f"suggestion: retry with num_arrays >= "
                f"{self.suggested_num_arrays} (--arrays "
                f"{self.suggested_num_arrays}){note}")
        return lines


class SimulationError(SherlockError):
    """Illegal instruction or machine state during trace execution."""


class HardFaultError(SimulationError):
    """A write could not be committed to any cell (hard fault at runtime).

    Raised by verify-after-write when a cell keeps failing read-back after
    ``write_retries`` attempts and no healthy spare cell is left to remap
    it to.  ``cell`` names the (array, row, col) the program addressed,
    ``physical_cell`` the cell actually attempted last (after remapping),
    ``attempts`` the total write attempts spent, and ``spares_tried`` how
    many spare cells were exhausted along the way.  Catching this error and
    recompiling with the machine's ``discovered_faults`` merged into the
    fault map is the ``remap`` rung of the degradation ladder.
    """

    def __init__(self, message: str, *,
                 cell: tuple[int, int, int] | None = None,
                 physical_cell: tuple[int, int, int] | None = None,
                 attempts: int = 0,
                 spares_tried: int = 0) -> None:
        super().__init__(message)
        self.cell = cell
        self.physical_cell = physical_cell
        self.attempts = attempts
        self.spares_tried = spares_tried


class TargetError(SherlockError):
    """Invalid target specification or unsupported target feature."""


class DeviceError(SherlockError):
    """Invalid device/technology parameters."""


class RetryExhaustedError(SherlockError):
    """A retried operation kept failing until its attempt budget ran out.

    Raised by :func:`repro.util.retry.retry_call` after ``max_attempts``
    retryable failures.  ``attempts`` counts every attempt made and
    ``last_error`` keeps the final failure (also chained as ``__cause__``),
    so callers can distinguish "gave up" from "fatal on first try" — a
    fatal (non-retryable) error propagates unchanged instead.
    """

    def __init__(self, message: str, *, attempts: int = 0,
                 last_error: BaseException | None = None) -> None:
        super().__init__(message)
        self.attempts = attempts
        self.last_error = last_error


class CheckpointError(SherlockError):
    """A checkpoint journal is unusable for the requested resume.

    Raised by :mod:`repro.reliability.checkpoint` when a journal file is
    corrupt, carries an unknown schema, or was written by a run with a
    different identity (program, trials, seed, policy...) than the one
    trying to resume from it — silently mixing those would break the
    bit-identical-resume guarantee.
    """


class ServeError(SherlockError):
    """Base class for compile-and-serve runtime failures (:mod:`repro.serve`)."""


class ServiceOverloadError(ServeError):
    """Admission control shed a request: the service job queue is full.

    Carries the structured load-shedding diagnostics a client needs to
    back off sensibly: ``queue_depth`` jobs were already waiting against a
    ``queue_limit`` bound, and ``retry_after_s`` is the service's hint for
    when capacity is likely to free up (derived from recent per-job
    latency; best-effort, never authoritative).
    """

    def __init__(self, message: str, *, queue_depth: int = 0,
                 queue_limit: int = 0,
                 retry_after_s: float | None = None,
                 shed_policy: str = "reject") -> None:
        super().__init__(message)
        self.queue_depth = queue_depth
        self.queue_limit = queue_limit
        self.retry_after_s = retry_after_s
        self.shed_policy = shed_policy

    def details(self) -> list[str]:
        """Human-readable diagnostic lines for CLI/server error paths."""
        lines = [f"queue depth: {self.queue_depth} (limit {self.queue_limit})",
                 f"shed policy: {self.shed_policy}"]
        if self.retry_after_s is not None:
            lines.append(f"retry after: {self.retry_after_s:.3f} s")
        return lines


class WorkerCrashError(ServeError):
    """A compile worker died mid-job (or chaos injection simulated it).

    This is the canonical *retryable* service failure: the job itself is
    assumed healthy, so the worker pool re-runs it under the retry policy
    instead of failing the request.
    """


class DeadlineExceededError(ServeError):
    """A job missed its per-request deadline in the service loop."""
