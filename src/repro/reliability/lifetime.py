"""Array-lifetime campaigns: wear cells out, remap, recompile, die.

The Monte-Carlo campaign of :mod:`repro.reliability.campaign` studies
*transient* sensing faults; this module studies the array's *end of life*.
Each trial ages the arrays under repeated kernel executions: per-cell write
counts accumulate (statically, from the instruction trace — cheap enough to
simulate thousands of executions), every cell carries its own randomized
endurance threshold, and when a cell's cumulative writes cross it the cell
dies for good.  From there the hard-fault ladder engages:

1. **wear-leveling** (optional): each execution epoch runs the program
   through a round-robin row rotation (:mod:`repro.sim.wearlevel`), so hot
   logical rows sweep over all physical rows instead of grinding one down;
2. **remap/recompile**: a death inside the program's footprint triggers the
   ``remap`` rung — the dead cells join the fault map and the program is
   recompiled fault-aware around them;
3. **death**: recompilation eventually fails with
   :class:`repro.errors.CapacityError` — the healthy cells no longer fit
   the program.  That epoch is the array's executions-to-death.

A matching *baseline* (no rotation, no remap — the array dies with its
first worn-out cell) runs on the same per-cell endurance draws, so each
trial is a paired comparison.  Death-within-horizon proportions reuse the
campaign's Wilson machinery (:func:`repro.reliability.campaign.wilson_interval`).

Endurance here is *simulation-scale* (hundreds of writes, not the 1e8+ of
real devices): the point is the mitigation dynamics, not absolute hours.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from repro.arch.target import TargetSpec
from repro.core.compiler import SherlockCompiler
from repro.core.config import CompilerConfig
from repro.devices.faultmap import FaultMap
from repro.dfg.evaluate import evaluate
from repro.dfg.graph import DataFlowGraph
from repro.errors import MappingError, SimulationError
from repro.reliability.campaign import wilson_interval
from repro.sim.endurance import static_write_counts
from repro.sim.wearlevel import (
    placement_conflicts,
    rotate_instructions,
    rotate_layout,
    rotate_program,
)

__all__ = [
    "LifetimeResult",
    "run_lifetime",
]

_MASK64 = 0xFFFFFFFFFFFFFFFF
_MIX_A = 0x9E3779B1
_MIX_B = 0x85EBCA77
_MIX_C = 0xC2B2AE3D

_Cell = tuple[int, int, int]


def _cell_endurance(seed: int, trial: int, cell: _Cell,
                    endurance: float, spread: float) -> float:
    """The randomized write budget of one physical cell in one trial.

    Purely a function of ``(seed, trial, cell)``, so baseline and mitigated
    agings of the same trial wear the very same silicon.  Gaussian spread
    around the nominal endurance, floored at one write.
    """
    if spread <= 0.0:
        return endurance
    key = (seed * _MIX_A + trial * _MIX_B
           + (hash(cell) & 0xFFFFFFFF) * _MIX_C) & _MASK64
    rng = random.Random(key)
    return max(1.0, endurance * (1.0 + spread * rng.gauss(0.0, 1.0)))


class _WearState:
    """Cumulative wear of one trial's arrays, with lazy endurance draws."""

    def __init__(self, seed: int, trial: int, endurance: float,
                 spread: float) -> None:
        self.seed = seed
        self.trial = trial
        self.endurance = endurance
        self.spread = spread
        self.cum: dict[_Cell, float] = {}
        self._limits: dict[_Cell, float] = {}

    def limit(self, cell: _Cell) -> float:
        """This cell's endurance threshold (drawn once, cached)."""
        limit = self._limits.get(cell)
        if limit is None:
            limit = _cell_endurance(self.seed, self.trial, cell,
                                    self.endurance, self.spread)
            self._limits[cell] = limit
        return limit

    def add(self, counts: dict[_Cell, int], times: int = 1) -> None:
        """Accumulate ``times`` epochs worth of per-cell writes."""
        for cell, count in counts.items():
            self.cum[cell] = self.cum.get(cell, 0.0) + count * times

    def newly_dead(self, counts: dict[_Cell, int],
                   fault_map: FaultMap) -> list[_Cell]:
        """Cells of ``counts`` now past their limit and not yet diagnosed."""
        return sorted(
            cell for cell in counts
            if self.cum.get(cell, 0.0) >= self.limit(cell)
            and fault_map.is_healthy(*cell))

    def safe_epochs(self, per_epoch: dict[_Cell, float]) -> int:
        """Whole epochs guaranteed death-free at this per-epoch wear rate."""
        safe = None
        for cell, rate in per_epoch.items():
            if rate <= 0:
                continue
            left = self.limit(cell) - self.cum.get(cell, 0.0)
            cell_safe = max(0, math.ceil(left / rate) - 1)
            safe = cell_safe if safe is None else min(safe, cell_safe)
        return 10**9 if safe is None else safe


def _orbit_counts(program, rows: int, stride: int, wear_leveling: bool,
                  fault_map: FaultMap):
    """Usable rotation offsets and their per-offset/per-period write counts.

    Returns ``(offsets, shifted, period_counts)``: the offsets the epoch
    schedule cycles through (round-robin), the per-cell counts at each
    offset, and their sum over one full cycle.  Offsets whose rotation
    lands a placement on a known-faulty cell are excluded — a real
    controller would not rotate data onto dead cells; offset 0 always
    stays (the program is compiled around ``fault_map``, so it is
    conflict-free by construction).  Without wear-leveling the orbit is
    the single offset 0.
    """
    base = static_write_counts(program.instructions)
    if not wear_leveling:
        return [0], {0: base}, dict(base)
    period = rows // math.gcd(stride, rows)
    candidates = sorted({(i * stride) % rows for i in range(period)})
    all_shifted = {
        offset: static_write_counts(
            rotate_instructions(program.instructions, offset, rows))
        for offset in candidates}
    offsets = [
        offset for offset in candidates
        if offset == 0 or (
            all(fault_map.is_healthy(*cell) for cell in all_shifted[offset])
            and not placement_conflicts(
                rotate_layout(program.layout, offset), fault_map))]
    shifted = {offset: all_shifted[offset] for offset in offsets}
    period_counts: dict[_Cell, float] = {}
    for offset in offsets:
        for cell, count in shifted[offset].items():
            period_counts[cell] = period_counts.get(cell, 0.0) + count
    return offsets, shifted, period_counts


@dataclass(frozen=True)
class LifetimeResult:
    """Aggregate outcome of one lifetime campaign."""

    program_name: str
    technology: str
    trials: int
    seed: int
    #: simulation-scale nominal endurance (writes per cell)
    endurance: float
    #: relative Gaussian spread of per-cell endurance draws
    endurance_spread: float
    #: censoring horizon, in kernel executions
    horizon: int
    wear_leveling: bool
    rotation_stride: int
    #: per-trial executions-to-death without mitigation (None = survived)
    baseline_deaths: tuple
    #: per-trial executions-to-death with rotation + remap (None = survived)
    mitigated_deaths: tuple
    #: per-trial execution of the first remap/recompile (None = never)
    first_remaps: tuple
    #: per-trial number of fault-aware recompiles performed
    recompiles: tuple
    #: functional-validation mismatches across all recompiles (should be 0)
    validation_failures: int = 0

    # ------------------------------------------------------------------
    def _censored_mean(self, deaths: tuple) -> float:
        return sum(self.horizon if d is None else d
                   for d in deaths) / len(deaths)

    @property
    def baseline_dead(self) -> int:
        """Trials whose unmitigated array died within the horizon."""
        return sum(1 for d in self.baseline_deaths if d is not None)

    @property
    def mitigated_dead(self) -> int:
        """Trials whose mitigated array died within the horizon."""
        return sum(1 for d in self.mitigated_deaths if d is not None)

    @property
    def baseline_death_wilson(self) -> tuple[float, float]:
        """Wilson 95% CI of the baseline death-within-horizon proportion."""
        return wilson_interval(self.baseline_dead, self.trials)

    @property
    def mitigated_death_wilson(self) -> tuple[float, float]:
        """Wilson 95% CI of the mitigated death-within-horizon proportion."""
        return wilson_interval(self.mitigated_dead, self.trials)

    @property
    def mean_baseline_death(self) -> float:
        """Mean executions-to-death without mitigation (censored at horizon)."""
        return self._censored_mean(self.baseline_deaths)

    @property
    def mean_mitigated_death(self) -> float:
        """Mean executions-to-death with mitigation (censored at horizon)."""
        return self._censored_mean(self.mitigated_deaths)

    @property
    def mean_first_remap(self) -> float | None:
        """Mean execution of the first remap (None when no trial remapped)."""
        remapped = [r for r in self.first_remaps if r is not None]
        if not remapped:
            return None
        return sum(remapped) / len(remapped)

    @property
    def extension_factor(self) -> float:
        """Mitigated over baseline mean executions-to-death."""
        base = self.mean_baseline_death
        if base == 0:
            return float("inf")
        return self.mean_mitigated_death / base

    def summary(self) -> dict[str, float]:
        """Flat dictionary for table printing."""
        base_lo, base_hi = self.baseline_death_wilson
        mit_lo, mit_hi = self.mitigated_death_wilson
        return {
            "trials": self.trials,
            "baseline_mean_death": self.mean_baseline_death,
            "baseline_dead_frac": self.baseline_dead / self.trials,
            "baseline_dead_ci95_lo": base_lo,
            "baseline_dead_ci95_hi": base_hi,
            "mitigated_mean_death": self.mean_mitigated_death,
            "mitigated_dead_frac": self.mitigated_dead / self.trials,
            "mitigated_dead_ci95_lo": mit_lo,
            "mitigated_dead_ci95_hi": mit_hi,
            "mean_first_remap": (self.mean_first_remap
                                 if self.mean_first_remap is not None
                                 else float("nan")),
            "mean_recompiles": sum(self.recompiles) / self.trials,
            "extension_factor": self.extension_factor,
        }


def _baseline_death(program, state: _WearState, horizon: int) -> int | None:
    """First execution at which an unmitigated program cell wears out.

    Without mitigation every epoch writes the same cells the same number of
    times, so the first death is a closed form per cell — no epoch loop.
    """
    counts = static_write_counts(program.instructions)
    death = None
    for cell, count in counts.items():
        if count <= 0:
            continue
        epoch = math.ceil(state.limit(cell) / count)
        if death is None or epoch < death:
            death = epoch
    if death is None or death > horizon:
        return None
    return death


def _validate_once(program, dag: DataFlowGraph, lanes: int, seed: int,
                   trial: int) -> bool:
    """One verified functional execution against the reference semantics.

    Runs without a fault RNG: the point is that the recompiled (and
    possibly rotated) program is deterministically correct on the worn
    arrays — stuck cells honored, no placement on the dead ones — not to
    re-measure the transient sensing-fault rate the Monte-Carlo campaign
    already covers.
    """
    rng = random.Random((seed * _MIX_A + trial * _MIX_B + 17) & _MASK64)
    inputs = {operand.name: rng.getrandbits(lanes)
              for operand in dag.inputs()}
    expected = evaluate(dag, inputs, lanes)
    try:
        actual = program.execute(inputs, lanes=lanes, verify_writes=True)
    except SimulationError:
        return False
    return actual == expected


def run_lifetime(dag: DataFlowGraph, target: TargetSpec,
                 config: CompilerConfig | None = None, *,
                 trials: int = 25, seed: int = 0,
                 endurance: float = 150.0, endurance_spread: float = 0.15,
                 wear_leveling: bool = True, rotation_stride: int = 1,
                 horizon: int = 1_000_000,
                 fault_map: FaultMap | None = None,
                 validate: bool = False, lanes: int = 16,
                 checkpoint=None) -> LifetimeResult:
    """Run a seeded lifetime campaign (wear → remap → recompile → death).

    Each trial ages the arrays twice on identical per-cell endurance draws:
    once unmitigated (death = first worn-out program cell) and once with
    the full ladder (wear-leveling rotation per execution epoch when
    ``wear_leveling`` is on, dead cells merged into a growing fault map,
    fault-aware recompiles, death = :class:`repro.errors.CapacityError`).
    Trials are censored at ``horizon`` executions.

    ``fault_map`` seeds both agings with pre-existing (manufacturing)
    faults.  ``validate`` additionally executes every recompiled program
    once with verify-after-write against the reference semantics; any
    mismatch is counted in ``validation_failures``.

    ``checkpoint`` names a journal file making the run resumable: every
    finished trial's outcome is appended atomically, and re-running the
    same invocation skips journaled trials — each trial's wear draws
    depend only on ``(seed, trial)``, so the resumed result is
    bit-identical to an uninterrupted run.  A journal from a different
    run raises :class:`~repro.errors.CheckpointError`.
    """
    if trials < 1:
        raise SimulationError(f"trial count must be positive, got {trials}")
    if horizon < 1:
        raise SimulationError(f"horizon must be positive, got {horizon}")
    if endurance <= 0:
        raise SimulationError(f"endurance must be positive, got {endurance}")
    if wear_leveling and rotation_stride < 1:
        raise SimulationError(
            f"rotation stride must be positive, got {rotation_stride}")
    config = config or CompilerConfig()
    rows = target.rows

    initial = SherlockCompiler(target, config,
                               fault_map=fault_map).compile(dag)
    if initial.stages is not None and wear_leveling:
        # staged programs cannot rotate (see repro.sim.wearlevel); age them
        # at offset 0 so the campaign still measures remap/recompile gains
        wear_leveling = False

    journal = None
    journaled: dict[int, dict] = {}
    if checkpoint is not None:
        from repro.reliability.checkpoint import (
            CheckpointJournal,
            program_digest,
        )

        # identity uses the *effective* wear_leveling (after the staged
        # adjustment above) so it matches however the run is re-invoked
        identity = {"program": program_digest(initial), "trials": trials,
                    "seed": seed, "endurance": endurance,
                    "endurance_spread": endurance_spread,
                    "wear_leveling": wear_leveling,
                    "rotation_stride": rotation_stride, "horizon": horizon,
                    "validate": validate, "lanes": lanes,
                    # validation runs always pick the engine with "auto";
                    # the key stays so older journals still resume
                    "engine": "auto"}
        journal = CheckpointJournal(checkpoint, "lifetime", identity)
        journaled = {record["trial"]: record for record in journal.records}

    baseline_deaths: list[int | None] = []
    mitigated_deaths: list[int | None] = []
    first_remaps: list[int | None] = []
    recompile_counts: list[int] = []
    validation_failures = 0

    for trial in range(trials):
        if trial in journaled:
            record = journaled[trial]
            baseline_deaths.append(record["baseline"])
            mitigated_deaths.append(record["mitigated"])
            first_remaps.append(record["first_remap"])
            recompile_counts.append(record["recompiles"])
            validation_failures += record["validation_failures"]
            continue
        trial_validation_failures_before = validation_failures
        state = _WearState(seed, trial, endurance, endurance_spread)
        baseline_deaths.append(_baseline_death(initial, state, horizon))

        # mitigated aging shares the same endurance draws via `state`
        fm = fault_map.copy() if fault_map is not None else FaultMap()
        program = initial
        offsets, shifted, period_counts = _orbit_counts(
            program, rows, rotation_stride, wear_leveling, fm)
        period = len(offsets)
        epoch = 0
        death: int | None = None
        first_remap: int | None = None
        recompiles = 0
        while epoch < horizon:
            # jump whole rotation periods while provably death-free
            per_epoch = {c: v / period for c, v in period_counts.items()}
            safe = state.safe_epochs(per_epoch) // period
            if safe > 0:
                jump = min(safe, max(0, (horizon - epoch) // period))
                if jump > 0:
                    state.add(period_counts, times=jump)
                    epoch += jump * period
                    if epoch >= horizon:
                        break
            # step one epoch at a time until a death event (≤ one period,
            # modulo the conservativeness of the safe-epoch bound)
            counts = shifted[offsets[epoch % period]]
            state.add(counts)
            epoch += 1
            dead = state.newly_dead(counts, fm)
            if not dead:
                continue
            discovered = FaultMap()
            for cell in dead:
                discovered.mark_dead(*cell)
            fm.merge(discovered)
            if first_remap is None:
                first_remap = epoch
            try:
                program = SherlockCompiler(target, config,
                                           fault_map=fm).compile(dag)
            except MappingError:
                death = epoch
                break
            recompiles += 1
            offsets, shifted, period_counts = _orbit_counts(
                program, rows, rotation_stride,
                wear_leveling and program.stages is None, fm)
            period = len(offsets)
            if validate:
                if program.stages is None and wear_leveling:
                    probe = rotate_program(program, offsets[epoch % period])
                    ok = _validate_once(probe, dag, lanes, seed, trial)
                else:
                    ok = _validate_once(program, dag, lanes, seed, trial)
                if not ok:
                    validation_failures += 1
        mitigated_deaths.append(death)
        first_remaps.append(first_remap)
        recompile_counts.append(recompiles)
        if journal is not None:
            journal.append({
                "trial": trial,
                "baseline": baseline_deaths[-1],
                "mitigated": death,
                "first_remap": first_remap,
                "recompiles": recompiles,
                "validation_failures":
                    validation_failures - trial_validation_failures_before})

    return LifetimeResult(
        program_name=dag.name, technology=target.technology.name,
        trials=trials, seed=seed, endurance=endurance,
        endurance_spread=endurance_spread, horizon=horizon,
        wear_leveling=wear_leveling, rotation_stride=rotation_stride,
        baseline_deaths=tuple(baseline_deaths),
        mitigated_deaths=tuple(mitigated_deaths),
        first_remaps=tuple(first_remaps),
        recompiles=tuple(recompile_counts),
        validation_failures=validation_failures)
