"""Unit tests for the functional array machine."""

import math
import random

import pytest

from repro.arch import (
    CellAddr,
    Instruction,
    NotInst,
    ReadInst,
    ShiftInst,
    TargetSpec,
    TransferInst,
    WriteInst,
)
from repro.devices import RERAM, STT_MRAM, CellFault, FaultMap
from repro.devices.failure import decision_failure_probability
from repro.dfg import OpType
from repro.dfg.ops import apply_op
from repro.errors import SimulationError
from repro.sim import ArrayMachine


def make_machine(lanes=8, machine_kwargs=None, **kwargs):
    kwargs.setdefault("num_arrays", 2)
    target = TargetSpec(RERAM, rows=16, cols=8, data_width=32, **kwargs)
    return ArrayMachine(target, lanes=lanes, **(machine_kwargs or {}))


class TestCells:
    def test_poke_peek_roundtrip(self):
        m = make_machine()
        m.poke(CellAddr(0, 3, 2), 0b1011)
        assert m.peek(CellAddr(0, 3, 2)) == 0b1011

    def test_poke_masks_to_lanes(self):
        m = make_machine(lanes=4)
        m.poke(CellAddr(0, 0, 0), 0xFF)
        assert m.peek(CellAddr(0, 0, 0)) == 0xF

    def test_peek_uninitialized_raises(self):
        m = make_machine()
        with pytest.raises(SimulationError):
            m.peek(CellAddr(0, 0, 0))

    def test_out_of_range_raises(self):
        m = make_machine()
        with pytest.raises(SimulationError):
            m.poke(CellAddr(0, 99, 0), 1)
        with pytest.raises(SimulationError):
            m.poke(CellAddr(5, 0, 0), 1)


class TestReadWrite:
    def test_plain_read_then_write_copies_cell(self):
        m = make_machine()
        m.poke(CellAddr(0, 2, 5), 0b0110)
        m.run([ReadInst(0, (5,), (2,)), WriteInst(0, (5,), 7)])
        assert m.peek(CellAddr(0, 7, 5)) == 0b0110

    @pytest.mark.parametrize("op,expected", [
        (OpType.AND, 0b1000), (OpType.OR, 0b1110), (OpType.XOR, 0b0110),
        (OpType.NAND, 0b0111), (OpType.NOR, 0b0001), (OpType.XNOR, 0b1001),
    ])
    def test_cim_read_computes(self, op, expected):
        m = make_machine(lanes=4)
        m.poke(CellAddr(0, 0, 3), 0b1100)
        m.poke(CellAddr(0, 1, 3), 0b1010)
        m.run([ReadInst(0, (3,), (0, 1), (op,))])
        assert m.rowbuf(0)[3] == expected

    def test_cim_read_three_rows(self):
        m = make_machine(lanes=4)
        for row, val in [(0, 0b1100), (1, 0b1010), (2, 0b0110)]:
            m.poke(CellAddr(0, row, 0), val)
        m.run([ReadInst(0, (0,), (0, 1, 2), (OpType.XOR,))])
        assert m.rowbuf(0)[0] == 0b1100 ^ 0b1010 ^ 0b0110

    def test_per_column_heterogeneous_ops(self):
        m = make_machine(lanes=4)
        for col in (1, 2):
            m.poke(CellAddr(0, 0, col), 0b1100)
            m.poke(CellAddr(0, 1, col), 0b1010)
        m.run([ReadInst(0, (1, 2), (0, 1), (OpType.AND, OpType.XOR))])
        assert m.rowbuf(0) == {1: 0b1000, 2: 0b0110}

    def test_read_uninitialized_cell_raises(self):
        m = make_machine()
        with pytest.raises(SimulationError):
            m.run([ReadInst(0, (0,), (0,))])

    def test_write_from_empty_rowbuf_raises(self):
        m = make_machine()
        with pytest.raises(SimulationError):
            m.run([WriteInst(0, (0,), 0)])


class TestPerInstructionChecks:
    """Bounds are checked once per instruction; a failing instruction must
    still raise the error a per-cell walk in execution order would."""

    @pytest.mark.parametrize("inst,message", [
        (ReadInst(0, (99,), (0,)),
         r"address \(array=0, row=0, col=99\) outside target 2x16x8"),
        (ReadInst(0, (2,), (0, 30), (OpType.AND,)),
         r"address \(array=0, row=30, col=2\) outside"),
        (ReadInst(5, (0,), (0,)), r"address \(array=5, row=0, col=0\)"),
        # column 1 comes first and is merely uninitialized
        (ReadInst(0, (1, 99), (0,)),
         r"read of uninitialized cell \(array=0, row=0, col=1\)"),
        (ReadInst(0, (2, 3), (0, 1), (OpType.OR, OpType.OR)),
         r"read of uninitialized cell \(array=0, row=1, col=3\)"),
        (WriteInst(0, (2, 99), 4),
         r"address \(array=0, row=4, col=99\) outside"),
        (WriteInst(0, (2,), 16), r"address \(array=0, row=16, col=2\)"),
        # column 5 comes first and has nothing buffered
        (WriteInst(0, (5, 99), 4), r"write from empty row-buffer column 5"),
        (WriteInst(0, (2, 5), 4), r"write from empty row-buffer column 5"),
    ])
    @pytest.mark.parametrize("faulty", [False, True])
    def test_first_failing_cell_is_named(self, inst, message, faulty):
        fault_map = FaultMap()
        if faulty:  # the remapping / fault-forcing access path
            fault_map.set_fault(1, 0, 0, CellFault.STUCK1)
        m = make_machine(machine_kwargs={"fault_map": fault_map})
        for row in (0, 1):
            m.poke(CellAddr(0, row, 2), 0b1010)
        m.poke(CellAddr(0, 0, 3), 0b0110)
        m.execute(ReadInst(0, (2,), (0,)))
        with pytest.raises(SimulationError, match=message):
            m.execute(inst)

    def test_unknown_instruction_raises(self):
        with pytest.raises(SimulationError, match="unknown instruction"):
            make_machine().execute(Instruction(0))


class TestShiftNotTransfer:
    def test_shift_moves_rowbuf_columns(self):
        m = make_machine(lanes=4)
        m.poke(CellAddr(0, 0, 2), 0b0101)
        m.run([ReadInst(0, (2,), (0,)), ShiftInst(0, 3)])
        assert m.rowbuf(0) == {5: 0b0101}

    def test_shift_left(self):
        m = make_machine(lanes=4)
        m.poke(CellAddr(0, 0, 4), 0b1111)
        m.run([ReadInst(0, (4,), (0,)), ShiftInst(0, -4)])
        assert m.rowbuf(0) == {0: 0b1111}

    def test_shift_drops_out_of_range(self):
        m = make_machine(lanes=4)
        m.poke(CellAddr(0, 0, 7), 1)
        m.run([ReadInst(0, (7,), (0,)), ShiftInst(0, 1)])
        assert m.rowbuf(0) == {}

    def test_strict_shift_raises_on_live_column_loss(self):
        m = make_machine(lanes=4, machine_kwargs={"strict_shift": True})
        m.poke(CellAddr(0, 0, 7), 1)
        m.execute(ReadInst(0, (7,), (0,)))
        with pytest.raises(SimulationError, match="live row-buffer column 7"):
            m.execute(ShiftInst(0, 1))

    def test_strict_shift_tolerates_stale_columns(self):
        """Only the most recent read's columns are live; stale ones may drop."""
        m = make_machine(lanes=4, machine_kwargs={"strict_shift": True})
        m.poke(CellAddr(0, 0, 7), 0b0011)
        m.poke(CellAddr(0, 0, 0), 0b0101)
        m.execute(ReadInst(0, (7,), (0,)))  # col 7 live
        m.execute(ReadInst(0, (0,), (0,)))  # col 0 live, col 7 now stale
        m.execute(ShiftInst(0, 1))          # stale col 7 falls off silently
        assert m.rowbuf(0) == {1: 0b0101}

    def test_strict_shift_tracks_liveness_through_shifts(self):
        m = make_machine(lanes=4, machine_kwargs={"strict_shift": True})
        m.poke(CellAddr(0, 0, 5), 1)
        m.execute(ReadInst(0, (5,), (0,)))
        m.execute(ShiftInst(0, 2))  # live column now at 7
        with pytest.raises(SimulationError, match="live row-buffer column 7"):
            m.execute(ShiftInst(0, 1))

    def test_default_mode_still_drops_silently(self):
        m = make_machine(lanes=4)
        m.poke(CellAddr(0, 0, 7), 1)
        m.run([ReadInst(0, (7,), (0,)), ShiftInst(0, 1)])
        assert m.rowbuf(0) == {}

    def test_not_inverts_selected_columns(self):
        m = make_machine(lanes=4)
        m.poke(CellAddr(0, 0, 1), 0b0101)
        m.run([ReadInst(0, (1,), (0,)), NotInst(0, (1,))])
        assert m.rowbuf(0)[1] == 0b1010

    def test_not_on_empty_rowbuf_raises(self):
        m = make_machine()
        with pytest.raises(SimulationError):
            m.run([NotInst(0, (0,))])

    def test_transfer_between_arrays(self):
        m = make_machine(lanes=4)
        m.poke(CellAddr(0, 0, 3), 0b1001)
        m.run([ReadInst(0, (3,), (0,)), TransferInst(0, 1, (3,)),
               WriteInst(1, (3,), 9)])
        assert m.peek(CellAddr(1, 9, 3)) == 0b1001

    def test_transfer_from_empty_rowbuf_raises(self):
        m = make_machine()
        with pytest.raises(SimulationError):
            m.run([TransferInst(0, 1, (0,))])


class TestMoveSequence:
    def test_full_gather_move(self):
        """read -> shift -> write relocates a bit to another column/row."""
        m = make_machine(lanes=4)
        m.poke(CellAddr(0, 5, 2), 0b1110)
        m.run([
            ReadInst(0, (2,), (5,)),
            ShiftInst(0, 4),
            WriteInst(0, (6,), 11),
        ])
        assert m.peek(CellAddr(0, 11, 6)) == 0b1110


class TestFaultInjection:
    def test_faults_flip_lanes_with_high_probability(self):
        target = TargetSpec(
            STT_MRAM.with_variability(0.4, 0.4), rows=16, cols=8,
            data_width=32, num_arrays=1)
        m = ArrayMachine(target, lanes=64, fault_rng=random.Random(0))
        m.poke(CellAddr(0, 0, 0), 0)
        m.poke(CellAddr(0, 1, 0), 0)
        for _ in range(50):
            m.execute(ReadInst(0, (0,), (0, 1), (OpType.XOR,)))
        assert m.injected_faults > 0

    def test_no_rng_means_deterministic(self):
        m = make_machine(lanes=4)
        m.poke(CellAddr(0, 0, 0), 0b1100)
        m.poke(CellAddr(0, 1, 0), 0b1010)
        results = set()
        for _ in range(5):
            m.execute(ReadInst(0, (0,), (0, 1), (OpType.XOR,)))
            results.add(m.rowbuf(0)[0])
        assert results == {0b0110}
        assert m.injected_faults == 0

    @staticmethod
    def _faulty_machine(seed, lanes=16):
        target = TargetSpec(
            STT_MRAM.with_variability(0.3, 0.3), rows=16, cols=8,
            data_width=32, num_arrays=2)
        return ArrayMachine(target, lanes=lanes,
                            fault_rng=random.Random(seed))

    @staticmethod
    def _mixed_trace():
        return [
            ReadInst(0, (0, 1), (0, 1), (OpType.AND, OpType.XOR)),
            WriteInst(0, (0,), 5),
            ReadInst(0, (2,), (0,)),           # plain read
            ShiftInst(0, 1),
            NotInst(0, (1,)),
            ReadInst(0, (0, 1), (0, 1, 2), (OpType.NOR, OpType.OR)),
            TransferInst(0, 1, (0,)),
            WriteInst(1, (0,), 3),
        ]

    def _preload(self, m):
        for row in range(3):
            for col in (0, 1, 2):
                m.poke(CellAddr(0, row, col), (0b1100 >> row) | col)

    def test_seeded_rng_is_reproducible(self):
        """Same seed -> identical outputs and identical fault accounting."""
        states = []
        for _ in range(2):
            m = self._faulty_machine(seed=1234)
            self._preload(m)
            m.run(self._mixed_trace())
            states.append((m.injected_faults, m.rowbuf(0), m.rowbuf(1),
                           m.peek(CellAddr(0, 5, 0)), m.peek(CellAddr(1, 3, 0))))
        assert states[0] == states[1]

    def test_different_seeds_diverge(self):
        faults = set()
        for seed in range(8):
            m = self._faulty_machine(seed)
            self._preload(m)
            for _ in range(20):
                m.run(self._mixed_trace())
            faults.add(m.injected_faults)
        assert len(faults) > 1

    def test_injected_faults_accounting_across_mixed_trace(self):
        """injected_faults equals the observed flips, sense by sense."""
        observed = []

        class Counter:
            def on_sense(self, machine, op, k, values, result, resense):
                true = (values[0] if op is None
                        else apply_op(op, values, machine.mask))
                observed.append((result ^ true).bit_count())
                return result

        target = TargetSpec(
            STT_MRAM.with_variability(0.3, 0.3), rows=16, cols=8,
            data_width=32, num_arrays=2)
        m = ArrayMachine(target, lanes=16, fault_rng=random.Random(99),
                         observer=Counter())
        self._preload(m)
        for _ in range(25):
            m.run(self._mixed_trace())
        assert m.injected_faults == sum(observed)
        assert m.injected_faults > 0
        # 5 sensed columns per trace iteration (2 + 1 plain + 2)
        assert len(observed) == 25 * 5

    def test_flip_rate_matches_p_df(self):
        """Empirical flip rate agrees with the analytic P_DF (5-sigma)."""
        tech = STT_MRAM.with_variability(0.3, 0.3)
        p = decision_failure_probability(tech, OpType.XOR, 2)
        assert 0.001 < p < 0.5  # the test needs a measurable rate
        target = TargetSpec(tech, rows=16, cols=8, data_width=32,
                            num_arrays=1)
        lanes, repeats = 64, 1500
        m = ArrayMachine(target, lanes=lanes, fault_rng=random.Random(7))
        m.poke(CellAddr(0, 0, 0), 0)
        m.poke(CellAddr(0, 1, 0), 0)
        for _ in range(repeats):
            m.execute(ReadInst(0, (0,), (0, 1), (OpType.XOR,)))
        n = lanes * repeats
        empirical = m.injected_faults / n
        sigma = math.sqrt(p * (1 - p) / n)
        assert abs(empirical - p) < 5 * sigma

    def test_p_one_flips_every_lane(self, monkeypatch):
        """Degenerate P_DF >= 1 must flip all lanes, not loop forever."""
        import repro.sim.executor as executor_mod

        monkeypatch.setattr(executor_mod, "cached_p_df",
                            lambda tech, op, k: 1.0)
        m = make_machine(lanes=8, machine_kwargs={
            "fault_rng": random.Random(0)})
        m.poke(CellAddr(0, 0, 0), 0)
        m.poke(CellAddr(0, 1, 0), 0)
        m.execute(ReadInst(0, (0,), (0, 1), (OpType.XOR,)))
        assert m.rowbuf(0)[0] == m.mask
        assert m.injected_faults == 8


class TestSnapshotRestore:
    def test_roundtrip_restores_cells_rowbuf_and_liveness(self):
        m = make_machine(lanes=4, machine_kwargs={"strict_shift": True})
        m.poke(CellAddr(0, 0, 2), 0b1010)
        m.execute(ReadInst(0, (2,), (0,)))
        state = m.snapshot()
        m.execute(ShiftInst(0, 2))
        m.execute(WriteInst(0, (4,), 9))
        m.restore(state)
        assert m.rowbuf(0) == {2: 0b1010}
        with pytest.raises(SimulationError):
            m.peek(CellAddr(0, 9, 4))
        # liveness was restored too: shifting col 2 off the edge raises
        with pytest.raises(SimulationError):
            m.execute(ShiftInst(0, 6))

    def test_restore_does_not_reset_fault_accounting(self):
        target = TargetSpec(
            STT_MRAM.with_variability(0.4, 0.4), rows=16, cols=8,
            data_width=32, num_arrays=1)
        m = ArrayMachine(target, lanes=64, fault_rng=random.Random(0))
        m.poke(CellAddr(0, 0, 0), 0)
        m.poke(CellAddr(0, 1, 0), 0)
        state = m.snapshot()
        for _ in range(30):
            m.execute(ReadInst(0, (0,), (0, 1), (OpType.XOR,)))
        before = m.injected_faults
        assert before > 0
        m.restore(state)
        assert m.injected_faults == before


class TestSenseObserver:
    def test_observer_sees_plain_and_cim_senses(self):
        calls = []

        class Spy:
            def on_sense(self, machine, op, k, values, result, resense):
                calls.append((op, k, tuple(values), result))
                return result

        m = make_machine(lanes=4, machine_kwargs={"observer": Spy()})
        m.poke(CellAddr(0, 0, 0), 0b1100)
        m.poke(CellAddr(0, 1, 0), 0b1010)
        m.run([ReadInst(0, (0,), (0, 1), (OpType.AND,)),
               ReadInst(0, (0,), (0,))])
        assert calls == [(OpType.AND, 2, (0b1100, 0b1010), 0b1000),
                         (None, 1, (0b1100,), 0b1100)]

    def test_observer_return_value_lands_in_rowbuf(self):
        class Override:
            def on_sense(self, machine, op, k, values, result, resense):
                return 0b0001

        m = make_machine(lanes=4, machine_kwargs={"observer": Override()})
        m.poke(CellAddr(0, 0, 3), 0b1111)
        m.execute(ReadInst(0, (3,), (0,)))
        assert m.rowbuf(0)[3] == 0b0001

    def test_resense_redraws_faults(self):
        seen = []

        class Resenser:
            def on_sense(self, machine, op, k, values, result, resense):
                seen.append([resense() for _ in range(20)])
                return result

        target = TargetSpec(
            STT_MRAM.with_variability(0.4, 0.4), rows=16, cols=8,
            data_width=32, num_arrays=1)
        m = ArrayMachine(target, lanes=64, fault_rng=random.Random(3),
                         observer=Resenser())
        m.poke(CellAddr(0, 0, 0), 0)
        m.poke(CellAddr(0, 1, 0), 0)
        m.execute(ReadInst(0, (0,), (0, 1), (OpType.XOR,)))
        assert len(set(seen[0])) > 1  # fresh draws differ


class TestStuckAtSense:
    """Permanent faults force sensed values across every op boundary."""

    def fault_machine(self, kind, cell=(0, 0, 0), lanes=8, mra=4,
                      fault_rng=None):
        from repro.devices import FaultMap

        fm = FaultMap()
        fm.set_fault(*cell, kind)
        target = TargetSpec(RERAM, rows=16, cols=8, data_width=32,
                            num_arrays=2, max_activated_rows=mra)
        return ArrayMachine(target, lanes=lanes, fault_map=fm,
                            fault_rng=fault_rng)

    @pytest.mark.parametrize("kind", ["STUCK0", "STUCK1", "DEAD"])
    @pytest.mark.parametrize("op", [OpType.AND, OpType.OR, OpType.XOR])
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_stuck_cell_in_k_row_sense(self, kind, op, k):
        """Every op x every activation count up to the MRA limit."""
        from repro.devices import CellFault

        fault = CellFault[kind]
        m = self.fault_machine(fault)
        values = [0b1011, 0b0111, 0b1101, 0b0110][:k]
        for row, value in enumerate(values):
            m.poke(CellAddr(0, row, 0), value)  # row 0 bounces: faulty
        m.execute(ReadInst(0, (0,), tuple(range(k)), (op,)))
        expected = apply_op(op, [fault.forced_value(m.mask), *values[1:]],
                            m.mask)
        assert m.rowbuf(0)[0] == expected

    @pytest.mark.parametrize("kind", ["STUCK0", "STUCK1", "DEAD"])
    def test_stuck_cell_in_plain_read_and_not(self, kind):
        """The NOT boundary: plain read of a stuck cell, then row-buffer NOT."""
        from repro.devices import CellFault

        fault = CellFault[kind]
        m = self.fault_machine(fault)
        forced = fault.forced_value(m.mask)
        m.execute(ReadInst(0, (0,), (0,)))
        assert m.rowbuf(0)[0] == forced
        m.execute(NotInst(0, (0,)))
        assert m.rowbuf(0)[0] == (~forced) & m.mask

    def test_healthy_rows_unaffected(self):
        from repro.devices import CellFault

        m = self.fault_machine(CellFault.STUCK1, cell=(0, 5, 5))
        m.poke(CellAddr(0, 0, 0), 0b1010)
        m.execute(ReadInst(0, (0,), (0,)))
        assert m.rowbuf(0)[0] == 0b1010

    def test_writes_bounce_off_faulty_cells(self):
        from repro.devices import CellFault

        m = self.fault_machine(CellFault.STUCK0)
        m.poke(CellAddr(0, 0, 0), 0b1111)  # bounces
        assert m.peek(CellAddr(0, 0, 0)) == 0
        m.poke(CellAddr(0, 1, 0), 0b1111)  # healthy neighbor sticks
        assert m.peek(CellAddr(0, 1, 0)) == 0b1111

    def test_stuck_sense_is_deterministic_not_gaussian(self):
        """Unlike decision failures, hard faults never redraw.

        On a high-variability technology with an active fault RNG the
        sensed op result still varies (transient injection), but the
        faulty cell's contribution — what the observer sees loaded — is
        the same forced value on every sense, and peek never wavers.
        """
        from repro.devices import CellFault, FaultMap

        fm = FaultMap()
        fm.set_fault(0, 0, 0, CellFault.STUCK1)
        target = TargetSpec(STT_MRAM.with_variability(0.4, 0.4), rows=16,
                            cols=8, data_width=32, num_arrays=1)
        loaded = []

        class Spy:
            def on_sense(self, machine, op, k, values, result, resense):
                loaded.append(values[0])
                return result

        m = ArrayMachine(target, lanes=64, fault_rng=random.Random(3),
                         fault_map=fm, observer=Spy())
        m.poke(CellAddr(0, 1, 0), 0b0110)
        for _ in range(20):
            m.execute(ReadInst(0, (0,), (0, 1), (OpType.XOR,)))
        assert set(loaded) == {m.mask}  # forced on every one of 20 senses
        assert {m.peek(CellAddr(0, 0, 0)) for _ in range(20)} == {m.mask}


class TestTransfer:
    """Direct coverage of the Fig. 4 ``xfer`` bridge instruction."""

    def test_cross_array_copy(self):
        """xfer carries sensed row-buffer bits onto another array."""
        m = make_machine()
        m.poke(CellAddr(0, 2, 3), 0b1010)
        m.run([
            ReadInst(0, (3,), (2,)),
            TransferInst(0, dst_array=1, cols=(3,)),
            WriteInst(1, (3,), 5),
        ])
        assert m.peek(CellAddr(1, 5, 3)) == 0b1010
        # the source cell is untouched and the source array keeps its buffer
        assert m.peek(CellAddr(0, 2, 3)) == 0b1010

    def test_copies_only_named_columns(self):
        m = make_machine()
        m.poke(CellAddr(0, 0, 1), 0b01)
        m.poke(CellAddr(0, 0, 2), 0b10)
        m.run([ReadInst(0, (1, 2), (0,)),
               TransferInst(0, dst_array=1, cols=(1,)),
               WriteInst(1, (1,), 0)])
        assert m.peek(CellAddr(1, 0, 1)) == 0b01
        with pytest.raises(SimulationError):
            # column 2 never crossed, so writing it on array 1 is illegal
            m.execute(WriteInst(1, (2,), 0))

    def test_same_array_is_rejected(self):
        with pytest.raises(SimulationError):
            TransferInst(0, dst_array=0, cols=(1,))

    def test_empty_cols_is_rejected(self):
        with pytest.raises(SimulationError):
            TransferInst(0, dst_array=1, cols=())

    def test_empty_source_buffer_raises(self):
        m = make_machine()
        with pytest.raises(SimulationError):
            m.execute(TransferInst(0, dst_array=1, cols=(4,)))

    def test_out_of_range_destination_raises(self):
        m = make_machine()  # num_arrays=2
        m.poke(CellAddr(0, 0, 0), 1)
        m.execute(ReadInst(0, (0,), (0,)))
        with pytest.raises(SimulationError):
            m.execute(TransferInst(0, dst_array=5, cols=(0,)))

    def test_stuck_cell_at_destination_forces_written_value(self):
        """A bridge into a stuck destination cell lands the forced value."""
        from repro.devices import CellFault, FaultMap

        fm = FaultMap()
        fm.set_fault(1, 5, 3, CellFault.STUCK1)
        m = make_machine(machine_kwargs={"fault_map": fm})
        m.poke(CellAddr(0, 2, 3), 0b0000)
        m.run([ReadInst(0, (3,), (2,)),
               TransferInst(0, dst_array=1, cols=(3,)),
               WriteInst(1, (3,), 5)])
        # the xfer itself is clean; the stuck cell corrupts the commit
        assert m.peek(CellAddr(1, 5, 3)) == m.mask
