"""Tests for checkpoint/resume journals of campaign and lifetime runs."""

import dataclasses
import json
import pathlib

import pytest

from repro.arch import TargetSpec
from repro.core import CompilerConfig
from repro.core.compiler import compile_dag
from repro.devices import RERAM, STT_MRAM
from repro.errors import CheckpointError
from repro.reliability import (
    CHECKPOINT_SCHEMA,
    CheckpointJournal,
    program_digest,
    remaining_ranges,
    run_campaign,
    run_lifetime,
)
from repro.workloads.synthetic import synthetic_dag

IDENTITY = {"who": "test", "seed": 1}
GOLDEN = pathlib.Path(__file__).parent / "golden"


@pytest.fixture(scope="module")
def program():
    tech = STT_MRAM.with_variability(0.12, 0.12)
    target = TargetSpec.square(64, tech, num_arrays=4, max_activated_rows=4)
    dag = synthetic_dag(num_ops=24, num_inputs=8, seed=3, name="ckpt")
    return compile_dag(dag, target,
                       CompilerConfig(mapper="sherlock", mra=4), cache=False)


def truncate_journal(path, keep):
    """Simulate an interrupted run: keep only the first ``keep`` records."""
    document = json.loads(path.read_text())
    assert len(document["records"]) > keep
    document["records"] = document["records"][:keep]
    path.write_text(json.dumps(document))


class TestCheckpointJournal:
    def test_create_append_resume(self, tmp_path):
        path = tmp_path / "run.ckpt"
        journal = CheckpointJournal(path, "campaign", IDENTITY)
        assert not journal.resumed
        journal.append({"first": 0, "count": 5})
        journal.append({"first": 5, "count": 5})
        resumed = CheckpointJournal(path, "campaign", IDENTITY)
        assert resumed.resumed
        assert resumed.records == [{"first": 0, "count": 5},
                                   {"first": 5, "count": 5}]
        document = json.loads(path.read_text())
        assert document["schema"] == CHECKPOINT_SCHEMA
        resumed.remove()
        assert not path.exists()
        resumed.remove()  # idempotent

    def test_rejects_corrupt_and_mismatched_journals(self, tmp_path):
        path = tmp_path / "run.ckpt"
        CheckpointJournal(path, "campaign", IDENTITY)
        with pytest.raises(CheckpointError):  # different identity
            CheckpointJournal(path, "campaign", {"who": "someone-else"})
        with pytest.raises(CheckpointError):  # different kind
            CheckpointJournal(path, "lifetime", IDENTITY)
        document = json.loads(path.read_text())
        document["schema"] = "sherlock-checkpoint/v999"
        path.write_text(json.dumps(document))
        with pytest.raises(CheckpointError):  # wrong schema
            CheckpointJournal(path, "campaign", IDENTITY)
        path.write_text("{truncated garba")
        with pytest.raises(CheckpointError):  # corrupt JSON
            CheckpointJournal(path, "campaign", IDENTITY)
        path.write_text(json.dumps(["not", "an", "object"]))
        with pytest.raises(CheckpointError):
            CheckpointJournal(path, "campaign", IDENTITY)

    def test_journal_file_is_always_a_complete_document(self, tmp_path):
        path = tmp_path / "run.ckpt"
        journal = CheckpointJournal(path, "campaign", IDENTITY)
        for index in range(10):
            journal.append({"first": index, "count": 1})
            json.loads(path.read_text())  # parseable after every append


class TestRemainingRanges:
    def test_gap_computation(self):
        assert remaining_ranges(10, []) == [(0, 10)]
        assert remaining_ranges(10, [(0, 10)]) == []
        assert remaining_ranges(10, [(0, 3), (7, 3)]) == [(3, 4)]
        assert remaining_ranges(10, [(3, 4)]) == [(0, 3), (7, 3)]

    def test_rejects_overlap_and_overflow(self):
        with pytest.raises(CheckpointError):
            remaining_ranges(10, [(0, 5), (4, 3)])
        with pytest.raises(CheckpointError):
            remaining_ranges(10, [(8, 5)])


class TestProgramDigest:
    def test_digest_tracks_program_identity(self, program):
        assert program_digest(program) == program_digest(program)
        other_dag = synthetic_dag(num_ops=24, num_inputs=8, seed=4,
                                  name="ckpt2")
        other = compile_dag(other_dag, program.target,
                            CompilerConfig(mapper="sherlock", mra=4),
                            cache=False)
        assert program_digest(other) != program_digest(program)


class TestCampaignResume:
    def test_checkpointed_equals_plain_serial(self, program, tmp_path):
        plain = run_campaign(program, trials=20, seed=9, lanes=8)
        ckpt = run_campaign(program, trials=20, seed=9, lanes=8,
                            checkpoint=tmp_path / "c.ckpt")
        assert ckpt == plain

    def test_interrupted_resume_is_bit_identical(self, program, tmp_path):
        path = tmp_path / "c.ckpt"
        # workers=2 journals two canonical blocks even when run serially
        uninterrupted = run_campaign(program, trials=20, seed=9, lanes=8,
                                     workers=2, checkpoint=path)
        truncate_journal(path, 1)  # "crash" after the first block
        resumed = run_campaign(program, trials=20, seed=9, lanes=8,
                               workers=2, checkpoint=path)
        assert resumed == uninterrupted
        # the finished journal makes a re-run a pure no-op merge
        replayed = run_campaign(program, trials=20, seed=9, lanes=8,
                                workers=2, checkpoint=path)
        assert replayed == uninterrupted

    def test_resume_with_different_workers_matches_counters(self, program,
                                                            tmp_path):
        path = tmp_path / "c.ckpt"
        uninterrupted = run_campaign(program, trials=20, seed=9, lanes=8,
                                     workers=2, checkpoint=path)
        truncate_journal(path, 1)
        resumed = run_campaign(program, trials=20, seed=9, lanes=8,
                               workers=1, checkpoint=path)
        # integer failure counters are exact across any block partition
        assert resumed.decision_failures == uninterrupted.decision_failures
        assert resumed.output_failures == uninterrupted.output_failures
        assert resumed.injected_faults == uninterrupted.injected_faults

    def test_mismatched_run_raises(self, program, tmp_path):
        path = tmp_path / "c.ckpt"
        run_campaign(program, trials=10, seed=9, lanes=8, checkpoint=path)
        with pytest.raises(CheckpointError):
            run_campaign(program, trials=10, seed=10, lanes=8,
                         checkpoint=path)
        with pytest.raises(CheckpointError):
            run_campaign(program, trials=12, seed=9, lanes=8,
                         checkpoint=path)


class TestLifetimeResume:
    def small_target(self):
        return TargetSpec(RERAM, rows=16, cols=16, data_width=32,
                          num_arrays=2)

    def run(self, checkpoint=None):
        return run_lifetime(
            synthetic_dag(num_ops=24, num_inputs=8, seed=4),
            self.small_target(), CompilerConfig(),
            trials=3, seed=7, endurance=40.0, endurance_spread=0.15,
            validate=True, lanes=8, checkpoint=checkpoint)

    def test_interrupted_resume_is_bit_identical(self, tmp_path):
        path = tmp_path / "l.ckpt"
        plain = self.run()
        uninterrupted = self.run(checkpoint=path)
        assert dataclasses.asdict(uninterrupted) == dataclasses.asdict(plain)
        truncate_journal(path, 1)  # "crash" after the first trial
        resumed = self.run(checkpoint=path)
        assert dataclasses.asdict(resumed) == dataclasses.asdict(plain)

    def test_resumes_journal_pinning_auto_engine(self, tmp_path):
        """A journal whose identity pins ``"engine": "auto"`` (written when
        ``run_lifetime`` still took an ``engine`` argument) still resumes,
        and the resumed result equals a plain run."""
        path = tmp_path / "l.ckpt"
        path.write_text((GOLDEN / "lifetime_journal_v1.json").read_text())
        assert json.loads(path.read_text())["identity"]["engine"] == "auto"
        resumed = self.run(checkpoint=path)
        assert dataclasses.asdict(resumed) == dataclasses.asdict(self.run())
        assert len(json.loads(path.read_text())["records"]) == 3

    def test_mismatched_run_raises(self, tmp_path):
        path = tmp_path / "l.ckpt"
        self.run(checkpoint=path)
        with pytest.raises(CheckpointError):
            run_lifetime(
                synthetic_dag(num_ops=24, num_inputs=8, seed=4),
                self.small_target(), CompilerConfig(),
                trials=3, seed=8, endurance=40.0, endurance_spread=0.15,
                validate=True, lanes=8, checkpoint=path)
