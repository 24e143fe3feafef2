"""The chaos harness: seeded fault grids, mid-run crashes, recovery oracle.

Every test drives the scripted workload from ``chaos_harness`` through the
durable pipeline under a seeded :class:`FaultPlan` and asserts the
recovered read side is byte-identical to the fault-free oracle — events,
snapshots, materialized state, and storage accounting.

Seeds come from ``CHAOS_SEEDS`` (comma-separated) so CI can pin its grid.
"""

import dataclasses
import os

import pytest

from tests.chaos_harness import (
    SNAPSHOT_EVERY,
    build_workload,
    journal_fingerprint,
    max_durable_seq,
    run_chaos,
    run_oracle,
    storage_fingerprint,
)
from repro.pipeline import CrashPoint, EventJournal, FaultPlan, ReadSide

SEEDS = [int(s) for s in os.environ.get("CHAOS_SEEDS", "101,202,303,404,505").split(",")]

WORKLOAD = build_workload(seed=7)
ORACLE_JOURNAL, ORACLE_PROC = run_oracle(WORKLOAD)
ORACLE_FP = journal_fingerprint(ORACLE_JOURNAL)
ORACLE_STORAGE = storage_fingerprint(ORACLE_JOURNAL)
ORACLE_EVENTS = ORACLE_JOURNAL.stats.events


def _grid():
    """The fault-plan grid: for each seed, three escalating plans."""
    plans = []
    for seed in SEEDS:
        plans.append(
            pytest.param(
                FaultPlan(seed=seed, drop_rate=0.2, duplicate_rate=0.15, reorder_rate=0.3),
                id=f"s{seed}-lossy-channel",
            )
        )
        plans.append(
            pytest.param(
                FaultPlan(
                    seed=seed,
                    drop_rate=0.1,
                    duplicate_rate=0.1,
                    reorder_rate=0.2,
                    delay_rate=0.15,
                    max_delay_rounds=2,
                    timeout_rate=0.15,
                    max_timeout_burst=2,
                ),
                id=f"s{seed}-lossy-plus-timeouts",
            )
        )
        plans.append(
            pytest.param(
                FaultPlan(
                    seed=seed,
                    drop_rate=0.1,
                    duplicate_rate=0.1,
                    reorder_rate=0.2,
                    delay_rate=0.1,
                    timeout_rate=0.1,
                    max_timeout_burst=2,
                    crash_points=(
                        CrashPoint(ORACLE_EVENTS // 5, "after"),
                        CrashPoint(ORACLE_EVENTS // 2, "torn"),
                        CrashPoint(4 * ORACLE_EVENTS // 5, "before"),
                    ),
                ),
                id=f"s{seed}-full-chaos-with-crashes",
            )
        )
    return plans


@pytest.mark.parametrize("plan", _grid())
def test_chaos_converges_to_oracle(plan, tmp_path):
    """Faults + crashes + recovery must reproduce the oracle byte-for-byte."""
    result = run_chaos(WORKLOAD, plan, str(tmp_path / "wal"))
    # The live journal at the end of the run...  (divergence messages carry
    # the full plan repr so any failure is reproducible from the log alone)
    assert journal_fingerprint(result.journal) == ORACLE_FP, f"live journal diverged — plan {plan!r}"
    assert storage_fingerprint(result.journal) == ORACLE_STORAGE, f"live storage diverged — plan {plan!r}"
    # ...and a cold recovery from disk agree with the oracle.
    assert journal_fingerprint(result.recovered) == ORACLE_FP, f"cold recovery diverged — plan {plan!r}"
    assert storage_fingerprint(result.recovered) == ORACLE_STORAGE, f"recovered storage diverged — plan {plan!r}"
    # Every planned crash that was reachable fired, and each one recovered.
    assert result.crashes == len(plan.crash_points)
    assert result.recoveries == result.crashes
    # Nothing was quietly lost: no dead letters under transient-only faults.
    assert len(result.processor.dlq) == 0
    assert result.processor.stats.dead_lettered == 0
    if any(p.mode == "torn" for p in plan.crash_points):
        assert result.torn_discarded >= 1  # the torn tail was detected & discarded


@pytest.mark.parametrize("seed", SEEDS)
def test_chaos_run_is_replayable(seed, tmp_path):
    """Identical plan + seed => identical schedule, journal, and counters."""
    plan = FaultPlan(
        seed=seed,
        drop_rate=0.15,
        duplicate_rate=0.1,
        reorder_rate=0.25,
        delay_rate=0.1,
        timeout_rate=0.1,
        crash_points=(CrashPoint(max(1, ORACLE_EVENTS // 3), "torn"),),
    )
    a = run_chaos(WORKLOAD, plan, str(tmp_path / "a"))
    b = run_chaos(WORKLOAD, plan, str(tmp_path / "b"))
    assert journal_fingerprint(a.recovered) == journal_fingerprint(b.recovered)
    assert a.rounds == b.rounds
    assert a.crashes == b.crashes
    assert dataclasses.asdict(a.injector.counters) == dataclasses.asdict(b.injector.counters)


@pytest.mark.parametrize("mode", ["before", "torn", "after"])
def test_crash_at_every_fifth_event_recovers(mode, tmp_path):
    """A crash at any injected point must recover to the oracle.

    Sweeps crash points across the whole event sequence for each crash
    mode, with no other faults, so failures localize to one (index, mode).
    """
    for index in range(1, ORACLE_EVENTS + 1, 5):
        plan = FaultPlan(seed=1, crash_points=(CrashPoint(index, mode),))
        wal_dir = str(tmp_path / f"{mode}-{index}")
        result = run_chaos(WORKLOAD, plan, wal_dir)
        assert result.crashes == 1, f"crash point {index}/{mode} never fired — plan {plan!r}"
        assert journal_fingerprint(result.recovered) == ORACLE_FP, (
            f"divergence after crash at event {index} mode {mode} — plan {plan!r}"
        )


def test_mid_run_recovery_is_usable_prefix(tmp_path):
    """Right after a crash, the recovered journal equals the oracle's durable
    prefix — not just eventually-converged state."""
    crash_index = ORACLE_EVENTS // 2
    plan = FaultPlan(seed=3, crash_points=(CrashPoint(crash_index, "after"),))
    injector = plan.injector()
    from repro.pipeline import EventBus, SimulatedCrash, WriteAheadLog, WriteSideProcessor
    from tests.chaos_harness import apply_item

    wal_dir = str(tmp_path / "wal")
    journal = EventJournal(
        snapshot_every=SNAPSHOT_EVERY, wal=WriteAheadLog(wal_dir), fault_injector=injector
    )
    processor = WriteSideProcessor(journal, EventBus(), faults=injector)
    crashed_at = None
    for item in WORKLOAD:
        try:
            apply_item(processor, item)
        except SimulatedCrash:
            crashed_at = item
            break
    assert crashed_at is not None
    journal.close()
    recovered = EventJournal.recover(wal_dir, SNAPSHOT_EVERY, reopen=False)
    # Reference: replay the oracle's first `crash_index` events in memory.
    prefix = []
    for entity_id in ORACLE_JOURNAL.entity_ids():
        prefix.extend(ORACLE_JOURNAL.events_for(entity_id))
    prefix.sort(key=lambda e: (e.time, e.entity_id, e.seq))
    reference = EventJournal.from_events(prefix[:crash_index], snapshot_every=SNAPSHOT_EVERY)
    assert journal_fingerprint(recovered) == journal_fingerprint(reference)
    assert storage_fingerprint(recovered) == storage_fingerprint(reference)
    # The durable watermark is exactly the crash point ('after' mode).
    assert recovered.stats.events == crash_index
    assert max_durable_seq(recovered) >= 0


class TestGroupCommitChaos:
    """Crashes landing mid-group-commit: the PR 2 recovery oracle must
    still hold with a multi-batch WAL commit window."""

    @pytest.mark.parametrize(
        "hooks",
        [("pre_fsync",), ("post_fsync",), ("pre_fsync", "post_fsync")],
        ids=lambda h: "+".join(h),
    )
    def test_mid_group_commit_crash_converges(self, hooks, tmp_path):
        """A crash right before or right after a covering fsync recovers
        to the fault-free oracle byte-for-byte."""
        plan = FaultPlan(seed=11)  # crashes come from the WAL hooks alone
        result = run_chaos(
            WORKLOAD, plan, str(tmp_path / "wal"),
            group_commit_events=4, wal_crash_hooks=hooks,
        )
        assert result.crashes == len(hooks), f"hooks {hooks} did not all fire"
        assert journal_fingerprint(result.journal) == ORACLE_FP
        assert journal_fingerprint(result.recovered) == ORACLE_FP
        assert storage_fingerprint(result.recovered) == ORACLE_STORAGE

    @pytest.mark.parametrize("window", [2, 4, 16])
    def test_group_commit_converges_under_fault_grid(self, window, tmp_path):
        """Channel faults + a torn-write crash with a widened commit
        window still converge to the oracle."""
        plan = FaultPlan(
            seed=SEEDS[0],
            drop_rate=0.15,
            duplicate_rate=0.1,
            reorder_rate=0.25,
            crash_points=(CrashPoint(max(1, ORACLE_EVENTS // 3), "torn"),),
        )
        result = run_chaos(
            WORKLOAD, plan, str(tmp_path / "wal"), group_commit_events=window
        )
        assert journal_fingerprint(result.journal) == ORACLE_FP
        assert journal_fingerprint(result.recovered) == ORACLE_FP

    def test_no_unfsynced_batch_ships_at_crash(self, tmp_path):
        """The commit listener (replication's ship path, and the gate in
        front of subscription delivery) never sees a batch whose covering
        fsync has not completed — even when the crash lands between
        buffering the window and fsyncing it."""
        from repro.pipeline import EventKind, SimulatedCrash, WriteAheadLog

        shipped = []
        armed = {"crash": False}

        def hook(point):
            if point == "pre_fsync" and armed["crash"]:
                raise SimulatedCrash("mid-group-commit")

        wal_dir = str(tmp_path / "wal")
        journal = EventJournal(
            snapshot_every=SNAPSHOT_EVERY,
            wal=WriteAheadLog(wal_dir, group_commit_events=4, crash_hook=hook),
        )
        journal.commit_listener = lambda batch: shipped.append(len(batch.events))
        reference = EventJournal(snapshot_every=SNAPSHOT_EVERY)
        for i in range(3):
            for j in (journal, reference):
                j.append("host:9.9.9.9", float(i), EventKind.SERVICE_REFRESHED, {"key": "80/tcp"})
        assert shipped == []  # window open: nothing is ship-eligible yet
        armed["crash"] = True
        with pytest.raises(SimulatedCrash):
            journal.append(
                "host:9.9.9.9", 3.0, EventKind.SERVICE_REFRESHED, {"key": "80/tcp"}
            )
        reference.append("host:9.9.9.9", 3.0, EventKind.SERVICE_REFRESHED, {"key": "80/tcp"})
        assert shipped == []  # the un-fsynced window never shipped
        # Node loss: the dying primary detaches its listener before its
        # handles close, exactly like ReplicationManager.kill_primary.
        journal.commit_listener = None
        journal.close()
        assert shipped == []
        recovered = EventJournal.recover(wal_dir, SNAPSHOT_EVERY, reopen=False)
        # Recovery may hold MORE than was shipped (flushed-but-unfsynced
        # batches survive a simulated crash) — never less, and exactly
        # the fault-free reference here.
        assert journal_fingerprint(recovered) == journal_fingerprint(reference)


def test_read_side_serves_recovered_state(tmp_path):
    """End to end: lookups on a recovered journal match oracle lookups."""
    plan = FaultPlan(
        seed=SEEDS[0],
        drop_rate=0.1,
        reorder_rate=0.2,
        crash_points=(CrashPoint(max(1, ORACLE_EVENTS // 3), "torn"),),
    )
    result = run_chaos(WORKLOAD, plan, str(tmp_path / "wal"))
    oracle_read = ReadSide(ORACLE_JOURNAL)
    recovered_read = ReadSide(result.recovered)
    for entity_id in sorted(ORACLE_JOURNAL.entity_ids()):
        for at in (None, 10.0, float(len(WORKLOAD) // 2)):
            assert recovered_read.lookup(entity_id, at=at) == oracle_read.lookup(entity_id, at=at)
