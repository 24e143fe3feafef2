"""The failover chaos suite: kill/partition shard primaries mid-ingest.

Every test drives the scripted workload through per-shard replicated
pipelines (``run_failover_chaos``) while a schedule kills or partitions
primaries, then asserts the converged state — promoted primaries, every
replica, and a cold recovery of the final epoch's WAL — is byte-identical
to the fault-free oracle.  The harness itself asserts the zero-acked-
write-loss invariant at every failover (acked watermark <= promoted
durable prefix) and embeds the reproducing ``FaultPlan`` repr in every
divergence message.

Seeds come from ``CHAOS_SEEDS`` (comma-separated) so CI can pin its grid.
"""

import os
import re

import pytest

from tests.chaos_harness import (
    SNAPSHOT_EVERY,
    FailoverEvent,
    build_workload,
    journal_fingerprint,
    run_failover_chaos,
    storage_fingerprint,
)
from repro.pipeline import EventJournal, FaultPlan

SEEDS = [int(s) for s in os.environ.get("CHAOS_SEEDS", "101,202,303,404,505").split(",")]

WORKLOAD = build_workload(seed=7)

#: The moderately lossy plan template every scenario runs under.
def _plan(seed: int) -> FaultPlan:
    return FaultPlan(
        seed=seed,
        drop_rate=0.15,
        duplicate_rate=0.1,
        reorder_rate=0.15,
        delay_rate=0.1,
        timeout_rate=0.05,
    )


#: (id, shards, replicas, ack_replicas, schedule, min_fail_overs)
SCENARIOS = [
    (
        "single-kill",
        1, 2, 1,
        (FailoverEvent(shard=0, at_events=40),),
        1,
    ),
    (
        "back-to-back-kills",
        2, 2, 1,
        (
            FailoverEvent(shard=0, at_events=10),
            FailoverEvent(shard=0, at_events=14),
            FailoverEvent(shard=1, at_events=20),
        ),
        3,
    ),
    (
        "partition-heals",
        2, 2, 1,
        (FailoverEvent(shard=0, at_events=15, kind="partition", partition_rounds=6),),
        0,
    ),
    (
        "partition-deposes",
        2, 3, 2,
        (
            FailoverEvent(shard=0, at_events=12, kind="partition",
                          partition_rounds=5, depose=True),
            FailoverEvent(shard=1, at_events=18),
        ),
        2,
    ),
    (
        "four-shard-storm",
        4, 3, 2,
        (
            FailoverEvent(shard=0, at_events=8),
            FailoverEvent(shard=1, at_events=6, kind="partition",
                          partition_rounds=6, depose=True),
            FailoverEvent(shard=2, at_events=10, kind="partition", partition_rounds=8),
            FailoverEvent(shard=3, at_events=12),
        ),
        3,
    ),
]


def _assert_converged(result) -> None:
    """Promoted primaries AND all replicas match the oracle byte-for-byte."""
    for lane in result.lanes:
        oracle_j = result.oracle.journals[lane.shard]
        oracle_fp = journal_fingerprint(oracle_j)
        assert journal_fingerprint(lane.group.primary) == oracle_fp, (
            f"shard {lane.shard} primary diverged from oracle — plan {result.plan!r}"
        )
        assert storage_fingerprint(lane.group.primary) == storage_fingerprint(oracle_j), (
            f"shard {lane.shard} storage accounting diverged — plan {result.plan!r}"
        )
        for rep in lane.group.replicator.replicas:
            assert journal_fingerprint(rep.journal) == oracle_fp, (
                f"shard {lane.shard} replica {rep.replica_id} diverged — "
                f"plan {result.plan!r}"
            )


def _assert_cold_recovery(result) -> None:
    """A cold recovery of each shard's final-epoch WAL matches the oracle."""
    for lane in result.lanes:
        recovered = EventJournal.recover(
            lane.group.epoch_dir(lane.group.epoch), SNAPSHOT_EVERY, reopen=False
        )
        assert journal_fingerprint(recovered) == journal_fingerprint(
            result.oracle.journals[lane.shard]
        ), f"shard {lane.shard} cold recovery diverged — plan {result.plan!r}"


#: Every file a failover run may leave on disk: per-shard epoch dirs
#: holding WAL segments and snapshot sidecars, nothing else.
_EXPECTED_FILE = re.compile(r"^shard-\d{2}/epoch-\d{2}/segment-\d{5}\.(log|snap)$")
_EXPECTED_DIR = re.compile(r"^shard-\d{2}(/epoch-\d{2})?$")


def _assert_no_tmpdir_leaks(root: str) -> None:
    """No stray temp files: everything under the run root is WAL-shaped."""
    stray = []
    for dirpath, dirnames, filenames in os.walk(root):
        rel = os.path.relpath(dirpath, root)
        if rel != "." and not _EXPECTED_DIR.match(rel.replace(os.sep, "/")):
            stray.append(rel + "/")
        for name in filenames:
            relfile = os.path.join(rel, name).replace(os.sep, "/").lstrip("./")
            if not _EXPECTED_FILE.match(relfile):
                stray.append(relfile)
    assert not stray, f"failover run leaked unexpected files: {sorted(stray)}"


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize(
    "scenario_id,shards,replicas,ack_replicas,schedule,min_fail_overs",
    SCENARIOS,
    ids=[s[0] for s in SCENARIOS],
)
def test_failover_converges_to_oracle(
    seed, scenario_id, shards, replicas, ack_replicas, schedule, min_fail_overs, tmp_path
):
    """Kills and partitions mid-ingest must lose nothing acked and converge."""
    root = str(tmp_path / "shards")
    result = run_failover_chaos(
        WORKLOAD,
        _plan(seed),
        root,
        shards=shards,
        replicas=replicas,
        ack_replicas=ack_replicas,
        schedule=schedule,
    )
    # The disasters actually happened (thresholds are reachable by design).
    assert result.fail_overs >= min_fail_overs, (
        f"expected >= {min_fail_overs} failovers, saw {result.fail_overs} "
        f"(fired: {[len(l.fired) for l in result.lanes]}) — plan {result.plan!r}"
    )
    assert sum(len(lane.fired) for lane in result.lanes) == len(schedule), (
        f"not every scheduled event fired — plan {result.plan!r}"
    )
    _assert_converged(result)
    result.close()
    _assert_cold_recovery(result)
    _assert_no_tmpdir_leaks(root)


@pytest.mark.parametrize("seed", SEEDS)
def test_failover_run_is_replayable(seed, tmp_path):
    """Identical plan + schedule => identical journals, rounds, failovers."""
    schedule = (
        FailoverEvent(shard=0, at_events=20),
        FailoverEvent(shard=1, at_events=25, kind="partition",
                      partition_rounds=4, depose=True),
    )
    runs = []
    for tag in ("a", "b"):
        result = run_failover_chaos(
            WORKLOAD, _plan(seed), str(tmp_path / tag),
            shards=2, replicas=2, ack_replicas=1, schedule=schedule,
        )
        runs.append(result)
        result.close()
    a, b = runs
    assert a.rounds == b.rounds
    assert a.fail_overs == b.fail_overs
    for lane_a, lane_b in zip(a.lanes, b.lanes):
        assert journal_fingerprint(lane_a.group.primary) == journal_fingerprint(
            lane_b.group.primary
        )
        assert lane_a.acked_watermark == lane_b.acked_watermark


def _failover_under_group_commit(window, tmp_path, chunk=1):
    root = str(tmp_path / "shards")
    result = run_failover_chaos(
        WORKLOAD,
        _plan(SEEDS[0]),
        root,
        shards=2,
        replicas=2,
        ack_replicas=1,
        group_commit_events=window,
        chunk=chunk,
        schedule=(
            FailoverEvent(shard=0, at_events=10),
            FailoverEvent(shard=0, at_events=14),
            FailoverEvent(shard=1, at_events=20),
        ),
    )
    # Zero acked-write loss is asserted inside the harness at each promotion.
    assert result.fail_overs == 3
    _assert_converged(result)
    batch_sizes = [
        [len(batch.events) for batch in lane.group.replicator.log] for lane in result.lanes
    ]
    result.close()
    _assert_cold_recovery(result)
    _assert_no_tmpdir_leaks(root)
    return batch_sizes


@pytest.mark.parametrize("window", [2, 4])
def test_failover_with_group_commit_converges(window, tmp_path):
    """Kills mid-ingest with a multi-batch WAL commit window: batches only
    ship at their covering fsync, so replicas trail in clumps, the killed
    primary abandons an open window, and zero-acked-write-loss plus
    oracle convergence must still hold (the PR 7 invariants under the
    PR 10 group-commit WAL)."""
    _failover_under_group_commit(window, tmp_path)


@pytest.mark.parametrize("window", [1, 2, 4])
def test_failover_with_chunk_sized_batches_converges(window, tmp_path):
    """The same kill schedule with the ingest-chunk commit unit: every
    replication batch is a multi-entity chunk, a killed primary abandons
    whole un-acked chunks, and the watermark still counts batches every
    required replica holds."""
    batch_sizes = _failover_under_group_commit(window, tmp_path, chunk=8)
    for sizes in batch_sizes:
        assert max(sizes) > 1 and len(sizes) < sum(sizes)


def test_no_schedule_still_replicates(tmp_path):
    """With an empty schedule the replicated pipeline is just run_chaos with
    followers: it converges, and every replica holds the full log."""
    result = run_failover_chaos(
        WORKLOAD, _plan(SEEDS[0]), str(tmp_path / "shards"),
        shards=2, replicas=2, ack_replicas=1,
    )
    assert result.fail_overs == 0
    _assert_converged(result)
    for lane in result.lanes:
        rep = lane.group.replicator.report()
        assert rep["lag_batches"] == [0] * 2
        assert rep["watermark"] == rep["batches"]
    result.close()


def test_acked_watermark_never_exceeds_durable(tmp_path):
    """The audit value the loss invariant rests on is actually advancing:
    a run with kills acks most of the workload through the watermark."""
    result = run_failover_chaos(
        WORKLOAD, _plan(SEEDS[0]), str(tmp_path / "shards"),
        shards=1, replicas=2, ack_replicas=2,
        schedule=(FailoverEvent(shard=0, at_events=50),),
    )
    assert result.fail_overs == 1
    lane = result.lanes[0]
    # Strictest ack gate (ack_replicas == replicas) still converges and the
    # watermark reaches the end of the log.
    assert lane.acked_watermark >= 0
    assert lane.group.replicator.watermark() == len(lane.group.replicator.log)
    _assert_converged(result)
    result.close()
