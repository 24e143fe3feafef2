"""What the platform derives must not depend on ``PYTHONHASHSEED``.

One small world (bits 13, 600 services, 2 simulated days, one standing
query) is run in two child interpreters with different hash seeds.  The
derivation stage's dirty set used to be a ``set`` of entity-id strings, so
the order hosts were reindexed in — and with it the bulk-export order of
host documents and the standing-query notification order — followed the
interpreter's string hashing.

Still open, and pinned below as a strict ``xfail`` so it cannot be
forgotten: the relative order of ``cert:`` / ``web:`` documents also moves
with the hash seed, because ``NameFeed`` derives each web property's
passive-DNS lag from the builtin ``hash(prop.name)``.  That lag decides
*when a name is scanned*, so replacing it changes what a run observes even
under ``PYTHONHASHSEED=0`` (measured on the e2e ``ingest_replay`` workload:
34,632 instead of 34,634 observations and a different journal digest) —
a behaviour change that belongs in a change of its own, not in one whose
benchmark claim rests on doing exactly the parent's work.
"""

import json
import os
import subprocess
import sys

import pytest

import repro

_CHILD = r"""
import json
from repro.core import CensysPlatform, PlatformConfig
from repro.simnet import DAY, WorkloadConfig, build_simnet

world = build_simnet(
    bits=13,
    workload_config=WorkloadConfig(seed=11, services_target=600, t_end=8 * DAY),
    seed=11,
)
plat = CensysPlatform(
    world, PlatformConfig(seed=11, subscriptions=True), start_time=-2 * DAY
)
plat.subscribe("services.protocol: http", sub_id="watch")
plat.run_until(0.0, tick_hours=6.0)
notes = plat.drain_notifications()
report = plat.traffic_report()
print(json.dumps({
    "items": [doc_id for doc_id, _doc in plat.index.items()],
    "notifications": [[n["seq"], n["entity_id"], n["transition"]] for n in notes],
    "counts": {
        "observations": report["stages"]["ingest"]["observations_ingested"],
        "events_journaled": report["stages"]["ingest"]["events_journaled"],
        "journal_events": sum(report["shards"]["events_per_shard"]),
        "interrogations": report["stages"]["interrogation"]["interrogations_run"],
        "probes": report["total_probes"],
        "reindexed": report["stages"]["derivation"]["reindexed_entities"],
        "certificates_indexed": report["stages"]["derivation"]["certificates_indexed"],
    },
}))
plat.close()
"""


def _run(hash_seed: str) -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hash_seed
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(repro.__file__))
    done = subprocess.run(
        [sys.executable, "-c", _CHILD],
        env=env, capture_output=True, text=True, timeout=600, check=False,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    return json.loads(done.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def runs():
    return _run("0"), _run("1")


def _hosts(items):
    return [doc_id for doc_id in items if doc_id.startswith(("host:", "host6:"))]


def test_the_world_is_not_trivial(runs):
    a, _b = runs
    assert len(a["items"]) > 400
    assert len(a["notifications"]) > 100
    assert a["counts"]["observations"] > 3000


def test_counts_do_not_depend_on_the_hash_seed(runs):
    a, b = runs
    assert a["counts"] == b["counts"]
    assert sorted(a["items"]) == sorted(b["items"])
    assert len(a["notifications"]) == len(b["notifications"])


def test_notification_order_does_not_depend_on_the_hash_seed(runs):
    a, b = runs
    assert a["notifications"] == b["notifications"]


def test_host_document_order_does_not_depend_on_the_hash_seed(runs):
    """Host documents are put in dirty-set order: first dirtied, first put."""
    a, b = runs
    assert len(_hosts(a["items"])) > 300
    assert _hosts(a["items"]) == _hosts(b["items"])


@pytest.mark.xfail(
    strict=True,
    reason="NameFeed derives passive-DNS lags from builtin hash(prop.name): "
    "cert:/web: document order still follows PYTHONHASHSEED (see module docstring)",
)
def test_full_bulk_export_order_does_not_depend_on_the_hash_seed(runs):
    a, b = runs
    assert a["items"] == b["items"]
