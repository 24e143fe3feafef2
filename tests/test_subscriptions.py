"""Standing queries: anchors, incremental evaluation, delivery, recovery.

The contracts under test:

* the inverted predicate index only narrows — every subscription whose
  result set an event could change is evaluated, and per-event cost
  scales with matching subscriptions, not with total registrations;
* notifications are transition-based and the delivered stream converges
  to the fault-free oracle under seeded drop/duplicate/delay plans,
  with exhausted retries parked in the dead-letter queue (and
  redrivable) rather than wedging the stream;
* registrations journal like any other event: they replay through WAL
  recovery and survive compaction folds, and a restored + resynced
  engine produces exactly the transitions a never-crashed one would.
"""

import os
import random

import pytest

from repro.pipeline import (
    EventJournal,
    FaultPlan,
    Notification,
    NotificationDeliverer,
    SegmentCompactor,
    SubscriptionEngine,
    WriteAheadLog,
    anchor_tokens,
    subscription_entity_id,
)
from repro.pipeline.reliability import RetryPolicy
from repro.search import compile_query

SEEDS = [int(s) for s in os.environ.get("CHAOS_SEEDS", "101,202,303,404,505").split(",")]


def doc(**fields):
    """A flattened document: field -> list of values."""
    return {k: v if isinstance(v, list) else [v] for k, v in fields.items()}


# ----------------------------------------------------------------------
# Anchor extraction
# ----------------------------------------------------------------------


class TestAnchorTokens:
    def anchors(self, query):
        return anchor_tokens(compile_query(query).node)

    def test_term_anchors_on_its_value(self):
        assert self.anchors("service.protocol: http") == frozenset(
            {("service.protocol", "http")}
        )

    def test_full_text_term_anchors_on_empty_field(self):
        assert self.anchors("nginx") == frozenset({("", "nginx")})

    def test_wildcard_is_broad(self):
        assert self.anchors("service.banner: ngin*") is None

    def test_comparison_and_range_are_broad(self):
        assert self.anchors("service.port > 1000") is None
        assert self.anchors("service.port: [20 TO 25]") is None

    def test_not_is_broad(self):
        assert self.anchors("not service.protocol: http") is None

    def test_and_picks_an_anchorable_conjunct(self):
        anchors = self.anchors("service.protocol: http and service.port > 1000")
        assert anchors == frozenset({("service.protocol", "http")})

    def test_and_of_broad_children_is_broad(self):
        assert self.anchors("service.port > 1 and service.banner: ngin*") is None

    def test_or_unions_all_disjuncts(self):
        anchors = self.anchors("service.protocol: http or service.protocol: ssh")
        assert anchors == frozenset(
            {("service.protocol", "http"), ("service.protocol", "ssh")}
        )

    def test_or_with_one_broad_disjunct_is_broad(self):
        assert self.anchors("service.protocol: http or service.port > 1") is None

    def test_anchor_soundness_on_matching_docs(self):
        # If a doc matches, its token pairs must include an anchor: the
        # invariant that makes skipping un-anchored subscriptions safe.
        from repro.pipeline.subscriptions import _doc_token_pairs

        cases = [
            ("service.protocol: http", doc(**{"service.protocol": "http"})),
            ("nginx", doc(**{"service.banner": "nginx 1.2"})),
            (
                "service.protocol: http and service.port > 1000",
                doc(**{"service.protocol": "http", "service.port": 8080}),
            ),
            (
                "service.protocol: http or service.protocol: ssh",
                doc(**{"service.protocol": "ssh"}),
            ),
        ]
        for query, document in cases:
            plan = compile_query(query)
            assert plan.matches_doc(document)
            anchors = anchor_tokens(plan.node)
            assert anchors is not None
            assert anchors & _doc_token_pairs(document), query


# ----------------------------------------------------------------------
# Engine semantics
# ----------------------------------------------------------------------


class TestEngineTransitions:
    def test_entered_then_exited_on_change(self):
        engine = SubscriptionEngine()
        sub = engine.subscribe("service.protocol: http")
        engine.on_document("host:a", doc(**{"service.protocol": "http"}), now=1.0)
        engine.on_document("host:a", doc(**{"service.protocol": "ssh"}), now=2.0)
        got = engine.drain_notifications()
        assert [(n["transition"], n["entity_id"]) for n in got] == [
            ("entered", "host:a"),
            ("exited", "host:a"),
        ]
        assert all(n["sub_id"] == sub for n in got)
        assert engine.matching_entities(sub) == set()

    def test_no_notification_without_transition(self):
        engine = SubscriptionEngine()
        engine.subscribe("service.protocol: http")
        d = doc(**{"service.protocol": "http", "service.port": 80})
        engine.on_document("host:a", d)
        engine.drain_notifications()
        # Same match state again (field shuffle, still matching): silent.
        engine.on_document("host:a", doc(**{"service.protocol": "http", "service.port": 8080}))
        assert engine.drain_notifications() == []

    def test_deletion_emits_exited(self):
        engine = SubscriptionEngine()
        sub = engine.subscribe("service.protocol: http")
        engine.on_document("host:a", doc(**{"service.protocol": "http"}))
        engine.drain_notifications()
        engine.on_document("host:a", None)
        got = engine.drain_notifications()
        assert [(n["transition"], n["entity_id"]) for n in got] == [("exited", "host:a")]
        assert engine.matching_entities(sub) == set()

    def test_unsubscribe_stops_notifications_and_cleans_maps(self):
        engine = SubscriptionEngine()
        sub = engine.subscribe("service.protocol: http")
        engine.on_document("host:a", doc(**{"service.protocol": "http"}))
        engine.drain_notifications()
        assert engine.unsubscribe(sub)
        assert not engine.unsubscribe(sub)
        engine.on_document("host:a", None)
        assert engine.drain_notifications() == []
        assert len(engine) == 0
        assert engine._anchor_index == {}
        assert engine._entity_subs == {}

    def test_duplicate_subscription_id_rejected(self):
        engine = SubscriptionEngine()
        engine.subscribe("nginx", sub_id="watch-1")
        with pytest.raises(ValueError):
            engine.subscribe("apache", sub_id="watch-1")

    def test_notifications_carry_canonical_query_key(self):
        engine = SubscriptionEngine()
        engine.subscribe("b: y and a: x")
        engine.on_document("host:a", doc(a="x", b="y"))
        (note,) = engine.drain_notifications()
        assert note["query"] == compile_query("a: x and b: y").key

    def test_broad_subscription_sees_every_event(self):
        engine = SubscriptionEngine()
        sub = engine.subscribe("service.port > 1000")
        engine.on_document("host:a", doc(**{"service.port": 8080}))
        engine.on_document("host:b", doc(**{"service.port": 80}))
        got = engine.drain_notifications()
        assert [(n["sub_id"], n["entity_id"], n["transition"]) for n in got] == [
            (sub, "host:a", "entered")
        ]


class TestCandidateNarrowing:
    def test_per_event_cost_scales_with_matches_not_registrations(self):
        # 500 anchored subscriptions on distinct tokens; an event can only
        # ever touch the few whose anchor it carries.
        engine = SubscriptionEngine()
        for i in range(500):
            engine.subscribe(f"service.protocol: proto{i}")
        engine.on_document("host:a", doc(**{"service.protocol": "proto7"}))
        assert engine.candidates_evaluated <= 2
        assert engine.notifications_emitted == 1
        # An event matching nothing evaluates nothing.
        before = engine.candidates_evaluated
        engine.on_document("host:b", doc(**{"service.protocol": "unregistered"}))
        assert engine.candidates_evaluated == before

    def test_candidates_per_event_stay_flat_across_a_10x_registration_sweep(self):
        # The vocabulary grows with the registrations (10 subscriptions per
        # token, 20 broad ones on top), so every event's expected match
        # count is the same at every level: a narrowing index keeps the
        # per-event evaluation count flat while registrations grow 10x.
        subs_per_token, broad_subs, tokens_per_event, n_events = 10, 20, 3, 200
        per_event = {}
        for n_subs in (1_000, 3_000, 10_000):
            vocab_size = n_subs // subs_per_token
            engine = SubscriptionEngine()
            rng = random.Random(11)
            for i in range(n_subs - broad_subs):
                query = f"services.protocol: proto{i % vocab_size}"
                if rng.random() < 0.3:
                    query += " and services.port > 1000"
                engine.subscribe(query, sub_id=f"watch-{i:07d}")
            for i in range(broad_subs):
                engine.subscribe(f"services.port > {7000 + i}", sub_id=f"broad-{i:03d}")
            rng = random.Random(12)
            for n in range(n_events):
                ranks = rng.sample(range(vocab_size), tokens_per_event)
                engine.on_document(f"host:{n % (n_events // 4)}", {
                    "services.protocol": [f"proto{r}" for r in ranks],
                    "services.port": [rng.choice([22, 80, 443, 8080])],
                })
            assert engine.events_seen == n_events
            per_event[n_subs] = engine.candidates_evaluated / n_events
        assert per_event[10_000] / per_event[1_000] <= 1.5, per_event

    def test_current_matchers_always_reevaluated(self):
        # Exit detection must work even when the new doc no longer carries
        # the anchor token at all.
        engine = SubscriptionEngine()
        sub = engine.subscribe("service.protocol: http")
        engine.on_document("host:a", doc(**{"service.protocol": "http"}))
        engine.drain_notifications()
        engine.on_document("host:a", doc(**{"service.banner": "dark"}))
        got = engine.drain_notifications()
        assert [(n["sub_id"], n["transition"]) for n in got] == [(sub, "exited")]

    def test_report_schema(self):
        engine = SubscriptionEngine()
        engine.subscribe("nginx")
        engine.subscribe("service.port > 1")
        engine.on_document("host:a", doc(**{"service.banner": "nginx"}))
        report = engine.report()
        assert set(report) == {
            "registered", "broad", "anchor_keys", "events_seen",
            "candidates_evaluated", "notifications_emitted",
            "notifications_delivered", "delivery_outstanding",
            "transmissions", "dead_letters",
        }
        assert report["registered"] == 2
        assert report["broad"] == 1
        assert report["events_seen"] == 1


# ----------------------------------------------------------------------
# Delivery: at-least-once under seeded faults
# ----------------------------------------------------------------------


def make_notifications(n):
    return [
        Notification(i, f"sub-{i % 5:06d}", f"host:{i}", "entered", float(i), "q")
        for i in range(n)
    ]


class TestFaultyDelivery:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_at_least_once_under_drop_dup_delay(self, seed):
        plan = FaultPlan(seed=seed, drop_rate=0.3, duplicate_rate=0.2, delay_rate=0.2)
        deliverer = NotificationDeliverer(plan, RetryPolicy(max_attempts=64))
        emitted = make_notifications(40)
        for note in emitted:
            deliverer.offer(note)
        deliverer.pump(max_rounds=256)
        delivered = deliverer.drain_delivered()
        # Exactly-once at the consumer: dedupe by seq, nothing lost.
        assert sorted(n.seq for n in delivered) == [n.seq for n in emitted]
        assert deliverer.transmissions > len(emitted)  # retransmission happened
        assert deliverer.outstanding == 0
        assert len(deliverer.dead_letters) == 0

    def test_clean_channel_delivers_in_one_round(self):
        deliverer = NotificationDeliverer()
        for note in make_notifications(10):
            deliverer.offer(note)
        assert deliverer.pump() == 10
        assert deliverer.transmissions == 10

    def test_exhausted_attempts_dead_letter_and_redrive(self):
        # 100% drop: every attempt fails, everything dead-letters instead
        # of spinning forever or wedging the outbox.
        plan = FaultPlan(seed=1, drop_rate=1.0)
        deliverer = NotificationDeliverer(plan, RetryPolicy(max_attempts=3))
        emitted = make_notifications(5)
        for note in emitted:
            deliverer.offer(note)
        assert deliverer.pump(max_rounds=32) == 0
        assert len(deliverer.dead_letters) == 5
        assert deliverer.outstanding == 0
        entry = deliverer.dead_letters.entries()[0]
        assert entry.attempts == 3
        # Fault clears: redrive re-queues and the stream completes.
        deliverer.channel.injector = None
        assert deliverer.redrive() == 5
        deliverer.pump()
        assert sorted(n.seq for n in deliverer.drain_delivered()) == [
            n.seq for n in emitted
        ]
        assert len(deliverer.dead_letters) == 0

    def test_dead_letter_does_not_stall_later_notifications(self):
        # seq 0 is poisoned (always dropped) while everything else flows:
        # later notifications must still arrive — no gap buffering.
        class PoisonSeqZero:
            def should_drop(self, seq, attempt):
                return seq == 0

            def should_duplicate(self, seq, attempt):
                return False

            def delay_rounds(self, seq, attempt):
                return 0

            def should_swap(self, round_no, pos):
                return False

        deliverer = NotificationDeliverer(None, RetryPolicy(max_attempts=3))
        deliverer.channel.injector = PoisonSeqZero()
        for note in make_notifications(6):
            deliverer.offer(note)
        deliverer.pump(max_rounds=32)
        assert sorted(n.seq for n in deliverer.drain_delivered()) == [1, 2, 3, 4, 5]
        assert [e.item.seq for e in deliverer.dead_letters.entries()] == [0]

    @pytest.mark.parametrize("seed", SEEDS)
    def test_engine_stream_converges_to_fault_free_oracle(self, seed):
        # The same document stream through a faulty engine and a clean
        # oracle: after pumping, the delivered transition stream is
        # identical (delivery faults reorder/retry wire transfers, never
        # what the consumer ends up seeing).
        plan = FaultPlan(seed=seed, drop_rate=0.25, duplicate_rate=0.25, delay_rate=0.25)
        faulty = SubscriptionEngine(
            delivery_plan=plan, retry=RetryPolicy(max_attempts=64)
        )
        oracle = SubscriptionEngine()
        for engine in (faulty, oracle):
            engine.subscribe("service.protocol: http", sub_id="http")
            engine.subscribe("service.port > 7000", sub_id="high-port")
            engine.subscribe("nginx or apache", sub_id="server")
        events = []
        for i in range(30):
            entity = f"host:{i % 7}"
            if i % 5 == 4:
                events.append((entity, None))
            else:
                events.append((
                    entity,
                    doc(**{
                        "service.protocol": "http" if i % 2 else "ssh",
                        "service.port": 8080 if i % 3 == 0 else 22,
                        "service.banner": "nginx" if i % 4 == 0 else "mystery",
                    }),
                ))
        for t, (entity, document) in enumerate(events):
            faulty.on_document(entity, document, now=float(t))
            oracle.on_document(entity, document, now=float(t))
            faulty.pump_delivery(max_rounds=4)  # partial pumping mid-stream
        got = {tuple(sorted(n.items())) for n in faulty.drain_notifications()}
        want = {tuple(sorted(n.items())) for n in oracle.drain_notifications()}
        assert got == want
        assert faulty.report()["dead_letters"] == 0
        assert faulty.report()["transmissions"] > oracle.report()["transmissions"]


# ----------------------------------------------------------------------
# Durability: WAL recovery and compaction folds
# ----------------------------------------------------------------------


def durable_journal(tmp_path, **wal_kwargs):
    wal_kwargs.setdefault("segment_max_records", 8)
    return EventJournal(
        snapshot_every=4,
        wal=WriteAheadLog(str(tmp_path / "wal"), **wal_kwargs),
    )


def restored_engine(tmp_path):
    recovered = EventJournal.recover(
        str(tmp_path / "wal"), snapshot_every=4, reopen=False
    )
    engine = SubscriptionEngine(journal=recovered)
    engine.restore()
    return engine, recovered


class TestRegistrationDurability:
    def test_registrations_survive_wal_recovery(self, tmp_path):
        journal = durable_journal(tmp_path)
        engine = SubscriptionEngine(journal=journal)
        auto_id = engine.subscribe("service.protocol: http", now=1.0)
        engine.subscribe("cert.expiry < 30", sub_id="expiry-watch", now=2.0)
        engine.subscribe("temp-watch-query", sub_id="gone", now=3.0)
        engine.unsubscribe("gone", now=4.0)
        journal.close()

        restored, _ = restored_engine(tmp_path)
        assert len(restored) == 2
        assert restored.subscription(auto_id).plan == compile_query(
            "service.protocol: http"
        )
        assert restored.subscription("expiry-watch") is not None
        assert restored.subscription("gone") is None
        # Auto-id counter resumes past the restored ids: no collisions.
        fresh = restored.subscribe("apache")
        assert fresh != auto_id

    def test_registrations_survive_compaction_fold(self, tmp_path):
        journal = durable_journal(tmp_path)
        engine = SubscriptionEngine(journal=journal)
        engine.subscribe("service.protocol: http", sub_id="keeper", now=1.0)
        engine.subscribe("doomed-query", sub_id="doomed", now=2.0)
        # Pad with host traffic so segments seal and the fold has work.
        from repro.pipeline import EventKind

        t = 3.0
        for round_ in range(20):
            for host in ("host-a", "host-b"):
                t += 1.0
                journal.append(host, t, EventKind.SERVICE_REFRESHED, {"key": "80/http"})
        engine.unsubscribe("doomed", now=t + 1.0)
        report = SegmentCompactor(
            journal, str(tmp_path / "wal"), min_sealed_segments=2
        ).run_once()
        assert report["folded"]
        journal.close()

        restored, recovered = restored_engine(tmp_path)
        assert len(restored) == 1
        assert restored.subscription("keeper") is not None
        assert restored.subscription("doomed") is None
        # The fold preserved the subscription entity's reconstructed state.
        meta = recovered.reconstruct(subscription_entity_id("keeper"))["meta"]
        assert meta["subscription"]["query"] == "service.protocol: http"

    def test_restored_engine_matches_never_crashed_transitions(self, tmp_path):
        # restore + resync then one more event: exactly the transitions a
        # never-crashed engine produces — no spurious re-entries for
        # already-matching entities, and exits still fire.
        corpus = {
            "host:1": doc(**{"service.protocol": "http"}),
            "host:2": doc(**{"service.protocol": "http"}),
            "host:3": doc(**{"service.protocol": "ssh"}),
        }
        journal = durable_journal(tmp_path)
        live = SubscriptionEngine(journal=journal)
        live.subscribe("service.protocol: http", sub_id="w")
        for entity, document in corpus.items():
            live.on_document(entity, document)
        live.drain_notifications()
        journal.close()

        restored, _ = restored_engine(tmp_path)
        assert restored.resync(corpus.items()) == 2
        assert restored.matching_entities("w") == {"host:1", "host:2"}
        # host:1 flips off, host:3 flips on — and nothing else fires.
        restored.on_document("host:1", doc(**{"service.protocol": "ssh"}))
        restored.on_document("host:2", corpus["host:2"])
        restored.on_document("host:3", doc(**{"service.protocol": "http"}))
        got = [(n["entity_id"], n["transition"]) for n in restored.drain_notifications()]
        assert got == [("host:1", "exited"), ("host:3", "entered")]


# ----------------------------------------------------------------------
# Platform integration
# ----------------------------------------------------------------------


def small_platform(seed=3, **overrides):
    from repro.core import CensysPlatform, PlatformConfig
    from repro.simnet import DAY, WorkloadConfig, build_simnet

    world = build_simnet(
        bits=12,
        workload_config=WorkloadConfig(
            seed=seed, services_target=250, t_start=-8 * DAY, t_end=4 * DAY
        ),
        seed=seed,
    )
    cfg = PlatformConfig(subscriptions=True, **overrides)
    return CensysPlatform(world, cfg, start_time=-4 * DAY)


class TestPlatformIntegration:
    def test_subscriptions_deliver_through_the_platform(self):
        platform = small_platform()
        platform.subscribe("services.protocol: http", sub_id="http-watch")
        platform.run_until(0.0)
        notes = platform.drain_notifications()
        assert notes, "expected standing-query notifications under ingest load"
        assert {n["sub_id"] for n in notes} == {"http-watch"}
        assert {n["transition"] for n in notes} <= {"entered", "exited"}
        # Matched set agrees with an interactive search right now.
        matched = platform.subscriptions.matching_entities("http-watch")
        assert matched == set(platform.search("services.protocol: http"))
        report = platform.traffic_report()["subscriptions"]
        assert report["enabled"] is True
        assert report["notifications_delivered"] == len(notes)

    def test_facade_raises_when_disabled(self):
        from repro.core import CensysPlatform, PlatformConfig
        from repro.simnet import DAY, WorkloadConfig, build_simnet

        world = build_simnet(
            bits=12,
            workload_config=WorkloadConfig(
                seed=3, services_target=250, t_start=-8 * DAY, t_end=4 * DAY
            ),
            seed=3,
        )
        platform = CensysPlatform(world, PlatformConfig(), start_time=-4 * DAY)
        with pytest.raises(RuntimeError):
            platform.subscribe("nginx")
        assert platform.drain_notifications() == []
        assert platform.traffic_report()["subscriptions"] == {"enabled": False}
