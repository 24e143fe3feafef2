"""Vectorized hot-path kernels vs. their retained scalar references.

The batched engine (mixvec, ``reachable_many``, columnar segment queries,
the interval liveness index, accelerated search) must be *bit-identical*
to the per-element reference implementations — same seeds, same tables.
These tests pin the equivalences at unit scale; the heavier seeded-grid
gates live in ``benchmarks/test_perf_regression.py``.
"""

import math
import random

import numpy as np
import pytest

from repro.net import AffinePermutation, ProbeSpace, mix64_array, to_uint64
from repro.net.cyclic import _mix64
from repro.search import SearchIndex
from repro.simnet import DAY, Vantage, WorkloadConfig, build_simnet
from repro.simnet.topology import TopologyConfig
from repro.simnet.instances import ServiceInstance
from repro.simnet.internet import _mod_ranges


@pytest.fixture(scope="module")
def net():
    return build_simnet(
        bits=12,
        workload_config=WorkloadConfig(
            seed=13, services_target=400, t_start=-15 * DAY, t_end=10 * DAY
        ),
        seed=13,
    )


VANTAGES = [
    Vantage("us-pop", "us", loss_rate=0.03, vantage_id=1),
    Vantage("eu-pop", "eu", loss_rate=0.25, vantage_id=2),
    Vantage("asia-pop", "asia", loss_rate=0.0, vantage_id=3),
]


class TestMixVec:
    def test_matches_scalar_mixer(self):
        rng = random.Random(5)
        values = [rng.randint(-(2**70), 2**70) for _ in range(2000)]
        values += [0, 1, -1, 2**63, 2**64 - 1, -(2**63), 2**64, -(2**64) - 7]
        mixed = mix64_array(to_uint64(values))
        for value, got in zip(values, mixed.tolist()):
            assert got == _mix64(value)

    def test_to_uint64_masks_like_scalar_path(self):
        assert to_uint64([-1])[0] == 2**64 - 1
        assert to_uint64([2**64 + 5])[0] == 5
        arr = np.asarray([-2, 3], dtype=np.int64)
        assert to_uint64(arr).tolist() == [2**64 - 2, 3]


class TestModRanges:
    def test_plain_segment(self):
        assert _mod_ranges(10, 5, 100) == [(10, 15)]

    def test_wraps_past_modulus(self):
        assert _mod_ranges(95, 10, 100) == [(95, 100), (0, 5)]

    def test_start_normalized_mod_m(self):
        assert _mod_ranges(205, 10, 100) == [(5, 15)]

    def test_count_at_least_m_covers_everything(self):
        assert _mod_ranges(42, 100, 100) == [(0, 100)]
        assert _mod_ranges(42, 250, 100) == [(0, 100)]

    def test_segment_ending_exactly_at_m(self):
        assert _mod_ranges(90, 10, 100) == [(90, 100)]


class TestReachableMany:
    def test_matches_scalar_over_seeded_grid(self, net):
        """Vectorized reachability == scalar reference on a (vantage, time,
        salt) grid, including negative pseudo-host salts."""
        rng = np.random.default_rng(99)
        n = 400
        ips = rng.integers(0, net.space.size, n)
        times = rng.uniform(-30 * DAY, 30 * DAY, n)
        salts = rng.integers(-(2**40), 2**40, n)
        for vantage in VANTAGES:
            batched = net.reachable_many(ips, vantage, times, salts)
            for i in range(n):
                scalar = net.reachable(
                    int(ips[i]), vantage, float(times[i]), int(salts[i])
                )
                assert bool(batched[i]) == scalar

    def test_week_boundary_crossing_uses_vector_path(self, net):
        """Times straddling a routing week must agree with the scalar path
        (the cached per-week mask only serves uniform-week batches)."""
        week_edge = 7 * 24.0
        times = [week_edge - 1.0, week_edge - 1e-9, week_edge, week_edge + 1.0]
        ips = [5, 6, 7, 8]
        vantage = VANTAGES[0]
        batched = net.reachable_many(ips, vantage, times, [1, 2, 3, 4])
        for ip, t, salt, got in zip(ips, times, [1, 2, 3, 4], batched):
            assert bool(got) == net.reachable(ip, vantage, t, salt)

    def test_scalar_inputs_broadcast(self, net):
        assert bool(net.reachable_many(3, VANTAGES[0], 12.0, 7).reshape(()).item()) == (
            net.reachable(3, VANTAGES[0], 12.0, 7)
        )


class TestReachableIsTheScalarPhysics:
    """``reachable`` is the scalar body (one address, two draws), no longer
    a 1-element trip through ``reachable_many``; the array kernel is its
    oracle, element-wise, at every edge the two could disagree on."""

    def _assert_elementwise(self, net, vantage, ips, times, salts):
        batched = net.reachable_many(ips, vantage, times, salts)
        for ip, t, salt, want in zip(ips, times, salts, batched.tolist()):
            assert net.reachable(int(ip), vantage, float(t), int(salt)) is want, (
                vantage.name, ip, t, salt,
            )
        return batched

    def test_negative_pseudo_host_salts(self, net):
        pseudo_salts = [-p.pseudo_id - 1 for p in net.workload.pseudo_hosts][:50]
        salts = pseudo_salts + [-1, -2, -(2**40), -(2**63), 0, 2**40]
        rng = np.random.default_rng(3)
        ips = rng.integers(0, net.space.size, len(salts)).tolist()
        # One time per call: each draw is made alone, as connect() makes it.
        for vantage in VANTAGES:
            outcomes = set()
            for t in (-3.5 * DAY, 0.0, 11.25, 6 * DAY):
                got = self._assert_elementwise(net, vantage, ips, [t] * len(salts), salts)
                outcomes.update(got.tolist())
            if vantage.loss_rate >= 0.25:
                assert outcomes == {True, False}  # the loss draw is live

    def test_week_and_six_hour_window_boundaries(self, net):
        eps = 1e-9
        edges = [0.0, 6.0, 12.0, 7 * 24.0, -6.0, -7 * 24.0, 14 * 24.0, -21 * 24.0]
        times = [edge + d for edge in edges for d in (-1.0, -eps, 0.0, eps, 1.0)]
        rng = np.random.default_rng(4)
        ips = rng.integers(0, net.space.size, len(times)).tolist()
        salts = rng.integers(-(2**40), 2**40, len(times)).tolist()
        for vantage in VANTAGES:
            # Mixed weeks take the kernel's re-mixing path, a uniform week
            # its cached per-week mask: check both.
            self._assert_elementwise(net, vantage, ips, times, salts)
            for ip, t, salt in zip(ips, times, salts):
                self._assert_elementwise(net, vantage, [ip], [t], [salt])

    def test_zero_loss_rate_never_draws_a_loss(self, net):
        lossless = Vantage("lossless", "asia", loss_rate=0.0, vantage_id=3)
        rng = np.random.default_rng(5)
        ips = rng.integers(0, net.space.size, 300).tolist()
        times = rng.uniform(-20 * DAY, 20 * DAY, 300).tolist()
        salts = rng.integers(-(2**40), 2**40, 300).tolist()
        got = self._assert_elementwise(net, lossless, ips, times, salts)
        # With no loss, reachability is a property of (network, week) alone.
        for ip, t, want in zip(ips, times, got.tolist()):
            assert net.reachable(ip, lossless, t, salt=12345) is want

    def test_geoblocked_networks(self):
        net = build_simnet(
            bits=13,
            workload_config=WorkloadConfig(seed=13, services_target=50, t_end=2 * DAY),
            topology_config=TopologyConfig(seed=13, max_block_bits=9, geoblock_rate=0.5),
            seed=13,
        )
        blocked = [n for n in net.topology.networks if n.blocked_regions]
        assert len(blocked) >= 4
        for network in blocked[:20]:
            ips = [network.start, network.start + (network.size - 1)]
            for region in ("us", "eu", "asia"):
                vantage = Vantage(f"{region}-v", region, loss_rate=0.0, vantage_id=7)
                got = self._assert_elementwise(net, vantage, ips, [0.0, 50.0], [1, -1])
                if region in network.blocked_regions:
                    assert got.tolist() == [False, False]

    def test_one_scalar_body_and_no_array_detour_on_connect(self, net, monkeypatch):
        def no_kernel(*args, **kwargs):
            raise AssertionError("connect() went through the array kernel")

        monkeypatch.setattr(net, "reachable_many", no_kernel)
        monkeypatch.setattr(net, "_reachable_kernel", no_kernel)
        vantage = VANTAGES[0]
        opened = 0
        for inst in net.services_alive_at(0.0)[:200]:
            conn = net.connect(inst.ip_index, inst.port, 0.0, vantage, transport=inst.transport)
            opened += conn is not None
        for pseudo in net.workload.pseudo_hosts[:20]:
            if pseudo.alive_at(0.0):
                opened += net.connect(pseudo.ip_index, 81, 0.0, vantage) is not None
        assert opened > 100


class TestPreparedScanIndex:
    def _index(self, net, seed=21):
        space = ProbeSpace.single_range(0, net.space.size, [22, 80, 443, 8080])
        perm = AffinePermutation(space.size, seed=seed)
        return net.prepare_scan(space, perm), space, perm

    def test_query_matches_reference_including_wrap(self, net):
        index, space, perm = self._index(net)
        m = perm.n
        cases = [
            (0, m // 3, 0.0, 50_000.0),
            (m - 100, 300, 4.0, 1_000.0),   # wraps past m
            (17, m, -50.0, 200_000.0),      # full space
        ]
        for vantage in VANTAGES:
            for start, count, t0, rate in cases:
                fast = index.query(start, count, t0, rate, vantage)
                slow = index.query_reference(start, count, t0, rate, vantage)
                assert [(h.target, h.probe_time, h.instance, h.pseudo) for h in fast] == [
                    (h.target, h.probe_time, h.instance, h.pseudo) for h in slow
                ]

    def test_add_instance_rejects_out_of_space(self, net):
        index, space, _ = self._index(net)
        covered = net.workload.instances[0]
        bad_port = ServiceInstance(
            instance_id=10_000_001,
            ip_index=0,
            port=2323,  # not in the space's port list
            transport="tcp",
            protocol="TELNET",
            profile=covered.profile,
            birth=0.0,
            is_honeypot=True,
        )
        assert not index.add_instance(bad_port)
        bad_transport = ServiceInstance(
            instance_id=10_000_002,
            ip_index=0,
            port=80,
            transport="udp",
            protocol="DNS",
            profile=covered.profile,
            birth=0.0,
        )
        assert not index.add_instance(bad_transport)

    def test_added_honeypot_is_found_and_logged(self, net):
        index, space, perm = self._index(net, seed=33)
        profile = net.workload.instances[0].profile
        honeypot = ServiceInstance(
            instance_id=net.allocate_instance_id(),
            ip_index=123,
            port=2323,
            transport="tcp",
            protocol="TELNET",
            profile=profile,
            birth=-1.0,
            is_honeypot=True,
        )
        space2 = ProbeSpace.single_range(0, net.space.size, [2323])
        perm2 = AffinePermutation(space2.size, seed=5)
        index2 = net.prepare_scan(space2, perm2)
        assert index2.add_instance(honeypot)
        net.add_instance(honeypot)
        vantage = VANTAGES[2]  # lossless, asia
        before = len(net.honeypot_contacts)
        hits = index2.query(0, perm2.n, 0.0, 1_000_000.0, vantage, scanner="probe-x")
        found = [h for h in hits if h.instance is honeypot]
        if net.reachable(123, vantage, found[0].probe_time if found else 0.0, salt=honeypot.instance_id):
            assert found
            assert len(net.honeypot_contacts) > before
            assert net.honeypot_contacts[-1].scanner == "probe-x"
        ref = index2.query_reference(0, perm2.n, 0.0, 1_000_000.0, vantage, scanner="probe-x")
        assert [(h.target, h.probe_time) for h in hits] == [(h.target, h.probe_time) for h in ref]


class TestAliveIndex:
    def test_matches_linear_scan_and_invalidates_on_add(self, net):
        for t in (-10 * DAY, 0.0, 3 * DAY, 100 * DAY):
            fast = net.services_alive_at(t)
            slow = [i for i in net.workload.instances if i.alive_at(t) and i.protocol != "NONE"]
            assert fast == slow
        extra = ServiceInstance(
            instance_id=net.allocate_instance_id(),
            ip_index=77,
            port=8443,
            transport="tcp",
            protocol="HTTP",
            profile=net.workload.instances[0].profile,
            birth=1.5,
        )
        net.add_instance(extra)
        assert extra in net.services_alive_at(2.0)
        assert extra not in net.services_alive_at(1.0)
        assert extra in net.instances_alive_at(2.0)


class TestSearchAcceleration:
    def _populate(self, index, rng):
        protocols = ["HTTP", "SSH", "MODBUS", "RDP", "FTP", "HTTPS"]
        countries = ["US", "DE", "CN", "FR"]
        for i in range(400):
            index.put(
                f"host:{i}",
                {
                    "services.service_name": [rng.choice(protocols)],
                    "location.country": [rng.choice(countries)],
                    "services.port": [rng.choice([22, 80, 443, 502, 3389, 8080])],
                },
            )

    def test_accelerated_equals_reference(self):
        rng = random.Random(17)
        fast = SearchIndex()
        slow = SearchIndex(accelerated=False)
        self._populate(fast, random.Random(17))
        self._populate(slow, random.Random(17))
        queries = [
            "services.service_name: MODBUS",
            "services.port: [80 to 502]",
            "services.port >= 443",
            "services.port < 443",
            "not services.service_name: HTTP",
            "services.service_name: HTTP and location.country: US",
            "services.service_name: MOD* or services.port: 22",
            "not (services.port: [1 to 100])",
            "location.country: DE and not services.port >= 1000",
        ]
        for query in queries:
            assert fast.search(query) == slow.search(query), query
        # Replacement and deletion keep postings and columns symmetric.
        for index in (fast, slow):
            index.put("host:3", {"services.service_name": ["SSH"], "services.port": [2222]})
            index.delete("host:5")
        for query in queries:
            assert fast.search(query) == slow.search(query), query

    def test_nan_comparison_matches_reference(self):
        fast = SearchIndex()
        slow = SearchIndex(accelerated=False)
        for index in (fast, slow):
            index.put("a", {"f": [1.0]})
            index.put("b", {"f": [float("nan")]})
        assert fast.search("f < 2") == slow.search("f < 2") == ["a"]
        assert fast.search("f >= 0") == slow.search("f >= 0") == ["a"]
