"""Host-prefix allocation for testbed fleets.

The historical scheme concatenated the slot into one octet position
(``10.22{slot}``), silently capping fleets at 10 hosts; the allocator
spreads slots across a /16-style block.  Covers the allocator itself
and the fleet-drive capacity it unlocks (>8 UEs, >5 sites).
"""

import pytest

from repro.testbed.netaddr import HostPrefixAllocator


class TestHostPrefixAllocator:
    def test_slot_zero_starts_the_block(self):
        alloc = HostPrefixAllocator(base_octet=64)
        assert alloc.prefix(0) == "10.64.0"
        assert alloc.address(0) == "10.64.0.2"

    def test_slots_roll_into_the_next_second_octet(self):
        alloc = HostPrefixAllocator(base_octet=64)
        assert alloc.prefix(255) == "10.64.255"
        assert alloc.prefix(256) == "10.65.0"
        assert alloc.prefix(257) == "10.65.1"

    def test_all_prefixes_are_distinct_real_octets(self):
        alloc = HostPrefixAllocator(base_octet=96, span=2)
        prefixes = [alloc.prefix(s) for s in range(alloc.capacity)]
        assert len(set(prefixes)) == alloc.capacity == 512
        for prefix in prefixes:
            octets = prefix.split(".")
            assert len(octets) == 3
            assert all(0 <= int(o) <= 255 for o in octets)

    def test_capacity_bounds_are_enforced(self):
        alloc = HostPrefixAllocator(base_octet=64, span=1)
        alloc.prefix(255)
        with pytest.raises(ValueError):
            alloc.prefix(256)
        with pytest.raises(ValueError):
            alloc.prefix(-1)

    def test_custom_host_octet(self):
        alloc = HostPrefixAllocator(base_octet=64, host_octet=7)
        assert alloc.address(3) == "10.64.3.7"

    def test_rejects_blocks_that_overflow_the_octet(self):
        with pytest.raises(ValueError):
            HostPrefixAllocator(base_octet=250, span=8)
        with pytest.raises(ValueError):
            HostPrefixAllocator(base_octet=0)
        with pytest.raises(ValueError):
            HostPrefixAllocator(base_octet=64, host_octet=255)


class TestFleetCapacity:
    """The drive harness must accept fleets past the old 8-UE / 5-site
    caps now that host prefixes come from the allocator."""

    def test_ten_ues_six_sites_all_attach(self):
        from repro.testbed.fleet_drive import run_fleet_drive

        report = run_fleet_drive(rat="lte", ues=10, sites=6,
                                 duration=10.0, seed=11, probes=False)
        assert report["ues"] == 10
        assert report["sites"] == 6
        assert report["attach_failures"] == 0
        assert report["unauthorized_session_s"] == 0.0

    def test_old_caps_now_rejected_only_past_the_new_bounds(self):
        from repro.testbed.fleet_drive import run_fleet_drive

        with pytest.raises(ValueError):
            run_fleet_drive(ues=65)
        with pytest.raises(ValueError):
            run_fleet_drive(sites=17)
