"""Host-prefix allocation for testbed fleets.

Several harnesses give every simulated UE its own host with a unique
/24 prefix (routing in :mod:`repro.net` is an exact string match on the
first three octets).  Historical schemes concatenated the slot into a
single octet position (``f"10.22{slot}.0.2"``), which silently caps a
fleet at 10 slots and produces pseudo-octets like ``10.2210.0.2`` past
it.  :class:`HostPrefixAllocator` spreads slots across a /16-style
block instead: slot ``s`` maps to ``10.<base+s//256>.<s%256>``, giving
``SPAN * 256`` distinct /24 prefixes per allocator.

Allocator blocks in use (keep new ones disjoint):

======================  ==========  ==============================
harness                 base_octet  second-octet range
======================  ==========  ==============================
fleet_drive UEs/probes  64          10.64 – 10.71 (span 8)
megaload real cohort    96          10.96 – 10.103 (span 8)
======================  ==========  ==============================
"""

from __future__ import annotations


class HostPrefixAllocator:
    """Maps integer slots to unique ``10.x.y`` /24 prefixes.

    ``base_octet`` picks the block (second octet of the first /24);
    ``SPAN`` is how many second-octet values a block consumes, so
    capacity is ``SPAN * 256`` slots.  ``address(slot)`` appends the
    fixed ``HOST_OCTET`` to the slot's prefix.
    """

    SPAN = 8
    HOST_OCTET = 2
    #: distinct /24 prefixes an allocator hands out.
    capacity = SPAN * 256

    def __init__(self, base_octet: int):
        if not 1 <= base_octet <= 256 - self.SPAN:
            raise ValueError(
                f"base_octet {base_octet} out of range: the block of "
                f"{self.SPAN} overflows the second octet")
        self.base_octet = base_octet

    def prefix(self, slot: int) -> str:
        """The /24 prefix for ``slot`` (three octets, no trailing dot)."""
        if not 0 <= slot < self.capacity:
            raise ValueError(
                f"slot {slot} out of range (capacity {self.capacity})")
        return f"10.{self.base_octet + slot // 256}.{slot % 256}"

    def address(self, slot: int) -> str:
        """The host address for ``slot``: ``<prefix>.<HOST_OCTET>``."""
        return f"{self.prefix(slot)}.{self.HOST_OCTET}"
