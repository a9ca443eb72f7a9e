"""The record a ``--smoke`` gate is reported as.

Every gated bench declares what must hold of its report in one pure
``gates(report)`` function beside the testbed; each fact comes back as
one of these records, which the CLI prints and turns into the exit code
and which ``BENCH_broker_ha.json`` carries verbatim.
"""

from __future__ import annotations


def gate(name: str, value, threshold, passed: bool) -> dict:
    """One checked fact: what was measured, what it was held to, and
    whether it held."""
    return {"gate": name, "value": value, "threshold": threshold,
            "pass": bool(passed)}
