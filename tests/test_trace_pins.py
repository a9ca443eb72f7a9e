"""Pinned span bytes: a control-plane refactor is correct iff these hold.

Eight seeded runs — the Fig 7 cell, the chaos churn and the traced
mobility drive, each on both RATs — hashed over their full JSONL span
export.  Node names seed the retransmission jitter and appear in spans,
span names are per-RAT table data, and every ``sim.schedule`` / ``send``
/ ``charge`` / jitter draw lands in the trace through a start or end
time, so a substrate change that moves a name or reorders a call moves a
hash.  The values were taken at the commit before the LTE/5G twins were
collapsed and are stable across processes and ``PYTHONHASHSEED``.

Every row runs twice in one process and must hold its pin both times:
what a run reads that is not an argument hangs off its ``Simulator``,
so the second run starts where a fresh process would (QUIC connection
ids land in the 5G drive's span data: a per-process counter would move
its second hash).

Two more rows hash what the ledger's ``broker_failover`` workload hashes
— the broker-ha cell report at the ledger's size and seed, per RAT — so
a shard-host change that moves a byte fails here without a ledger run
(values from the commit before the shard hosts' op streams were merged).
"""

import hashlib
import json

import pytest

from repro.obs import Obs, spans_to_jsonl
from repro.testbed import broker_ha, run_traced_attach, run_traced_drive

from .test_obs_determinism import _chaos_trace


def sha256(jsonl: str) -> str:
    return hashlib.sha256(jsonl.encode()).hexdigest()


@pytest.mark.parametrize("rat, arch, pinned", [
    ("lte", "BL",
     "fd4790de0af8d90155baac29cb5fbf4aeb8ec998ab7039064a9b88dc9e28d3fa"),
    ("lte", "CB",
     "b7b683eb7f157cdbd93b2e664ff805af4586bdcd97c994c392f3d1b5240249a5"),
    ("5g", "BL",
     "18a970fdd58f7696d45a566c73d74930bd155eb1387c2047898fd4fb9b32cc1e"),
    ("5g", "CB",
     "574d9c15bdc83ce73d54b590e1d8493cc27b47ede1b274185e4c642626686bc3"),
])
def test_traced_attach_bytes(rat, arch, pinned):
    for _ in range(2):
        _, obs, _ = run_traced_attach(arch, "us-west-1", trials=5, rat=rat)
        assert sha256(spans_to_jsonl(obs.tracer.spans())) == pinned


@pytest.mark.parametrize("rat, pinned", [
    ("lte",
     "cf62a2dad11a995119f6995e1ad5d4352a856503e6798c4472dfcf041cbb2a7d"),
    ("5g",
     "41412a2055ba602d8e6e91443b2e9c756198f86d8725ef63ca67567935c73f45"),
])
def test_chaos_trace_bytes(rat, pinned):
    for _ in range(2):
        _, jsonl = _chaos_trace(seed=7, rat=rat)
        assert sha256(jsonl) == pinned


@pytest.mark.parametrize("rat, pinned", [
    ("lte",
     "30674fa98e77557c51d568a81b9e0cd9f9a7a1302c7fa0168d62475ba3375568"),
    ("5g",
     "13d096dd1823c9df21be62f79ff35b156abe69d0ad4ab6f73bbf06a77e7b76b3"),
])
def test_traced_drive_bytes(rat, pinned):
    for _ in range(2):
        obs = Obs()
        run_traced_drive(rat, obs=obs)
        assert sha256(spans_to_jsonl(obs.tracer.spans())) == pinned


@pytest.mark.parametrize("rat, pinned", [
    ("lte",
     "200dac2e2333b2ecee956574890693e32c77f7004b4fa5d847db84e07f74857f"),
    ("5g",
     "f54d8986196b2c8f36e96ff4d09ca3b86a5c0a1795951466c7aff2f17fe1dc36"),
])
def test_broker_ha_cell_bytes(rat, pinned):
    for _ in range(2):
        cell = broker_ha.run_cell(rat, attaches=16, seed=11, revoke_every=5,
                                  think_time=0.02)
        assert sha256(json.dumps(cell, sort_keys=True,
                                 separators=(",", ":"))) == pinned
