"""XTRA-SCALE — attachment under load (the paper's claim that CellBricks
"scales to a large number of users under different radio conditions").

N CellBricks UEs attach to one bTelco site (through one brokerd) within a
short arrival window; we report the attach-latency distribution vs N and
compare against the same load on the legacy baseline.
"""

from conftest import print_header

from repro.analysis.stats import mean, percentile
from repro.core import Brokerd, CellBricksAgw, CellBricksUe, UeSapCredentials
from repro.core.qos import QosCapabilities
from repro.crypto import CertificateAuthority
from repro.crypto.keypool import pooled_keypair
from repro.lte import (
    Agw,
    ENodeB,
    ImsiGenerator,
    SubscriberDb,
    TEST_PLMN,
    UeNas,
    UsimState,
)
from repro.net import Host, Link, Simulator
from repro.testbed.placement import (
    AGW_ADDRESS,
    CLOUD_DB_ADDRESS,
    ENB_ADDRESS,
    TestbedTopology,
)

UE_COUNTS = (1, 10, 50, 100)
ARRIVAL_WINDOW = 1.0   # all N UEs start attaching within this window

CHURN_ATTACHES = 10_000
CHURN_TTL = 50.0       # broker session lifetime (seconds, sim time)
CHURN_INTERVAL = 1.0   # one attach per sim-second
CHURN_SUBSCRIBERS = 32


def _add_ue_host(sim, topology, index):
    host = Host(sim, f"ue{index}", address=f"10.{2 + index // 200}."
                                           f"{index % 200}.2")
    link = Link(sim, f"radio{index}", host, topology.enb_host,
                bandwidth_bps=1e9, delay_s=0.0001)
    prefix = host.address.rsplit(".", 1)[0]
    topology.enb_host.add_route(prefix, link)
    return host


def _run_cellbricks(n: int) -> list:
    sim = Simulator()
    topology = TestbedTopology.build(sim, "us-west-1")
    ca = CertificateAuthority(key=pooled_keypair(920))
    brokerd = Brokerd(topology.db_host, id_b="b.scale",
                      ca_public_key=ca.public_key, key=pooled_keypair(921))
    telco_key = pooled_keypair(922)
    cert = ca.issue("t.scale", "btelco", telco_key.public_key)
    agw = CellBricksAgw(topology.agw_host, broker_ip=CLOUD_DB_ADDRESS,
                        id_t="t.scale", key=telco_key, certificate=cert,
                        ca_public_key=ca.public_key,
                        qos_capabilities=QosCapabilities())
    agw.trust_broker("b.scale", brokerd.public_key)
    ENodeB(topology.enb_host, agw_ip=AGW_ADDRESS)

    latencies = []
    ue_key = pooled_keypair(923)  # subscribers share a pool key (sim-only)
    for index in range(n):
        subscriber = f"sub-{index}"
        brokerd.enroll_subscriber(subscriber, ue_key.public_key)
        host = _add_ue_host(sim, topology, index)
        creds = UeSapCredentials(id_u=subscriber, id_b="b.scale",
                                 ue_key=ue_key,
                                 broker_public_key=brokerd.public_key)
        ue = CellBricksUe(host, ENB_ADDRESS, creds, target_id_t="t.scale")
        ue.on_attach_done = lambda r: latencies.append(r.latency * 1000)
        sim.schedule(ARRIVAL_WINDOW * index / max(n, 1), ue.attach)
    sim.run(until=60.0)
    assert len(latencies) == n, f"only {len(latencies)}/{n} attached"
    return latencies


def _run_baseline(n: int) -> list:
    sim = Simulator()
    topology = TestbedTopology.build(sim, "us-west-1")
    db = SubscriberDb(topology.db_host)
    agw = Agw(topology.agw_host, subscriber_db_ip=CLOUD_DB_ADDRESS)
    ENodeB(topology.enb_host, agw_ip=AGW_ADDRESS)
    generator = ImsiGenerator()
    latencies = []
    for index in range(n):
        imsi = generator.next()
        record = db.provision(imsi)
        host = _add_ue_host(sim, topology, index)
        ue = UeNas(host, ENB_ADDRESS, imsi, UsimState(k=record.k),
                   str(TEST_PLMN))
        ue.on_attach_done = lambda r: latencies.append(r.latency * 1000)
        sim.schedule(ARRIVAL_WINDOW * index / max(n, 1), ue.attach)
    sim.run(until=60.0)
    assert len(latencies) == n
    return latencies


def _sweep():
    rows = []
    for n in UE_COUNTS:
        cb = _run_cellbricks(n)
        bl = _run_baseline(n)
        rows.append((n, mean(bl), percentile(bl, 99),
                     mean(cb), percentile(cb, 99)))
    return rows


def test_scale_concurrent_attaches(benchmark):
    rows = benchmark.pedantic(_sweep, rounds=1, iterations=1)

    print_header("XTRA-SCALE - concurrent attaches (us-west-1 broker/DB)")
    print(f"{'UEs':>5s} {'BL mean':>9s} {'BL p99':>9s} "
          f"{'CB mean':>9s} {'CB p99':>9s}  (ms)")
    for n, bl_mean, bl_p99, cb_mean, cb_p99 in rows:
        print(f"{n:5d} {bl_mean:9.2f} {bl_p99:9.2f} "
              f"{cb_mean:9.2f} {cb_p99:9.2f}")

    # Shape: every UE attaches; CB stays cheaper than BL at every load
    # (one cloud RTT vs two, and less AGW work to queue behind); latency
    # grows with load but degrades gracefully, not cliff-like.
    for n, bl_mean, bl_p99, cb_mean, cb_p99 in rows:
        assert cb_mean < bl_mean
    single = rows[0]
    heaviest = rows[-1]
    assert heaviest[3] > single[3]        # contention is visible...
    assert heaviest[4] < 3000.0           # ...but 100 UEs still land <3 s


def _run_churn(attaches: int):
    """Long-haul attach churn against one BrokerSap (no network sim):
    rotate subscribers, revoke one mid-run, track peak lifecycle state."""
    from repro.core.sap import (
        BrokerSap,
        BrokerSubscriber,
        BtelcoSap,
        BtelcoSapConfig,
        SapError,
        UeSap,
        UeSapCredentials,
    )

    ca = CertificateAuthority(key=pooled_keypair(920))
    broker_key = pooled_keypair(921)
    telco_key = pooled_keypair(922)
    ue_key = pooled_keypair(923)
    cert = ca.issue("t.churn", "btelco", telco_key.public_key)
    broker = BrokerSap(id_b="b.churn", key=broker_key,
                       ca_public_key=ca.public_key, session_ttl=CHURN_TTL)
    telco = BtelcoSap(BtelcoSapConfig(
        id_t="t.churn", key=telco_key, certificate=cert,
        qos_capabilities=QosCapabilities(), ca_public_key=ca.public_key))
    ues = []
    for index in range(CHURN_SUBSCRIBERS):
        id_u = f"sub-{index}"
        broker.enroll(BrokerSubscriber(id_u=id_u,
                                       public_key=ue_key.public_key))
        ues.append(UeSap(UeSapCredentials(
            id_u=id_u, id_b="b.churn", ue_key=ue_key,
            broker_public_key=broker_key.public_key)))

    revoke_at = attaches // 2
    peak_nonces = peak_grants = 0
    revoked_grants = denied_after_revoke = 0
    for attach in range(attaches):
        now = attach * CHURN_INTERVAL
        index = attach % CHURN_SUBSCRIBERS
        req_t = telco.augment_request(ues[index].craft_request("t.churn"))
        try:
            broker.process_request(req_t, now=now)
        except SapError:
            denied_after_revoke += 1
        if attach == revoke_at:
            # Revoke the subscriber that just attached: its live grants
            # must vanish now, not at natural expiry.
            revoked_grants = len(broker.revoke(f"sub-{index}"))
        peak_nonces = max(peak_nonces,
                          broker.stats()["replay_cache_size"])
        peak_grants = max(peak_grants, broker.grants_active)
    return dict(stats=broker.stats(), peak_nonces=peak_nonces,
                peak_grants=peak_grants, revoked_grants=revoked_grants,
                denied_after_revoke=denied_after_revoke,
                attaches=attaches)


def test_attach_churn_bounded_state(benchmark, scale):
    attaches = max(200, int(CHURN_ATTACHES * scale))
    result = benchmark.pedantic(_run_churn, args=(attaches,),
                                rounds=1, iterations=1)

    stats = result["stats"]
    active_bound = int(CHURN_TTL / CHURN_INTERVAL) + 1
    print_header("XTRA-SCALE - attach churn (bounded lifecycle state)")
    print(f"attaches {result['attaches']}, ttl {CHURN_TTL:.0f}s, "
          f"{CHURN_SUBSCRIBERS} subscribers")
    print(f"peak replay cache {result['peak_nonces']:5d}  "
          f"(active-session bound {active_bound})")
    print(f"peak grants       {result['peak_grants']:5d}  "
          f"(active-session bound {active_bound})")
    print(f"grants expired {stats['grants_expired']}, "
          f"revoked {stats['grants_revoked']}, "
          f"final active {stats['grants_active']}")

    # The tentpole claim: broker state tracks *active* sessions, not
    # attach history.  10k attaches, yet both structures stay near the
    # ~51-session live window.
    assert result["peak_nonces"] <= active_bound
    assert result["peak_grants"] <= active_bound
    assert stats["replay_cache_size"] <= active_bound
    # The mid-run revocation cascaded to live grants and the suspended
    # subscriber was denied on every later attempt.
    assert result["revoked_grants"] >= 1
    assert result["denied_after_revoke"] > 0
    assert stats["attach_denied"].get("suspended", 0) \
        == result["denied_after_revoke"]
    assert stats["attach_ok"] + result["denied_after_revoke"] \
        == result["attaches"]
