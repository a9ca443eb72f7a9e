"""XTRA-SAP — protocol micro-benchmarks (supporting §4.1 / §5's claim
that SAP's crypto adds negligible overhead).

Measures the real (wall-clock) cost of each SAP step against the EPS-AKA
operations it replaces, plus the SAP message sizes.  These are genuine
pytest-benchmark measurements (many rounds), unlike the one-shot
experiment regenerators.  They are wall-clock numbers, so they carry
their environment: the modexp kernel in use is printed first.
"""

import pytest
from conftest import print_header

from repro.core.messages import AuthVec
from repro.core.qos import QosCapabilities
from repro.core.sap import (
    BrokerSap,
    BrokerSubscriber,
    BtelcoSap,
    BtelcoSapConfig,
    UeSap,
    UeSapCredentials,
)
from repro.crypto import CertificateAuthority, modexp
from repro.crypto.keypool import pooled_keypair
from repro.lte.aka import UsimState, generate_auth_vector, usim_authenticate


@pytest.fixture(scope="module", autouse=True)
def environment():
    print_header(f"XTRA-SAP - modexp kernel: {modexp.backend()}")


def _world():
    ca = CertificateAuthority(key=pooled_keypair(900))
    broker_key = pooled_keypair(901)
    telco_key = pooled_keypair(902)
    ue_key = pooled_keypair(903)
    cert = ca.issue("t1", "btelco", telco_key.public_key)
    broker = BrokerSap(id_b="b", key=broker_key,
                       ca_public_key=ca.public_key)
    broker.enroll(BrokerSubscriber(id_u="u", public_key=ue_key.public_key))
    telco = BtelcoSap(BtelcoSapConfig(
        id_t="t1", key=telco_key, certificate=cert,
        qos_capabilities=QosCapabilities(),
        ca_public_key=ca.public_key))
    creds = UeSapCredentials(id_u="u", id_b="b", ue_key=ue_key,
                             broker_public_key=broker_key.public_key)
    return broker, telco, creds, broker_key


def test_sap_ue_craft_request(benchmark):
    _, _, creds, _ = _world()
    ue = UeSap(creds)
    benchmark(ue.craft_request, "t1")


def test_sap_btelco_augment(benchmark):
    _, telco, creds, _ = _world()
    req_u = UeSap(creds).craft_request("t1")
    benchmark(telco.augment_request, req_u)


def test_sap_broker_process(benchmark):
    broker, telco, creds, _ = _world()
    ue = UeSap(creds)

    def run():
        req_u = ue.craft_request("t1")  # fresh nonce each round
        req_t = telco.augment_request(req_u)
        return broker.process_request(req_t, now=1.0)

    benchmark(run)


def test_sap_ue_process_response(benchmark):
    broker, telco, creds, _ = _world()

    def setup():
        ue = UeSap(creds)
        req_t = telco.augment_request(ue.craft_request("t1"))
        _, sealed_u, _ = broker.process_request(req_t, now=1.0)
        return (ue, sealed_u), {}

    benchmark.pedantic(lambda ue, sealed: ue.process_response(sealed),
                       setup=setup, rounds=20)


def test_aka_vector_generation_baseline(benchmark):
    """The HSS-side operation SAP's broker processing replaces."""
    k = bytes(16)
    counter = iter(range(1, 10**9))
    benchmark(lambda: generate_auth_vector(k, next(counter), "00101"))


def test_aka_usim_authenticate_baseline(benchmark):
    k = bytes(16)
    vector = generate_auth_vector(k, 5, "00101")

    def run():
        usim = UsimState(k=k, highest_sqn=4)
        return usim_authenticate(usim, vector.rand, vector.autn, "00101")

    benchmark(run)


def test_sap_message_sizes(benchmark):
    broker, telco, creds, _ = _world()
    ue = UeSap(creds)
    req_u = ue.craft_request("t1")
    req_t = telco.augment_request(req_u)
    sealed_t, sealed_u, _ = benchmark.pedantic(
        broker.process_request, args=(req_t, 1.0), rounds=1, iterations=1)

    print_header("XTRA-SAP - message sizes (bytes)")
    print(f"authReqU  (UE -> bTelco)  : {req_u.wire_size}")
    print(f"authReqT  (bTelco -> B)   : {req_t.wire_size}")
    print(f"authRespT (B -> bTelco)   : {sealed_t.wire_size}")
    print(f"authRespU (B -> UE)       : {sealed_u.wire_size}")
    assert req_u.wire_size < 2000
    assert sealed_u.wire_size < 2000
