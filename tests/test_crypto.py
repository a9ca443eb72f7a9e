"""Unit + property tests for the from-scratch crypto substrate."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import (
    Certificate,
    CertificateAuthority,
    CertificateError,
    CryptoError,
    IntegrityError,
    PublicKey,
    ROLE_BROKER,
    ROLE_BTELCO,
    constant_time_equal,
    generate_keypair,
    hkdf,
    hmac_sha256,
    kdf_3gpp,
    open_sealed,
    seal,
    sha256,
    validate_certificate,
)
from repro.crypto.hashes import xor_bytes
from repro.crypto.primes import generate_prime, is_probable_prime


@pytest.fixture(scope="module")
def keypair():
    return generate_keypair(bits=1024, rng=random.Random(0xC0FFEE))


@pytest.fixture(scope="module")
def other_keypair():
    return generate_keypair(bits=1024, rng=random.Random(0xBEEF))


class TestPrimes:
    def test_small_primes_recognized(self):
        for p in (2, 3, 5, 7, 97, 251):
            assert is_probable_prime(p)

    def test_small_composites_rejected(self):
        for n in (0, 1, 4, 9, 91, 221, 561):  # 561 is a Carmichael number
            assert not is_probable_prime(n)

    def test_generated_prime_has_exact_bit_length(self):
        rng = random.Random(7)
        p = generate_prime(256, rng)
        assert p.bit_length() == 256
        assert is_probable_prime(p)

    def test_too_small_request_rejected(self):
        with pytest.raises(ValueError):
            generate_prime(4, random.Random(0))


class TestSignatures:
    def test_sign_verify_roundtrip(self, keypair):
        sig = keypair.sign(b"attach-request")
        assert keypair.public_key.verify(b"attach-request", sig)

    def test_verify_rejects_tampered_message(self, keypair):
        sig = keypair.sign(b"attach-request")
        assert not keypair.public_key.verify(b"attach-request!", sig)

    def test_verify_rejects_tampered_signature(self, keypair):
        sig = bytearray(keypair.sign(b"m"))
        sig[5] ^= 0xFF
        assert not keypair.public_key.verify(b"m", bytes(sig))

    def test_verify_rejects_wrong_key(self, keypair, other_keypair):
        sig = keypair.sign(b"m")
        assert not other_keypair.public_key.verify(b"m", sig)

    def test_verify_rejects_wrong_length(self, keypair):
        assert not keypair.public_key.verify(b"m", b"short")

    def test_signatures_are_randomized_but_both_valid(self, keypair):
        sig1 = keypair.sign(b"m")
        sig2 = keypair.sign(b"m")
        assert sig1 != sig2  # PSS salt
        assert keypair.public_key.verify(b"m", sig1)
        assert keypair.public_key.verify(b"m", sig2)

    def test_empty_message(self, keypair):
        sig = keypair.sign(b"")
        assert keypair.public_key.verify(b"", sig)


class TestHybridEncryption:
    def test_roundtrip(self, keypair):
        ct = keypair.public_key.encrypt(b"secret payload")
        assert keypair.decrypt(ct) == b"secret payload"

    def test_long_plaintext(self, keypair):
        plaintext = bytes(range(256)) * 40
        ct = keypair.public_key.encrypt(plaintext)
        assert keypair.decrypt(ct) == plaintext

    def test_associated_data_binds(self, keypair):
        ct = keypair.public_key.encrypt(b"m", b"context-a")
        with pytest.raises(CryptoError):
            keypair.decrypt(ct, b"context-b")

    def test_wrong_key_fails(self, keypair, other_keypair):
        ct = keypair.public_key.encrypt(b"m")
        with pytest.raises(CryptoError):
            other_keypair.decrypt(ct)

    def test_tampered_ciphertext_fails(self, keypair):
        ct = bytearray(keypair.public_key.encrypt(b"m"))
        ct[-1] ^= 0x01
        with pytest.raises(CryptoError):
            keypair.decrypt(bytes(ct))

    def test_out_of_range_wrapped_key_rejected(self, keypair):
        """RFC 8017 5.1.2: ``c + n`` is not a second ciphertext for the
        plaintext of ``c``, though CRT would reduce it to the same."""
        pub = keypair.public_key
        k = pub.byte_size
        for _ in range(10_000):
            ciphertext = pub.encrypt(b"payload")
            shifted = int.from_bytes(ciphertext[:k], "big") + pub.n
            if shifted.bit_length() <= 8 * k:
                break
        forged = shifted.to_bytes(k, "big") + ciphertext[k:]
        assert keypair.decrypt(ciphertext) == b"payload"
        with pytest.raises(CryptoError):
            keypair.decrypt(forged)

    def test_truncated_ciphertext_fails(self, keypair):
        with pytest.raises(CryptoError):
            keypair.decrypt(b"\x00" * 10)

    def test_ciphertexts_are_randomized(self, keypair):
        assert keypair.public_key.encrypt(b"m") != keypair.public_key.encrypt(b"m")


class TestPublicKeySerialization:
    def test_roundtrip(self, keypair):
        raw = keypair.public_key.to_bytes()
        restored = PublicKey.from_bytes(raw)
        assert restored == keypair.public_key

    def test_fingerprint_is_stable(self, keypair):
        assert keypair.public_key.fingerprint() == keypair.public_key.fingerprint()

    def test_fingerprint_distinguishes_keys(self, keypair, other_keypair):
        assert keypair.public_key.fingerprint() != other_keypair.public_key.fingerprint()


class TestSymmetricCipher:
    def test_roundtrip(self):
        key = sha256(b"k")
        assert open_sealed(key, seal(key, b"hello")) == b"hello"

    def test_wrong_key_rejected(self):
        sealed = seal(sha256(b"k1"), b"hello")
        with pytest.raises(IntegrityError):
            open_sealed(sha256(b"k2"), sealed)

    def test_tamper_rejected(self):
        key = sha256(b"k")
        sealed = bytearray(seal(key, b"hello"))
        sealed[20] ^= 0x80
        with pytest.raises(IntegrityError):
            open_sealed(key, bytes(sealed))

    def test_associated_data_mismatch_rejected(self):
        key = sha256(b"k")
        sealed = seal(key, b"hello", b"report-v1")
        with pytest.raises(IntegrityError):
            open_sealed(key, sealed, b"report-v2")

    def test_short_message_rejected(self):
        with pytest.raises(IntegrityError):
            open_sealed(sha256(b"k"), b"tiny")

    def test_empty_plaintext(self):
        key = sha256(b"k")
        assert open_sealed(key, seal(key, b"")) == b""

    @given(st.binary(max_size=2048))
    @settings(max_examples=25, deadline=None)
    def test_roundtrip_property(self, plaintext):
        key = sha256(b"prop")
        assert open_sealed(key, seal(key, plaintext)) == plaintext


class TestKdf:
    def test_hkdf_length(self):
        assert len(hkdf(b"ikm", length=64)) == 64

    def test_hkdf_info_separates(self):
        assert hkdf(b"ikm", info=b"a") != hkdf(b"ikm", info=b"b")

    def test_hkdf_deterministic(self):
        assert hkdf(b"ikm", salt=b"s", info=b"i") == hkdf(b"ikm", salt=b"s", info=b"i")

    def test_hkdf_rfc5869_case_1(self):
        # RFC 5869 A.1 test vector.
        ikm = bytes.fromhex("0b" * 22)
        salt = bytes.fromhex("000102030405060708090a0b0c")
        info = bytes.fromhex("f0f1f2f3f4f5f6f7f8f9")
        okm = hkdf(ikm, salt=salt, info=info, length=42)
        assert okm.hex() == ("3cb25f25faacd57a90434f64d0362f2a"
                             "2d2d0a90cf1a5a4c5db02d56ecc4c5bf"
                             "34007208d5b887185865")

    def test_hkdf_invalid_length(self):
        with pytest.raises(ValueError):
            hkdf(b"ikm", length=0)

    def test_kdf_3gpp_fc_range(self):
        with pytest.raises(ValueError):
            kdf_3gpp(b"key", 300)

    def test_kdf_3gpp_parameters_separate(self):
        k = sha256(b"kasme")
        assert kdf_3gpp(k, 0x15, b"a") != kdf_3gpp(k, 0x15, b"b")
        assert kdf_3gpp(k, 0x15, b"a") != kdf_3gpp(k, 0x16, b"a")

    def test_hmac_sha256_known_answer(self):
        # RFC 4231 test case 2.
        out = hmac_sha256(b"Jefe", b"what do ya want for nothing?")
        assert out.hex() == ("5bdcc146bf60754e6a042426089575c7"
                             "5a003f089d2739839dec58b964ec3843")

    def test_constant_time_equal(self):
        assert constant_time_equal(b"abc", b"abc")
        assert not constant_time_equal(b"abc", b"abd")

    @given(st.binary(max_size=300), st.randoms(use_true_random=False))
    @settings(max_examples=50, deadline=None)
    def test_xor_bytes_matches_per_byte_reference(self, a, rng):
        b = bytes(rng.getrandbits(8) for _ in a)
        assert xor_bytes(a, b) == bytes(x ^ y for x, y in zip(a, b))

    def test_xor_bytes_keeps_leading_zero_bytes(self):
        assert xor_bytes(b"\x00\x00\x01", b"\x00\x00\x01") == b"\x00" * 3
        assert xor_bytes(b"", b"") == b""

    def test_xor_bytes_rejects_unequal_lengths(self):
        with pytest.raises(ValueError):
            xor_bytes(b"ab", b"a")


class TestCertificates:
    @pytest.fixture(scope="class")
    def ca(self):
        return CertificateAuthority(
            key=generate_keypair(bits=1024, rng=random.Random(42)))

    def test_issue_and_validate(self, ca, keypair):
        cert = ca.issue("t1.example", ROLE_BTELCO, keypair.public_key,
                        not_before=0.0, not_after=100.0)
        validate_certificate(cert, ca.public_key, now=50.0,
                             expected_role=ROLE_BTELCO)

    def test_expired_rejected(self, ca, keypair):
        cert = ca.issue("t1", ROLE_BTELCO, keypair.public_key,
                        not_before=0.0, not_after=10.0)
        with pytest.raises(CertificateError):
            validate_certificate(cert, ca.public_key, now=20.0)

    def test_not_yet_valid_rejected(self, ca, keypair):
        cert = ca.issue("t1", ROLE_BTELCO, keypair.public_key,
                        not_before=10.0, not_after=20.0)
        with pytest.raises(CertificateError):
            validate_certificate(cert, ca.public_key, now=5.0)

    def test_wrong_role_rejected(self, ca, keypair):
        cert = ca.issue("b1", ROLE_BROKER, keypair.public_key)
        with pytest.raises(CertificateError):
            validate_certificate(cert, ca.public_key, now=1.0,
                                 expected_role=ROLE_BTELCO)

    def test_unknown_role_rejected_at_issue(self, ca, keypair):
        with pytest.raises(CertificateError):
            ca.issue("x", "mallory", keypair.public_key)

    def test_forged_signature_rejected(self, ca, keypair, other_keypair):
        cert = ca.issue("t1", ROLE_BTELCO, keypair.public_key)
        forged = Certificate(**{**cert.__dict__,
                                "signature": other_keypair.sign(cert.tbs_bytes())})
        with pytest.raises(CertificateError):
            validate_certificate(forged, ca.public_key, now=1.0)

    def test_tampered_subject_rejected(self, ca, keypair):
        cert = ca.issue("t1", ROLE_BTELCO, keypair.public_key)
        tampered = Certificate(**{**cert.__dict__, "subject": "t2"})
        with pytest.raises(CertificateError):
            validate_certificate(tampered, ca.public_key, now=1.0)

    def test_offline_validation_with_ca_pubkey_only(self, ca, keypair):
        cert = ca.issue("t1", ROLE_BTELCO, keypair.public_key)
        validate_certificate(cert, ca.public_key, now=1.0,
                             expected_role=ROLE_BTELCO)

    def test_unsigned_rejected(self, ca, keypair):
        cert = Certificate(subject="t", role=ROLE_BTELCO,
                           public_key=keypair.public_key, issuer=ca.name,
                           serial=999, not_before=0, not_after=10)
        with pytest.raises(CertificateError):
            validate_certificate(cert, ca.public_key, now=1.0)
