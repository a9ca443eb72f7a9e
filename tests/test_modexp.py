"""The modexp kernel: equal to ``pow`` everywhere, checked at every
native return, nothing native left on a key, nothing leaked — and the
system gives the same results with the kernel forced off.

``pow`` is the reference throughout.  The forced-fallback tests run in
tier-1 on every interpreter CI uses, so the path a platform without a
dynamic libcrypto takes stays green without a second job.
"""

import copy
import os
import pickle
import random
import subprocess
import sys

import pytest

from repro.crypto import CryptoError, PublicKey, keypool
from repro.crypto import modexp as kernel
from repro.crypto.keypool import pooled_keypair
from repro.crypto.modexp import NativeError, modexp
from repro.testbed.attach_bench import ARCH_CELLBRICKS, run_attach_benchmark

from .test_keypool_store import PINNED, SRC

native_only = pytest.mark.skipif(
    kernel.backend() == "python pow",
    reason="this interpreter has no dynamic libcrypto behind hashlib")


def _force_fallback(monkeypatch) -> None:
    """Make this process one whose loader fails, until ``monkeypatch``
    undoes it.  A patch, not an option: the module has no switch."""
    def fail():
        raise OSError("no libcrypto here")

    monkeypatch.setattr(kernel, "_Libcrypto", fail)
    monkeypatch.setattr(kernel, "_resolved", None)
    assert kernel.backend() == "python pow"


@pytest.fixture(params=["kernel", "fallback"])
def either_path(request, monkeypatch):
    if request.param == "fallback":
        _force_fallback(monkeypatch)


def _operands(rng: random.Random):
    """(b, e, m) over moduli of 8..2048 bits, odd and even, with the
    edge bases and exponents, then m = 1."""
    for bits in (8, 9, 31, 64, 65, 127, 512, 1024, 2048):
        for odd in (True, False):
            m = rng.getrandbits(bits) | (1 << (bits - 1))
            m = (m | 1) if odd else (m & ~1)
            for b in (0, 1, m - 1, m, m + 1, rng.randrange(m),
                      rng.getrandbits(bits + 70)):
                for e in (0, 1, 2, 65537, rng.getrandbits(bits),
                          rng.getrandbits(bits) | (1 << (bits - 1))):
                    yield b, e, m
    for b, e in ((0, 0), (0, 5), (7, 0), (7, 65537)):
        yield b, e, 1


def test_backend_names_the_kernel():
    assert kernel.backend() == "python pow" \
        or kernel.backend().startswith("libcrypto (")


@pytest.mark.parametrize("secret", [False, True])
def test_equals_pow(secret):
    for b, e, m in _operands(random.Random(0x5EED)):
        assert modexp(b, e, m, secret=secret) == pow(b, e, m), (b, e, m)


def test_equals_pow_on_the_pool_keys():
    rng = random.Random(1)
    for slot in range(3):
        key = pooled_keypair(slot)
        dp, dq, _ = key._crt_context()
        for _ in range(5):
            c = rng.randrange(key.n)
            assert modexp(c % key.p, dp, key.p, secret=True) \
                == pow(c, dp, key.p)
            assert modexp(c % key.q, dq, key.q, secret=True) \
                == pow(c, dq, key.q)
            assert modexp(c, key.e, key.n) == pow(c, key.e, key.n)


def test_outside_the_contract_is_pow_too():
    """Never raise where ``pow`` would not, nor return where it raises."""
    for args in ((2, 3, 0), (2, -1, 4)):
        with pytest.raises(ValueError):
            pow(*args)
        with pytest.raises(ValueError):
            modexp(*args)
    for args in ((3, -1, 7), (-3, 5, 7), (3, 5, -7)):
        assert modexp(*args) == pow(*args)


@native_only
@pytest.mark.parametrize("name, nth, value", [
    ("_bin2bn", 1, None), ("_bin2bn", 3, None), ("_new", 1, None),
    ("_mod_exp", 1, 0), ("_mod_exp", 1, -1),
    ("_bn2binpad", 1, -1), ("_bn2binpad", 1, 0)])
def test_a_failed_native_call_raises_and_frees(monkeypatch, name, nth, value):
    """No native return value goes unchecked, and whatever was allocated
    before the failure is freed."""
    native = kernel._resolve()[0]
    made, freed, calls = [], [], []

    def allocating(function):
        def call(*args):
            made.append(function(*args))
            return made[-1]
        return call

    real_free = native._clear_free
    monkeypatch.setattr(native, "_clear_free",
                        lambda pointer: (freed.append(pointer),
                                         real_free(pointer)))
    monkeypatch.setattr(native, "_bin2bn", allocating(native._bin2bn))
    monkeypatch.setattr(native, "_new", allocating(native._new))
    assert modexp(5, 3, 13) == 8
    assert len(made) == 4 and sorted(made) == sorted(freed)

    del made[:], freed[:]
    real = getattr(native, name)

    def failing(*args):
        calls.append(args)
        return value if len(calls) == nth else real(*args)

    monkeypatch.setattr(native, name, failing)
    with pytest.raises(NativeError):
        modexp(5, 3, 13)
    assert sorted(made) == sorted(freed)
    assert len(made) == {"_bin2bn": nth - 1, "_new": 3}.get(name, 4)


@native_only
def test_a_wrong_known_answer_means_pow(monkeypatch):
    class Wrong(kernel._Libcrypto):
        def __call__(self, b, e, m, secret):
            return super().__call__(b, e, m, secret) ^ 1

    monkeypatch.setattr(kernel, "_Libcrypto", Wrong)
    monkeypatch.setattr(kernel, "_resolved", None)
    assert kernel.backend() == "python pow"
    assert modexp(5, 3, 13) == 8


def test_even_modulus_verifies_false_not_raises():
    key = pooled_keypair(0)
    signature = key.sign(b"message")
    for n in (key.n + 1, key.n & ~1):
        assert PublicKey(n=n, e=key.e)._verify_uncached(
            b"message", signature) is False


def _round_trip(key) -> None:
    signature = key.sign(b"message")
    assert key.public_key._verify_uncached(b"message", signature)
    assert not key.public_key._verify_uncached(b"massage", signature)
    sealed = key.public_key.encrypt(b"plaintext", b"ad")
    assert key.decrypt(sealed, b"ad") == b"plaintext"
    with pytest.raises(CryptoError):
        key.decrypt(sealed, b"other")


def _one_attach_per_rat() -> list:
    return [run_attach_benchmark(ARCH_CELLBRICKS, "us-west-1", trials=1,
                                 rat=rat).samples for rat in ("lte", "5g")]


def test_same_results_without_the_kernel(monkeypatch, tmp_path):
    with_kernel = _one_attach_per_rat()
    key = pooled_keypair(0)
    signature = key.sign(b"across")
    sealed = key.public_key.encrypt(b"across")
    with monkeypatch.context() as patch:
        _force_fallback(patch)
        _round_trip(key)
        assert key.public_key._verify_uncached(b"across", signature)
        assert key.decrypt(sealed) == b"across"
        assert _one_attach_per_rat() == with_kernel
        signature = key.sign(b"back")
        # the pool's first keys, generated (not loaded) on this path
        patch.setenv("XDG_CACHE_HOME", str(tmp_path))
        patch.setattr(keypool, "_POOL", {})
        for slot, fingerprint in PINNED.items():
            assert pooled_keypair(slot).public_key.fingerprint() \
                == fingerprint
    assert key.public_key._verify_uncached(b"back", signature)


def test_a_used_key_is_still_plain_data(either_path):
    key = pooled_keypair(1)
    _round_trip(key)
    assert all(isinstance(value, (int, tuple))
               for value in vars(key).values())
    for clone in (copy.deepcopy(key), pickle.loads(pickle.dumps(key))):
        assert clone == key and clone is not key
        _round_trip(clone)
        assert key.public_key._verify_uncached(b"m", clone.sign(b"m"))


_RSS_SCRIPT = """
import os, sys
import repro.crypto, repro.testbed.megaload
assert "ctypes" not in sys.modules, "the loader must be lazy"
from repro.crypto import modexp as kernel
from repro.crypto.modexp import NativeError, modexp

def rss_mb():
    with open("/proc/self/statm") as handle:
        return int(handle.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 1e6

if kernel.backend() == "python pow":
    print("no kernel")
    sys.exit(0)
assert "ctypes" in sys.modules
m = (1 << 511) | 0x1234567
for _ in range(2000):
    modexp(3, 65537, m)
before = rss_mb()
for _ in range(20000):
    modexp(3, 65537, m, secret=True)
kernel._resolve()[0]._mod_exp = lambda *args: 0
for _ in range(20000):
    try:
        modexp(3, 65537, m)
    except NativeError:
        continue
    raise AssertionError("a failed BN_mod_exp_mont yielded a number")
print(rss_mb() - before)
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/statm"),
                    reason="reads resident pages from /proc")
def test_rss_is_flat_over_20000_calls():
    """In a fresh interpreter, whose heap has no slack to hide a leak
    in: one leaked 64-byte BIGNUM per call would be ~2.5 MB.  20 000
    calls that succeed, then 20 000 that fail after allocating.  Started
    with ``-S``: a site-packages ``.pth`` hook that loaded ``ctypes``
    would fail the laziness check without cause and hide an eager
    loader."""
    done = subprocess.run([sys.executable, "-S", "-c", _RSS_SCRIPT],
                          env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    if done.stdout.strip() == "no kernel":
        pytest.skip("this interpreter has no dynamic libcrypto")
    assert abs(float(done.stdout)) <= 0.5
