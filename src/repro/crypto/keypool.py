"""A pool of deterministic RSA keypairs, memoized in memory and on disk.

RSA key generation is by far the slowest operation in the reproduction
(~0.2 s per 1024-bit key).  Simulated entities do not need *secret* keys —
they need *distinct, functioning* keys — so scenario builders draw from
this deterministic pool instead of generating fresh primes per entity.

A pool key is a pure function of ``(_POOL_SEED, slot, bits)``, so it is
memoized twice: in ``_POOL`` for the life of the process, and in a
per-user store directory across processes.  The store holds one small
file per ``(slot, bits)`` with only ``p``, ``q`` and a checksum; a file is
trusted only after :func:`_decode` has re-derived and exercised the whole
key, anything else is deleted and regenerated, and a machine with no
writable store location simply pays key generation per process as before.
Delete the directory to reset it.

Pool keys are derivable from a public constant and sit on disk in the
clear.  Never use this for anything outside a simulation.
"""

from __future__ import annotations

import math
import os
import random
import stat

from .hashes import sha256_hex
from .primes import is_probable_prime
from .rsa import PrivateKey, generate_keypair

_POOL: dict[int, PrivateKey] = {}
_POOL_SEED = 0x9E37_79B9

#: part of the store directory's name, next to ``_POOL_SEED``.  Bump it
#: with any edit to ``primes.py``/``generate_keypair`` that changes which
#: key a slot yields (``tests/test_keypool_store.py`` pins three
#: fingerprints to catch that) or to the file layout below: files written
#: by older code are then never looked at.
_STORE_FORMAT = 1
_E = 65537
#: Miller–Rabin rounds on a loaded prime.  The 40-round search ran when
#: the key was generated; this only has to catch a wrong file that still
#: carries a matching checksum, which a random composite fails in one.
_LOAD_MR_ROUNDS = 2
_SELF_TEST_MESSAGE = b"repro.crypto.keypool self-test"


def pooled_keypair(slot: int, bits: int = 1024) -> PrivateKey:
    """Return the pool's keypair for ``slot`` (created on first use).

    Distinct slots yield distinct keys; the same slot always yields the
    same key within and across processes (seeded deterministically).
    On a miss in memory the key is loaded from the on-disk store, and
    only generated (then saved) when the store has no valid file for it.
    """
    pool_key = (slot, bits) if bits != 1024 else slot
    key = _POOL.get(pool_key)
    if key is None:
        directory = _store_dir()
        key = _load(directory, slot, bits)
        if key is None:
            key = generate_keypair(
                bits=bits, e=_E, rng=random.Random(_POOL_SEED + slot * 7919))
            _self_test(key)
            _save(directory, slot, bits, key)
        _POOL[pool_key] = key
    return key


def warm(slots, bits: int = 1024) -> list[PrivateKey]:
    """Load or generate the pool keys for ``slots`` (an iterable of slot
    numbers) and return them in order.

    Scenario builders and benches call this up front so key loading is
    one visible step of topology set-up, outside any timed region,
    instead of happening lazily on the first attach that touches each
    entity.  Every key that enters the pool has produced one throwaway
    signature, so its CRT context is already computed.
    """
    return [pooled_keypair(slot, bits=bits) for slot in slots]


def _self_test(key: PrivateKey) -> None:
    """One sign→verify round trip, bypassing the verify cache (whose
    counters callers read); ``ValueError`` if it fails.  Every key passes
    through here on its way into the pool, which also leaves its CRT
    context computed."""
    signature = key.sign(_SELF_TEST_MESSAGE)
    if not key.public_key._verify_uncached(_SELF_TEST_MESSAGE, signature):
        raise ValueError("key does not verify its own signature")


# -- the on-disk store --------------------------------------------------------

def _store_dir() -> str | None:
    """The directory pool keys persist in, created if need be; None when
    no candidate is usable (keys then live in memory only).

    ``$XDG_CACHE_HOME`` (or ``~/.cache``) first, then the system temp
    directory with the uid in the name.
    """
    name = f"repro-keypool-v{_STORE_FORMAT}-{_POOL_SEED:08x}"
    cache = os.environ.get("XDG_CACHE_HOME") \
        or os.path.join(os.path.expanduser("~"), ".cache")
    # A relative path here (unset HOME, malformed variable) would plant
    # the store in whatever the working directory happens to be.
    if os.path.isabs(cache):
        path = os.path.join(cache, name)
        if _is_private_dir(path):
            return path
    # ~5 ms; paid on a store miss or when the cache dir is unusable
    import tempfile
    path = os.path.join(tempfile.gettempdir(), f"{name}-uid{os.getuid()}")
    return path if _is_private_dir(path) else None


def _is_private_dir(path: str) -> bool:
    """Create ``path`` (mode 0700) if missing; true iff it is then a real
    directory that this user owns, can write, and nobody else can — a
    pre-planted directory or symlink in a shared temp dir is refused."""
    try:
        os.makedirs(path, mode=0o700, exist_ok=True)
        info = os.lstat(path)
    except OSError:
        return False
    return (stat.S_ISDIR(info.st_mode) and info.st_uid == os.getuid()
            and not info.st_mode & 0o022
            and os.access(path, os.W_OK | os.X_OK))


def _key_path(directory: str, slot: int, bits: int) -> str:
    return os.path.join(directory, f"slot{slot}-{bits}.key")


def _encode(slot: int, bits: int, key: PrivateKey) -> bytes:
    body = (f"repro-keypool {_STORE_FORMAT}\nslot {slot}\nbits {bits}\n"
            f"e {key.e}\np {key.p:x}\nq {key.q:x}\n")
    return (body + f"sha256 {sha256_hex(body.encode())}\n").encode()


def _decode(blob: bytes, slot: int, bits: int) -> PrivateKey:
    """Rebuild the key for ``(slot, bits)`` from a store file's bytes.

    Raises ``ValueError`` (``KeyError`` for a missing field) unless
    everything holds: checksum; format, slot, bits and ``e`` fields; ``p`` and ``q`` distinct odd primes of
    exactly the half bit-lengths; a ``bits``-bit modulus; ``e`` coprime
    to φ; and a sign→verify round trip with ``d`` recomputed here.
    """
    body, marker, checksum = blob.decode("ascii").rpartition("sha256 ")
    if not marker or checksum != sha256_hex(body.encode()) + "\n":
        raise ValueError("checksum mismatch")
    fields = dict(line.split(" ", 1) for line in body.splitlines())
    header = tuple(int(fields[name])
                   for name in ("repro-keypool", "slot", "bits", "e"))
    p, q = int(fields["p"], 16), int(fields["q"], 16)
    if header != (_STORE_FORMAT, slot, bits, _E):
        raise ValueError("file is for another format, slot, size or exponent")
    half = bits // 2
    if (p == q or p.bit_length() != half or q.bit_length() != bits - half
            or not is_probable_prime(p, rounds=_LOAD_MR_ROUNDS)
            or not is_probable_prime(q, rounds=_LOAD_MR_ROUNDS)):
        raise ValueError("p, q are not distinct primes of the right size")
    n = p * q
    phi = (p - 1) * (q - 1)
    if n.bit_length() != bits or math.gcd(_E, phi) != 1:
        raise ValueError("modulus has the wrong size or e divides phi")
    key = PrivateKey(n=n, e=_E, d=pow(_E, -1, phi), p=p, q=q)
    _self_test(key)
    return key


def _load(directory: str | None, slot: int, bits: int) -> PrivateKey | None:
    """The stored key, or None (after deleting a file that fails
    validation, so the caller's regeneration replaces it)."""
    if directory is None:
        return None
    path = _key_path(directory, slot, bits)
    try:
        with open(path, "rb") as handle:
            blob = handle.read()
    except OSError:
        return None
    try:
        return _decode(blob, slot, bits)
    except (ValueError, KeyError):
        try:
            os.unlink(path)
        except OSError:
            pass
        return None


def _save(directory: str | None, slot: int, bits: int,
          key: PrivateKey) -> None:
    """Best effort: write to a private temp file, then rename over the
    final name, so concurrent writers (who all hold the same bytes) and
    readers never see a partial file.  No fsync: a file torn by a crash
    fails its checksum and is regenerated."""
    if directory is None:
        return
    import tempfile
    try:
        fd, temp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    except OSError:
        return
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(_encode(slot, bits, key))
        os.replace(temp, _key_path(directory, slot, bits))
    except OSError:
        try:
            os.unlink(temp)
        except OSError:
            pass
