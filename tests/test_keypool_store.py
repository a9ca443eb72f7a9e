"""The keypool's on-disk store: fidelity, validation, degradation, races.

Every test redirects the store with ``XDG_CACHE_HOME`` and swaps in an
empty in-memory pool, so nothing here reads or writes the user's real
store or disturbs keys other tests have pooled.
"""

import os
import random
import stat
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from repro.crypto import keypool
from repro.crypto.primes import is_probable_prime
from repro.crypto.rsa import PrivateKey, generate_keypair

SRC = str(Path(__file__).resolve().parents[1] / "src")

#: fingerprints of pool slots 0-2.  If an edit to ``primes.py`` or
#: ``generate_keypair`` moves these, stores already on disk hold keys the
#: code would no longer generate: bump ``keypool._STORE_FORMAT`` in the
#: same change, then re-pin.
PINNED = {
    0: "ce88ab66a223b2e39684b6d4977498e1",
    1: "01b856f2de9219d698e6fa58c081bd20",
    2: "234b4a2720e5c718e8c138da892a22bf",
}


def _direct(slot: int, bits: int = 1024):
    return generate_keypair(
        bits=bits, rng=random.Random(keypool._POOL_SEED + slot * 7919))


@pytest.fixture(scope="module")
def reference():
    """What each slot must yield: the generator, called directly."""
    return {slot: _direct(slot) for slot in PINNED}


def _forget(monkeypatch):
    """What a new process sees: the store, and nothing in memory."""
    monkeypatch.setattr(keypool, "_POOL", {})


@pytest.fixture
def store(tmp_path, monkeypatch):
    """An empty store under ``tmp_path`` and an empty in-memory pool."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    _forget(monkeypatch)
    directory = Path(keypool._store_dir())
    assert directory.parent == tmp_path
    return directory


@pytest.fixture
def generated(monkeypatch, reference):
    """Replace the slow generator with a lookup that records its calls."""
    calls = []

    def fake(bits, e, rng):
        calls.append(bits)
        for slot, key in reference.items():
            if rng.getstate() == random.Random(
                    keypool._POOL_SEED + slot * 7919).getstate():
                return key
        raise AssertionError("generation asked for an unexpected slot")

    monkeypatch.setattr(keypool, "generate_keypair", fake)
    return calls


@pytest.fixture
def no_cache_dir(tmp_path, monkeypatch):
    """``XDG_CACHE_HOME`` names a regular file, so no directory can be
    made under it (chmod would not stop root; this stops everyone).
    Returns that file."""
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
    _forget(monkeypatch)
    return blocker


def test_pinned_fingerprints(reference):
    assert {slot: key.public_key.fingerprint()
            for slot, key in reference.items()} == PINNED


def test_cold_miss_writes_and_reload_is_field_for_field(
        store, monkeypatch, reference):
    cold = {slot: keypool.pooled_keypair(slot) for slot in (0, 1)}
    assert sorted(p.name for p in store.iterdir()) == \
        ["slot0-1024.key", "slot1-1024.key"]

    _forget(monkeypatch)
    monkeypatch.setattr(
        keypool, "generate_keypair",
        lambda **_: pytest.fail("a warm store must not generate"))
    for slot in (0, 1):
        loaded = keypool.pooled_keypair(slot)
        assert loaded == cold[slot] == reference[slot]
        assert loaded is not cold[slot]
        assert keypool.pooled_keypair(slot) is loaded


def test_file_holds_primes_and_checksum_only(store, generated, reference):
    keypool.pooled_keypair(0)
    text = (store / "slot0-1024.key").read_text()
    assert [line.split()[0] for line in text.splitlines()] == \
        ["repro-keypool", "slot", "bits", "e", "p", "q", "sha256"]
    assert f"{reference[0].d:x}" not in text
    assert stat.S_IMODE((store / "slot0-1024.key").stat().st_mode) == 0o600
    assert stat.S_IMODE(store.stat().st_mode) == 0o700


def test_every_pooled_key_has_signed_once(store, monkeypatch, generated):
    fresh, = keypool.warm([2])
    _forget(monkeypatch)
    loaded, = keypool.warm([2])
    assert generated == [1024]
    assert "_crt_ctx" in fresh.__dict__ and "_crt_ctx" in loaded.__dict__


def _truncated(blob, reference):
    return blob[:len(blob) // 2]


def _flipped_checksum(blob, reference):
    return blob[:-2] + (b"0" if blob[-2:-1] != b"0" else b"1") + b"\n"


def _composite_p(blob, reference):
    key = reference[0]
    assert not is_probable_prime(key.p + 2)
    forged = PrivateKey(n=key.n, e=key.e, d=key.d, p=key.p + 2, q=key.q)
    return keypool._encode(0, 1024, forged)


def _other_slot(blob, reference):
    return keypool._encode(1, 1024, reference[1])


def _not_ascii(blob, reference):
    return b"\xff" + blob


@pytest.mark.parametrize("corrupt", [
    _truncated, _flipped_checksum, _composite_p, _other_slot, _not_ascii,
    lambda blob, reference: b"",
])
def test_invalid_file_is_deleted_and_regenerated(
        store, generated, reference, corrupt):
    path = store / "slot0-1024.key"
    good = keypool._encode(0, 1024, reference[0])
    path.write_bytes(corrupt(good, reference))

    assert keypool._load(str(store), 0, 1024) is None
    assert not path.exists()

    path.write_bytes(corrupt(good, reference))
    assert keypool.pooled_keypair(0) == reference[0]
    assert generated == [1024]
    assert path.read_bytes() == good


def test_key_for_another_size_is_rejected(store, reference):
    path = store / "slot0-512.key"
    path.write_bytes(keypool._encode(0, 1024, reference[0]))
    key = keypool.pooled_keypair(0, bits=512)
    assert key == _direct(0, bits=512) and key.n.bit_length() == 512
    assert path.read_bytes() == keypool._encode(0, 512, key)


def test_no_usable_location_degrades_to_memory(
        tmp_path, monkeypatch, no_cache_dir, generated, reference):
    monkeypatch.setattr(tempfile, "tempdir", str(no_cache_dir))

    assert keypool._store_dir() is None
    key = keypool.pooled_keypair(0)
    assert key == reference[0] and keypool.pooled_keypair(0) is key
    assert generated == [1024]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["blocker"]


def test_falls_back_to_private_directory_under_tmp(
        tmp_path, monkeypatch, no_cache_dir, generated, reference):
    fake_tmp = tmp_path / "tmp"
    fake_tmp.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(fake_tmp))

    keypool.pooled_keypair(0)
    directory, = fake_tmp.iterdir()
    assert directory.name.endswith(f"-uid{os.getuid()}")
    assert stat.S_IMODE(directory.stat().st_mode) == 0o700
    _forget(monkeypatch)
    assert keypool.pooled_keypair(0) == reference[0]
    assert generated == [1024]


def test_planted_directories_are_refused(tmp_path):
    shared = tmp_path / "shared"
    shared.mkdir()
    shared.chmod(0o777)
    link = tmp_path / "link"
    mine = tmp_path / "mine"
    mine.mkdir(mode=0o700)
    link.symlink_to(mine)
    assert keypool._is_private_dir(str(mine))
    assert not keypool._is_private_dir(str(shared))
    assert not keypool._is_private_dir(str(link))


def test_unwritable_file_location_is_harmless(
        store, monkeypatch, generated, reference):
    def refuse(*args, **kwargs):
        raise PermissionError("read-only store")

    monkeypatch.setattr(tempfile, "mkstemp", refuse)
    assert keypool.pooled_keypair(0) == reference[0]
    assert list(store.iterdir()) == []


def test_interleaved_writers_leave_one_valid_file(
        store, monkeypatch, reference):
    real_replace = os.replace
    nested = []

    def replace_after_a_rival(src, dst):
        if not nested:
            nested.append(True)
            keypool._save(str(store), 0, 1024, reference[0])
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", replace_after_a_rival)
    keypool._save(str(store), 0, 1024, reference[0])
    assert [p.name for p in store.iterdir()] == ["slot0-1024.key"]
    assert keypool._load(str(store), 0, 1024) == reference[0]


def _python(code: str, cache: Path) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=SRC, XDG_CACHE_HOME=str(cache))
    return subprocess.Popen([sys.executable, "-c", code], env=env,
                            stdout=subprocess.PIPE, text=True)


def test_racing_processes_agree(store, reference):
    """More cold processes than cores fill one slot of one store."""
    code = ("from repro.crypto.keypool import pooled_keypair;"
            "print(pooled_keypair(1).public_key.fingerprint())")
    workers = [_python(code, store.parent)
               for _ in range((os.cpu_count() or 1) + 2)]
    for proc in workers:
        out, _ = proc.communicate(timeout=120)
        assert proc.returncode == 0 and out.strip() == PINNED[1]
    assert [p.name for p in store.iterdir()] == ["slot1-1024.key"]
    assert keypool._load(str(store), 1, 1024) == reference[1]


def test_import_adds_no_modules(tmp_path):
    """The store's helpers (``tempfile`` and what it drags in) load on a
    store miss, never at import: a process that pools no key — the
    ledger's key-free workloads — must not pay for them.  Measured as a
    ``sys.modules`` diff of ``repro.crypto.rsa`` (keypool's real
    dependency; the package's exports are lazy, so ``import
    repro.crypto`` alone loads none of its modules) imported with a stub
    in keypool's place against the real module imported on top.  The
    child starts with ``-S``: a site-packages ``.pth`` hook may import
    ``tempfile`` before ``repro`` runs, and what is measured is what
    ``repro`` adds, not the interpreter's start-up."""
    code = """
import importlib, sys, types
import repro
assert not any(name.startswith("repro.") for name in sys.modules)
stub = types.ModuleType("repro.crypto.keypool")
stub.pooled_keypair = None
sys.modules[stub.__name__] = stub
import repro.crypto
import repro.crypto.rsa
before = set(sys.modules)
del sys.modules[stub.__name__]
importlib.import_module("repro.crypto.keypool")
print(sorted(set(sys.modules) - before))
print("tempfile" in sys.modules)
"""
    env = dict(os.environ, PYTHONPATH=SRC, XDG_CACHE_HOME=str(tmp_path))
    done = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.stdout.splitlines() == ["[]", "False"], done.stderr
