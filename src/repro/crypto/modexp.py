"""The one modular-exponentiation kernel under RSA.

Contract: ``modexp(b, e, m) == pow(b, e, m)`` for every ``b >= 0``,
``e >= 0``, ``m >= 1`` — same integers, same exceptions.  How the power
is computed is this module's secret and nobody else's: it is the only
module under ``src/`` that imports ``ctypes``.

Where the interpreter's ``hashlib`` is backed by a dynamic libcrypto
(``hashlib.sha256`` is then ``_hashlib.openssl_sha256``), that library
is already mapped into the process and its ``BN_mod_exp_mont`` computes
a 512-bit power about ten times sooner than CPython's ``pow``.  The
first call reaches it through the handle of ``_hashlib``'s own shared
object — no ``find_library`` (it forks ``ldconfig``), no path search,
nothing at import — and checks one known answer against ``pow``.  If
``_hashlib``, ``ctypes``, a symbol or the known answer is missing, every
call is ``pow`` for the life of the process, as it is for the operands
the native routine does not take (an even modulus).  Nothing selects
between the two but what the process can observe about itself.

Nothing native outlives a call except one ``BN_CTX``: each call converts
its operands, runs, and frees what it made (``BN_clear_free``), so keys
stay plain frozen dataclasses of ints.  The library is loaded with ``PyDLL``:
calls keep the GIL exactly as ``pow`` does, which is what makes the
shared ``BN_CTX`` safe.
"""

from __future__ import annotations

#: ``BN_FLG_CONSTTIME`` of ``openssl/bn.h``: set on an exponent it sends
#: ``BN_mod_exp_mont`` down the fixed-window constant-time ladder.
_BN_FLG_CONSTTIME = 0x04

#: ``(b, e, m)`` of the load-time known-answer comparison: a base and an
#: exponent of about the width of the odd 127-bit modulus.
_KNOWN = (0x6A09E667F3BCC908B2FB1366EA957D3E,
          0x3C6EF372FE94F82BE73980C0B9DB9063,
          0x7FFFFFFFFFFFFFFFFFFFFFFFFFFFFFFF)


class NativeError(RuntimeError):
    """A libcrypto call reported failure (out of memory, in practice)."""


class _Libcrypto:
    """``BN_mod_exp_mont`` of the libcrypto that ``_hashlib`` links.

    Construction raises ``ImportError`` (no ``ctypes`` / ``_hashlib``),
    ``AttributeError`` (``_hashlib`` built into the interpreter, or a
    symbol missing), ``OSError`` (the object will not load) or
    :class:`NativeError` (no ``BN_CTX``).
    """

    def __init__(self) -> None:
        import _hashlib
        import ctypes

        lib = ctypes.PyDLL(_hashlib.__file__)
        bn = ctypes.c_void_p  # every BIGNUM*/BN_CTX*: int would truncate
        c_int, c_char_p = ctypes.c_int, ctypes.c_char_p

        def declare(name, restype, *argtypes):
            function = getattr(lib, name)
            function.restype = restype
            function.argtypes = argtypes
            return function

        self._buffer = ctypes.create_string_buffer
        self._bin2bn = declare("BN_bin2bn", bn, c_char_p, c_int, bn)
        self._new = declare("BN_new", bn)
        self._set_flags = declare("BN_set_flags", None, bn, c_int)
        self._mod_exp = declare("BN_mod_exp_mont", c_int,
                                bn, bn, bn, bn, bn, bn)
        self._bn2binpad = declare("BN_bn2binpad", c_int, bn, c_char_p, c_int)
        self._clear_free = declare("BN_clear_free", None, bn)
        self._clear_errors = declare("ERR_clear_error", None)
        self.version = declare("OpenSSL_version", c_char_p, c_int)(0) \
            .decode("ascii", "replace")
        self._ctx = declare("BN_CTX_new", bn)()
        if not self._ctx:
            raise NativeError("BN_CTX_new failed")

    def __call__(self, b: int, e: int, m: int, secret: bool) -> int:
        """``b ** e % m`` for ``0 <= b < m``, ``e >= 0``, ``m`` odd."""
        size = (m.bit_length() + 7) // 8
        e_size = (e.bit_length() + 7) // 8
        made = []
        try:
            # Each operand's bytes object lives until BN_bin2bn, which
            # copies it, has returned.
            for value, length in ((b, size), (e, e_size), (m, size)):
                made.append(self._checked(self._bin2bn(
                    value.to_bytes(length, "big"), length, None), "BN_bin2bn"))
            made.append(self._checked(self._new(), "BN_new"))
            base, exponent, modulus, result = made
            if secret:
                self._set_flags(exponent, _BN_FLG_CONSTTIME)
            self._checked(self._mod_exp(result, base, exponent, modulus,
                                        self._ctx, None) == 1,
                          "BN_mod_exp_mont")
            out = self._buffer(size)
            self._checked(self._bn2binpad(result, out, size) == size,
                          "BN_bn2binpad")
            return int.from_bytes(out.raw, "big")
        finally:
            for pointer in made:
                self._clear_free(pointer)

    def _checked(self, value, name: str):
        """``value`` if the call succeeded (non-NULL, true); else raise,
        leaving nothing on libcrypto's error queue for ``ssl`` to find."""
        if not value:
            self._clear_errors()
            raise NativeError(f"libcrypto: {name} failed")
        return value


#: what the first call found: ``(kernel or None, description)``.
_resolved: tuple[_Libcrypto | None, str] | None = None


def _resolve() -> tuple[_Libcrypto | None, str]:
    global _resolved
    if _resolved is None:
        try:
            kernel = _Libcrypto()
            for secret in (False, True):
                if kernel(*_KNOWN, secret) != pow(*_KNOWN):
                    raise NativeError("known answer mismatch")
            _resolved = (kernel, f"libcrypto ({kernel.version})")
        except (ImportError, AttributeError, OSError, NativeError):
            _resolved = (None, "python pow")
    return _resolved


def modexp(b: int, e: int, m: int, *, secret: bool = False) -> int:
    """``pow(b, e, m)``.

    ``secret`` says the exponent is private-key material: the native
    kernel then runs OpenSSL's constant-time ladder.  It never changes
    the result.
    """
    kernel = (_resolved or _resolve())[0]
    if kernel is None or b < 0 or e < 0 or m < 1 or not m & 1:
        return pow(b, e, m)
    return kernel(b % m if b >= m else b, e, m, secret)


def backend() -> str:
    """Which kernel this process runs, for a result to carry with it:
    ``"libcrypto (OpenSSL 3.0.19 27 Jan 2026)"`` or ``"python pow"``."""
    return _resolve()[1]
