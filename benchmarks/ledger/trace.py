"""Layer attribution from outside the program.

Nothing under ``src/`` knows this file exists.  :func:`install` replaces
a fixed table of **public** callables with timing wrappers, and
:meth:`Patches.restore` puts the identical objects back.  A span is
``(name, layer, start, end, parent)`` on ``time.perf_counter``; spans
live in flat :mod:`array` columns (24 bytes each, nothing for the
garbage collector to walk), one :class:`Recorder` per traced rep,
summarised when the rep ends.

What gets a span:

* the root — the harness's own call of the workload entry;
* every listed public callable (``PrivateKey.sign``, ``Link.send_from``,
  ``BrokerSap.process_request``, ``CellSelector.step`` …), on the layer
  of the module that defines it;
* every callback handed to a public registration point —
  ``Simulator.schedule_at(callback)``, ``SignalingNode.on(type,
  handler)``, ``UdpSocket.on_datagram`` — on the layer of the module
  that *owns the callback*, because that is whose code runs.

A layer's ``self_s`` is its spans' duration minus the part their child
spans cover.  Two boundaries are crossed so often that a span per call
would cost more than the call — the heap push in ``schedule_at`` and
megaload's per-UE-action dispatch — so those are timed by
*accumulation* (:func:`accumulate`): two clock reads per call, the
seconds moved from the enclosing span's layer to the callee's when the
summary is taken.  Known limit, by construction: a private callback that one
layer invokes on another (``TcpConnection`` calling an application's
``on_data``) runs on the caller's account.  Spans inside the program are
a later issue; this file only draws the boundaries it can see.
"""

from __future__ import annotations

import functools
import importlib
import sys
from array import array
from time import perf_counter

#: module prefix -> layer, first match wins (longest prefixes first).
LAYERS = (
    ("repro.crypto", "crypto"),
    ("repro.net.sim", "net.sim"),
    ("repro.net.link", "net.link"),
    ("repro.net.tcp", "net.tcp"),
    ("repro.net.mptcp", "net.mptcp"),
    ("repro.net.quic", "net.quic"),
    ("repro.net", "net"),
    ("repro.apps", "apps"),
    ("repro.emulation", "emulation"),
    ("repro.lte.signaling", "lte.signaling"),
    ("repro.lte", "lte"),
    ("repro.fivegc", "fivegc"),
    ("repro.core.sap", "core.sap"),
    ("repro.core.broker", "core.broker"),
    ("repro.core.shardhost", "core.shardhost"),
    ("repro.core.btelco", "core.btelco"),      # btelco.py and btelco5g.py
    ("repro.core.mobility", "core.mobility"),
    ("repro.core.billing", "core.billing"),
    ("repro.core.ue_agent", "core.ue"),
    ("repro.core", "core"),
    ("repro.ran", "ran"),
    ("repro.obs", "obs"),
    ("repro.testbed.megaload", "testbed.megaload"),
    ("repro.testbed", "testbed"),
)
ROOT_LAYER = "root"
OTHER_LAYER = "other"


def layer_of(module: str | None) -> str:
    """The layer that owns code defined in ``module``."""
    if module:
        for prefix, layer in LAYERS:
            if module.startswith(prefix):
                return layer
    return OTHER_LAYER


#: (module, class or None, attribute, kind, capture instance).  ``span``
#: times the callable itself; ``schedule`` / ``register`` / ``socket``
#: time the callback it is handed, on the callback owner's layer.
#: ``capture`` remembers ``self`` so public counters can be read after
#: the run (``TcpConnection.stats``, ``Simulator.peak_queue`` …).
PATCH_TABLE = (
    ("repro.crypto.rsa", None, "generate_keypair", "span", False),
    ("repro.crypto.rsa", "PrivateKey", "sign", "span", False),
    ("repro.crypto.rsa", "PrivateKey", "decrypt", "span", False),
    ("repro.crypto.rsa", "PublicKey", "verify", "span", False),
    ("repro.crypto.rsa", "PublicKey", "encrypt", "span", False),
    ("repro.crypto.cipher", None, "seal", "span", False),
    ("repro.crypto.cipher", None, "open_sealed", "span", False),
    ("repro.net.sim", "Simulator", "run", "span", True),
    ("repro.net.sim", "Simulator", "schedule_at", "schedule", False),
    ("repro.net.link", "Link", "send_from", "span", False),
    ("repro.net.node", "UdpSocket", "handle_packet", "socket", False),
    ("repro.net.topology", "CellularPath", "detach", "span", False),
    ("repro.net.tcp", "TcpConnection", "handle_packet", "span", True),
    ("repro.net.tcp", "TcpListener", "handle_packet", "span", False),
    ("repro.net.tcp", "TcpConnection", "send", "span", False),
    ("repro.net.mptcp", "MptcpEndpoint", "send", "span", True),
    ("repro.net.mptcp", "MptcpConnection", "connect", "span", True),
    ("repro.net.mptcp", "MptcpServerConnection", "send", "span", True),
    ("repro.net.mptcp", "MptcpServerConnection", "attach_subflow",
     "span", True),
    ("repro.net.quic", "QuicEndpoint", "handle_datagram", "span", True),
    ("repro.net.quic", "QuicServerConnection", "handle_datagram",
     "span", True),
    ("repro.net.quic", "QuicEndpoint", "send", "span", True),
    ("repro.net.quic", "QuicEndpoint", "retransmit_outstanding",
     "span", True),
    ("repro.lte.signaling", "SignalingNode", "send", "span", True),
    ("repro.lte.signaling", "SignalingNode", "send_request", "span", True),
    ("repro.lte.signaling", "SignalingNode", "on", "register", True),
    ("repro.core.sap", "BrokerSap", "process_request", "span", True),
    ("repro.core.sap", "BrokerSap", "prevalidate", "span", True),
    ("repro.core.sap", "BrokerSap", "finish_request", "span", True),
    ("repro.core.sap", "BtelcoSap", "process_authorization", "span", False),
    ("repro.core.sap", "BtelcoSap", "validate_scoped_attach", "span",
     False),
    ("repro.core.shardhost", "ShardFrontend", "handle_auth", "span", True),
    ("repro.core.shardhost", "ShardFrontend", "handle_scope_notice",
     "span", True),
    ("repro.core.billing", "BillingVerifier", "ingest", "span", False),
    ("repro.core.mobility", "MobilityManager", "start", "span", False),
    ("repro.core.mobility", "MobilityManager", "switch_to", "span", False),
    ("repro.core.mobility", "MobilityManager", "reattach", "span", False),
    ("repro.ran.selection", "CellSelector", "step", "span", False),
    ("repro.obs.trace", "Tracer", "begin", "span", False),
    ("repro.obs.trace", "Tracer", "finish", "span", False),
    ("repro.obs.trace", "Tracer", "instant", "span", False),
    ("repro.testbed.megaload", "MegaloadWorkload", "run", "span", False),
)


class Recorder:
    """In-memory span store plus the hooks the wrappers write through."""

    def __init__(self) -> None:
        self.names: list[tuple[str, str]] = []      # nid -> (name, layer)
        self._nid: dict[tuple[str, str], int] = {}
        self._owner_nid: dict[object, int] = {}     # code object -> nid
        self.start = array("d")
        self.end = array("d")
        self.nid = array("l")
        self.parent = array("l")
        #: index of the innermost open span, -1 outside any span.
        self.current = -1
        #: nid -> calls that returned a falsy value (``Link.send_from``
        #: returns False for a packet dropped at entry).
        self.falsy: dict[int, int] = {}
        #: class name -> {id: instance} seen at ``capture`` boundaries.
        self.seen: dict[str, dict[int, object]] = {}
        #: (name, layer, {enclosing span's nid: [seconds, calls]}) per
        #: :func:`accumulate` wrapper.
        self.accumulated: list[tuple[str, str, dict]] = []

    # -- naming -----------------------------------------------------------
    def name_id(self, name: str, layer: str) -> int:
        key = (name, layer)
        nid = self._nid.get(key)
        if nid is None:
            nid = self._nid[key] = len(self.names)
            self.names.append(key)
        return nid

    def owner_id(self, callback) -> int:
        """Span id for a callback, named and layered by its owner."""
        try:                                   # bound method: fast path
            func = callback.__func__
            key = func.__code__
        except AttributeError:
            func = getattr(callback, "func", callback)   # functools.partial
            func = getattr(func, "__func__", func)
            key = getattr(func, "__code__", None) or type(func)
        nid = self._owner_nid.get(key)
        if nid is None:
            module = getattr(func, "__module__", None)
            name = getattr(func, "__qualname__", type(func).__name__)
            nid = self._owner_nid[key] = self.name_id(
                name, layer_of(module))
        return nid

    # -- recording --------------------------------------------------------
    def mover(self, name: str, layer: str):
        """``add(seconds)``: account ``seconds`` of the innermost open
        span to ``layer`` under ``name`` instead (see
        :func:`accumulate`)."""
        moved: dict[int, list] = {}
        self.accumulated.append((name, layer, moved))
        nids = self.nid

        def add(seconds: float) -> None:
            current = self.current
            key = nids[current] if current >= 0 else -1
            slot = moved.get(key)
            if slot is None:
                moved[key] = [seconds, 1]
            else:
                slot[0] += seconds
                slot[1] += 1

        return add

    def open(self, nid: int) -> int:
        index = len(self.start)
        self.parent.append(self.current)
        self.nid.append(nid)
        self.end.append(0.0)
        self.current = index
        self.start.append(perf_counter())
        return index

    def close(self, index: int) -> None:
        self.end[index] = perf_counter()
        self.current = self.parent[index]

    # -- reading ----------------------------------------------------------
    def spans(self):
        """Yield ``(name, layer, start, end, parent_index)`` per span."""
        names = self.names
        for nid, start, end, parent in zip(self.nid, self.start, self.end,
                                           self.parent):
            name, layer = names[nid]
            yield name, layer, start, end, parent

    def summary(self) -> dict:
        """Per-layer and per-name totals over the recorded spans.

        ``self_s[layer]``: duration minus child-covered time, summed.
        ``calls[name]`` / ``total_s[name]``: call count and inclusive
        duration by span name.  ``entries[layer]``: spans whose parent is
        on another layer (calls *into* the layer, nesting not counted).
        ``children[name]``: direct child spans of spans called ``name``.
        """
        count = len(self.start)
        self_time = [self.end[i] - self.start[i] for i in range(count)]
        parent = self.parent
        for i in range(count):
            p = parent[i]
            if p >= 0:
                self_time[p] -= self.end[i] - self.start[i]
        names = self.names
        nids = self.nid
        self_s: dict[str, float] = {}
        entries: dict[str, int] = {}
        calls: dict[str, int] = {}
        total_s: dict[str, float] = {}
        children: dict[str, int] = {}
        for i in range(count):
            name, layer = names[nids[i]]
            self_s[layer] = self_s.get(layer, 0.0) + self_time[i]
            calls[name] = calls.get(name, 0) + 1
            total_s[name] = total_s.get(name, 0.0) \
                + self.end[i] - self.start[i]
            p = parent[i]
            if p < 0 or names[nids[p]][1] != layer:
                entries[layer] = entries.get(layer, 0) + 1
            if p >= 0:
                above = names[nids[p]][0]
                children[above] = children.get(above, 0) + 1
        for name, layer, moved in self.accumulated:
            for nid, (seconds, n) in moved.items():
                source = names[nid][1] if nid >= 0 else OTHER_LAYER
                self_s[source] = self_s.get(source, 0.0) - seconds
                self_s[layer] = self_s.get(layer, 0.0) + seconds
                calls[name] = calls.get(name, 0) + n
                total_s[name] = total_s.get(name, 0.0) + seconds
        falsy = {names[nid][0]: n for nid, n in self.falsy.items()}
        return {"self_s": self_s, "entries": entries, "calls": calls,
                "total_s": total_s, "children": children, "falsy": falsy,
                "spans": count}


# ---------------------------------------------------------------------------
# Wrappers
# ---------------------------------------------------------------------------

def _span(rec: Recorder, nid: int, func, capture: str | None):
    """``func`` timed as one span; falsy results are counted."""
    starts, ends, nids, parents = rec.start, rec.end, rec.nid, rec.parent
    falsy = rec.falsy
    seen = rec.seen.setdefault(capture, {}) if capture else None

    @functools.wraps(func)
    def traced(*args, **kwargs):
        if seen is not None:
            seen[id(args[0])] = args[0]
        index = len(starts)
        parents.append(rec.current)
        nids.append(nid)
        ends.append(0.0)
        rec.current = index
        starts.append(perf_counter())
        try:
            result = func(*args, **kwargs)
        finally:
            ends[index] = perf_counter()
            rec.current = parents[index]
        if not result and result is not None:
            falsy[nid] = falsy.get(nid, 0) + 1
        return result

    return traced


def accumulate(rec: Recorder, name: str, layer: str, func):
    """``func`` timed without a span per call: its seconds (minus any
    spans recorded inside it) are moved from the enclosing span's layer
    to ``layer`` when the summary is taken."""
    starts, ends, parents = rec.start, rec.end, rec.parent
    add = rec.mover(name, layer)

    @functools.wraps(func)
    def timed(*args):
        first = len(starts)
        begin = perf_counter()
        try:
            return func(*args)
        finally:
            seconds = perf_counter() - begin
            if len(starts) != first:
                current = rec.current
                for inner in range(first, len(starts)):
                    if parents[inner] == current:
                        seconds -= ends[inner] - starts[inner]
            add(seconds)

    return timed


def _schedule(rec: Recorder, name: str, layer: str, func):
    """``Simulator.schedule_at``: the heap push (no spans inside it) is
    accumulated on ``net.sim`` and the callback later runs inside a span
    on its owner's layer.  The callback rides in the event's args, so no
    closure per event."""
    starts, ends, nids, parents = rec.start, rec.end, rec.nid, rec.parent
    owner_id = rec.owner_id
    add = rec.mover(name, layer)

    def run_owned(owner_nid, callback, *args):
        index = len(starts)
        parents.append(rec.current)
        nids.append(owner_nid)
        ends.append(0.0)
        rec.current = index
        starts.append(perf_counter())
        try:
            callback(*args)
        finally:
            ends[index] = perf_counter()
            rec.current = parents[index]

    @functools.wraps(func)
    def schedule_at(self, time, callback, *args):
        begin = perf_counter()
        try:
            return func(self, time, run_owned, owner_id(callback),
                        callback, *args)
        finally:
            add(perf_counter() - begin)

    return schedule_at


def _register(rec: Recorder, func, capture: str | None):
    """``SignalingNode.on(type, handler)``: time the handler, not the
    registration."""
    seen = rec.seen.setdefault(capture, {}) if capture else None

    @functools.wraps(func)
    def on(self, message_type, handler):
        if seen is not None:
            seen[id(self)] = self
        return func(self, message_type,
                    _span(rec, rec.owner_id(handler), handler, None))

    return on


def _socket(rec: Recorder, func):
    """``UdpSocket.handle_packet``: the time belongs to whoever set
    ``on_datagram`` (signaling node, QUIC endpoint, ping, RTP)."""
    starts, ends, nids, parents = rec.start, rec.end, rec.nid, rec.parent
    owner_id = rec.owner_id

    @functools.wraps(func)
    def handle_packet(self, packet):
        callback = self.on_datagram
        if callback is None:
            return func(self, packet)
        index = len(starts)
        parents.append(rec.current)
        nids.append(owner_id(callback))
        ends.append(0.0)
        rec.current = index
        starts.append(perf_counter())
        try:
            return func(self, packet)
        finally:
            ends[index] = perf_counter()
            rec.current = parents[index]

    return handle_packet


# ---------------------------------------------------------------------------
# Install / restore
# ---------------------------------------------------------------------------

class Patches:
    """The set of replaced attributes; :meth:`restore` undoes all."""

    def __init__(self) -> None:
        #: (holder, attribute name, original object, replacement)
        self.entries: list[tuple[object, str, object, object]] = []

    def replace(self, holder, name: str, original, replacement) -> None:
        setattr(holder, name, replacement)
        self.entries.append((holder, name, original, replacement))

    def restore(self) -> None:
        for holder, name, original, _ in reversed(self.entries):
            setattr(holder, name, original)
        self.entries.clear()

    def patched(self) -> list[tuple[object, str, object]]:
        """(holder, name, original) for every live patch — what the
        test compares against after :meth:`restore`."""
        return [(h, n, o) for h, n, o, _ in self.entries]


def install(rec: Recorder) -> Patches:
    """Apply :data:`PATCH_TABLE`.  Module-level functions are replaced in
    every loaded ``repro`` module that imported them by name, so
    ``from .rsa import generate_keypair`` call sites are traced too."""
    patches = Patches()
    try:
        for module_name, class_name, attr, kind, capture in PATCH_TABLE:
            module = importlib.import_module(module_name)
            holder = getattr(module, class_name) if class_name else module
            original = holder.__dict__[attr] if class_name \
                else getattr(holder, attr)
            name = f"{class_name}.{attr}" if class_name else attr
            nid = rec.name_id(name, layer_of(module_name))
            label = class_name if capture else None
            if kind == "span":
                replacement = _span(rec, nid, original, label)
            elif kind == "schedule":
                replacement = _schedule(rec, name, layer_of(module_name),
                                        original)
            elif kind == "register":
                replacement = _register(rec, original, label)
            elif kind == "socket":
                replacement = _socket(rec, original)
            else:
                raise ValueError(f"unknown patch kind {kind!r}")
            if class_name:
                patches.replace(holder, attr, original, replacement)
                continue
            for other in list(sys.modules.values()):
                if getattr(other, "__name__", "").startswith("repro") \
                        and other.__dict__.get(attr) is original:
                    patches.replace(other, attr, original, replacement)
    except BaseException:
        patches.restore()
        raise
    return patches
