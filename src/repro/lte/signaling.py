"""Signaling framework shared by every control-plane component.

Each component (UE NAS stack, eNodeB, AGW/MME, SubscriberDB, brokerd) is a
:class:`SignalingNode`: a UDP endpoint with a per-message-type handler
table and *explicit processing costs*.  Costs are charged to the virtual
clock before the handler's outbound messages go out, and accumulated into
``module_time`` — which is exactly the per-module breakdown Fig 7 plots
(AGW + Brokerd proc / eNB proc / UE proc / Other).

Reliability layer
-----------------

Signaling rides single UDP datagrams over links that model loss and
outages, so the framework also provides an *optional* reliable-request
facility (:meth:`SignalingNode.send_request`):

* the sender retransmits on a per-request timeout with capped exponential
  backoff and deterministic (seeded) jitter, keyed by a correlation id,
  until a response arrives, the attempt budget is spent, or an absolute
  deadline passes;
* the receiver keeps a bounded, TTL-evicted duplicate-suppression cache:
  a retransmitted request whose handler already ran has its cached
  response(s) replayed verbatim instead of re-executing the handler — the
  idempotency backstop every SAP exchange relies on.

Plain :meth:`SignalingNode.send` datagrams are untouched, so the layer is
strictly pay-for-use: a loss-free run issues zero retransmissions and
identical wire traffic.

Observability
-------------

Every node owns a :class:`~repro.obs.MetricsRegistry` (``self.metrics``)
— the single source of truth for its counters; the legacy integer
attributes are descriptor views onto it and ``reliable_stats()`` stays a
thin dict view.  When an :class:`repro.obs.Obs` is installed on the
simulator, each handler execution is recorded as a span (named by
:meth:`SignalingNode.span_name`) whose causal parent rides the envelope
alongside the correlation id, and retransmissions / duplicate deliveries
/ dedup-cache replays are annotated as instants.  Without an installed
``Obs`` (the default) the only cost is one failed ``getattr`` per
datagram — no spans, no events, no behavioural change.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import random
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.net import Host, UdpSocket
from repro.obs import CounterAttr, MetricsRegistry

SIGNALING_PORT = 36412  # S1AP's SCTP port, reused for our UDP transport

#: envelope kinds: plain datagram, reliable request, matched response.
KIND_DATAGRAM = "dgram"
KIND_REQUEST = "req"
KIND_RESPONSE = "resp"


@dataclass
class SignalingEnvelope:
    """What actually rides inside the UDP datagram."""

    message: object
    correlation_id: int = 0
    kind: str = KIND_DATAGRAM
    attempt: int = 1
    #: trace propagation (0 = untraced): the sender's trace id and the
    #: span under which the receiver's processing span parents itself.
    trace_id: int = 0
    parent_span: int = 0


@dataclass
class _PendingRequest:
    """Sender-side bookkeeping for one reliable request in flight."""

    dst_ip: str
    dst_port: int
    message: object
    size: int
    timeout: float
    max_attempts: int
    deadline: Optional[float]
    attempts: int = 1
    timer_event: object = None
    on_give_up: Optional[Callable] = None
    on_retransmit: Optional[Callable] = None
    #: trace context captured at send_request time so retransmissions
    #: stay causally linked to the originating span.
    trace_ctx: Optional[tuple] = None


@dataclass
class _CachedRequest:
    """Receiver-side dedup entry: the replies the handler produced."""

    #: (dst_ip, dst_port, message, size) tuples captured from the handler.
    responses: list = field(default_factory=list)
    #: True once the handler has run (duplicates arriving before that are
    #: dropped — the original is still queued behind the processing cost).
    handled: bool = False
    #: True while the handler has deferred its reply (see
    #: :meth:`SignalingNode.defer_reply`): duplicates are dropped, not
    #: replayed, until the deferred completion marks the entry handled.
    deferred: bool = False


@dataclass
class _ReplyContext:
    """Active while a request handler runs: routes its sends back as
    correlated responses and captures them for duplicate replay."""

    src_ip: str
    correlation_id: int
    entry: _CachedRequest


@dataclass
class DeferredReply:
    """A request handler's captured reply/trace context, for completing
    the exchange asynchronously (e.g. from a batching pipeline).

    Obtained via :meth:`SignalingNode.defer_reply` *inside* a handler.
    Until :meth:`complete` is called, retransmitted duplicates of the
    request are dropped (the original is still being processed); after
    it, they replay whatever :meth:`send` produced, exactly as if the
    handler had replied synchronously.
    """

    node: "SignalingNode"
    reply_context: Optional[_ReplyContext]
    obs_ctx: Optional[tuple]
    done: bool = False

    def send(self, dst_ip: str, message: object, size: int = 256,
             dst_port: int = SIGNALING_PORT) -> None:
        """Send under the captured contexts: the message is correlated
        to the original request and recorded for duplicate replay."""
        node = self.node
        saved_reply = node._reply_context
        saved_obs = node._obs_ctx
        node._reply_context = self.reply_context
        node._obs_ctx = self.obs_ctx
        try:
            node.send(dst_ip, message, size=size, dst_port=dst_port)
        finally:
            node._reply_context = saved_reply
            node._obs_ctx = saved_obs

    def complete(self) -> None:
        """Close the exchange: duplicates now replay the captured
        response(s) instead of being dropped.  Idempotent."""
        if self.done:
            return
        self.done = True
        if self.reply_context is not None:
            self.reply_context.entry.deferred = False
            self.reply_context.entry.handled = True


class SignalingNode:
    """Base class for control-plane components.

    Subclasses register handlers with :meth:`on` and send messages with
    :meth:`send`.  ``processing_cost(message)`` consults the subclass's
    cost table (per message type); the handler runs after that delay and
    the time is attributed to this module.
    """

    #: message-type -> seconds of processing charged on receipt.
    processing_costs: dict = {}
    #: fallback per-message processing cost.
    default_processing_cost = 0.0005
    # -- reliable-request knobs (overridable per node/instance) ----------
    #: initial retransmission timeout (seconds).
    request_timeout = 0.4
    #: total transmission attempts before giving up.
    request_max_attempts = 5
    #: exponential backoff factor applied per retransmission.
    retx_backoff = 2.0
    #: cap on the backed-off timeout (seconds).
    retx_max_timeout = 3.0
    #: jitter fraction applied to every retransmission delay.
    retx_jitter = 0.1
    #: receiver-side duplicate-suppression cache TTL (seconds).
    response_cache_ttl = 30.0
    #: span category this node's processing is attributed to in the
    #: Fig 7 leg decomposition ("ue" / "enb" / "agw" / "cloud").
    obs_category = "node"
    #: message-type -> span name: how a subclass maps its message types
    #: onto protocol legs (e.g. ``sap.broker_verify``).
    _SPAN_NAMES: dict = {}

    # -- registry-backed counters (attribute style preserved; the node's
    # MetricsRegistry is the single source of truth) ----------------------
    messages_handled = CounterAttr("signaling.messages_handled")
    messages_sent = CounterAttr("signaling.messages_sent")
    requests_sent = CounterAttr("signaling.requests_sent")
    retransmissions = CounterAttr("signaling.retransmissions")
    requests_failed = CounterAttr("signaling.requests_failed")
    requests_completed = CounterAttr("signaling.requests_completed")
    requests_cancelled = CounterAttr("signaling.requests_cancelled")
    dup_requests = CounterAttr("signaling.dup_requests")
    dup_responses_replayed = CounterAttr("signaling.dup_responses_replayed")
    responses_unmatched = CounterAttr("signaling.responses_unmatched")
    retransmitted_deliveries = \
        CounterAttr("signaling.retransmitted_deliveries")

    def __init__(self, host: Host, name: str, port: int = SIGNALING_PORT):
        self.host = host
        self.sim = host.sim
        self.name = name
        #: per-node metrics; merge registries for a fleet-wide view.
        self.metrics = MetricsRegistry(node=name)
        self.socket = UdpSocket(host, port)
        self.socket.on_datagram = self._on_datagram
        self.port = self.socket.port
        self._handlers: dict[type, Callable] = {}
        #: catch-all handler for message types without a registration
        #: (used by relays like the eNodeB).
        self.default_handler: Optional[Callable] = None
        self.module_time = 0.0
        self.messages_handled = 0
        self.messages_sent = 0
        # Components are single-threaded servers: concurrent messages
        # queue behind each other (what makes attach latency grow under
        # load in the XTRA-SCALE benchmark).
        self._busy_until = 0.0
        #: active trace context (trace_id, span_id) stamped onto sends;
        #: set around handler execution and by long-running procedures.
        self._obs_ctx: Optional[tuple] = None
        # -- reliable-request state (sender side) ------------------------
        self._correlation_ids = itertools.count(1)
        self._pending_requests: dict[int, _PendingRequest] = {}
        # -- reliable-request state (receiver side) ----------------------
        self._request_cache: dict[tuple, _CachedRequest] = {}
        self._request_cache_expiry: list[tuple[float, tuple]] = []  # heap
        self._reply_context: Optional[_ReplyContext] = None
        # -- reliability counters ----------------------------------------
        self.requests_sent = 0
        self.retransmissions = 0
        self.requests_failed = 0
        self.requests_completed = 0
        self.requests_cancelled = 0
        self.dup_requests = 0
        self.dup_responses_replayed = 0
        self.responses_unmatched = 0
        self.retransmitted_deliveries = 0

    @functools.cached_property
    def _retx_rng(self) -> random.Random:
        """Deterministic jitter source, seeded by the node's name so runs
        replay bit-identically under a fixed topology; built when the
        node first arms a request timer, which relays never do."""
        return random.Random(f"retx:{self.name}")

    # -- registration -------------------------------------------------------
    def on(self, message_type: type, handler: Callable) -> None:
        self._handlers[message_type] = handler

    # -- observability ------------------------------------------------------
    def span_name(self, message: object) -> str:
        """Span name for processing ``message`` at this node: its
        ``_SPAN_NAMES`` row, else ``handle.<Type>``."""
        name = self._SPAN_NAMES.get(type(message))
        return name if name is not None \
            else f"handle.{type(message).__name__}"

    # -- sending --------------------------------------------------------------
    def send(self, dst_ip: str, message: object, size: int = 256,
             dst_port: int = SIGNALING_PORT) -> None:
        """Send a signaling message (``size`` = wire bytes).

        Inside a reliable-request handler, a send addressed back to the
        requester is automatically tagged as the request's response and
        recorded for duplicate replay.
        """
        self.messages_sent += 1
        envelope = SignalingEnvelope(message)
        if self._obs_ctx is not None:
            envelope.trace_id, envelope.parent_span = self._obs_ctx
        context = self._reply_context
        if context is not None and dst_ip == context.src_ip:
            envelope.correlation_id = context.correlation_id
            envelope.kind = KIND_RESPONSE
            context.entry.responses.append((dst_ip, dst_port, message, size))
        self.socket.send_to(dst_ip, dst_port, size, envelope)

    def send_request(self, dst_ip: str, message: object, size: int = 256,
                     dst_port: int = SIGNALING_PORT, *,
                     timeout: Optional[float] = None,
                     max_attempts: Optional[int] = None,
                     deadline: Optional[float] = None,
                     on_give_up: Optional[Callable] = None,
                     on_retransmit: Optional[Callable] = None) -> int:
        """Send ``message`` reliably: retransmit with capped exponential
        backoff until a correlated response arrives, ``max_attempts``
        transmissions have been made, or ``deadline`` (absolute sim time)
        passes.  Returns the correlation id.

        ``on_give_up(message)`` fires when the request is abandoned;
        ``on_retransmit(message, attempt)`` before each retransmission.
        The response is dispatched through the normal handler table.
        """
        correlation_id = next(self._correlation_ids)
        pending = _PendingRequest(
            dst_ip=dst_ip, dst_port=dst_port, message=message, size=size,
            timeout=timeout if timeout is not None else self.request_timeout,
            max_attempts=(max_attempts if max_attempts is not None
                          else self.request_max_attempts),
            deadline=deadline, on_give_up=on_give_up,
            on_retransmit=on_retransmit, trace_ctx=self._obs_ctx)
        self._pending_requests[correlation_id] = pending
        self.requests_sent += 1
        self._transmit_request(correlation_id, pending)
        return correlation_id

    def cancel_request(self, correlation_id: int) -> bool:
        """Stop retransmitting a request (e.g. its purpose lapsed).

        A cancelled request is neither completed nor failed: it gets its
        own counter so ``requests_sent == completed + failed + cancelled
        + outstanding`` holds at quiescence.
        """
        pending = self._pending_requests.pop(correlation_id, None)
        if pending is None:
            return False
        if pending.timer_event is not None:
            pending.timer_event.cancel()
        self.requests_cancelled += 1
        return True

    def _transmit_request(self, correlation_id: int,
                          pending: _PendingRequest) -> None:
        self.messages_sent += 1
        envelope = SignalingEnvelope(
            pending.message, correlation_id=correlation_id,
            kind=KIND_REQUEST, attempt=pending.attempts)
        if pending.trace_ctx is not None:
            envelope.trace_id, envelope.parent_span = pending.trace_ctx
        self.socket.send_to(pending.dst_ip, pending.dst_port, pending.size,
                            envelope)
        delay = pending.timeout * (
            1.0 + self.retx_jitter * (2.0 * self._retx_rng.random() - 1.0))
        pending.timer_event = self.sim.schedule(
            delay, self._request_timed_out, correlation_id)

    def _request_timed_out(self, correlation_id: int) -> None:
        pending = self._pending_requests.get(correlation_id)
        if pending is None:
            return
        out_of_attempts = pending.attempts >= pending.max_attempts
        past_deadline = (pending.deadline is not None
                         and self.sim.now >= pending.deadline)
        obs = self.sim.obs
        tracer = obs.tracer if obs is not None and obs.tracing else None
        ctx = pending.trace_ctx or (0, 0)
        if out_of_attempts or past_deadline:
            del self._pending_requests[correlation_id]
            self.requests_failed += 1
            if tracer is not None:
                tracer.instant(
                    "signaling.give_up", self.name, self.sim.now,
                    trace_id=ctx[0], parent_id=ctx[1],
                    category=self.obs_category,
                    data={"corr_id": correlation_id,
                          "attempts": pending.attempts})
            if pending.on_give_up is not None:
                pending.on_give_up(pending.message)
            return
        pending.attempts += 1
        pending.timeout = min(pending.timeout * self.retx_backoff,
                              self.retx_max_timeout)
        self.retransmissions += 1
        if tracer is not None:
            tracer.instant(
                "signaling.retransmit", self.name, self.sim.now,
                trace_id=ctx[0], parent_id=ctx[1],
                category=self.obs_category,
                data={"corr_id": correlation_id,
                      "attempt": pending.attempts})
        if pending.on_retransmit is not None:
            pending.on_retransmit(pending.message, pending.attempts)
        self._transmit_request(correlation_id, pending)

    def charge(self, seconds: float) -> None:
        """Attribute extra processing time to this module (e.g. crypto)."""
        self.module_time += seconds

    def processing_cost(self, message: object) -> float:
        return self.processing_costs.get(type(message),
                                         self.default_processing_cost)

    # -- receiving --------------------------------------------------------------
    def _on_datagram(self, src_ip: str, src_port: int, body: object,
                     sent_at: float) -> None:
        if not isinstance(body, SignalingEnvelope):
            return
        obs = self.sim.obs
        tracer = obs.tracer if obs is not None and obs.tracing else None
        if body.kind == KIND_RESPONSE:
            pending = self._pending_requests.pop(body.correlation_id, None)
            if pending is None:
                # A duplicate/stale response to a request already answered
                # or abandoned: processing it again would double side
                # effects, so drop it.
                self.responses_unmatched += 1
                return
            if pending.timer_event is not None:
                pending.timer_event.cancel()
            self.requests_completed += 1
        elif body.kind == KIND_REQUEST:
            if body.attempt > 1:
                self.retransmitted_deliveries += 1
                if tracer is not None:
                    tracer.instant(
                        "signaling.retx_delivery", self.name, self.sim.now,
                        trace_id=body.trace_id, parent_id=body.parent_span,
                        category=self.obs_category,
                        data={"corr_id": body.correlation_id,
                              "attempt": body.attempt})
                self.note_retransmitted_request(body.message)
            self._evict_request_cache()
            key = (src_ip, body.correlation_id)
            entry = self._request_cache.get(key)
            if entry is not None:
                # Duplicate: replay the cached response(s) instead of
                # re-executing the handler (idempotent receive).
                self.dup_requests += 1
                if entry.handled:
                    if tracer is not None:
                        tracer.instant(
                            "signaling.dedup_replay", self.name,
                            self.sim.now, trace_id=body.trace_id,
                            parent_id=body.parent_span,
                            category=self.obs_category,
                            data={"corr_id": body.correlation_id,
                                  "responses": len(entry.responses)})
                    for dst_ip, dst_port, message, size in entry.responses:
                        self.dup_responses_replayed += 1
                        self.messages_sent += 1
                        self.socket.send_to(
                            dst_ip, dst_port, size,
                            SignalingEnvelope(
                                message, correlation_id=body.correlation_id,
                                kind=KIND_RESPONSE,
                                trace_id=body.trace_id,
                                parent_span=body.parent_span))
                return
            entry = _CachedRequest()
            self._request_cache[key] = entry
            heapq.heappush(self._request_cache_expiry,
                           (self.sim.now + self.response_cache_ttl, key))
        message = body.message
        handler = self._handlers.get(type(message), self.default_handler)
        if handler is None:
            self.unhandled(src_ip, message)
            return
        cost = self.processing_cost(message)
        self.module_time += cost
        self.messages_handled += 1
        start = max(self.sim.now, self._busy_until)
        finish = start + cost
        self._busy_until = finish
        ctx = None
        if tracer is not None and (body.trace_id or cost > 0.0):
            span = tracer.begin(
                self.span_name(message), self.name, self.obs_category,
                start=start, end=finish, trace_id=body.trace_id,
                parent_id=body.parent_span, corr_id=body.correlation_id)
            ctx = span.context
        if body.kind == KIND_REQUEST:
            runner = self._run_request_handler
            args = (handler, src_ip, body.correlation_id, entry, message,
                    ctx)
        else:
            runner = self._run_traced_handler
            args = (handler, src_ip, message, ctx)
        if finish > self.sim.now:
            self.sim.schedule(finish - self.sim.now, runner, *args)
        else:
            runner(*args)

    def _run_traced_handler(self, handler: Callable, src_ip: str,
                            message: object,
                            ctx: Optional[tuple]) -> None:
        """Execute a plain handler with the trace context active, so any
        sends it makes carry the causal parent."""
        saved = self._obs_ctx
        if ctx is not None:
            self._obs_ctx = ctx
        try:
            handler(src_ip, message)
        finally:
            self._obs_ctx = saved

    def defer_reply(self) -> DeferredReply:
        """Capture the current handler's reply/trace context so the
        response can be produced after the handler returns (the entry
        stays unhandled — duplicates are dropped, not replayed — until
        :meth:`DeferredReply.complete`)."""
        context = self._reply_context
        if context is not None:
            context.entry.deferred = True
        return DeferredReply(node=self, reply_context=context,
                             obs_ctx=self._obs_ctx)

    def _run_request_handler(self, handler: Callable, src_ip: str,
                             correlation_id: int, entry: _CachedRequest,
                             message: object,
                             ctx: Optional[tuple] = None) -> None:
        """Execute a request handler with reply capture active."""
        self._reply_context = _ReplyContext(
            src_ip=src_ip, correlation_id=correlation_id, entry=entry)
        saved = self._obs_ctx
        if ctx is not None:
            self._obs_ctx = ctx
        try:
            handler(src_ip, message)
        finally:
            self._reply_context = None
            self._obs_ctx = saved
            if not entry.deferred:
                entry.handled = True

    def _evict_request_cache(self) -> None:
        """Drop dedup entries whose TTL has passed (monotone sweep)."""
        heap = self._request_cache_expiry
        now = self.sim.now
        while heap and heap[0][0] <= now:
            _, key = heapq.heappop(heap)
            self._request_cache.pop(key, None)

    def note_retransmitted_request(self, message: object) -> None:
        """Hook: a request delivery arrived with attempt > 1 (the sender
        retransmitted, i.e. an earlier copy or its response was lost)."""

    def reliable_stats(self) -> dict:
        """Counter snapshot for the reliability layer (all bounded)."""
        return {
            "requests_sent": self.requests_sent,
            "requests_completed": self.requests_completed,
            "requests_failed": self.requests_failed,
            "requests_cancelled": self.requests_cancelled,
            "requests_outstanding": len(self._pending_requests),
            "retransmissions": self.retransmissions,
            "dup_requests": self.dup_requests,
            "dup_responses_replayed": self.dup_responses_replayed,
            "responses_unmatched": self.responses_unmatched,
            "retransmitted_deliveries": self.retransmitted_deliveries,
            "response_cache_size": len(self._request_cache),
        }

    def unhandled(self, src_ip: str, message: object) -> None:
        """Hook for unexpected messages; default is to drop silently."""
