"""The UE half of the NAS substrate: one attach skeleton under two radios.

The procedure around the key-agreement step is the same in EPS and 5GS
(§4.1: SAP swaps out only the authentication phase): craft the initial
request once, send it, supervise every uplink leg with a retransmission
timer, answer the Security Mode Command, back off on a retryable reject,
and fail or complete cleanly.  :class:`NasUeBase` is that skeleton;
:class:`repro.lte.ue.UeNas` and :class:`repro.fivegc.ue5g.Ue5G` add only
what the AKA cheatsheets list as different between the generations — the
message classes and cost/span tables (class data), identity concealment
(:meth:`initial_request`), the key hierarchy (:meth:`_authenticate`) and
the accept/complete pair.

Legs are supervised one at a time: the last uplink NAS message of the
procedure is re-sent on timeout with capped exponential backoff (seeded
jitter), and the attempt is abandoned cleanly — mobility-management
state reset, ``attach_timeouts`` bumped, the failure delivered via
``on_attach_done`` — once the per-leg budget is spent.  A loss-free
attach completes well inside the first timeout, so the supervision never
fires on the clean path.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.net import Host

from .aka import AkaError
from .nas import message_size
from .security import SecurityContext, smc_mac
from .signaling import CounterAttr, SignalingNode


class NasUeBase(SignalingNode):
    """Attach skeleton shared by the LTE and 5G UEs."""

    obs_category = "ue"
    #: span name for the initial-request crafting work ("sap.ue_craft"
    #: on the CellBricks UEs).
    craft_span_name = "nas.ue_craft"
    # -- supplied by each RAT as class data (plus ``_SPAN_NAMES``) --
    #: the procedure's 3GPP name, for error and time-out wording.
    procedure = "attach"
    attaching_state = "ATTACHING"
    attached_state = "ATTACHED"
    #: seconds charged for crafting the initial request.
    initial_craft_cost = 0.0
    #: the Security Mode Complete message class.
    smc_complete: type
    #: what ``on_attach_done`` receives.
    result_type: type
    # One metric name per counter in both generations, so fleet-wide
    # registry merges aggregate across RATs.
    nas_retransmissions = CounterAttr("ue.nas_retransmissions")
    attach_timeouts = CounterAttr("ue.attach_timeouts")
    retryable_rejects = CounterAttr("ue.retryable_rejects")
    # -- retransmission knobs --
    attach_retx_timeout = 0.4
    attach_retx_backoff = 2.0
    attach_retx_max_timeout = 3.0
    attach_retx_jitter = 0.1
    attach_max_attempts = 5
    # -- retryable-reject backoff knobs (degraded broker shard) --
    reject_backoff = 0.15
    reject_backoff_factor = 2.0
    reject_max_retries = 4

    def __init__(self, host: Host, ran_ip: str, serving_network: str,
                 name: str):
        super().__init__(host, name)
        self.ran_ip = ran_ip
        self.serving_network = serving_network
        self.state = "DEREGISTERED"
        self.security: Optional[SecurityContext] = None
        self.ue_ip: Optional[str] = None
        self.attach_started_at: Optional[float] = None
        self.on_attach_done: Optional[Callable] = None
        # -- leg supervision state --
        self._resend: Optional[Callable[[], None]] = None
        self._give_up: Optional[Callable[[], None]] = None
        self._leg_state = ""
        self._leg_jittered = True
        self._timer_event = None
        self._attempts = 0
        self._timeout_cur = 0.0
        self._initial_request_cache = None
        self._last_auth_rand: Optional[bytes] = None
        self._auth_response = None
        self._attach_span = None
        #: set by the mobility manager inside a switch so the re-auth
        #: nests under the migration root.
        self._obs_parent_ctx: Optional[tuple] = None
        self._reject_retries = 0
        self.nas_retransmissions = 0
        self.attach_timeouts = 0
        self.retryable_rejects = 0

    # -- observability --------------------------------------------------------
    def _obs_begin_attach(self, craft: float) -> None:
        """Open the root ``attach`` span plus its crafting child; every
        send in this procedure then carries the root trace context.  The
        root is named ``attach`` in both generations so the Fig 7
        leg-breakdown exporter reads either trace."""
        obs = self.sim.obs
        if obs is None or not obs.tracing:
            return
        tracer = obs.tracer
        # A non-zero parent keeps a mobility re-auth out of the Fig 7
        # attach breakdowns.
        root = tracer.start_trace("attach", self.name, self.obs_category,
                                  start=self.sim.now,
                                  ctx=self._obs_parent_ctx)
        self._attach_span = root
        self._obs_ctx = root.context
        tracer.begin(self.craft_span_name, self.name, self.obs_category,
                     start=self.sim.now, end=self.sim.now + craft,
                     trace_id=root.trace_id, parent_id=root.span_id)

    def _obs_end_attach(self, status: str, latency: float) -> None:
        """Close the root span and record the outcome in the registry."""
        span = self._attach_span
        if span is not None:
            self._attach_span = None
            obs = self.sim.obs
            if obs is not None and obs.tracing:
                obs.tracer.finish(span, self.sim.now, status=status)
        if status == "ok":
            self.metrics.histogram("attach.latency_ms").observe(
                latency * 1000.0)
        else:
            self.metrics.counter("attach.failures").inc()

    def _obs_degraded_retry(self, reject, delay: float) -> None:
        """Annotate the open attach span when a retryable (degraded
        shard) denial forces a backoff — the trace then shows *why*
        this attach was slow, not just that it was."""
        span = self._attach_span
        if span is None:
            return
        obs = self.sim.obs
        if obs is not None and obs.tracing:
            obs.tracer.instant(
                "attach.degraded_retry", self.name, self.sim.now,
                trace_id=span.trace_id, parent_id=span.span_id,
                category=self.obs_category,
                data={"retry": self._reject_retries,
                      "backoff_ms": round(delay * 1000.0, 3),
                      "cause": getattr(reject, "cause", "") or "degraded"})

    # -- attach ---------------------------------------------------------------
    def craft_cost(self) -> float:
        """Cost of crafting the initial request (the CellBricks UEs'
        authReqU crafting overrides it)."""
        return self.initial_craft_cost

    def attach(self) -> None:
        """Start the procedure (the §6.1 latency clock starts now)."""
        if self.state not in ("DEREGISTERED", "REJECTED"):
            raise RuntimeError(f"attach() in state {self.state}")
        self.state = self.attaching_state
        self.attach_started_at = self.sim.now
        # A fresh attempt starts from clean MM state: stale keys from an
        # earlier attach must never validate this one's SMC.
        self._clear_mm_state()
        self._last_auth_rand = None
        self._auth_response = None
        self._reject_retries = 0
        craft = self.craft_cost()
        self.charge(craft)
        self._obs_begin_attach(craft)
        self.sim.schedule(craft, self._send_initial_request)

    def _uplink(self, nas) -> None:
        self.send(self.ran_ip, nas, size=message_size(nas))

    def _send_initial_request(self) -> None:
        # The request is crafted ONCE per attach attempt and the same
        # bytes are retransmitted: for the CellBricks UE this keeps the
        # SAP nonce stable so the broker's idempotency cache (not its
        # replay window) catches the duplicate.
        request = self.initial_request()
        self._initial_request_cache = request
        self._uplink(request)
        self._supervise(self._resend_initial_request)

    def _resend_initial_request(self) -> None:
        request = self._initial_request_cache
        if request is not None:
            self._uplink(request)

    def initial_request(self):
        """The first NAS message: how the RAT presents the subscriber's
        identity (overridden again by the CellBricks UEs)."""
        raise NotImplementedError

    def _clear_mm_state(self) -> None:
        """Forget the keys and address of the current attachment."""
        self.security = None
        self.ue_ip = None

    # -- per-leg retransmission supervision ------------------------------------
    def _supervise(self, resend: Callable[[], None],
                   give_up: Optional[Callable[[], None]] = None,
                   jittered: bool = True) -> None:
        """(Re)arm the retransmission timer around the given leg.

        Each leg (initial request, auth response, SMC complete) gets a
        fresh attempt budget: any downlink progress proves the path was
        recently alive.  The leg is live only while the UE stays in the
        state it was armed in; ``give_up`` runs when its budget is spent
        (default: fail the attach).
        """
        self._resend = resend
        self._give_up = give_up or self._attach_timed_out
        self._leg_state = self.state
        self._leg_jittered = jittered
        self._attempts = 1
        self._timeout_cur = self.attach_retx_timeout
        self._arm()

    def _arm(self) -> None:
        self._cancel()
        delay = self._timeout_cur
        if self._leg_jittered:
            delay *= 1.0 + self.attach_retx_jitter \
                * (2.0 * self._retx_rng.random() - 1.0)
        self._timer_event = self.sim.schedule(delay, self._timer_fired)

    def _cancel(self) -> None:
        if self._timer_event is not None:
            self._timer_event.cancel()
            self._timer_event = None

    def _stop(self) -> None:
        self._cancel()
        self._resend = None

    def _timer_fired(self) -> None:
        self._timer_event = None
        if self.state != self._leg_state or self._resend is None:
            return
        if self._attempts >= self.attach_max_attempts:
            self.attach_timeouts += 1
            self._resend = None
            self._give_up()
            return
        self._attempts += 1
        self._timeout_cur = min(
            self._timeout_cur * self.attach_retx_backoff,
            self.attach_retx_max_timeout)
        self.nas_retransmissions += 1
        obs = self.sim.obs
        if obs is not None and obs.tracing and self._attach_span is not None:
            obs.tracer.instant(
                "nas.retransmit", self.name, self.sim.now,
                trace_id=self._attach_span.trace_id,
                parent_id=self._attach_span.span_id,
                category=self.obs_category,
                data={"attempt": self._attempts})
        self._resend()
        self._arm()

    def _attach_timed_out(self) -> None:
        self._on_attach_give_up()
        self._fail(f"{self.procedure} timed out after "
                   f"{self.attach_max_attempts} attempts")

    def _on_attach_give_up(self) -> None:
        """Hook: reset MM state when an attach attempt is abandoned."""
        self._clear_mm_state()

    # -- key agreement ---------------------------------------------------------
    def _on_auth_request(self, src_ip: str, request) -> None:
        if self.state != self.attaching_state:
            return  # stale challenge from an abandoned attempt
        if request.rand == self._last_auth_rand \
                and self._auth_response is not None:
            # Duplicate challenge (our response was lost): replaying the
            # stored response avoids re-running AKA, whose SQN check
            # would reject the repeated vector.
            self._resend_auth_response()
            return
        try:
            response = self._authenticate(request)
        except AkaError as exc:
            self._fail(f"network authentication failed: {exc}")
            return
        self._last_auth_rand = request.rand
        self._auth_response = response
        self._resend_auth_response()
        self._supervise(self._resend_auth_response)

    def _authenticate(self, request):
        """Run the RAT's AKA on the challenge: install ``self.security``
        from its key hierarchy and return the response message.  Raises
        :class:`~repro.lte.aka.AkaError` if the network is not authentic."""
        raise NotImplementedError

    def _resend_auth_response(self) -> None:
        response = self._auth_response
        if response is not None:
            self._uplink(response)

    # -- SMC (shared by baseline and CellBricks) -----------------------------------
    def _on_smc(self, src_ip: str, command) -> None:
        if self.state != self.attaching_state:
            return  # stale command from an abandoned attempt
        if self.security is None:
            # The key-agreement downlink (AKA challenge / SAP response)
            # was lost and the SMC overtook its retransmission: drop it.
            # Our own resend of the previous uplink makes the network
            # replay both legs, so the attach still converges.
            return
        expected = smc_mac(self.security.k_nas_int,
                           command.enc_alg, command.int_alg)
        if command.mac != expected:
            self._fail("SMC MAC verification failed")
            return
        self._send_smc_complete()
        self._supervise(self._send_smc_complete)

    def _send_smc_complete(self) -> None:
        if self.security is None:
            return
        self._uplink(self.smc_complete(
            mac=smc_mac(self.security.k_nas_int, 0xFF, 0xFF)))

    # -- completion -------------------------------------------------------------------
    def _succeed(self, **fields) -> None:
        """The accept arrived: close the span and deliver the result."""
        latency = self.sim.now - self.attach_started_at
        self._obs_end_attach("ok", latency)
        self._deliver(self.result_type(success=True, latency=latency,
                                       **fields))

    def _deliver(self, result) -> None:
        if self.on_attach_done is not None:
            self.on_attach_done(result)

    def _on_reject(self, src_ip: str, reject) -> None:
        if self.state != self.attaching_state:
            return  # stale reject (e.g. we already timed out and moved on)
        if getattr(reject, "retryable", False) \
                and self._reject_retries < self.reject_max_retries:
            # Transient broker-side denial (degraded shard mid-failover):
            # back off and re-attach with a fresh nonce instead of
            # treating it as a terminal reject.
            self._reject_retries += 1
            self.retryable_rejects += 1
            self._stop()
            self._on_attach_give_up()
            delay = self.reject_backoff * (
                self.reject_backoff_factor ** (self._reject_retries - 1))
            delay *= 1.0 + self.attach_retx_jitter \
                * (2.0 * self._retx_rng.random() - 1.0)
            self._obs_degraded_retry(reject, delay)
            self.sim.schedule(delay, self._retry_after_reject)
            return
        self._fail(getattr(reject, "cause", "rejected"))

    def _retry_after_reject(self) -> None:
        if self.state != self.attaching_state:
            return  # detached or abandoned while backing off
        self._send_initial_request()

    def _fail(self, cause: str) -> None:
        self._stop()
        self.state = "REJECTED"
        latency = (self.sim.now - self.attach_started_at
                   if self.attach_started_at is not None else 0.0)
        self._obs_end_attach("error", latency)
        self._deliver(self.result_type(success=False, latency=latency,
                                       cause=cause))

    # -- leaving ------------------------------------------------------------------------
    def detach_and_forget(self) -> None:
        """Switch-off style detach (TS 24.301 / 24.501): tell the network
        we are leaving and deregister locally without waiting for an
        accept — what a CellBricks UE does the instant it decides to
        move."""
        if self.state == self.attached_state:
            self._send_switch_off()
        self.state = "DEREGISTERED"
        self._clear_mm_state()

    def _send_switch_off(self) -> None:
        """Send the RAT's switch-off detach/deregistration request."""
        raise NotImplementedError

    def retarget(self, ran_ip: str, serving_network: str) -> None:
        """Point the UE at a different base station (host-driven
        mobility)."""
        self.ran_ip = ran_ip
        self.serving_network = serving_network
