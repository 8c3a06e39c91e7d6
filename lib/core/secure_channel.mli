(** Attested secure channels over the EMCall gate.

    Binds the transport-agnostic record and handshake layer
    ({!Hypertee_channel.Record}, {!Hypertee_channel.Handshake}) to
    this platform: the EMS mints the channel and its binding secret
    (ECHOPEN/ECHACC, docs/PROTOCOL.md §2), relays opaque segments
    (ECHSEND/ECHRECV) — cross-shard when the endpoints live on
    different EMS shards — and quotes come from EATTEST, verified
    against the platform's published EK/AK (§5.3).

    Two levels of API:

    - {!establish} runs a complete session establishment in one
      call and returns both endpoints' sessions — the common case
      for clients and examples.
    - {!connect}/{!accept}/{!step} expose the flight-structured
      machine one doorbell at a time, so tests can interleave
      crashes, faults and migrations with individual flights. *)

(** {1 Attestation plumbing} *)

(** [enclave_auth platform ~enclave ()] — attestation hooks for an
    enclave endpoint: quotes via EATTEST on [enclave], peer quotes
    verified against the platform EK/AK (and, when given,
    [expected_measurement]). [require_peer_quote] makes a responder
    reject initiators that present no quote (§5.3). *)
val enclave_auth :
  Platform.t ->
  enclave:Hypertee_ems.Types.enclave_id ->
  ?expected_measurement:bytes ->
  ?require_peer_quote:bool ->
  unit ->
  Hypertee_channel.Handshake.auth

(** [client_auth platform ()] — hooks for a host-software client: no
    quote of its own, peer quotes verified as in {!enclave_auth}. *)
val client_auth :
  Platform.t -> ?expected_measurement:bytes -> unit -> Hypertee_channel.Handshake.auth

(** {1 Flight-level endpoints} *)

(** One side of a handshake in progress, bound to a platform, a
    caller identity and a channel id. *)
type endpoint

(** [connect platform ~caller ~listener ~auth ()] — ECHOPEN a
    channel to [listener], start an initiator handshake over it and
    transmit the ClientHello (§5.2 flight 1). *)
val connect :
  Platform.t ->
  caller:Hypertee_cs.Emcall.caller ->
  listener:Hypertee_ems.Types.enclave_id ->
  auth:Hypertee_channel.Handshake.auth ->
  ?rekey_after:int ->
  unit ->
  (endpoint, string) result

(** [accept platform ~enclave ~chan ~auth ()] — ECHACC channel
    [chan] as its listening enclave and start the responder
    handshake. *)
val accept :
  Platform.t ->
  enclave:Hypertee_ems.Types.enclave_id ->
  chan:int ->
  auth:Hypertee_channel.Handshake.auth ->
  ?rekey_after:int ->
  unit ->
  (endpoint, string) result

(** Drain this endpoint's queued segments once through the handshake
    machine, transmitting any response flights. [Ok true] if at
    least one segment was consumed. Errors are terminal. *)
val step : endpoint -> (bool, string) result

(** True once this endpoint's handshake completed (§5.2 flight 3
    processed). *)
val handshake_complete : endpoint -> bool

(** The EMS channel id this endpoint's handshake runs over. *)
val endpoint_chan : endpoint -> int

(** Alternate [step] between the two endpoints until both complete;
    a stall (no progress with flights outstanding — e.g. a segment
    destroyed by fault injection) or either side failing is an
    error. The layer never retries: callers re-establish. *)
val run_handshake : endpoint -> endpoint -> (unit, string) result

(** {1 Established sessions} *)

(** An established duplex session: a record connection pumping its
    segments through ECHSEND/ECHRECV. *)
type session

(** The session view of a completed endpoint; an error with the
    handshake failure reason otherwise. *)
val session_of_endpoint : endpoint -> (session, string) result

(** The underlying record connection (stats, generations, poison
    state). *)
val conn : session -> Hypertee_channel.Record.t

(** The EMS channel id this session runs over. *)
val chan : session -> int

(** [send s payload] seals one application message (§3.5) and
    transmits its segments. *)
val send : session -> bytes -> (unit, string) result

(** [recv s] drains every queued segment through the record layer
    and returns the completed events in order. A record-layer
    rejection (tampered, truncated, replayed, reordered segment)
    surfaces here as an error — the connection is then poisoned and
    fails closed (§6). *)
val recv : session -> (Hypertee_channel.Record.event list, string) result

(** [close s] flushes a close_notify alert (§6), ECHCLOSEs the
    channel and wipes the session's secrets. Closing is single-sided
    (the first close removes the fabric entry), so closing a channel
    the peer already closed succeeds. *)
val close : session -> (unit, string) result

(** {1 One-call establishment} *)

(** [establish platform ~listener ()] — open, accept and run the
    full three-flight handshake, returning the (initiator,
    responder) sessions. Without [initiator] the client is host
    software ([User_host]); with it, the channel is
    enclave-to-enclave and the responder demands the initiator's
    quote (§5.3). [expected_measurement] pins the listener's
    measurement on the client side. This is the platform's remote
    attestation (host client) and local attestation (enclave
    initiator). A refused establishment ECHCLOSEs its channel. *)
val establish :
  Platform.t ->
  listener:Hypertee_ems.Types.enclave_id ->
  ?initiator:Hypertee_ems.Types.enclave_id ->
  ?expected_measurement:bytes ->
  ?rekey_after:int ->
  unit ->
  (session * session, string) result
