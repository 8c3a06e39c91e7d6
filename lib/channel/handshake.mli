(** Three-flight SIGMA-bound handshake (docs/PROTOCOL.md §5).

    Runs the platform's SIGMA attestation flow as channel session
    establishment: ClientHello carries the initiator's random and DH
    share; ServerAttest answers with the responder's share, an
    attestation quote whose user_data commits to the channel binding
    and both DH shares (§5.3), and a SIGMA transcript MAC;
    ClientFinish closes the exchange with the initiator's MAC and —
    for enclave-to-enclave channels — its own quote. On completion
    both sides hold an established {!Record.t} keyed from the SIGMA
    session key, the EMS channel binding and the transcript hash.

    The machine is flight-structured: a driver calls {!start} once,
    transmits the returned segments, and feeds each received segment
    to {!on_segment}, transmitting whatever comes back, until
    {!conn} is [Some]. Any failure is terminal ({!failed}); the
    machine never retries. *)

(** Who speaks first. An initiator may be a host client or an
    enclave; the responder is always the attested (listening)
    enclave. *)
type role = Initiator | Responder

(** Attestation plumbing the handshake calls out to.

    [make_quote] produces this side's quote over the §5.3 user_data
    commitment — mandatory for responders, optional for initiators
    (present = enclave-to-enclave). [verify_quote] judges the peer's
    quote against the expected commitment. [require_peer_quote]
    makes a responder reject initiators that send no quote. *)
type auth = {
  make_quote : (user_data:bytes -> (bytes, string) result) option;
  verify_quote : quote:bytes -> user_data:bytes -> (unit, string) result;
  require_peer_quote : bool;
}

type t

(** [create ~role ~rng ~binding ~auth ()] — [binding] is the 16-byte
    EMS channel-binding secret both endpoints received from
    ECHOPEN/ECHACC (§4.1); [rekey_after] is forwarded to the record
    layer. @raise Invalid_argument on a wrong-size binding or a
    responder without [make_quote]. *)
val create :
  role:role ->
  rng:Hypertee_util.Xrng.t ->
  binding:bytes ->
  auth:auth ->
  ?rekey_after:int ->
  unit ->
  t

(** First flight: an initiator returns its ClientHello segment, a
    responder returns nothing. Calling twice is an error. *)
val start : t -> (bytes list, string) result

(** Feed one received handshake segment; returns the segments to
    transmit in response (possibly none). Errors are terminal. *)
val on_segment : t -> bytes -> (bytes list, string) result

(** The established record connection once the handshake is done. *)
val conn : t -> Record.t option

(** Terminal failure reason, if the handshake failed. *)
val failed : t -> string option

(** True once the handshake completed successfully. *)
val complete : t -> bool

(** The role this machine was created with. *)
val role : t -> role

(** [loopback ~initiator ~responder] runs a complete handshake
    between two freshly created machines over an in-memory pipe: it
    starts [initiator] and delivers every flight to the other side
    until neither has anything left to send. On success it returns
    both established connections and every flight in transmission
    order, each tagged with its sender's role. The first failure on
    either side is returned. For peers that share no transport — the
    conformance suite, and EMS-internal peers such as migrating
    shards, which draw their own binding. *)
val loopback :
  initiator:t -> responder:t -> (Record.t * Record.t * (role * bytes) list, string) result
