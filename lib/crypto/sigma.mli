(** SIGMA-style authenticated key exchange (sign-and-MAC).

    The remote-attestation flow of Sec. VI: the remote user and the
    enclave run a DH exchange; the platform side signs the transcript
    and its measurements with EK/AK-backed certificates; both ends
    derive session and MAC keys from the DH secret and authenticate
    the exchange with a MAC. This module implements the protocol
    core over abstract "quote" payloads; its one user is the htch1
    handshake ([Hypertee_channel.Handshake]), which every attested
    key exchange on the platform runs. *)

type role = Initiator | Responder

(** One side's ephemeral state. *)
type session

(** Message 1: initiator's DH public value. *)
val start : Hypertee_util.Xrng.t -> role -> session

val public_of : session -> Bignum.t

(** [derive_keys session ~peer_public] completes the DH and derives
    (session_key, mac_key), both 16 bytes. Raises [Invalid_argument]
    on a degenerate peer value. *)
val derive_keys : session -> peer_public:Bignum.t -> bytes * bytes

(** [transcript ~initiator_pub ~responder_pub ~payload] is the byte
    string both sides sign/MAC. *)
val transcript : initiator_pub:Bignum.t -> responder_pub:Bignum.t -> payload:bytes -> bytes

(** [authenticate ~mac_key transcript] is the 32-byte transcript MAC. *)
val authenticate : mac_key:bytes -> bytes -> bytes

(** [check ~mac_key ~transcript ~tag] verifies the transcript MAC. *)
val check : mac_key:bytes -> transcript:bytes -> tag:bytes -> bool
