(** Measurement, attestation and sealing services (paper Sec. VI).

    - Quotes: EMS signs (platform measurement, enclave measurement,
      user data) — the platform certificate with EK, the enclave
      quote with AK. {!verify_quote} is the one check every quote
      goes through: both signatures, the platform, the user_data
      commitment and, when pinned, the enclave measurement. Remote
      and local attestation alike run the htch1 handshake
      ([Hypertee_channel.Handshake]), whose user_data commits the
      quote to one session (docs/PROTOCOL.md §5.3).
    - Sealing: AES-CTR + MAC under a sealing key derived from the
      enclave measurement, so only the same enclave (same code) on
      the same platform can unseal. *)

(** The signed quote structure returned by EATTEST. *)
type quote = {
  platform_measurement : bytes;
  enclave_measurement : bytes;
  user_data : bytes;
  platform_signature : bytes;  (** EK over platform measurement *)
  quote_signature : bytes;  (** AK over the whole body *)
}

(** [make_quote keys ~platform_measurement ~enclave_measurement
    ~user_data] — the EATTEST service routine. *)
val make_quote :
  Keymgmt.t -> platform_measurement:bytes -> enclave_measurement:bytes -> user_data:bytes -> quote

(** Wire encoding (what travels to the remote verifier). *)
val quote_to_bytes : quote -> bytes

(** Decode a wire quote; [None] on malformed input. *)
val quote_of_bytes : bytes -> quote option

(** [verify_quote ~ek ~ak ~platform_measurement ?enclave_measurement
    ~user_data quote] judges wire-encoded [quote], in this order: it
    decodes; the EK signature over the platform measurement and the
    AK signature over the body verify under the published keys; it
    commits to [user_data]; it comes from [platform_measurement];
    and, when given, it names [enclave_measurement]. The error names
    the first check that failed. *)
val verify_quote :
  ek:Hypertee_crypto.Rsa.public ->
  ak:Hypertee_crypto.Rsa.public ->
  platform_measurement:bytes ->
  ?enclave_measurement:bytes ->
  user_data:bytes ->
  bytes ->
  (unit, string) result

(** [seal keys ~enclave_measurement data] -> sealed blob;
    [unseal] inverts it, [None] on tamper or wrong measurement. *)
val seal : Keymgmt.t -> enclave_measurement:bytes -> bytes -> bytes

(** Inverse of {!seal}; [None] on tamper or wrong measurement. *)
val unseal : Keymgmt.t -> enclave_measurement:bytes -> bytes -> bytes option
