(** EMS key management (paper Sec. VI).

    Root keys live in the (simulated) eFuse: the Endorsement Key (EK,
    an RSA keypair whose public half a certificate authority vouches
    for) and the Sealed Key (SK, a random symmetric root). Everything
    else is derived: the Attestation Key (AK) from SK and a salt,
    memory-encryption and sealing keys from SK and the enclave
    measurement. All derivation happens on EMS; CS never sees any of
    these values.

    The EK signs one thing, the platform measurement, which is
    constant for a boot: that certificate is signed once per platform
    and reused by every quote ({!sign_with_ek}). The AK signs each
    quote body afresh. *)

type t

(** [provision rng] burns fresh root keys into the eFuse (the
    manufacturing step). Deterministic given the RNG. *)
val provision : Hypertee_util.Xrng.t -> t

(** Public halves, exportable to verifiers. *)
val ek_public : t -> Hypertee_crypto.Rsa.public

val ak_public : t -> Hypertee_crypto.Rsa.public
(** Public half of the attestation key. *)

(** [sign_with_ek t msg] — platform certificate signature. The last
    (message, signature) pair is memoised, so repeated calls with the
    same message sign once; PKCS#1 v1.5 signing is deterministic, so
    the result is byte-identical to signing afresh. *)
val sign_with_ek : t -> bytes -> bytes

(** [sign_with_ak t msg] — enclave quote signature. *)
val sign_with_ak : t -> bytes -> bytes

(** [memory_key t ~enclave_measurement ~enclave_id] 16-byte AES key
    for enclave private memory. *)
val memory_key : t -> enclave_measurement:bytes -> enclave_id:int -> bytes

(** [shm_key t ~owner ~shm_id] dedicated shared-memory key derived
    from the initial sender's id and the ShmID (Sec. V-A). *)
val shm_key : t -> owner:int -> shm_id:int -> bytes

(** [channel_binding t ~chan ~listener] 16-byte secure-channel
    binding secret (docs/PROTOCOL.md §4.1), derived from SK, the
    channel id and the listening enclave's id. EMS hands it to both
    endpoints at ECHOPEN/ECHACC; the handshake mixes it into the
    master secret so a session is cryptographically pinned to the
    channel the EMS set up. *)
val channel_binding : t -> chan:int -> listener:int -> bytes

(** [sealing_key t ~enclave_measurement] for data sealing. *)
val sealing_key : t -> enclave_measurement:bytes -> bytes

(** [swap_key t] key protecting EWB page blobs. *)
val swap_key : t -> bytes

(** [snapshot_key t] 32-byte HMAC key sealing checkpoint snapshots
    ({!Svc_migrate}). Derived from SK so any EMS shard of the same
    platform can verify and restore a snapshot another shard
    produced. *)
val snapshot_key : t -> bytes

(** [erase t] overwrites the symmetric roots with random-looking
    values (decommissioning); all further derivations differ. *)
val erase : t -> Hypertee_util.Xrng.t -> unit
