(** HMAC-SHA256 (RFC 2104) and HKDF (RFC 5869).

    All of HyperTEE's key derivation (Sec. VI, "Key management") runs
    through HKDF: attestation key from SK + salt, sealing keys from
    enclave measurement + SK, memory keys from SK + measurement. *)

(** 32-byte HMAC-SHA256 tag. Any key length. *)
val hmac : key:bytes -> bytes -> bytes

(** HKDF-Extract: [extract ~salt ikm] is the 32-byte PRK. *)
val extract : salt:bytes -> bytes -> bytes

(** HKDF-Expand: [expand ~prk ~info len] with [len <= 255 * 32]. *)
val expand : prk:bytes -> info:bytes -> int -> bytes

(** One-call derive: extract then expand. *)
val derive : ikm:bytes -> salt:bytes -> info:string -> int -> bytes
