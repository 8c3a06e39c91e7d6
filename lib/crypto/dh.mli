(** Diffie–Hellman key agreement over Z_p*, p = 2^255 − 19, g = 2.

    The group under the SIGMA exchange ({!Sigma}) that the htch1
    handshake runs for every attested key exchange — remote and local
    attestation, shard and CVM migration (Sec. VI). The paper cites
    Curve25519 ECDH — we use the multiplicative group over the same
    prime, which exercises the same code path (keygen, shared secret)
    with our from-scratch bignum. *)

type keypair = { secret : Bignum.t; public : Bignum.t }

(** The group prime (2^255 − 19) and generator. *)
val p : Bignum.t

val g : Bignum.t

(** Fresh keypair from the given RNG (251-bit exponent). *)
val generate : Hypertee_util.Xrng.t -> keypair

(** [shared_secret ~secret ~peer_public] is the raw group element. *)
val shared_secret : secret:Bignum.t -> peer_public:Bignum.t -> Bignum.t

(** [valid_public e] checks 1 < e < p − 1 (rejects degenerate
    elements an attacker could inject). *)
val valid_public : Bignum.t -> bool
