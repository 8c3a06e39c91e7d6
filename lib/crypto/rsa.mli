(** RSA-lite signatures (512-bit modulus, e = 65537).

    Implements the signing service of the EMS crypto engine: platform
    certificates are signed with the Endorsement Key and enclave
    quotes with the Attestation Key (Sec. VI). 512-bit keys keep key
    generation (Miller–Rabin over {!Bignum.mod_pow}) fast; the
    protocol shape (hash, pad, modexp, verify) is the real one.
    Signing uses the Chinese remainder theorem: two 256-bit
    exponentiations modulo p and q instead of one modulo n. Not
    secure at this size — this is a simulator, not a product. *)

type public = { n : Bignum.t; e : Bignum.t }

(** The private key keeps its factors for CRT signing:
    [dp = d mod (p-1)], [dq = d mod (q-1)], [qinv = q^-1 mod p]. *)
type keypair = {
  public : public;
  d : Bignum.t;
  p : Bignum.t;
  q : Bignum.t;
  dp : Bignum.t;
  dq : Bignum.t;
  qinv : Bignum.t;
}

(** Modulus size in bits used throughout (512). *)
val modulus_bits : int

(** Deterministic keypair from the given RNG. *)
val generate : Hypertee_util.Xrng.t -> keypair

(** [sign key msg] hashes [msg] with SHA-256, pads (PKCS#1-v1.5
    style) and exponentiates by CRT. Deterministic: the same key and
    message always give the same signature. *)
val sign : keypair -> bytes -> bytes

(** [sign_reference] is [sign] as one exponentiation by [d] modulo
    [n] with {!Bignum.mod_pow_reference}; byte-identical output, kept
    as the oracle and the perf guard's baseline for {!sign}. *)
val sign_reference : keypair -> bytes -> bytes

(** [verify pub ~msg ~signature] checks the padded digest. *)
val verify : public -> msg:bytes -> signature:bytes -> bool

(** Serialize a public key for embedding in certificates. *)
val public_to_bytes : public -> bytes

val public_of_bytes : bytes -> public
