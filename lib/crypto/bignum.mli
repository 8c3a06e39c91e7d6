(** Arbitrary-precision natural numbers.

    Built from scratch (no zarith in the sealed environment) on
    base-2^26 limbs so that limb products fit comfortably in OCaml's
    63-bit native ints. Provides exactly what the attestation stack
    needs: modular exponentiation for Diffie–Hellman and RSA-lite,
    Miller–Rabin for key generation, and modular inverse for RSA key
    setup. Values are immutable.

    Addition, multiplication and division are schoolbook (Knuth's
    Algorithm D for division): operands are 256–512 bits, where
    asymptotically faster methods do not pay. {!mod_pow} uses
    Montgomery multiplication with a fixed 4-bit exponent window;
    {!mod_pow_reference} keeps the plain square-and-multiply so tests
    and the perf guard can check and time the fast path against it. *)

type t

val zero : t
val one : t
val two : t

(** Conversions. [of_int] requires a non-negative argument. *)
val of_int : int -> t

(** [to_int] raises [Failure] if the value exceeds [max_int]. *)
val to_int : t -> int

(** Big-endian byte-string conversions (leading zeros trimmed on
    [of_bytes_be]; [to_bytes_be ~len] left-pads to [len]). *)
val of_bytes_be : bytes -> t

val to_bytes_be : ?len:int -> t -> bytes

(** Hex (most significant first, no "0x"). *)
val of_hex : string -> t

val to_hex : t -> string

val compare : t -> t -> int
val equal : t -> t -> bool
val is_zero : t -> bool

(** Number of significant bits; [bit_length zero = 0]. *)
val bit_length : t -> int

val add : t -> t -> t

(** [sub a b] requires [a >= b] (naturals only). *)
val sub : t -> t -> t

val mul : t -> t -> t

(** [divmod a b] is [(a / b, a mod b)]. Raises [Division_by_zero]. *)
val divmod : t -> t -> t * t

val rem : t -> t -> t

(** [shift_left a n] / [shift_right a n] by [n] bits. *)
val shift_left : t -> int -> t

val shift_right : t -> int -> t

(** [testbit a i] is bit [i] (0 = least significant). *)
val testbit : t -> int -> bool

val is_even : t -> bool

(** [mod_pow ~base ~exp ~modulus] is [base^exp mod modulus], by
    Montgomery multiplication (CIOS) with a fixed 4-bit window. The
    modulus must be odd: raises [Invalid_argument] on an even modulus
    greater than 1 and [Division_by_zero] on zero; modulus 1 gives
    zero. Every in-tree caller is odd (RSA n, p and q, the DH prime,
    Miller–Rabin candidates). *)
val mod_pow : base:t -> exp:t -> modulus:t -> t

(** [mod_pow_reference] is the same function by right-to-left
    square-and-multiply with [mul] and [rem], for any non-zero
    modulus. Slow; kept as the oracle for {!mod_pow}. *)
val mod_pow_reference : base:t -> exp:t -> modulus:t -> t

(** [mod_inv a m] is the inverse of [a] modulo [m]; [None] when
    [gcd a m <> 1]. *)
val mod_inv : t -> t -> t option

val gcd : t -> t -> t

(** [random rng ~bits] draws uniformly in \[0, 2^bits). *)
val random : Hypertee_util.Xrng.t -> bits:int -> t

(** [random_below rng n] draws uniformly in \[0, n). *)
val random_below : Hypertee_util.Xrng.t -> t -> t

(** Miller–Rabin with [rounds] random bases (default 24). *)
val is_probably_prime : ?rounds:int -> Hypertee_util.Xrng.t -> t -> bool

(** [generate_prime rng ~bits] draws random odd candidates of exactly
    [bits] bits until one passes Miller–Rabin. *)
val generate_prime : Hypertee_util.Xrng.t -> bits:int -> t

val pp : Format.formatter -> t -> unit
