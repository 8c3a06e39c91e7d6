(* p = 2^255 - 19 (prime); g = 2 generates a large subgroup. *)
let p = Bignum.sub (Bignum.shift_left Bignum.one 255) (Bignum.of_int 19)
let g = Bignum.two

type keypair = { secret : Bignum.t; public : Bignum.t }

let p_minus_1 = Bignum.sub p Bignum.one

let generate rng =
  (* Draw a 251-bit secret, clamp away degenerate small values. *)
  let rec draw () =
    let s = Bignum.random rng ~bits:251 in
    if Bignum.compare s (Bignum.of_int 65537) <= 0 then draw () else s
  in
  let secret = draw () in
  { secret; public = Bignum.mod_pow ~base:g ~exp:secret ~modulus:p }

let valid_public e =
  Bignum.compare e Bignum.one > 0 && Bignum.compare e p_minus_1 < 0

let shared_secret ~secret ~peer_public =
  if not (valid_public peer_public) then invalid_arg "Dh.shared_secret: degenerate public element";
  Bignum.mod_pow ~base:peer_public ~exp:secret ~modulus:p
