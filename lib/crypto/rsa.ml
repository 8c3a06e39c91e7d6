type public = { n : Bignum.t; e : Bignum.t }
type keypair = {
  public : public;
  d : Bignum.t;
  p : Bignum.t;
  q : Bignum.t;
  dp : Bignum.t;
  dq : Bignum.t;
  qinv : Bignum.t;
}

let modulus_bits = 512
let e_fixed = Bignum.of_int 65537

let generate rng =
  let half = modulus_bits / 2 in
  let rec go () =
    let p = Bignum.generate_prime rng ~bits:half in
    let q = Bignum.generate_prime rng ~bits:half in
    if Bignum.equal p q then go ()
    else begin
      let n = Bignum.mul p q in
      let phi = Bignum.mul (Bignum.sub p Bignum.one) (Bignum.sub q Bignum.one) in
      match Bignum.mod_inv e_fixed phi with
      | None -> go ()
      | Some d ->
        (* The CRT parameters are pure functions of p, q and d: no
           further draws, so a seed yields the same key as before. *)
        {
          public = { n; e = e_fixed };
          d;
          p;
          q;
          dp = Bignum.rem d (Bignum.sub p Bignum.one);
          dq = Bignum.rem d (Bignum.sub q Bignum.one);
          qinv = Option.get (Bignum.mod_inv q p);
        }
    end
  in
  go ()

let key_bytes = modulus_bits / 8

(* PKCS#1 v1.5-shaped padding: 0x00 0x01 FF..FF 0x00 digest. *)
let pad_digest digest =
  let pad_len = key_bytes - Bytes.length digest - 3 in
  if pad_len < 8 then invalid_arg "Rsa.pad_digest: modulus too small";
  let out = Bytes.make key_bytes '\xff' in
  Bytes.set out 0 '\x00';
  Bytes.set out 1 '\x01';
  Bytes.set out (2 + pad_len) '\x00';
  Bytes.blit digest 0 out (3 + pad_len) (Bytes.length digest);
  out

let encoded_message msg = Bignum.of_bytes_be (pad_digest (Sha256.digest msg))

(* Garner's recombination: s = m2 + q * (qinv * (m1 - m2) mod p) is
   em^d mod n, from two half-size exponentiations. *)
let sign key msg =
  let em = encoded_message msg in
  let m1 = Bignum.mod_pow ~base:em ~exp:key.dp ~modulus:key.p in
  let m2 = Bignum.mod_pow ~base:em ~exp:key.dq ~modulus:key.q in
  let m2p = Bignum.rem m2 key.p in
  let diff =
    if Bignum.compare m1 m2p >= 0 then Bignum.sub m1 m2p else Bignum.sub (Bignum.add m1 key.p) m2p
  in
  let h = Bignum.rem (Bignum.mul key.qinv diff) key.p in
  Bignum.to_bytes_be ~len:key_bytes (Bignum.add m2 (Bignum.mul h key.q))

let sign_reference key msg =
  Bignum.to_bytes_be ~len:key_bytes
    (Bignum.mod_pow_reference ~base:(encoded_message msg) ~exp:key.d ~modulus:key.public.n)

let verify pub ~msg ~signature =
  if Bytes.length signature <> key_bytes then false
  else begin
    let s = Bignum.of_bytes_be signature in
    if Bignum.compare s pub.n >= 0 then false
    else begin
      let em = Bignum.mod_pow ~base:s ~exp:pub.e ~modulus:pub.n in
      let expected = pad_digest (Sha256.digest msg) in
      Hypertee_util.Bytes_ext.equal_ct (Bignum.to_bytes_be ~len:key_bytes em) expected
    end
  end

let public_to_bytes pub =
  let n = Bignum.to_bytes_be ~len:key_bytes pub.n in
  let e = Bignum.to_bytes_be ~len:4 pub.e in
  Bytes.cat n e

let public_of_bytes b =
  if Bytes.length b <> key_bytes + 4 then invalid_arg "Rsa.public_of_bytes: bad length";
  {
    n = Bignum.of_bytes_be (Bytes.sub b 0 key_bytes);
    e = Bignum.of_bytes_be (Bytes.sub b key_bytes 4);
  }
