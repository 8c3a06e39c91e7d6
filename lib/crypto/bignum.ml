(* Naturals in base 2^26. Limb i holds bits [26*i, 26*(i+1)).
   Invariant: no trailing zero limbs (canonical form), so zero is the
   empty array. Schoolbook add/sub/mul and Knuth division: the
   attestation stack uses 256–512 bit operands, where asymptotics do
   not pay. [mod_pow] runs Montgomery multiplication in place over
   fixed-width limb arrays instead of [mul] + [rem] per step. *)

let limb_bits = 26
let limb_mask = (1 lsl limb_bits) - 1

type t = int array (* little-endian limbs, canonical *)

let zero : t = [||]
let one : t = [| 1 |]
let two : t = [| 2 |]

let normalize (a : int array) : t =
  let n = ref (Array.length a) in
  while !n > 0 && a.(!n - 1) = 0 do
    decr n
  done;
  if !n = Array.length a then a else Array.sub a 0 !n

let is_zero a = Array.length a = 0

let of_int v =
  if v < 0 then invalid_arg "Bignum.of_int: negative";
  let rec limbs v = if v = 0 then [] else (v land limb_mask) :: limbs (v lsr limb_bits) in
  Array.of_list (limbs v)

let to_int a =
  let bits = Array.length a * limb_bits in
  if bits > 62 && Array.length a > 0 then begin
    (* Allow values that still fit even with a high top limb. *)
    let v = ref 0 in
    Array.iteri
      (fun i limb ->
        let shifted = limb lsl (limb_bits * i) in
        if i * limb_bits >= 62 && limb <> 0 then failwith "Bignum.to_int: overflow";
        v := !v lor shifted)
      a;
    !v
  end
  else begin
    let v = ref 0 in
    for i = Array.length a - 1 downto 0 do
      v := (!v lsl limb_bits) lor a.(i)
    done;
    !v
  end

let compare (a : t) (b : t) =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then Stdlib.compare la lb
  else begin
    let rec go i =
      if i < 0 then 0
      else if a.(i) <> b.(i) then Stdlib.compare a.(i) b.(i)
      else go (i - 1)
    in
    go (la - 1)
  end

let equal a b = compare a b = 0

let bit_length a =
  let n = Array.length a in
  if n = 0 then 0
  else begin
    let top = a.(n - 1) in
    let rec width v acc = if v = 0 then acc else width (v lsr 1) (acc + 1) in
    ((n - 1) * limb_bits) + width top 0
  end

let add a b =
  let la = Array.length a and lb = Array.length b in
  let n = Stdlib.max la lb + 1 in
  let out = Array.make n 0 in
  let carry = ref 0 in
  for i = 0 to n - 1 do
    let s = (if i < la then a.(i) else 0) + (if i < lb then b.(i) else 0) + !carry in
    out.(i) <- s land limb_mask;
    carry := s lsr limb_bits
  done;
  assert (!carry = 0);
  normalize out

let sub a b =
  if compare a b < 0 then invalid_arg "Bignum.sub: would be negative";
  let la = Array.length a and lb = Array.length b in
  let out = Array.make la 0 in
  let borrow = ref 0 in
  for i = 0 to la - 1 do
    let d = a.(i) - (if i < lb then b.(i) else 0) - !borrow in
    if d < 0 then begin
      out.(i) <- d + (1 lsl limb_bits);
      borrow := 1
    end
    else begin
      out.(i) <- d;
      borrow := 0
    end
  done;
  assert (!borrow = 0);
  normalize out

let mul a b =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then zero
  else begin
    let out = Array.make (la + lb) 0 in
    for i = 0 to la - 1 do
      let carry = ref 0 in
      let ai = a.(i) in
      for j = 0 to lb - 1 do
        (* ai*bj <= (2^26-1)^2 < 2^52; + out + carry stays < 2^54. *)
        let s = out.(i + j) + (ai * b.(j)) + !carry in
        out.(i + j) <- s land limb_mask;
        carry := s lsr limb_bits
      done;
      let k = ref (i + lb) in
      while !carry <> 0 do
        let s = out.(!k) + !carry in
        out.(!k) <- s land limb_mask;
        carry := s lsr limb_bits;
        incr k
      done
    done;
    normalize out
  end

let shift_left a n =
  if is_zero a || n = 0 then if n = 0 then a else a
  else begin
    let limb_shift = n / limb_bits and bit_shift = n mod limb_bits in
    let la = Array.length a in
    let out = Array.make (la + limb_shift + 1) 0 in
    for i = 0 to la - 1 do
      let v = a.(i) lsl bit_shift in
      out.(i + limb_shift) <- out.(i + limb_shift) lor (v land limb_mask);
      out.(i + limb_shift + 1) <- out.(i + limb_shift + 1) lor (v lsr limb_bits)
    done;
    normalize out
  end

let shift_right a n =
  if is_zero a || n = 0 then a
  else begin
    let limb_shift = n / limb_bits and bit_shift = n mod limb_bits in
    let la = Array.length a in
    if limb_shift >= la then zero
    else begin
      let out = Array.make (la - limb_shift) 0 in
      for i = 0 to la - limb_shift - 1 do
        let lo = a.(i + limb_shift) lsr bit_shift in
        let hi =
          if bit_shift = 0 || i + limb_shift + 1 >= la then 0
          else (a.(i + limb_shift + 1) lsl (limb_bits - bit_shift)) land limb_mask
        in
        out.(i) <- lo lor hi
      done;
      normalize out
    end
  end

let testbit a i =
  let limb = i / limb_bits in
  if limb >= Array.length a then false else a.(limb) land (1 lsl (i mod limb_bits)) <> 0

let is_even a = not (testbit a 0)

(* Division by a single limb: used directly and as the base case of
   long division. *)
let divmod_limb a d =
  assert (d > 0 && d <= limb_mask);
  let la = Array.length a in
  let q = Array.make la 0 in
  let r = ref 0 in
  for i = la - 1 downto 0 do
    (* carry < 2^26, so carry*2^26 + limb < 2^52: safe in native int. *)
    let cur = (!r lsl limb_bits) lor a.(i) in
    q.(i) <- cur / d;
    r := cur mod d
  done;
  (normalize q, of_int !r)

(* Knuth Algorithm D over base-2^26 limbs, with normalization so the
   divisor's top limb has its high bit set and the 2-limb quotient
   estimate is off by at most 2. *)
let divmod a b =
  if is_zero b then raise Division_by_zero;
  if compare a b < 0 then (zero, a)
  else if Array.length b = 1 then divmod_limb a b.(0)
  else begin
    (* Normalize: shift both so divisor top limb >= 2^25. *)
    let shift =
      let top = b.(Array.length b - 1) in
      let rec go v acc = if v land (1 lsl (limb_bits - 1)) <> 0 then acc else go (v lsl 1) (acc + 1) in
      go top 0
    in
    let u0 = shift_left a shift and v = shift_left b shift in
    let n = Array.length v in
    let m = Array.length u0 - n in
    (* Working copy of the dividend with one extra top limb. *)
    let u = Array.make (Array.length u0 + 1) 0 in
    Array.blit u0 0 u 0 (Array.length u0);
    let q = Array.make (m + 1) 0 in
    let v_top = v.(n - 1) and v_next = v.(n - 2) in
    for j = m downto 0 do
      (* Estimate qhat from the top two limbs of the current window. *)
      let num = (u.(j + n) lsl limb_bits) lor u.(j + n - 1) in
      let qhat = ref (num / v_top) and rhat = ref (num mod v_top) in
      if !qhat > limb_mask then begin
        qhat := limb_mask;
        rhat := num - (limb_mask * v_top)
      end;
      let continue_adjust = ref true in
      while !continue_adjust && !rhat <= limb_mask do
        (* Refine with the third limb (Knuth's test). *)
        if !qhat * v_next > (!rhat lsl limb_bits) lor u.(j + n - 2) then begin
          decr qhat;
          rhat := !rhat + v_top
        end
        else continue_adjust := false
      done;
      (* Multiply-subtract: u[j .. j+n] -= qhat * v. *)
      let borrow = ref 0 and carry = ref 0 in
      for i = 0 to n - 1 do
        let p = (!qhat * v.(i)) + !carry in
        carry := p lsr limb_bits;
        let d = u.(j + i) - (p land limb_mask) - !borrow in
        if d < 0 then begin
          u.(j + i) <- d + (1 lsl limb_bits);
          borrow := 1
        end
        else begin
          u.(j + i) <- d;
          borrow := 0
        end
      done;
      let d = u.(j + n) - !carry - !borrow in
      if d < 0 then begin
        (* qhat was one too large: add the divisor back. *)
        u.(j + n) <- d + (1 lsl limb_bits);
        decr qhat;
        let c = ref 0 in
        for i = 0 to n - 1 do
          let s = u.(j + i) + v.(i) + !c in
          u.(j + i) <- s land limb_mask;
          c := s lsr limb_bits
        done;
        u.(j + n) <- (u.(j + n) + !c) land limb_mask
      end
      else u.(j + n) <- d;
      q.(j) <- !qhat
    done;
    let r = normalize (Array.sub u 0 n) in
    (normalize q, shift_right r shift)
  end

let rem a b = snd (divmod a b)

let mod_pow_reference ~base ~exp ~modulus =
  if is_zero modulus then raise Division_by_zero;
  if equal modulus one then zero
  else begin
    let result = ref one in
    let b = ref (rem base modulus) in
    let nbits = bit_length exp in
    for i = 0 to nbits - 1 do
      if testbit exp i then result := rem (mul !result !b) modulus;
      if i < nbits - 1 then b := rem (mul !b !b) modulus
    done;
    !result
  end

(* Montgomery arithmetic modulo an odd [m] of [n] limbs, R = 2^(26n).
   Residues are n-limb arrays (not canonical: zero-padded) below m.
   [minv] is -m^-1 mod 2^26; [t] is the (n+1)-limb accumulator. *)
type mont = { m : int array; minv : int; t : int array }

let mont_create m =
  let m0 = m.(0) in
  (* Newton's iteration doubles the correct low bits of m0^-1 each
     step; m0 is its own inverse mod 8, so four steps reach 26 bits. *)
  let inv = ref m0 in
  for _ = 1 to 4 do
    inv := !inv * ((2 - (m0 * !inv)) land limb_mask) land limb_mask
  done;
  { m; minv = (1 lsl limb_bits) - !inv; t = Array.make (Array.length m + 1) 0 }

(* Unchecked access for [mont_mul]'s inner loop: every array there
   has n limbs, [t] n+1, and indices stay below those bounds. *)
let[@inline always] ( .%() ) a i = Array.unsafe_get (a : int array) i
let[@inline always] ( .%()<- ) a i v = Array.unsafe_set (a : int array) i v

(* [mont_mul c out a b] stores a*b/R mod m in [out] for a, b < m.
   Each outer step adds a_i*b and q*m, q chosen so the low limb
   cancels, then drops that limb (operand scanning, Koç–Acar–Kaliski
   1996), so t stays below 2m. [out] may alias [a] or [b]: it is
   written only after the last read. Every limb product is < 2^52,
   so sums stay well inside 63 bits. *)
let mont_mul c out a b =
  let m = c.m and t = c.t and minv = c.minv in
  let n = Array.length m in
  Array.fill t 0 (n + 1) 0;
  for i = 0 to n - 1 do
    let ai = a.%(i) in
    let s = t.%(0) + (ai * b.%(0)) in
    let q = (s land limb_mask) * minv land limb_mask in
    let c1 = ref (s lsr limb_bits) in
    let c2 = ref (((s land limb_mask) + (q * m.%(0))) lsr limb_bits) in
    for j = 1 to n - 1 do
      let s = t.%(j) + (ai * b.%(j)) + !c1 in
      c1 := s lsr limb_bits;
      let u = (s land limb_mask) + (q * m.%(j)) + !c2 in
      c2 := u lsr limb_bits;
      t.%(j - 1) <- u land limb_mask
    done;
    let s = t.%(n) + !c1 + !c2 in
    t.%(n - 1) <- s land limb_mask;
    t.%(n) <- s lsr limb_bits
  done;
  (* t < 2m: at most one subtraction of m. *)
  let rec below i = i >= 0 && (t.(i) < m.(i) || (t.(i) = m.(i) && below (i - 1))) in
  if t.(n) = 0 && below (n - 1) then Array.blit t 0 out 0 n
  else begin
    let borrow = ref 0 in
    for i = 0 to n - 1 do
      let d = t.(i) - m.(i) - !borrow in
      out.(i) <- d land limb_mask;
      borrow := if d < 0 then 1 else 0
    done
  end

(* Bits [pos, pos+4) of [e], for pos below [bit_length e]; a window
   may straddle two limbs. *)
let window e pos =
  let li = pos / limb_bits and off = pos mod limb_bits in
  let lo = e.(li) lsr off in
  let hi =
    if off > limb_bits - 4 && li + 1 < Array.length e then e.(li + 1) lsl (limb_bits - off) else 0
  in
  (lo lor hi) land 15

(* Left-to-right fixed 4-bit window: table.(k) = base^k in Montgomery
   form, four squarings and at most one multiplication per window. *)
let mod_pow ~base ~exp ~modulus =
  if is_zero modulus then raise Division_by_zero;
  if equal modulus one then zero
  else if is_even modulus then invalid_arg "Bignum.mod_pow: even modulus"
  else begin
    let c = mont_create modulus in
    let n = Array.length modulus in
    let padded x =
      let out = Array.make n 0 in
      Array.blit x 0 out 0 (Array.length x);
      out
    in
    let to_mont x = padded (rem (shift_left x (limb_bits * n)) modulus) in
    let table = Array.make 16 [||] in
    table.(0) <- to_mont one;
    table.(1) <- to_mont base;
    for k = 2 to 15 do
      table.(k) <- Array.make n 0;
      mont_mul c table.(k) table.(k - 1) table.(1)
    done;
    let top = (bit_length exp + 3) / 4 - 1 in
    let acc = Array.copy table.(if top < 0 then 0 else window exp (4 * top)) in
    for w = top - 1 downto 0 do
      for _ = 1 to 4 do
        mont_mul c acc acc acc
      done;
      let d = window exp (4 * w) in
      if d <> 0 then mont_mul c acc acc table.(d)
    done;
    mont_mul c acc acc (padded one);
    normalize acc
  end

let gcd a b =
  let rec go a b = if is_zero b then a else go b (rem a b) in
  if compare a b >= 0 then go a b else go b a

(* Iterative extended Euclid. Coefficients can go negative, so each
   is carried as (magnitude, sign). Maintains the invariant
   s * a = r (mod m) for the (r, s) pairs. *)
let mod_inv a m =
  if is_zero m then raise Division_by_zero;
  if equal m one then None
  else begin
    let a = rem a m in
    if is_zero a then None
    else begin
      (* signed subtract: x - y as (magnitude, sign) given signed inputs *)
      let signed_sub (x, xn) (y, yn) =
        if xn = yn then
          if compare x y >= 0 then (sub x y, xn) else (sub y x, not xn)
        else (add x y, xn)
      in
      let r0 = ref a and r1 = ref m in
      let s0 = ref (one, false) and s1 = ref (zero, false) in
      while not (is_zero !r1) do
        let q, r = divmod !r0 !r1 in
        let s1_mag, s1_neg = !s1 in
        let qs1 = (mul q s1_mag, s1_neg) in
        let next_s = signed_sub !s0 qs1 in
        r0 := !r1;
        r1 := r;
        s0 := !s1;
        s1 := next_s
      done;
      if equal !r0 one then begin
        let mag, neg = !s0 in
        let mag = rem mag m in
        Some (if neg && not (is_zero mag) then sub m mag else mag)
      end
      else None
    end
  end

(* Byte k from the least significant end sits at bit 8k: in limb
   8k/26 at offset 8k mod 26, spilling into the next limb when the
   offset exceeds 18. *)
let of_bytes_be b =
  let len = Bytes.length b in
  let out = Array.make (((8 * len) + limb_bits - 1) / limb_bits) 0 in
  for k = 0 to len - 1 do
    let v = Char.code (Bytes.get b (len - 1 - k)) in
    let li = 8 * k / limb_bits and off = 8 * k mod limb_bits in
    out.(li) <- out.(li) lor ((v lsl off) land limb_mask);
    if off > limb_bits - 8 then out.(li + 1) <- out.(li + 1) lor (v lsr (limb_bits - off))
  done;
  normalize out

let to_bytes_be ?len a =
  let used = (bit_length a + 7) / 8 in
  let nbytes = Stdlib.max 1 used in
  (match len with
  | Some l when nbytes > l -> invalid_arg "Bignum.to_bytes_be: value too large for len"
  | _ -> ());
  let nbytes = match len with Some l -> Stdlib.max l nbytes | None -> nbytes in
  let out = Bytes.make nbytes '\000' in
  let la = Array.length a in
  for k = 0 to used - 1 do
    let li = 8 * k / limb_bits and off = 8 * k mod limb_bits in
    let hi = if off > limb_bits - 8 && li + 1 < la then a.(li + 1) lsl (limb_bits - off) else 0 in
    Bytes.set out (nbytes - 1 - k) (Char.chr (((a.(li) lsr off) lor hi) land 0xff))
  done;
  out

let of_hex s = of_bytes_be (Hypertee_util.Bytes_ext.of_hex (if String.length s mod 2 = 1 then "0" ^ s else s))

let to_hex a =
  let h = Hypertee_util.Bytes_ext.to_hex (to_bytes_be a) in
  (* Trim leading zeros but keep at least one digit. *)
  let n = String.length h in
  let rec first i = if i < n - 1 && h.[i] = '0' then first (i + 1) else i in
  String.sub h (first 0) (n - first 0)

let random rng ~bits =
  if bits <= 0 then zero
  else begin
    let nlimbs = (bits + limb_bits - 1) / limb_bits in
    let out = Array.make nlimbs 0 in
    for i = 0 to nlimbs - 1 do
      out.(i) <- Hypertee_util.Xrng.int rng (limb_mask + 1)
    done;
    (* Mask off bits above [bits]. *)
    let top_bits = bits - ((nlimbs - 1) * limb_bits) in
    out.(nlimbs - 1) <- out.(nlimbs - 1) land ((1 lsl top_bits) - 1);
    normalize out
  end

let random_below rng n =
  if is_zero n then invalid_arg "Bignum.random_below: zero bound";
  let bits = bit_length n in
  let rec go () =
    let c = random rng ~bits in
    if compare c n < 0 then c else go ()
  in
  go ()

let is_probably_prime ?(rounds = 24) rng n =
  if compare n two < 0 then false
  else if equal n two || equal n (of_int 3) then true
  else if is_even n then false
  else begin
    (* Write n-1 = d * 2^s. *)
    let n_minus_1 = sub n one in
    let rec split d s = if is_even d then split (shift_right d 1) (s + 1) else (d, s) in
    let d, s = split n_minus_1 0 in
    let witness a =
      let x = ref (mod_pow ~base:a ~exp:d ~modulus:n) in
      if equal !x one || equal !x n_minus_1 then false
      else begin
        let composite = ref true in
        (try
           for _ = 1 to s - 1 do
             x := rem (mul !x !x) n;
             if equal !x n_minus_1 then begin
               composite := false;
               raise Exit
             end
           done
         with Exit -> ());
        !composite
      end
    in
    let rec rounds_loop i =
      if i = 0 then true
      else begin
        let a = add two (random_below rng (sub n (of_int 3))) in
        if witness a then false else rounds_loop (i - 1)
      end
    in
    rounds_loop rounds
  end

(* Small primes for trial division: discards ~90% of random odd
   candidates before the expensive Miller-Rabin rounds. *)
let small_primes =
  let limit = 1000 in
  let sieve = Array.make (limit + 1) true in
  sieve.(0) <- false;
  sieve.(1) <- false;
  for i = 2 to limit do
    if sieve.(i) then begin
      let j = ref (i * i) in
      while !j <= limit do
        sieve.(!j) <- false;
        j := !j + i
      done
    end
  done;
  let acc = ref [] in
  for i = limit downto 2 do
    if sieve.(i) then acc := i :: !acc
  done;
  Array.of_list !acc

let divisible_by_small_prime n =
  let rec go i =
    if i >= Array.length small_primes then false
    else begin
      let p = small_primes.(i) in
      let _, r = divmod_limb n p in
      if is_zero r then not (equal n (of_int p)) else go (i + 1)
    end
  in
  go 0

(* About ln(2^bits)/2 odd candidates are drawn per prime on average;
   64 per bit is over 100 times that. A run that long means Miller–Rabin
   rejects everything (a broken [mod_pow]), so fail instead of looping. *)
let generate_prime rng ~bits =
  if bits < 2 then invalid_arg "Bignum.generate_prime: need >= 2 bits";
  let rec go tries =
    if tries = 0 then failwith "Bignum.generate_prime: no prime found";
    let c = random rng ~bits in
    (* Force exact bit width and oddness. *)
    let c = add c (shift_left one (bits - 1)) in
    let c = if is_even c then add c one else c in
    let c = if bit_length c > bits then sub c (shift_left one bits) else c in
    let c = if bit_length c < bits then add c (shift_left one (bits - 1)) else c in
    if (not (divisible_by_small_prime c)) && is_probably_prime rng c then c else go (tries - 1)
  in
  go (64 * bits)

let pp fmt a = Format.pp_print_string fmt (to_hex a)
