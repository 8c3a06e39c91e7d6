(* Keccak-f[1600] with rate 1088 / capacity 512 (SHA3-256), per FIPS
   202.

   Two permutations coexist, mirroring [Aes]:

   - the *fast* path: each 64-bit lane is split into two 32-bit halves
     held as immediate native ints (an [int64 array] stores a pointer
     per element, so every lane store on the old path allocated a
     boxed int64 — that boxing was the 10 MB/s integrity floor). The
     round function is fully unrolled over all 25 lanes with constant
     indices, so the permutation performs no allocation, no bounds
     check and no [mod] indexing. This is the data plane behind the
     memory-integrity engine's per-line MAC.
   - the original int64-array implementation, retained verbatim as
     [Reference]: the qcheck oracle and the perf-harness baseline
     (the analogue of [Aes.ctr_reference]).

   Sponge scratch is one module-level record per implementation,
   reset at the start of every call. *)

let rate_bytes = 136 (* 1088 bits *)

(* Truncate a 32-byte digest to the engine's 28-bit per-line tag. *)
let tag_of_digest digest =
  let v =
    (Char.code (Bytes.get digest 0) lsl 24)
    lor (Char.code (Bytes.get digest 1) lsl 16)
    lor (Char.code (Bytes.get digest 2) lsl 8)
    lor Char.code (Bytes.get digest 3)
  in
  v land 0xFFFFFFF

(* ===== Reference implementation (PR 3's incremental sponge) =====

   Kept byte-for-byte: [mac_28bit] tags recorded in sealed HTSNAP1
   snapshots and journals predate the unrolled path, so the fast path
   must stay bit-identical to this one — asserted by the qcheck
   equivalence property and the FIPS 202 vectors over both. *)

module Reference = struct
  let round_constants =
    [|
      0x0000000000000001L; 0x0000000000008082L; 0x800000000000808aL;
      0x8000000080008000L; 0x000000000000808bL; 0x0000000080000001L;
      0x8000000080008081L; 0x8000000000008009L; 0x000000000000008aL;
      0x0000000000000088L; 0x0000000080008009L; 0x000000008000000aL;
      0x000000008000808bL; 0x800000000000008bL; 0x8000000000008089L;
      0x8000000000008003L; 0x8000000000008002L; 0x8000000000000080L;
      0x000000000000800aL; 0x800000008000000aL; 0x8000000080008081L;
      0x8000000000008080L; 0x0000000080000001L; 0x8000000080008008L;
    |]

  (* Rotation offsets, indexed x + 5*y. *)
  let rho_offsets =
    [| 0; 1; 62; 28; 27; 36; 44; 6; 55; 20; 3; 10; 43; 25; 39; 41; 45; 15; 21; 8; 18; 2; 61; 56; 14 |]

  let rotl64 x n =
    if n = 0 then x
    else Int64.logor (Int64.shift_left x n) (Int64.shift_right_logical x (64 - n))

  (* All mutable sponge state — permutation scratch, lanes, partial
     block, MAC digest buffer — lives in one module-level record. *)
  type sponge = {
    c : int64 array;
    d : int64 array;
    b : int64 array;
    st : int64 array;
    partial : bytes;
    mutable partial_len : int;
    mac_digest : bytes;
  }

  let sponge =
    {
      c = Array.make 5 0L;
      d = Array.make 5 0L;
      b = Array.make 25 0L;
      st = Array.make 25 0L;
      partial = Bytes.create rate_bytes;
      partial_len = 0;
      mac_digest = Bytes.create 32;
    }

  let keccak_f { c; d; b; _ } state =
    for round = 0 to 23 do
      (* theta *)
      for x = 0 to 4 do
        c.(x) <-
          Int64.logxor state.(x)
            (Int64.logxor state.(x + 5)
               (Int64.logxor state.(x + 10) (Int64.logxor state.(x + 15) state.(x + 20))))
      done;
      for x = 0 to 4 do
        d.(x) <- Int64.logxor c.((x + 4) mod 5) (rotl64 c.((x + 1) mod 5) 1)
      done;
      for i = 0 to 24 do
        state.(i) <- Int64.logxor state.(i) d.(i mod 5)
      done;
      (* rho + pi *)
      for x = 0 to 4 do
        for y = 0 to 4 do
          let src = x + (5 * y) in
          let dst = y + (5 * (((2 * x) + (3 * y)) mod 5)) in
          b.(dst) <- rotl64 state.(src) rho_offsets.(src)
        done
      done;
      (* chi *)
      for y = 0 to 4 do
        for x = 0 to 4 do
          let i = x + (5 * y) in
          state.(i) <-
            Int64.logxor b.(i)
              (Int64.logand (Int64.lognot b.(((x + 1) mod 5) + (5 * y))) b.(((x + 2) mod 5) + (5 * y)))
        done
      done;
      (* iota *)
      state.(0) <- Int64.logxor state.(0) round_constants.(round)
    done

  let sponge_reset sp =
    Array.fill sp.st 0 25 0L;
    sp.partial_len <- 0

  (* XOR one full rate block at [block+off] into the state and permute. *)
  let absorb_block sp block off =
    for lane = 0 to (rate_bytes / 8) - 1 do
      sp.st.(lane) <- Int64.logxor sp.st.(lane) (Bytes.get_int64_le block (off + (8 * lane)))
    done;
    keccak_f sp sp.st

  let absorb sp msg ~off ~len =
    let pos = ref off and remaining = ref len in
    if sp.partial_len > 0 then begin
      let take = Stdlib.min !remaining (rate_bytes - sp.partial_len) in
      Bytes.blit msg !pos sp.partial sp.partial_len take;
      sp.partial_len <- sp.partial_len + take;
      pos := !pos + take;
      remaining := !remaining - take;
      if sp.partial_len = rate_bytes then begin
        absorb_block sp sp.partial 0;
        sp.partial_len <- 0
      end
    end;
    while !remaining >= rate_bytes do
      absorb_block sp msg !pos;
      pos := !pos + rate_bytes;
      remaining := !remaining - rate_bytes
    done;
    if !remaining > 0 then begin
      Bytes.blit msg !pos sp.partial 0 !remaining;
      sp.partial_len <- sp.partial_len + !remaining
    end

  (* pad10*1 with SHA-3 domain bits 0b01 -> 0x06, then squeeze 32 bytes
     (< rate, single squeeze) into [out+off]. *)
  let finalize_into sp out ~off =
    Bytes.fill sp.partial sp.partial_len (rate_bytes - sp.partial_len) '\000';
    Bytes.set sp.partial sp.partial_len '\x06';
    Bytes.set sp.partial (rate_bytes - 1)
      (Char.chr (Char.code (Bytes.get sp.partial (rate_bytes - 1)) lor 0x80));
    absorb_block sp sp.partial 0;
    for lane = 0 to 3 do
      Hypertee_util.Bytes_ext.set_u64_le out (off + (8 * lane)) sp.st.(lane)
    done

  let sha3_256 msg =
    sponge_reset sponge;
    absorb sponge msg ~off:0 ~len:(Bytes.length msg);
    let out = Bytes.create 32 in
    finalize_into sponge out ~off:0;
    out

  let mac_28bit ~key data =
    sponge_reset sponge;
    absorb sponge key ~off:0 ~len:(Bytes.length key);
    absorb sponge data ~off:0 ~len:(Bytes.length data);
    finalize_into sponge sponge.mac_digest ~off:0;
    tag_of_digest sponge.mac_digest
end

(* ===== Fast path ===== *)

let rc_lo = [| 0x00000001; 0x00008082; 0x0000808a; 0x80008000; 0x0000808b; 0x80000001; 0x80008081; 0x00008009; 0x0000008a; 0x00000088; 0x80008009; 0x8000000a; 0x8000808b; 0x0000008b; 0x00008089; 0x00008003; 0x00008002; 0x00000080; 0x0000800a; 0x8000000a; 0x80008081; 0x00008080; 0x80000001; 0x80008008 |]

let rc_hi = [| 0x00000000; 0x00000000; 0x80000000; 0x80000000; 0x00000000; 0x00000000; 0x80000000; 0x80000000; 0x00000000; 0x00000000; 0x00000000; 0x00000000; 0x00000000; 0x80000000; 0x80000000; 0x80000000; 0x80000000; 0x80000000; 0x00000000; 0x80000000; 0x80000000; 0x80000000; 0x00000000; 0x80000000 |]

let[@inline always] ( .%() ) st i = Array.unsafe_get (st : int array) i
let[@inline always] ( .%()<- ) st i v = Array.unsafe_set (st : int array) i v

(* One Keccak-f[1600] permutation over 25 lanes split into 32-bit
   halves (st.(2i) = low, st.(2i+1) = high). Fully unrolled
   theta/rho/pi/chi/iota per round: every intermediate is an
   immediate native int, so the permutation allocates nothing and
   indexes nothing modulo 5. Generated mechanically from the
   (x + 5y) lane layout and the FIPS 202 rotation table; the qcheck
   equivalence property in test_dataplane pins it to [Reference]. *)
let keccak_p (st : int array) =
  for round = 0 to 23 do
    let a0l = st.%(0) and a0h = st.%(1) in
    let a1l = st.%(2) and a1h = st.%(3) in
    let a2l = st.%(4) and a2h = st.%(5) in
    let a3l = st.%(6) and a3h = st.%(7) in
    let a4l = st.%(8) and a4h = st.%(9) in
    let a5l = st.%(10) and a5h = st.%(11) in
    let a6l = st.%(12) and a6h = st.%(13) in
    let a7l = st.%(14) and a7h = st.%(15) in
    let a8l = st.%(16) and a8h = st.%(17) in
    let a9l = st.%(18) and a9h = st.%(19) in
    let a10l = st.%(20) and a10h = st.%(21) in
    let a11l = st.%(22) and a11h = st.%(23) in
    let a12l = st.%(24) and a12h = st.%(25) in
    let a13l = st.%(26) and a13h = st.%(27) in
    let a14l = st.%(28) and a14h = st.%(29) in
    let a15l = st.%(30) and a15h = st.%(31) in
    let a16l = st.%(32) and a16h = st.%(33) in
    let a17l = st.%(34) and a17h = st.%(35) in
    let a18l = st.%(36) and a18h = st.%(37) in
    let a19l = st.%(38) and a19h = st.%(39) in
    let a20l = st.%(40) and a20h = st.%(41) in
    let a21l = st.%(42) and a21h = st.%(43) in
    let a22l = st.%(44) and a22h = st.%(45) in
    let a23l = st.%(46) and a23h = st.%(47) in
    let a24l = st.%(48) and a24h = st.%(49) in
    let c0l = a0l lxor a5l lxor a10l lxor a15l lxor a20l
    and c0h = a0h lxor a5h lxor a10h lxor a15h lxor a20h in
    let c1l = a1l lxor a6l lxor a11l lxor a16l lxor a21l
    and c1h = a1h lxor a6h lxor a11h lxor a16h lxor a21h in
    let c2l = a2l lxor a7l lxor a12l lxor a17l lxor a22l
    and c2h = a2h lxor a7h lxor a12h lxor a17h lxor a22h in
    let c3l = a3l lxor a8l lxor a13l lxor a18l lxor a23l
    and c3h = a3h lxor a8h lxor a13h lxor a18h lxor a23h in
    let c4l = a4l lxor a9l lxor a14l lxor a19l lxor a24l
    and c4h = a4h lxor a9h lxor a14h lxor a19h lxor a24h in
    let d0l = c4l lxor (((c1l lsl 1) lor (c1h lsr 31)) land 0xFFFFFFFF)
    and d0h = c4h lxor (((c1h lsl 1) lor (c1l lsr 31)) land 0xFFFFFFFF) in
    let d1l = c0l lxor (((c2l lsl 1) lor (c2h lsr 31)) land 0xFFFFFFFF)
    and d1h = c0h lxor (((c2h lsl 1) lor (c2l lsr 31)) land 0xFFFFFFFF) in
    let d2l = c1l lxor (((c3l lsl 1) lor (c3h lsr 31)) land 0xFFFFFFFF)
    and d2h = c1h lxor (((c3h lsl 1) lor (c3l lsr 31)) land 0xFFFFFFFF) in
    let d3l = c2l lxor (((c4l lsl 1) lor (c4h lsr 31)) land 0xFFFFFFFF)
    and d3h = c2h lxor (((c4h lsl 1) lor (c4l lsr 31)) land 0xFFFFFFFF) in
    let d4l = c3l lxor (((c0l lsl 1) lor (c0h lsr 31)) land 0xFFFFFFFF)
    and d4h = c3h lxor (((c0h lsl 1) lor (c0l lsr 31)) land 0xFFFFFFFF) in
    let t0l = a0l lxor d0l and t0h = a0h lxor d0h in
    let b0l = t0l and b0h = t0h in
    let t5l = a5l lxor d0l and t5h = a5h lxor d0h in
    let b16l = (((t5h lsl 4) lor (t5l lsr 28)) land 0xFFFFFFFF) and b16h = (((t5l lsl 4) lor (t5h lsr 28)) land 0xFFFFFFFF) in
    let t10l = a10l lxor d0l and t10h = a10h lxor d0h in
    let b7l = (((t10l lsl 3) lor (t10h lsr 29)) land 0xFFFFFFFF) and b7h = (((t10h lsl 3) lor (t10l lsr 29)) land 0xFFFFFFFF) in
    let t15l = a15l lxor d0l and t15h = a15h lxor d0h in
    let b23l = (((t15h lsl 9) lor (t15l lsr 23)) land 0xFFFFFFFF) and b23h = (((t15l lsl 9) lor (t15h lsr 23)) land 0xFFFFFFFF) in
    let t20l = a20l lxor d0l and t20h = a20h lxor d0h in
    let b14l = (((t20l lsl 18) lor (t20h lsr 14)) land 0xFFFFFFFF) and b14h = (((t20h lsl 18) lor (t20l lsr 14)) land 0xFFFFFFFF) in
    let t1l = a1l lxor d1l and t1h = a1h lxor d1h in
    let b10l = (((t1l lsl 1) lor (t1h lsr 31)) land 0xFFFFFFFF) and b10h = (((t1h lsl 1) lor (t1l lsr 31)) land 0xFFFFFFFF) in
    let t6l = a6l lxor d1l and t6h = a6h lxor d1h in
    let b1l = (((t6h lsl 12) lor (t6l lsr 20)) land 0xFFFFFFFF) and b1h = (((t6l lsl 12) lor (t6h lsr 20)) land 0xFFFFFFFF) in
    let t11l = a11l lxor d1l and t11h = a11h lxor d1h in
    let b17l = (((t11l lsl 10) lor (t11h lsr 22)) land 0xFFFFFFFF) and b17h = (((t11h lsl 10) lor (t11l lsr 22)) land 0xFFFFFFFF) in
    let t16l = a16l lxor d1l and t16h = a16h lxor d1h in
    let b8l = (((t16h lsl 13) lor (t16l lsr 19)) land 0xFFFFFFFF) and b8h = (((t16l lsl 13) lor (t16h lsr 19)) land 0xFFFFFFFF) in
    let t21l = a21l lxor d1l and t21h = a21h lxor d1h in
    let b24l = (((t21l lsl 2) lor (t21h lsr 30)) land 0xFFFFFFFF) and b24h = (((t21h lsl 2) lor (t21l lsr 30)) land 0xFFFFFFFF) in
    let t2l = a2l lxor d2l and t2h = a2h lxor d2h in
    let b20l = (((t2h lsl 30) lor (t2l lsr 2)) land 0xFFFFFFFF) and b20h = (((t2l lsl 30) lor (t2h lsr 2)) land 0xFFFFFFFF) in
    let t7l = a7l lxor d2l and t7h = a7h lxor d2h in
    let b11l = (((t7l lsl 6) lor (t7h lsr 26)) land 0xFFFFFFFF) and b11h = (((t7h lsl 6) lor (t7l lsr 26)) land 0xFFFFFFFF) in
    let t12l = a12l lxor d2l and t12h = a12h lxor d2h in
    let b2l = (((t12h lsl 11) lor (t12l lsr 21)) land 0xFFFFFFFF) and b2h = (((t12l lsl 11) lor (t12h lsr 21)) land 0xFFFFFFFF) in
    let t17l = a17l lxor d2l and t17h = a17h lxor d2h in
    let b18l = (((t17l lsl 15) lor (t17h lsr 17)) land 0xFFFFFFFF) and b18h = (((t17h lsl 15) lor (t17l lsr 17)) land 0xFFFFFFFF) in
    let t22l = a22l lxor d2l and t22h = a22h lxor d2h in
    let b9l = (((t22h lsl 29) lor (t22l lsr 3)) land 0xFFFFFFFF) and b9h = (((t22l lsl 29) lor (t22h lsr 3)) land 0xFFFFFFFF) in
    let t3l = a3l lxor d3l and t3h = a3h lxor d3h in
    let b5l = (((t3l lsl 28) lor (t3h lsr 4)) land 0xFFFFFFFF) and b5h = (((t3h lsl 28) lor (t3l lsr 4)) land 0xFFFFFFFF) in
    let t8l = a8l lxor d3l and t8h = a8h lxor d3h in
    let b21l = (((t8h lsl 23) lor (t8l lsr 9)) land 0xFFFFFFFF) and b21h = (((t8l lsl 23) lor (t8h lsr 9)) land 0xFFFFFFFF) in
    let t13l = a13l lxor d3l and t13h = a13h lxor d3h in
    let b12l = (((t13l lsl 25) lor (t13h lsr 7)) land 0xFFFFFFFF) and b12h = (((t13h lsl 25) lor (t13l lsr 7)) land 0xFFFFFFFF) in
    let t18l = a18l lxor d3l and t18h = a18h lxor d3h in
    let b3l = (((t18l lsl 21) lor (t18h lsr 11)) land 0xFFFFFFFF) and b3h = (((t18h lsl 21) lor (t18l lsr 11)) land 0xFFFFFFFF) in
    let t23l = a23l lxor d3l and t23h = a23h lxor d3h in
    let b19l = (((t23h lsl 24) lor (t23l lsr 8)) land 0xFFFFFFFF) and b19h = (((t23l lsl 24) lor (t23h lsr 8)) land 0xFFFFFFFF) in
    let t4l = a4l lxor d4l and t4h = a4h lxor d4h in
    let b15l = (((t4l lsl 27) lor (t4h lsr 5)) land 0xFFFFFFFF) and b15h = (((t4h lsl 27) lor (t4l lsr 5)) land 0xFFFFFFFF) in
    let t9l = a9l lxor d4l and t9h = a9h lxor d4h in
    let b6l = (((t9l lsl 20) lor (t9h lsr 12)) land 0xFFFFFFFF) and b6h = (((t9h lsl 20) lor (t9l lsr 12)) land 0xFFFFFFFF) in
    let t14l = a14l lxor d4l and t14h = a14h lxor d4h in
    let b22l = (((t14h lsl 7) lor (t14l lsr 25)) land 0xFFFFFFFF) and b22h = (((t14l lsl 7) lor (t14h lsr 25)) land 0xFFFFFFFF) in
    let t19l = a19l lxor d4l and t19h = a19h lxor d4h in
    let b13l = (((t19l lsl 8) lor (t19h lsr 24)) land 0xFFFFFFFF) and b13h = (((t19h lsl 8) lor (t19l lsr 24)) land 0xFFFFFFFF) in
    let t24l = a24l lxor d4l and t24h = a24h lxor d4h in
    let b4l = (((t24l lsl 14) lor (t24h lsr 18)) land 0xFFFFFFFF) and b4h = (((t24h lsl 14) lor (t24l lsr 18)) land 0xFFFFFFFF) in
    st.%(0) <- b0l lxor ((lnot b1l) land b2l) lxor Array.unsafe_get rc_lo round;
    st.%(1) <- b0h lxor ((lnot b1h) land b2h) lxor Array.unsafe_get rc_hi round;
    st.%(2) <- b1l lxor ((lnot b2l) land b3l);
    st.%(3) <- b1h lxor ((lnot b2h) land b3h);
    st.%(4) <- b2l lxor ((lnot b3l) land b4l);
    st.%(5) <- b2h lxor ((lnot b3h) land b4h);
    st.%(6) <- b3l lxor ((lnot b4l) land b0l);
    st.%(7) <- b3h lxor ((lnot b4h) land b0h);
    st.%(8) <- b4l lxor ((lnot b0l) land b1l);
    st.%(9) <- b4h lxor ((lnot b0h) land b1h);
    st.%(10) <- b5l lxor ((lnot b6l) land b7l);
    st.%(11) <- b5h lxor ((lnot b6h) land b7h);
    st.%(12) <- b6l lxor ((lnot b7l) land b8l);
    st.%(13) <- b6h lxor ((lnot b7h) land b8h);
    st.%(14) <- b7l lxor ((lnot b8l) land b9l);
    st.%(15) <- b7h lxor ((lnot b8h) land b9h);
    st.%(16) <- b8l lxor ((lnot b9l) land b5l);
    st.%(17) <- b8h lxor ((lnot b9h) land b5h);
    st.%(18) <- b9l lxor ((lnot b5l) land b6l);
    st.%(19) <- b9h lxor ((lnot b5h) land b6h);
    st.%(20) <- b10l lxor ((lnot b11l) land b12l);
    st.%(21) <- b10h lxor ((lnot b11h) land b12h);
    st.%(22) <- b11l lxor ((lnot b12l) land b13l);
    st.%(23) <- b11h lxor ((lnot b12h) land b13h);
    st.%(24) <- b12l lxor ((lnot b13l) land b14l);
    st.%(25) <- b12h lxor ((lnot b13h) land b14h);
    st.%(26) <- b13l lxor ((lnot b14l) land b10l);
    st.%(27) <- b13h lxor ((lnot b14h) land b10h);
    st.%(28) <- b14l lxor ((lnot b10l) land b11l);
    st.%(29) <- b14h lxor ((lnot b10h) land b11h);
    st.%(30) <- b15l lxor ((lnot b16l) land b17l);
    st.%(31) <- b15h lxor ((lnot b16h) land b17h);
    st.%(32) <- b16l lxor ((lnot b17l) land b18l);
    st.%(33) <- b16h lxor ((lnot b17h) land b18h);
    st.%(34) <- b17l lxor ((lnot b18l) land b19l);
    st.%(35) <- b17h lxor ((lnot b18h) land b19h);
    st.%(36) <- b18l lxor ((lnot b19l) land b15l);
    st.%(37) <- b18h lxor ((lnot b19h) land b15h);
    st.%(38) <- b19l lxor ((lnot b15l) land b16l);
    st.%(39) <- b19h lxor ((lnot b15h) land b16h);
    st.%(40) <- b20l lxor ((lnot b21l) land b22l);
    st.%(41) <- b20h lxor ((lnot b21h) land b22h);
    st.%(42) <- b21l lxor ((lnot b22l) land b23l);
    st.%(43) <- b21h lxor ((lnot b22h) land b23h);
    st.%(44) <- b22l lxor ((lnot b23l) land b24l);
    st.%(45) <- b22h lxor ((lnot b23h) land b24h);
    st.%(46) <- b23l lxor ((lnot b24l) land b20l);
    st.%(47) <- b23h lxor ((lnot b24h) land b20h);
    st.%(48) <- b24l lxor ((lnot b20l) land b21l);
    st.%(49) <- b24h lxor ((lnot b20h) land b21h);
    ()
  done

(* Fast sponge: 50 immediate-int lane halves plus the partial-block
   and digest scratch, one module-level record (hoisted out of
   the per-call path — [keccak_p] runs once per 136 absorbed bytes,
   so per-call allocation would dominate the page-MAC path). *)
type sponge = {
  st : int array; (* 25 lanes x (low, high) 32-bit halves *)
  partial : bytes;
  mutable partial_len : int;
  mac_digest : bytes;
}

let sponge =
  {
    st = Array.make 50 0;
    partial = Bytes.create rate_bytes;
    partial_len = 0;
    mac_digest = Bytes.create 32;
  }

let sponge_reset sp =
  Array.fill sp.st 0 50 0;
  sp.partial_len <- 0

(* Little-endian 32-bit load assembled from unsafe char reads: the
   callers below only pass [off] with a full rate block in range, and
   chars are immediates, so the absorb loop never allocates. *)
let[@inline] word32 b off =
  Char.code (Bytes.unsafe_get b off)
  lor (Char.code (Bytes.unsafe_get b (off + 1)) lsl 8)
  lor (Char.code (Bytes.unsafe_get b (off + 2)) lsl 16)
  lor (Char.code (Bytes.unsafe_get b (off + 3)) lsl 24)

(* XOR one full rate block at [block+off] into the state and permute. *)
let absorb_block sp block off =
  let st = sp.st in
  for lane = 0 to (rate_bytes / 8) - 1 do
    let base = off + (8 * lane) in
    st.%(2 * lane) <- st.%(2 * lane) lxor word32 block base;
    st.%((2 * lane) + 1) <- st.%((2 * lane) + 1) lxor word32 block (base + 4)
  done;
  keccak_p st

let absorb sp msg ~off ~len =
  let pos = ref off and remaining = ref len in
  if sp.partial_len > 0 then begin
    let take = Stdlib.min !remaining (rate_bytes - sp.partial_len) in
    Bytes.blit msg !pos sp.partial sp.partial_len take;
    sp.partial_len <- sp.partial_len + take;
    pos := !pos + take;
    remaining := !remaining - take;
    if sp.partial_len = rate_bytes then begin
      absorb_block sp sp.partial 0;
      sp.partial_len <- 0
    end
  end;
  while !remaining >= rate_bytes do
    absorb_block sp msg !pos;
    pos := !pos + rate_bytes;
    remaining := !remaining - rate_bytes
  done;
  if !remaining > 0 then begin
    Bytes.blit msg !pos sp.partial 0 !remaining;
    sp.partial_len <- sp.partial_len + !remaining
  end

(* pad10*1 with SHA-3 domain bits 0b01 -> 0x06, then squeeze 32 bytes
   (< rate, single squeeze) into [out+off]. *)
let finalize_into sp out ~off =
  Bytes.fill sp.partial sp.partial_len (rate_bytes - sp.partial_len) '\000';
  Bytes.set sp.partial sp.partial_len '\x06';
  Bytes.set sp.partial (rate_bytes - 1)
    (Char.chr (Char.code (Bytes.get sp.partial (rate_bytes - 1)) lor 0x80));
  absorb_block sp sp.partial 0;
  for lane = 0 to 3 do
    let lo = sp.st.(2 * lane) and hi = sp.st.((2 * lane) + 1) in
    for i = 0 to 3 do
      Bytes.set out (off + (8 * lane) + i) (Char.chr ((lo lsr (8 * i)) land 0xFF));
      Bytes.set out (off + (8 * lane) + 4 + i) (Char.chr ((hi lsr (8 * i)) land 0xFF))
    done
  done

let sha3_256 msg =
  sponge_reset sponge;
  absorb sponge msg ~off:0 ~len:(Bytes.length msg);
  let out = Bytes.create 32 in
  finalize_into sponge out ~off:0;
  out

let sha3_256_string s = sha3_256 (Bytes.of_string s)

let mac_28bit ~key data =
  (* Streaming key || data through the sponge is byte-identical to
     hashing their concatenation, minus the concat buffer. The digest
     lands in the sponge scratch: the tag is an int, so nothing
     the caller sees aliases that buffer. *)
  sponge_reset sponge;
  absorb sponge key ~off:0 ~len:(Bytes.length key);
  absorb sponge data ~off:0 ~len:(Bytes.length data);
  finalize_into sponge sponge.mac_digest ~off:0;
  tag_of_digest sponge.mac_digest

(* --- Keyed-MAC snapshots. The MEE MACs every line under one engine
   key, so instead of re-absorbing the key per call it captures the
   sponge state right after the key once and replays that snapshot:
   [mac_28bit_keyed] then only touches the data bytes. Tags are
   byte-identical to [mac_28bit] because the snapshot *is* the
   post-key sponge. --- *)

type keyed = {
  kst : int array;
  kpartial : bytes;
  kpartial_len : int;
}

let keyed_init ~key =
  sponge_reset sponge;
  absorb sponge key ~off:0 ~len:(Bytes.length key);
  {
    kst = Array.copy sponge.st;
    kpartial = Bytes.copy sponge.partial;
    kpartial_len = sponge.partial_len;
  }

let mac_28bit_keyed keyed data =
  Array.blit keyed.kst 0 sponge.st 0 50;
  if keyed.kpartial_len > 0 then Bytes.blit keyed.kpartial 0 sponge.partial 0 keyed.kpartial_len;
  sponge.partial_len <- keyed.kpartial_len;
  absorb sponge data ~off:0 ~len:(Bytes.length data);
  finalize_into sponge sponge.mac_digest ~off:0;
  tag_of_digest sponge.mac_digest

let mac16_keyed_into keyed data ~off ~len tag ~tag_off =
  Array.blit keyed.kst 0 sponge.st 0 50;
  if keyed.kpartial_len > 0 then Bytes.blit keyed.kpartial 0 sponge.partial 0 keyed.kpartial_len;
  sponge.partial_len <- keyed.kpartial_len;
  absorb sponge data ~off ~len;
  finalize_into sponge sponge.mac_digest ~off:0;
  Bytes.blit sponge.mac_digest 0 tag tag_off 16
