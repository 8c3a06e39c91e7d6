(* Unit costs of the crypto primitives and the memory-encryption
   engine, taken through their public functions on the input sizes the
   workloads use. Each figure is the median of repeated single calls. *)

module Xrng = Hypertee_util.Xrng
module Crypto = Hypertee_crypto
module Mee = Hypertee_arch.Mem_encryption
module Phys_mem = Hypertee_arch.Phys_mem

let page_size = Hypertee_util.Units.page_size

(* Median host time of one call, in µs, over at least [min_reps] calls
   and at least [budget_ms] of measurement. *)
let median_us ?(min_reps = 15) ?(budget_ms = 40.0) f =
  let samples = ref [] and spent = ref 0 and n = ref 0 in
  while !n < min_reps || float_of_int !spent < budget_ms *. 1e6 do
    let t0 = Probe.now () in
    f ();
    let d = Probe.now () - t0 in
    samples := float_of_int d :: !samples;
    spent := !spent + d;
    incr n
  done;
  let a = Array.of_list !samples in
  Array.sort compare a;
  let m = Array.length a in
  (if m mod 2 = 1 then a.(m / 2) else (a.((m / 2) - 1) +. a.(m / 2)) /. 2.0) /. 1e3

let measure ~seed =
  let rng = Xrng.create (Int64.logxor seed 0xC057L) in
  let page = Xrng.bytes rng page_size in
  let dst = Bytes.create page_size in
  let msg = Xrng.bytes rng 32 in
  let keypair = Crypto.Rsa.generate rng in
  let signature = Crypto.Rsa.sign keypair msg in
  let dh = Crypto.Dh.generate rng in
  let aes = Crypto.Aes.expand (Xrng.bytes rng 16) in
  let nonce = Xrng.bytes rng 16 in
  let mac_key = Xrng.bytes rng 16 in
  let mee = Mee.create ~slots:4 () in
  Mee.program mee ~key_id:1 (Xrng.bytes rng 16);
  let mem = Phys_mem.create ~frames:8 in
  Mee.write_page mee mem ~key_id:1 ~frame:5 page;
  let read () = Mee.read_range_into mee mem ~key_id:1 ~frame:5 ~off:0 ~len:page_size dst ~dst_off:0 in
  [
    ("crypto.rsa.sign_us", median_us (fun () -> ignore (Crypto.Rsa.sign keypair msg)));
    ( "crypto.rsa.verify_us",
      median_us (fun () ->
          ignore (Crypto.Rsa.verify keypair.Crypto.Rsa.public ~msg ~signature)) );
    ( "crypto.bignum.mod_pow_us",
      median_us (fun () ->
          ignore (Crypto.Bignum.mod_pow ~base:Crypto.Dh.g ~exp:dh.Crypto.Dh.secret ~modulus:Crypto.Dh.p)) );
    ( "crypto.aes.ctr_page_us",
      median_us ~min_reps:200 (fun () ->
          Crypto.Aes.ctr_into aes ~nonce ~src:page ~src_off:0 ~dst ~dst_off:0 page_size) );
    ( "crypto.keccak.mac28_page_us",
      median_us ~min_reps:200 (fun () -> ignore (Crypto.Keccak.mac_28bit ~key:mac_key page)) );
    ("crypto.sha256.page_us", median_us ~min_reps:200 (fun () -> ignore (Crypto.Sha256.digest page)));
    ( "arch.mee.store_page_us",
      median_us ~min_reps:200 (fun () -> Mee.write_page mee mem ~key_id:1 ~frame:3 page) );
    ( "arch.mee.load_page_cold_us",
      median_us ~min_reps:200 (fun () ->
          Mee.flush_mac_cache mee;
          read ()) );
    ("arch.mee.read_page_hot_us", median_us ~min_reps:200 read);
  ]
