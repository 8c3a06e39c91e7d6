(* Host-time microbenchmarks of the crypto data plane.

   Unlike every other experiment (which reports *modelled* time from
   the cost model), this harness measures the host time of the
   simulator's own hot paths, so the BENCH_perf.json trajectory shows
   whether the implementation is getting faster or slower across PRs.
   Every row is a median of single calls timed by [Clock.sample].
   Numbers are machine-dependent by design; the speedup-vs-reference
   ratio is the portable signal. *)

module Aes = Hypertee_crypto.Aes
module Sha256 = Hypertee_crypto.Sha256
module Keccak = Hypertee_crypto.Keccak
module Hmac = Hypertee_crypto.Hmac
module Rsa = Hypertee_crypto.Rsa
module Dh = Hypertee_crypto.Dh
module Bignum = Hypertee_crypto.Bignum
module Phys_mem = Hypertee_arch.Phys_mem
module Mem_encryption = Hypertee_arch.Mem_encryption
module Table = Hypertee_util.Table
module Stats = Hypertee_util.Stats
module Clock = Hypertee_obs.Clock
module Record = Hypertee_channel.Record
module Wire = Hypertee_channel.Wire

let page_size = Hypertee_util.Units.page_size

type sample = {
  target : string;
  metric : string;
  value : float;
  unit_ : string;
  runs : int;
  iqr : float option;
}

(* Host provenance recorded alongside the samples: raw MB/s numbers
   are machine-dependent by design, so a reader (or the regression
   guard) needs to know what machine produced a file. *)
type host = {
  hardware_threads : int;
  ocaml_version : string;
  word_size : int;
  os_type : string;
}

let host_info () =
  {
    hardware_threads = Domain.recommended_domain_count ();
    ocaml_version = Sys.ocaml_version;
    word_size = Sys.word_size;
    os_type = Sys.os_type;
  }

let mb_per_s ~bytes ns = float_of_int bytes /. (ns /. 1e9) /. 1e6

(* A measured row from one step's per-call ns: [`Bytes n] makes it a
   throughput row in MB/s, [`Call] a latency row in ns/op. The value
   is the median call and [iqr] the interquartile range, both in the
   row's unit. *)
let row ~target ~per stats =
  let metric, unit_, of_ns =
    match per with
    | `Bytes bytes -> ("throughput", "MB/s", mb_per_s ~bytes)
    | `Call -> ("latency", "ns/op", Fun.id)
  in
  let at p = of_ns (Stats.percentile stats p) in
  {
    target;
    metric;
    value = at 50.;
    unit_;
    runs = Stats.count stats;
    iqr = Some (Float.abs (at 75. -. at 25.));
  }

let run ?(quick = false) ?min_time_s () =
  let min_time =
    match min_time_s with Some s -> s | None -> if quick then 0.05 else 0.25
  in
  let budget_ns = int_of_float (min_time *. 1e9) in
  let key = Aes.expand (Bytes.init 16 (fun i -> Char.chr (0x40 + i))) in
  let page = Bytes.init page_size (fun i -> Char.chr ((i * 31) land 0xFF)) in
  let dst = Bytes.create page_size in
  let tweak = Bytes.make 16 '\000' in
  Hypertee_util.Bytes_ext.set_u64_be tweak 8 7L;
  let samples = ref [] in
  let push s = samples := s :: !samples in
  let measure ~target ~per f =
    push (row ~target ~per (Clock.sample ~budget_ns [| Clock.timed f |]).(0))
  in
  (* Each optimised primitive is measured next to its retained
     reference implementation; the ratio is the portable signal the
     regression guard gates on (raw MB/s moves with the machine). The
     two sides are sampled together, one call each per round, so host
     drift lands on both; the ratio is the reference median over the
     fast median, above 1 for a speedup. *)
  let speedup ~target ~per ~fast ~reference =
    let stats = Clock.sample ~budget_ns [| fast; reference |] in
    push (row ~target ~per stats.(0));
    push (row ~target:(target ^ "-reference") ~per stats.(1));
    push
      {
        target;
        metric = "speedup-vs-reference";
        value = Stats.percentile stats.(1) 50. /. Stats.percentile stats.(0) 50.;
        unit_ = "x";
        runs = Stats.count stats.(0);
        iqr = None;
      }
  in
  (* AES-CTR page encryption: the T-table data plane vs the retained
     pre-T-table reference, on the same 4 KiB page and tweak. *)
  speedup ~target:"aes-ctr-page" ~per:(`Bytes page_size)
    ~fast:
      (Clock.timed (fun () ->
           Aes.encrypt_page_into key ~page_number:7 ~src:page ~src_off:0 ~dst ~dst_off:0
             page_size))
    ~reference:(Clock.timed (fun () -> ignore (Aes.ctr_reference key ~nonce:tweak page)));
  (* SHA-256: one-shot page digest and a 64 KiB streaming feed, the
     shape of enclave measurement during Create_Enclave. *)
  measure ~target:"sha256-page" ~per:(`Bytes page_size) (fun () -> ignore (Sha256.digest page));
  let stream_pages = 16 in
  let stream_ctx = Sha256.init () in
  measure ~target:"sha256-stream-64k" ~per:(`Bytes (stream_pages * page_size)) (fun () ->
      Sha256.reset stream_ctx;
      for _ = 1 to stream_pages do
        Sha256.feed_sub stream_ctx page ~off:0 ~len:page_size
      done;
      Sha256.finalize_into stream_ctx dst ~off:0);
  (* HMAC and the SHA-3 paths behind sealing and the MEE MAC. *)
  let mac_key = Bytes.make 32 'K' in
  measure ~target:"hmac-sha256-page" ~per:(`Bytes page_size) (fun () ->
      ignore (Hmac.hmac ~key:mac_key page));
  (* SHA-3 / the MEE MAC: the unrolled lane-level permutation vs the
     retained int64-sponge reference (bit-identical digests/tags). *)
  speedup ~target:"sha3-256-page" ~per:(`Bytes page_size)
    ~fast:(Clock.timed (fun () -> ignore (Keccak.sha3_256 page)))
    ~reference:(Clock.timed (fun () -> ignore (Keccak.Reference.sha3_256 page)));
  speedup ~target:"keccak-mac28-page" ~per:(`Bytes page_size)
    ~fast:(Clock.timed (fun () -> ignore (Keccak.mac_28bit ~key:mac_key page)))
    ~reference:(Clock.timed (fun () -> ignore (Keccak.Reference.mac_28bit ~key:mac_key page)));
  (* MEE round trip: encrypt+MAC into DRAM, then verify+decrypt back —
     what every enclave page touch pays. The reference engine runs the
     reference sponge with the verified-line cache disabled: the
     pre-optimisation integrity path, kept honest in the same build. *)
  let mee = Mem_encryption.create ~slots:4 () in
  Mem_encryption.program mee ~key_id:1 (Bytes.make 16 'm');
  let mem = Phys_mem.create ~frames:8 in
  let mee_ref = Mem_encryption.create ~reference_mac:true ~slots:4 () in
  Mem_encryption.program mee_ref ~key_id:1 (Bytes.make 16 'm');
  let mem_ref = Phys_mem.create ~frames:8 in
  let store_load mee mem () =
    Mem_encryption.write_page mee mem ~key_id:1 ~frame:3 page;
    Mem_encryption.read_range_into mee mem ~key_id:1 ~frame:3 ~off:0 ~len:page_size dst
      ~dst_off:0
  in
  speedup ~target:"mee-store-load-page" ~per:(`Bytes (2 * page_size))
    ~fast:(Clock.timed (store_load mee mem))
    ~reference:(Clock.timed (store_load mee_ref mem_ref));
  (* Read paths of an unmodified frame: hot rides the verified-line
     cache (AES only); cold flushes it first, so every read re-runs
     the sponge — the spread between the two is what the cache buys. *)
  Mem_encryption.write_page mee mem ~key_id:1 ~frame:5 page;
  measure ~target:"mee-read-page-hot" ~per:(`Bytes page_size) (fun () ->
      Mem_encryption.read_range_into mee mem ~key_id:1 ~frame:5 ~off:0 ~len:page_size dst
        ~dst_off:0);
  measure ~target:"mee-read-page-cold" ~per:(`Bytes page_size) (fun () ->
      Mem_encryption.flush_mac_cache mee;
      Mem_encryption.read_range_into mee mem ~key_id:1 ~frame:5 ~off:0 ~len:page_size dst
        ~dst_off:0);
  (* End-to-end Create_Enclave: ECREATE + EADD of the image + EMEAS,
     measurement-dominated. *)
  let platform = Hypertee.Platform.create ~seed:0x9E2FL () in
  let image =
    Hypertee.Sdk.image_of_code
      ~code:(Bytes.make (4 * page_size) 'c')
      ~data:(Bytes.make (2 * page_size) 'd')
      ()
  in
  let ok = function Ok v -> v | Error m -> failwith m in
  measure ~target:"create-enclave" ~per:`Call (fun () ->
      ok (Hypertee.Sdk.destroy platform ~enclave:(ok (Hypertee.Sdk.launch platform image))));
  (* Warm-pool fast path: client-perceived create latency. Each side
     times only the acquisition call (EWARM pop of a parked enclave
     vs the full cold ECREATE/EADD/EMEAS launch); the teardown that
     recycles state for the next call — ERETIRE's security rehash,
     the cold destroy's scrub — runs after the step has read the
     clock, mirroring the cloud driver where retire happens at
     session end, off the create path. *)
  ok (Hypertee.Sdk.retire platform ~enclave:(ok (Hypertee.Sdk.launch platform image)));
  speedup ~target:"cloud-warm-create" ~per:`Call
    ~fast:(fun () ->
      let t0 = Clock.now () in
      let r = Hypertee.Sdk.warm_launch platform image in
      let dt = Clock.now () - t0 in
      (match ok r with
      | e, `Warm -> ok (Hypertee.Sdk.retire platform ~enclave:e)
      | _, `Cold -> failwith "warm pool missed during benchmark");
      dt)
    ~reference:(fun () ->
      let t0 = Clock.now () in
      let r = Hypertee.Sdk.launch platform image in
      let dt = Clock.now () - t0 in
      ok (Hypertee.Sdk.destroy platform ~enclave:(ok r));
      dt);
  (* Secure-channel data plane (docs/PROTOCOL.md). chan-handshake is
     the full three-flight attested establishment through the gate —
     EATTEST/RSA-dominated. The record pair measures what the reused
     keyed-sponge state buys per record MAC: hot keeps the post-key
     state, cold re-absorbs the key every record (§3.3). *)
  let listener = ok (Hypertee.Sdk.launch platform image) in
  measure ~target:"chan-handshake" ~per:`Call (fun () ->
      let client, server = ok (Hypertee.Secure_channel.establish platform ~listener ()) in
      ok (Hypertee.Secure_channel.close client);
      ok (Hypertee.Secure_channel.close server));
  (* The handshake's public-key work: an EATTEST signature (CRT over
     Montgomery mod_pow vs one square-and-multiply exponentiation
     modulo n) and a DH exponentiation in the 2^255-19 group. *)
  let rsa_key = Rsa.generate (Hypertee_util.Xrng.create 0x5161L) in
  let rsa_msg = Bytes.of_string "HTQUOTE1 platform and enclave measurement" in
  speedup ~target:"rsa-sign" ~per:`Call
    ~fast:(Clock.timed (fun () -> ignore (Rsa.sign rsa_key rsa_msg)))
    ~reference:(Clock.timed (fun () -> ignore (Rsa.sign_reference rsa_key rsa_msg)));
  let dh = Dh.generate (Hypertee_util.Xrng.create 0xD4L) in
  speedup ~target:"dh-mod-pow" ~per:`Call
    ~fast:(Clock.timed (fun () ->
         ignore (Bignum.mod_pow ~base:Dh.g ~exp:dh.Dh.secret ~modulus:Dh.p)))
    ~reference:
      (Clock.timed (fun () ->
           ignore (Bignum.mod_pow_reference ~base:Dh.g ~exp:dh.Dh.secret ~modulus:Dh.p)));
  let rec_key = Bytes.init 16 (fun i -> Char.chr (0x60 + i)) in
  let rec_len = Wire.header_len + Wire.max_plaintext in
  let rec_buf = Bytes.init rec_len (fun i -> Char.chr ((i * 17) land 0xFF)) in
  let rec_tag = Bytes.create Wire.tag_len in
  let rec_keyed = Keccak.keyed_init ~key:rec_key in
  measure ~target:"chan-record-mac-hot" ~per:(`Bytes rec_len) (fun () ->
      Keccak.mac16_keyed_into rec_keyed rec_buf ~off:0 ~len:rec_len rec_tag ~tag_off:0);
  measure ~target:"chan-record-mac-cold" ~per:(`Bytes rec_len) (fun () ->
      let k = Keccak.keyed_init ~key:rec_key in
      Keccak.mac16_keyed_into k rec_buf ~off:0 ~len:rec_len rec_tag ~tag_off:0);
  (* One 4 KiB message sealed, transported and opened by the record
     layer vs the retained reference seal path doing the *same unit of
     work* per chunk: reference AES-CTR plus the reference sponge MAC
     on seal, tag recheck plus reference AES-CTR again on open. (An
     earlier revision compared against bare chunk copies — a near-no-op
     whose "ratio" only measured memcpy bandwidth.) Rekeys are pushed
     out of reach so the ratio measures the steady state. *)
  let master = Bytes.init 32 (fun i -> Char.chr ((i * 7) land 0xFF)) in
  let th = Bytes.init 32 (fun i -> Char.chr ((i * 13) land 0xFF)) in
  let writer = Record.create ~role:Record.Client ~master ~transcript:th ~rekey_after:max_int () in
  let reader = Record.create ~role:Record.Server ~master ~transcript:th ~rekey_after:max_int () in
  let ref_seal_key = Aes.expand (Bytes.sub master 0 16) in
  let ref_mac_key = Bytes.sub master 16 16 in
  let ref_nonce = Bytes.make 16 '\000' in
  let ref_out = Bytes.create page_size in
  let record_ok = function Ok v -> v | Error e -> failwith (Record.error_message e) in
  speedup ~target:"chan-record-seal" ~per:(`Bytes page_size)
    ~fast:
      (Clock.timed (fun () ->
           List.iter
             (fun seg -> ignore (record_ok (Record.deliver reader seg)))
             (record_ok (Record.seal_message writer page))))
    ~reference:
      (Clock.timed (fun () ->
           let off = ref 0 in
           while !off < page_size do
             let n = Stdlib.min Wire.max_plaintext (page_size - !off) in
             Hypertee_util.Bytes_ext.set_u64_be ref_nonce 8 (Int64.of_int !off);
             (* seal: encrypt the chunk, MAC the ciphertext *)
             let ct = Aes.ctr_reference ref_seal_key ~nonce:ref_nonce (Bytes.sub page !off n) in
             let tag = Keccak.Reference.mac_28bit ~key:ref_mac_key ct in
             (* open: recheck the tag, decrypt back *)
             if Keccak.Reference.mac_28bit ~key:ref_mac_key ct <> tag then
               failwith "reference seal path: tag mismatch";
             let pt = Aes.ctr_reference ref_seal_key ~nonce:ref_nonce ct in
             Bytes.blit pt 0 ref_out !off n;
             off := !off + n
           done));
  (* A fig6-style sweep end to end: host time of one whole run of the
     discrete-event simulation the paper figures are built from. *)
  let requests = if quick then 512 else 4096 in
  measure ~target:"fig6-sweep" ~per:`Call (fun () ->
      ignore
        (Fig6.run ~seed:0x516L ~cs_cores:4 ~ems_cores:2 ~ems_kind:Hypertee_arch.Config.Medium
           ~requests));
  (* p99 session latency at the saturation knee of a one-shard cloud
     sweep. Unlike the MB/s samples this is *modelled* virtual time —
     deterministic for the seed and machine-independent — so the
     baseline comparator gates it as an upper bound. *)
  let cloud = Cloud.run ~seed:0xC10D5L ~quick:true ~shard_counts:[ 1 ] () in
  (match cloud.Cloud.curves with
  | { Cloud.points; knee_mult; _ } :: _ -> (
    let at_knee =
      match knee_mult with
      | Some m -> List.find_opt (fun (p : Cloud.point) -> p.Cloud.offered_mult = m) points
      | None -> None
    in
    match at_knee with
    | Some p ->
      push
        {
          target = "cloud-p99-at-knee";
          metric = "p99-latency";
          value = p.Cloud.p99_ms;
          unit_ = "ms";
          runs = p.Cloud.completed;
          iqr = None;
        }
    | None -> ())
  | [] -> ());
  List.rev !samples

let find samples ~target ~metric =
  List.find_opt (fun s -> s.target = target && s.metric = metric) samples

let print ?(out = stdout) samples =
  Table.print ~out
    ~headers:[ "target"; "metric"; "value"; "iqr"; "unit"; "runs" ]
    ~aligns:[ Table.Left; Table.Left; Table.Right; Table.Right; Table.Left; Table.Right ]
    (List.map
       (fun s ->
         [
           s.target;
           s.metric;
           Table.fmt_f ~digits:2 s.value;
           Option.fold ~none:"-" ~some:(Table.fmt_f ~digits:2) s.iqr;
           s.unit_;
           string_of_int s.runs;
         ])
       samples);
  match find samples ~target:"aes-ctr-page" ~metric:"speedup-vs-reference" with
  | Some s ->
    Printf.fprintf out "AES-CTR 4 KiB page: %s over the pre-T-table reference\n"
      (Table.speedup s.value)
  | None -> ()

let write_json ~path samples =
  let h = host_info () in
  let oc = open_out path in
  output_string oc "{\n";
  Printf.fprintf oc
    "  \"host\": {\"hardware_threads\": %d, \"ocaml_version\": %S, \"word_size\": %d, \
     \"os_type\": %S},\n"
    h.hardware_threads h.ocaml_version h.word_size h.os_type;
  output_string oc "  \"samples\": [\n";
  let n = List.length samples in
  List.iteri
    (fun i s ->
      Printf.fprintf oc
        "    {\"target\": %S, \"metric\": %S, \"value\": %.6f, \"unit\": %S, \"runs\": %d%s}%s\n"
        s.target s.metric s.value s.unit_ s.runs
        (Option.fold ~none:"" ~some:(Printf.sprintf ", \"iqr\": %.6f") s.iqr)
        (if i = n - 1 then "" else ","))
    samples;
  output_string oc "  ]\n}\n";
  close_out oc

(* --- Regression guard against a committed baseline. --- *)

type regression = {
  r_target : string;
  r_metric : string;
  r_baseline : float;
  r_current : float option;
}

(* Line-based scan of our own emitter's output (both the current
   {host, samples} object and the older flat-array format): one
   sample object per line, keys in fixed order. No JSON library in
   the tree, and none needed to re-read what [write_json] wrote. *)
let load_baseline ~path =
  let ic = open_in path in
  let entries = ref [] in
  (try
     while true do
       let line = input_line ic in
       match
         Scanf.sscanf line " {%S: %S, %S: %S, %S: %f" (fun k1 t k2 m k3 v ->
             if k1 = "target" && k2 = "metric" && k3 = "value" then Some (t, m, v) else None)
       with
       | Some e -> entries := e :: !entries
       | None -> ()
       | exception Scanf.Scan_failure _ -> ()
       | exception End_of_file -> () (* short line, not a sample *)
     done
   with End_of_file -> ());
  close_in ic;
  List.rev !entries

(* Gate the baseline's speedup-vs-reference ratios (as a floor: both
   sides of each ratio run on the same machine in the same process,
   so the ratio is stable across hosts, whereas raw MB/s gated against
   a baseline file produced elsewhere would flap on every hardware
   difference) and its modelled p99-latency samples (as a ceiling:
   virtual time is deterministic for the seed, so any growth is a
   genuine cost-model or scheduling regression). A real data-plane
   regression shows up in the ratio — the reference implementations
   don't get faster by accident. A gated row the fresh run lacks
   regresses too: the guard fails closed when a row stops being
   produced. *)
let compare_to_baseline ~baseline ~tolerance_pct samples =
  let tol = tolerance_pct /. 100. in
  List.filter_map
    (fun (target, metric, bv) ->
      let regressed =
        match metric with
        | "speedup-vs-reference" -> Some (fun v -> bv > 0. && v < bv *. (1. -. tol))
        | "p99-latency" -> Some (fun v -> bv > 0. && v > bv *. (1. +. tol))
        | _ -> None
      in
      match regressed with
      | None -> None
      | Some regressed -> (
        let current = Option.map (fun s -> s.value) (find samples ~target ~metric) in
        match current with
        | Some v when not (regressed v) -> None
        | _ -> Some { r_target = target; r_metric = metric; r_baseline = bv; r_current = current }))
    baseline
