(* Workload generator: everything a run feeds the platform is drawn
   here from the workload seed, before and independently of any call
   into the program. The same seed yields byte-identical images and
   session lists. *)

module Xrng = Hypertee_util.Xrng
module Types = Hypertee_ems.Types
module Sdk = Hypertee.Sdk

let page_size = Hypertee_util.Units.page_size

type workload = Cold_launch | Warm_stream | Attested_channel

let all = [ Cold_launch; Warm_stream; Attested_channel ]

let name = function
  | Cold_launch -> "cold-launch"
  | Warm_stream -> "warm-stream"
  | Attested_channel -> "attested-channel"

let of_name s = List.find_opt (fun w -> name w = s) all

(* Fixed per-workload platform shape and load. [offered_per_s] is the
   open-loop arrival rate in modelled time, set once at about half of
   the workload's modelled capacity (mean modelled service per session
   on the busiest shard) and never recalibrated. [window] is the number
   of leading sessions the modelled clock is reported over, and the
   fewest sessions a run completes. *)
type params = {
  shards : int;
  offered_per_s : float;
  catalog_size : int;
  pages : int * int;  (** code+data pages per image, inclusive *)
  zipf_s : float option;  (** image popularity skew; [None] = uniform *)
  warmup : int;  (** untimed sessions before the timed phase *)
  window : int;
  replicas : int;  (** arrival sequences the modelled clock replays the window under *)
}

let params = function
  | Cold_launch ->
    {
      shards = 1;
      offered_per_s = 4700.0;
      catalog_size = 64;
      pages = (1, 16);
      zipf_s = None;
      warmup = 32;
      window = 2500;
      replicas = 16;
    }
  | Warm_stream ->
    {
      shards = 2;
      offered_per_s = 1700.0;
      catalog_size = 8;
      pages = (1, 4);
      zipf_s = Some 1.1;
      warmup = 32;
      window = 5000;
      replicas = 8;
    }
  | Attested_channel ->
    {
      shards = 1;
      offered_per_s = 60.0;
      catalog_size = 4;
      pages = (1, 4);
      zipf_s = Some 1.1;
      warmup = 8;
      window = 1000;
      replicas = 32;
    }

(* --- image catalog ---------------------------------------------------- *)

type entry = {
  image : Sdk.image;
  measurement : bytes;  (** {!Sdk.expected_measurement}, the EMEAS oracle *)
  plan : (int * bytes * bool) list;  (** {!Sdk.add_plan}, the EADD sequence *)
}

(* Heap sized for the largest cold-launch write (16 KiB). *)
let enclave_config =
  { Types.code_pages = 1; data_pages = 1; heap_pages = 4; stack_pages = 1; shared_pages = 1 }

(* A region of [n] pages: full pages and a partial last page. *)
let region rng n = if n = 0 then Bytes.empty else Xrng.bytes rng (((n - 1) * page_size) + Xrng.int_in rng 1 page_size)

(* Image sizes are stratified (image [k] has [lo + k mod (hi-lo+1)]
   pages), so every seed has the same size mix, and image [k]'s warm
   pool lives on shard [k mod shards], so every seed splits the load
   across shards the same way; the code/data split and the bytes are
   drawn from the seed. *)
let catalog ~seed workload =
  let p = params workload in
  let rng = Xrng.create (Int64.logxor seed 0x1AA6EL) in
  let lo, hi = p.pages in
  Array.init p.catalog_size (fun k ->
      let total = lo + (k mod (hi - lo + 1)) in
      let rec draw () =
        let code_pages = Xrng.int_in rng 1 total in
        let code = region rng code_pages in
        let data = region rng (total - code_pages) in
        let image = Sdk.image_of_code ~config:enclave_config ~code ~data () in
        let measurement = Sdk.expected_measurement image in
        if Types.warm_home ~shards:p.shards measurement <> k mod p.shards then draw ()
        else { image; measurement; plan = Sdk.add_plan image }
      in
      draw ())

(* --- sessions --------------------------------------------------------- *)

type shape =
  | Launch of { heap_bytes : int }  (** heap bytes written then read back *)
  | Stream of { up : int array; down : int array }
      (** raw segment sizes, host -> enclave and enclave -> host, per round *)
  | Attested of { up : int array; down : int array }
      (** AEAD message sizes, client -> enclave and enclave -> client *)

type session = {
  index : int;
  arrival_ns : float;  (** modelled arrival time *)
  image : int;  (** catalog index *)
  shape : shape;
  seed : int64;  (** payload bytes and handshake randomness *)
}

(* Stratified uniform draws: every block of [strata] consecutive draws
   takes exactly one value from each of [strata] equal slices of
   [0, 1), in a seeded random order. Each block of sessions then has
   nearly the same mix of sizes, gaps and images whatever the seed, so
   seed-to-seed spread comes from the program, not from sampling. *)
let strata = 500

type stratified = { srng : Xrng.t; perm : int array; mutable pos : int }

let stratified rng = { srng = Xrng.split rng; perm = Array.init strata Fun.id; pos = strata }

let uniform st =
  if st.pos = strata then begin
    Xrng.shuffle st.srng st.perm;
    st.pos <- 0
  end;
  let u = (float_of_int st.perm.(st.pos) +. Xrng.float st.srng) /. float_of_int strata in
  st.pos <- st.pos + 1;
  u

(* Exponential inter-arrival gap with the given mean. *)
let gap st ~mean = -.mean *. log (1.0 -. uniform st)

type t = {
  workload : workload;
  rng : Xrng.t;  (** per-segment and per-message sizes, session seeds *)
  gaps : stratified;
  images : stratified;
  counts : stratified;  (** heap bytes, rounds or messages per session *)
  cdf : float array option;
  catalog_size : int;
  mean_gap_ns : float;
  round_robin : bool;  (** warm-up: cycle the catalog so every image is parked *)
  mutable clock_ns : float;
  mutable next_index : int;
}

let zipf_cdf ~n ~s =
  let w = Array.init n (fun k -> 1.0 /. (float_of_int (k + 1) ** s)) in
  let total = Array.fold_left ( +. ) 0.0 w in
  let acc = ref 0.0 in
  Array.map
    (fun x ->
      acc := !acc +. (x /. total);
      !acc)
    w

let make ~seed ~salt ~round_robin workload =
  let p = params workload in
  let rng = Xrng.create (Int64.logxor seed salt) in
  let gaps = stratified rng in
  let images = stratified rng in
  let counts = stratified rng in
  {
    workload;
    rng;
    gaps;
    images;
    counts;
    cdf = Option.map (fun s -> zipf_cdf ~n:p.catalog_size ~s) p.zipf_s;
    catalog_size = p.catalog_size;
    mean_gap_ns = 1e9 /. p.offered_per_s;
    round_robin;
    clock_ns = 0.0;
    next_index = 0;
  }

(* The timed session stream. *)
let create ~seed workload = make ~seed ~salt:0x5E55L ~round_robin:false workload

(* The warm-up prefix: its own stream, images in catalog order. *)
let warmup ~seed workload = make ~seed ~salt:0x3A4DL ~round_robin:true workload

(* A geometric count >= 1 with the given mean, by inversion of [u],
   capped. *)
let geometric u ~mean ~cap =
  let n = 1 + int_of_float (log (1.0 -. u) /. log (1.0 -. (1.0 /. mean))) in
  Stdlib.min cap n

(* Log-uniform size in [lo, hi]. *)
let log_uniform rng ~lo ~hi =
  let r = float_of_int hi /. float_of_int lo in
  Stdlib.min hi (int_of_float (float_of_int lo *. (r ** Xrng.float rng)))

let pick_image g =
  let u = uniform g.images in
  match g.cdf with
  | _ when g.round_robin -> g.next_index mod g.catalog_size
  | None -> int_of_float (u *. float_of_int g.catalog_size)
  | Some cdf ->
    let rec find k = if k >= Array.length cdf - 1 || u < cdf.(k) then k else find (k + 1) in
    find 0

let next g =
  g.clock_ns <- g.clock_ns +. gap g.gaps ~mean:g.mean_gap_ns;
  let image = pick_image g in
  let u = uniform g.counts in
  let shape =
    match g.workload with
    | Cold_launch -> Launch { heap_bytes = 4096 + int_of_float (u *. 12289.0) }
    | Warm_stream ->
      let n = geometric u ~mean:32.0 ~cap:128 in
      let size () = Xrng.int_in g.rng 64 1024 in
      let up = Array.init n (fun _ -> size ()) in
      let down = Array.init n (fun _ -> size ()) in
      Stream { up; down }
    | Attested_channel ->
      let n = geometric u ~mean:2.0 ~cap:6 in
      let size () = log_uniform g.rng ~lo:256 ~hi:16384 in
      let up = Array.init n (fun _ -> size ()) in
      let down = Array.init n (fun _ -> size ()) in
      Attested { up; down }
  in
  let s = { index = g.next_index; arrival_ns = g.clock_ns; image; shape; seed = Xrng.next64 g.rng } in
  g.next_index <- g.next_index + 1;
  s

(* Further open-loop arrival sequences at the workload's offered rate,
   [n] arrival times each: the modelled clock replays the window's
   sessions under [replicas] sequences and pools the latencies, so its
   tail percentiles rest on [replicas * window] samples. *)
let replica_arrivals ~seed workload ~replica ~n =
  let rng = Xrng.create (Int64.add (Int64.logxor seed 0xA771L) (Int64.of_int (replica * 7919))) in
  let st = stratified rng in
  let mean = 1e9 /. (params workload).offered_per_s in
  let clock = ref 0.0 in
  Array.init n (fun _ ->
      clock := !clock +. gap st ~mean;
      !clock)

(* Canonical byte encoding of a session, for the determinism tests. *)
let session_bytes s =
  let b = Buffer.create 64 in
  let int i = Buffer.add_int64_le b (Int64.of_int i) in
  let ints a =
    int (Array.length a);
    Array.iter int a
  in
  int s.index;
  Buffer.add_int64_le b (Int64.bits_of_float s.arrival_ns);
  int s.image;
  (match s.shape with
  | Launch { heap_bytes } ->
    int 0;
    int heap_bytes
  | Stream { up; down } ->
    int 1;
    ints up;
    ints down
  | Attested { up; down } ->
    int 2;
    ints up;
    ints down);
  Buffer.add_int64_le b s.seed;
  Buffer.to_bytes b

(* Payload pool: session payloads are slices of one seeded buffer, so
   the timed phase spends no time generating bytes. *)
let pool_size = 1 lsl 16

let payload_pool ~seed = Xrng.bytes (Xrng.create (Int64.logxor seed 0xB0B0L)) pool_size

let payload pool rng len = Bytes.sub pool (Xrng.int rng (pool_size - len + 1)) len
