(* One benchmark run: set up the platform (several times, reporting
   the median), drive the workload's open-loop session stream for the
   requested wall time, check every output, sweep the platform's
   invariants, then derive the metrics on both clocks. *)

module Platform = Hypertee.Platform
module Config = Hypertee_arch.Config
module Stats = Hypertee_util.Stats
module Exec = Hypertee_sim.Exec
module Invariant = Hypertee_check.Invariant

exception Refused of string

let now = Probe.now
let ms_of_ns ns = float_of_int ns /. 1e6

(* Platform builds per run; [setup_s] is their median. *)
let setup_repeats = 5

(* Traced runs alternate traced and untraced blocks of this many
   sessions, so both see the same host conditions. *)
let trace_block = 8

(* Spans written to the Chrome trace file, earliest first. *)
let trace_file_limit = 200_000

type metric = { name : string; value : float; unit_ : string }

type outcome = {
  correct : bool;
  attempted : int;
  failed : int;
  end_to_end : metric list;
  per_layer : metric list;
}

let config_of (p : Gen.params) = { Config.default with Config.ems_shards = p.Gen.shards; domains = 1 }
let platform_seed seed = Int64.logxor seed 0x9E37L

(* --- set-up ----------------------------------------------------------- *)

type setup = {
  platform : Platform.t;
  probe : Probe.t;
  ctx : Sessions.ctx;
  create_ns : int;
  catalog_ns : int;
  warmup_ns : int;
  warmup_failures : string list;
}

let setup ~seed workload =
  let p = Gen.params workload in
  let t0 = now () in
  let platform = Platform.create ~seed:(platform_seed seed) ~config:(config_of p) () in
  let t1 = now () in
  (match Platform.exec_mode platform with
  | Exec.Deterministic -> ()
  | mode ->
    raise
      (Refused
         (Printf.sprintf "execution mode is %s; this benchmark measures deterministic single-domain execution only (unset %s)"
            (Exec.to_string mode) Exec.env_var)));
  let catalog = Gen.catalog ~seed workload in
  let pool = Gen.payload_pool ~seed in
  let t2 = now () in
  let probe = Probe.create platform in
  let ctx = Sessions.make_ctx probe ~catalog ~pool in
  let warm = Gen.warmup ~seed workload in
  let failures = ref [] in
  for _ = 1 to p.Gen.warmup do
    let s = Gen.next warm in
    Probe.begin_session probe ~index:(-1) ~in_window:false;
    match Sessions.run ctx s with Ok () -> () | Error e -> failures := e :: !failures
  done;
  let t3 = now () in
  {
    platform;
    probe;
    ctx;
    create_ns = t1 - t0;
    catalog_ns = t2 - t1;
    warmup_ns = t3 - t2;
    warmup_failures = !failures;
  }

(* A growable int array. *)
type ints = { mutable items : int array; mutable len : int }

let ints () = { items = Array.make 1024 0; len = 0 }

let push v x =
  if v.len = Array.length v.items then v.items <- Array.append v.items v.items;
  v.items.(v.len) <- x;
  v.len <- v.len + 1

let median l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* --- percentiles ------------------------------------------------------ *)

(* The highest percentile (at most p99) with at least ten samples
   beyond it. *)
let tail_pct n = Float.max 50.0 (Float.min 99.0 (100.0 *. (1.0 -. (10.0 /. float_of_int (Stdlib.max 1 n)))))

let pct stats p = if Stats.count stats = 0 then 0.0 else Stats.percentile stats p

(* Peak resident memory of this process, in MB (VmHWM). A run reads it
   once, when the modelled window completes: the per-shard operation
   journals grow with the calls served, so a reading at a fixed amount
   of work is comparable across runs of different length. *)
let peak_rss_mb () =
  let from_proc () =
    let ic = open_in "/proc/self/status" in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let rec scan () =
          match input_line ic with
          | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
                Some (float_of_int kb /. 1024.0))
          | _ -> scan ()
          | exception End_of_file -> None
        in
        scan ())
  in
  match (try from_proc () with Sys_error _ -> None) with
  | Some mb -> mb
  | None -> float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0

(* --- the run ---------------------------------------------------------- *)

let run ?(log = print_endline) ?(trace_dir = "sessionbench/out") ?window ~workload ~seed ~seconds ~trace () =
  let p = Gen.params workload in
  let window = Option.value window ~default:p.Gen.window in
  let say fmt = Printf.ksprintf log fmt in
  (* Set-up: build the platform [setup_repeats] times and keep the
     last build; only the earlier builds' timings are retained. *)
  let rec build k timings =
    Gc.full_major ();
    let scale = Reference.scale_now () in
    let s = setup ~seed workload in
    let f ns = float_of_int ns *. scale in
    let timings = (f s.create_ns, f s.catalog_ns, f s.warmup_ns, s.warmup_failures) :: timings in
    if k = 1 then (s, timings) else build (k - 1) timings
  in
  let st, timings = build setup_repeats [] in
  let setup_part f = median (List.map f timings) in
  let setup_s = setup_part (fun (c, k, w, _) -> c +. k +. w) /. 1e9 in
  let warmup_failures = List.concat_map (fun (_, _, _, f) -> f) timings in
  st.ctx.Sessions.warm_hits <- 0;
  st.ctx.Sessions.warm_misses <- 0;
  st.ctx.Sessions.record_bytes <- 0;
  Gc.full_major ();
  let probe = st.probe and ctx = st.ctx and platform = st.platform in
  let spans = probe.Probe.spans in
  let session_name = Spans.intern spans "bench.session" in
  let gen = Gen.create ~seed workload in
  (* Timed phase. Per session: its wall time and, if it completed, its
     host time ([-1] if it failed); both are scaled by the machine-speed
     reference afterwards. *)
  let session_wall = ints () and session_host = ints () and session_slot = ints () in
  let reference = Reference.create () in
  let traced_host_ns = ref 0 in
  let modelled_window = Array.make window { Model.arrival_ns = 0.0; shards = [||]; service_ns = [||] } in
  let window_ok = Array.make window false in
  let failures = ref 0 and first_error = ref None in
  let block_ns = [| 0; 0 |] and block_n = [| 0; 0 |] in
  let rss_mb = ref 0.0 in
  let before = Counters.snapshot platform in
  let gc0 = Gc.quick_stat () in
  let t_start = now () in
  let deadline = t_start + int_of_float (seconds *. 1e9) in
  let i = ref 0 in
  while now () < deadline || !i < window do
    let traced = trace && !i / trace_block mod 2 = 1 in
    let in_window = !i < window in
    push session_slot (Reference.tick reference);
    probe.Probe.tracing <- traced;
    let t0 = now () in
    let span = if traced then Spans.enter spans ~name:session_name ~session:!i ~arg:(-1) ~start:t0 else -1 in
    let s = Gen.next gen in
    Probe.begin_session probe ~index:!i ~in_window;
    let result = Sessions.run ctx s in
    let t1 = now () in
    if traced then Spans.leave spans span ~stop:t1;
    let b = if traced then 1 else 0 in
    block_ns.(b) <- block_ns.(b) + (t1 - t0);
    block_n.(b) <- block_n.(b) + 1;
    push session_wall (t1 - t0);
    (match result with
    | Ok () ->
      push session_host probe.Probe.host_ns;
      if traced then traced_host_ns := !traced_host_ns + probe.Probe.host_ns;
      if in_window then begin
        let shards, service_ns = Probe.session_calls probe in
        modelled_window.(!i) <- { Model.arrival_ns = s.Gen.arrival_ns; shards; service_ns };
        window_ok.(!i) <- true
      end
    | Error e ->
      push session_host (-1);
      incr failures;
      if !first_error = None then first_error := Some (Printf.sprintf "session %d: %s" !i e));
    incr i;
    if !i = window then rss_mb := peak_rss_mb ()
  done;
  let t_end = now () in
  probe.Probe.tracing <- trace;
  let offered = !i in
  let gc1 = Gc.quick_stat () in
  let after = Counters.snapshot platform in
  (* Host clock, scaled to the nominal machine speed. *)
  let scale = Reference.scales reference in
  let host_ms = Stats.create () and raw_host_ms = Stats.create () in
  let scaled_wall_ns = ref 0.0 and raw_wall_ns = ref 0 in
  for k = 0 to offered - 1 do
    let f = scale session_slot.items.(k) and wall = session_wall.items.(k) and h = session_host.items.(k) in
    scaled_wall_ns := !scaled_wall_ns +. (float_of_int wall *. f);
    raw_wall_ns := !raw_wall_ns + wall;
    if h >= 0 then begin
      Stats.add host_ms (ms_of_ns h *. f);
      Stats.add raw_host_ms (ms_of_ns h)
    end
  done;
  let reference_us = Reference.median_ns reference /. 1e3 in
  let completed = Stats.count host_ms in
  (* Post-run checks, outside every session. *)
  Probe.begin_session probe ~index:(-1) ~in_window:false;
  let sweep_name = Spans.intern spans "check.deep_sweep" in
  let sweep_t0 = now () in
  let report = Probe.layer probe sweep_name (fun () -> Platform.check ~deep:true platform) in
  let deep_sweep_ms = ms_of_ns (now () - sweep_t0) in
  probe.Probe.tracing <- false;
  let violations = List.length report.Invariant.violations in
  let mac_failures = Counters.get after "mee.mac_failures" in
  (* Modelled clock over the window. *)
  let modelled = Array.of_list (List.filteri (fun k _ -> window_ok.(k)) (Array.to_list modelled_window)) in
  let n_model = Array.length modelled in
  let replay_t0 = now () in
  let lat_ms = Stats.create () and events = ref 0 in
  for r = 0 to p.Gen.replicas - 1 do
    let sessions =
      if r = 0 then modelled
      else
        let arrivals = Gen.replica_arrivals ~seed workload ~replica:r ~n:n_model in
        Array.mapi (fun k s -> { s with Model.arrival_ns = arrivals.(k) }) modelled
    in
    let lat_ns, ev = Model.latencies ~shards:p.Gen.shards sessions in
    Array.iter (fun ns -> Stats.add lat_ms (ns /. 1e6)) lat_ns;
    events := !events + ev
  done;
  let n_lat = Stats.count lat_ms in
  let replay_s = float_of_int (now () - replay_t0) /. 1e9 in
  let util = Model.utilisation ~shards:p.Gen.shards ~offered_per_s:p.Gen.offered_per_s modelled in
  let correct = !failures = 0 && warmup_failures = [] && violations = 0 && mac_failures = 0.0 in
  let wall_s = float_of_int (t_end - t_start) /. 1e9 in
  let sessions_wall_s = !scaled_wall_ns /. 1e9 and raw_sessions_wall_s = float_of_int !raw_wall_ns /. 1e9 in
  let host_tail = tail_pct completed and model_tail = tail_pct n_lat in
  say "workload %s  seed %Ld  shards %d  offered %.0f sessions/s (modelled)  modelled utilisation %.2f"
    (Gen.name workload) seed p.Gen.shards p.Gen.offered_per_s util;
  say "sessions: %d offered, %d completed, %d failed, in %.2f s wall; modelled window %d sessions"
    offered completed !failures wall_s n_model;
  say "host percentiles: p50 and p%.2f of %d sessions; modelled: p50 and p%.2f of %d latencies (%d arrival sequences, replayed in %.2f s)"
    host_tail completed model_tail n_lat p.Gen.replicas replay_s;
  say "host clock scaled to a reference loop of %.0f us (median here %.1f us, %d runs): unscaled %.3f sessions/s, p50 %.4f ms, p%.2f %.4f ms"
    (Reference.nominal_ns /. 1e3) reference_us (Reference.runs reference)
    (float_of_int completed /. raw_sessions_wall_s)
    (pct raw_host_ms 50.0) host_tail (pct raw_host_ms host_tail);
  say "failed_frac %.6f (shed 0: no admission bucket; failed output checks %d; warm-up failures %d)"
    (float_of_int !failures /. float_of_int (Stdlib.max 1 offered))
    !failures (List.length warmup_failures);
  Option.iter (fun e -> say "first failure: %s" e) !first_error;
  List.iter (fun e -> say "warm-up failure: %s" e) warmup_failures;
  say "deep invariant sweep: %d violations, %d pages MAC-verified; mee.mac_failures %.0f" violations
    report.Invariant.pages_verified mac_failures;
  say "differential oracle: detached in timed runs (it replays every call; make check-invariants covers it)";
  let ok_frac = float_of_int completed /. float_of_int (Stdlib.max 1 offered) in
  let end_to_end =
    [
      { name = "sessions_per_s"; value = float_of_int completed /. sessions_wall_s; unit_ = "1/s" };
      { name = "session_host_p50_ms"; value = pct host_ms 50.0; unit_ = "ms" };
      { name = "session_host_p99_ms"; value = pct host_ms host_tail; unit_ = "ms" };
      { name = "modelled_p50_ms"; value = pct lat_ms 50.0; unit_ = "ms" };
      { name = "modelled_p99_ms"; value = pct lat_ms model_tail; unit_ = "ms" };
      { name = "ok_frac"; value = ok_frac; unit_ = "fraction" };
      { name = "setup_s"; value = setup_s; unit_ = "s" };
      { name = "peak_rss_mb"; value = !rss_mb; unit_ = "MB" };
    ]
  in
  let per_layer =
    if not trace then []
    else
      Layers.metrics ~log ~spans ~probe ~ctx ~shards:p.Gen.shards ~before ~after ~sessions:completed
        ~window:n_model ~events:(!events / p.Gen.replicas) ~gc0 ~gc1 ~traced_host_ns:!traced_host_ns
        ~untraced:(block_n.(0), block_ns.(0)) ~traced:(block_n.(1), block_ns.(1))
        ~deep_sweep_ms ~violations ~mac_failures
        ~setup:
          [
            ("setup.platform_create_ms", setup_part (fun (c, _, _, _) -> c) /. 1e6);
            ("setup.catalog_ms", setup_part (fun (_, k, _, _) -> k) /. 1e6);
            ("setup.warmup_ms", setup_part (fun (_, _, w, _) -> w) /. 1e6);
          ]
        ~unit_costs:(Unit_costs.measure ~seed)
        ~trace_path:(Filename.concat trace_dir (Printf.sprintf "trace-%s-%Ld.json" (Gen.name workload) seed))
        ~trace_limit:trace_file_limit
      @ [ ("sim.reference_loop_us", reference_us, "us") ]
  in
  let to_metric (name, value, unit_) = { name; value; unit_ } in
  { correct; attempted = offered; failed = !failures; end_to_end; per_layer = List.map to_metric per_layer }
