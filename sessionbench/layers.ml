(* Per-layer metrics of a traced run: span self times per layer, the
   platform's own counters normalised per session, and the unit costs.
   Layers are named after the library directories they live in. *)

module Stats = Hypertee_util.Stats
module Types = Hypertee_ems.Types

let traced_ops =
  Types.
    [
      ECREATE; EADD; EMEAS; EENTER; EEXIT; EATTEST; EWARM; ERETIRE; EDESTROY; ECHOPEN; ECHACC;
      ECHSEND; ECHRECV; ECHCLOSE;
    ]

let ratio a b = if b = 0.0 then 0.0 else a /. b
let fi = float_of_int

let metrics ~log ~spans ~(probe : Probe.t) ~(ctx : Sessions.ctx) ~shards ~before ~after ~sessions
    ~window ~events ~(gc0 : Gc.stat) ~(gc1 : Gc.stat) ~traced_host_ns ~untraced ~traced
    ~deep_sweep_ms ~violations ~mac_failures ~setup ~unit_costs ~trace_path ~trace_limit =
  let say fmt = Printf.ksprintf log fmt in
  let n = Spans.length spans in
  let self = Spans.self_times spans in
  (* Durations per span name, and self time per layer over the timed
     phase (spans that belong to a session). *)
  let by_name = Hashtbl.create 64 in
  let durations name =
    match Hashtbl.find_opt by_name name with
    | Some s -> s
    | None ->
      let s = Stats.create () in
      Hashtbl.add by_name name s;
      s
  in
  let layer_self = Hashtbl.create 8 in
  let session_wall = ref 0 and handshake_self = Hashtbl.create 64 in
  let seal_ns = ref 0 and seal_bytes = ref 0 and open_ns = ref 0 and open_bytes = ref 0 in
  let cs_ns = ref 0 in
  for i = 0 to n - 1 do
    let name = Spans.name_of spans (Spans.name_id spans i) in
    let d = Spans.duration spans i in
    Stats.add (durations name) (fi d);
    if Spans.session spans i >= 0 then begin
      let layer = Spans.layer_of name in
      Hashtbl.replace layer_self layer (self.(i) + Option.value ~default:0 (Hashtbl.find_opt layer_self layer));
      if Spans.parent spans i < 0 then session_wall := !session_wall + d;
      if layer = "cs" then cs_ns := !cs_ns + d;
      match name with
      | "channel.handshake.create" | "channel.handshake.start" | "channel.handshake.on_segment" ->
        let sid = Spans.session spans i in
        Hashtbl.replace handshake_self sid (self.(i) + Option.value ~default:0 (Hashtbl.find_opt handshake_self sid))
      | "channel.record.seal" ->
        seal_ns := !seal_ns + self.(i);
        seal_bytes := !seal_bytes + Spans.arg spans i
      | "channel.record.open" ->
        open_ns := !open_ns + self.(i);
        open_bytes := !open_bytes + Spans.arg spans i
      | _ -> ()
    end
  done;
  let p50_us name =
    match Hashtbl.find_opt by_name name with Some s when Stats.count s > 0 -> Stats.percentile s 50.0 /. 1e3 | _ -> 0.0
  in
  (* Coverage: layer self times plus the benchmark's own time must account
     for the whole traced part of the timed phase. *)
  let layers = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) layer_self []) in
  let covered = List.fold_left (fun acc (_, v) -> acc + v) 0 layers in
  let bench_self = Option.value ~default:0 (Hashtbl.find_opt layer_self "bench") in
  let nesting = Spans.nesting_errors spans in
  say "traced timed phase: %d sessions, %.3f s; self time per layer:" (fst traced) (fi !session_wall /. 1e9);
  List.iter
    (fun (layer, v) ->
      say "  %-8s %10.3f ms  %6.2f%%" layer (fi v /. 1e6)
        (100.0 *. ratio (fi v) (fi !session_wall)))
    layers;
  say "  layers + bench = %.3f ms of %.3f ms traced wall (%s); %d span nesting errors"
    (fi covered /. 1e6) (fi !session_wall /. 1e6)
    (if covered = !session_wall then "complete" else "INCOMPLETE")
    nesting;
  let written = Spans.write_chrome spans ~path:trace_path ~limit:trace_limit in
  say "spans: %d recorded, %d written to %s" n written trace_path;
  let sessions_f = fi (Stdlib.max 1 sessions) in
  let window_f = fi (Stdlib.max 1 window) in
  let delta name = Counters.delta ~before ~after name in
  let shard_delta suffix = Counters.shard_delta ~before ~after ~shards suffix in
  let shard_end suffix = Counters.shard_sum after ~shards suffix in
  let per_session v = v /. sessions_f in
  let cs =
    List.concat_map
      (fun op ->
        let k = Probe.op_index op and nm = Types.opcode_name op in
        let calls = probe.Probe.op_calls.(k) in
        [
          (Printf.sprintf "cs.emcall.%s.host_us" nm, p50_us ("cs.emcall." ^ nm), "us");
          (Printf.sprintf "cs.emcall.%s.calls" nm, fi calls /. window_f, "1/session");
          ( Printf.sprintf "cs.emcall.%s.modelled_us" nm,
            ratio probe.Probe.op_modelled_ns.(k) (fi calls) /. 1e3,
            "us" );
        ])
      traced_ops
  in
  let loads = delta "mee.loads" +. delta "mee.range_loads" in
  let handshake_ms =
    let s = Stats.create () in
    Hashtbl.iter (fun _ v -> Stats.add s (fi v /. 1e6)) handshake_self;
    if Stats.count s = 0 then 0.0 else Stats.percentile s 50.0
  in
  let sps (k, ns) = ratio (fi k) (fi ns /. 1e9) in
  let gc_delta f = f gc1 -. f gc0 in
  cs
  @ [
      ("cs.emcall.host_share", ratio (fi !cs_ns) (fi traced_host_ns), "fraction");
      ("cs.emcall.retries", per_session (delta "emcall.retries"), "1/session");
      ("cs.emcall.timeouts", per_session (delta "emcall.timeouts"), "1/session");
      ("cs.emcall.tlb_flushes", per_session (delta "emcall.tlb_flushes"), "1/session");
      ("arch.mee.stores_per_session", per_session (delta "mee.stores"), "1/session");
      ("arch.mee.loads_per_session", per_session (delta "mee.loads"), "1/session");
      ("arch.mee.range_loads_per_session", per_session (delta "mee.range_loads"), "1/session");
      ("arch.mee.range_updates_per_session", per_session (delta "mee.range_updates"), "1/session");
      ("arch.mee.mac_cache_hit_ratio", ratio (delta "mee.mac_cache_hits") loads, "fraction");
      ("arch.mee.mac_failures", mac_failures, "count");
      ("arch.mailbox.issued_per_session", per_session (shard_delta "mailbox.issued"), "1/session");
      ("arch.mailbox.dropped", shard_end "mailbox.dropped", "count");
      ("ems.sched.executed_per_session", per_session (shard_delta "sched.executed"), "1/session");
      ( "ems.warm_hit_ratio",
        ratio (fi ctx.Sessions.warm_hits) (fi (ctx.Sessions.warm_hits + ctx.Sessions.warm_misses)),
        "fraction" );
      ("ems.chan.segs_delivered_per_session", per_session (delta "chan.segs_delivered"), "1/session");
      ("ems.live_enclaves_end", shard_end "ems.live_enclaves", "count");
      ("ems.sched.pending_end", shard_end "sched.pending", "count");
      ("channel.handshake.host_ms", handshake_ms, "ms");
      ( "channel.handshake.modelled_ms",
        ratio ctx.Sessions.handshake_modelled_ns (fi ctx.Sessions.handshakes) /. 1e6,
        "ms" );
      ("channel.record.seal_us_per_kib", ratio (fi !seal_ns /. 1e3) (fi !seal_bytes /. 1024.0), "us/KiB");
      ("channel.record.open_us_per_kib", ratio (fi !open_ns /. 1e3) (fi !open_bytes /. 1024.0), "us/KiB");
      ("channel.record.bytes_per_session", per_session (fi ctx.Sessions.record_bytes), "B/session");
      ("core.verifier.verify_quote_us", p50_us "core.verifier.verify_quote", "us");
    ]
  @ List.map (fun (name, v) -> (name, v, "us")) unit_costs
  @ [
      ("sim.events_per_session", ratio (fi events) window_f, "1/session");
      ("sim.driver_self_share", ratio (fi bench_self) (fi !session_wall), "fraction");
      ("check.deep_sweep_ms", deep_sweep_ms, "ms");
      ("check.violations", fi violations, "count");
      ("gc.minor_words_per_session", per_session (gc_delta (fun g -> g.Gc.minor_words)), "words/session");
      ("gc.promoted_words_per_session", per_session (gc_delta (fun g -> g.Gc.promoted_words)), "words/session");
      ( "gc.major_collections_per_ksession",
        1000.0 *. per_session (fi (gc1.Gc.major_collections - gc0.Gc.major_collections)),
        "1/ksession" );
    ]
  @ List.map (fun (name, v) -> (name, v, "ms")) setup
  @ [ ("trace.overhead_frac", ratio (sps untraced) (sps traced) -. 1.0, "fraction") ]
