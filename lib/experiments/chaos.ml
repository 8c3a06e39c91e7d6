module Types = Hypertee_ems.Types
module Emcall = Hypertee_cs.Emcall
module Fault = Hypertee_faults.Fault
module Platform = Hypertee.Platform
module Xrng = Hypertee_util.Xrng
module Stats = Hypertee_util.Stats
module Oracle = Hypertee_check.Oracle

type point = {
  fault_rate : float;
  ops : int;
  ok : int;
  degraded : int;
  timeouts : int;
  success_rate : float;
  p50_ns : float;
  p99_ns : float;
  injected : int;
  recovered : int;
  enclaves_killed : int;
  retries : int;
  invariant_violations : int;
}

let default_rates = [ 0.0; 0.01; 0.02; 0.05; 0.1; 0.2 ]

(* Outcome buckets shared by the sweep and the rolling restart. *)
type tally = {
  mutable ok : int;
  mutable degraded : int;  (* an EMS error, or a gate rejection short of a timeout *)
  mutable timeouts : int;
  latencies : Stats.t;  (* of the [ok] calls *)
}

let new_tally () = { ok = 0; degraded = 0; timeouts = 0; latencies = Stats.create () }

(* One iteration = exactly one EMCall of [Traffic]'s valid traffic:
   the point of the sweep is that the *platform* keeps its promises,
   so anything but a served response (a fault killed an enclave under
   the workload, or the gate gave up) is counted against it. *)
let step platform traffic tally =
  let request, result = Traffic.issue traffic platform in
  (match result with
  | Ok (Types.Err _, _) | Error (Emcall.Cross_privilege | Emcall.Mailbox_full | Emcall.Busy) ->
    tally.degraded <- tally.degraded + 1
  | Ok (_, latency_ns) ->
    tally.ok <- tally.ok + 1;
    Stats.add tally.latencies latency_ns
  | Error Emcall.Timeout -> tally.timeouts <- tally.timeouts + 1);
  request

let run_point ~seed ~fault_rate ~ops =
  let faults = Fault.uniform ~seed:(Int64.add seed 0x5EEDL) ~rate:fault_rate () in
  let platform = Platform.create ~seed ~faults () in
  let traffic = Traffic.create (Xrng.create (Int64.add seed 17L)) in
  let tally = new_tally () in
  for _ = 1 to ops do
    ignore (step platform traffic tally)
  done;
  let audit = Hypertee_ems.Runtime.audit (Platform.Internals.runtime platform) in
  let events = Hypertee_ems.Audit.fault_events audit in
  let recovered = List.length (List.filter (fun e -> e.Hypertee_ems.Audit.recovered) events) in
  let enclaves_killed =
    List.length
      (List.filter (fun e -> e.Hypertee_ems.Audit.site = "memory-integrity") events)
  in
  let injected =
    match Platform.Internals.faults platform with Some inj -> Fault.total_fired inj | None -> 0
  in
  let pct p = if Stats.count tally.latencies = 0 then 0.0 else Stats.percentile tally.latencies p in
  {
    fault_rate;
    ops;
    ok = tally.ok;
    degraded = tally.degraded;
    timeouts = tally.timeouts;
    success_rate = float_of_int tally.ok /. float_of_int (Stdlib.max 1 ops);
    p50_ns = pct 50.0;
    p99_ns = pct 99.0;
    injected;
    recovered;
    enclaves_killed;
    retries = Emcall.retries (Platform.Internals.emcall platform);
    (* Availability is not enough: the survived platform must also
       still be *consistent*. *)
    invariant_violations =
      List.length (Platform.check platform).Hypertee_check.Invariant.violations;
  }

let run ~seed ~ops = List.map (fun fault_rate -> run_point ~seed ~fault_rate ~ops) default_rates

(* --- Rolling restart: kill and recover every EMS shard ------------- *)

type restart_round = {
  shard_killed : int;
  outage_ops : int;
  outage_timeouts : int;  (** requests that hit the dead shard *)
  outage_errors : int;
  replayed : int;
  replay_mismatches : int;
  lost_enclaves : int;
  migration : string option;  (** post-recovery live-migration outcome *)
  round_violations : int;
  round_divergences : int;  (** oracle divergences accrued this round *)
}

type restart_report = {
  shards : int;
  total_ops : int;
  rounds : restart_round list;
  total_lost : int;
  recovered_events : int;  (** recovered fault events across every shard's audit *)
  recovery_sites : (string * int) list;  (** recovered events by audit site *)
  oracle_observed : int;
  oracle_divergences : int;
  final_violations : int;
}

let restart_default_ops = 400

let live_ids platform =
  Array.fold_left
    (fun acc rt -> Hypertee_ems.Runtime.live_enclaves rt @ acc)
    []
    (Platform.Internals.runtimes platform)
  |> List.sort_uniq compare

(* The newest enclave quiescent enough to live-migrate: measured,
   not running, with no shared region attached. *)
let idle_enclave platform =
  let idle id =
    match
      Hypertee_ems.Runtime.find_enclave
        (Platform.Internals.runtime_of_shard platform (Platform.shard_of_enclave platform id))
        id
    with
    | Some enc ->
      enc.Hypertee_ems.Enclave.state = Hypertee_ems.Enclave.Measured
      && enc.Hypertee_ems.Enclave.attached_shms = []
    | None -> false
  in
  List.find_opt idle (List.rev (live_ids platform))

let rolling_restart ?(seed = 0xC4A05CADEL) ?(ops = restart_default_ops) ?(shards = 3) () =
  if shards < 2 then invalid_arg "Chaos.rolling_restart: need at least 2 shards";
  let config = { Hypertee_arch.Config.default with Hypertee_arch.Config.ems_shards = shards } in
  (* No fault plan: the only "fault" is the shard crash itself, so
     every timeout and recovery event in the report is attributable
     to the restart. *)
  let platform = Platform.create ~seed ~config () in
  let oracle = Platform.attach_oracle platform in
  let traffic = Traffic.create (Xrng.create (Int64.add seed 29L)) in
  let tally = new_tally () in
  (* Enclaves for which we issued EDESTROY, successfully or with an
     unknown (timed-out) outcome — excused from the lost-enclave
     accounting, because the destroy may legitimately land when the
     recovered shard drains its backlog. *)
  let destroy_issued : (Types.enclave_id, unit) Hashtbl.t = Hashtbl.create 16 in
  let run_phase n =
    for _ = 1 to n do
      match step platform traffic tally with
      | Types.Destroy { enclave } -> Hashtbl.replace destroy_issued enclave ()
      | _ -> ()
    done
  in
  let steady = Stdlib.max 20 (ops / (shards + 1)) in
  let outage_ops = Stdlib.max 10 (ops / (5 * shards)) in
  let issued = ref 0 in
  let divergences_seen = ref 0 in
  let total_lost = ref 0 in
  let rounds =
    List.init shards (fun s ->
        (* Steady traffic, then the crash. *)
        run_phase steady;
        issued := !issued + steady;
        let pre = live_ids platform in
        Platform.kill_shard platform s;
        let t0 = tally.timeouts and e0 = tally.degraded in
        run_phase outage_ops;
        issued := !issued + outage_ops;
        let recovery = Platform.recover_shard platform s in
        (* Every enclave alive before the crash must still be alive —
           reconstructed by journal replay if it lived on the dead
           shard — unless we ourselves asked for its destruction. *)
        let survivors = live_ids platform in
        let lost =
          List.filter
            (fun id ->
              (not (Hashtbl.mem destroy_issued id)) && not (List.mem id survivors))
            pre
        in
        total_lost := !total_lost + List.length lost;
        (* Post-recovery rebalance: live-migrate one idle enclave off
           the recovered shard's successor ring. *)
        let migration =
          Option.map
            (fun id ->
              let target = (Platform.shard_of_enclave platform id + 1) mod shards in
              match Platform.migrate platform ~enclave:id ~target with
              | Platform.Migrated -> Printf.sprintf "enclave %d -> shard %d" id target
              | Platform.Migration_aborted reason -> "aborted: " ^ reason
              | Platform.Migration_crashed { after; _ } ->
                "crashed after " ^ Platform.migration_phase_name after)
            (idle_enclave platform)
        in
        let report = Platform.check platform in
        let diverged_now = Oracle.divergence_count oracle in
        let round_divergences = diverged_now - !divergences_seen in
        divergences_seen := diverged_now;
        {
          shard_killed = s;
          outage_ops;
          outage_timeouts = tally.timeouts - t0;
          outage_errors = tally.degraded - e0;
          replayed = recovery.Platform.replayed;
          replay_mismatches = recovery.Platform.mismatches;
          lost_enclaves = List.length lost;
          migration;
          round_violations = List.length report.Hypertee_check.Invariant.violations;
          round_divergences;
        })
  in
  (* Tail traffic over the fully recovered platform, then the
     end-of-run sweeps. *)
  run_phase steady;
  issued := !issued + steady;
  let final = Platform.check ~deep:true platform in
  Platform.detach_oracle platform;
  let events =
    Array.fold_left
      (fun acc rt ->
        List.filter
          (fun ev -> ev.Hypertee_ems.Audit.recovered)
          (Hypertee_ems.Audit.fault_events (Hypertee_ems.Runtime.audit rt))
        @ acc)
      []
      (Platform.Internals.runtimes platform)
  in
  let recovery_sites =
    List.sort_uniq compare (List.map (fun ev -> ev.Hypertee_ems.Audit.site) events)
    |> List.map (fun site ->
           (site, List.length (List.filter (fun ev -> ev.Hypertee_ems.Audit.site = site) events)))
  in
  {
    shards;
    total_ops = !issued;
    rounds;
    total_lost = !total_lost;
    recovered_events = List.length events;
    recovery_sites;
    oracle_observed = Oracle.observed oracle;
    oracle_divergences = Oracle.divergence_count oracle;
    final_violations = List.length final.Hypertee_check.Invariant.violations;
  }

let restart_clean r =
  r.total_lost = 0 && r.oracle_divergences = 0 && r.final_violations = 0
  && List.for_all (fun round -> round.round_violations = 0 && round.replay_mismatches = 0) r.rounds

let print_restart ?(out = stdout) r =
  Printf.fprintf out
    "rolling restart: %d shard(s) killed and recovered in turn, %d ops (no fault plan)\n"
    r.shards r.total_ops;
  Hypertee_util.Table.print ~out
    ~headers:
      [ "killed"; "outage ops"; "timeouts"; "errors"; "replayed"; "mismatch"; "lost";
        "inv"; "oracle div"; "post-recovery migration" ]
    ~aligns:
      Hypertee_util.Table.
        [ Right; Right; Right; Right; Right; Right; Right; Right; Right; Left ]
    (List.map
       (fun round ->
         [
           Printf.sprintf "shard %d" round.shard_killed;
           string_of_int round.outage_ops;
           string_of_int round.outage_timeouts;
           string_of_int round.outage_errors;
           string_of_int round.replayed;
           string_of_int round.replay_mismatches;
           string_of_int round.lost_enclaves;
           string_of_int round.round_violations;
           string_of_int round.round_divergences;
           (match round.migration with Some m -> m | None -> "-");
         ])
       r.rounds);
  Printf.fprintf out "recovered fault events: %d (%s)\n" r.recovered_events
    (String.concat ", "
       (List.map (fun (site, n) -> Printf.sprintf "%s: %d" site n) r.recovery_sites));
  Printf.fprintf out "oracle: %d observed, %d divergence(s); lost enclaves: %d\n"
    r.oracle_observed r.oracle_divergences r.total_lost;
  Printf.fprintf out "end-of-run deep invariant sweep: %d violation(s)\n" r.final_violations;
  Printf.fprintf out "rolling restart %s\n" (if restart_clean r then "PASSED" else "FAILED")

(* The one rendering of a sweep, shared by the CLI and the benchmark
   harness — callers that capture output pass their own channel. *)
let print ?(out = stdout) points =
  Hypertee_util.Table.print ~out
    ~headers:
      [ "fault rate"; "ops"; "success"; "degraded"; "timeouts"; "killed"; "p50 (us)";
        "p99 (us)"; "injected"; "recovered"; "retries"; "inv" ]
    ~aligns:
      Hypertee_util.Table.
        [ Right; Right; Right; Right; Right; Right; Right; Right; Right; Right; Right; Right ]
    (List.map
       (fun p ->
         [
           Printf.sprintf "%.2f" p.fault_rate;
           string_of_int p.ops;
           Hypertee_util.Table.pct (p.success_rate *. 100.0);
           string_of_int p.degraded;
           string_of_int p.timeouts;
           string_of_int p.enclaves_killed;
           Hypertee_util.Table.fmt_f ~digits:1 (p.p50_ns /. 1e3);
           Hypertee_util.Table.fmt_f ~digits:1 (p.p99_ns /. 1e3);
           string_of_int p.injected;
           string_of_int p.recovered;
           string_of_int p.retries;
           string_of_int p.invariant_violations;
         ])
       points)
