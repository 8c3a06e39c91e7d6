module Types = Hypertee_ems.Types
module Emcall = Hypertee_cs.Emcall
module Fault = Hypertee_faults.Fault
module Platform = Hypertee.Platform
module Xrng = Hypertee_util.Xrng
module Oracle = Hypertee_check.Oracle
module Invariant = Hypertee_check.Invariant
module Explorer = Hypertee_check.Explorer

type outcome = {
  calls : int;
  agreements : int;
  divergence_count : int;
  divergences : Oracle.divergence list;
  report : Invariant.report;
}

(* --- the workload ---------------------------------------------------- *)

(* [Traffic]'s plausible traffic with deliberately hostile or
   malformed requests mixed in: the oracle must predict each exact
   rejection. *)

type workload = { traffic : Traffic.t; rng : Xrng.t }

let make_workload ~seed =
  {
    traffic = Traffic.create (Xrng.create (Int64.add seed 23L));
    rng = Xrng.create (Int64.add seed 31L);
  }

let pick_opt rng = function
  | [] -> None
  | l -> Some (List.nth l (Xrng.int rng (List.length l)))

let abuse rng fleet =
  let bogus_id = 1_000_000 + Xrng.int rng 1000 in
  match Xrng.int rng 6 with
  | 0 ->
    (* privilege violation: Os-only primitive from user software *)
    (Emcall.User_host, Types.Create { config = Types.default_config })
  | 1 -> (
    (* forged sender: enclave A speaking for enclave B *)
    match fleet with
    | e :: _ -> (Emcall.User_enclave bogus_id, Types.Alloc { enclave = e; pages = 1 })
    | [] -> (Emcall.Os_kernel, Types.Destroy { enclave = bogus_id }))
  | 2 -> (Emcall.Os_kernel, Types.Destroy { enclave = bogus_id })
  | 3 ->
    ( Emcall.Os_kernel,
      Types.Create
        { config = { Types.default_config with Types.code_pages = 0 } } )
  | 4 -> (
    match pick_opt rng fleet with
    | Some e -> (Emcall.User_enclave e, Types.Alloc { enclave = e; pages = 0 })
    | None -> (Emcall.Os_kernel, Types.Destroy { enclave = bogus_id }))
  | _ -> (
    match pick_opt rng fleet with
    | Some e ->
      ( Emcall.User_enclave e,
        Types.Shmat { enclave = e; shm = bogus_id; requested_perm = Types.Read_only } )
    | None -> (Emcall.Os_kernel, Types.Destroy { enclave = bogus_id }))

let next_request w =
  if Xrng.int w.rng 20 < 3 then abuse w.rng (Traffic.enclaves w.traffic)
  else Traffic.next w.traffic

let drive platform w ~calls ~batch =
  let issued = ref 0 in
  while !issued < calls do
    if batch > 1 && !issued mod 16 = 0 && Traffic.enclaves w.traffic <> [] then begin
      (* a doorbell batch of management traffic *)
      let k = min batch (calls - !issued) in
      let reqs = List.init k (fun _ -> next_request w) in
      let results = Platform.invoke_batch platform reqs in
      List.iter2 (fun req result -> Traffic.absorb w.traffic req result) reqs results;
      issued := !issued + k
    end
    else begin
      let ((caller, request) as req) = next_request w in
      let result = Platform.invoke_timed platform ~caller request in
      Traffic.absorb w.traffic req result;
      incr issued
    end
  done

let oracle_replay ?(calls = 1200) ?(fault_rate = 0.0) ?(shards = 2) ?(seed = 0x76657269L)
    ?(deep = false) () =
  let faults =
    if fault_rate > 0.0 then Some (Fault.uniform ~seed:(Int64.add seed 0x5EEDL) ~rate:fault_rate ())
    else None
  in
  let config = { Hypertee_arch.Config.default with Hypertee_arch.Config.ems_shards = shards } in
  let platform = Platform.create ~seed ~config ?faults () in
  let oracle = Platform.attach_oracle platform in
  let w = make_workload ~seed in
  drive platform w ~calls ~batch:4;
  Platform.detach_oracle platform;
  let report = Platform.check ~deep platform in
  {
    calls = Oracle.observed oracle;
    agreements = Oracle.agreements oracle;
    divergence_count = Oracle.divergence_count oracle;
    divergences = Oracle.divergences oracle;
    report;
  }

(* --- explorer adapter ------------------------------------------------ *)

let scenario_driver (s : Explorer.scenario) =
  let config =
    {
      Hypertee_arch.Config.default with
      Hypertee_arch.Config.ems_shards = s.Explorer.shards;
      Hypertee_arch.Config.ems_cores = s.Explorer.ems_cores;
    }
  in
  let platform = Platform.create ~seed:s.Explorer.seed ~config ?faults:(Explorer.plan_of s) () in
  let oracle = Platform.attach_oracle platform in
  let w = make_workload ~seed:s.Explorer.seed in
  drive platform w ~calls:s.Explorer.ops ~batch:s.Explorer.batch;
  Platform.detach_oracle platform;
  let report = Platform.check platform in
  if Oracle.divergence_count oracle > 0 then
    Explorer.Fail
      (Format.asprintf "oracle: %d divergence(s); first: %a"
         (Oracle.divergence_count oracle) Oracle.pp_divergence
         (List.hd (Oracle.divergences oracle)))
  else if not (Invariant.ok report) then
    Explorer.Fail
      (Format.asprintf "invariants: %d violation(s); first: %a"
         (List.length report.Invariant.violations) Invariant.pp_violation
         (List.hd report.Invariant.violations))
  else Explorer.Pass

let explore ?(n = 24) () =
  Explorer.explore ~driver:scenario_driver ~seeds:(Explorer.default_seeds ~n)

(* --- CLI entry point ------------------------------------------------- *)

let run ?(deep = false) ?(calls = 1200) ?(seeds = 24) ?(out = stdout) () =
  let p fmt = Printf.fprintf out fmt in
  let show label o =
    p "%s: %d calls, %d agreed, %d diverged; invariants: %s\n" label o.calls o.agreements
      o.divergence_count
      (Invariant.report_to_string o.report);
    List.iter (fun d -> p "  %s\n" (Format.asprintf "%a" Oracle.pp_divergence d)) o.divergences;
    List.iter
      (fun v -> p "  %s\n" (Format.asprintf "%a" Invariant.pp_violation v))
      o.report.Invariant.violations;
    o.divergence_count = 0 && Invariant.ok o.report
  in
  let clean = show "clean replay" (oracle_replay ~calls ~deep ()) in
  (* The deep sweep runs under fault injection too: flips corrupt
     transient copies, and MAC failures struck by the sweep's own
     reads are excused through the injector's flip journal
     ([injected_macs]), so anything reported is the platform's
     doing. *)
  let faulty =
    show "fault-injected replay (rate 0.05)" (oracle_replay ~calls ~fault_rate:0.05 ~deep ())
  in
  let failures = explore ~n:seeds () in
  List.iter
    (fun (seed, s, reason) ->
      p "explorer seed %Ld FAILED (%s): %s\n" seed
        (Format.asprintf "%a" Explorer.pp_scenario s)
        reason)
    failures;
  p "explorer: %d/%d scenario(s) passed\n" (seeds - List.length failures) seeds;
  let ok = clean && faulty && failures = [] in
  p "verification %s\n" (if ok then "PASSED" else "FAILED");
  ok
