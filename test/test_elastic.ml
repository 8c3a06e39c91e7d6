(* Elasticity and crash recovery: sealed checkpoint/restore, live
   cross-shard migration (including a crash between every pair of
   phases), crash-consistent shard recovery via journal replay, the
   batched drain-order oracle, the fault-excused deep sweep, and
   audit attribution of every elasticity outcome. *)

module Types = Hypertee_ems.Types
module Emcall = Hypertee_cs.Emcall
module Platform = Hypertee.Platform
module Config = Hypertee_arch.Config
module Fault = Hypertee_faults.Fault
module Runtime = Hypertee_ems.Runtime
module Enclave = Hypertee_ems.Enclave
module Mem_pool = Hypertee_ems.Mem_pool
module Attest = Hypertee_ems.Attest
module Audit = Hypertee_ems.Audit
module Page_table = Hypertee_arch.Page_table
module Pte = Hypertee_arch.Pte
module Mem_encryption = Hypertee_arch.Mem_encryption
module Invariant = Hypertee_check.Invariant
module Oracle = Hypertee_check.Oracle

let prop = QCheck_alcotest.to_alcotest ~speed_level:`Quick
let check = Alcotest.check

let fresh ?faults ?(shards = 2) ~seed () =
  Platform.create ~seed ?faults ~config:{ Config.default with Config.ems_shards = shards } ()

let page_of byte = Bytes.make Hypertee_util.Units.page_size (Char.chr (byte land 0xff))

let gate label platform caller request =
  match Platform.invoke platform ~caller request with
  | Ok (Types.Err e) -> Alcotest.failf "%s: %s" label (Types.error_message e)
  | Ok r -> r
  | Error _ -> Alcotest.failf "%s: gate rejection" label

(* Create + EADD [code_pages] distinct pages + EMEAS: a quiescent
   [Measured] enclave, the precondition for checkpoint/migration. *)
let build_enclave ?(code_pages = 2) ?(fill = 0x41) platform =
  match gate "create" platform Emcall.Os_kernel (Types.Create { config = Types.default_config }) with
  | Types.Ok_created { enclave } ->
    for i = 0 to code_pages - 1 do
      ignore
        (gate "add" platform Emcall.Os_kernel
           (Types.Add { enclave; vpn = 0x100 + i; data = page_of (fill + i); executable = false }))
    done;
    (match gate "measure" platform Emcall.Os_kernel (Types.Measure { enclave }) with
    | Types.Ok_measure { measurement } -> (enclave, measurement)
    | _ -> Alcotest.fail "measure: unexpected response")
  | _ -> Alcotest.fail "create: unexpected response"

(* Every page of the enclave, resident ones decrypted through the
   engine, swapped ones as their EWB blobs — the full observable
   memory image the checkpoint must preserve. *)
let page_view platform ~shard ~enclave =
  let rt = Platform.Internals.runtime_of_shard platform shard in
  match Runtime.find_enclave rt enclave with
  | None -> Alcotest.failf "page_view: enclave %d not on shard %d" enclave shard
  | Some e ->
    let mee = Platform.Internals.mee platform in
    let mem = Platform.mem platform in
    let resident =
      List.map
        (fun (vpn, pte) ->
          (vpn, `Resident (Mem_encryption.read_page mee mem ~key_id:pte.Pte.key_id ~frame:pte.Pte.ppn)))
        (Page_table.entries e.Enclave.page_table)
    in
    let swapped =
      Hashtbl.fold (fun vpn blob acc -> (vpn, `Swapped blob) :: acc) e.Enclave.swapped_out []
    in
    List.sort compare (resident @ swapped)

let attest_verifies platform ~enclave ~measurement =
  match
    Platform.invoke platform ~caller:(Emcall.User_enclave enclave)
      (Types.Attest { enclave; user_data = Bytes.of_string "elastic" })
  with
  | Ok (Types.Ok_attest { quote }) -> (
    match Attest.quote_of_bytes quote with
    | None -> false
    | Some q ->
      Attest.verify_quote ~ek:(Platform.ek_public platform) ~ak:(Platform.ak_public platform) q
      && Bytes.equal q.Attest.enclave_measurement measurement)
  | _ -> false

let clean label platform =
  let report = Platform.check ~deep:true platform in
  if not (Invariant.ok report) then
    Alcotest.failf "%s: %s" label (Invariant.report_to_string report)

(* --- checkpoint/restore round trip (property) --- *)

let prop_roundtrip =
  QCheck.Test.make ~name:"checkpoint/restore preserves measurement, pages and attestation"
    ~count:15
    QCheck.(tup3 (int_range 1 3) (int_range 0 4) bool)
    (fun (code_pages, heap_pages, evict) ->
      let platform = fresh ~shards:2 ~seed:0x20BB1EL () in
      let enclave, measurement = build_enclave ~code_pages ~fill:(0x30 + code_pages) platform in
      if heap_pages > 0 then
        ignore
          (gate "alloc" platform (Emcall.User_enclave enclave)
             (Types.Alloc { enclave; pages = heap_pages }));
      if evict && heap_pages > 0 then begin
        (* Drain the hot shard's pool so EWB must evict live heap
           pages: the snapshot then carries both residents and
           swap blobs. *)
        let pool = Runtime.pool (Platform.Internals.runtime_of_shard platform 0) in
        ignore (Mem_pool.surrender pool ~n:(Mem_pool.available pool));
        ignore
          (gate "writeback" platform Emcall.Os_kernel (Types.Writeback { pages_hint = 16 }))
      end;
      let source_view = page_view platform ~shard:0 ~enclave in
      match Platform.checkpoint platform ~enclave with
      | Error e -> Alcotest.failf "checkpoint: %s" (Types.error_message e)
      | Ok blob -> (
        (* Restore on the *other* shard: exercises adoption and a
           disjoint frame pool. *)
        match Platform.restore ~shard:1 platform blob with
        | Error e -> Alcotest.failf "restore: %s" (Types.error_message e)
        | Ok restored ->
          let restored_view = page_view platform ~shard:1 ~enclave:restored in
          let source_live =
            Runtime.find_enclave (Platform.Internals.runtime_of_shard platform 0) enclave <> None
          in
          clean "round trip" platform;
          source_live
          && restored_view = source_view
          && attest_verifies platform ~enclave:restored ~measurement))

(* --- live migration: success path --- *)

let test_migrate_success () =
  let platform = fresh ~shards:2 ~seed:0x316A7EL () in
  let enclave, measurement = build_enclave platform in
  (match Platform.migrate platform ~enclave ~target:1 with
  | Platform.Migrated -> ()
  | Platform.Migration_aborted reason -> Alcotest.failf "aborted: %s" reason
  | Platform.Migration_crashed _ -> Alcotest.fail "unscripted crash");
  check Alcotest.int "gate routes the id to the target shard" 1
    (Platform.shard_of_enclave platform enclave);
  check Alcotest.bool "source copy destroyed" true
    (Runtime.find_enclave (Platform.Internals.runtime_of_shard platform 0) enclave = None);
  check Alcotest.bool "attestation survives migration (same id, same measurement)" true
    (attest_verifies platform ~enclave ~measurement);
  clean "post-migration" platform

(* --- live migration: crash between every pair of phases --- *)

let test_migrate_crash_at_every_phase () =
  List.iter
    (fun phase ->
      let name = Platform.migration_phase_name phase in
      let platform = fresh ~shards:2 ~seed:0xC7A54L () in
      let enclave, measurement = build_enclave platform in
      (match Platform.migrate ~crash_after:phase platform ~enclave ~target:1 with
      | Platform.Migration_crashed { after; owner } ->
        check Alcotest.string "crash attributed to the scripted phase" name
          (Platform.migration_phase_name after);
        let on s =
          Runtime.find_enclave (Platform.Internals.runtime_of_shard platform s) enclave <> None
        in
        (match (owner, on 0, on 1) with
        | `Source, true, false | `Target, false, true -> ()
        | _, src, tgt ->
          Alcotest.failf "crash after %s: source=%b target=%b, owner not exclusive" name src tgt)
      | Platform.Migrated -> Alcotest.failf "crash after %s ignored" name
      | Platform.Migration_aborted reason ->
        Alcotest.failf "crash after %s became abort: %s" name reason);
      (* Whichever copy survived, the gate still reaches it and its
         identity is intact. *)
      check Alcotest.bool
        (Printf.sprintf "attestation reaches the survivor after crash at %s" name)
        true
        (attest_verifies platform ~enclave ~measurement);
      clean (Printf.sprintf "crash after %s" name) platform)
    Platform.[ Quiesced; Checkpointed; Transferred; Restored; Attested; Committed ]

(* --- kill / cold-restart a shard --- *)

let test_kill_and_recover_shard () =
  let platform = fresh ~shards:2 ~seed:0x12EC0L () in
  let e0, m0 = build_enclave ~fill:0x50 platform in
  let e1, m1 = build_enclave ~fill:0x60 platform in
  check Alcotest.int "fleet spans both shards" 1
    (Platform.shard_of_enclave platform e1 - Platform.shard_of_enclave platform e0);
  ignore (gate "alloc e0" platform (Emcall.User_enclave e0) (Types.Alloc { enclave = e0; pages = 2 }));
  Platform.kill_shard platform 0;
  check Alcotest.bool "shard 0 down" false (Platform.shard_alive platform 0);
  (match Platform.invoke platform ~caller:(Emcall.User_enclave e0) (Types.Alloc { enclave = e0; pages = 1 }) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "request served by a dead shard");
  check Alcotest.bool "other shard unaffected" true (attest_verifies platform ~enclave:e1 ~measurement:m1);
  let report = Platform.recover_shard platform 0 in
  check Alcotest.bool "journal replayed" true (report.Platform.replayed > 0);
  check Alcotest.int "replay deterministic (no divergent responses)" 0 report.Platform.mismatches;
  check Alcotest.bool "shard serving again" true (Platform.shard_alive platform 0);
  check Alcotest.bool "enclave state rebuilt (attestation verifies)" true
    (attest_verifies platform ~enclave:e0 ~measurement:m0);
  ignore (gate "post-recovery alloc" platform (Emcall.User_enclave e0) (Types.Alloc { enclave = e0; pages = 1 }));
  clean "post-recovery" platform

(* --- batched drain order: the oracle predicts every batched result --- *)

let test_batched_oracle_exact () =
  let platform = fresh ~shards:2 ~seed:0xBA7C4L () in
  let oracle = Platform.attach_oracle platform in
  let batch requests =
    List.iter
      (function
        | Ok ((Types.Err _ : Types.response), (_ : float)) -> Alcotest.fail "batched request failed"
        | Ok _ -> ()
        | Error _ -> Alcotest.fail "batched request rejected")
      (Platform.invoke_batch platform requests)
  in
  batch
    (List.init 6 (fun _ -> (Emcall.Os_kernel, Types.Create { config = Types.default_config })));
  let ids = List.init 6 (fun i -> i + 1) in
  batch
    (List.map
       (fun e ->
         ( Emcall.Os_kernel,
           Types.Add { enclave = e; vpn = 0x100; data = page_of (0x70 + e); executable = false } ))
       ids);
  batch (List.map (fun e -> (Emcall.Os_kernel, Types.Measure { enclave = e })) ids);
  (* Mixed batch: allocs interleaved across both shards, where drain
     order (not request order) decides pool/frame outcomes. *)
  batch
    (List.concat_map
       (fun e ->
         [
           (Emcall.User_enclave e, Types.Alloc { enclave = e; pages = 1 });
           (Emcall.User_enclave e, Types.Alloc { enclave = e; pages = 2 });
         ])
       ids);
  check Alcotest.bool "oracle observed the batched stream" true (Oracle.observed oracle > 0);
  check Alcotest.int "oracle predicts every batched result" 0 (Oracle.divergence_count oracle);
  Platform.detach_oracle platform

(* --- deep sweep under injected bit flips: excused, not reported --- *)

let test_deep_sweep_excuses_injected_flips () =
  (* Every second engine read is struck: the sweep must verify the
     clean reads and excuse the struck ones, reporting neither. *)
  let faults =
    Fault.plan ~seed:0xF11BL
      [ { Fault.site = Fault.Memory_bit_flip; schedule = Fault.Every_nth 2; intensity = 1.0 } ]
  in
  let platform = fresh ~faults ~shards:1 ~seed:0xF11BL () in
  let _ = build_enclave ~code_pages:4 ~fill:0x21 platform in
  let report = Platform.check ~deep:true platform in
  check Alcotest.bool "no false-positive violations" true (Invariant.ok report);
  check Alcotest.bool "struck sweep reads excused" true (report.Invariant.injected_macs > 0);
  check Alcotest.bool "clean pages still verified" true (report.Invariant.pages_verified > 0)

(* --- audit attribution of elasticity outcomes --- *)

let test_audit_attribution () =
  let platform = fresh ~shards:2 ~seed:0xAD17L () in
  let enclave, _ = build_enclave platform in
  (match Platform.migrate platform ~enclave ~target:1 with
  | Platform.Migrated -> ()
  | _ -> Alcotest.fail "migration failed");
  (* Restore onto shard 1: a recovered shard's audit starts empty (its
     private state died with it), so events that must survive the kill
     of shard 0 below have to land on shard 1. *)
  (match Platform.checkpoint platform ~enclave with
  | Ok blob -> (
    match Platform.restore ~shard:1 platform blob with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "restore: %s" (Types.error_message e))
  | Error e -> Alcotest.failf "checkpoint: %s" (Types.error_message e));
  Platform.kill_shard platform 0;
  ignore (Platform.recover_shard platform 0);
  let sites =
    Array.fold_left
      (fun acc rt ->
        List.fold_left
          (fun acc (ev : Audit.fault_event) ->
            if ev.Audit.recovered then ev.Audit.site :: acc else acc)
          acc
          (Audit.fault_events (Runtime.audit rt)))
      []
      (Platform.Internals.runtimes platform)
  in
  List.iter
    (fun site ->
      check Alcotest.bool (Printf.sprintf "audit records a recovered %S event" site) true
        (List.mem site sites))
    [ "migration"; "restore"; "shard-recovery" ];
  clean "audited scenario" platform

(* --- the chaos scenario itself, one quick deterministic pass --- *)

let test_rolling_restart_clean () =
  let r = Hypertee_experiments.Chaos.rolling_restart ~seed:0x7E57L ~ops:120 ~shards:2 () in
  check Alcotest.int "every shard killed once" 2 (List.length r.Hypertee_experiments.Chaos.rounds);
  check Alcotest.bool "rolling restart clean" true (Hypertee_experiments.Chaos.restart_clean r)

(* Batched traffic across a full kill/recover cycle of every shard:
   the survivors keep answering while one shard is down, recovery
   brings the fleet back, and the deep invariant sweep at the end is
   clean. *)
let test_batch_survives_restarts () =
  let shards = 4 in
  let platform = fresh ~shards ~seed:0xBA7C4L () in
  let enclaves =
    List.filter_map
      (function Ok (Types.Ok_created { enclave }, _) -> Some enclave | _ -> None)
      (Platform.invoke_batch platform
         (List.init 8 (fun _ ->
              (Emcall.Os_kernel, Types.Create { config = Types.default_config }))))
  in
  check Alcotest.int "fleet created in one batch" 8 (List.length enclaves);
  let alloc_all ids what =
    List.iter
      (function Ok (Types.Ok_alloc _, _) -> () | _ -> Alcotest.fail what)
      (Platform.invoke_batch platform
         (List.map (fun id -> (Emcall.User_host, Types.Alloc { enclave = id; pages = 1 })) ids))
  in
  for victim = 0 to shards - 1 do
    Platform.kill_shard platform victim;
    alloc_all
      (List.filter (fun id -> Platform.shard_of_enclave platform id <> victim) enclaves)
      "surviving shard failed during outage";
    let recovery = Platform.recover_shard platform victim in
    check Alcotest.int
      (Printf.sprintf "shard %d replay clean" victim)
      0 recovery.Platform.mismatches;
    alloc_all enclaves "post-recovery batch failed"
  done;
  check Alcotest.bool "deep invariant sweep clean" true
    (Invariant.ok (Platform.check ~deep:true platform))

let suite =
  [
    ( "elasticity",
      [
        prop prop_roundtrip;
        Alcotest.test_case "live migration succeeds end to end" `Quick test_migrate_success;
        Alcotest.test_case "crash at every migration phase leaves one owner" `Quick
          test_migrate_crash_at_every_phase;
        Alcotest.test_case "killed shard recovers by journal replay" `Quick
          test_kill_and_recover_shard;
        Alcotest.test_case "oracle predicts batched drain order exactly" `Quick
          test_batched_oracle_exact;
        Alcotest.test_case "deep sweep excuses injected MAC flips" `Quick
          test_deep_sweep_excuses_injected_flips;
        Alcotest.test_case "audit attributes migration/restore/recovery" `Quick
          test_audit_attribution;
        Alcotest.test_case "rolling restart scenario is clean" `Quick test_rolling_restart_clean;
        Alcotest.test_case "batched traffic across shard restarts" `Quick
          test_batch_survives_restarts;
      ] );
  ]
