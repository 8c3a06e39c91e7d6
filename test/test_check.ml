(* Regression tests for the invariant checker / differential oracle
   PR: each bugfix that rode along gets a test that fails on the
   pre-fix code, plus coverage that the checker itself catches the
   corruption classes it claims to. *)

module Types = Hypertee_ems.Types
module Emcall = Hypertee_cs.Emcall
module Mailbox = Hypertee_arch.Mailbox
module Platform = Hypertee.Platform
module Sdk = Hypertee.Sdk
module Config = Hypertee_arch.Config
module Fault = Hypertee_faults.Fault
module Runtime = Hypertee_ems.Runtime
module Scheduler = Hypertee_ems.Scheduler
module Ownership = Hypertee_ems.Ownership
module Phys_mem = Hypertee_arch.Phys_mem
module Bitmap = Hypertee_arch.Bitmap
module Mem_encryption = Hypertee_arch.Mem_encryption
module Invariant = Hypertee_check.Invariant
module Explorer = Hypertee_check.Explorer
module Verify = Hypertee_experiments.Verify
module Xrng = Hypertee_util.Xrng

let prop = QCheck_alcotest.to_alcotest ~speed_level:`Quick

let small_config =
  {
    Types.code_pages = 1;
    data_pages = 1;
    heap_pages = 4;
    stack_pages = 1;
    shared_pages = 8;
  }

let small_image =
  Sdk.image_of_code ~config:small_config ~code:(Bytes.of_string "x") ~data:Bytes.empty ()

let expect_ok label = function
  | Ok r -> r
  | Error _ -> Alcotest.failf "%s: gate error" label

let response_name : Types.response -> string = function
  | Types.Err e -> Types.error_message e
  | _ -> "unexpected success variant"

(* --- Poll-quantisation ceiling (Emcall.complete) ---

   A raw round-trip cost that lands exactly on a poll-slot boundary
   completes in that slot; the pre-fix rounding charged one extra
   full slot for it. Observable latency must stay inside
   [raw, raw + slot) (the upper gap is poll-phase jitter). *)

let test_quantisation_boundary () =
  let mailbox : (Types.request, Types.response) Mailbox.t = Mailbox.create () in
  let ems_service () =
    let rec drain () =
      match Mailbox.recv_request mailbox with
      | Some p ->
        (match Mailbox.send_response mailbox ~request_id:p.Mailbox.request_id Types.Ok_unit with
        | Ok () -> ()
        | Error `Unknown_or_answered -> Alcotest.fail "stub EMS answered twice");
        drain ()
      | None -> ()
    in
    drain ()
  in
  let service = ref 0.0 in
  let emcall =
    Emcall.create ~rng:(Xrng.create 7L) ~transport:Config.default_transport ~mailbox
      ~ems_service
      ~service_ns:(fun _ -> !service)
      ()
  in
  let slot = Config.default_transport.Config.poll_slot_ns in
  let overhead = Emcall.transport_ns emcall in
  (* Pick the service time so [overhead + service] is an exact
     multiple of the poll slot, a few slots in. *)
  let raw = (Float.ceil (overhead /. slot) +. 3.0) *. slot in
  service := raw -. overhead;
  for _ = 1 to 16 do
    let _, latency =
      expect_ok "boundary invoke"
        (Emcall.invoke_timed emcall ~caller:Emcall.Os_kernel (Types.Writeback { pages_hint = 0 }))
    in
    if latency < raw then
      Alcotest.failf "latency %.1f below the raw cost %.1f" latency raw;
    if latency >= raw +. slot then
      Alcotest.failf "boundary cost paid an extra slot: latency %.1f, raw %.1f, slot %.1f"
        latency raw slot
  done;
  (* Off-boundary sanity: a cost just past the boundary rounds up to
     the next slot (and only that one). *)
  service := raw -. overhead +. 1.0;
  let _, latency =
    expect_ok "off-boundary invoke"
      (Emcall.invoke_timed emcall ~caller:Emcall.Os_kernel (Types.Writeback { pages_hint = 0 }))
  in
  if latency < raw +. slot || latency >= raw +. (2.0 *. slot) then
    Alcotest.failf "off-boundary cost quantised wrongly: latency %.1f, raw %.1f" latency (raw +. 1.0)

(* --- Duplicate-response accounting (Emcall.credit_duplicates +
   abandoned-id draining) ---

   A response that arrives after its request timed out is stale; its
   copies must be drained from the mailbox on the next poll of that
   shard and credited to the same [duplicates_discarded] telemetry as
   live-path duplicates — with the "one copy was the legitimate
   response" discount. Pre-fix the late slot lingered and the counter
   double-counted. *)

let test_duplicate_accounting () =
  let mailbox : (Types.request, Types.response) Mailbox.t = Mailbox.create () in
  (* While [hold] is set the stub consumes requests without answering
     them (a slow EMS); parked packets are answered on the first
     drain after release. *)
  let hold = ref false in
  let parked = Queue.create () in
  let answer (p : Types.request Mailbox.packet) =
    match Mailbox.send_response mailbox ~request_id:p.Mailbox.request_id Types.Ok_unit with
    | Ok () -> ()
    | Error `Unknown_or_answered -> Alcotest.fail "stub EMS answered twice"
  in
  let ems_service () =
    if not !hold then Queue.iter answer parked;
    if not !hold then Queue.clear parked;
    let rec drain () =
      match Mailbox.recv_request mailbox with
      | Some p ->
        if !hold then Queue.push p parked else answer p;
        drain ()
      | None -> ()
    in
    drain ()
  in
  let emcall =
    Emcall.create ~rng:(Xrng.create 11L) ~transport:Config.default_transport ~mailbox
      ~ems_service ~service_ns:(fun _ -> 100.0) ()
  in
  (* Every posted response is duplicated by the fabric (copies = 2). *)
  Mailbox.set_fault_injector mailbox
    (Fault.create
       (Fault.plan [ { Fault.site = Fault.Mailbox_duplicate; schedule = Fault.Always; intensity = 0.0 } ]));
  hold := true;
  (match Emcall.invoke emcall ~caller:Emcall.Os_kernel (Types.Writeback { pages_hint = 0 }) with
  | Error Emcall.Timeout -> ()
  | _ -> Alcotest.fail "withheld response should time out");
  Alcotest.(check int) "one timeout" 1 (Emcall.timeouts emcall);
  hold := false;
  (* The next invoke's doorbell releases the parked answer (late,
     duplicated) and serves the live request (also duplicated). *)
  (match Emcall.invoke emcall ~caller:Emcall.Os_kernel (Types.Writeback { pages_hint = 0 }) with
  | Ok (Types.Ok_writeback _ | Types.Ok_unit) -> ()
  | _ -> Alcotest.fail "second invoke should succeed");
  (* Late slot: 2 copies, none consumed -> 1 extra. Live slot:
     2 copies, 1 consumed by the poll -> 1 extra. *)
  Alcotest.(check int) "duplicates credited once each" 2 (Emcall.duplicates_discarded emcall);
  Alcotest.(check int) "fabric duplicated both posts" 2 (Mailbox.duplicated mailbox);
  Alcotest.(check int) "no response lingers" 0 (Mailbox.pending_responses mailbox)

(* --- Shared-frame leak on owner-death + last-detach (Ownership /
   Svc_shm.reap_orphaned_shms) ---

   Owner creates a region, shares it, the grantee attaches, the owner
   dies, the grantee detaches: the orphaned region must be reaped
   (frames back to the pool, key revoked), not leaked forever. *)

let test_shm_orphan_reap () =
  let platform = Platform.create ~seed:0xC0FFEEL () in
  let a = Result.get_ok (Sdk.launch platform small_image) in
  let b = Result.get_ok (Sdk.launch platform small_image) in
  let shm =
    match
      expect_ok "shmget"
        (Platform.invoke platform ~caller:(Emcall.User_enclave a)
           (Types.Shmget { owner = a; pages = 2; max_perm = Types.Read_write }))
    with
    | Types.Ok_shm { shm } -> shm
    | r -> Alcotest.failf "shmget: %s" (response_name r)
  in
  (match
     expect_ok "shmshr"
       (Platform.invoke platform ~caller:(Emcall.User_enclave a)
          (Types.Shmshr { owner = a; shm; grantee = b; perm = Types.Read_write }))
   with
  | Types.Ok_unit -> ()
  | r -> Alcotest.failf "shmshr: %s" (response_name r));
  (match
     expect_ok "shmat"
       (Platform.invoke platform ~caller:(Emcall.User_enclave b)
          (Types.Shmat { enclave = b; shm; requested_perm = Types.Read_write }))
   with
  | Types.Ok_shmat _ -> ()
  | r -> Alcotest.failf "shmat: %s" (response_name r));
  (match Sdk.destroy platform ~enclave:a with
  | Ok () -> ()
  | Error e -> Alcotest.failf "destroy owner: %s" e);
  (match
     expect_ok "shmdt"
       (Platform.invoke platform ~caller:(Emcall.User_enclave b)
          (Types.Shmdt { enclave = b; shm }))
   with
  | Types.Ok_unit -> ()
  | r -> Alcotest.failf "shmdt: %s" (response_name r));
  let runtime = Platform.Internals.runtime platform in
  Alcotest.(check int) "no leaked shared frames" 0 (Runtime.leaked_shm_frames runtime);
  (match Runtime.find_shm runtime shm with
  | None -> ()
  | Some _ -> Alcotest.fail "orphaned region still registered after last detach");
  let report = Platform.check platform in
  if not (Invariant.ok report) then
    Alcotest.failf "invariants after reap: %s" (Invariant.report_to_string report)

(* --- Mailbox answered-cache eviction (resend_request) --- *)

let test_answered_cache_eviction () =
  let mailbox : (int, int) Mailbox.t = Mailbox.create ~depth:4 () in
  (* answered cache holds 4 * depth = 16 ids; push 17 round trips so
     id 1 ages out. *)
  let last = ref 0 in
  for i = 1 to 17 do
    let id = Result.get_ok (Mailbox.send_request mailbox ~sender_enclave:None i) in
    (match Mailbox.recv_request mailbox with
    | Some p -> Result.get_ok (Mailbox.send_response mailbox ~request_id:p.Mailbox.request_id (i * 10))
    | None -> Alcotest.fail "request vanished");
    (match Mailbox.poll_response mailbox ~request_id:id with
    | Some _ -> ()
    | None -> Alcotest.fail "response vanished");
    last := id
  done;
  (match Mailbox.resend_request mailbox ~request_id:1 with
  | `Unknown -> ()
  | `Pending | `Retransmitted -> Alcotest.fail "evicted id should be `Unknown");
  (match Mailbox.resend_request mailbox ~request_id:!last with
  | `Retransmitted -> ()
  | `Pending | `Unknown -> Alcotest.fail "cached id should retransmit");
  (match Mailbox.poll_response mailbox ~request_id:!last with
  | Some v -> Alcotest.(check int) "retransmitted copy is the original" 170 v
  | None -> Alcotest.fail "retransmitted copy not collectable")

(* A gate whose EMS never consumes requests: every resend finds the
   id still pending, the retry budget drains, and the caller gets a
   clean bounded Timeout (never a hang, never a stale response). *)
let test_gate_timeout_on_evicted_path () =
  let mailbox : (Types.request, Types.response) Mailbox.t = Mailbox.create () in
  let emcall =
    Emcall.create ~rng:(Xrng.create 13L) ~transport:Config.default_transport ~mailbox
      ~ems_service:(fun () -> ())
      ~service_ns:(fun _ -> 100.0)
      ()
  in
  (match Emcall.invoke emcall ~caller:Emcall.Os_kernel (Types.Writeback { pages_hint = 1 }) with
  | Error Emcall.Timeout -> ()
  | _ -> Alcotest.fail "dead EMS must surface as Timeout");
  Alcotest.(check int) "timeout counted" 1 (Emcall.timeouts emcall);
  (* The gate kept re-asking by id while the request stayed pending. *)
  Alcotest.(check int) "retries exhausted" 4 (Emcall.retries emcall)

(* --- Page-fault idempotency (Svc_memory.handle_page_fault) ---

   A spurious re-fault on an already-resident heap page must not
   allocate a second frame and silently remap the leaf (pre-fix this
   orphaned the old frame: owned per the ownership table, unreachable
   from any page table — the checker's "page-table" rule catches it). *)

let test_page_fault_idempotent () =
  let platform = Platform.create ~seed:0xFA17L () in
  let e = Result.get_ok (Sdk.launch platform small_image) in
  let vpn =
    match
      expect_ok "alloc"
        (Platform.invoke platform ~caller:(Emcall.User_enclave e)
           (Types.Alloc { enclave = e; pages = 1 }))
    with
    | Types.Ok_alloc { base_vpn; _ } -> base_vpn
    | r -> Alcotest.failf "alloc: %s" (response_name r)
  in
  let runtime = Platform.Internals.runtime platform in
  let owned () = List.length (Ownership.frames_of (Runtime.ownership runtime) e) in
  let fault () =
    match
      expect_ok "page fault"
        (Platform.invoke platform ~caller:(Emcall.User_enclave e)
           (Types.Page_fault { enclave = e; vpn }))
    with
    | Types.Ok_alloc _ -> ()
    | r -> Alcotest.failf "page fault: %s" (response_name r)
  in
  fault ();
  let frames_after_first = owned () in
  fault ();
  Alcotest.(check int) "re-fault allocates nothing" frames_after_first (owned ());
  let report = Platform.check platform in
  if not (Invariant.ok report) then
    Alcotest.failf "invariants after re-fault: %s" (Invariant.report_to_string report)

(* --- Create teardown conserves pool frames (Svc_lifecycle.handle_create) ---

   A Create that dies mid-mapping — a page-table node [Failure] after
   the static frames were taken from the pool but before they were all
   claimed into the ownership table — used to strand the untaken
   frames: owner still Pool, absent from the parked list,
   [Mem_pool.outstanding] permanently inflated. Sweep the pool budget
   across the whole range so the attempt fails at every stage
   (up-front take, mid-fold node allocation) and succeeds at least
   once; every outcome must conserve the outstanding count. *)

let test_create_teardown_conserves_pool () =
  (* Small machine so the pool + OS drain quickly. *)
  let platform =
    Platform.create
      ~config:{ Config.default with Config.memory_mb = 8; ems_memory_mb = 4 }
      ~seed:0x1EA6L ()
  in
  let pool = Hypertee_ems.Runtime.pool (Platform.Internals.runtime platform) in
  (* Drain the pool AND the OS behind it dry (refills keep succeeding
     until the OS has nothing left). *)
  let rec drain acc n =
    if n = 0 then acc
    else
      match Hypertee_ems.Mem_pool.take pool ~n with
      | Some fs -> drain (List.rev_append fs acc) n
      | None -> drain acc (n / 2)
  in
  let held = ref (drain [] 64) in
  (* No staging pages: those come straight from the (dry) OS, and the
     sweep targets the enclave-memory paths. *)
  let enclave_config = { small_config with Types.shared_pages = 0 } in
  let saw_oom = ref false in
  let saw_ok = ref false in
  for keep = 0 to 24 do
    (* Hand exactly [keep] frames back for this attempt. *)
    let rec give n =
      if n > 0 then
        match !held with
        | f :: rest ->
          held := rest;
          Hypertee_ems.Mem_pool.give_back pool [ f ];
          give (n - 1)
        | [] -> ()
    in
    give keep;
    let base = Hypertee_ems.Mem_pool.outstanding pool in
    (match
       expect_ok "create"
         (Platform.invoke platform ~caller:Emcall.Os_kernel
            (Types.Create { config = enclave_config }))
     with
    | Types.Ok_created { enclave } -> (
      saw_ok := true;
      match
        expect_ok "destroy"
          (Platform.invoke platform ~caller:Emcall.Os_kernel (Types.Destroy { enclave }))
      with
      | Types.Ok_unit -> ()
      | r -> Alcotest.failf "destroy: %s" (response_name r))
    | Types.Err Types.Out_of_memory -> saw_oom := true
    | r -> Alcotest.failf "create at keep=%d: %s" keep (response_name r));
    Alcotest.(check int)
      (Printf.sprintf "pool outstanding conserved at keep=%d" keep)
      base
      (Hypertee_ems.Mem_pool.outstanding pool);
    (* Re-drain whatever the attempt returned, for the next budget. *)
    held := drain !held 64
  done;
  if not !saw_oom then Alcotest.fail "sweep never exhausted the pool";
  if not !saw_ok then Alcotest.fail "sweep never completed a create";
  Hypertee_ems.Mem_pool.give_back pool !held;
  let report = Platform.check platform in
  if not (Invariant.ok report) then
    Alcotest.failf "invariants after sweep: %s" (Invariant.report_to_string report)

(* --- EWARM routing on a sharded platform (Types.warm_home) ---

   The gate used to round-robin EWARM like any enclave-less request.
   Each cold session issues Warm_create then Create, so on two shards
   the EWARM always landed on the opposite parity from where enclaves
   were created and parked: a deterministic 0% hit rate. With
   measurement-hash routing ([warm_home], agreed on by the gate and
   ERETIRE's park condition), the pool converges after at most one
   cold miss and stays warm. *)

let test_warm_routing_two_shards () =
  let platform =
    Platform.create ~config:{ Config.default with Config.ems_shards = 2 } ~seed:0x2AB7L ()
  in
  let hits = ref 0 in
  let last_warm = ref false in
  for _ = 1 to 6 do
    match Sdk.warm_launch platform small_image with
    | Ok (e, kind) ->
      last_warm := kind = `Warm;
      (if kind = `Warm then incr hits);
      (match Sdk.retire platform ~enclave:e with
      | Ok () -> ()
      | Error m -> Alcotest.failf "retire: %s" m)
    | Error m -> Alcotest.failf "warm_launch: %s" m
  done;
  (* At most the first two cycles may miss (cold launches round-robin,
     and retire parks only on the measurement's home shard, so seeding
     the pool can take two launches). Under the old round-robin EWARM
     routing every cycle missed. *)
  Alcotest.(check bool) "EWARM converges on the home shard (>= 4 of 6 hits)" true (!hits >= 4);
  Alcotest.(check bool) "pool stays warm once seeded" true !last_warm;
  let report = Platform.check platform ~deep:true in
  if not (Invariant.ok report) then
    Alcotest.failf "invariants after warm cycling: %s" (Invariant.report_to_string report)

(* --- The checker actually catches seeded corruption --- *)

let has_rule report rule =
  List.exists (fun v -> v.Invariant.rule = rule) report.Invariant.violations

let test_checker_catches_corruption () =
  let platform = Platform.create ~seed:0xBADL () in
  let e = Result.get_ok (Sdk.launch platform small_image) in
  let check () = Platform.check platform in
  let report = check () in
  if not (Invariant.ok report) then
    Alcotest.failf "healthy platform flagged: %s" (Invariant.report_to_string report);
  let runtime = Platform.Internals.runtime platform in
  let frame =
    match Ownership.frames_of (Runtime.ownership runtime) e with
    | f :: _ -> f
    | [] -> Alcotest.fail "launched enclave owns no frames"
  in
  (* (a) Secure bitmap out of sync with frame ownership. *)
  let bitmap = Platform.Internals.bitmap platform in
  Bitmap.clear bitmap ~frame;
  if not (has_rule (check ()) "bitmap") then
    Alcotest.fail "cleared bitmap bit not caught";
  Bitmap.set bitmap ~frame;
  if not (Invariant.ok (check ())) then Alcotest.fail "bitmap restore not clean";
  (* (b) Phys_mem owner contradicting the ownership table. *)
  let mem = Platform.Internals.mem platform in
  let saved = Phys_mem.owner mem frame in
  Phys_mem.set_owner mem frame Phys_mem.Free;
  let report = check () in
  if Invariant.ok report then Alcotest.fail "freed live frame not caught";
  Phys_mem.set_owner mem frame saved;
  if not (Invariant.ok (check ())) then Alcotest.fail "owner restore not clean";
  (* (c) Live enclave key revoked behind the EMS's back. *)
  let key_id =
    match Runtime.find_enclave runtime e with
    | Some enc -> enc.Hypertee_ems.Enclave.key_id
    | None -> Alcotest.fail "launched enclave not found"
  in
  Mem_encryption.revoke (Platform.Internals.mee platform) ~key_id;
  if not (has_rule (check ()) "mee") then Alcotest.fail "revoked live key not caught";
  (* (d) Warm list corrupted with an id that is not resident. *)
  Hypertee_ems.State.warm_push (Runtime.state runtime) 9999;
  if not (has_rule (check ()) "warm-pool") then
    Alcotest.fail "bogus warm-pool entry not caught"

(* --- Differential oracle: clean and fault-injected replays --- *)

let test_oracle_replay_clean () =
  let o = Verify.oracle_replay ~calls:400 ~shards:2 ~seed:0x0AC1EL () in
  Alcotest.(check int) "all calls observed" 400 o.Verify.calls;
  (match o.Verify.divergences with
  | [] -> ()
  | d :: _ ->
    Alcotest.failf "oracle diverged: %s" (Format.asprintf "%a" Hypertee_check.Oracle.pp_divergence d));
  Alcotest.(check int) "no divergences" 0 o.Verify.divergence_count;
  if not (Invariant.ok o.Verify.report) then
    Alcotest.failf "invariants: %s" (Invariant.report_to_string o.Verify.report)

let test_oracle_replay_faulty () =
  let o = Verify.oracle_replay ~calls:400 ~fault_rate:0.08 ~shards:2 ~seed:0xFA47L () in
  Alcotest.(check int) "no divergences under faults" 0 o.Verify.divergence_count;
  if not (Invariant.ok o.Verify.report) then
    Alcotest.failf "invariants under faults: %s" (Invariant.report_to_string o.Verify.report)

(* --- Oracle on a migrated, containment-fogged, two-shard platform ---

   Each case replays one call sequence under an attached oracle; the
   platform's answers are the ground truth. *)

let two_shard_fleet ~seed n =
  let platform =
    Platform.create ~seed ~config:{ Config.default with Config.ems_shards = 2 } ()
  in
  let oracle = Platform.attach_oracle platform in
  let fleet = List.init n (fun _ -> Result.get_ok (Sdk.launch platform small_image)) in
  Alcotest.(check (list int)) "launched ids, odd ones on shard 0" (List.init n succ) fleet;
  (platform, oracle)

let as_enclave platform e request =
  expect_ok (Types.opcode_name (Types.opcode_of_request request))
    (Platform.invoke platform ~caller:(Emcall.User_enclave e) request)

let shmget platform owner =
  match as_enclave platform owner (Types.Shmget { owner; pages = 1; max_perm = Types.Read_write }) with
  | Types.Ok_shm { shm } -> shm
  | r -> Alcotest.failf "shmget: %s" (response_name r)

let migrate platform ~enclave ~target =
  match Platform.migrate platform ~enclave ~target with
  | Platform.Migrated -> ()
  | _ -> Alcotest.failf "migrating enclave %d failed" enclave

let no_divergence oracle =
  match Hypertee_check.Oracle.divergences oracle with
  | [] -> ()
  | d :: _ ->
    Alcotest.failf "oracle diverged: %s" (Format.asprintf "%a" Hypertee_check.Oracle.pp_divergence d)

(* Shared regions never migrate, so a shm id routes by its residue
   class even when the enclave with the same number has moved. *)
let test_oracle_shm_ids_ignore_migration () =
  let platform, oracle = two_shard_fleet ~seed:0x5A1DL 4 in
  let shm = shmget platform 3 in
  Alcotest.(check int) "enclave 3's region is shm 1" 1 shm;
  migrate platform ~enclave:1 ~target:1;
  (match as_enclave platform 3 (Types.Shmdes { owner = 3; shm }) with
  | Types.Ok_unit -> ()
  | r -> Alcotest.failf "shmdes: %s" (response_name r));
  no_divergence oracle

(* After an unattributed containment, an ESHMSHR answered
   No_such_enclave does not say which of its two enclaves is missing:
   here it is the grantee, and the owner stays live. *)
let test_oracle_shmshr_keeps_owner () =
  let platform, oracle = two_shard_fleet ~seed:0xF06L 3 in
  let runtime = Platform.Internals.runtime_of_shard platform 0 in
  let mem = Platform.Internals.mem platform in
  List.iter
    (fun frame -> Phys_mem.write mem ~frame (Bytes.make Hypertee_util.Units.page_size 'X'))
    (Ownership.frames_of (Runtime.ownership runtime) 3);
  let contained = ref false in
  for _ = 1 to 4 do
    if not !contained then
      match
        Platform.invoke platform ~caller:Emcall.Os_kernel (Types.Writeback { pages_hint = 64 })
      with
      | Ok (Types.Err (Types.Integrity_failure _)) -> contained := true
      | _ -> ()
  done;
  if not !contained then Alcotest.fail "corrupted enclave was never contained";
  (match
     as_enclave platform 1
       (Types.Shmshr { owner = 1; shm = 1; grantee = 2; perm = Types.Read_write })
   with
  | Types.Err Types.No_such_enclave -> ()
  | r -> Alcotest.failf "cross-shard shmshr: %s" (response_name r));
  (match as_enclave platform 1 (Types.Alloc { enclave = 1; pages = 1 }) with
  | Types.Ok_alloc _ -> ()
  | r -> Alcotest.failf "alloc on the owner: %s" (response_name r));
  no_divergence oracle

(* Migrating a region's owner destroys the source copy, which reaps
   the owner's regions nobody is attached to: a grantee left on the
   source shard can no longer attach. *)
let test_oracle_owner_migration_reaps_regions () =
  let platform, oracle = two_shard_fleet ~seed:0x0DDL 3 in
  ignore (shmget platform 1);
  let shm = shmget platform 1 in
  (match
     as_enclave platform 1 (Types.Shmshr { owner = 1; shm; grantee = 3; perm = Types.Read_write })
   with
  | Types.Ok_unit -> ()
  | r -> Alcotest.failf "shmshr: %s" (response_name r));
  migrate platform ~enclave:1 ~target:1;
  (match
     as_enclave platform 3 (Types.Shmat { enclave = 3; shm; requested_perm = Types.Read_write })
   with
  | Types.Err Types.No_such_shm -> ()
  | r -> Alcotest.failf "shmat after the owner left: %s" (response_name r));
  no_divergence oracle

(* --- EFREE is all or nothing (Svc_memory.handle_free) ---

   A range running past the mapped pages used to unmap its leading
   pages before failing, stranding their frames: released from the
   ownership table, never given back to the pool. *)

let test_partial_free_changes_nothing () =
  let platform = Platform.create ~seed:0xF4EEL () in
  let e = Result.get_ok (Sdk.launch platform small_image) in
  let base_vpn =
    match as_enclave platform e (Types.Alloc { enclave = e; pages = 2 }) with
    | Types.Ok_alloc { base_vpn; _ } -> base_vpn
    | r -> Alcotest.failf "alloc: %s" (response_name r)
  in
  (match as_enclave platform e (Types.Free { enclave = e; vpn = base_vpn; pages = 3 }) with
  | Types.Err (Types.Invalid_argument_ _) -> ()
  | r -> Alcotest.failf "free past the region: %s" (response_name r));
  let report = Platform.check platform in
  if not (Invariant.ok report) then
    Alcotest.failf "invariants after a rejected free: %s" (Invariant.report_to_string report);
  match as_enclave platform e (Types.Free { enclave = e; vpn = base_vpn; pages = 2 }) with
  | Types.Ok_unit -> ()
  | r -> Alcotest.failf "free of the intact region: %s" (response_name r)

(* --- Interleaving explorer --- *)

let test_explorer_deterministic () =
  List.iter
    (fun seed ->
      let a = Explorer.scenario_of_seed seed and b = Explorer.scenario_of_seed seed in
      if a <> b then Alcotest.failf "scenario_of_seed %Ld not deterministic" seed)
    (Explorer.default_seeds ~n:8)

let test_explorer_scenarios_pass () =
  List.iter
    (fun seed ->
      let s = Explorer.scenario_of_seed seed in
      match Verify.scenario_driver s with
      | Explorer.Pass -> ()
      | Explorer.Fail why ->
        Alcotest.failf "scenario %s failed: %s" (Format.asprintf "%a" Explorer.pp_scenario s) why)
    (Explorer.default_seeds ~n:6)

(* --- Scheduler exactly-once under worker strikes ---

   Even when a strike kills the last alive worker mid-batch, every
   submitted job must eventually run exactly once under its original
   id (parked by the crash, revived by the watchdog) — never lost,
   never re-executed. *)

let prop_scheduler_exactly_once =
  QCheck.Test.make ~name:"scheduler runs every job exactly once under crashes" ~count:60
    QCheck.(tup3 (int_range 1 3) (int_range 1 40) small_int)
    (fun (workers, jobs, salt) ->
      let sched = Scheduler.create (Xrng.create (Int64.of_int (salt + 1))) ~workers in
      Scheduler.set_fault_injector sched
        (Fault.create
           (Fault.plan
              ~seed:(Int64.of_int (salt + 7))
              [
                { Fault.site = Fault.Worker_crash; schedule = Fault.Probability 0.4; intensity = 0.0 };
                { Fault.site = Fault.Worker_stall; schedule = Fault.Probability 0.2; intensity = 0.0 };
              ]));
      for id = 1 to jobs do
        Scheduler.submit sched ~id (fun () -> ())
      done;
      let rounds = ref 0 in
      while Scheduler.pending sched > 0 && !rounds < 200 do
        ignore (Scheduler.dispatch sched);
        ignore (Scheduler.watchdog_scan sched);
        incr rounds
      done;
      if Scheduler.pending sched > 0 then
        QCheck.Test.fail_reportf "jobs still pending after %d rounds" !rounds;
      let log_ids = List.map fst (Scheduler.execution_log sched) in
      if Scheduler.executed sched <> jobs then
        QCheck.Test.fail_reportf "executed %d of %d jobs" (Scheduler.executed sched) jobs;
      List.for_all
        (fun id -> List.length (List.filter (( = ) id) log_ids) = 1)
        (List.init jobs (fun i -> i + 1)))

let suite =
  [
    ( "check",
      [
        Alcotest.test_case "poll quantisation: boundary cost pays no extra slot" `Quick
          test_quantisation_boundary;
        Alcotest.test_case "late duplicate responses drained and credited once" `Quick
          test_duplicate_accounting;
        Alcotest.test_case "orphaned shared region reaped on last detach" `Quick
          test_shm_orphan_reap;
        Alcotest.test_case "answered cache evicts old ids; recent ids retransmit" `Quick
          test_answered_cache_eviction;
        Alcotest.test_case "dead EMS surfaces as bounded Timeout" `Quick
          test_gate_timeout_on_evicted_path;
        Alcotest.test_case "spurious page re-fault is idempotent (no frame leak)" `Quick
          test_page_fault_idempotent;
        Alcotest.test_case "failed create tears down without stranding pool frames" `Quick
          test_create_teardown_conserves_pool;
        Alcotest.test_case "EWARM routes to the measurement's home shard" `Quick
          test_warm_routing_two_shards;
        Alcotest.test_case "checker catches bitmap/ownership/key corruption" `Quick
          test_checker_catches_corruption;
        Alcotest.test_case "oracle: clean replay has zero divergences" `Quick
          test_oracle_replay_clean;
        Alcotest.test_case "oracle: fault-injected replay has zero divergences" `Quick
          test_oracle_replay_faulty;
        Alcotest.test_case "oracle: shm ids route by residue across migrations" `Quick
          test_oracle_shm_ids_ignore_migration;
        Alcotest.test_case "oracle: ambiguous ESHMSHR rejection keeps the owner" `Quick
          test_oracle_shmshr_keeps_owner;
        Alcotest.test_case "oracle: owner migration reaps unattached regions" `Quick
          test_oracle_owner_migration_reaps_regions;
        Alcotest.test_case "EFREE past the mapped range frees nothing" `Quick
          test_partial_free_changes_nothing;
        Alcotest.test_case "explorer scenarios are seed-deterministic" `Quick
          test_explorer_deterministic;
        Alcotest.test_case "explorer scenario sample passes" `Quick test_explorer_scenarios_pass;
        prop prop_scheduler_exactly_once;
      ] );
  ]
