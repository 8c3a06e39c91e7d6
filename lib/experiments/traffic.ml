module Types = Hypertee_ems.Types
module Enclave = Hypertee_ems.Enclave
module Emcall = Hypertee_cs.Emcall
module Platform = Hypertee.Platform
module Xrng = Hypertee_util.Xrng

(* The model exists purely to keep issuing *plausible* traffic;
   correctness judgement belongs to the oracle and the checker. On
   errors or timeouts it resyncs by dropping whatever it no longer
   trusts. *)

type phase = Loading | Measured | Running | Interrupted

type wenclave = {
  id : Types.enclave_id;
  mutable phase : phase;
  mutable added : int;
  mutable regions : (int * int) list;  (* EALLOC results, newest first *)
  mutable owned : int list;  (* shm ids this enclave created *)
  mutable joined : int list;  (* shm ids currently attached *)
}

type wshm = {
  sid : int;
  sowner : Types.enclave_id;
  mutable granted : Types.enclave_id list;
  mutable sattached : Types.enclave_id list;
}

type t = {
  rng : Xrng.t;
  mutable fleet : wenclave list;
  mutable shms : wshm list;
  layout : Enclave.layout;  (* of [Types.default_config], for plausible vpns *)
}

let launch_adds = 2
let fleet_target = 4
let page_data i = Bytes.make 64 (Char.chr (Char.code 'a' + (i mod 26)))

let create rng =
  { rng; fleet = []; shms = []; layout = Enclave.make_layout Types.default_config }

let enclaves t = List.map (fun e -> e.id) t.fleet

let pick_opt rng = function
  | [] -> None
  | l -> Some (List.nth l (Xrng.int rng (List.length l)))

let steady t e =
  match Xrng.int t.rng 18 with
  | 0 | 1 ->
    (Emcall.User_enclave e.id, Types.Alloc { enclave = e.id; pages = 1 + Xrng.int t.rng 4 })
  | 2 -> (
    match e.regions with
    | (base_vpn, pages) :: _ ->
      (Emcall.User_enclave e.id, Types.Free { enclave = e.id; vpn = base_vpn; pages })
    | [] -> (Emcall.User_enclave e.id, Types.Alloc { enclave = e.id; pages = 2 }))
  | 3 ->
    (* fault a page inside the growable window *)
    let vpn =
      t.layout.Enclave.heap_base + Types.default_config.Types.heap_pages + Xrng.int t.rng 8
    in
    (Emcall.Os_kernel, Types.Page_fault { enclave = e.id; vpn })
  | 4 | 5 -> (
    match e.phase with
    | Measured -> (Emcall.Os_kernel, Types.Enter { enclave = e.id })
    | Running -> (Emcall.Os_kernel, Types.Interrupt { enclave = e.id; pc = 0xcafe; cause = 7 })
    | Interrupted -> (Emcall.Os_kernel, Types.Resume { enclave = e.id })
    | Loading -> (Emcall.Os_kernel, Types.Measure { enclave = e.id }))
  | 6 -> (
    match e.phase with
    | Running | Interrupted -> (Emcall.User_enclave e.id, Types.Exit { enclave = e.id })
    | _ -> (Emcall.Os_kernel, Types.Enter { enclave = e.id }))
  | 7 ->
    ( Emcall.User_enclave e.id,
      Types.Attest { enclave = e.id; user_data = Bytes.of_string "verify" } )
  | 8 -> (Emcall.Os_kernel, Types.Writeback { pages_hint = 4 + Xrng.int t.rng 8 })
  | 9 ->
    ( Emcall.User_enclave e.id,
      Types.Shmget { owner = e.id; pages = 1 + Xrng.int t.rng 3; max_perm = Types.Read_write } )
  | 10 | 11 -> (
    match (pick_opt t.rng e.owned, pick_opt t.rng t.fleet) with
    | Some shm, Some grantee ->
      ( Emcall.User_enclave e.id,
        Types.Shmshr { owner = e.id; shm; grantee = grantee.id; perm = Types.Read_write } )
    | _ ->
      ( Emcall.User_enclave e.id,
        Types.Shmget { owner = e.id; pages = 2; max_perm = Types.Read_write } ))
  | 12 | 13 -> (
    let joinable =
      List.filter (fun s -> List.mem e.id s.granted && not (List.mem e.id s.sattached)) t.shms
    in
    match pick_opt t.rng joinable with
    | Some s ->
      ( Emcall.User_enclave e.id,
        Types.Shmat { enclave = e.id; shm = s.sid; requested_perm = Types.Read_write } )
    | None ->
      ( Emcall.User_enclave e.id,
        Types.Attest { enclave = e.id; user_data = Bytes.of_string "verify" } ))
  | 14 -> (
    match pick_opt t.rng e.joined with
    | Some shm -> (Emcall.User_enclave e.id, Types.Shmdt { enclave = e.id; shm })
    | None -> (Emcall.User_enclave e.id, Types.Alloc { enclave = e.id; pages = 1 }))
  | 15 -> (
    let destroyable = List.filter (fun s -> s.sowner = e.id && s.sattached = []) t.shms in
    match pick_opt t.rng destroyable with
    | Some s -> (Emcall.User_enclave e.id, Types.Shmdes { owner = e.id; shm = s.sid })
    | None -> (Emcall.Os_kernel, Types.Writeback { pages_hint = 6 }))
  | 16 -> (Emcall.Os_kernel, Types.Destroy { enclave = e.id })
  | _ ->
    (* Big enough to drain the EMS pool and force eviction of enclave
       heap pages: the path that decrypts lines through the encryption
       engine, where injected bit flips land. *)
    (Emcall.Os_kernel, Types.Writeback { pages_hint = 48 })

let next t =
  match List.find_opt (fun e -> e.phase = Loading) t.fleet with
  | Some e when e.added < launch_adds ->
    ( Emcall.Os_kernel,
      Types.Add
        { enclave = e.id; vpn = 0x100 + e.added; data = page_data e.added; executable = true } )
  | Some e -> (Emcall.Os_kernel, Types.Measure { enclave = e.id })
  | None -> (
    if List.length t.fleet < fleet_target then
      (Emcall.Os_kernel, Types.Create { config = Types.default_config })
    else
      match pick_opt t.rng t.fleet with
      | None -> (Emcall.Os_kernel, Types.Create { config = Types.default_config })
      | Some e -> steady t e)

let update t id f = List.iter (fun e -> if e.id = id then f e) t.fleet

let absorb t ((_ : Emcall.caller), request) result =
  let find_shm sid = List.find_opt (fun s -> s.sid = sid) t.shms in
  let forget_enclave id =
    t.fleet <- List.filter (fun e -> e.id <> id) t.fleet;
    List.iter (fun s -> s.sattached <- List.filter (fun x -> x <> id) s.sattached) t.shms;
    t.shms <- List.filter (fun s -> not (s.sowner = id && s.sattached = [])) t.shms
  in
  let forget_target () =
    Option.iter forget_enclave (Hypertee_ems.Runtime.enclave_of_request request)
  in
  match (result, request) with
  (* unknowable outcome: stop trusting the target *)
  | Error Emcall.Timeout, _ -> forget_target ()
  | Error (Emcall.Cross_privilege | Emcall.Mailbox_full | Emcall.Busy), _ -> ()
  (* ESHMSHR names two enclaves, and the missing one may be the
     grantee: keep the owner until a request of its own says so. *)
  | Ok (Types.Err Types.No_such_enclave, _), Types.Shmshr _ -> ()
  | Ok (Types.Err (Types.No_such_enclave | Types.Integrity_failure _), _), _ -> forget_target ()
  | Ok (Types.Err _, _), _ -> ()
  | Ok (response, _), _ -> (
    match (request, response) with
    | Types.Create _, Types.Ok_created { enclave } ->
      t.fleet <-
        { id = enclave; phase = Loading; added = 0; regions = []; owned = []; joined = [] }
        :: t.fleet
    | Types.Add { enclave; _ }, Types.Ok_unit -> update t enclave (fun e -> e.added <- e.added + 1)
    | Types.Measure { enclave }, Types.Ok_measure _ ->
      update t enclave (fun e -> e.phase <- Measured)
    | (Types.Enter { enclave } | Types.Resume { enclave }), Types.Ok_entered _ ->
      update t enclave (fun e -> e.phase <- Running)
    | Types.Interrupt { enclave; _ }, Types.Ok_unit ->
      update t enclave (fun e -> e.phase <- Interrupted)
    | Types.Exit { enclave }, Types.Ok_unit -> update t enclave (fun e -> e.phase <- Measured)
    | Types.Destroy { enclave }, Types.Ok_unit -> forget_enclave enclave
    | Types.Alloc { enclave; _ }, Types.Ok_alloc { base_vpn; pages } ->
      update t enclave (fun e -> e.regions <- (base_vpn, pages) :: e.regions)
    | Types.Free { enclave; _ }, Types.Ok_unit ->
      update t enclave (fun e -> e.regions <- (match e.regions with [] -> [] | _ :: tl -> tl))
    | Types.Writeback _, Types.Ok_writeback _ ->
      (* evictions invalidate every remembered EALLOC region *)
      List.iter (fun e -> e.regions <- []) t.fleet
    | Types.Shmget { owner; _ }, Types.Ok_shm { shm } ->
      t.shms <- { sid = shm; sowner = owner; granted = [ owner ]; sattached = [] } :: t.shms;
      update t owner (fun e -> e.owned <- shm :: e.owned)
    | Types.Shmshr { shm; grantee; _ }, Types.Ok_unit -> (
      match find_shm shm with
      | Some s -> if not (List.mem grantee s.granted) then s.granted <- grantee :: s.granted
      | None -> ())
    | Types.Shmat { enclave; shm; _ }, Types.Ok_shmat _ ->
      (match find_shm shm with Some s -> s.sattached <- enclave :: s.sattached | None -> ());
      update t enclave (fun e -> e.joined <- shm :: e.joined)
    | Types.Shmdt { enclave; shm }, Types.Ok_unit ->
      (match find_shm shm with
      | Some s -> s.sattached <- List.filter (fun x -> x <> enclave) s.sattached
      | None -> ());
      update t enclave (fun e -> e.joined <- List.filter (fun x -> x <> shm) e.joined);
      (* the EMS reaps an orphaned region on last detach; mirror it *)
      t.shms <-
        List.filter
          (fun s ->
            not
              (s.sid = shm
              && s.sattached = []
              && not (List.exists (fun e -> e.id = s.sowner) t.fleet)))
          t.shms
    | Types.Shmdes { shm; _ }, Types.Ok_unit ->
      t.shms <- List.filter (fun s -> s.sid <> shm) t.shms;
      List.iter (fun e -> e.owned <- List.filter (fun x -> x <> shm) e.owned) t.fleet
    | _ -> ())

let issue t platform =
  let ((caller, request) as req) = next t in
  let result = Platform.invoke_timed platform ~caller request in
  absorb t req result;
  (request, result)
