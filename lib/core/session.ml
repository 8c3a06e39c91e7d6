module Types = Hypertee_ems.Types
module Enclave = Hypertee_ems.Enclave
module Page_table = Hypertee_arch.Page_table
module Pte = Hypertee_arch.Pte
module Phys_mem = Hypertee_arch.Phys_mem
module Mem_encryption = Hypertee_arch.Mem_encryption
module Emcall = Hypertee_cs.Emcall

let page_size = Hypertee_util.Units.page_size

type t = { platform : Platform.t; enclave : Enclave.t; mutable live : bool }

let make platform ~enclave = { platform; enclave; live = true }
let enclave_id t = t.enclave.Enclave.id
let platform t = t.platform

let check_live t = if not t.live then invalid_arg "Session: enclave has exited"

let caller t = Emcall.User_enclave t.enclave.Enclave.id

let invoke t request =
  check_live t;
  match Platform.invoke t.platform ~caller:(caller t) request with
  | Ok response -> response
  | Error Emcall.Cross_privilege -> Types.Err (Types.Permission_denied "cross-privilege")
  | Error Emcall.Mailbox_full -> Types.Err (Types.Invalid_argument_ "mailbox full")
  | Error Emcall.Timeout -> Types.Err (Types.Invalid_argument_ "EMS response timeout")
  | Error Emcall.Busy -> Types.Err (Types.Invalid_argument_ "gate busy: admission shed")

(* Resolve a fault the way hardware + EMCall would: page faults
   inside the enclave go to EMS (demand alloc / swap-in). *)
let resolve_fault t ~vpn =
  match invoke t (Types.Page_fault { enclave = t.enclave.Enclave.id; vpn }) with
  | Types.Ok_alloc _ -> true
  | _ -> false

let rec pte_of_vpn t ~vpn ~retried =
  match Page_table.lookup t.enclave.Enclave.page_table ~vpn with
  | Some pte -> pte
  | None ->
    if (not retried) && resolve_fault t ~vpn then pte_of_vpn t ~vpn ~retried:true
    else failwith (Printf.sprintf "Session: unresolvable fault at vpn %#x" vpn)

let read t ~va ~len =
  check_live t;
  let mee = Platform.Internals.mee t.platform in
  let mem = Platform.mem t.platform in
  let out = Bytes.create len in
  let remaining = ref len and cursor = ref va and dst = ref 0 in
  while !remaining > 0 do
    let vpn = !cursor / page_size and off = !cursor mod page_size in
    let chunk = Stdlib.min !remaining (page_size - off) in
    let pte = pte_of_vpn t ~vpn ~retried:false in
    if not pte.Pte.readable then failwith "Session.read: page not readable";
    (* Decrypt only the requested range, straight into the result. *)
    Mem_encryption.read_range_into mee mem ~key_id:pte.Pte.key_id ~frame:pte.Pte.ppn ~off
      ~len:chunk out ~dst_off:!dst;
    cursor := !cursor + chunk;
    dst := !dst + chunk;
    remaining := !remaining - chunk
  done;
  out

let write t ~va data =
  check_live t;
  let mee = Platform.Internals.mee t.platform in
  let mem = Platform.mem t.platform in
  let remaining = ref (Bytes.length data) and cursor = ref va and src = ref 0 in
  while !remaining > 0 do
    let vpn = !cursor / page_size and off = !cursor mod page_size in
    let chunk = Stdlib.min !remaining (page_size - off) in
    let pte = pte_of_vpn t ~vpn ~retried:false in
    if not pte.Pte.writable then failwith "Session.write: page not writable";
    Mem_encryption.update_range mee mem ~key_id:pte.Pte.key_id ~frame:pte.Pte.ppn ~off ~src:data
      ~src_off:!src ~len:chunk;
    cursor := !cursor + chunk;
    src := !src + chunk;
    remaining := !remaining - chunk
  done

let read_u64 t ~va = Hypertee_util.Bytes_ext.get_u64_le (read t ~va ~len:8) 0

let write_u64 t ~va v =
  let b = Bytes.create 8 in
  Hypertee_util.Bytes_ext.set_u64_le b 0 v;
  write t ~va b

let heap_va t = t.enclave.Enclave.layout.Enclave.heap_base * page_size
let staging_va t = t.enclave.Enclave.layout.Enclave.staging_base * page_size
let stack_va t = t.enclave.Enclave.layout.Enclave.stack_base * page_size

let lift = function
  | Types.Err e -> Error e
  | other -> Ok other

let alloc t ~pages =
  match lift (invoke t (Types.Alloc { enclave = enclave_id t; pages })) with
  | Ok (Types.Ok_alloc { base_vpn; _ }) -> Ok (base_vpn * page_size)
  | Ok _ -> Error (Types.Invalid_argument_ "unexpected response")
  | Error e -> Error e

let alloc_timed t ~pages =
  check_live t;
  match
    Platform.invoke_timed t.platform ~caller:(caller t)
      (Types.Alloc { enclave = enclave_id t; pages })
  with
  | Ok (Types.Ok_alloc { base_vpn; _ }, latency_ns) -> Ok (base_vpn * page_size, latency_ns)
  | Ok (Types.Err e, _) -> Error e
  | Ok _ -> Error (Types.Invalid_argument_ "unexpected response")
  | Error Emcall.Cross_privilege -> Error (Types.Permission_denied "cross-privilege")
  | Error Emcall.Mailbox_full -> Error (Types.Invalid_argument_ "mailbox full")
  | Error Emcall.Timeout -> Error (Types.Invalid_argument_ "EMS response timeout")
  | Error Emcall.Busy -> Error (Types.Invalid_argument_ "gate busy: admission shed")

let free t ~va ~pages =
  match lift (invoke t (Types.Free { enclave = enclave_id t; vpn = va / page_size; pages })) with
  | Ok Types.Ok_unit -> Ok ()
  | Ok _ -> Error (Types.Invalid_argument_ "unexpected response")
  | Error e -> Error e

let shmget t ~pages ~max_perm =
  match lift (invoke t (Types.Shmget { owner = enclave_id t; pages; max_perm })) with
  | Ok (Types.Ok_shm { shm }) -> Ok shm
  | Ok _ -> Error (Types.Invalid_argument_ "unexpected response")
  | Error e -> Error e

let shmshr t ~shm ~grantee ~perm =
  match lift (invoke t (Types.Shmshr { owner = enclave_id t; shm; grantee; perm })) with
  | Ok Types.Ok_unit -> Ok ()
  | Ok _ -> Error (Types.Invalid_argument_ "unexpected response")
  | Error e -> Error e

let shmat t ~shm ~perm =
  match lift (invoke t (Types.Shmat { enclave = enclave_id t; shm; requested_perm = perm })) with
  | Ok (Types.Ok_shmat { base_vpn; _ }) -> Ok (base_vpn * page_size)
  | Ok _ -> Error (Types.Invalid_argument_ "unexpected response")
  | Error e -> Error e

let shmdt t ~shm =
  match lift (invoke t (Types.Shmdt { enclave = enclave_id t; shm })) with
  | Ok Types.Ok_unit -> Ok ()
  | Ok _ -> Error (Types.Invalid_argument_ "unexpected response")
  | Error e -> Error e

let shmdes t ~shm =
  match lift (invoke t (Types.Shmdes { owner = enclave_id t; shm })) with
  | Ok Types.Ok_unit -> Ok ()
  | Ok _ -> Error (Types.Invalid_argument_ "unexpected response")
  | Error e -> Error e

let attest t ~user_data =
  match lift (invoke t (Types.Attest { enclave = enclave_id t; user_data })) with
  | Ok (Types.Ok_attest { quote }) -> Ok quote
  | Ok _ -> Error (Types.Invalid_argument_ "unexpected response")
  | Error e -> Error e

let exit t =
  match lift (invoke t (Types.Exit { enclave = enclave_id t })) with
  | Ok Types.Ok_unit ->
    t.live <- false;
    Ok ()
  | Ok _ -> Error (Types.Invalid_argument_ "unexpected response")
  | Error e -> Error e
