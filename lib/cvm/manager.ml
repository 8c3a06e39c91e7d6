module Phys_mem = Hypertee_arch.Phys_mem
module Mem_encryption = Hypertee_arch.Mem_encryption
module Mem_pool = Hypertee_ems.Mem_pool
module Runtime = Hypertee_ems.Runtime
module Keymgmt = Hypertee_ems.Keymgmt

let page_size = Hypertee_util.Units.page_size

type cvm_id = int
type state = Running | Suspended | Destroyed

type cvm = {
  id : cvm_id;
  vcpus : int;
  mutable frames : int array; (* guest-physical page i lives in frames.(i) *)
  key_id : int;
  measurement : bytes;
  mutable cvm_state : state;
  (* Snapshot protection state, EMS-private (Sec. IX): the key and
     the Merkle root never leave the manager except over an attested
     encrypted channel during migration. *)
  mutable snapshot_key : bytes option;
  mutable snapshot_root : bytes option;
}

type t = {
  platform : Hypertee.Platform.t;
  cvms : (cvm_id, cvm) Hashtbl.t;
  mutable next_id : int;
  mutable tamper_detections : int;
}

let create platform = { platform; cvms = Hashtbl.create 8; next_id = 1; tamper_detections = 0 }
let platform t = t.platform

let runtime t = Hypertee.Platform.Internals.runtime t.platform
let mee t = Hypertee.Platform.Internals.mee t.platform
let mem t = Hypertee.Platform.mem t.platform

let find t id =
  match Hashtbl.find_opt t.cvms id with
  | Some cvm when cvm.cvm_state <> Destroyed -> Ok cvm
  | Some _ | None -> Error "no such CVM"

let state t id =
  match Hashtbl.find_opt t.cvms id with Some c -> Some c.cvm_state | None -> None

let measurement t id =
  match Hashtbl.find_opt t.cvms id with Some c -> Some c.measurement | None -> None

let memory_pages t id =
  match Hashtbl.find_opt t.cvms id with Some c -> Array.length c.frames | None -> 0

let ( let* ) = Result.bind

let store_page t cvm ~page data =
  let frame = cvm.frames.(page) in
  Mem_encryption.write_page (mee t) (mem t) ~key_id:cvm.key_id ~frame data

(* Reused page scratch for bulk image/snapshot streaming (consumed
   before the next call overwrites it). *)
let page_scratch = Bytes.make page_size '\000'

let launch t ~vcpus ~memory_pages ~image =
  if vcpus <= 0 || memory_pages <= 0 then Error "bad CVM dimensions"
  else if Bytes.length image > memory_pages * page_size then Error "image exceeds CVM memory"
  else begin
    let pool = Runtime.pool (runtime t) in
    match Mem_encryption.find_free_slot (mee t) with
    | None -> Error "out of memory-encryption KeyIDs"
    | Some key_id -> (
      match Mem_pool.take pool ~n:memory_pages with
      | None ->
        (* Release the KeyID [find_free_slot] reserved. *)
        Mem_encryption.revoke (mee t) ~key_id;
        Error "out of memory"
      | Some frames ->
        let id = t.next_id in
        let keys = Hypertee.Platform.Internals.keys t.platform in
        let measurement = Hypertee_crypto.Sha256.digest image in
        let key = Keymgmt.memory_key keys ~enclave_measurement:measurement ~enclave_id:(0x10000 + id) in
        Mem_encryption.program (mee t) ~key_id key;
        let frames = Array.of_list frames in
        Array.iter (fun f -> Phys_mem.set_owner (mem t) f (Phys_mem.Enclave (0x10000 + id))) frames;
        let cvm =
          {
            id;
            vcpus;
            frames;
            key_id;
            measurement;
            cvm_state = Running;
            snapshot_key = None;
            snapshot_root = None;
          }
        in
        (* Load the image page by page through the engine. *)
        let pages = (Bytes.length image + page_size - 1) / page_size in
        for p = 0 to Array.length frames - 1 do
          Bytes.fill page_scratch 0 page_size '\000';
          if p < pages then begin
            let off = p * page_size in
            Bytes.blit image off page_scratch 0 (Stdlib.min page_size (Bytes.length image - off))
          end;
          store_page t cvm ~page:p page_scratch
        done;
        t.next_id <- id + 1;
        Hashtbl.replace t.cvms id cvm;
        Ok id)
  end

let guest_access t id ~gpa ~len k =
  let* cvm = find t id in
  if gpa < 0 || len < 0 || gpa + len > Array.length cvm.frames * page_size then
    Error "guest-physical access out of range"
  else k cvm

let guest_read t id ~gpa ~len =
  guest_access t id ~gpa ~len (fun cvm ->
      let out = Bytes.create len in
      let cursor = ref gpa and remaining = ref len and dst = ref 0 in
      while !remaining > 0 do
        let page = !cursor / page_size and off = !cursor mod page_size in
        let chunk = Stdlib.min !remaining (page_size - off) in
        (* Decrypt only the requested range of each page. *)
        Mem_encryption.read_range_into (mee t) (mem t) ~key_id:cvm.key_id
          ~frame:cvm.frames.(page) ~off ~len:chunk out ~dst_off:!dst;
        cursor := !cursor + chunk;
        dst := !dst + chunk;
        remaining := !remaining - chunk
      done;
      Ok out)

let guest_write t id ~gpa data =
  guest_access t id ~gpa ~len:(Bytes.length data) (fun cvm ->
      let cursor = ref gpa and src = ref 0 and remaining = ref (Bytes.length data) in
      while !remaining > 0 do
        let page = !cursor / page_size and off = !cursor mod page_size in
        let chunk = Stdlib.min !remaining (page_size - off) in
        Mem_encryption.update_range (mee t) (mem t) ~key_id:cvm.key_id
          ~frame:cvm.frames.(page) ~off ~src:data ~src_off:!src ~len:chunk;
        cursor := !cursor + chunk;
        src := !src + chunk;
        remaining := !remaining - chunk
      done;
      Ok ())

let suspend t id =
  let* cvm = find t id in
  match cvm.cvm_state with
  | Running ->
    cvm.cvm_state <- Suspended;
    Ok ()
  | Suspended -> Error "already suspended"
  | Destroyed -> Error "destroyed"

let resume t id =
  let* cvm = find t id in
  match cvm.cvm_state with
  | Suspended ->
    cvm.cvm_state <- Running;
    Ok ()
  | Running -> Error "already running"
  | Destroyed -> Error "destroyed"

let destroy t id =
  let* cvm = find t id in
  let pool = Runtime.pool (runtime t) in
  Array.iter (fun f -> Phys_mem.zero (mem t) ~frame:f) cvm.frames;
  Mem_pool.give_back pool (Array.to_list cvm.frames);
  Mem_encryption.revoke (mee t) ~key_id:cvm.key_id;
  cvm.cvm_state <- Destroyed;
  cvm.frames <- [||];
  Ok ()

type snapshot = { cvm : cvm_id; encrypted_pages : bytes array; vcpus : int }

let fresh_snapshot_key t =
  (* Derived from the platform SK and a per-snapshot nonce. *)
  let keys = Hypertee.Platform.Internals.keys t.platform in
  let nonce = Hypertee_util.Xrng.bytes (Hypertee.Platform.rng t.platform) 16 in
  Hypertee_crypto.Hmac.hmac
    ~key:(Keymgmt.swap_key keys)
    (Bytes.cat (Bytes.of_string "cvm-snapshot") nonce)
  |> fun h -> Bytes.sub h 0 16

let snapshot t id =
  let* cvm = find t id in
  let key_bytes = fresh_snapshot_key t in
  let key = Hypertee_crypto.Aes.expand key_bytes in
  let n = Array.length cvm.frames in
  let encrypt_page p =
    let frame = cvm.frames.(p) in
    (* Decrypt into scratch, re-encrypt under the snapshot key into
       the retained blob: one allocation per page instead of two. *)
    Mem_encryption.load_into (mee t) ~key_id:cvm.key_id ~frame
      ~src:(Phys_mem.borrow_ro (mem t) ~frame)
      ~dst:page_scratch;
    let ct = Bytes.create page_size in
    Hypertee_crypto.Aes.encrypt_page_into key ~page_number:p ~src:page_scratch ~src_off:0
      ~dst:ct ~dst_off:0 page_size;
    ct
  in
  let encrypted_pages = Array.init n encrypt_page in
  (* Integrity root over the *ciphertext* (encrypt-then-MAC shape). *)
  let tree = Hypertee_crypto.Merkle.build (Array.to_list encrypted_pages) in
  cvm.snapshot_key <- Some key_bytes;
  cvm.snapshot_root <- Some (Hypertee_crypto.Merkle.root tree);
  Ok { cvm = id; encrypted_pages; vcpus = cvm.vcpus }

(* Restore with explicit key material (shared by local restore and
   the migration receive path). *)
let restore_with t snap ~key_bytes ~root ~measurement =
  let n = Array.length snap.encrypted_pages in
  if n = 0 then Error "empty snapshot"
  else begin
    (* Verify every page against the root before touching any state. *)
    let tree = Hypertee_crypto.Merkle.build (Array.to_list snap.encrypted_pages) in
    if not (Hypertee_util.Bytes_ext.equal_ct (Hypertee_crypto.Merkle.root tree) root) then begin
      t.tamper_detections <- t.tamper_detections + 1;
      Error "snapshot integrity verification failed"
    end
    else begin
      let key = Hypertee_crypto.Aes.expand key_bytes in
      let pool = Runtime.pool (runtime t) in
      match Mem_encryption.find_free_slot (mee t) with
      | None -> Error "out of memory-encryption KeyIDs"
      | Some key_id -> (
        match Mem_pool.take pool ~n with
        | None ->
          Mem_encryption.revoke (mee t) ~key_id;
          Error "out of memory"
        | Some frames ->
          let id = t.next_id in
          let keys = Hypertee.Platform.Internals.keys t.platform in
          let mem_key =
            Keymgmt.memory_key keys ~enclave_measurement:measurement ~enclave_id:(0x10000 + id)
          in
          Mem_encryption.program (mee t) ~key_id mem_key;
          let frames = Array.of_list frames in
          Array.iter (fun f -> Phys_mem.set_owner (mem t) f (Phys_mem.Enclave (0x10000 + id))) frames;
          let cvm =
            {
              id;
              vcpus = snap.vcpus;
              frames;
              key_id;
              measurement;
              cvm_state = Suspended;
              snapshot_key = Some key_bytes;
              snapshot_root = Some root;
            }
          in
          for p = 0 to n - 1 do
            Hypertee_crypto.Aes.decrypt_page_into key ~page_number:p
              ~src:snap.encrypted_pages.(p) ~src_off:0 ~dst:page_scratch ~dst_off:0
              page_size;
            store_page t cvm ~page:p page_scratch
          done;
          t.next_id <- id + 1;
          Hashtbl.replace t.cvms id cvm;
          Ok id)
    end
  end

let restore t snap =
  match Hashtbl.find_opt t.cvms snap.cvm with
  | None -> Error "unknown CVM (snapshot from another platform needs migrate)"
  | Some cvm -> (
    match (cvm.snapshot_key, cvm.snapshot_root) with
    | Some key_bytes, Some root ->
      restore_with t snap ~key_bytes ~root ~measurement:cvm.measurement
    | _ -> Error "no snapshot key material retained for this CVM")

(* Migration (Sec. IX): the source and destination EMSes run a mutual
   htch1 handshake in which each quotes the CVM's measurement under
   its own platform keys and pins the peer's quote to that same
   measurement on the peer's published platform. The snapshot key and
   root hash then cross as one sealed record; pages cross as
   ciphertext. *)
let migrate ~src ~dst ~rng id =
  let* cvm = find src id in
  let module Handshake = Hypertee_channel.Handshake in
  let module Record = Hypertee_channel.Record in
  let module Attest = Hypertee_ems.Attest in
  let module Platform = Hypertee.Platform in
  let auth ~self ~peer =
    {
      Handshake.make_quote =
        Some
          (fun ~user_data ->
            Ok
              (Attest.quote_to_bytes
                 (Attest.make_quote (Platform.Internals.keys self.platform)
                    ~platform_measurement:(Platform.platform_measurement self.platform)
                    ~enclave_measurement:cvm.measurement ~user_data)));
      verify_quote =
        (fun ~quote ~user_data ->
          Attest.verify_quote ~ek:(Platform.ek_public peer.platform)
            ~ak:(Platform.ak_public peer.platform)
            ~platform_measurement:(Platform.platform_measurement peer.platform)
            ~enclave_measurement:cvm.measurement ~user_data quote);
      require_peer_quote = true;
    }
  in
  let binding = Hypertee_util.Xrng.bytes rng Hypertee_channel.Wire.binding_len in
  let machine role auth =
    Handshake.create ~role ~rng:(Hypertee_util.Xrng.split rng) ~binding ~auth ()
  in
  let initiator = machine Handshake.Initiator (auth ~self:src ~peer:dst) in
  let responder = machine Handshake.Responder (auth ~self:dst ~peer:src) in
  let* at_src, at_dst, _ =
    Result.map_error
      (fun e -> "mutual attestation failed: " ^ e)
      (Handshake.loopback ~initiator ~responder)
  in
  let* snap = snapshot src id in
  let key_bytes = Option.get cvm.snapshot_key in
  let root = Option.get cvm.snapshot_root in
  let record_err e = "key transfer: " ^ Record.error_message e in
  let* segs = Result.map_error record_err (Record.seal_message at_src (Bytes.cat key_bytes root)) in
  (* --- ciphertext pages + the sealed (key || root) record travel to dst --- *)
  let* events =
    List.fold_left
      (fun acc seg ->
        let* evs = acc in
        let* more = Result.map_error record_err (Record.deliver at_dst seg) in
        Ok (evs @ more))
      (Ok []) segs
  in
  match events with
  | [ Record.Message payload ] ->
    let key_rx = Bytes.sub payload 0 16 in
    let root_rx = Bytes.sub payload 16 (Bytes.length payload - 16) in
    Record.wipe at_src;
    Record.wipe at_dst;
    (* Verified restore on the destination, then tear down the source copy. *)
    let* new_id =
      restore_with dst snap ~key_bytes:key_rx ~root:root_rx ~measurement:cvm.measurement
    in
    let* () = destroy src id in
    Ok new_id
  | _ -> Error "key transfer: expected exactly one message"

let tamper_detections t = t.tamper_detections
