(** Memory service: EALLOC (incl. demand paging / swap-in faults),
    EFREE, EWB. *)

module Phys_mem = Hypertee_arch.Phys_mem
module Bitmap = Hypertee_arch.Bitmap
module Mem_encryption = Hypertee_arch.Mem_encryption
module Page_table = Hypertee_arch.Page_table
module Pte = Hypertee_arch.Pte
open State

let name = "memory"
let opcodes = Types.[ EALLOC; EFREE; EWB ]

let handle_alloc t ~sender ~enclave ~pages =
  let* e = get_enclave t enclave in
  let* () = check_identity ~sender ~target:enclave ~strict:false in
  if pages <= 0 || pages > 16384 then Types.Err (Types.Invalid_argument_ "bad page count")
  else begin
    let* frames = take_pool_frames t ~n:pages in
    let base_vpn = e.Enclave.heap_cursor in
    let result =
      List.fold_left
        (fun (i, acc) frame ->
          match acc with
          | Error _ -> (i, acc)
          | Ok () ->
            (i + 1, map_private_page t e ~vpn:(base_vpn + i) ~frame ~r:true ~w:true ~x:false))
        (0, Ok ()) frames
      |> snd
    in
    match result with
    | Error err -> Types.Err err
    | Ok () ->
      e.Enclave.heap_cursor <- base_vpn + pages;
      Types.Ok_alloc { base_vpn; pages }
  end

let handle_free t ~sender ~enclave ~vpn ~pages =
  let* e = get_enclave t enclave in
  let* () = check_identity ~sender ~target:enclave ~strict:false in
  if pages <= 0 then Types.Err (Types.Invalid_argument_ "bad page count")
  else begin
    let vpns = List.init pages (fun i -> vpn + i) in
    (* Check the whole range before unmapping any of it: a partial
       unmap would strand the frames it had already released. *)
    if List.exists (fun vpn -> Page_table.lookup e.Enclave.page_table ~vpn = None) vpns then
      Types.Err (Types.Invalid_argument_ "page not mapped")
    else begin
      let frames =
        List.filter_map (fun vpn -> Result.to_option (unmap_private_page t e ~vpn)) vpns
      in
      Mem_pool.give_back t.pool frames;
      Types.Ok_unit
    end
  end

(* EWB (Sec. IV-A): serve reclamation from *unused pool frames*, in a
   randomized quantity, so the OS never learns which enclave pages
   are live. Pool frames are encrypted before leaving EMS custody
   (their zeroed contents must be indistinguishable from real data).
   If the pool cannot cover the request, evict real enclave pages:
   encrypt into the owner's swap store, invalidate the PTE, clear the
   bitmap bit, return the frame. *)
let handle_writeback t ~pages_hint =
  if pages_hint <= 0 || pages_hint > 4096 then
    Types.Err (Types.Invalid_argument_ "bad page hint")
  else begin
    let jitter = Hypertee_util.Xrng.int t.rng (1 + (pages_hint / 2)) in
    let want = pages_hint + jitter in
    let swap_key = Hypertee_crypto.Aes.expand (Keymgmt.swap_key t.keys) in
    let from_pool = Mem_pool.surrender t.pool ~n:want in
    let blobs =
      List.map
        (fun frame ->
          let content = Bytes.make Hypertee_util.Units.page_size '\000' in
          (frame, Hypertee_crypto.Aes.encrypt_page swap_key ~page_number:frame content))
        from_pool
    in
    let missing = want - List.length from_pool in
    let evicted =
      if missing <= 0 then []
      else begin
        (* Candidate victims: heap pages of live enclaves, chosen at
           random (Sec. IV-A point 3). *)
        let candidates =
          Hashtbl.fold
            (fun _ (e : Enclave.t) acc ->
              List.fold_left
                (fun acc vpn ->
                  match Page_table.lookup e.Enclave.page_table ~vpn with
                  | Some pte -> (e, vpn, pte) :: acc
                  | None -> acc)
                acc
                (List.init
                   (Stdlib.max 0 (e.Enclave.heap_cursor - e.Enclave.layout.Enclave.heap_base))
                   (fun i -> e.Enclave.layout.Enclave.heap_base + i)))
            t.enclaves []
          |> Array.of_list
        in
        Hypertee_util.Xrng.shuffle t.rng candidates;
        let n = Stdlib.min missing (Array.length candidates) in
        List.init n (fun i ->
            let e, vpn, pte = candidates.(i) in
            let frame = pte.Pte.ppn in
            (* Decrypt under the enclave key, then re-encrypt under
               the swap key with vpn binding. *)
            let pt = Mem_encryption.read_page t.mee t.mem ~key_id:pte.Pte.key_id ~frame in
            let blob = Hypertee_crypto.Aes.encrypt_page swap_key ~page_number:vpn pt in
            Hashtbl.replace e.Enclave.swapped_out vpn blob;
            Page_table.unmap e.Enclave.page_table ~vpn;
            Ownership.release t.ownership ~frame;
            Bitmap.clear t.bitmap ~frame;
            Phys_mem.zero t.mem ~frame;
            Phys_mem.set_owner t.mem frame Phys_mem.Free;
            (frame, Hypertee_crypto.Aes.encrypt_page swap_key ~page_number:frame pt))
      end
    in
    let all = blobs @ evicted in
    Types.Ok_writeback { frames = List.map fst all; blobs = all }
  end

let handle_page_fault t ~enclave ~vpn =
  let* e = get_enclave t enclave in
  match Hashtbl.find_opt e.Enclave.swapped_out vpn with
  | Some blob -> (
    (* Swap-in: restore the page from the encrypted blob. *)
    let* frames = take_pool_frames t ~n:1 in
    match frames with
    | [ frame ] ->
      let swap_key = Hypertee_crypto.Aes.expand (Keymgmt.swap_key t.keys) in
      let pt = Hypertee_crypto.Aes.decrypt_page swap_key ~page_number:vpn blob in
      (match map_private_page t e ~vpn ~frame ~r:true ~w:true ~x:false with
      | Error err -> Types.Err err
      | Ok () ->
        Mem_encryption.write_page t.mee t.mem ~key_id:e.Enclave.key_id ~frame pt;
        Hashtbl.remove e.Enclave.swapped_out vpn;
        Types.Ok_alloc { base_vpn = vpn; pages = 1 })
    | _ -> Types.Err Types.Out_of_memory)
  | None -> (
    match Page_table.lookup e.Enclave.page_table ~vpn with
    | Some _ ->
      (* Spurious fault on a resident page (stale TLB, racing
         faults): re-faulting must be idempotent. Allocating here
         would overwrite the live leaf and orphan its frame —
         enclave-owned but unreachable until EDESTROY. *)
      Types.Ok_alloc { base_vpn = vpn; pages = 1 }
    | None ->
    (* Demand allocation within the growth region. *)
    if vpn >= e.Enclave.layout.Enclave.heap_base && vpn < e.Enclave.layout.Enclave.stack_base
    then begin
      let* frames = take_pool_frames t ~n:1 in
      match frames with
      | [ frame ] -> (
        match map_private_page t e ~vpn ~frame ~r:true ~w:true ~x:false with
        | Error err -> Types.Err err
        | Ok () ->
          if vpn >= e.Enclave.heap_cursor then e.Enclave.heap_cursor <- vpn + 1;
          Types.Ok_alloc { base_vpn = vpn; pages = 1 })
      | _ -> Types.Err Types.Out_of_memory
    end
    else Types.Err (Types.Invalid_argument_ "fault outside growable region"))

let handle t ~sender (request : Types.request) =
  match request with
  | Types.Alloc { enclave; pages } -> handle_alloc t ~sender ~enclave ~pages
  | Types.Page_fault { enclave; vpn } -> handle_page_fault t ~enclave ~vpn
  | Types.Free { enclave; vpn; pages } -> handle_free t ~sender ~enclave ~vpn ~pages
  | Types.Writeback { pages_hint } -> handle_writeback t ~pages_hint
  | _ -> Types.Err (Types.Invalid_argument_ "request outside the memory service")

let register registry = Registry.register registry ~service:name ~opcodes handle
