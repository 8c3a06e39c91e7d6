(* Cross-cutting property tests: randomized operation sequences
   checked against reference models, at the platform level rather
   than per module. *)

open Hypertee
module Types = Hypertee_ems.Types
module Mem_pool = Hypertee_ems.Mem_pool
module Phys_mem = Hypertee_arch.Phys_mem
module Bitmap = Hypertee_arch.Bitmap

let prop = QCheck_alcotest.to_alcotest ~speed_level:`Quick

(* One platform + enclave shared across property iterations: platform
   creation costs two RSA keygens, and the properties only need fresh
   operation sequences, not fresh platforms. *)
let shared = lazy (
  let platform = Platform.create ~seed:0x9909L () in
  let image = Sdk.image_of_code ~code:(Bytes.of_string "prop enclave") ~data:Bytes.empty () in
  let enclave = Result.get_ok (Sdk.launch platform image) in
  let session = Result.get_ok (Sdk.enter platform ~enclave) in
  (platform, session))

(* --- Session memory behaves like a byte array --- *)

let prop_session_memory_model =
  prop
    (QCheck.Test.make ~name:"session heap = reference byte array" ~count:30
       QCheck.(list_of_size Gen.(int_range 1 20) (tup2 (int_bound 12000) (string_of_size Gen.(int_range 1 64))))
       (fun writes ->
         let _, session = Lazy.force shared in
         let heap = Session.heap_va session in
         let model = Bytes.make 16384 '\000' in
         (* Initialise both sides to a known state. *)
         Session.write session ~va:heap (Bytes.make 16384 '\000');
         List.iter
           (fun (off, s) ->
             let data = Bytes.of_string s in
             Session.write session ~va:(heap + off) data;
             Bytes.blit data 0 model off (Bytes.length data))
           writes;
         Bytes.equal (Session.read session ~va:heap ~len:16384) model))

let prop_session_rw_roundtrip_any_span =
  prop
    (QCheck.Test.make ~name:"rw roundtrip across page boundaries" ~count:50
       QCheck.(tup2 (int_bound 20000) (string_of_size Gen.(int_range 0 9000)))
       (fun (off, s) ->
         let _, session = Lazy.force shared in
         let heap = Session.heap_va session in
         let data = Bytes.of_string s in
         Session.write session ~va:(heap + off) data;
         Bytes.equal (Session.read session ~va:(heap + off) ~len:(Bytes.length data)) data))

(* --- Alloc/free sequences keep the pool and ownership consistent --- *)

let prop_alloc_free_consistency =
  prop
    (QCheck.Test.make ~name:"alloc/free storm keeps invariants" ~count:15
       QCheck.(list_of_size Gen.(int_range 1 30) (int_range 1 8))
       (fun sizes ->
         let platform, session = Lazy.force shared in
         let allocated =
           List.filter_map
             (fun pages ->
               match Session.alloc session ~pages with
               | Ok va -> Some (va, pages)
               | Error _ -> None)
             sizes
         in
         (* Every allocation landed on distinct pages. *)
         let ranges =
           List.concat_map (fun (va, pages) -> List.init pages (fun i -> (va / 4096) + i)) allocated
         in
         let distinct = List.length ranges = List.length (List.sort_uniq compare ranges) in
         (* Free everything; the ownership table must not still record
            the freed frames as this enclave's. *)
         List.iter (fun (va, pages) -> ignore (Session.free session ~va ~pages)) allocated;
         let runtime = Platform.Internals.runtime platform in
         let owned =
           Hypertee_ems.Ownership.frames_of
             (Hypertee_ems.Runtime.ownership runtime)
             (Session.enclave_id session)
         in
         let bitmap = Platform.Internals.bitmap platform in
         let bitmap_consistent =
           List.for_all (fun f -> Bitmap.get bitmap ~frame:f) owned
         in
         distinct && bitmap_consistent))

(* --- CVM snapshot/restore is the identity on guest memory --- *)

let prop_cvm_snapshot_identity =
  prop
    (QCheck.Test.make ~name:"CVM snapshot/restore identity" ~count:10
       QCheck.(list_of_size Gen.(int_range 1 8) (tup2 (int_bound 12000) (string_of_size Gen.(int_range 1 100))))
       (fun writes ->
         let m = Hypertee_cvm.Manager.create (Platform.create ~seed:0xCCCL ()) in
         let cvm =
           Result.get_ok (Hypertee_cvm.Manager.launch m ~vcpus:1 ~memory_pages:4 ~image:Bytes.empty)
         in
         List.iter
           (fun (gpa, s) ->
             ignore (Hypertee_cvm.Manager.guest_write m cvm ~gpa (Bytes.of_string s)))
           writes;
         let before = Result.get_ok (Hypertee_cvm.Manager.guest_read m cvm ~gpa:0 ~len:16384) in
         let snap = Result.get_ok (Hypertee_cvm.Manager.snapshot m cvm) in
         let restored = Result.get_ok (Hypertee_cvm.Manager.restore m snap) in
         let after = Result.get_ok (Hypertee_cvm.Manager.guest_read m restored ~gpa:0 ~len:16384) in
         Bytes.equal before after))

(* --- Bignum algebra --- *)

let prop_modpow_homomorphism =
  prop
    (QCheck.Test.make ~name:"a^(b+c) = a^b * a^c (mod p)" ~count:60
       QCheck.(tup3 (int_range 2 1000000) (int_bound 5000) (int_bound 5000))
       (fun (a, b, c) ->
         let open Hypertee_crypto.Bignum in
         let p = of_int 1000003 in
         let a = of_int a and bb = of_int b and cc = of_int c in
         let lhs = mod_pow ~base:a ~exp:(add bb cc) ~modulus:p in
         let rhs = rem (mul (mod_pow ~base:a ~exp:bb ~modulus:p) (mod_pow ~base:a ~exp:cc ~modulus:p)) p in
         equal lhs rhs))

(* Montgomery [mod_pow] against square-and-multiply over odd moduli
   of 1-520 bits (1-20 limbs), with the edges forced in one case in
   two: modulus 1, base 0, base >= modulus, exponent 0 and 1. *)
let prop_modpow_matches_reference =
  prop
    (QCheck.Test.make ~name:"mod_pow = mod_pow_reference (odd moduli)" ~count:300
       QCheck.(
         quad (string_of_size Gen.(int_range 1 65)) (string_of_size Gen.(int_range 0 65))
           (string_of_size Gen.(int_range 0 66)) (int_bound 9))
       (fun (m, b, e, edge) ->
         let open Hypertee_crypto.Bignum in
         let modulus = of_bytes_be (Bytes.of_string m) in
         let modulus = if is_even modulus then add modulus one else modulus in
         let base = of_bytes_be (Bytes.of_string b) and exp = of_bytes_be (Bytes.of_string e) in
         let modulus, base, exp =
           match edge with
           | 0 -> (one, base, exp)
           | 1 -> (modulus, zero, exp)
           | 2 -> (modulus, add base modulus, exp)
           | 3 -> (modulus, base, zero)
           | 4 -> (modulus, base, one)
           | _ -> (modulus, base, exp)
         in
         equal (mod_pow ~base ~exp ~modulus) (mod_pow_reference ~base ~exp ~modulus)))

let prop_seal_binds_measurement =
  prop
    (QCheck.Test.make ~name:"sealed blobs never unseal under another measurement" ~count:25
       QCheck.(tup2 (string_of_size Gen.(int_range 1 60)) (string_of_size Gen.(int_range 1 60)))
       (fun (s1, s2) ->
         QCheck.assume (s1 <> s2);
         let keys = Hypertee_ems.Keymgmt.provision (Hypertee_util.Xrng.create 0x5EA1L) in
         let m1 = Hypertee_crypto.Sha256.digest_string s1 in
         let m2 = Hypertee_crypto.Sha256.digest_string s2 in
         let blob = Hypertee_ems.Attest.seal keys ~enclave_measurement:m1 (Bytes.of_string "data") in
         Hypertee_ems.Attest.unseal keys ~enclave_measurement:m2 blob = None))

(* --- Mailbox binding under random interleavings --- *)

let prop_mailbox_binding =
  prop
    (QCheck.Test.make ~name:"responses always reach their own request" ~count:50
       QCheck.(list_of_size Gen.(int_range 1 30) (int_bound 1000))
       (fun payloads ->
         let mb : (int, int) Hypertee_arch.Mailbox.t = Hypertee_arch.Mailbox.create ~depth:64 () in
         let ids =
           List.filter_map
             (fun p ->
               match Hypertee_arch.Mailbox.send_request mb ~sender_enclave:None p with
               | Ok id -> Some (id, p)
               | Error `Full -> None)
             payloads
         in
         (* EMS side answers each request with its payload negated. *)
         let rec serve () =
           match Hypertee_arch.Mailbox.recv_request mb with
           | Some pkt ->
             (match
                Hypertee_arch.Mailbox.send_response mb
                  ~request_id:pkt.Hypertee_arch.Mailbox.request_id
                  (-pkt.Hypertee_arch.Mailbox.body)
              with
             | Ok () -> ()
             | Error `Unknown_or_answered -> QCheck.Test.fail_report "live id rejected");
             serve ()
           | None -> ()
         in
         serve ();
         (* Poll in reverse order: binding must hold regardless. *)
         List.for_all
           (fun (id, p) -> Hypertee_arch.Mailbox.poll_response mb ~request_id:id = Some (-p))
           (List.rev ids)))

let suite =
  [
    ( "properties",
      [
        prop_session_memory_model;
        prop_session_rw_roundtrip_any_span;
        prop_alloc_free_consistency;
        prop_cvm_snapshot_identity;
        prop_modpow_homomorphism;
        prop_seal_binds_measurement;
        prop_mailbox_binding;
        prop_modpow_matches_reference;
      ] );
  ]
