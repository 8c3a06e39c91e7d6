(* Quickstart: the complete enclave lifecycle on a HyperTEE platform.

   Builds a platform, launches an enclave from an image (ECREATE +
   EADD + EMEAS through the EMCall gate), enters it, works with
   encrypted memory, runs remote attestation as an external verifier
   would, and tears down.

   Run with: dune exec examples/quickstart.exe *)

let ( let* ) r f =
  match r with
  | Ok v -> f v
  | Error msg ->
    Printf.eprintf "quickstart failed: %s\n" msg;
    exit 1

let () =
  (* 1. Boot a platform: 4 CS cores, 1 medium EMS core, crypto engine. *)
  let platform = Hypertee.Platform.create () in
  Printf.printf "platform booted; measurement = %s...\n"
    (String.sub (Hypertee_util.Bytes_ext.to_hex (Hypertee.Platform.platform_measurement platform)) 0 16);

  (* 2. Build an enclave image. In a real SDK the code section is the
     compiled enclave binary; the expected measurement is emitted at
     build time for remote verifiers. *)
  let image =
    Hypertee.Sdk.image_of_code
      ~code:(Bytes.of_string "enclave text: processes secrets without trusting the OS")
      ~data:(Bytes.of_string "enclave initialised data")
      ()
  in
  Printf.printf "expected measurement = %s...\n"
    (String.sub (Hypertee_util.Bytes_ext.to_hex (Hypertee.Sdk.expected_measurement image)) 0 16);

  (* 3. Launch: the SDK drives ECREATE/EADD/EMEAS and verifies the
     measurement EMS computed matches the build-time expectation. *)
  let* enclave = Hypertee.Sdk.launch platform image in
  Printf.printf "enclave %d launched and measured\n" enclave;

  (* 4. Enter and use encrypted memory. Everything the enclave writes
     is AES-encrypted by the memory engine before touching DRAM. *)
  let* session = Hypertee.Sdk.enter platform ~enclave in
  let heap = Hypertee.Session.heap_va session in
  Hypertee.Session.write session ~va:heap (Bytes.of_string "the secret: 42");
  let back = Hypertee.Session.read session ~va:heap ~len:14 in
  Printf.printf "enclave read back: %S\n" (Bytes.to_string back);

  (* 5. Dynamic memory: EALLOC serves pages from the EMS pool without
     the OS observing per-enclave allocations. *)
  (match Hypertee.Session.alloc session ~pages:8 with
  | Ok va -> Printf.printf "EALLOC gave 8 pages at va %#x\n" va
  | Error e -> Printf.printf "EALLOC failed: %s\n" (Hypertee_ems.Types.error_message e));

  (* 6. Remote attestation: a remote user opens an attested secure
     channel to the enclave. Its quote must verify under the platform
     EK/AK, commit to this handshake and match the expected
     measurement; both ends then hold fresh record keys. *)
  let* client, server =
    Hypertee.Secure_channel.establish platform ~listener:enclave
      ~expected_measurement:(Hypertee.Sdk.expected_measurement image) ()
  in
  Printf.printf "remote attestation OK; secure channel %d\n" (Hypertee.Secure_channel.chan client);
  let* () = Hypertee.Secure_channel.close client in
  let* () = Hypertee.Secure_channel.close server in

  (* 7. Host <-> enclave staging window: the host passes data in
     through plaintext staging pages; secrets would travel over the
     attested channel instead. *)
  let* () = Hypertee.Sdk.host_write_staging platform ~enclave ~off:0 (Bytes.of_string "input!") in
  let staged = Hypertee.Session.read session ~va:(Hypertee.Session.staging_va session) ~len:6 in
  Printf.printf "enclave sees staged input: %S\n" (Bytes.to_string staged);

  (* 8. Exit and destroy; EMS scrubs and reclaims every page. *)
  let* () = Result.map_error Hypertee_ems.Types.error_message (Hypertee.Session.exit session) in
  let* () = Hypertee.Sdk.destroy platform ~enclave in
  Printf.printf "enclave destroyed; pool has %d frames parked\n"
    (Hypertee_ems.Mem_pool.available
       (Hypertee_ems.Runtime.pool (Hypertee.Platform.Internals.runtime platform)));
  print_endline "quickstart finished"
