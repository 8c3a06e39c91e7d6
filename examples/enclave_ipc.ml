(* Enclave-to-enclave communication over encrypted shared memory
   (paper Sec. V): the full protocol between a sender and a receiver
   enclave, including local attestation, the legal connection list,
   permission clamping, and the malicious-release defenses.

   Run with: dune exec examples/enclave_ipc.exe *)

module Types = Hypertee_ems.Types

let ok_or_die what = function
  | Ok v -> v
  | Error e ->
    Printf.eprintf "%s failed: %s\n" what (Types.error_message e);
    exit 1

let image_of name =
  Hypertee.Sdk.image_of_code ~code:(Bytes.of_string ("code of " ^ name)) ~data:Bytes.empty ()

let launch platform name =
  match Hypertee.Sdk.launch platform (image_of name) with
  | Ok enclave -> (
    match Hypertee.Sdk.enter platform ~enclave with
    | Ok session -> (enclave, session)
    | Error m ->
      Printf.eprintf "enter %s: %s\n" name m;
      exit 1)
  | Error m ->
    Printf.eprintf "launch %s: %s\n" name m;
    exit 1

let () =
  let platform = Hypertee.Platform.create () in
  let sender_id, sender = launch platform "sender" in
  let receiver_id, receiver = launch platform "receiver" in
  let eve_id, eve = launch platform "eve" in
  Printf.printf "enclaves: sender=%d receiver=%d eve=%d\n" sender_id receiver_id eve_id;

  (* 1. Local attestation: receiver proves its identity to the sender
     before being granted access (paper Sec. VI). The sender opens an
     enclave-to-enclave secure channel pinned to the receiver's
     measurement; both sides present EATTEST quotes. *)
  (match
     Hypertee.Secure_channel.establish platform ~initiator:sender_id ~listener:receiver_id
       ~expected_measurement:(Hypertee.Sdk.expected_measurement (image_of "receiver")) ()
   with
  | Ok (at_sender, at_receiver) ->
    Printf.printf "local attestation OK; secure channel %d\n"
      (Hypertee.Secure_channel.chan at_sender);
    ignore (Hypertee.Secure_channel.close at_sender);
    ignore (Hypertee.Secure_channel.close at_receiver)
  | Error m ->
    Printf.eprintf "local attestation: %s\n" m;
    exit 1);

  (* 2. Sender creates a 4-page shared region; EMS derives a dedicated
     key from (senderID, ShmID) and programs the encryption engine. *)
  let shm = ok_or_die "ESHMGET" (Hypertee.Session.shmget sender ~pages:4 ~max_perm:Types.Read_write) in
  Printf.printf "shared region %d created\n" shm;

  (* 3. Brute-force defense: eve guesses the ShmID but is not on the
     legal connection list, so ESHMAT is rejected. *)
  (match Hypertee.Session.shmat eve ~shm ~perm:Types.Read_only with
  | Error Types.Not_registered -> print_endline "eve's ShmID guess rejected (not registered) -- good"
  | Error e -> Printf.printf "eve rejected differently: %s\n" (Types.error_message e)
  | Ok _ ->
    print_endline "BUG: eve attached without registration";
    exit 1);

  (* 4. Sender registers the receiver with read-only permission. *)
  ok_or_die "ESHMSHR" (Hypertee.Session.shmshr sender ~shm ~grantee:receiver_id ~perm:Types.Read_only);

  (* 5. Receiver asking for write access beyond its grant is clamped. *)
  (match Hypertee.Session.shmat receiver ~shm ~perm:Types.Read_write with
  | Error (Types.Permission_denied _) -> print_endline "receiver write-attach rejected (read-only grant) -- good"
  | Error e -> Printf.printf "unexpected: %s\n" (Types.error_message e)
  | Ok _ ->
    print_endline "BUG: permission clamp missing";
    exit 1);

  (* 6. Both sides attach within their permissions and exchange data
     in plaintext (the engine encrypts transparently under the shm
     key, so DRAM still holds ciphertext). *)
  let sender_va = ok_or_die "sender ESHMAT" (Hypertee.Session.shmat sender ~shm ~perm:Types.Read_write) in
  let receiver_va = ok_or_die "receiver ESHMAT" (Hypertee.Session.shmat receiver ~shm ~perm:Types.Read_only) in
  let message = Bytes.of_string "model weights / IO commands / bulk data" in
  Hypertee.Session.write sender ~va:sender_va message;
  let received = Hypertee.Session.read receiver ~va:receiver_va ~len:(Bytes.length message) in
  Printf.printf "receiver read: %S\n" (Bytes.to_string received);
  assert (Bytes.equal received message);

  (* 7. Read-only enforcement at the page tables: the receiver's
     attempt to scribble on the region faults. *)
  (match Hypertee.Session.write receiver ~va:receiver_va (Bytes.of_string "tamper") with
  | () -> print_endline "BUG: read-only page was writable"
  | exception Failure _ -> print_endline "receiver tamper attempt blocked by page permissions -- good");

  (* 8. Malicious release: only the initial sender may destroy, and
     only once no connection is active. *)
  (match Hypertee.Session.shmdes receiver ~shm with
  | Error (Types.Permission_denied _) -> print_endline "receiver destroy attempt rejected -- good"
  | Error e -> Printf.printf "unexpected: %s\n" (Types.error_message e)
  | Ok () -> print_endline "BUG: non-owner destroyed the region");
  (match Hypertee.Session.shmdes sender ~shm with
  | Error (Types.Permission_denied _) -> print_endline "destroy with active connections rejected -- good"
  | Error e -> Printf.printf "unexpected: %s\n" (Types.error_message e)
  | Ok () -> print_endline "BUG: destroyed while attached");

  (* 9. Orderly teardown. *)
  ok_or_die "receiver ESHMDT" (Hypertee.Session.shmdt receiver ~shm);
  ok_or_die "sender ESHMDT" (Hypertee.Session.shmdt sender ~shm);
  ok_or_die "ESHMDES" (Hypertee.Session.shmdes sender ~shm);
  print_endline "shared region destroyed; enclave_ipc finished"
