(* Secure DNN inference (paper Sec. VII-D, Fig. 12 scenario 1).

   A user enclave holds a confidential model; a driver enclave owns
   the Gemmini accelerator. The model is provisioned to the user
   enclave over a remotely attested secure channel, then inference
   data flows to the driver enclave over encrypted shared memory and
   onward to the accelerator through an EMS-configured DMA window.
   Finally the timing model compares this against the conventional
   software-crypto data path.

   Run with: dune exec examples/secure_inference.exe *)

module Types = Hypertee_ems.Types
module Secure_channel = Hypertee.Secure_channel

let die fmt = Printf.ksprintf (fun m -> prerr_endline m; exit 1) fmt
let ok_or_die what = function Ok v -> v | Error e -> die "%s: %s" what (Types.error_message e)
let ok_or what = function Ok v -> v | Error m -> die "%s: %s" what m

let () =
  let platform = Hypertee.Platform.create () in

  (* Launch the two enclaves. *)
  let user_image =
    Hypertee.Sdk.image_of_code ~code:(Bytes.of_string "user enclave: model owner") ~data:Bytes.empty ()
  in
  let driver_image =
    Hypertee.Sdk.image_of_code ~code:(Bytes.of_string "driver enclave: gemmini driver") ~data:Bytes.empty ()
  in
  let user_id = match Hypertee.Sdk.launch platform user_image with Ok e -> e | Error m -> die "launch user: %s" m in
  let driver_id = match Hypertee.Sdk.launch platform driver_image with Ok e -> e | Error m -> die "launch driver: %s" m in
  let user = match Hypertee.Sdk.enter platform ~enclave:user_id with Ok s -> s | Error m -> die "enter: %s" m in
  let driver = match Hypertee.Sdk.enter platform ~enclave:driver_id with Ok s -> s | Error m -> die "enter: %s" m in

  (* 1. Remote user attests the user enclave over a secure channel
     pinned to its expected measurement, then provisions the
     (confidential) model weights as a sealed record; the EMS relays
     only ciphertext segments. *)
  let client, at_user =
    ok_or "attestation"
      (Secure_channel.establish platform ~listener:user_id
         ~expected_measurement:(Hypertee.Sdk.expected_measurement user_image) ())
  in
  let weights = Bytes.of_string "W = [[0.12, -0.7], [1.4, 0.003]]  (confidential)" in
  ok_or "send weights" (Secure_channel.send client weights);
  (* Inside the enclave: open the record and keep the plaintext only
     in enclave memory. *)
  (match ok_or "receive weights" (Secure_channel.recv at_user) with
  | [ Hypertee_channel.Record.Message m ] when Bytes.equal m weights ->
    Hypertee.Session.write user ~va:(Hypertee.Session.heap_va user) m
  | _ -> die "weights did not arrive intact");
  ok_or "close" (Secure_channel.close client);
  ok_or "close" (Secure_channel.close at_user);
  print_endline "model provisioned into the user enclave over the attested channel";

  (* 2. Data path: user enclave -> driver enclave over shared memory
     (local attestation — an enclave-to-enclave channel pinned to the
     driver's measurement — then ESHMGET/ESHMSHR/ESHMAT). *)
  let at_user, at_driver =
    ok_or "local attest"
      (Secure_channel.establish platform ~initiator:user_id ~listener:driver_id
         ~expected_measurement:(Hypertee.Sdk.expected_measurement driver_image) ())
  in
  ok_or "close" (Secure_channel.close at_user);
  ok_or "close" (Secure_channel.close at_driver);
  print_endline "driver enclave locally attested";
  let shm = ok_or_die "ESHMGET" (Hypertee.Session.shmget user ~pages:8 ~max_perm:Types.Read_write) in
  ok_or_die "ESHMSHR" (Hypertee.Session.shmshr user ~shm ~grantee:driver_id ~perm:Types.Read_write);
  let user_va = ok_or_die "ESHMAT" (Hypertee.Session.shmat user ~shm ~perm:Types.Read_write) in
  let driver_va = ok_or_die "ESHMAT" (Hypertee.Session.shmat driver ~shm ~perm:Types.Read_write) in
  let layer_input = Bytes.of_string "activation tensor for layer 1" in
  Hypertee.Session.write user ~va:user_va layer_input;
  let at_driver = Hypertee.Session.read driver ~va:driver_va ~len:(Bytes.length layer_input) in
  assert (Bytes.equal at_driver layer_input);
  print_endline "activations crossed user->driver in plaintext shared enclave memory";

  (* 3. Driver grants the accelerator's DMA engine a whitelisted
     window over the shared frames (paper Sec. V-B/C); transfers
     outside the window are dropped by iHub. *)
  let runtime = Hypertee.Platform.Internals.runtime platform in
  let region =
    match Hypertee_ems.Runtime.find_shm runtime shm with Some r -> r | None -> die "shm vanished"
  in
  let frames = region.Hypertee_ems.Shm.frames in
  let base_frame = List.fold_left Stdlib.min max_int frames in
  Hypertee_arch.Ihub.configure_dma_window
    (Hypertee.Platform.Internals.ihub platform)
    ~channel:1 ~base_frame ~frames:(List.length frames) ~writable:true;
  (match Hypertee.Platform.dma_read platform ~channel:1 ~frame:base_frame with
  | Ok _ -> print_endline "accelerator DMA read inside the whitelist window succeeded"
  | Error _ -> die "DMA inside window was wrongly blocked");
  (match Hypertee.Platform.dma_read platform ~channel:1 ~frame:0 with
  | Error _ -> print_endline "accelerator DMA outside the window dropped by iHub -- good"
  | Ok _ -> die "BUG: DMA escaped its whitelist window");

  (* 4. Performance: the Fig. 12 model for this exact scenario. *)
  print_endline "\nend-to-end inference timing (Fig. 12 model):";
  List.iter
    (fun net ->
      let r = Hypertee_accel.Comm_scenario.run_dnn net in
      Printf.printf "  %-15s conventional %8.1f ms  hypertee %7.1f ms  speedup %5.1fx\n"
        r.Hypertee_accel.Comm_scenario.network
        (r.Hypertee_accel.Comm_scenario.conventional_total_ns /. 1e6)
        (r.Hypertee_accel.Comm_scenario.hypertee_total_ns /. 1e6)
        r.Hypertee_accel.Comm_scenario.speedup)
    [ Hypertee_workloads.Dnn.resnet50; Hypertee_workloads.Dnn.mobilenet; Hypertee_workloads.Dnn.mlp_mnist ];
  print_endline "secure_inference finished"
