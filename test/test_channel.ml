(* The attested secure-channel layer (docs/PROTOCOL.md): record
   round-trips as properties, replay/reorder/rekey discipline at the
   record layer, the conformance vector suite, full platform sessions
   cross-shard, a crash between every handshake flight (mirroring the
   migration crash matrix), channel reaping on enclave destruction
   and shard recovery, and a long session under channel fault
   injection — corruption may kill a channel but never smuggles a
   byte through. *)

module Types = Hypertee_ems.Types
module Emcall = Hypertee_cs.Emcall
module Platform = Hypertee.Platform
module Secure_channel = Hypertee.Secure_channel
module Config = Hypertee_arch.Config
module Fault = Hypertee_faults.Fault
module Record = Hypertee_channel.Record
module Wire = Hypertee_channel.Wire
module Conformance = Hypertee_channel.Conformance
module Chan = Hypertee_ems.Chan
module Invariant = Hypertee_check.Invariant

let prop = QCheck_alcotest.to_alcotest ~speed_level:`Quick
let check = Alcotest.check

let fresh ?faults ?(shards = 2) ~seed () =
  Platform.create ~seed ?faults ~config:{ Config.default with Config.ems_shards = shards } ()

(* Create + EADD + EMEAS: a measured enclave that can answer EATTEST
   (the precondition for accepting channels). *)
let build_enclave ?(fill = 0x41) platform =
  match
    Platform.invoke platform ~caller:Emcall.Os_kernel (Types.Create { config = Types.default_config })
  with
  | Ok (Types.Ok_created { enclave }) ->
    for i = 0 to 2 do
      ignore
        (Platform.invoke platform ~caller:Emcall.Os_kernel
           (Types.Add
              { enclave; vpn = 0x100 + i; data = Bytes.make 64 (Char.chr (fill + i)); executable = false }))
    done;
    ignore (Platform.invoke platform ~caller:Emcall.Os_kernel (Types.Measure { enclave }));
    enclave
  | _ -> Alcotest.fail "build_enclave: create failed"

let clean ?(deep = false) label platform =
  let report = Platform.check ~deep platform in
  if not (Invariant.ok report) then
    Alcotest.failf "%s: %s" label (Invariant.report_to_string report)

(* A loopback record pair with fixed secrets: the transport-agnostic
   layer needs no platform. *)
let record_pair ?rekey_after () =
  let master = Bytes.init 32 (fun i -> Char.chr ((i * 7) land 0xFF)) in
  let th = Bytes.init 32 (fun i -> Char.chr ((i * 13) land 0xFF)) in
  ( Record.create ~role:Record.Client ~master ~transcript:th ?rekey_after (),
    Record.create ~role:Record.Server ~master ~transcript:th ?rekey_after () )

let seal_ok conn payload =
  match Record.seal_message conn payload with
  | Ok segs -> segs
  | Error e -> Alcotest.failf "seal: %s" (Record.error_message e)

let deliver_all conn segs =
  List.concat_map
    (fun seg ->
      match Record.deliver conn seg with
      | Ok evs -> evs
      | Error e -> Alcotest.failf "deliver: %s" (Record.error_message e))
    segs

(* --- record layer: properties ---------------------------------------- *)

(* Any payload — empty, one byte, or far beyond a mailbox frame —
   round-trips through seal/deliver as exactly one Message (§3.5). *)
let prop_record_roundtrip =
  prop
    (QCheck.Test.make ~name:"record round-trip (0 B .. several frames)" ~count:60
       QCheck.(
         oneof
           [
             always 0;
             always Wire.max_plaintext;
             always (Wire.max_plaintext + 1);
             int_bound (5 * Wire.max_plaintext);
           ])
       (fun n ->
         let a, b = record_pair () in
         let payload = Bytes.init n (fun i -> Char.chr ((i * 31 + n) land 0xFF)) in
         let segs = seal_ok a payload in
         List.iter
           (fun seg -> QCheck.assume (Bytes.length seg <= Wire.max_segment))
           segs;
         match deliver_all b segs with
         | [ Record.Message m ] -> Bytes.equal m payload
         | _ -> false))

(* Interleaved bidirectional traffic: both directions keep their own
   sequence spaces. *)
let prop_record_duplex =
  prop
    (QCheck.Test.make ~name:"record duplex traffic is independent per direction" ~count:30
       QCheck.(list_of_size Gen.(int_range 1 12) (tup2 bool (int_bound 600)))
       (fun msgs ->
         let a, b = record_pair () in
         List.for_all
           (fun (a_to_b, n) ->
             let payload = Bytes.make n 'd' in
             let src, dst = if a_to_b then (a, b) else (b, a) in
             match deliver_all dst (seal_ok src payload) with
             | [ Record.Message m ] -> Bytes.equal m payload
             | _ -> false)
           msgs))

(* --- record layer: sequencing and rekeying --------------------------- *)

let test_replay_rejected () =
  let a, b = record_pair () in
  let segs = seal_ok a (Bytes.of_string "once only") in
  let seg = List.hd segs in
  ignore (deliver_all b segs);
  (match Record.deliver b seg with
  | Error (Record.Replay _) -> ()
  | Ok _ -> Alcotest.fail "replayed record accepted"
  | Error e -> Alcotest.failf "replay: wrong rejection %s" (Record.error_message e));
  (* Poisoned for good: even a fresh, legitimate record is refused. *)
  (match Record.deliver b (List.hd (seal_ok a (Bytes.of_string "after"))) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "poisoned connection kept accepting");
  check Alcotest.bool "receiver reports poisoning" true (Record.poisoned b <> None)

let test_reorder_rejected () =
  let a, b = record_pair () in
  let first = seal_ok a (Bytes.of_string "first") in
  let second = seal_ok a (Bytes.of_string "second") in
  check Alcotest.int "single-record messages" 1 (List.length second);
  match Record.deliver b (List.hd second) with
  | Error (Record.Replay { expected; got }) ->
    check Alcotest.bool "sequence gap reported" true (got > expected);
    ignore first
  | Ok _ -> Alcotest.fail "reordered record accepted"
  | Error e -> Alcotest.failf "reorder: wrong rejection %s" (Record.error_message e)

let test_rekey_boundary () =
  let a, b = record_pair ~rekey_after:4 () in
  for i = 1 to 20 do
    let payload = Bytes.make (8 + i) 'r' in
    match deliver_all b (seal_ok a payload) with
    | [ Record.Message m ] ->
      check Alcotest.bool (Printf.sprintf "message %d intact across rekeys" i) true
        (Bytes.equal m payload)
    | _ -> Alcotest.failf "message %d lost" i
  done;
  let st = Record.stats a in
  check Alcotest.bool "writer rekeyed at the 4-record boundary" true (st.Record.rekeys_done >= 4);
  check Alcotest.int "reader followed every generation" (Record.write_generation a)
    (Record.read_generation b);
  (* Tampering with the generation byte after a rekey fails the MAC,
     not the generation check — the header is authenticated (§3.3). *)
  let seg = List.hd (seal_ok a (Bytes.of_string "gen")) in
  Bytes.set seg (Wire.header_len - 1) '\000';
  match Record.deliver b seg with
  | Error Record.Bad_mac -> ()
  | Ok _ -> Alcotest.fail "generation-tampered record accepted"
  | Error e -> Alcotest.failf "wrong rejection %s" (Record.error_message e)

(* --- conformance ------------------------------------------------------ *)

let test_conformance_vectors () =
  let outcomes = Conformance.run () in
  check Alcotest.bool "every vector cites a spec section" true
    (List.for_all (fun o -> String.length o.Conformance.section > 0) outcomes);
  if not (Conformance.all_ok outcomes) then
    Alcotest.failf "conformance:\n%s" (Conformance.render outcomes)

(* --- full platform sessions ------------------------------------------ *)

let test_session_host_to_enclave () =
  let platform = fresh ~seed:0x5EC1L () in
  let listener = build_enclave platform in
  let client, server =
    match Secure_channel.establish platform ~listener ~rekey_after:16 () with
    | Ok p -> p
    | Error m -> Alcotest.failf "establish: %s" m
  in
  for i = 1 to 64 do
    let payload = Bytes.make (1 + (i * 37 mod 2048)) (Char.chr (0x30 + (i mod 64))) in
    (match Secure_channel.send client payload with
    | Ok () -> ()
    | Error m -> Alcotest.failf "send %d: %s" i m);
    match Secure_channel.recv server with
    | Ok [ Record.Message m ] ->
      check Alcotest.bool (Printf.sprintf "message %d intact" i) true (Bytes.equal m payload)
    | Ok _ -> Alcotest.failf "message %d: unexpected events" i
    | Error m -> Alcotest.failf "recv %d: %s" i m
  done;
  check Alcotest.bool "session rekeyed"
    true
    ((Record.stats (Secure_channel.conn client)).Record.rekeys_done > 0);
  (match Secure_channel.close client with Ok () -> () | Error m -> Alcotest.failf "close: %s" m);
  ignore (Secure_channel.recv server);
  ignore (Secure_channel.close server);
  check Alcotest.int "no channel left in the fabric" 0
    (Chan.live (Platform.Internals.chans platform));
  clean ~deep:true "host-to-enclave session" platform

let test_session_enclave_to_enclave () =
  let platform = fresh ~seed:0x5EC2L () in
  let listener = build_enclave ~fill:0x41 platform in
  let initiator = build_enclave ~fill:0x51 platform in
  check Alcotest.bool "endpoints live on different shards" true
    (Platform.shard_of_enclave platform listener <> Platform.shard_of_enclave platform initiator);
  let a, b =
    match Secure_channel.establish platform ~listener ~initiator () with
    | Ok p -> p
    | Error m -> Alcotest.failf "establish: %s" m
  in
  let payload = Bytes.make 3000 'e' in
  (match Secure_channel.send a payload with Ok () -> () | Error m -> Alcotest.failf "send: %s" m);
  (match Secure_channel.recv b with
  | Ok [ Record.Message m ] -> check Alcotest.bool "cross-shard message intact" true (Bytes.equal m payload)
  | _ -> Alcotest.fail "cross-shard message lost");
  ignore (Secure_channel.close a);
  ignore (Secure_channel.close b);
  clean "enclave-to-enclave session" platform

(* --- crash between every handshake flight ----------------------------- *)

(* Mirrors the migration crash matrix: stop the establishment after
   each flight, kill and cold-restart the channel's home shard
   (recovery reaps the channel — channel state is deliberately
   volatile, §2.3), and assert the stranded endpoints fail closed
   while the platform stays consistent and a fresh establishment
   succeeds. *)
let test_crash_at_every_flight () =
  let flights =
    [ "after ClientHello"; "after accept"; "after ServerAttest"; "after ClientFinish" ]
  in
  List.iteri
    (fun stage name ->
      let platform = fresh ~seed:(Int64.of_int (0xC4A5 + stage)) () in
      let listener = build_enclave platform in
      let auth_c = Secure_channel.client_auth platform () in
      let auth_s = Secure_channel.enclave_auth platform ~enclave:listener () in
      let client =
        match Secure_channel.connect platform ~caller:Emcall.User_host ~listener ~auth:auth_c () with
        | Ok ep -> ep
        | Error m -> Alcotest.failf "%s: connect: %s" name m
      in
      let server = ref None in
      let run_to_stage () =
        if stage >= 1 then (
          match
            Secure_channel.accept platform ~enclave:listener
              ~chan:(Secure_channel.endpoint_chan client) ~auth:auth_s ()
          with
          | Ok ep -> server := Some ep
          | Error m -> Alcotest.failf "%s: accept: %s" name m);
        (match !server with
        | Some srv when stage >= 2 -> (
          match Secure_channel.step srv with
          | Ok true -> ()
          | Ok false -> Alcotest.failf "%s: ServerAttest not produced" name
          | Error m -> Alcotest.failf "%s: server step: %s" name m)
        | _ -> ());
        if stage >= 3 then (
          match Secure_channel.step client with
          | Ok true -> check Alcotest.bool "client complete" true (Secure_channel.handshake_complete client)
          | Ok false -> Alcotest.failf "%s: ClientFinish not produced" name
          | Error m -> Alcotest.failf "%s: client step: %s" name m)
      in
      run_to_stage ();
      let home = (Secure_channel.endpoint_chan client - 1) mod 2 in
      Platform.kill_shard platform home;
      let report = Platform.recover_shard platform home in
      check Alcotest.int (name ^ ": replay deterministic") 0 report.Platform.mismatches;
      (* The channel did not survive: every stranded endpoint fails
         closed at the gate, nothing hangs or panics. *)
      (match Secure_channel.step client with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%s: stranded client endpoint still progressing" name);
      (match !server with
      | None -> ()
      | Some srv -> (
        match Secure_channel.step srv with
        | Error _ -> ()
        | Ok true -> Alcotest.failf "%s: stranded server endpoint still progressing" name
        | Ok false -> ()));
      clean (name ^ ": post-recovery") platform;
      (* Establishment over a fresh channel works immediately. *)
      (match Secure_channel.establish platform ~listener () with
      | Ok (c2, s2) ->
        (match Secure_channel.send c2 (Bytes.of_string "recovered") with
        | Ok () -> ()
        | Error m -> Alcotest.failf "%s: post-recovery send: %s" name m);
        (match Secure_channel.recv s2 with
        | Ok [ Record.Message m ] when Bytes.equal m (Bytes.of_string "recovered") -> ()
        | _ -> Alcotest.failf "%s: post-recovery message lost" name);
        ignore (Secure_channel.close c2);
        ignore (Secure_channel.close s2)
      | Error m -> Alcotest.failf "%s: re-establish: %s" name m);
      clean ~deep:true (name ^ ": final") platform)
    flights

(* --- reaping: no orphaned channel keys -------------------------------- *)

let test_destroy_reaps_channels () =
  let platform = fresh ~seed:0xDEADL () in
  let listener = build_enclave platform in
  let client, _server =
    match Secure_channel.establish platform ~listener () with
    | Ok p -> p
    | Error m -> Alcotest.failf "establish: %s" m
  in
  check Alcotest.int "channel live before destroy" 1 (Chan.live (Platform.Internals.chans platform));
  (match Platform.invoke platform ~caller:Emcall.Os_kernel (Types.Destroy { enclave = listener }) with
  | Ok Types.Ok_unit -> ()
  | _ -> Alcotest.fail "destroy failed");
  check Alcotest.int "EDESTROY reaped the enclave's channels" 0
    (Chan.live (Platform.Internals.chans platform));
  (match Secure_channel.send client (Bytes.of_string "late") with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "send on a reaped channel succeeded");
  clean ~deep:true "post-destroy" platform

(* A connect that fails after ECHOPEN succeeded must close the channel
   it minted: the caller gets no endpoint to close it with. Filling
   the fresh channel's queue the moment ECHOPEN returns makes the
   ClientHello flush fail. *)
let test_failed_connect_closes_channel () =
  let platform = fresh ~seed:0xC0EEL () in
  let listener = build_enclave platform in
  let chans = Platform.Internals.chans platform in
  let before = Chan.live chans in
  let emcall = Platform.Internals.emcall platform in
  Emcall.set_tap emcall (fun ~caller:_ ~batched:_ request result ->
      match (request, result) with
      | Types.Chan_open _, Ok (Types.Ok_chan { chan; _ }, _) ->
        for _ = 1 to Chan.queue_cap do
          ignore (Chan.send chans ~chan ~sender:Chan.Host ~seg:(Bytes.make 16 'q'))
        done
      | _ -> ());
  let connected =
    Secure_channel.connect platform ~caller:Emcall.User_host ~listener
      ~auth:(Secure_channel.client_auth platform ()) ()
  in
  Emcall.clear_tap emcall;
  (match connected with
  | Ok _ -> Alcotest.fail "connect succeeded over a full queue"
  | Error _ -> ());
  check Alcotest.int "no channel left behind" before (Chan.live chans);
  clean "failed connect" platform

(* --- a long session under channel fault injection --------------------- *)

(* 1000 messages cross-shard with the channel fault sites armed.
   Every injected corruption/truncation/reorder must surface as an
   explicit record-layer rejection — never as a silently altered
   message — after which the session is re-established and traffic
   continues. The platform's deep sweep stays clean throughout. *)
let test_long_session_under_faults () =
  let faults =
    Fault.plan ~seed:0xFA17L
      [
        { Fault.site = Fault.Chan_corrupt; schedule = Fault.Every_nth 211; intensity = 0.0 };
        { Fault.site = Fault.Chan_truncate; schedule = Fault.Every_nth 347; intensity = 0.0 };
        { Fault.site = Fault.Chan_reorder; schedule = Fault.Every_nth 431; intensity = 0.0 };
      ]
  in
  let platform = fresh ~faults ~seed:0x1000L () in
  let listener = build_enclave platform in
  let establish () =
    match Secure_channel.establish platform ~listener ~rekey_after:64 () with
    | Ok p -> Some p
    | Error _ -> None (* a fault ate a flight; caller retries *)
  in
  let session = ref (establish ()) in
  let delivered = ref 0 in
  let rejected = ref 0 in
  let attempts = ref 0 in
  while !delivered < 1000 && !attempts < 5000 do
    incr attempts;
    match !session with
    | None -> session := establish ()
    | Some (client, server) -> (
      let payload =
        Bytes.init (1 + (!attempts * 53 mod 1500)) (fun i -> Char.chr ((i + !attempts) land 0xFF))
      in
      match Secure_channel.send client payload with
      | Error _ ->
        incr rejected;
        ignore (Secure_channel.close client);
        ignore (Secure_channel.close server);
        session := establish ()
      | Ok () -> (
        match Secure_channel.recv server with
        | Ok [ Record.Message m ] ->
          if not (Bytes.equal m payload) then
            Alcotest.failf "SILENT CORRUPTION at message %d" !delivered;
          incr delivered
        | Ok [] | Ok _ ->
          (* A reorder can delay the segment; drain on the next turn.
             Anything else surfaces as an error below. *)
          incr rejected;
          ignore (Secure_channel.close client);
          ignore (Secure_channel.close server);
          session := establish ()
        | Error _ ->
          incr rejected;
          ignore (Secure_channel.close client);
          ignore (Secure_channel.close server);
          session := establish ()))
  done;
  check Alcotest.int "1000 messages delivered byte-exact under faults" 1000 !delivered;
  check Alcotest.bool "fault injection actually fired" true (!rejected > 0);
  (match !session with
  | Some (c, s) ->
    ignore (Secure_channel.close c);
    ignore (Secure_channel.close s)
  | None -> ());
  clean ~deep:true "long session under faults" platform

let suite =
  [
    ( "channel",
      [
        prop_record_roundtrip;
        prop_record_duplex;
        Alcotest.test_case "replay is rejected and poisons" `Quick test_replay_rejected;
        Alcotest.test_case "reorder is rejected" `Quick test_reorder_rejected;
        Alcotest.test_case "rekey boundary discipline" `Quick test_rekey_boundary;
        Alcotest.test_case "conformance vectors (PROTOCOL.md §7)" `Quick test_conformance_vectors;
        Alcotest.test_case "host-to-enclave session end to end" `Quick test_session_host_to_enclave;
        Alcotest.test_case "enclave-to-enclave session cross-shard" `Quick
          test_session_enclave_to_enclave;
        Alcotest.test_case "crash between every handshake flight" `Quick test_crash_at_every_flight;
        Alcotest.test_case "EDESTROY reaps live channels" `Quick test_destroy_reaps_channels;
        Alcotest.test_case "1000 records under channel faults, none silent" `Slow
          test_long_session_under_faults;
        Alcotest.test_case "failed connect closes the channel it opened" `Quick
          test_failed_connect_closes_channel;
      ] );
  ]
