(* The three session shapes, issued call by call through {!Probe}.
   Each returns [Error reason] on the first failed output check or
   unexpected response; the caller tears down whatever the session
   left behind. *)

module Platform = Hypertee.Platform
module Session = Hypertee.Session
module Types = Hypertee_ems.Types
module Emcall = Hypertee_cs.Emcall
module Handshake = Hypertee_channel.Handshake
module Record = Hypertee_channel.Record
module Xrng = Hypertee_util.Xrng

let ( let* ) = Result.bind

type ctx = {
  probe : Probe.t;
  catalog : Gen.entry array;
  pool : bytes;  (** payload pool *)
  mutable enclave : Types.enclave_id option;  (** live enclave to tear down on failure *)
  mutable quotes_verified : int;
  mutable warm_hits : int;
  mutable warm_misses : int;
  mutable handshakes : int;  (** in the modelled window *)
  mutable handshake_modelled_ns : float;  (** in the modelled window *)
  mutable record_bytes : int;  (** application bytes sealed *)
  (* interned span names *)
  n_write : int;
  n_read : int;
  n_hs_create : int;
  n_hs_start : int;
  n_hs_segment : int;
  n_verify : int;
  n_seal : int;
  n_open : int;
  n_close : int;
  n_wipe : int;
}

let make_ctx probe ~catalog ~pool =
  let i = Spans.intern probe.Probe.spans in
  {
    probe;
    catalog;
    pool;
    enclave = None;
    quotes_verified = 0;
    warm_hits = 0;
    warm_misses = 0;
    handshakes = 0;
    handshake_modelled_ns = 0.0;
    record_bytes = 0;
    n_write = i "core.session.write";
    n_read = i "core.session.read";
    n_hs_create = i "channel.handshake.create";
    n_hs_start = i "channel.handshake.start";
    n_hs_segment = i "channel.handshake.on_segment";
    n_verify = i "core.verifier.verify_quote";
    n_seal = i "channel.record.seal";
    n_open = i "channel.record.open";
    n_close = i "channel.record.close";
    n_wipe = i "channel.record.wipe";
  }

let layer c = Probe.layer c.probe
let unexpected what = Error (what ^ ": unexpected response")

let call c ~caller request = Probe.emcall c.probe ~caller request

let expect_unit c what ~caller request =
  let* r = call c ~caller request in
  match r with
  | Types.Ok_unit -> Ok ()
  | Types.Err e -> Error (what ^ ": " ^ Types.error_message e)
  | _ -> unexpected what

let rec iter_result f = function
  | [] -> Ok ()
  | x :: rest ->
    let* () = f x in
    iter_result f rest

(* The SDK's un-attested cold launch: ECREATE, EADD per page, EMEAS,
   checked against the compile-time measurement. *)
let cold_launch c (entry : Gen.entry) =
  let* r = call c ~caller:Emcall.Os_kernel (Types.Create { config = entry.image.Hypertee.Sdk.config }) in
  match r with
  | Types.Ok_created { enclave } ->
    c.enclave <- Some enclave;
    let* () =
      iter_result
        (fun (vpn, data, executable) ->
          expect_unit c "EADD" ~caller:Emcall.Os_kernel (Types.Add { enclave; vpn; data; executable }))
        entry.plan
    in
    let* m = call c ~caller:Emcall.Os_kernel (Types.Measure { enclave }) in
    (match m with
    | Types.Ok_measure { measurement } when Bytes.equal measurement entry.measurement -> Ok enclave
    | Types.Ok_measure _ -> Error "EMEAS differs from Sdk.expected_measurement"
    | _ -> unexpected "EMEAS")
  | Types.Err e -> Error ("ECREATE: " ^ Types.error_message e)
  | _ -> unexpected "ECREATE"

(* [Sdk.warm_launch] semantics: EWARM, and the cold launch on a miss. *)
let warm_launch c (entry : Gen.entry) =
  let* r = call c ~caller:Emcall.Os_kernel (Types.Warm_create { measurement = entry.measurement }) in
  match r with
  | Types.Ok_created { enclave } ->
    c.warm_hits <- c.warm_hits + 1;
    c.enclave <- Some enclave;
    Ok enclave
  | Types.Err (Types.Bad_state _) ->
    c.warm_misses <- c.warm_misses + 1;
    cold_launch c entry
  | Types.Err e -> Error ("EWARM: " ^ Types.error_message e)
  | _ -> unexpected "EWARM"

let open_channel c id =
  let* r = call c ~caller:Emcall.User_host (Types.Chan_open { listener = id }) in
  match r with
  | Types.Ok_chan { chan; binding } -> (
    let* r = call c ~caller:(Emcall.User_enclave id) (Types.Chan_accept { enclave = id; chan }) in
    match r with
    | Types.Ok_chan { binding = b; _ } when Bytes.equal b binding -> Ok (chan, binding)
    | Types.Ok_chan _ -> Error "ECHACC binding differs from ECHOPEN's"
    | _ -> unexpected "ECHACC")
  | _ -> unexpected "ECHOPEN"

let send c ~caller chan seg = expect_unit c "ECHSEND" ~caller (Types.Chan_send { chan; seg })

(* Dequeue the next segment for [caller]; [None] when the queue is empty. *)
let recv c ~caller chan =
  let* r = call c ~caller (Types.Chan_recv { chan }) in
  match r with Types.Ok_seg { seg } -> Ok seg | _ -> unexpected "ECHRECV"

let retire c id =
  let* () = expect_unit c "ERETIRE" ~caller:Emcall.Os_kernel (Types.Retire { enclave = id }) in
  c.enclave <- None;
  Ok ()

(* --- cold-launch ------------------------------------------------------ *)

let cold c (s : Gen.session) ~heap_bytes =
  let entry = c.catalog.(s.Gen.image) in
  let rng = Xrng.create s.Gen.seed in
  let* id = cold_launch c entry in
  let* r = call c ~caller:Emcall.Os_kernel (Types.Enter { enclave = id }) in
  let* () = match r with Types.Ok_entered _ -> Ok () | _ -> unexpected "EENTER" in
  (* EENTER went through [invoke_timed] so the modelled clock sees it;
     the session handle is then built the way [Sdk.enter] builds it. *)
  let runtime = Platform.Internals.runtime_of_shard c.probe.Probe.platform (Platform.shard_of_enclave c.probe.Probe.platform id) in
  let* enclave =
    Option.to_result ~none:"enclave vanished after EENTER" (Hypertee_ems.Runtime.find_enclave runtime id)
  in
  let session = Session.make c.probe.Probe.platform ~enclave in
  let va = Session.heap_va session in
  let data = Gen.payload c.pool rng heap_bytes in
  layer c c.n_write ~arg:heap_bytes (fun () -> Session.write session ~va data);
  let back = layer c c.n_read ~arg:heap_bytes (fun () -> Session.read session ~va ~len:heap_bytes) in
  let* () = if Bytes.equal back data then Ok () else Error "heap read-back differs from the write" in
  let* () = expect_unit c "EEXIT" ~caller:(Emcall.User_enclave id) (Types.Exit { enclave = id }) in
  let* () = expect_unit c "EDESTROY" ~caller:Emcall.Os_kernel (Types.Destroy { enclave = id }) in
  c.enclave <- None;
  Ok ()

(* --- warm-stream ------------------------------------------------------ *)

let stream c (s : Gen.session) ~up ~down =
  let entry = c.catalog.(s.Gen.image) in
  let rng = Xrng.create s.Gen.seed in
  let* id = warm_launch c entry in
  let* chan, _binding = open_channel c id in
  let host = Emcall.User_host and enclave = Emcall.User_enclave id in
  let transfer ~src ~dst len =
    let seg = Gen.payload c.pool rng len in
    let* () = send c ~caller:src chan seg in
    let* got = recv c ~caller:dst chan in
    match got with
    | Some g when Bytes.equal g seg -> Ok ()
    | Some _ -> Error "segment arrived altered or out of order"
    | None -> Error "segment lost"
  in
  let rec rounds i =
    if i = Array.length up then Ok ()
    else
      let* () = transfer ~src:host ~dst:enclave up.(i) in
      let* () = transfer ~src:enclave ~dst:host down.(i) in
      rounds (i + 1)
  in
  let* () = rounds 0 in
  let* () = expect_unit c "ECHCLOSE" ~caller:host (Types.Chan_close { chan }) in
  retire c id

(* --- attested-channel ------------------------------------------------- *)

(* Handshake plumbing: EATTEST through the benchmark's own timed gate
   call, and the client's quote check from [Secure_channel.client_auth]
   wrapped so it is timed as its own span. *)
let auths c ~id (entry : Gen.entry) =
  let client = Hypertee.Secure_channel.client_auth c.probe.Probe.platform ~expected_measurement:entry.measurement () in
  let verify_quote ~quote ~user_data =
    c.quotes_verified <- c.quotes_verified + 1;
    layer c c.n_verify (fun () -> client.Handshake.verify_quote ~quote ~user_data)
  in
  let make_quote ~user_data =
    match call c ~caller:(Emcall.User_enclave id) (Types.Attest { enclave = id; user_data }) with
    | Ok (Types.Ok_attest { quote }) -> Ok quote
    | Ok (Types.Err e) -> Error ("EATTEST: " ^ Types.error_message e)
    | Ok _ -> Error "EATTEST: unexpected response"
    | Error e -> Error e
  in
  ( { client with Handshake.verify_quote },
    { Handshake.make_quote = Some make_quote; verify_quote; require_peer_quote = false } )

let rec send_all c ~caller chan = function
  | [] -> Ok ()
  | seg :: rest ->
    let* () = send c ~caller chan seg in
    send_all c ~caller chan rest

(* Feed every segment queued for [caller] to [f], in order. *)
let rec drain c ~caller chan f =
  let* got = recv c ~caller chan in
  match got with
  | None -> Ok ()
  | Some seg ->
    let* () = f seg in
    drain c ~caller chan f

let handshake c ~chan ~binding ~id ~rng entry =
  let client_auth, server_auth = auths c ~id entry in
  let create role auth = layer c c.n_hs_create (fun () -> Handshake.create ~role ~rng:(Xrng.split rng) ~binding ~auth ()) in
  let client = create Handshake.Initiator client_auth in
  let server = create Handshake.Responder server_auth in
  let host = Emcall.User_host and enclave = Emcall.User_enclave id in
  let start hs caller =
    let* out = layer c c.n_hs_start (fun () -> Handshake.start hs) in
    send_all c ~caller chan out
  in
  let step hs caller =
    drain c ~caller chan (fun seg ->
        let* out = layer c c.n_hs_segment ~arg:(Bytes.length seg) (fun () -> Handshake.on_segment hs seg) in
        send_all c ~caller chan out)
  in
  let* () = start client host in
  let* () = start server enclave in
  let rec flights fuel =
    if Handshake.complete client && Handshake.complete server then Ok ()
    else if fuel = 0 then Error "handshake did not complete"
    else
      let* () = step server enclave in
      let* () = step client host in
      flights (fuel - 1)
  in
  let* () = flights 4 in
  match (Handshake.conn client, Handshake.conn server) with
  | Some cc, Some sc -> Ok (cc, sc)
  | _ -> Error "handshake produced no record connection"

(* Seal [payload] on [src], carry its segments, open them on [dst]:
   exactly the one message must come out. *)
let message c ~chan ~src:(src_conn, src) ~dst:(dst_conn, dst) payload =
  let len = Bytes.length payload in
  c.record_bytes <- c.record_bytes + len;
  let* segs =
    Result.map_error Record.error_message (layer c c.n_seal ~arg:len (fun () -> Record.seal_message src_conn payload))
  in
  let* () = send_all c ~caller:src chan segs in
  let events = ref [] in
  let* () =
    drain c ~caller:dst chan (fun seg ->
        match layer c c.n_open ~arg:(Bytes.length seg) (fun () -> Record.deliver dst_conn seg) with
        | Ok evs ->
          events := List.rev_append evs !events;
          Ok ()
        | Error e -> Error ("record: " ^ Record.error_message e))
  in
  match !events with
  | [ Record.Message m ] when Bytes.equal m payload -> Ok ()
  | _ -> Error "AEAD message arrived altered, split or out of order"

let attested c (s : Gen.session) ~up ~down =
  let entry = c.catalog.(s.Gen.image) in
  let rng = Xrng.create s.Gen.seed in
  let* id = warm_launch c entry in
  let* chan, binding = open_channel c id in
  let quotes_before = c.quotes_verified and modelled_before = c.probe.Probe.modelled_ns in
  let* cc, sc = handshake c ~chan ~binding ~id ~rng entry in
  if c.probe.Probe.in_window then begin
    c.handshakes <- c.handshakes + 1;
    c.handshake_modelled_ns <- c.handshake_modelled_ns +. (c.probe.Probe.modelled_ns -. modelled_before)
  end;
  let* () =
    if c.quotes_verified = quotes_before + 1 then Ok () else Error "client did not verify exactly one quote"
  in
  let client = (cc, Emcall.User_host) and server = (sc, Emcall.User_enclave id) in
  let rec exchange i =
    if i = Array.length up then Ok ()
    else
      let* () = message c ~chan ~src:client ~dst:server (Gen.payload c.pool rng up.(i)) in
      let* () = message c ~chan ~src:server ~dst:client (Gen.payload c.pool rng down.(i)) in
      exchange (i + 1)
  in
  let* () = exchange 0 in
  let* () = send_all c ~caller:Emcall.User_host chan (layer c c.n_close (fun () -> Record.close cc)) in
  let closed = ref false in
  let* () =
    drain c ~caller:(Emcall.User_enclave id) chan (fun seg ->
        match layer c c.n_open ~arg:(Bytes.length seg) (fun () -> Record.deliver sc seg) with
        | Ok [ Record.Peer_closed ] ->
          closed := true;
          Ok ()
        | Ok _ -> Error "close_notify carried unexpected events"
        | Error e -> Error ("record: " ^ Record.error_message e))
  in
  let* () = if !closed then Ok () else Error "close_notify lost" in
  let* () = expect_unit c "ECHCLOSE" ~caller:Emcall.User_host (Types.Chan_close { chan }) in
  layer c c.n_wipe (fun () ->
      Record.wipe cc;
      Record.wipe sc);
  retire c id

(* Run one session; on failure, destroy its enclave so the next session
   starts from a clean platform. *)
let run c (s : Gen.session) =
  c.enclave <- None;
  let result =
    match s.Gen.shape with
    | Gen.Launch { heap_bytes } -> ( try cold c s ~heap_bytes with Failure m -> Error m)
    | Gen.Stream { up; down } -> stream c s ~up ~down
    | Gen.Attested { up; down } -> attested c s ~up ~down
  in
  (match (result, c.enclave) with
  | Error _, Some id ->
    ignore (Platform.invoke c.probe.Probe.platform ~caller:Emcall.Os_kernel (Types.Destroy { enclave = id }))
  | _ -> ());
  result
