(* Attested secure channels over the EMCall gate: the glue between
   the transport-agnostic record/handshake layer (Hypertee_channel)
   and this platform's primitives. The EMS mints the channel and the
   binding secret (ECHOPEN/ECHACC) and relays opaque segments
   (ECHSEND/ECHRECV); quotes come from EATTEST; verification runs
   against the platform's published EK/AK. See docs/PROTOCOL.md. *)

module Types = Hypertee_ems.Types
module Attest = Hypertee_ems.Attest
module Emcall = Hypertee_cs.Emcall
module Record = Hypertee_channel.Record
module Handshake = Hypertee_channel.Handshake

let gate platform ~caller request =
  match Platform.invoke platform ~caller request with
  | Ok (Types.Err e) -> Error ("gate: " ^ Types.error_message e)
  | Ok resp -> Ok resp
  | Error Emcall.Cross_privilege -> Error "gate: cross-privilege"
  | Error Emcall.Mailbox_full -> Error "gate: mailbox full"
  | Error (Emcall.Timeout | Emcall.Busy) -> Error "gate: timeout or busy"

let ( let* ) = Result.bind

(* --- attestation plumbing ------------------------------------------ *)

let verify_quote platform ?expected_measurement () ~quote ~user_data =
  Attest.verify_quote ~ek:(Platform.ek_public platform) ~ak:(Platform.ak_public platform)
    ~platform_measurement:(Platform.platform_measurement platform)
    ?enclave_measurement:expected_measurement ~user_data quote

let enclave_quoter platform ~enclave ~user_data =
  let* resp =
    gate platform ~caller:(Emcall.User_enclave enclave) (Types.Attest { enclave; user_data })
  in
  match resp with
  | Types.Ok_attest { quote } -> Ok quote
  | _ -> Error "EATTEST returned an unexpected response"

let enclave_auth platform ~enclave ?expected_measurement ?(require_peer_quote = false) () =
  {
    Handshake.make_quote = Some (fun ~user_data -> enclave_quoter platform ~enclave ~user_data);
    verify_quote = (fun ~quote ~user_data -> verify_quote platform ?expected_measurement () ~quote ~user_data);
    require_peer_quote;
  }

let client_auth platform ?expected_measurement () =
  {
    Handshake.make_quote = None;
    verify_quote = (fun ~quote ~user_data -> verify_quote platform ?expected_measurement () ~quote ~user_data);
    require_peer_quote = false;
  }

(* --- endpoints ------------------------------------------------------ *)

type endpoint = {
  platform : Platform.t;
  caller : Emcall.caller;
  chan : int;
  hs : Handshake.t;
}

let send_seg ep seg =
  let* resp = gate ep.platform ~caller:ep.caller (Types.Chan_send { chan = ep.chan; seg }) in
  match resp with Types.Ok_unit -> Ok () | _ -> Error "ECHSEND returned an unexpected response"

let recv_seg ep =
  let* resp = gate ep.platform ~caller:ep.caller (Types.Chan_recv { chan = ep.chan }) in
  match resp with
  | Types.Ok_seg { seg } -> Ok seg
  | _ -> Error "ECHRECV returned an unexpected response"

let flush ep segs = List.fold_left (fun acc seg -> Result.bind acc (fun () -> send_seg ep seg)) (Ok ()) segs

(* ECHCLOSE is single-sided: whichever endpoint closes first removes
   the fabric entry, so the peer's own close (and its close_notify
   flush) legitimately finds no channel. That race is not an error. *)
let tolerant platform ~caller request =
  match Platform.invoke platform ~caller request with
  | Ok (Types.Err Types.No_such_channel) -> Ok ()
  | Ok (Types.Err e) -> Error ("gate: " ^ Types.error_message e)
  | Ok _ -> Ok ()
  | Error Emcall.Cross_privilege -> Error "gate: cross-privilege"
  | Error Emcall.Mailbox_full -> Error "gate: mailbox full"
  | Error (Emcall.Timeout | Emcall.Busy) -> Error "gate: timeout or busy"

let connect platform ~caller ~listener ~auth ?rekey_after () =
  let* resp = gate platform ~caller (Types.Chan_open { listener }) in
  match resp with
  | Types.Ok_chan { chan; binding } -> (
    let hs =
      Handshake.create ~role:Handshake.Initiator
        ~rng:(Hypertee_util.Xrng.split (Platform.rng platform))
        ~binding ~auth ?rekey_after ()
    in
    let ep = { platform; caller; chan; hs } in
    match Result.bind (Handshake.start hs) (flush ep) with
    | Ok () -> Ok ep
    | Error _ as err ->
      (* No endpoint is handed back, so nobody else could close the
         channel ECHOPEN minted. *)
      ignore (tolerant platform ~caller (Types.Chan_close { chan }));
      err)
  | _ -> Error "ECHOPEN returned an unexpected response"

let accept platform ~enclave ~chan ~auth ?rekey_after () =
  let caller = Emcall.User_enclave enclave in
  let* resp = gate platform ~caller (Types.Chan_accept { enclave; chan }) in
  match resp with
  | Types.Ok_chan { binding; _ } ->
    let hs =
      Handshake.create ~role:Handshake.Responder
        ~rng:(Hypertee_util.Xrng.split (Platform.rng platform))
        ~binding ~auth ?rekey_after ()
    in
    let* segs = Handshake.start hs in
    let ep = { platform; caller; chan; hs } in
    let* () = flush ep segs in
    Ok ep
  | _ -> Error "ECHACC returned an unexpected response"

(* Drain every queued segment once, feeding each to the handshake
   machine and transmitting its responses. *)
let step ep =
  let progressed = ref false in
  let rec drain () =
    let* got = recv_seg ep in
    match got with
    | None -> Ok !progressed
    | Some seg ->
      progressed := true;
      let* out = Handshake.on_segment ep.hs seg in
      let* () = flush ep out in
      drain ()
  in
  drain ()

let handshake_complete ep = Handshake.complete ep.hs
let endpoint_chan ep = ep.chan

(* Alternate the two machines until both complete. Either machine
   failing — or a full stop with neither complete, e.g. a segment
   eaten by fault injection — is terminal (the layer never retries;
   callers re-establish, §6). *)
let run_handshake a b =
  let rec loop fuel =
    if fuel = 0 then Error "handshake did not converge"
    else if handshake_complete a && handshake_complete b then Ok ()
    else
      let* pa = step a in
      let* pb = step b in
      if (not pa) && not pb && not (handshake_complete a && handshake_complete b) then
        Error "handshake stalled"
      else loop (fuel - 1)
  in
  loop 16

(* --- established sessions ------------------------------------------ *)

type session = {
  s_platform : Platform.t;
  s_caller : Emcall.caller;
  s_chan : int;
  s_conn : Record.t;
}

let session_of_endpoint ep =
  match Handshake.conn ep.hs with
  | Some conn ->
    Ok { s_platform = ep.platform; s_caller = ep.caller; s_chan = ep.chan; s_conn = conn }
  | None -> (
    match Handshake.failed ep.hs with
    | Some reason -> Error ("handshake failed: " ^ reason)
    | None -> Error "handshake not complete")

let conn s = s.s_conn
let chan s = s.s_chan

let flush_session s segs =
  List.fold_left
    (fun acc seg ->
      Result.bind acc (fun () ->
          let* resp =
            gate s.s_platform ~caller:s.s_caller (Types.Chan_send { chan = s.s_chan; seg })
          in
          match resp with
          | Types.Ok_unit -> Ok ()
          | _ -> Error "ECHSEND returned an unexpected response"))
    (Ok ()) segs

let record_err e = Error ("record: " ^ Record.error_message e)

let send s payload =
  match Record.seal_message s.s_conn payload with
  | Error e -> record_err e
  | Ok segs -> flush_session s segs

(* Drain the queue through the record layer; every event the drained
   segments completed, in order. *)
let recv s =
  let rec drain acc =
    let* resp = gate s.s_platform ~caller:s.s_caller (Types.Chan_recv { chan = s.s_chan }) in
    match resp with
    | Types.Ok_seg { seg = None } -> Ok (List.rev acc)
    | Types.Ok_seg { seg = Some seg } -> (
      match Record.deliver s.s_conn seg with
      | Error e -> record_err e
      | Ok events -> drain (List.rev_append events acc))
    | _ -> Error "ECHRECV returned an unexpected response"
  in
  drain []

let close s =
  let tolerant = tolerant s.s_platform ~caller:s.s_caller in
  let alert = Record.close s.s_conn in
  let* () =
    List.fold_left
      (fun acc seg ->
        Result.bind acc (fun () -> tolerant (Types.Chan_send { chan = s.s_chan; seg })))
      (Ok ()) alert
  in
  let* () = tolerant (Types.Chan_close { chan = s.s_chan }) in
  Record.wipe s.s_conn;
  Ok ()

(* --- one-call establishment ---------------------------------------- *)

let establish platform ~listener ?initiator ?expected_measurement ?rekey_after () =
  let caller, client_side =
    match initiator with
    | None -> (Emcall.User_host, client_auth platform ?expected_measurement ())
    | Some e ->
      ( Emcall.User_enclave e,
        enclave_auth platform ~enclave:e ?expected_measurement () )
  in
  let server_side =
    enclave_auth platform ~enclave:listener
      ~require_peer_quote:(Option.is_some initiator) ()
  in
  let* client = connect platform ~caller ~listener ~auth:client_side ?rekey_after () in
  let established =
    let* server =
      accept platform ~enclave:listener ~chan:client.chan ~auth:server_side ?rekey_after ()
    in
    let* () = run_handshake client server in
    let* cs = session_of_endpoint client in
    let* ss = session_of_endpoint server in
    Ok (cs, ss)
  in
  (* A refused session must not leave its channel, and the channel's
     live binding, in the fabric until the listener is destroyed. *)
  if Result.is_error established then
    ignore
      (tolerant platform ~caller (Types.Chan_close { chan = client.chan }) : (unit, string) result);
  established
