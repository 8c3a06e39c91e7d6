(* SIGMA-bound handshake state machine (docs/PROTOCOL.md §5): three
   flights — ClientHello, ServerAttest, ClientFinish — that run the
   platform's SIGMA attestation flow as session establishment and
   hand over an established Record connection. Flight-structured in
   the mitls-fstar style: the driver feeds whole received segments in
   and transmits whatever comes back; the machine never blocks. *)

open Hypertee_crypto
module Bx = Hypertee_util.Bytes_ext
module Trace = Hypertee_obs.Trace

type role = Initiator | Responder

type auth = {
  make_quote : (user_data:bytes -> (bytes, string) result) option;
  verify_quote : quote:bytes -> user_data:bytes -> (unit, string) result;
  require_peer_quote : bool;
}

type phase = I_wait_attest | R_wait_hello | R_wait_finish | Done | Failed of string

type t = {
  role : role;
  auth : auth;
  binding : bytes;
  rekey_after : int option;
  sigma : Sigma.session;
  my_random : bytes;
  transcript : Buffer.t;
  mutable peer_random : bytes;
  mutable peer_public : Bignum.t option;
  mutable mac_key : bytes;
  mutable session_key : bytes;
  mutable phase : phase;
  mutable conn : Record.t option;
  mutable started : bool;
}

let create ~role ~rng ~binding ~auth ?rekey_after () =
  if Bytes.length binding <> Wire.binding_len then
    invalid_arg "Handshake.create: binding must be 16 bytes";
  (match role with
  | Responder when auth.make_quote = None ->
    invalid_arg "Handshake.create: a responder must be able to produce a quote"
  | _ -> ());
  let sigma_role = match role with Initiator -> Sigma.Initiator | Responder -> Sigma.Responder in
  {
    role;
    auth;
    binding = Bytes.copy binding;
    rekey_after;
    sigma = Sigma.start rng sigma_role;
    my_random = Hypertee_util.Xrng.bytes rng Wire.random_len;
    transcript = Buffer.create 512;
    peer_random = Bytes.empty;
    peer_public = None;
    mac_key = Bytes.empty;
    session_key = Bytes.empty;
    phase = (match role with Initiator -> I_wait_attest | Responder -> R_wait_hello);
    conn = None;
    started = false;
  }

let fail t reason =
  t.phase <- Failed reason;
  Bx.fill_zero t.mac_key;
  Bx.fill_zero t.session_key;
  Error reason

let conn t = t.conn
let failed t = match t.phase with Failed r -> Some r | _ -> None
let role t = t.role
let complete t = t.phase = Done

(* §5.3 quote binding: the attestation user_data commits to the EMS
   channel binding, both randoms and both DH shares, so a quote can
   never be cut-and-pasted into another session or channel. *)
let quote_user_data t ~role_byte =
  let my_pub = Bignum.to_bytes_be ~len:Wire.dh_len (Sigma.public_of t.sigma) in
  let peer_pub =
    match t.peer_public with
    | Some p -> Bignum.to_bytes_be ~len:Wire.dh_len p
    | None -> Bytes.make Wire.dh_len '\000'
  in
  let init_pub, resp_pub =
    match t.role with Initiator -> (my_pub, peer_pub) | Responder -> (peer_pub, my_pub)
  in
  let init_random, resp_random =
    match t.role with
    | Initiator -> (t.my_random, t.peer_random)
    | Responder -> (t.peer_random, t.my_random)
  in
  Sha256.digest
    (Bytes.concat Bytes.empty
       [
         Bytes.of_string (Kdf.protocol_tag ^ "quote");
         Bytes.make 1 role_byte;
         t.binding;
         init_random;
         resp_random;
         init_pub;
         resp_pub;
       ])

(* Transcript hash over every complete handshake message so far plus
   [extra] (a message prefix when computing an in-flight MAC). *)
let transcript_hash t ~extra ~extra_len =
  let ctx = Sha256.init () in
  Sha256.update ctx (Buffer.to_bytes t.transcript);
  Sha256.update_sub ctx extra ~off:0 ~len:extra_len;
  Sha256.finalize ctx

let sigma_payload label th =
  let l = String.length label in
  let b = Bytes.create (l + Bytes.length th) in
  Bytes.blit_string label 0 b 0 l;
  Bytes.blit th 0 b l (Bytes.length th);
  b

let sigma_transcript t ~label ~th =
  match t.peer_public with
  | None -> invalid_arg "sigma_transcript before peer public"
  | Some peer ->
    let my = Sigma.public_of t.sigma in
    let init_pub, resp_pub = match t.role with Initiator -> (my, peer) | Responder -> (peer, my) in
    Sigma.transcript ~initiator_pub:init_pub ~responder_pub:resp_pub
      ~payload:(sigma_payload label th)

let derive_sigma_keys t ~peer_public =
  match Sigma.derive_keys t.sigma ~peer_public with
  | exception Invalid_argument _ -> Error "degenerate peer DH value"
  | sk, mk ->
    t.session_key <- sk;
    t.mac_key <- mk;
    t.peer_public <- Some peer_public;
    Ok ()

(* §4.2: master secret and the established record connection, from
   the SIGMA session key, the EMS channel binding and the hash of the
   full three-flight transcript. *)
let establish t =
  let th = transcript_hash t ~extra:Bytes.empty ~extra_len:0 in
  let context = Bytes.cat t.binding th in
  let master = Kdf.expand_label ~secret:t.session_key ~label:"master" ~context 32 in
  let record_role = match t.role with Initiator -> Record.Client | Responder -> Record.Server in
  let conn =
    match t.rekey_after with
    | Some n -> Record.create ~role:record_role ~master ~transcript:th ~rekey_after:n ()
    | None -> Record.create ~role:record_role ~master ~transcript:th ()
  in
  Bx.fill_zero master;
  t.conn <- Some conn;
  t.phase <- Done

let client_hello t =
  let body = Bytes.cat t.my_random (Bignum.to_bytes_be ~len:Wire.dh_len (Sigma.public_of t.sigma)) in
  let msg = Wire.put_hs ~msg_type:Wire.hs_client_hello body in
  Buffer.add_bytes t.transcript msg;
  msg

let start t =
  match t.phase with
  | Failed r -> Error r
  | _ when t.started -> Error "handshake already started"
  | _ ->
    t.started <- true;
    (match t.role with
    | Initiator ->
      if Trace.enabled () then
        Trace.instant ~cat:Trace.Channel ~name:"chan:hs:client-hello" ();
      Ok [ client_hello t ]
    | Responder -> Ok [])

(* Build a message whose final [Wire.mac_len] bytes are a SIGMA MAC
   over the transcript-so-far plus the message's own prefix. *)
let finish_with_mac t ~msg_type ~label body_prefix =
  let body = Bytes.cat body_prefix (Bytes.make Wire.mac_len '\000') in
  let msg = Wire.put_hs ~msg_type body in
  let prefix_len = Bytes.length msg - Wire.mac_len in
  let th = transcript_hash t ~extra:msg ~extra_len:prefix_len in
  let mac = Sigma.authenticate ~mac_key:t.mac_key (sigma_transcript t ~label ~th) in
  Bytes.blit mac 0 msg prefix_len Wire.mac_len;
  Buffer.add_bytes t.transcript msg;
  msg

let check_mac t ~label msg =
  let n = Bytes.length msg in
  let prefix_len = n - Wire.mac_len in
  let th = transcript_hash t ~extra:msg ~extra_len:prefix_len in
  let tag = Bytes.sub msg prefix_len Wire.mac_len in
  Sigma.check ~mac_key:t.mac_key ~transcript:(sigma_transcript t ~label ~th) ~tag

(* --- Responder: ClientHello in, ServerAttest out (§5.2). --- *)
let on_client_hello t msg body =
  if Bytes.length body <> Wire.random_len + Wire.dh_len then fail t "malformed ClientHello"
  else begin
    t.peer_random <- Bytes.sub body 0 Wire.random_len;
    let peer_public = Bignum.of_bytes_be (Bytes.sub body Wire.random_len Wire.dh_len) in
    if not (Dh.valid_public peer_public) then fail t "invalid initiator DH value"
    else
      match derive_sigma_keys t ~peer_public with
      | Error e -> fail t e
      | Ok () -> (
        Buffer.add_bytes t.transcript msg;
        let ud = quote_user_data t ~role_byte:'R' in
        let quote_fn = Option.get t.auth.make_quote in
        match quote_fn ~user_data:ud with
        | Error e -> fail t ("responder quote failed: " ^ e)
        | Ok quote ->
          let qlen = Bytes.length quote in
          let prefix =
            Bytes.concat Bytes.empty
              [
                t.my_random;
                Bignum.to_bytes_be ~len:Wire.dh_len (Sigma.public_of t.sigma);
                (let b = Bytes.create 2 in
                 Bytes.set_uint16_be b 0 qlen;
                 b);
                quote;
              ]
          in
          let sa = finish_with_mac t ~msg_type:Wire.hs_server_attest ~label:"resp" prefix in
          t.phase <- R_wait_finish;
          if Trace.enabled () then
            Trace.instant ~cat:Trace.Channel ~name:"chan:hs:server-attest" ();
          Ok [ sa ])
  end

(* --- Initiator: ServerAttest in, ClientFinish out (§5.2). --- *)
let on_server_attest t msg body =
  let fixed = Wire.random_len + Wire.dh_len + 2 in
  if Bytes.length body < fixed + Wire.mac_len then fail t "truncated ServerAttest"
  else begin
    t.peer_random <- Bytes.sub body 0 Wire.random_len;
    let peer_public = Bignum.of_bytes_be (Bytes.sub body Wire.random_len Wire.dh_len) in
    let qlen = Bytes.get_uint16_be body (Wire.random_len + Wire.dh_len) in
    if Bytes.length body <> fixed + qlen + Wire.mac_len then fail t "truncated ServerAttest"
    else if not (Dh.valid_public peer_public) then fail t "invalid responder DH value"
    else
      match derive_sigma_keys t ~peer_public with
      | Error e -> fail t e
      | Ok () ->
        if not (check_mac t ~label:"resp" msg) then fail t "ServerAttest MAC check failed"
        else begin
          let quote = Bytes.sub body fixed qlen in
          let ud = quote_user_data t ~role_byte:'R' in
          match t.auth.verify_quote ~quote ~user_data:ud with
          | Error e -> fail t ("responder quote rejected: " ^ e)
          | Ok () -> (
            Buffer.add_bytes t.transcript msg;
            let my_quote =
              match t.auth.make_quote with
              | None -> Ok Bytes.empty
              | Some f -> f ~user_data:(quote_user_data t ~role_byte:'I')
            in
            match my_quote with
            | Error e -> fail t ("initiator quote failed: " ^ e)
            | Ok quote ->
              let qlen = Bytes.length quote in
              let prefix =
                Bytes.cat
                  (let b = Bytes.create 2 in
                   Bytes.set_uint16_be b 0 qlen;
                   b)
                  quote
              in
              let cf = finish_with_mac t ~msg_type:Wire.hs_client_finish ~label:"init" prefix in
              establish t;
              if Trace.enabled () then
                Trace.instant ~cat:Trace.Channel ~name:"chan:hs:client-finish" ();
              Ok [ cf ])
        end
  end

(* --- Responder: ClientFinish in, established (§5.2). --- *)
let on_client_finish t msg body =
  if Bytes.length body < 2 + Wire.mac_len then fail t "truncated ClientFinish"
  else begin
    let qlen = Bytes.get_uint16_be body 0 in
    if Bytes.length body <> 2 + qlen + Wire.mac_len then fail t "truncated ClientFinish"
    else if not (check_mac t ~label:"init" msg) then fail t "ClientFinish MAC check failed"
    else begin
      let quote = Bytes.sub body 2 qlen in
      let verified =
        if qlen = 0 then
          if t.auth.require_peer_quote then Error "initiator quote required but absent" else Ok ()
        else t.auth.verify_quote ~quote ~user_data:(quote_user_data t ~role_byte:'I')
      in
      match verified with
      | Error e -> fail t ("initiator quote rejected: " ^ e)
      | Ok () ->
        Buffer.add_bytes t.transcript msg;
        establish t;
        if Trace.enabled () then
          Trace.instant ~cat:Trace.Channel ~name:"chan:hs:established" ();
        Ok []
    end
  end

let on_segment t seg =
  match t.phase with
  | Failed r -> Error r
  | Done -> Error "handshake already complete"
  | phase -> (
    match Wire.get_hs seg with
    | Error `Truncated -> fail t "truncated handshake message"
    | Error `Bad_version -> fail t "handshake version mismatch"
    | Ok (msg_type, body) -> (
      match (phase, msg_type) with
      | R_wait_hello, m when m = Wire.hs_client_hello -> on_client_hello t seg body
      | I_wait_attest, m when m = Wire.hs_server_attest -> on_server_attest t seg body
      | R_wait_finish, m when m = Wire.hs_client_finish -> on_client_finish t seg body
      | _ -> fail t (Printf.sprintf "unexpected handshake message type %d" msg_type)))

let loopback ~initiator ~responder =
  let ( let* ) = Result.bind in
  let flights = ref [] in
  let rec pump from segs =
    match segs with
    | [] -> Ok ()
    | seg :: rest ->
      flights := (from, seg) :: !flights;
      let dst, peer =
        match from with Initiator -> (responder, Responder) | Responder -> (initiator, Initiator)
      in
      let* replies = on_segment dst seg in
      let* () = pump peer replies in
      pump from rest
  in
  let* first = start initiator in
  let* () = pump Initiator first in
  match (initiator.conn, responder.conn) with
  | Some ci, Some cr -> Ok (ci, cr, List.rev !flights)
  | _ -> Error "handshake did not complete"
