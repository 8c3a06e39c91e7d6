(* Interop-style conformance tester (docs/PROTOCOL.md §7): replays
   canned handshake flights and well-formed records against the state
   machine and asserts the spec's shapes, then feeds every malformed-
   record and malformed-flight case and asserts each one is rejected.
   Every vector cites the PROTOCOL.md section it checks. *)

module Bx = Hypertee_util.Bytes_ext

type outcome = { name : string; section : string; ok : bool; detail : string }

let vector ~name ~section f =
  match f () with
  | Ok () -> { name; section; ok = true; detail = "" }
  | Error d -> { name; section; ok = false; detail = d }
  | exception e -> { name; section; ok = false; detail = Printexc.to_string e }

let check cond msg = if cond then Ok () else Error msg
let ( let* ) r f = match r with Ok () -> f () | Error _ as e -> e

(* Deterministic dummy attestation: the "quote" is a tagged echo of
   the user_data commitment, and verification checks the echo. The
   conformance suite tests the channel state machine, not the RSA
   quote chain (the platform tests cover that). *)
let echo_quote ~user_data = Ok (Bytes.cat (Bytes.of_string "Q!") user_data)

let echo_verify ~quote ~user_data =
  if
    Bytes.length quote = 2 + Bytes.length user_data
    && Bytes.equal (Bytes.sub quote 2 (Bytes.length user_data)) user_data
  then Ok ()
  else Error "quote/user_data mismatch"

let auth ?(quote = true) ?(require_peer_quote = false) () =
  {
    Handshake.make_quote = (if quote then Some echo_quote else None);
    verify_quote = echo_verify;
    require_peer_quote;
  }

let binding = Bytes.init Wire.binding_len (fun i -> Char.chr (0x10 + i))

(* A full three-flight handshake between two fresh machines over the
   in-memory loopback; the two established connections plus the raw
   flights. *)
let establish ?(seed_i = 11L) ?(seed_r = 22L) ?(auth_i = auth ~quote:false ())
    ?(auth_r = auth ()) ?(binding_i = binding) ?(binding_r = binding) ?rekey_after () =
  let rng_i = Hypertee_util.Xrng.create seed_i in
  let rng_r = Hypertee_util.Xrng.create seed_r in
  let initiator =
    Handshake.create ~role:Initiator ~rng:rng_i ~binding:binding_i ~auth:auth_i ?rekey_after ()
  in
  let responder =
    Handshake.create ~role:Responder ~rng:rng_r ~binding:binding_r ~auth:auth_r ?rekey_after ()
  in
  Handshake.loopback ~initiator ~responder

let established_pair ?rekey_after () =
  match establish ?rekey_after () with
  | Ok (ci, cr, _) -> Ok (ci, cr)
  | Error e -> Error ("establishment failed: " ^ e)

let roundtrip ci cr payload =
  match Record.seal_message ci payload with
  | Error e -> Error ("seal failed: " ^ Record.error_message e)
  | Ok segs -> (
    let events =
      List.fold_left
        (fun acc seg ->
          match acc with
          | Error _ as e -> e
          | Ok evs -> (
            match Record.deliver cr seg with
            | Error e -> Error ("deliver failed: " ^ Record.error_message e)
            | Ok more -> Ok (evs @ more)))
        (Ok []) segs
    in
    match events with
    | Error _ as e -> e
    | Ok [ Record.Message m ] ->
      if Bytes.equal m payload then Ok () else Error "payload mismatch after round trip"
    | Ok evs -> Error (Printf.sprintf "expected exactly one message, got %d events" (List.length evs)))

(* A sealed application record from a fresh pair, for mutation. *)
let one_record () =
  match established_pair () with
  | Error e -> Error (e, None)
  | Ok (ci, cr) -> (
    match Record.seal_message ci (Bytes.of_string "attack at dawn") with
    | Ok [ seg ] -> Ok (seg, ci, cr)
    | Ok _ -> Error ("expected a single segment", None)
    | Error e -> Error (Record.error_message e, None))

let expect_reject ~what cr seg =
  match Record.deliver cr seg with
  | Error _ -> Ok ()
  | Ok _ -> Error (what ^ " was accepted")

(* --- canned-flight vectors (§5) --- *)

let v_flight_shapes () =
  match establish () with
  | Error e -> Error e
  | Ok (_, _, flights) ->
    let* () = check (List.length flights = 3) "expected exactly three flights" in
    let types = List.map (fun (_, seg) -> Bytes.get_uint8 seg 0) flights in
    let* () =
      check
        (types = [ Wire.hs_client_hello; Wire.hs_server_attest; Wire.hs_client_finish ])
        "flight types must be 0x01, 0x02, 0x03 in order"
    in
    let* () =
      check
        (List.for_all (fun (_, seg) -> Bytes.get_uint8 seg 1 = Wire.version) flights)
        "every flight carries version 0x01"
    in
    let ch = snd (List.nth flights 0) in
    let* () =
      check
        (Bytes.length ch = Wire.hs_header_len + Wire.random_len + Wire.dh_len)
        "ClientHello is header + random(32) + dh(32)"
    in
    let* () =
      check
        (List.for_all (fun (_, seg) -> Bytes.length seg <= Wire.max_segment) flights)
        "every flight fits one transport segment"
    in
    Ok ()

let v_directions () =
  match establish () with
  | Error e -> Error e
  | Ok (_, _, flights) ->
    let dirs = List.map fst flights in
    check
      (dirs = [ Handshake.Initiator; Responder; Initiator ])
      "flight directions must alternate I, R, I"

(* --- record-layer vectors (§3, §4) --- *)

let v_roundtrip payload () =
  match established_pair () with
  | Error e -> Error e
  | Ok (ci, cr) -> roundtrip ci cr payload

let v_multi_segment () =
  match established_pair () with
  | Error e -> Error e
  | Ok (ci, cr) -> (
    let payload = Bytes.init 5000 (fun i -> Char.chr (i land 0xff)) in
    match Record.seal_message ci payload with
    | Error e -> Error (Record.error_message e)
    | Ok segs ->
      let* () =
        check (List.length segs > 1) "a >frame-size message must span multiple records"
      in
      let* () =
        check
          (List.for_all (fun s -> Bytes.length s <= Wire.max_segment) segs)
          "every record fits the segment budget"
      in
      let events =
        List.fold_left
          (fun acc seg ->
            match acc with
            | Error _ as e -> e
            | Ok evs -> (
              match Record.deliver cr seg with
              | Error e -> Error (Record.error_message e)
              | Ok more -> Ok (evs @ more)))
          (Ok []) segs
      in
      (match events with
      | Error e -> Error e
      | Ok [ Record.Message m ] ->
        check (Bytes.equal m payload) "multi-segment payload must reassemble exactly"
      | Ok _ -> Error "expected exactly one reassembled message"))

let v_rekey_boundary () =
  match established_pair ~rekey_after:4 () with
  | Error e -> Error e
  | Ok (ci, cr) ->
    let msg = Bytes.of_string "generation test" in
    let rec go n =
      if n = 0 then Ok ()
      else
        let* () = roundtrip ci cr msg in
        go (n - 1)
    in
    let* () = go 12 in
    let* () = check (Record.write_generation ci > 0) "writer must have rekeyed" in
    check
      (Record.read_generation cr = Record.write_generation ci)
      "reader generation must track writer generation"

let v_close_notify () =
  match established_pair () with
  | Error e -> Error e
  | Ok (ci, cr) -> (
    match Record.close ci with
    | [ seg ] -> (
      match Record.deliver cr seg with
      | Ok [ Record.Peer_closed ] -> Ok ()
      | Ok _ -> Error "close_notify must surface Peer_closed"
      | Error e -> Error (Record.error_message e))
    | _ -> Error "close must emit exactly one alert record")

let v_kdf_labels () =
  let secret = Bytes.make 16 '\x0b' in
  let a = Hypertee_crypto.Kdf.expand_label ~secret ~label:"key" ~context:Bytes.empty 16 in
  let b = Hypertee_crypto.Kdf.expand_label ~secret ~label:"mac" ~context:Bytes.empty 16 in
  let a' = Hypertee_crypto.Kdf.expand_label ~secret ~label:"key" ~context:Bytes.empty 16 in
  let* () = check (Bytes.equal a a') "expand_label must be deterministic" in
  let* () = check (not (Bytes.equal a b)) "distinct labels must derive distinct keys" in
  check
    (Hypertee_crypto.Kdf.protocol_tag = "htch1 ")
    "derivation namespace tag must be \"htch1 \""

(* --- malformed-record vectors (§3, §7) --- *)

let mutate f () =
  match one_record () with
  | Error (e, _) -> Error e
  | Ok (seg, _ci, cr) -> f seg cr

let v_bad_version = mutate (fun seg cr ->
    let seg = Bytes.copy seg in
    Bytes.set_uint8 seg 1 0x7f;
    expect_reject ~what:"a wrong-version record" cr seg)

let v_truncated = mutate (fun seg cr ->
    expect_reject ~what:"a truncated record" cr (Bytes.sub seg 0 (Bytes.length seg - 1)))

let v_tampered_ct = mutate (fun seg cr ->
    let seg = Bytes.copy seg in
    let i = Wire.header_len + 2 in
    Bytes.set_uint8 seg i (Bytes.get_uint8 seg i lxor 0x40);
    expect_reject ~what:"a tampered ciphertext" cr seg)

let v_tampered_header = mutate (fun seg cr ->
    let seg = Bytes.copy seg in
    Bytes.set_uint8 seg 11 (Bytes.get_uint8 seg 11 lxor 0x01);
    expect_reject ~what:"a tampered header" cr seg)

let v_oversized_length = mutate (fun seg cr ->
    let seg = Bytes.copy seg in
    Bytes.set_uint16_be seg 2 (Bytes.get_uint16_be seg 2 + 1);
    expect_reject ~what:"a lying length field" cr seg)

let v_replay () =
  match one_record () with
  | Error (e, _) -> Error e
  | Ok (seg, _ci, cr) -> (
    match Record.deliver cr seg with
    | Error e -> Error ("first delivery failed: " ^ Record.error_message e)
    | Ok _ -> expect_reject ~what:"a replayed record" cr seg)

let v_reorder () =
  match established_pair () with
  | Error e -> Error e
  | Ok (ci, cr) -> (
    let seal m =
      match Record.seal_message ci (Bytes.of_string m) with
      | Ok [ s ] -> Ok s
      | Ok _ -> Error "expected one segment"
      | Error e -> Error (Record.error_message e)
    in
    match (seal "first", seal "second") with
    | Ok _, Ok s2 -> expect_reject ~what:"an out-of-order record" cr s2
    | Error e, _ | _, Error e -> Error e)

let v_stale_generation () =
  match established_pair ~rekey_after:1 () with
  | Error e -> Error e
  | Ok (ci, cr) -> (
    (* first message consumes the generation-0 budget; the second
       seal emits a rekey + a generation-1 record. Deliver the rekey
       so the reader advances, then replay a generation-0-keyed
       forgery: stale-generation records fail the tag check because
       the keys differ (§4.2). *)
    match Record.seal_message ci (Bytes.of_string "a") with
    | Error e -> Error (Record.error_message e)
    | Ok segs0 -> (
      let stale = List.hd segs0 in
      match Record.seal_message ci (Bytes.of_string "b") with
      | Error e -> Error (Record.error_message e)
      | Ok segs1 ->
        let* () =
          List.fold_left
            (fun acc s ->
              let* () = acc in
              match Record.deliver cr s with
              | Ok _ -> Ok ()
              | Error e -> Error (Record.error_message e))
            (Ok ()) (segs0 @ segs1)
        in
        expect_reject ~what:"a stale-generation record" cr stale))

let v_unknown_content () =
  match established_pair () with
  | Error e -> Error e
  | Ok (ci, cr) ->
    let seg = Record.Testing.seal_raw ci ~content_type:9 (Bytes.of_string "?") in
    expect_reject ~what:"an unknown content type" cr seg

let v_fail_closed = mutate (fun seg cr ->
    let bad = Bytes.copy seg in
    Bytes.set_uint8 bad (Wire.header_len + 1) (Bytes.get_uint8 bad (Wire.header_len + 1) lxor 1);
    let* () = expect_reject ~what:"a tampered record" cr bad in
    let* () = expect_reject ~what:"a valid record after poisoning" cr seg in
    check (Record.poisoned cr <> None) "the connection must report its poison reason")

(* --- malformed-flight vectors (§5, §7) --- *)

let v_truncated_flight () =
  let rng_i = Hypertee_util.Xrng.create 31L in
  let rng_r = Hypertee_util.Xrng.create 32L in
  let i = Handshake.create ~role:Initiator ~rng:rng_i ~binding ~auth:(auth ~quote:false ()) () in
  let r = Handshake.create ~role:Responder ~rng:rng_r ~binding ~auth:(auth ()) () in
  match Handshake.start i with
  | Error e -> Error e
  | Ok [ ch ] -> (
    match Handshake.on_segment r ch with
    | Error e -> Error e
    | Ok [ sa ] -> (
      let cut = Bytes.sub sa 0 (Bytes.length sa - 7) in
      match Handshake.on_segment i cut with
      | Error _ -> check (Handshake.failed i <> None) "initiator must fail terminally"
      | Ok _ -> Error "a truncated ServerAttest was accepted")
    | Ok _ -> Error "responder should answer ClientHello with one flight")
  | Ok _ -> Error "initiator should start with one flight"

let v_wrong_binding () =
  let binding2 = Bytes.init Wire.binding_len (fun i -> Char.chr (0x80 + i)) in
  match establish ~binding_r:binding2 () with
  | Error _ -> Ok ()
  | Ok _ -> Error "mismatched channel bindings completed a handshake"

let v_bad_sigma_mac () =
  let rng_i = Hypertee_util.Xrng.create 41L in
  let rng_r = Hypertee_util.Xrng.create 42L in
  let i = Handshake.create ~role:Initiator ~rng:rng_i ~binding ~auth:(auth ~quote:false ()) () in
  let r = Handshake.create ~role:Responder ~rng:rng_r ~binding ~auth:(auth ()) () in
  match Handshake.start i with
  | Error e -> Error e
  | Ok [ ch ] -> (
    match Handshake.on_segment r ch with
    | Error e -> Error e
    | Ok [ sa ] -> (
      let sa = Bytes.copy sa in
      let last = Bytes.length sa - 1 in
      Bytes.set_uint8 sa last (Bytes.get_uint8 sa last lxor 0x01);
      match Handshake.on_segment i sa with
      | Error _ -> Ok ()
      | Ok _ -> Error "a ServerAttest with a corrupted SIGMA MAC was accepted")
    | Ok _ -> Error "responder should answer with one flight")
  | Ok _ -> Error "initiator should start with one flight"

let v_flight_replay () =
  let rng_i = Hypertee_util.Xrng.create 51L in
  let rng_r = Hypertee_util.Xrng.create 52L in
  let i = Handshake.create ~role:Initiator ~rng:rng_i ~binding ~auth:(auth ~quote:false ()) () in
  let r = Handshake.create ~role:Responder ~rng:rng_r ~binding ~auth:(auth ()) () in
  match Handshake.start i with
  | Error e -> Error e
  | Ok [ ch ] -> (
    match Handshake.on_segment r ch with
    | Error e -> Error e
    | Ok _ -> (
      match Handshake.on_segment r ch with
      | Error _ -> Ok ()
      | Ok _ -> Error "a replayed ClientHello was accepted"))
  | Ok _ -> Error "initiator should start with one flight"

let v_missing_initiator_quote () =
  match establish ~auth_i:(auth ~quote:false ()) ~auth_r:(auth ~require_peer_quote:true ()) () with
  | Error _ -> Ok ()
  | Ok _ -> Error "a quote-less initiator passed a require_peer_quote responder"

let v_e2e_quotes () =
  match establish ~auth_i:(auth ()) ~auth_r:(auth ~require_peer_quote:true ()) () with
  | Error e -> Error e
  | Ok _ -> Ok ()

let run () =
  [
    vector ~name:"canned-flight-shapes" ~section:"§5.1" v_flight_shapes;
    vector ~name:"flight-directions" ~section:"§5.2" v_directions;
    vector ~name:"record-roundtrip-small" ~section:"§3.4"
      (v_roundtrip (Bytes.of_string "hello, enclave"));
    vector ~name:"record-roundtrip-empty" ~section:"§3.5" (v_roundtrip Bytes.empty);
    vector ~name:"record-roundtrip-multi-segment" ~section:"§3.5" v_multi_segment;
    vector ~name:"rekey-boundary" ~section:"§4.3" v_rekey_boundary;
    vector ~name:"close-notify" ~section:"§6" v_close_notify;
    vector ~name:"kdf-label-set" ~section:"§4.2" v_kdf_labels;
    vector ~name:"enclave-to-enclave-quotes" ~section:"§5.3" v_e2e_quotes;
    vector ~name:"reject-bad-version" ~section:"§3.1" v_bad_version;
    vector ~name:"reject-truncated-record" ~section:"§3.1" v_truncated;
    vector ~name:"reject-oversized-length" ~section:"§3.1" v_oversized_length;
    vector ~name:"reject-tampered-ciphertext" ~section:"§3.3" v_tampered_ct;
    vector ~name:"reject-tampered-header" ~section:"§3.3" v_tampered_header;
    vector ~name:"reject-replay" ~section:"§3.4" v_replay;
    vector ~name:"reject-reorder" ~section:"§3.4" v_reorder;
    vector ~name:"reject-stale-generation" ~section:"§4.2" v_stale_generation;
    vector ~name:"reject-unknown-content-type" ~section:"§3.2" v_unknown_content;
    vector ~name:"fail-closed-after-poison" ~section:"§6" v_fail_closed;
    vector ~name:"reject-truncated-flight" ~section:"§5.2" v_truncated_flight;
    vector ~name:"reject-wrong-binding" ~section:"§4.1" v_wrong_binding;
    vector ~name:"reject-bad-sigma-mac" ~section:"§5.4" v_bad_sigma_mac;
    vector ~name:"reject-flight-replay" ~section:"§5.2" v_flight_replay;
    vector ~name:"reject-missing-initiator-quote" ~section:"§5.3" v_missing_initiator_quote;
  ]

let all_ok outcomes = List.for_all (fun o -> o.ok) outcomes

let render outcomes =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "%-34s %-6s %s\n" "vector (docs/PROTOCOL.md)" "cite" "result");
  List.iter
    (fun o ->
      Buffer.add_string buf
        (Printf.sprintf "%-34s %-6s %s%s\n" o.name o.section
           (if o.ok then "pass" else "FAIL")
           (if o.ok then "" else "  (" ^ o.detail ^ ")")))
    outcomes;
  let passed = List.length (List.filter (fun o -> o.ok) outcomes) in
  Buffer.add_string buf (Printf.sprintf "%d/%d vectors pass\n" passed (List.length outcomes));
  Buffer.contents buf
