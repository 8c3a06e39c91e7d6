(* The benchmark's instrumentation, wrapped around every call it makes
   into a layer of the program. Untraced, a call costs two monotonic
   clock reads, summed into the session's host time; traced, it also
   records a span. Every EMCall's modelled round trip and serving
   shard is kept for the sessions inside the modelled window. *)

module Platform = Hypertee.Platform
module Types = Hypertee_ems.Types
module Emcall = Hypertee_cs.Emcall

let now () = Int64.to_int (Monotonic_clock.now ())
let opcodes = Array.of_list Types.all_opcodes

let op_index op =
  let rec find i = if opcodes.(i) = op then i else find (i + 1) in
  find 0

type t = {
  platform : Platform.t;
  shards : int;
  spans : Spans.t;
  op_span : int array;  (** span name id per opcode *)
  op_calls : int array;  (** EMCalls per opcode, modelled window *)
  op_modelled_ns : float array;  (** summed modelled round trips per opcode, window *)
  mutable tracing : bool;
  mutable session : int;
  mutable depth : int;
  mutable host_ns : int;  (** current session: summed host time of top-level layer calls *)
  mutable in_window : bool;
  mutable call_shard : int array;  (** current session, window only: serving shard per call *)
  mutable call_ns : float array;  (** current session, window only: modelled round trip per call *)
  mutable ncalls : int;
  mutable modelled_ns : float;  (** every call's modelled round trip, summed *)
  mutable last_span : int;
}

let create platform =
  let spans = Spans.create () in
  {
    platform;
    shards = Platform.shard_count platform;
    spans;
    op_span =
      Array.map (fun op -> Spans.intern spans ("cs.emcall." ^ Types.opcode_name op)) opcodes;
    op_calls = Array.make (Array.length opcodes) 0;
    op_modelled_ns = Array.make (Array.length opcodes) 0.0;
    tracing = false;
    session = -1;
    depth = 0;
    host_ns = 0;
    in_window = false;
    call_shard = Array.make 64 0;
    call_ns = Array.make 64 0.0;
    ncalls = 0;
    modelled_ns = 0.0;
    last_span = -1;
  }

let begin_session t ~index ~in_window =
  t.session <- index;
  t.host_ns <- 0;
  t.in_window <- in_window;
  t.ncalls <- 0

(* The current session's calls, in issue order, for the modelled clock. *)
let session_calls t = (Array.sub t.call_shard 0 t.ncalls, Array.sub t.call_ns 0 t.ncalls)

let push_call t shard ns =
  if t.ncalls = Array.length t.call_shard then begin
    t.call_shard <- Array.append t.call_shard t.call_shard;
    t.call_ns <- Array.append t.call_ns t.call_ns
  end;
  t.call_shard.(t.ncalls) <- shard;
  t.call_ns.(t.ncalls) <- ns;
  t.ncalls <- t.ncalls + 1

let finish t span start =
  let stop = now () in
  t.depth <- t.depth - 1;
  if t.depth = 0 then t.host_ns <- t.host_ns + (stop - start);
  if span >= 0 then begin
    Spans.leave t.spans span ~stop;
    t.last_span <- span
  end

(* [layer t name f] runs one call into a layer. [name] is an interned
   span name; nested layer calls are excluded from the session sum
   (their parent already covers them). *)
let layer t ?(arg = -1) name f =
  let start = now () in
  let span = if t.tracing then Spans.enter t.spans ~name ~session:t.session ~arg ~start else -1 in
  t.depth <- t.depth + 1;
  match f () with
  | r ->
    finish t span start;
    r
  | exception e ->
    finish t span start;
    raise e

(* The shard whose FCFS queue serves this call in the modelled clock:
   the gate's own routing rule. *)
let model_shard t request response =
  match (request, response) with
  | (Types.Chan_send { chan; _ } | Types.Chan_recv { chan } | Types.Chan_close { chan }), _ ->
    (chan - 1) mod t.shards
  | Types.Warm_create { measurement }, _ -> Types.warm_home ~shards:t.shards measurement
  | Types.Create _, Types.Ok_created { enclave } -> Platform.shard_of_enclave t.platform enclave
  | _ -> (
    match Hypertee_ems.Runtime.enclave_of_request request with
    | Some id when id > 0 -> Platform.shard_of_enclave t.platform id
    | _ -> 0)

let rejection = function
  | Emcall.Cross_privilege -> "cross-privilege"
  | Emcall.Mailbox_full -> "mailbox full"
  | Emcall.Timeout -> "timeout"
  | Emcall.Busy -> "busy"

(* One EMCall through [Platform.invoke_timed]. *)
let emcall t ~caller request =
  let op = op_index (Types.opcode_of_request request) in
  match layer t t.op_span.(op) (fun () -> Platform.invoke_timed t.platform ~caller request) with
  | Error rej ->
    Error (Printf.sprintf "%s rejected at the gate: %s" (Types.opcode_name opcodes.(op)) (rejection rej))
  | Ok (response, ns) ->
    t.modelled_ns <- t.modelled_ns +. ns;
    if t.tracing || t.in_window then begin
      let shard = model_shard t request response in
      if t.tracing then Spans.set_arg t.spans t.last_span shard;
      if t.in_window then begin
        push_call t shard ns;
        t.op_calls.(op) <- t.op_calls.(op) + 1;
        t.op_modelled_ns.(op) <- t.op_modelled_ns.(op) +. ns
      end
    end;
    Ok response
