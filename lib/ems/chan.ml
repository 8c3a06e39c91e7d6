(* Platform-shared secure-channel fabric: one table of
   channel control blocks that every EMS shard reads and writes, so a
   channel's endpoints can sit on different shards (the fabric is the
   cross-shard transport). Channel ids are minted with the same
   residue discipline as enclave ids — shard [s] mints s+1, s+1+N, …
   — so [(chan-1) mod N] recovers a channel's home shard and the
   EMCall gate can route data-plane requests without a lookup.

   The fault injector hooks the queue-push path: Chan_corrupt flips a
   byte, Chan_truncate drops a tail, Chan_reorder swaps the segment
   with the one queued before it. The record layer above must turn
   each of these into a detected failure, never into silently wrong
   plaintext. *)

type endpoint = Host | Enclave of Types.enclave_id

let endpoint_of_sender = function None -> Host | Some id -> Enclave id

type entry = {
  chan : int;
  home : int;
  listener : Types.enclave_id;
  initiator : endpoint;
  binding : bytes;
  mutable accepted : bool;
  mutable closed : bool;
  mutable to_listener : bytes list;  (* oldest first *)
  mutable to_initiator : bytes list;
}

type t = {
  entries : (int, entry) Hashtbl.t;
  mints : int array;  (* next chan id per shard *)
  shards : int;
  mutable injector : Hypertee_faults.Fault.t option;
  mutable opened : int;
  mutable accepted_n : int;
  mutable closed_n : int;
  mutable segs_queued : int;
  mutable segs_delivered : int;
  mutable faults_injected : int;
}

let queue_cap = 64

let create ~shards =
  if shards < 1 then invalid_arg "Chan.create: shards must be >= 1";
  {
    entries = Hashtbl.create 32;
    mints = Array.init shards (fun s -> s + 1);
    shards;
    injector = None;
    opened = 0;
    accepted_n = 0;
    closed_n = 0;
    segs_queued = 0;
    segs_delivered = 0;
    faults_injected = 0;
  }

let set_injector t inj = t.injector <- inj

let home_of t chan = (chan - 1) mod t.shards

let open_ t ~shard ~listener ~initiator ~binding_of =
  let chan = t.mints.(shard) in
  t.mints.(shard) <- chan + t.shards;
  let binding = binding_of chan in
  let entry =
    {
      chan;
      home = shard;
      listener;
      initiator;
      binding;
      accepted = false;
      closed = false;
      to_listener = [];
      to_initiator = [];
    }
  in
  Hashtbl.replace t.entries chan entry;
  t.opened <- t.opened + 1;
  (chan, Bytes.copy binding)

let find t chan =
  match Hashtbl.find_opt t.entries chan with
  | Some e when not e.closed -> Ok e
  | _ -> Error Types.No_such_channel

let accept t ~chan ~enclave =
  match find t chan with
  | Error _ as e -> e
  | Ok e ->
    if e.listener <> enclave then
      Error (Types.Permission_denied "channel is not listed for this enclave")
    else if e.accepted then Error (Types.Bad_state "channel already accepted")
    else begin
      e.accepted <- true;
      t.accepted_n <- t.accepted_n + 1;
      Ok (Bytes.copy e.binding)
    end

(* Which queue a sender writes into: the initiator endpoint writes
   toward the listener, the listener writes toward the initiator. *)
let direction e ~(sender : endpoint) =
  if sender = e.initiator then Ok `To_listener
  else
    match sender with
    | Enclave id when id = e.listener -> Ok `To_initiator
    | _ -> Error (Types.Permission_denied "sender is not an endpoint of this channel")

let inject t seg =
  match t.injector with
  | None -> seg
  | Some inj ->
    let module F = Hypertee_faults.Fault in
    let seg =
      if F.fire inj F.Chan_corrupt && Bytes.length seg > 0 then begin
        let seg = Bytes.copy seg in
        let i = F.draw_int inj F.Chan_corrupt (Bytes.length seg) in
        Bytes.set_uint8 seg i (Bytes.get_uint8 seg i lxor 0x20);
        t.faults_injected <- t.faults_injected + 1;
        seg
      end
      else seg
    in
    if F.fire inj F.Chan_truncate && Bytes.length seg > 1 then begin
      t.faults_injected <- t.faults_injected + 1;
      Bytes.sub seg 0 (1 + F.draw_int inj F.Chan_truncate (Bytes.length seg - 1))
    end
    else seg

let reorder_fires t =
  match t.injector with
  | None -> false
  | Some inj ->
    let module F = Hypertee_faults.Fault in
    if F.fire inj F.Chan_reorder then begin
      t.faults_injected <- t.faults_injected + 1;
      true
    end
    else false

(* Append [seg] to [q]; under Chan_reorder, insert it *before* the
   last queued segment instead, swapping delivery order. *)
let push t q seg =
  let seg = inject t seg in
  if reorder_fires t && q <> [] then begin
    let rec ins = function
      | [ last ] -> [ seg; last ]
      | x :: rest -> x :: ins rest
      | [] -> [ seg ]
    in
    ins q
  end
  else q @ [ seg ]

let send t ~chan ~sender ~seg =
  match find t chan with
  | Error _ as e -> e
  | Ok e -> (
    if Bytes.length seg = 0 || Bytes.length seg > 1024 then
      Error (Types.Invalid_argument_ "segment size out of range")
    else
      match direction e ~sender with
      | Error _ as err -> err
      | Ok `To_listener ->
        if List.length e.to_listener >= queue_cap then
          Error (Types.Invalid_argument_ "channel queue full")
        else begin
          e.to_listener <- push t e.to_listener seg;
          t.segs_queued <- t.segs_queued + 1;
          Ok ()
        end
      | Ok `To_initiator ->
        if List.length e.to_initiator >= queue_cap then
          Error (Types.Invalid_argument_ "channel queue full")
        else begin
          e.to_initiator <- push t e.to_initiator seg;
          t.segs_queued <- t.segs_queued + 1;
          Ok ()
        end)

let recv t ~chan ~sender =
  match find t chan with
  | Error _ as e -> e
  | Ok e -> (
    match direction e ~sender with
    | Error _ as err -> err
    | Ok dir -> (
      let q = match dir with `To_listener -> e.to_initiator | `To_initiator -> e.to_listener in
      match q with
      | [] -> Ok None
      | seg :: rest ->
        (match dir with
        | `To_listener -> e.to_initiator <- rest
        | `To_initiator -> e.to_listener <- rest);
        t.segs_delivered <- t.segs_delivered + 1;
        Ok (Some seg)))

let wipe_entry e =
  Hypertee_util.Bytes_ext.fill_zero e.binding;
  e.to_listener <- [];
  e.to_initiator <- [];
  e.closed <- true

let close t ~chan ~sender =
  match find t chan with
  | Error _ as e -> e
  | Ok e -> (
    match direction e ~sender with
    | Error _ as err -> err
    | Ok _ ->
      wipe_entry e;
      Hashtbl.remove t.entries chan;
      t.closed_n <- t.closed_n + 1;
      Ok ())

let drop_for_enclave t id =
  let doomed =
    Hashtbl.fold
      (fun chan e acc ->
        if e.listener = id || e.initiator = Enclave id then (chan, e) :: acc else acc)
      t.entries []
  in
  List.iter
    (fun (chan, e) ->
      wipe_entry e;
      Hashtbl.remove t.entries chan;
      t.closed_n <- t.closed_n + 1)
    doomed;
  List.length doomed

let drop_home t ~home =
  let doomed =
    Hashtbl.fold (fun chan e acc -> if e.home = home then (chan, e) :: acc else acc) t.entries []
  in
  List.iter
    (fun (chan, e) ->
      wipe_entry e;
      Hashtbl.remove t.entries chan;
      t.closed_n <- t.closed_n + 1)
    doomed;
  List.length doomed

type view = {
  v_chan : int;
  v_home : int;
  v_listener : Types.enclave_id;
  v_initiator : endpoint;
  v_accepted : bool;
  v_queued : int;
  v_binding_live : bool;  (* binding secret not all-zero (i.e. not yet wiped) *)
}

let snapshot t =
  Hashtbl.fold
    (fun _ e acc ->
      {
        v_chan = e.chan;
        v_home = e.home;
        v_listener = e.listener;
        v_initiator = e.initiator;
        v_accepted = e.accepted;
        v_queued = List.length e.to_listener + List.length e.to_initiator;
        v_binding_live = Bytes.exists (fun c -> c <> '\000') e.binding;
      }
      :: acc)
    t.entries []
  |> List.sort (fun a b -> compare a.v_chan b.v_chan)

let live t = Hashtbl.length t.entries
let shards t = t.shards

let publish_metrics t m =
  let open Hypertee_obs.Metrics in
  set_counter (counter m ~help:"channels opened" "chan.opened") t.opened;
  set_counter (counter m ~help:"channels accepted" "chan.accepted") t.accepted_n;
  set_counter (counter m ~help:"channels closed or reaped" "chan.closed") t.closed_n;
  set_counter (counter m ~help:"segments queued" "chan.segs_queued") t.segs_queued;
  set_counter (counter m ~help:"segments delivered" "chan.segs_delivered") t.segs_delivered;
  set_counter (counter m ~help:"channel faults injected" "chan.faults_injected")
    t.faults_injected;
  set_gauge
    (gauge m ~help:"live channel entries" "chan.live")
    (float_of_int (Hashtbl.length t.entries))
