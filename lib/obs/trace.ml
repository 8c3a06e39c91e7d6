type category =
  | Emcall
  | Gate
  | Transport
  | Queue
  | Service
  | Wait
  | Ems
  | Sched
  | Mee
  | Crypto
  | Fault
  | Sim
  | Channel
  | Other

let category_name = function
  | Emcall -> "emcall"
  | Gate -> "gate"
  | Transport -> "transport"
  | Queue -> "queue"
  | Service -> "service"
  | Wait -> "wait"
  | Ems -> "ems"
  | Sched -> "sched"
  | Mee -> "mee"
  | Crypto -> "crypto"
  | Fault -> "fault"
  | Sim -> "sim"
  | Channel -> "channel"
  | Other -> "other"

type span = {
  id : int;
  parent : int;
  name : string;
  cat : category;
  track : int;
  start_ns : float;
  mutable dur_ns : float;
  enclave : int;
  opcode : string;
  request_id : int;
}

(* Fixed-capacity overwrite-oldest ring; one per track so a chatty
   track (the sim servers) cannot evict the sparse ones (faults). *)
type ring = { buf : span option array; mutable head : int; mutable count : int }

type t = {
  capacity : int;
  tracks : (int, ring) Hashtbl.t;
  mutable open_stack : span list;  (* innermost open span first *)
  mutable dropped : int;
  mutable next_id : int;
  mutable cursor : float;
  mutable clock : (unit -> float) option;
}

let default_ring_capacity = 65_536

let create ?(ring_capacity = default_ring_capacity) () =
  if ring_capacity < 1 then invalid_arg "Trace.create: ring_capacity must be >= 1";
  {
    capacity = ring_capacity;
    tracks = Hashtbl.create 8;
    open_stack = [];
    dropped = 0;
    next_id = 0;
    cursor = 0.0;
    clock = None;
  }

let ring_capacity t = t.capacity

(* Track conventions: one Chrome row per hardware actor. *)
let track_gate shard = shard
let track_ems shard = 100 + shard
let track_sim server = 200 + server

let track_name track =
  if track >= 200 then Printf.sprintf "sim/server%d" (track - 200)
  else if track >= 100 then Printf.sprintf "ems/shard%d" (track - 100)
  else if track >= 0 then Printf.sprintf "gate/shard%d" track
  else Printf.sprintf "track%d" track

(* The active tracer. [live] is the one-load guard every
   instrumentation site checks; it is true only while a tracer is
   both installed and not paused. *)
let active : t option ref = ref None
let live = ref false

let install t =
  active := Some t;
  live := true

let uninstall () =
  active := None;
  live := false

let installed () = !active
let enabled () = !live
let pause () = live := false
let resume () = if !active <> None then live := true

let now t = match t.clock with Some f -> f () | None -> t.cursor
let global_now () = match !active with Some t -> now t | None -> 0.0
let set_clock t clock = t.clock <- clock
let advance t ns = if t.clock = None then t.cursor <- t.cursor +. ns

let ring_of t track =
  match Hashtbl.find_opt t.tracks track with
  | Some r -> r
  | None ->
    let r = { buf = Array.make t.capacity None; head = 0; count = 0 } in
    Hashtbl.replace t.tracks track r;
    r

let record t span =
  let r = ring_of t span.track in
  if r.count = t.capacity then t.dropped <- t.dropped + 1
  else r.count <- r.count + 1;
  r.buf.(r.head) <- Some span;
  r.head <- (r.head + 1) mod t.capacity

let fresh_id t =
  let id = t.next_id in
  t.next_id <- id + 1;
  id

let emit ?(track = 0) ?(parent = -1) ?(enclave = -1) ?(opcode = "") ?(request_id = -1)
    ~cat ~name ~start_ns ~dur_ns () =
  if not !live then -1
  else
    match !active with
    | None -> -1
    | Some t ->
      let id = fresh_id t in
      record t { id; parent; name; cat; track; start_ns; dur_ns; enclave; opcode; request_id };
      id

let instant ?track ?ts_ns ?enclave ?request_id ~cat ~name () =
  if !live then
    match !active with
    | None -> ()
    | Some t ->
      let ts = match ts_ns with Some ts -> ts | None -> now t in
      ignore
        (emit ?track ?enclave ?request_id ~cat ~name ~start_ns:ts ~dur_ns:0.0 ())

let push ?(track = 0) ?(enclave = -1) ?(opcode = "") ?(request_id = -1) ~cat ~name () =
  if not !live then -1
  else
    match !active with
    | None -> -1
    | Some t ->
      let parent = match t.open_stack with [] -> -1 | s :: _ -> s.id in
      let id = fresh_id t in
      let span =
        {
          id;
          parent;
          name;
          cat;
          track;
          start_ns = now t;
          dur_ns = 0.0;
          enclave;
          opcode;
          request_id;
        }
      in
      record t span;
      t.open_stack <- span :: t.open_stack;
      id

let pop id =
  if id >= 0 then
    match !active with
    | None -> ()
    | Some t -> (
      match t.open_stack with
      | s :: rest when s.id = id ->
        s.dur_ns <- now t -. s.start_ns;
        t.open_stack <- rest
      | s :: _ ->
        invalid_arg
          (Printf.sprintf "Trace.pop: ill-nested close of span %d (innermost open is %d)"
             id s.id)
      | [] -> invalid_arg (Printf.sprintf "Trace.pop: span %d is not open" id))

let open_spans () = match !active with None -> 0 | Some t -> List.length t.open_stack

let spans t =
  let all = ref [] in
  Hashtbl.iter
    (fun _ r -> Array.iter (function Some s -> all := s :: !all | None -> ()) r.buf)
    t.tracks;
  List.sort
    (fun a b ->
      match Float.compare a.start_ns b.start_ns with 0 -> compare a.id b.id | c -> c)
    !all

let span_count t = Hashtbl.fold (fun _ r acc -> acc + r.count) t.tracks 0
let dropped t = t.dropped

let clear t =
  Hashtbl.iter
    (fun _ r ->
      Array.fill r.buf 0 (Array.length r.buf) None;
      r.head <- 0;
      r.count <- 0)
    t.tracks;
  t.open_stack <- [];
  t.dropped <- 0

(* ------------------------------------------------------------------ *)
(* Chrome trace_event export.                                         *)

let json_escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let to_chrome_json t =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"traceEvents\":[\n";
  let first = ref true in
  let sep () =
    if !first then first := false else Buffer.add_string b ",\n"
  in
  (* Thread-name metadata: one row label per track. *)
  let track_ids = Hashtbl.fold (fun track _ acc -> track :: acc) t.tracks [] in
  List.iter
    (fun track ->
      sep ();
      Buffer.add_string b
        (Printf.sprintf
           "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":%d,\"args\":{\"name\":\"%s\"}}"
           track
           (json_escape (track_name track))))
    (List.sort compare track_ids);
  List.iter
    (fun s ->
      sep ();
      let args = Buffer.create 64 in
      Buffer.add_string args (Printf.sprintf "\"span_id\":%d" s.id);
      if s.parent >= 0 then Buffer.add_string args (Printf.sprintf ",\"parent\":%d" s.parent);
      if s.enclave >= 0 then Buffer.add_string args (Printf.sprintf ",\"enclave\":%d" s.enclave);
      if s.opcode <> "" then
        Buffer.add_string args (Printf.sprintf ",\"opcode\":\"%s\"" (json_escape s.opcode));
      if s.request_id >= 0 then
        Buffer.add_string args (Printf.sprintf ",\"request_id\":%d" s.request_id);
      (* Complete events ("X") for spans, instant events ("i") for
         zero-duration marks; timestamps in microseconds. *)
      if s.dur_ns > 0.0 then
        Buffer.add_string b
          (Printf.sprintf
             "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.4f,\"dur\":%.4f,\"pid\":1,\"tid\":%d,\"args\":{%s}}"
             (json_escape s.name) (category_name s.cat) (s.start_ns /. 1e3)
             (s.dur_ns /. 1e3) s.track (Buffer.contents args))
      else
        Buffer.add_string b
          (Printf.sprintf
             "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"i\",\"ts\":%.4f,\"s\":\"t\",\"pid\":1,\"tid\":%d,\"args\":{%s}}"
             (json_escape s.name) (category_name s.cat) (s.start_ns /. 1e3) s.track
             (Buffer.contents args)))
    (spans t);
  Buffer.add_string b "\n],\"displayTimeUnit\":\"ns\"}\n";
  Buffer.contents b

let write_chrome_json t ~path =
  let oc = open_out path in
  output_string oc (to_chrome_json t);
  close_out oc

(* ------------------------------------------------------------------ *)
(* ASCII summary + flame tree.                                        *)

let render_summary t =
  let all = spans t in
  let b = Buffer.create 1024 in
  if all = [] then Buffer.add_string b "(no spans recorded)\n"
  else begin
    (* Aggregate by (category, name). *)
    let groups : (string, int ref * float ref * float ref) Hashtbl.t = Hashtbl.create 32 in
    let root_total = ref 0.0 in
    List.iter
      (fun s ->
        if s.parent < 0 then root_total := !root_total +. s.dur_ns;
        let key = category_name s.cat ^ "/" ^ s.name in
        match Hashtbl.find_opt groups key with
        | Some (n, total, mx) ->
          incr n;
          total := !total +. s.dur_ns;
          if s.dur_ns > !mx then mx := s.dur_ns
        | None -> Hashtbl.replace groups key (ref 1, ref s.dur_ns, ref s.dur_ns))
      all;
    let rows =
      Hashtbl.fold (fun key (n, total, mx) acc -> (key, !n, !total, !mx) :: acc) groups []
      |> List.sort (fun (_, _, a, _) (_, _, b, _) -> Float.compare b a)
      |> List.map (fun (key, n, total, mx) ->
             [
               key;
               string_of_int n;
               Printf.sprintf "%.2f" (total /. 1e3);
               Printf.sprintf "%.2f" (total /. float_of_int n /. 1e3);
               Printf.sprintf "%.2f" (mx /. 1e3);
               (if !root_total > 0.0 then Printf.sprintf "%.1f%%" (100.0 *. total /. !root_total)
                else "-");
             ])
    in
    let tracks = Hashtbl.length t.tracks in
    Buffer.add_string b
      (Printf.sprintf "%d span(s) on %d track(s), %d dropped by ring overwrite\n"
         (span_count t) tracks (dropped t));
    Buffer.add_string b
      (Hypertee_util.Table.render
         ~headers:[ "cat/name"; "count"; "total (us)"; "mean (us)"; "max (us)"; "of roots" ]
         ~aligns:
           Hypertee_util.Table.[ Left; Right; Right; Right; Right; Right ]
         rows);
    (* Flame tree: aggregate durations over parent->child name
       paths. Spans whose parent was overwritten render as roots. *)
    let by_id = Hashtbl.create (List.length all) in
    List.iter (fun s -> Hashtbl.replace by_id s.id s) all;
    let rec path s =
      if s.parent < 0 then [ s.name ]
      else
        match Hashtbl.find_opt by_id s.parent with
        | Some p -> path p @ [ s.name ]
        | None -> [ s.name ]
    in
    let module Node = struct
      type node = {
        mutable total : float;
        mutable count : int;
        children : (string, node) Hashtbl.t;
      }

      let make () = { total = 0.0; count = 0; children = Hashtbl.create 4 }
    end in
    let root = Node.make () in
    List.iter
      (fun s ->
        let rec insert node = function
          | [] -> ()
          | name :: rest ->
            let child =
              match Hashtbl.find_opt node.Node.children name with
              | Some c -> c
              | None ->
                let c = Node.make () in
                Hashtbl.replace node.Node.children name c;
                c
            in
            if rest = [] then begin
              child.Node.total <- child.Node.total +. s.dur_ns;
              child.Node.count <- child.Node.count + 1
            end;
            insert child rest
        in
        insert root (path s))
      all;
    Buffer.add_string b "\nflame (total us | count | path):\n";
    let rec render_node depth node =
      Hashtbl.fold (fun name c acc -> (name, c) :: acc) node.Node.children []
      |> List.sort (fun (_, a) (_, b) -> Float.compare b.Node.total a.Node.total)
      |> List.iter (fun (name, c) ->
             Buffer.add_string b
               (Printf.sprintf "%10.2f %7d  %s%s\n" (c.Node.total /. 1e3) c.Node.count
                  (String.make (2 * depth) ' ')
                  name);
             render_node (depth + 1) c)
    in
    render_node 0 root
  end;
  Buffer.contents b
