(* In-memory span buffer for the traced run: one span per benchmark
   call into a layer, with its name, start and end on the monotonic
   clock, the span that was open when it started, the session it
   belongs to and one integer argument (shard, or bytes processed).
   Nothing is written until the run ends. *)

type t = {
  names : (string, int) Hashtbl.t;
  mutable name_of : string array;
  mutable len : int;
  mutable name : int array;
  mutable start : int array;
  mutable stop : int array;
  mutable parent : int array;
  mutable session : int array;
  mutable arg : int array;
  mutable open_ : int;  (** innermost open span, -1 when none *)
}

let create () =
  let n = 4096 in
  {
    names = Hashtbl.create 64;
    name_of = [||];
    len = 0;
    name = Array.make n 0;
    start = Array.make n 0;
    stop = Array.make n 0;
    parent = Array.make n 0;
    session = Array.make n 0;
    arg = Array.make n 0;
    open_ = -1;
  }

let intern t s =
  match Hashtbl.find_opt t.names s with
  | Some id -> id
  | None ->
    let id = Array.length t.name_of in
    Hashtbl.add t.names s id;
    t.name_of <- Array.append t.name_of [| s |];
    id

let name_of t id = t.name_of.(id)

(* The layer a span name belongs to: its first dotted component. *)
let layer_of s = match String.index_opt s '.' with Some i -> String.sub s 0 i | None -> s

let grow t =
  let g a = Array.append a (Array.make (Array.length a) 0) in
  t.name <- g t.name;
  t.start <- g t.start;
  t.stop <- g t.stop;
  t.parent <- g t.parent;
  t.session <- g t.session;
  t.arg <- g t.arg

let enter t ~name ~session ~arg ~start =
  if t.len = Array.length t.name then grow t;
  let i = t.len in
  t.len <- i + 1;
  t.name.(i) <- name;
  t.start.(i) <- start;
  t.stop.(i) <- start;
  t.parent.(i) <- t.open_;
  t.session.(i) <- session;
  t.arg.(i) <- arg;
  t.open_ <- i;
  i

let leave t i ~stop =
  t.stop.(i) <- stop;
  t.open_ <- t.parent.(i)

let set_arg t i v = t.arg.(i) <- v
let length t = t.len
let duration t i = t.stop.(i) - t.start.(i)
let name_id t i = t.name.(i)
let parent t i = t.parent.(i)
let session t i = t.session.(i)
let arg t i = t.arg.(i)

(* Self time of every span: its duration minus the time its direct
   children cover. Children nest strictly inside their parent. *)
let self_times t =
  let self = Array.init t.len (fun i -> duration t i) in
  for i = 0 to t.len - 1 do
    let p = t.parent.(i) in
    if p >= 0 then self.(p) <- self.(p) - duration t i
  done;
  self

(* Structural check: every child lies inside its parent, and no span
   ends before it starts. Returns the number of offending spans. *)
let nesting_errors t =
  let bad = ref 0 in
  for i = 0 to t.len - 1 do
    let p = t.parent.(i) in
    if t.stop.(i) < t.start.(i) || (p >= 0 && (t.start.(i) < t.start.(p) || t.stop.(i) > t.stop.(p)))
    then incr bad
  done;
  !bad

(* Chrome trace_event JSON ("X" complete events, microseconds),
   loadable in chrome://tracing or Perfetto. At most [limit] spans are
   written, the earliest first. *)
let write_chrome t ~path ~limit =
  let oc = open_out path in
  let n = Stdlib.min limit t.len in
  let t0 = if t.len = 0 then 0 else t.start.(0) in
  output_string oc "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
  for i = 0 to n - 1 do
    let nm = name_of t t.name.(i) in
    Printf.fprintf oc
      "%s{\"name\":%S,\"cat\":%S,\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":1,\"args\":{\"id\":%d,\"parent\":%d,\"session\":%d,\"arg\":%d}}\n"
      (if i = 0 then "" else ",")
      nm (layer_of nm)
      (float_of_int (t.start.(i) - t0) /. 1e3)
      (float_of_int (duration t i) /. 1e3)
      i t.parent.(i) t.session.(i) t.arg.(i)
  done;
  output_string oc "]}\n";
  close_out oc;
  n
