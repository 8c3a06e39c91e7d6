module Stats = Hypertee_util.Stats

type counter = int ref
type gauge = float ref
type histogram = Stats.t

type instrument = Counter of counter | Gauge of gauge | Histogram of histogram

type entry = { instrument : instrument; help : string }

type t = { table : (string, entry) Hashtbl.t }

let create () = { table = Hashtbl.create 64 }

let kind_name = function
  | Counter _ -> "counter"
  | Gauge _ -> "gauge"
  | Histogram _ -> "histogram"

(* Get-or-create by name; a kind collision is a programming error. *)
let find_or_add t name ~help ~make ~cast =
  match Hashtbl.find_opt t.table name with
  | Some entry -> (
    match cast entry.instrument with
    | Some v -> v
    | None ->
      invalid_arg
        (Printf.sprintf "Metrics: %S already registered as a %s" name
           (kind_name entry.instrument)))
  | None ->
    let v, instrument = make () in
    Hashtbl.replace t.table name { instrument; help };
    v

let counter t ?(help = "") name =
  find_or_add t name ~help
    ~make:(fun () ->
      let c = ref 0 in
      (c, Counter c))
    ~cast:(function Counter c -> Some c | _ -> None)

let incr ?(by = 1) c = c := !c + by
let set_counter c v = c := v
let counter_value c = !c

let gauge t ?(help = "") name =
  find_or_add t name ~help
    ~make:(fun () ->
      let g = ref 0.0 in
      (g, Gauge g))
    ~cast:(function Gauge g -> Some g | _ -> None)

let set_gauge g v = g := v
let gauge_value g = !g

let histogram t ?(help = "") name =
  find_or_add t name ~help
    ~make:(fun () ->
      let h = Stats.create () in
      (h, Histogram h))
    ~cast:(function Histogram h -> Some h | _ -> None)

let observe = Stats.add
let histogram_count = Stats.count
let percentile = Stats.percentile
let histogram_mean = Stats.mean

let names t = Hashtbl.fold (fun name _ acc -> name :: acc) t.table [] |> List.sort compare
let find_entry t name = Hashtbl.find t.table name

let headers = [ "metric"; "kind"; "count"; "value"; "p50"; "p99"; "help" ]

let fmt_value v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.3f" v

let rows t =
  List.map
    (fun name ->
      let entry = find_entry t name in
      let kind = kind_name entry.instrument in
      let count, value, p50, p99 =
        match entry.instrument with
        | Counter c -> ("-", string_of_int !c, "-", "-")
        | Gauge g -> ("-", fmt_value !g, "-", "-")
        | Histogram h ->
          let n = Stats.count h in
          if n = 0 then (string_of_int n, "-", "-", "-")
          else
            ( string_of_int n,
              fmt_value (Stats.mean h),
              fmt_value (Stats.percentile h 50.0),
              fmt_value (Stats.percentile h 99.0) )
      in
      [ name; kind; count; value; p50; p99; entry.help ])
    (names t)

let render t = Hypertee_util.Table.render ~headers
    ~aligns:Hypertee_util.Table.[ Left; Left; Right; Right; Right; Right; Left ]
    (rows t)

let json_escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let to_json t =
  let b = Buffer.create 1024 in
  Buffer.add_string b "{\n";
  let all = names t in
  let n = List.length all in
  List.iteri
    (fun i name ->
      let entry = find_entry t name in
      Buffer.add_string b (Printf.sprintf "  \"%s\": " (json_escape name));
      (match entry.instrument with
      | Counter c -> Buffer.add_string b (string_of_int !c)
      | Gauge g -> Buffer.add_string b (Printf.sprintf "%.6g" !g)
      | Histogram h ->
        let count = Stats.count h in
        if count = 0 then Buffer.add_string b "{\"count\": 0}"
        else
          Buffer.add_string b
            (Printf.sprintf
               "{\"count\": %d, \"mean\": %.6g, \"min\": %.6g, \"max\": %.6g, \"p50\": %.6g, \"p99\": %.6g}"
               count (Stats.mean h) (Stats.min h) (Stats.max h) (Stats.percentile h 50.0)
               (Stats.percentile h 99.0)));
      Buffer.add_string b (if i = n - 1 then "\n" else ",\n"))
    all;
  Buffer.add_string b "}\n";
  Buffer.contents b
