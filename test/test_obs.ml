(* Observability layer tests: span nesting well-formedness (qcheck),
   metrics histogram percentiles against the Stats oracle, Chrome
   trace_event export round-tripped through a minimal JSON parser,
   the allocation discipline of the disabled path, and the
   reconciliation the tentpole promises: per-EMCall child spans sum
   to the recorded EMCall latency, both live and in the trace.json a
   quick fig6 run emits. *)

open Hypertee
module Trace = Hypertee_obs.Trace
module Metrics = Hypertee_obs.Metrics
module Stats = Hypertee_util.Stats
module Types = Hypertee_ems.Types
module Emcall = Hypertee_cs.Emcall

let check = Alcotest.check
let prop = QCheck_alcotest.to_alcotest ~speed_level:`Quick

let with_tracer ?ring_capacity f =
  let t = Trace.create ?ring_capacity () in
  Trace.install t;
  Fun.protect ~finally:Trace.uninstall (fun () -> f t)

(* ------------------------------------------------------------------ *)
(* Minimal JSON parser — just enough for what the exporters emit.
   Living in the test on purpose: the round-trip must not be checked
   with the same code that produced the string. *)

type json =
  | J_null
  | J_bool of bool
  | J_num of float
  | J_str of string
  | J_arr of json list
  | J_obj of (string * json) list

let parse_json text =
  let n = String.length text in
  let pos = ref 0 in
  let peek () = if !pos < n then text.[!pos] else '\000' in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with ' ' | '\n' | '\t' | '\r' -> advance (); skip_ws () | _ -> ()
  in
  let expect c =
    if peek () <> c then failwith (Printf.sprintf "expected %c at offset %d" c !pos);
    advance ()
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | '"' -> advance (); Buffer.contents b
      | '\\' ->
        advance ();
        (match peek () with
        | 'n' -> Buffer.add_char b '\n'; advance ()
        | 't' -> Buffer.add_char b '\t'; advance ()
        | 'u' ->
          advance ();
          let code = int_of_string ("0x" ^ String.sub text !pos 4) in
          pos := !pos + 4;
          Buffer.add_char b (Char.chr (code land 0xff))
        | c -> Buffer.add_char b c; advance ());
        go ()
      | '\000' -> failwith "unterminated string"
      | c -> Buffer.add_char b c; advance (); go ()
    in
    go ()
  in
  let is_num_char = function
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | '{' ->
      advance ();
      skip_ws ();
      if peek () = '}' then (advance (); J_obj [])
      else
        let rec members acc =
          skip_ws ();
          let key = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          skip_ws ();
          if peek () = ',' then (advance (); members ((key, v) :: acc))
          else (expect '}'; J_obj (List.rev ((key, v) :: acc)))
        in
        members []
    | '[' ->
      advance ();
      skip_ws ();
      if peek () = ']' then (advance (); J_arr [])
      else
        let rec elements acc =
          let v = parse_value () in
          skip_ws ();
          if peek () = ',' then (advance (); elements (v :: acc))
          else (expect ']'; J_arr (List.rev (v :: acc)))
        in
        elements []
    | '"' -> J_str (parse_string ())
    | 't' -> pos := !pos + 4; J_bool true
    | 'f' -> pos := !pos + 5; J_bool false
    | 'n' -> pos := !pos + 4; J_null
    | _ ->
      let start = !pos in
      while is_num_char (peek ()) do advance () done;
      if !pos = start then failwith (Printf.sprintf "unexpected character at offset %d" start);
      J_num (float_of_string (String.sub text start (!pos - start)))
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then failwith "trailing garbage after JSON value";
  v

let obj_field key = function
  | J_obj members -> List.assoc key members
  | _ -> failwith ("not an object looking up " ^ key)

let obj_field_opt key = function J_obj members -> List.assoc_opt key members | _ -> None
let as_num = function J_num f -> f | _ -> failwith "not a number"
let as_str = function J_str s -> s | _ -> failwith "not a string"
let as_arr = function J_arr l -> l | _ -> failwith "not an array"

(* ------------------------------------------------------------------ *)
(* Span nesting (qcheck). The script is a list of booleans: true
   pushes a span, false pops the innermost (no-op on an empty stack);
   whatever is left open is closed at the end. *)

let run_nesting_script script =
  with_tracer (fun t ->
      let stack = ref [] in
      List.iter
        (fun push ->
          Trace.advance t 1.0;
          if push then stack := Trace.push ~cat:Trace.Other ~name:"op" () :: !stack
          else
            match !stack with
            | id :: rest ->
              Trace.pop id;
              stack := rest
            | [] -> ())
        script;
      Trace.advance t 1.0;
      List.iter Trace.pop !stack;
      (Trace.open_spans (), List.length (List.filter Fun.id script), Trace.spans t))

let nesting_well_formed script =
  let open_after, pushes, spans = run_nesting_script script in
  let by_id = List.map (fun (s : Trace.span) -> (s.Trace.id, s)) spans in
  open_after = 0
  && List.length spans = pushes
  && List.for_all
       (fun (s : Trace.span) ->
         s.Trace.dur_ns >= 0.0
         &&
         (s.Trace.parent < 0
         ||
         match List.assoc_opt s.Trace.parent by_id with
         | None -> false (* orphan: parent id was never recorded *)
         | Some p ->
           p.Trace.start_ns <= s.Trace.start_ns
           && s.Trace.start_ns +. s.Trace.dur_ns <= p.Trace.start_ns +. p.Trace.dur_ns))
       spans

let nesting_prop =
  prop
    (QCheck.Test.make ~name:"push/pop scripts leave a well-formed span forest" ~count:100
       QCheck.(list_of_size Gen.(int_range 0 60) bool)
       nesting_well_formed)

let test_ill_nested_pop_raises () =
  with_tracer (fun _t ->
      let a = Trace.push ~cat:Trace.Other ~name:"outer" () in
      let b = Trace.push ~cat:Trace.Other ~name:"inner" () in
      check Alcotest.bool "closing the outer span first is refused" true
        (match Trace.pop a with
        | () -> false
        | exception Invalid_argument _ -> true);
      Trace.pop b;
      Trace.pop a;
      check Alcotest.int "all closed" 0 (Trace.open_spans ()))

let test_ring_overwrites_oldest () =
  with_tracer ~ring_capacity:8 (fun t ->
      for i = 1 to 20 do
        ignore
          (Trace.emit ~cat:Trace.Other ~name:(string_of_int i) ~start_ns:(float_of_int i)
             ~dur_ns:1.0 ())
      done;
      check Alcotest.int "ring keeps its capacity" 8 (Trace.span_count t);
      check Alcotest.int "overwrites are counted" 12 (Trace.dropped t);
      let names = List.map (fun (s : Trace.span) -> s.Trace.name) (Trace.spans t) in
      check (Alcotest.list Alcotest.string) "oldest spans were the ones dropped"
        (List.map string_of_int [ 13; 14; 15; 16; 17; 18; 19; 20 ])
        names)

let test_pause_resume () =
  with_tracer (fun t ->
      ignore (Trace.emit ~cat:Trace.Other ~name:"before" ~start_ns:0.0 ~dur_ns:1.0 ());
      Trace.pause ();
      check Alcotest.bool "paused tracer is disabled" false (Trace.enabled ());
      ignore (Trace.emit ~cat:Trace.Other ~name:"while-paused" ~start_ns:1.0 ~dur_ns:1.0 ());
      Trace.resume ();
      ignore (Trace.emit ~cat:Trace.Other ~name:"after" ~start_ns:2.0 ~dur_ns:1.0 ());
      check (Alcotest.list Alcotest.string) "paused emission was dropped" [ "before"; "after" ]
        (List.map (fun (s : Trace.span) -> s.Trace.name) (Trace.spans t)))

(* ------------------------------------------------------------------ *)
(* Metrics. *)

let percentile_oracle_prop =
  prop
    (QCheck.Test.make ~name:"histogram percentiles match the Stats oracle" ~count:60
       QCheck.(list_of_size Gen.(int_range 1 150) (int_bound 1_000_000))
       (fun samples ->
         let registry = Metrics.create () in
         let h = Metrics.histogram registry "lat" in
         let oracle = Stats.create () in
         List.iter
           (fun v ->
             let f = float_of_int v in
             Metrics.observe h f;
             Stats.add oracle f)
           samples;
         List.for_all
           (fun p -> Metrics.percentile h p = Stats.percentile oracle p)
           [ 0.0; 25.0; 50.0; 90.0; 99.0; 100.0 ]))

let test_metrics_registry_basics () =
  let registry = Metrics.create () in
  let c = Metrics.counter registry ~help:"h" "requests" in
  Metrics.incr c;
  Metrics.incr ~by:4 c;
  check Alcotest.int "counter accumulates" 5 (Metrics.counter_value c);
  let c' = Metrics.counter registry "requests" in
  Metrics.set_counter c' 9;
  check Alcotest.int "get-or-create returns the same instrument" 9 (Metrics.counter_value c);
  let g = Metrics.gauge registry "depth" in
  Metrics.set_gauge g 3.5;
  check (Alcotest.float 0.0) "gauge holds the last value" 3.5 (Metrics.gauge_value g);
  check Alcotest.bool "kind collision is a loud error" true
    (match Metrics.gauge registry "requests" with
    | _ -> false
    | exception Invalid_argument _ -> true);
  check (Alcotest.list Alcotest.string) "names are sorted" [ "depth"; "requests" ]
    (Metrics.names registry)

let test_metrics_json_roundtrip () =
  let registry = Metrics.create () in
  Metrics.set_counter (Metrics.counter registry "emcall.timeouts") 3;
  let h = Metrics.histogram registry "emcall.latency_ns" in
  List.iter (Metrics.observe h) [ 10.0; 20.0; 30.0; 40.0 ];
  let parsed = parse_json (Metrics.to_json registry) in
  check (Alcotest.float 0.0) "counter value survives" 3.0
    (as_num (obj_field "emcall.timeouts" parsed));
  let hist = obj_field "emcall.latency_ns" parsed in
  check (Alcotest.float 0.0) "histogram count survives" 4.0 (as_num (obj_field "count" hist));
  let oracle = Stats.create () in
  List.iter (Stats.add oracle) [ 10.0; 20.0; 30.0; 40.0 ];
  check (Alcotest.float 1e-9) "histogram p50 survives" (Stats.percentile oracle 50.0)
    (as_num (obj_field "p50" hist))

(* ------------------------------------------------------------------ *)
(* Chrome trace_event export. *)

let test_chrome_json_roundtrip () =
  with_tracer (fun t ->
      let parent =
        Trace.emit ~track:(Trace.track_gate 0) ~enclave:7 ~opcode:"EALLOC" ~request_id:42
          ~cat:Trace.Emcall ~name:"EMCALL:EALLOC" ~start_ns:1000.0 ~dur_ns:500.0 ()
      in
      ignore
        (Trace.emit ~track:(Trace.track_gate 0) ~parent ~cat:Trace.Gate ~name:"gate \"q\"\n"
           ~start_ns:1000.0 ~dur_ns:120.0 ());
      Trace.instant ~track:(Trace.track_gate 0) ~ts_ns:1100.0 ~cat:Trace.Fault
        ~name:"fault:mailbox-drop" ();
      let parsed = parse_json (Trace.to_chrome_json t) in
      let events = as_arr (obj_field "traceEvents" parsed) in
      let by_phase ph =
        List.filter (fun e -> as_str (obj_field "ph" e) = ph) events
      in
      check Alcotest.int "one metadata row per track" 1 (List.length (by_phase "M"));
      check Alcotest.string "track label round-trips" "gate/shard0"
        (as_str (obj_field "name" (obj_field "args" (List.hd (by_phase "M")))));
      let complete = by_phase "X" in
      check Alcotest.int "two complete events" 2 (List.length complete);
      let root =
        List.find (fun e -> as_str (obj_field "name" e) = "EMCALL:EALLOC") complete
      in
      check (Alcotest.float 1e-9) "ts is microseconds" 1.0 (as_num (obj_field "ts" root));
      check (Alcotest.float 1e-9) "dur is microseconds" 0.5 (as_num (obj_field "dur" root));
      check (Alcotest.float 1e-9) "enclave id in args" 7.0
        (as_num (obj_field "enclave" (obj_field "args" root)));
      check Alcotest.string "opcode in args" "EALLOC"
        (as_str (obj_field "opcode" (obj_field "args" root)));
      let child =
        List.find (fun e -> as_str (obj_field "name" e) = "gate \"q\"\n") complete
      in
      check (Alcotest.float 1e-9) "parent id links the child" (float_of_int parent)
        (as_num (obj_field "parent" (obj_field "args" child)));
      check Alcotest.int "instants export as ph:i" 1 (List.length (by_phase "i")))

(* ------------------------------------------------------------------ *)
(* Reconciliation: child spans sum to the recorded EMCall latency. *)

let workload platform =
  match Platform.invoke platform ~caller:Emcall.Os_kernel (Types.Create { config = Types.default_config }) with
  | Ok (Types.Ok_created { enclave }) ->
    [
      (Emcall.Os_kernel, Types.Add { enclave; vpn = 0x100; data = Bytes.make 64 'a'; executable = true });
      (Emcall.Os_kernel, Types.Measure { enclave });
      (Emcall.User_host, Types.Alloc { enclave; pages = 2 });
      (Emcall.User_host, Types.Alloc { enclave; pages = 8 });
      (Emcall.User_enclave enclave, Types.Attest { enclave; user_data = Bytes.empty });
      (Emcall.Os_kernel, Types.Writeback { pages_hint = 4 });
      (Emcall.Os_kernel, Types.Destroy { enclave });
    ]
  | _ -> Alcotest.fail "workload enclave creation failed"

let test_children_sum_to_latency () =
  let latencies, spans =
    with_tracer (fun t ->
        let platform = Platform.create ~seed:0xAB5L () in
        let latencies =
          List.filter_map
            (fun (caller, request) ->
              match Platform.invoke_timed platform ~caller request with
              | Ok (_, latency) -> Some latency
              | Error _ -> None)
            (workload platform)
        in
        (latencies, Trace.spans t))
  in
  let roots =
    List.sort
      (fun (a : Trace.span) b -> compare a.Trace.start_ns b.Trace.start_ns)
      (List.filter (fun (s : Trace.span) -> s.Trace.cat = Trace.Emcall) spans)
  in
  (* The create that built the workload is also traced: skip it and
     compare the rest one-to-one against the timed invocations. *)
  let roots = List.tl roots in
  check Alcotest.int "one EMCALL root span per timed invocation" (List.length latencies)
    (List.length roots);
  List.iter2
    (fun latency (root : Trace.span) ->
      check (Alcotest.float 1e-9) "root span duration is the recorded latency" latency
        root.Trace.dur_ns;
      let children = List.filter (fun (s : Trace.span) -> s.Trace.parent = root.Trace.id) spans in
      check Alcotest.int "gate + transport + service + wait" 4 (List.length children);
      let sum = List.fold_left (fun acc (s : Trace.span) -> acc +. s.Trace.dur_ns) 0.0 children in
      check (Alcotest.float 1e-6) "child spans sum to the EMCall latency" latency sum;
      List.iter
        (fun (c : Trace.span) ->
          check Alcotest.bool "child lies inside its parent" true
            (c.Trace.start_ns >= root.Trace.start_ns -. 1e-9
            && c.Trace.start_ns +. c.Trace.dur_ns
               <= root.Trace.start_ns +. root.Trace.dur_ns +. 1e-6))
        children)
    latencies roots

let test_traced_fig6_emits_reconciled_json () =
  let path = Filename.temp_file "hypertee_fig6" ".json" in
  let devnull = open_out Filename.null in
  Fun.protect
    ~finally:(fun () ->
      close_out devnull;
      Sys.remove path)
    (fun () ->
      ignore
        (Hypertee_experiments.Tracing.run ~out:devnull ~quick:true ~seed:0x516L ~path
           Hypertee_experiments.Tracing.Fig6);
      let ic = open_in path in
      let len = in_channel_length ic in
      let text = really_input_string ic len in
      close_in ic;
      let events = as_arr (obj_field "traceEvents" (parse_json text)) in
      let complete = List.filter (fun e -> as_str (obj_field "ph" e) = "X") events in
      let roots =
        List.filter
          (fun e ->
            as_str (obj_field "cat" e) = "emcall" && obj_field_opt "parent" (obj_field "args" e) = None)
          complete
      in
      check Alcotest.bool "the traced fig6 run recorded EMCall roots" true (roots <> []);
      List.iter
        (fun root ->
          let id = as_num (obj_field "span_id" (obj_field "args" root)) in
          let children =
            List.filter
              (fun e ->
                match obj_field_opt "parent" (obj_field "args" e) with
                | Some (J_num p) -> p = id
                | _ -> false)
              complete
          in
          check Alcotest.bool "roots decompose into stages" true (children <> []);
          let sum = List.fold_left (fun acc e -> acc +. as_num (obj_field "dur" e)) 0.0 children in
          (* Exported timestamps are rounded to 1e-4 us per event. *)
          check (Alcotest.float 0.01) "child spans sum to the EMCall duration (us)"
            (as_num (obj_field "dur" root))
            sum)
        roots)

(* ------------------------------------------------------------------ *)
(* Disabled-path cost: with no tracer installed, the instrumented
   EMCall loop allocates exactly what it allocates on a second
   identical run (the guard adds no per-call garbage), and guarded
   direct emission allocates nothing at all. *)

let invoke_loop_words () =
  let platform = Platform.create ~seed:0x90L () in
  match Platform.invoke platform ~caller:Emcall.Os_kernel (Types.Create { config = Types.default_config }) with
  | Ok (Types.Ok_created { enclave }) ->
    let before = Gc.minor_words () in
    for _ = 1 to 64 do
      ignore (Platform.invoke platform ~caller:Emcall.User_host (Types.Alloc { enclave; pages = 1 }))
    done;
    Gc.minor_words () -. before
  | _ -> Alcotest.fail "enclave creation failed"

let test_disabled_path_allocates_nothing () =
  Trace.uninstall ();
  check Alcotest.bool "no tracer installed" false (Trace.enabled ());
  let before = Gc.minor_words () in
  for _ = 1 to 100_000 do
    if Trace.enabled () then Trace.instant ~cat:Trace.Fault ~name:"never" ()
  done;
  let delta = Gc.minor_words () -. before in
  check Alcotest.bool "guarded emission is allocation-free when disabled" true (delta < 256.0);
  let disabled_a = invoke_loop_words () in
  let disabled_b = invoke_loop_words () in
  check (Alcotest.float 0.0) "disabled EMCall loop allocation is reproducible" disabled_a
    disabled_b;
  let enabled = with_tracer (fun _t -> invoke_loop_words ()) in
  check Alcotest.bool "tracing pays only when enabled" true (enabled > disabled_a)

(* ------------------------------------------------------------------ *)

(* [hypertee metrics]: the registry covers both shards, and the
   run's own end-of-run invariant sweep (which raises on a violation)
   passes. *)
let test_metrics_report_covers_shards () =
  let devnull = open_out Filename.null in
  let registry =
    Fun.protect
      ~finally:(fun () -> close_out devnull)
      (fun () -> Hypertee_experiments.Tracing.metrics ~out:devnull ~ops:200 ())
  in
  let names = Metrics.names registry in
  List.iter
    (fun name -> check Alcotest.bool (name ^ " published") true (List.mem name names))
    [ "shard0.sched.executed"; "shard1.sched.executed"; "emcall.latency_ns" ]

let suite =
  [
    ( "obs",
      [
        nesting_prop;
        Alcotest.test_case "ill-nested pop raises" `Quick test_ill_nested_pop_raises;
        Alcotest.test_case "ring overwrites oldest" `Quick test_ring_overwrites_oldest;
        Alcotest.test_case "pause/resume" `Quick test_pause_resume;
        percentile_oracle_prop;
        Alcotest.test_case "metrics registry basics" `Quick test_metrics_registry_basics;
        Alcotest.test_case "metrics JSON round-trip" `Quick test_metrics_json_roundtrip;
        Alcotest.test_case "chrome JSON round-trip" `Quick test_chrome_json_roundtrip;
        Alcotest.test_case "child spans sum to EMCall latency" `Quick
          test_children_sum_to_latency;
        Alcotest.test_case "traced fig6 emits reconciled trace.json" `Quick
          test_traced_fig6_emits_reconciled_json;
        Alcotest.test_case "disabled path allocates nothing" `Quick
          test_disabled_path_allocates_nothing;
        Alcotest.test_case "metrics report covers both shards" `Quick
          test_metrics_report_covers_shards;
      ] );
  ]
