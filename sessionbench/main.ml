(* Command line of the session benchmark:

     main.exe --workload <cold-launch|warm-stream|attested-channel|all>
              --seed <n> --seconds <s> --trace <0|1> [--out <dir>]

   Prints what was measured and under which configuration, every
   metric by name with its unit, and as the last line one JSON object
   {correct, attempted, failed, metrics}: the end-to-end metrics
   untraced (--trace 0), the per-layer metrics traced (--trace 1).
   Exits 1 if any output check failed, 2 if the run was refused. *)

open Sessionbench

let usage =
  "main.exe --workload <cold-launch|warm-stream|attested-channel|all> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]"

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let json_of ~correct ~attempted ~failed (metrics : Bench.metric list) =
  let m =
    List.map
      (fun (x : Bench.metric) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.Bench.name (json_number x.Bench.value) x.Bench.unit_)
      metrics
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct attempted
    failed (String.concat ", " m)

let () =
  let workload = ref "" and seed = ref 1L and seconds = ref 10.0 and trace = ref 0 in
  let out = ref (Filename.concat "sessionbench" "out") in
  let specs =
    [
      ("--workload", Arg.Set_string workload, "name (or all)");
      ("--seed", Arg.String (fun s -> seed := Int64.of_string s), "workload seed");
      ("--seconds", Arg.Set_float seconds, "wall time of the timed phase");
      ("--trace", Arg.Set_int trace, "1 = traced run with per-layer metrics");
      ("--out", Arg.Set_string out, "directory for the span file of traced runs");
    ]
  in
  (try Arg.parse_argv Sys.argv specs (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage with
  | Arg.Bad msg | Arg.Help msg ->
    prerr_string msg;
    exit 2);
  let workloads =
    if !workload = "all" then Gen.all
    else match Gen.of_name !workload with Some w -> [ w ] | None -> (prerr_endline usage; exit 2)
  in
  let traced = !trace = 1 in
  if traced && not (Sys.file_exists !out) then Sys.mkdir !out 0o755;
  Printf.printf "sessionbench: seed %Ld, %.0f s per workload, %s run\n" !seed !seconds
    (if traced then "traced" else "untraced");
  Printf.printf "host: %d hardware threads, OCaml %s, commit %s, one process, one domain, default GC\n"
    (Domain.recommended_domain_count ()) Sys.ocaml_version
    (Option.value ~default:"unknown" (Sys.getenv_opt "SESSIONBENCH_COMMIT"));
  let results =
    List.map
      (fun w ->
        match Bench.run ~trace_dir:!out ~workload:w ~seed:!seed ~seconds:!seconds ~trace:traced () with
        | r -> (w, r)
        | exception Bench.Refused why ->
          prerr_endline ("sessionbench: refusing to run: " ^ why);
          exit 2)
      workloads
  in
  let prefix w (m : Bench.metric) =
    if List.length workloads = 1 then m else { m with Bench.name = Gen.name w ^ "." ^ m.Bench.name }
  in
  let metrics =
    List.concat_map
      (fun (w, (r : Bench.outcome)) ->
        List.map (prefix w) (if traced then r.Bench.per_layer else r.Bench.end_to_end))
      results
  in
  List.iter
    (fun (m : Bench.metric) -> Printf.printf "  %-44s %16.6f %s\n" m.Bench.name m.Bench.value m.Bench.unit_)
    metrics;
  let correct = List.for_all (fun (_, r) -> r.Bench.correct) results in
  let sum f = List.fold_left (fun acc (_, r) -> acc + f r) 0 results in
  print_endline
    (json_of ~correct ~attempted:(sum (fun r -> r.Bench.attempted)) ~failed:(sum (fun r -> r.Bench.failed)) metrics);
  exit (if correct then 0 else 1)
