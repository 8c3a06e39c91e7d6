(* Tests of the session benchmark itself: the generator is a pure
   function of the seed, the modelled clock repeats exactly, and every
   workload passes its output checks at its smallest size. *)

open Sessionbench

let image_bytes (e : Gen.entry) =
  Bytes.concat Bytes.empty
    [ e.Gen.image.Hypertee.Sdk.code; e.Gen.image.Hypertee.Sdk.data; e.Gen.measurement ]

let session_list ~seed w =
  let g = Gen.create ~seed w in
  Bytes.concat Bytes.empty (List.init 200 (fun _ -> Gen.session_bytes (Gen.next g)))

let catalog_bytes ~seed w = Bytes.concat Bytes.empty (Array.to_list (Array.map image_bytes (Gen.catalog ~seed w)))

let test_generator w () =
  Alcotest.(check bool) "same seed, same sessions" true
    (Bytes.equal (session_list ~seed:7L w) (session_list ~seed:7L w));
  Alcotest.(check bool) "same seed, same images" true
    (Bytes.equal (catalog_bytes ~seed:7L w) (catalog_bytes ~seed:7L w));
  Alcotest.(check bool) "another seed, other sessions" false
    (Bytes.equal (session_list ~seed:7L w) (session_list ~seed:8L w));
  Alcotest.(check bool) "same seed, same replica arrivals" true
    (Gen.replica_arrivals ~seed:7L w ~replica:3 ~n:50 = Gen.replica_arrivals ~seed:7L w ~replica:3 ~n:50)

(* The smallest size: a handful of sessions, no minimum wall time. *)
let small_run w =
  Bench.run ~log:ignore ~trace_dir:"." ~window:6 ~workload:w ~seed:3L ~seconds:0.0 ~trace:true ()

let value (r : Bench.outcome) name =
  match List.find_opt (fun (m : Bench.metric) -> m.Bench.name = name) (r.Bench.end_to_end @ r.Bench.per_layer) with
  | Some m -> m.Bench.value
  | None -> Alcotest.failf "metric %s missing" name

let is_modelled (m : Bench.metric) =
  let n = m.Bench.name in
  String.starts_with ~prefix:"modelled_" n
  || Filename.extension n = ".modelled_us"
  || n = "channel.handshake.modelled_ms"

let test_small_run w () =
  let a = small_run w and b = small_run w in
  List.iter
    (fun (r : Bench.outcome) ->
      Alcotest.(check bool) "output checks pass" true r.Bench.correct;
      Alcotest.(check int) "no failed session" 0 r.Bench.failed;
      Alcotest.(check (float 0.0)) "ok_frac" 1.0 (value r "ok_frac");
      Alcotest.(check (float 0.0)) "check.violations" 0.0 (value r "check.violations");
      Alcotest.(check (float 0.0)) "arch.mee.mac_failures" 0.0 (value r "arch.mee.mac_failures"))
    [ a; b ];
  let modelled (r : Bench.outcome) = List.filter is_modelled (r.Bench.end_to_end @ r.Bench.per_layer) in
  Alcotest.(check bool) "modelled metrics present" true (List.length (modelled a) >= 16);
  List.iter2
    (fun (x : Bench.metric) (y : Bench.metric) ->
      Alcotest.(check string) "same metric" x.Bench.name y.Bench.name;
      if Int64.bits_of_float x.Bench.value <> Int64.bits_of_float y.Bench.value then
        Alcotest.failf "%s differs between runs: %.17g vs %.17g" x.Bench.name x.Bench.value y.Bench.value)
    (modelled a) (modelled b)

let () =
  let per_workload f = List.map (fun w -> Alcotest.test_case (Gen.name w) `Quick (f w)) Gen.all in
  Alcotest.run "sessionbench"
    [ ("generator", per_workload test_generator); ("small-run", per_workload test_small_run) ]
