(* Tests for the workload substrate and the experiment harness: the
   profiles are sane, the runner reproduces the paper's orderings,
   and every experiment's headline numbers stay in their bands. *)

module Profile = Hypertee_workloads.Profile
module Rv8 = Hypertee_workloads.Rv8
module Spec = Hypertee_workloads.Spec2017
module Runner = Hypertee_workloads.Runner
module Memstream = Hypertee_workloads.Memstream
module Dnn = Hypertee_workloads.Dnn
module Config = Hypertee_arch.Config

let check = Alcotest.check

(* --- Profiles --- *)

let test_rv8_suite_well_formed () =
  check Alcotest.int "eight benchmarks" 8 (List.length Rv8.suite);
  List.iter
    (fun p ->
      check Alcotest.bool (p.Profile.name ^ " instructions") true (p.Profile.instructions > 1e8);
      check Alcotest.bool (p.Profile.name ^ " code") true (p.Profile.code_kb > 0);
      check Alcotest.bool (p.Profile.name ^ " load pages") true (Profile.load_pages p > 0))
    Rv8.suite;
  check Alcotest.bool "lookup by name" true (Rv8.by_name "wolfssl" <> None);
  check Alcotest.bool "unknown name" true (Rv8.by_name "nonesuch" = None)

let test_spec_suite_well_formed () =
  check Alcotest.int "ten benchmarks" 10 (List.length Spec.suite);
  (* xalancbmk is the TLB outlier, as the paper states. *)
  let tlb p = p.Profile.behavior.Hypertee_arch.Perf_model.tlb_mpki in
  List.iter
    (fun p ->
      if p.Profile.name <> "xalancbmk_r" then
        check Alcotest.bool (p.Profile.name ^ " below xalancbmk") true
          (tlb p < tlb Spec.xalancbmk))
    Spec.suite

let test_enclave_config_covers_footprint () =
  List.iter
    (fun p ->
      let c = Profile.enclave_config p in
      check Alcotest.bool "code pages cover code_kb" true
        (c.Hypertee_ems.Types.code_pages * 4096 >= p.Profile.code_kb * 1024))
    Rv8.suite

(* --- Runner: Fig. 7 / Table IV orderings --- *)

let test_crypto_engine_reduces_overhead () =
  List.iter
    (fun p ->
      let sw = Runner.run_enclave p ~ems_kind:Config.Medium ~crypto_engine:false () in
      let hw = Runner.run_enclave p ~ems_kind:Config.Medium ~crypto_engine:true () in
      check Alcotest.bool (p.Profile.name ^ ": engine helps") true
        (hw.Runner.primitives_pct < sw.Runner.primitives_pct);
      check Alcotest.bool (p.Profile.name ^ ": emeas dominates sw") true
        (sw.Runner.emeas_pct > 0.5 *. sw.Runner.primitives_pct))
    Rv8.suite

let test_ems_config_ordering () =
  let avg kind =
    List.fold_left
      (fun acc p -> acc +. (Runner.run_enclave p ~ems_kind:kind ~crypto_engine:true ()).Runner.overhead_pct)
      0.0 Rv8.suite
    /. 8.0
  in
  let weak = avg Config.Weak and medium = avg Config.Medium and strong = avg Config.Strong in
  check Alcotest.bool "weak worst" true (weak > medium);
  check Alcotest.bool "medium ~= strong (paper: 0.1pp apart)" true (medium -. strong < 0.5);
  (* Paper bands: weak 5.7, medium 2.0, strong 1.9. *)
  check Alcotest.bool "weak in band" true (weak > 4.0 && weak < 8.0);
  check Alcotest.bool "medium in band" true (medium > 1.0 && medium < 3.5)

let test_table4_bands () =
  let avg f = List.fold_left (fun acc p -> acc +. f p) 0.0 Rv8.suite /. 8.0 in
  let all_sw =
    avg (fun p -> (Runner.run_enclave p ~ems_kind:Config.Medium ~crypto_engine:false ()).Runner.primitives_pct)
  in
  let emeas_sw =
    avg (fun p -> (Runner.run_enclave p ~ems_kind:Config.Medium ~crypto_engine:false ()).Runner.emeas_pct)
  in
  let all_hw =
    avg (fun p -> (Runner.run_enclave p ~ems_kind:Config.Medium ~crypto_engine:true ()).Runner.primitives_pct)
  in
  let emeas_hw =
    avg (fun p -> (Runner.run_enclave p ~ems_kind:Config.Medium ~crypto_engine:true ()).Runner.emeas_pct)
  in
  check Alcotest.bool "all-sw ~ 10.4" true (all_sw > 8.0 && all_sw < 13.0);
  check Alcotest.bool "emeas-sw ~ 7.8" true (emeas_sw > 6.0 && emeas_sw < 10.0);
  check Alcotest.bool "all-hw ~ 2.5" true (all_hw > 1.5 && all_hw < 3.5);
  check Alcotest.bool "emeas-hw ~ 0.1" true (emeas_hw > 0.02 && emeas_hw < 0.3)

let test_fig10_bands () =
  let overheads = List.map (fun p -> (Runner.run_host_bitmap p).Runner.overhead_pct) Spec.suite in
  let avg = List.fold_left ( +. ) 0.0 overheads /. 10.0 in
  check Alcotest.bool "average ~ 1.9" true (avg > 1.2 && avg < 2.6);
  let xal = (Runner.run_host_bitmap Spec.xalancbmk).Runner.overhead_pct in
  check Alcotest.bool "xalancbmk ~ 4.6 and the worst" true
    (xal > 3.5 && xal < 6.0 && List.for_all (fun o -> o <= xal) overheads)

let test_runner_native_unaffected_by_ems () =
  let p = Rv8.aes in
  let a = Runner.run_enclave p ~ems_kind:Config.Weak ~crypto_engine:true () in
  let b = Runner.run_enclave p ~ems_kind:Config.Strong ~crypto_engine:true () in
  check (Alcotest.float 1e-6) "native baseline identical" a.Runner.native_ns b.Runner.native_ns

(* --- MemStream (Fig. 8b) --- *)

let test_memstream_band () =
  List.iter
    (fun size ->
      let r = Memstream.run ~size_bytes:size ~latency:Config.default_latency in
      check Alcotest.bool "overhead ~ 3.1%" true
        (r.Memstream.overhead_pct > 2.0 && r.Memstream.overhead_pct < 4.5);
      check Alcotest.bool "encrypted slower" true (r.Memstream.cycles_encrypted > r.Memstream.cycles_plain))
    Memstream.paper_sizes

let test_memstream_misses_scale () =
  let small = Memstream.run ~size_bytes:(4 * 1024 * 1024) ~latency:Config.default_latency in
  let big = Memstream.run ~size_bytes:(8 * 1024 * 1024) ~latency:Config.default_latency in
  check Alcotest.bool "twice the misses" true
    (float_of_int big.Memstream.l2_misses /. float_of_int small.Memstream.l2_misses > 1.9)

(* --- DNN models --- *)

let test_dnn_shapes () =
  check Alcotest.int "six networks" 6 (List.length Dnn.all);
  (* Published magnitudes: ResNet50 ~4.1 GMACs / ~25.5 M params;
     MobileNetV1 ~569 MMACs / ~4.2 M params. *)
  let gm n = Dnn.total_macs n /. 1e9 in
  check Alcotest.bool "resnet macs" true (gm Dnn.resnet50 > 3.5 && gm Dnn.resnet50 < 4.6);
  check Alcotest.bool "mobilenet macs" true (gm Dnn.mobilenet > 0.45 && gm Dnn.mobilenet < 0.7);
  check Alcotest.bool "resnet weights ~25M" true
    (let w = Dnn.total_weight_bytes Dnn.resnet50 in
     w > 20_000_000 && w < 32_000_000);
  List.iter
    (fun n -> check Alcotest.bool (n.Dnn.name ^ " nonempty") true (List.length n.Dnn.layers > 0))
    Dnn.all

let test_fig12_bands () =
  let r = Hypertee_accel.Comm_scenario.run_dnn Dnn.resnet50 in
  check Alcotest.bool "resnet speedup > 4.0 band" true
    (r.Hypertee_accel.Comm_scenario.speedup > 3.8 && r.Hypertee_accel.Comm_scenario.speedup < 6.0);
  check Alcotest.bool "resnet crypto share ~ 74.7%" true
    (r.Hypertee_accel.Comm_scenario.crypto_share_pct > 70.0
    && r.Hypertee_accel.Comm_scenario.crypto_share_pct < 85.0);
  let m = Hypertee_accel.Comm_scenario.run_dnn Dnn.mobilenet in
  check Alcotest.bool "mobilenet speedup > 3.3 band" true
    (m.Hypertee_accel.Comm_scenario.speedup > 3.0 && m.Hypertee_accel.Comm_scenario.speedup < 5.0);
  List.iter
    (fun net ->
      let r = Hypertee_accel.Comm_scenario.run_dnn net in
      check Alcotest.bool (net.Dnn.name ^ " > 27.7x") true
        (r.Hypertee_accel.Comm_scenario.speedup > 27.7))
    [ Dnn.mlp_mnist; Dnn.mlp_committee; Dnn.mlp_autoencoder; Dnn.mlp_multimodal ];
  let nic = Hypertee_accel.Comm_scenario.run_nic ~packets:1000 ~payload_bytes:1500 in
  check Alcotest.bool "NIC ~ 50x" true
    (nic.Hypertee_accel.Comm_scenario.speedup > 40.0 && nic.Hypertee_accel.Comm_scenario.speedup < 60.0);
  check Alcotest.bool "NIC crypto ~ 98%" true (nic.Hypertee_accel.Comm_scenario.crypto_share_pct > 96.0)

let test_gemmini_roofline () =
  let g = Hypertee_accel.Gemmini.create Config.gemmini in
  (* A compute-heavy layer is compute-bound; a weight-heavy FC layer
     is data-bound. *)
  let conv = List.hd Dnn.resnet50.Dnn.layers in
  let fc =
    {
      Dnn.name = "fc-test";
      macs = 1e6;
      input_bytes = 1024;
      output_bytes = 1024;
      weight_bytes = 1_000_000;
    }
  in
  check Alcotest.bool "positive times" true
    (Hypertee_accel.Gemmini.layer_ns g conv > 0.0 && Hypertee_accel.Gemmini.layer_ns g fc > 0.0);
  check Alcotest.bool "network = sum of layers" true
    (let total = Hypertee_accel.Gemmini.network_ns g Dnn.resnet50 in
     let sum = List.fold_left (fun a l -> a +. Hypertee_accel.Gemmini.layer_ns g l) 0.0 Dnn.resnet50.Dnn.layers in
     Float.abs (total -. sum) < 1.0)

(* --- Experiments --- *)

let test_fig6_more_cores_better () =
  let run ems_cores kind =
    (Hypertee_experiments.Fig6.run ~seed:5L ~cs_cores:32 ~ems_cores ~ems_kind:kind ~requests:2000)
      .Hypertee_experiments.Fig6.p99_multiplier
  in
  let one_weak = run 1 Config.Weak in
  let two_weak = run 2 Config.Weak in
  let two_medium = run 2 Config.Medium in
  let four_medium = run 4 Config.Medium in
  check Alcotest.bool "2 weak beats 1 weak" true (two_weak < one_weak);
  check Alcotest.bool "2 medium beats 2 weak" true (two_medium < two_weak);
  check Alcotest.bool "dual medium ~ quad medium (paper)" true
    (two_medium /. four_medium < 1.6);
  check Alcotest.bool "recommended config near baseline" true (two_medium < 3.0)

let test_fig6_curve_shape () =
  let c =
    Hypertee_experiments.Fig6.run ~seed:6L ~cs_cores:4 ~ems_cores:1 ~ems_kind:Config.Weak
      ~requests:1000
  in
  (* The CDF is monotone and reaches 1. *)
  let rec monotone = function
    | (_, a) :: ((_, b) :: _ as rest) -> a <= b +. 1e-9 && monotone rest
    | _ -> true
  in
  check Alcotest.bool "monotone CDF" true (monotone c.Hypertee_experiments.Fig6.points);
  let _, last = List.nth c.Hypertee_experiments.Fig6.points (List.length c.Hypertee_experiments.Fig6.points - 1) in
  check Alcotest.bool "eventually complete" true (last > 0.99)

let test_fig8a_shape () =
  let rows = Hypertee_experiments.Fig8a.run ~reps:200 ~ems_kind:Config.Medium () in
  check Alcotest.int "five sizes" 5 (List.length rows);
  let overheads = List.map (fun r -> r.Hypertee_experiments.Fig8a.overhead_pct) rows in
  (* Paper: 6.3% at 128 KiB rising to 49.7% at 2 MiB. *)
  check Alcotest.bool "small end in band" true (List.hd overheads > 3.0 && List.hd overheads < 15.0);
  let last = List.nth overheads 4 in
  check Alcotest.bool "large end in band" true (last > 35.0 && last < 55.0);
  let rec increasing = function
    | a :: (b :: _ as rest) -> a < b && increasing rest
    | _ -> true
  in
  check Alcotest.bool "monotone in size" true (increasing overheads)

let test_fig11_bands () =
  let rows = Hypertee_experiments.Fig11.run () in
  check Alcotest.int "grid size" 20 (List.length rows);
  List.iter
    (fun r ->
      check Alcotest.bool "within the paper's <= 1.81% bound (+margin)" true
        (r.Hypertee_experiments.Fig11.overhead_pct <= 2.0))
    rows;
  let at mb hz =
    (List.find
       (fun r -> r.Hypertee_experiments.Fig11.memory_mb = mb && r.Hypertee_experiments.Fig11.frequency_hz = hz)
       rows)
      .Hypertee_experiments.Fig11.overhead_pct
  in
  check Alcotest.bool "worst point ~ 1.81%" true (at 32 400.0 > 1.2);
  check Alcotest.bool "monotone in frequency" true (at 32 400.0 > at 32 100.0);
  check Alcotest.bool "monotone in size" true (at 32 400.0 > at 2 400.0)

let test_flush_rate_magnitude () =
  let f = Hypertee_experiments.Fig11.flushes_per_billion_instructions () in
  (* Paper: 16.72 per billion; ours must be the same order. *)
  check Alcotest.bool "order of magnitude" true (f > 5.0 && f < 100.0)

(* The paper harness: the target list is exactly the paper's
   evaluation, each target once, and every renderer runs to
   completion. *)
let test_paper_targets () =
  let expected =
    [
      "table1"; "table2"; "table3"; "table4"; "table5"; "table6"; "fig6"; "fig7"; "fig8a";
      "fig8b"; "fig9"; "fig10"; "fig11"; "fig12"; "ablations";
    ]
  in
  let names = List.map fst Hypertee_experiments.Paper.targets in
  check Alcotest.(list string) "each target once" (List.sort compare expected)
    (List.sort compare names);
  List.iter (fun (_, run) -> run ()) Hypertee_experiments.Paper.targets

let suite =
  [
    ( "workloads.profiles",
      [
        Alcotest.test_case "rv8 well-formed" `Quick test_rv8_suite_well_formed;
        Alcotest.test_case "spec well-formed" `Quick test_spec_suite_well_formed;
        Alcotest.test_case "config covers footprint" `Quick test_enclave_config_covers_footprint;
      ] );
    ( "workloads.runner",
      [
        Alcotest.test_case "crypto engine reduces overhead" `Quick test_crypto_engine_reduces_overhead;
        Alcotest.test_case "EMS config ordering (Fig. 7)" `Quick test_ems_config_ordering;
        Alcotest.test_case "Table IV bands" `Quick test_table4_bands;
        Alcotest.test_case "Fig. 10 bands" `Quick test_fig10_bands;
        Alcotest.test_case "native baseline invariant" `Quick test_runner_native_unaffected_by_ems;
      ] );
    ( "workloads.memstream",
      [
        Alcotest.test_case "Fig. 8b band" `Quick test_memstream_band;
        Alcotest.test_case "misses scale with size" `Quick test_memstream_misses_scale;
      ] );
    ( "workloads.dnn",
      [
        Alcotest.test_case "network shapes" `Quick test_dnn_shapes;
        Alcotest.test_case "Fig. 12 bands" `Quick test_fig12_bands;
        Alcotest.test_case "gemmini roofline" `Quick test_gemmini_roofline;
      ] );
    ( "experiments",
      [
        Alcotest.test_case "Fig. 6 ordering" `Quick test_fig6_more_cores_better;
        Alcotest.test_case "Fig. 6 curve shape" `Quick test_fig6_curve_shape;
        Alcotest.test_case "Fig. 8a shape" `Quick test_fig8a_shape;
        Alcotest.test_case "Fig. 11 bands" `Quick test_fig11_bands;
        Alcotest.test_case "flush rate magnitude" `Quick test_flush_rate_magnitude;
        Alcotest.test_case "paper targets run" `Quick test_paper_targets;
      ] );
  ]
