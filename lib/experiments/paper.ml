(* Renderers for every table and figure of the paper's evaluation
   (Sec. VII). Absolute times come from the simulator's calibrated
   models; the claim being reproduced is the *shape* — who wins, by
   what factor, where the crossovers are — which is printed as
   paper-vs-measured on each experiment. *)

module Config = Hypertee_arch.Config
module Types = Hypertee_ems.Types
module Table = Hypertee_util.Table
module Runner = Hypertee_workloads.Runner
module Profile = Hypertee_workloads.Profile
module Perf_model = Hypertee_arch.Perf_model
module Engine = Hypertee_crypto.Engine
module Comm = Hypertee_accel.Comm_scenario
module Area = Hypertee_arch.Area
module Security = Hypertee.Security

let section title = Printf.printf "\n=== %s ===\n" title
let note fmt = Printf.printf (fmt ^^ "\n")

(* Mean of [f] over [xs], summed in list order. *)
let mean f xs = List.fold_left (fun acc x -> acc +. f x) 0.0 xs /. float_of_int (List.length xs)

(* ------------------------------------------------------------------ *)

let table1 () =
  section "Table I: security risks of management-task vs enclave attacks";
  Table.print
    ~headers:[ "Security Threats"; "Attack Management Tasks"; "Attack Enclaves" ]
    (Security.table_i_rows ());
  note "paper: management attacks compromise C+I+A; enclave attacks only C. [matches]"

let table2 () =
  section "Table II: HyperTEE primitives";
  Table.print
    ~headers:[ "Primitive"; "Priv."; "Semantics" ]
    (List.map
       (fun op ->
         [
           Types.opcode_name op;
           (match Types.required_privilege op with Types.Os -> "OS" | Types.User -> "User");
           Types.opcode_semantics op;
         ])
       Types.all_opcodes)

let show_core (c : Config.core) =
  [
    c.Config.name;
    (match c.Config.pipeline with Config.In_order -> "In-order" | Config.Out_of_order -> "OoO");
    Printf.sprintf "%d/%d" c.Config.fetch_width c.Config.decode_width;
    Printf.sprintf "%d/%d/%d" c.Config.issue_mem c.Config.issue_int c.Config.issue_fp;
    string_of_int c.Config.btb_entries;
    (if c.Config.rob_entries = 0 then "-" else string_of_int c.Config.rob_entries);
    Printf.sprintf "%d/%d/%d" c.Config.itlb_entries c.Config.dtlb_entries c.Config.l2_tlb_entries;
    Printf.sprintf "%d/%dKB" c.Config.l1i_kb c.Config.l1d_kb;
    Printf.sprintf "%dKB" c.Config.l2_kb;
    Printf.sprintf "%.2fGHz" c.Config.clock_ghz;
  ]

let table3 () =
  section "Table III: prototype parameters";
  Table.print
    ~headers:
      [ "Core"; "Pipeline"; "Fetch/Dec"; "Mem/Int/Fp"; "BTB"; "ROB"; "TLB I/D/L2"; "L1 I/D"; "L2"; "Clock" ]
    (List.map show_core [ Config.cs_core; Config.ems_weak; Config.ems_medium; Config.ems_strong ]);
  let eng = Engine.default_hardware in
  note "Crypto engine: AES %.2f Gbps, SHA-256 %.1f Gbps, RSA sign %.0f ops/s, verify %.0f ops/s"
    (4096.0 *. 8.0 /. (Engine.aes_ns eng ~bytes:4096 -. 200.0))
    (4096.0 *. 8.0 /. (Engine.sha256_ns eng ~bytes:4096 -. 200.0))
    (1e9 /. Engine.rsa_sign_ns eng)
    (1e9 /. Engine.rsa_verify_ns eng);
  let g = Config.gemmini in
  note "Gemmini: %dx%d PEs, %d KB global buffer, %d KB accumulator" g.Config.pe_rows
    g.Config.pe_cols g.Config.global_buffer_kb g.Config.accumulator_kb

(* ------------------------------------------------------------------ *)

let fig6 () =
  section "Fig. 6: SLO for concurrent primitive requests (DES simulation)";
  note "each row: p99 latency as a multiple of the non-enclave baseline; smaller is better";
  List.iter
    (fun (cs_cores, ems_configs) ->
      let rows =
        List.map
          (fun (ems_cores, kind) ->
            let c = Fig6.run ~seed:0x516L ~cs_cores ~ems_cores ~ems_kind:kind ~requests:16384 in
            let frac_at x =
              match List.find_opt (fun (m, _) -> m >= x) c.Fig6.points with
              | Some (_, f) -> f *. 100.0
              | None -> 100.0
            in
            [
              string_of_int cs_cores;
              Printf.sprintf "%dx %s" ems_cores (Config.ems_kind_name kind);
              Table.fmt_f ~digits:2 c.Fig6.p99_multiplier;
              Table.pct (frac_at 2.0);
              Table.pct (frac_at 4.0);
              Table.pct (frac_at 8.0);
            ])
          ems_configs
      in
      Table.print
        ~headers:[ "CS cores"; "EMS config"; "p99 (x baseline)"; "<=2x"; "<=4x"; "<=8x" ]
        ~aligns:[ Table.Right; Table.Left; Table.Right; Table.Right; Table.Right; Table.Right ]
        rows)
    Fig6.paper_grid;
  note "paper: 1 in-order core suffices for <=4 CS cores; 2 in-order for 16;";
  note "       dual OoO ~= quad OoO for 32/64 CS cores. [check the rows above]"

let fig7 () =
  section "Fig. 7: enclave overhead under different EMS core configurations";
  let kinds = [ Config.Weak; Config.Medium; Config.Strong ] in
  let suite = Hypertee_workloads.Rv8.suite in
  let overheads =
    List.map
      (fun p ->
        List.map
          (fun kind ->
            (Runner.run_enclave p ~ems_kind:kind ~crypto_engine:true ()).Runner.overhead_pct)
          kinds)
      suite
  in
  let rows = List.map2 (fun p row -> p.Profile.name :: List.map Table.pct row) suite overheads in
  let averages =
    "AVERAGE" :: List.mapi (fun i _ -> Table.pct (mean (fun row -> List.nth row i) overheads)) kinds
  in
  Table.print ~headers:[ "benchmark"; "weak"; "medium"; "strong" ]
    ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Right ]
    (rows @ [ averages ]);
  note "paper averages: weak 5.7%%, medium 2.0%%, strong 1.9%% (medium ~= strong)"

let table4 () =
  section "Table IV: primitive execution time vs Host-Native (crypto engine off/on)";
  let runs =
    List.map
      (fun p ->
        ( p.Profile.name,
          Runner.run_enclave p ~ems_kind:Config.Medium ~crypto_engine:false (),
          Runner.run_enclave p ~ems_kind:Config.Medium ~crypto_engine:true () ))
      Hypertee_workloads.Rv8.suite
  in
  let row name sw_all sw_emeas hw_all hw_emeas =
    [ name; Table.pct sw_all; Table.pct sw_emeas; Table.pct hw_all; Printf.sprintf "%.2f%%" hw_emeas ]
  in
  let rows =
    List.map
      (fun (name, (sw : Runner.enclave_run), (hw : Runner.enclave_run)) ->
        row name sw.primitives_pct sw.emeas_pct hw.primitives_pct hw.emeas_pct)
      runs
  in
  let avg f = mean f runs in
  let averages =
    row "Average"
      (avg (fun (_, (sw : Runner.enclave_run), _) -> sw.primitives_pct))
      (avg (fun (_, (sw : Runner.enclave_run), _) -> sw.emeas_pct))
      (avg (fun (_, _, (hw : Runner.enclave_run)) -> hw.primitives_pct))
      (avg (fun (_, _, (hw : Runner.enclave_run)) -> hw.emeas_pct))
  in
  Table.print
    ~headers:[ "benchmark"; "NoCrypto All"; "NoCrypto EMEAS"; "Crypto All"; "Crypto EMEAS" ]
    ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Right; Table.Right ]
    (rows @ [ averages ]);
  note "paper averages: 10.4%% / 7.8%% / 2.5%% / 0.10%%"

let fig8a () =
  section "Fig. 8a: EALLOC vs malloc latency";
  Table.print
    ~headers:[ "size"; "malloc (us)"; "EALLOC (us)"; "overhead" ]
    ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Right ]
    (List.map
       (fun r ->
         [
           Hypertee_util.Units.show_bytes r.Fig8a.size_bytes;
           Table.fmt_f ~digits:1 (r.Fig8a.malloc_ns /. 1e3);
           Table.fmt_f ~digits:1 (r.Fig8a.ealloc_ns /. 1e3);
           Table.pct r.Fig8a.overhead_pct;
         ])
       (Fig8a.run ~ems_kind:Config.Medium ()));
  note "paper: overhead 6.3%% (128 KiB) rising to 49.7%% (2 MiB)"

let fig8b () =
  section "Fig. 8b: MemStream latency with memory encryption + integrity";
  let module M = Hypertee_workloads.Memstream in
  let rows =
    List.map
      (fun size ->
        let r = M.run ~size_bytes:size ~latency:Config.default_latency in
        [
          Hypertee_util.Units.show_bytes size;
          string_of_int r.M.l2_misses;
          Table.fmt_f ~digits:2 (r.M.cycles_plain /. 1e6);
          Table.fmt_f ~digits:2 (r.M.cycles_encrypted /. 1e6);
          Table.pct r.M.overhead_pct;
        ])
      M.paper_sizes
  in
  Table.print
    ~headers:[ "size"; "LLC misses"; "plain (Mcyc)"; "encrypted (Mcyc)"; "overhead" ]
    ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Right; Table.Right ]
    rows;
  note "paper: average 3.1%% on the worst-case streaming workload"

let fig9 () =
  section "Fig. 9: all enclave memory management on wolfSSL";
  let p = Hypertee_workloads.Rv8.wolfssl in
  let model scenario =
    (Perf_model.run Config.cs_core Config.default_latency ~instructions:p.Profile.instructions
       ~behavior:p.Profile.behavior ~scenario)
      .Perf_model.time_ns
  in
  let native = model Perf_model.native in
  let encrypted = model Perf_model.m_encrypt in
  (* Allocation cost relative to the malloc the native run pays. *)
  let cost = Hypertee.Platform.Internals.cost (Hypertee.Platform.create ()) in
  let alloc_delta =
    List.fold_left
      (fun acc (pages, times) ->
        let ealloc = Hypertee_ems.Cost.alloc_ns cost ~pages +. 670.0 in
        let malloc = 25_000.0 +. (float_of_int pages *. 700.0) in
        acc +. (float_of_int times *. Float.max 0.0 (ealloc -. malloc)))
      0.0 p.Profile.dynamic_allocs
  in
  let flush_cost =
    (* pool-batch bitmap flushes during the run *)
    let flushes = Fig11.flushes_per_billion_instructions () *. p.Profile.instructions /. 1e9 in
    flushes *. Perf_model.tlb_refill_cycles Config.cs_core Config.default_latency
    /. Config.cs_core.Config.clock_ghz
  in
  let total = encrypted +. alloc_delta +. flush_cost in
  let overhead = (total /. native -. 1.0) *. 100.0 in
  Table.print
    ~headers:[ "scenario"; "time (ms)"; "overhead" ]
    ~aligns:[ Table.Left; Table.Right; Table.Right ]
    [
      [ "Host-Native"; Table.fmt_f ~digits:2 (native /. 1e6); "-" ];
      [
        "Enclave (encryption+integrity)";
        Table.fmt_f ~digits:2 (encrypted /. 1e6);
        Table.pct ((encrypted /. native -. 1.0) *. 100.0);
      ];
      [ "Enclave (all memory management)"; Table.fmt_f ~digits:2 (total /. 1e6); Table.pct overhead ];
    ];
  note "paper: 0.9%% overall for wolfSSL"

let fig10 () =
  section "Fig. 10: bitmap checking on non-enclave SPEC CPU2017";
  let runs =
    List.map
      (fun p -> (p.Profile.name, (Runner.run_host_bitmap p).Runner.overhead_pct))
      Hypertee_workloads.Spec2017.suite
  in
  let rows = List.map (fun (name, pct) -> [ name; Table.pct pct ]) runs in
  Table.print ~headers:[ "benchmark"; "overhead" ]
    ~aligns:[ Table.Left; Table.Right ]
    (rows @ [ [ "AVERAGE"; Table.pct (mean snd runs) ] ]);
  note "paper: average 1.9%%; xalancbmk_r worst at 4.6%% (TLB-miss heavy)"

let fig11 () =
  section "Fig. 11: TLB-flush overhead on enclaves (miniz) vs context-switch rate";
  let rows = Fig11.run () in
  let headers = "memory" :: List.map (fun f -> Printf.sprintf "%.0f Hz" f) Fig11.paper_frequencies in
  let by_size =
    List.map
      (fun mb ->
        Printf.sprintf "%d MiB" mb
        :: List.filter_map
             (fun r ->
               if r.Fig11.memory_mb = mb then Some (Table.pct r.Fig11.overhead_pct) else None)
             rows)
      Fig11.paper_sizes_mb
  in
  Table.print ~headers
    ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Right; Table.Right ]
    by_size;
  note "paper: <= 1.81%% at 32 MiB / 400 Hz; bitmap updates cause %.1f full flushes"
    (Fig11.flushes_per_billion_instructions ());
  note "per billion instructions (paper: 16.72)"

let fig12 () =
  section "Fig. 12: enclave communication (DNN on Gemmini; NIC)";
  let rows =
    List.map
      (fun net ->
        let r = Comm.run_dnn net in
        [
          r.Comm.network;
          Table.fmt_f ~digits:1 (r.Comm.conventional_total_ns /. 1e6);
          Table.fmt_f ~digits:1 (r.Comm.hypertee_total_ns /. 1e6);
          Table.pct r.Comm.crypto_share_pct;
          Table.speedup r.Comm.speedup;
        ])
      Hypertee_workloads.Dnn.all
  in
  let nic = Comm.run_nic ~packets:100_000 ~payload_bytes:1500 in
  let nic_row =
    [
      "NIC (100k x 1500B)";
      Table.fmt_f ~digits:1 (nic.Comm.conventional_total_ns /. 1e6);
      Table.fmt_f ~digits:1 (nic.Comm.hypertee_total_ns /. 1e6);
      Table.pct nic.Comm.crypto_share_pct;
      Table.speedup nic.Comm.speedup;
    ]
  in
  Table.print
    ~headers:[ "workload"; "conventional (ms)"; "HyperTEE (ms)"; "sw-crypto share"; "speedup" ]
    ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Right; Table.Right ]
    (rows @ [ nic_row ]);
  note "paper: ResNet50 >4.0x (crypto >74.7%%), MobileNet >3.3x, MLPs >27.7x, NIC ~50x (>98%%)"

let table5 () =
  section "Table V: EMS area overhead (TSMC 7nm model)";
  let rows =
    List.map
      (fun (r : Area.report) ->
        [
          string_of_int r.Area.cs_cores;
          Printf.sprintf "%.0f mm2" r.Area.cs_area_mm2;
          Printf.sprintf "%d %s" r.Area.ems_cores (Config.ems_kind_name r.Area.ems_kind);
          Printf.sprintf "%.2f mm2" r.Area.ems_area_mm2;
          Printf.sprintf "%.2f%%" r.Area.overhead_pct;
        ])
      (Area.table_v ())
  in
  Table.print
    ~headers:[ "CS cores"; "CS area"; "EMS cores"; "EMS area"; "overhead" ]
    ~aligns:[ Table.Right; Table.Right; Table.Left; Table.Right; Table.Right ]
    rows;
  note "paper: 0.97%% / 0.46%% / 0.34%% / 0.49%% / 0.25%% — always < 1%%"

let table6 () =
  section "Table VI: defense capability against management-task attacks";
  Table.print
    ~headers:("TEE" :: List.map Security.attack_name Security.all_attacks)
    (Security.table_vi_rows ());
  (* Each cell is also re-derived by executing the mechanism probe
     (Table6_probe); verify live. *)
  let mismatches =
    List.fold_left
      (fun acc tee ->
        List.fold_left
          (fun acc attack ->
            if Table6_probe.derived_capability tee attack <> Security.defends tee attack then
              acc + 1
            else acc)
          acc Security.all_attacks)
      0 Security.all_tees
  in
  note "probed all 45 cells by executing each design's mechanisms: %d mismatch(es)" mismatches;
  note "paper: HyperTEE defends all five classes; others partially or not at all"

(* ------------------------------------------------------------------ *)

let ablations () =
  section "Ablations: what each design choice buys";
  let module A = Ablations in
  let p = A.pool () in
  Table.print
    ~headers:[ "design"; "OS-visible events"; "mean EALLOC (us)" ]
    ~aligns:[ Table.Left; Table.Right; Table.Right ]
    [
      [
        Printf.sprintf "memory pool (per %d allocs)" p.A.allocations;
        string_of_int p.A.os_events_with_pool;
        Table.fmt_f ~digits:1 (p.A.latency_with_pool_ns /. 1e3);
      ];
      [
        "no pool (SGX-like demand)";
        string_of_int p.A.os_events_without_pool;
        Table.fmt_f ~digits:1 (p.A.latency_without_pool_ns /. 1e3);
      ];
    ];
  let th = A.threshold () in
  note "refill-threshold randomization (%d refills observed):" th.A.refills_observed;
  note "  fixed threshold  : inter-refill stddev %.2f allocations (predictable)"
    th.A.fixed_interval_stddev;
  note "  randomized       : inter-refill stddev %.2f allocations" th.A.randomized_interval_stddev;
  let iso = A.isolation () in
  Table.print
    ~headers:[ "isolation scheme"; "regions supported (of needed)" ]
    [
      [
        Printf.sprintf "range registers (%d pairs)" iso.A.range_registers;
        Printf.sprintf "%d of %d" iso.A.range_scheme_supported iso.A.fragmented_regions;
      ];
      [ "HyperTEE bitmap"; Printf.sprintf "%d of %d" iso.A.bitmap_supported iso.A.fragmented_regions ];
    ];
  let sw = A.swap () in
  note "EWB victim selection (%d reclamation trials):" sw.A.trials;
  note "  randomized pool-backed : attacker observed the victim fault %d time(s)"
    sw.A.victim_faults_randomized;
  note "  direct victim swapping : attacker observed the victim fault %d time(s)"
    sw.A.victim_faults_direct

(* ------------------------------------------------------------------ *)

let targets =
  [
    ("table1", table1);
    ("table2", table2);
    ("table3", table3);
    ("fig6", fig6);
    ("fig7", fig7);
    ("table4", table4);
    ("fig8a", fig8a);
    ("fig8b", fig8b);
    ("fig9", fig9);
    ("fig10", fig10);
    ("fig11", fig11);
    ("fig12", fig12);
    ("table5", table5);
    ("table6", table6);
    ("ablations", ablations);
  ]
