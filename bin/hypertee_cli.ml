(* hypertee: command-line front end for the simulator.

   Subcommands:
     info                     platform and configuration summary
     demo                     run the full enclave-lifecycle demo
     attest                   run remote attestation end to end
     cost <primitive>         service-time breakdown on each EMS core
     slo                      the Fig. 6 queueing experiment for one setup
     paper [target]           the paper's Sec. VII tables and figures
     chaos                    fault-injection availability sweep
     scale                    CS cores x EMS shards x batch-size sweep
     cloud                    multi-tenant enclave-as-a-service SLO sweep
     check                    invariant sweep and differential EMCall oracle
     trace <experiment>       traced run exported as Chrome trace_event JSON
     metrics                  platform metrics registry after a mixed workload
     conformance              secure-channel protocol conformance vectors
     perf                     host-time data-plane benchmark and regression guard *)

open Cmdliner
module Types = Hypertee_ems.Types
module Config = Hypertee_arch.Config
module Table = Hypertee_util.Table

let seed_arg =
  let doc = "Deterministic platform seed." in
  Arg.(value & opt int 0x5EED & info [ "seed" ] ~docv:"SEED" ~doc)

let platform_of_seed seed = Hypertee.Platform.create ~seed:(Int64.of_int seed) ()

(* --- info --- *)

let info_cmd =
  let run seed =
    let platform = platform_of_seed seed in
    let config = Hypertee.Platform.config platform in
    Printf.printf "HyperTEE platform (seed %#x)\n" seed;
    Printf.printf "  CS cores       : %d x %s\n" config.Config.cs_cores Config.cs_core.Config.name;
    Printf.printf "  EMS cores      : %d x %s\n" config.Config.ems_cores
      (Config.ems_core config.Config.ems_kind).Config.name;
    Printf.printf "  memory         : %d MiB CS + %d MiB EMS private\n" config.Config.memory_mb
      config.Config.ems_memory_mb;
    Printf.printf "  crypto engine  : %b\n" config.Config.crypto_engine;
    Printf.printf "  platform hash  : %s\n"
      (Hypertee_util.Bytes_ext.to_hex (Hypertee.Platform.platform_measurement platform));
    Printf.printf "  EK public      : %s...\n"
      (String.sub
         (Hypertee_util.Bytes_ext.to_hex
            (Hypertee_crypto.Rsa.public_to_bytes (Hypertee.Platform.ek_public platform)))
         0 32)
  in
  Cmd.v (Cmd.info "info" ~doc:"Show the platform configuration")
    Term.(const run $ seed_arg)

(* --- demo --- *)

let demo_cmd =
  let run seed =
    let platform = platform_of_seed seed in
    let image =
      Hypertee.Sdk.image_of_code ~code:(Bytes.of_string "demo enclave")
        ~data:(Bytes.of_string "demo data") ()
    in
    match Hypertee.Sdk.launch platform image with
    | Error m -> `Error (false, m)
    | Ok enclave -> (
      Printf.printf "enclave %d launched (measurement verified)\n" enclave;
      match Hypertee.Sdk.enter platform ~enclave with
      | Error m -> `Error (false, m)
      | Ok session ->
        Hypertee.Session.write session ~va:(Hypertee.Session.heap_va session)
          (Bytes.of_string "hello");
        Printf.printf "encrypted heap write/read: %S\n"
          (Bytes.to_string
             (Hypertee.Session.read session ~va:(Hypertee.Session.heap_va session) ~len:5));
        (match Hypertee.Session.alloc_timed session ~pages:4 with
        | Ok (va, latency_ns) ->
          Printf.printf "EALLOC -> va %#x (%.1f us round trip)\n" va (latency_ns /. 1e3)
        | Error e -> Printf.printf "EALLOC failed: %s\n" (Types.error_message e));
        (match Hypertee.Sdk.destroy platform ~enclave with
        | Ok () -> print_endline "enclave destroyed"
        | Error m -> Printf.printf "destroy failed: %s\n" m);
        `Ok ())
  in
  Cmd.v (Cmd.info "demo" ~doc:"Run the enclave lifecycle demo")
    Term.(ret (const run $ seed_arg))

(* --- attest --- *)

let attest_cmd =
  let run seed =
    let platform = platform_of_seed seed in
    let image = Hypertee.Sdk.image_of_code ~code:(Bytes.of_string "attested code") ~data:Bytes.empty () in
    match Hypertee.Sdk.launch platform image with
    | Error m -> `Error (false, m)
    | Ok enclave -> (
      let expected_measurement = Hypertee.Sdk.expected_measurement image in
      match
        Hypertee.Secure_channel.establish platform ~listener:enclave ~expected_measurement ()
      with
      | Ok (client, server) ->
        Printf.printf "attestation OK\n  enclave measurement: %s\n  secure channel     : %d\n"
          (Hypertee_util.Bytes_ext.to_hex expected_measurement)
          (Hypertee.Secure_channel.chan client);
        ignore (Hypertee.Secure_channel.close client);
        ignore (Hypertee.Secure_channel.close server);
        `Ok ()
      | Error m -> `Error (false, m))
  in
  Cmd.v (Cmd.info "attest" ~doc:"Run remote attestation end to end")
    Term.(ret (const run $ seed_arg))

(* --- cost --- *)

let cost_cmd =
  let primitive_arg =
    let doc = "Primitive name (e.g. EALLOC, ECREATE, EATTEST)." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"PRIMITIVE" ~doc)
  in
  let pages_arg =
    let doc = "Page count for size-dependent primitives." in
    Arg.(value & opt int 16 & info [ "pages" ] ~docv:"N" ~doc)
  in
  let run name pages =
    let name = String.uppercase_ascii name in
    match List.find_opt (fun op -> Types.opcode_name op = name) Types.all_opcodes with
    | None -> `Error (false, "unknown primitive " ^ name)
    | Some op ->
      let request : Types.request =
        match op with
        | Types.ECREATE -> Types.Create { config = Types.default_config }
        | Types.EADD -> Types.Add { enclave = 1; vpn = 0; data = Bytes.create 4096; executable = false }
        | Types.EENTER -> Types.Enter { enclave = 1 }
        | Types.ERESUME -> Types.Resume { enclave = 1 }
        | Types.EEXIT -> Types.Exit { enclave = 1 }
        | Types.EDESTROY -> Types.Destroy { enclave = 1 }
        | Types.EALLOC -> Types.Alloc { enclave = 1; pages }
        | Types.EFREE -> Types.Free { enclave = 1; vpn = 0; pages }
        | Types.EWB -> Types.Writeback { pages_hint = pages }
        | Types.ESHMGET -> Types.Shmget { owner = 1; pages; max_perm = Types.Read_write }
        | Types.ESHMAT -> Types.Shmat { enclave = 1; shm = 1; requested_perm = Types.Read_write }
        | Types.ESHMDT -> Types.Shmdt { enclave = 1; shm = 1 }
        | Types.ESHMSHR -> Types.Shmshr { owner = 1; shm = 1; grantee = 2; perm = Types.Read_only }
        | Types.ESHMDES -> Types.Shmdes { owner = 1; shm = 1 }
        | Types.EMEAS -> Types.Measure { enclave = 1 }
        | Types.EATTEST -> Types.Attest { enclave = 1; user_data = Bytes.empty }
        | Types.ECHOPEN -> Types.Chan_open { listener = 1 }
        | Types.ECHACC -> Types.Chan_accept { enclave = 1; chan = 1 }
        | Types.ECHSEND -> Types.Chan_send { chan = 1; seg = Bytes.create 256 }
        | Types.ECHRECV -> Types.Chan_recv { chan = 1 }
        | Types.ECHCLOSE -> Types.Chan_close { chan = 1 }
        | Types.ERETIRE -> Types.Retire { enclave = 1 }
        | Types.EWARM -> Types.Warm_create { measurement = Bytes.create 32 }
      in
      let rows =
        List.concat_map
          (fun kind ->
            List.map
              (fun engine_on ->
                let engine =
                  if engine_on then Hypertee_crypto.Engine.default_hardware
                  else Hypertee_crypto.Engine.default_software
                in
                let cost = Hypertee_ems.Cost.create ~ems:(Config.ems_core kind) ~engine in
                [
                  Config.ems_kind_name kind;
                  (if engine_on then "hw" else "sw");
                  Hypertee_util.Units.show_ns (Hypertee_ems.Cost.service_ns cost request);
                ])
              [ true; false ])
          [ Config.Weak; Config.Medium; Config.Strong ]
      in
      Table.print ~headers:[ "EMS core"; "crypto"; "service time" ] rows;
      `Ok ()
  in
  Cmd.v (Cmd.info "cost" ~doc:"Service-time of a primitive on each EMS configuration")
    Term.(ret (const run $ primitive_arg $ pages_arg))

(* --- slo --- *)

let slo_cmd =
  let cs_arg = Arg.(value & opt int 32 & info [ "cs-cores" ] ~docv:"N" ~doc:"CS core count.") in
  let ems_arg = Arg.(value & opt int 2 & info [ "ems-cores" ] ~docv:"N" ~doc:"EMS core count.") in
  let kind_arg =
    let kinds = [ ("weak", Config.Weak); ("medium", Config.Medium); ("strong", Config.Strong) ] in
    Arg.(value & opt (enum kinds) Config.Medium & info [ "ems-kind" ] ~docv:"KIND" ~doc:"EMS core kind.")
  in
  let requests_arg =
    Arg.(value & opt int 16384 & info [ "requests" ] ~docv:"N" ~doc:"Allocation primitives to issue.")
  in
  let run seed cs_cores ems_cores kind requests =
    let c =
      Hypertee_experiments.Fig6.run ~seed:(Int64.of_int seed) ~cs_cores ~ems_cores ~ems_kind:kind
        ~requests
    in
    Printf.printf "%d CS cores against %d %s EMS core(s), %d requests\n" cs_cores ems_cores
      (Config.ems_kind_name kind) requests;
    Printf.printf "baseline (non-enclave p99): %s\n"
      (Hypertee_util.Units.show_ns c.Hypertee_experiments.Fig6.baseline_ns);
    Printf.printf "p99 latency: %.2fx baseline\n" c.Hypertee_experiments.Fig6.p99_multiplier;
    List.iter
      (fun (x, frac) ->
        if List.mem x [ 1.0; 2.0; 4.0; 8.0 ] then
          Printf.printf "  resolved within %4.1fx baseline: %5.1f%%\n" x (100.0 *. frac))
      c.Hypertee_experiments.Fig6.points
  in
  Cmd.v (Cmd.info "slo" ~doc:"Run the Fig. 6 concurrent-primitive SLO experiment")
    Term.(const run $ seed_arg $ cs_arg $ ems_arg $ kind_arg $ requests_arg)

(* --- paper --- *)

let paper_cmd =
  let target_arg =
    let targets = Hypertee_experiments.Paper.targets in
    let doc =
      "Table or figure to print: " ^ String.concat ", " (List.map fst targets)
      ^ ". Prints all of them, in this order, when omitted."
    in
    Arg.(value & pos 0 (some (enum targets)) None & info [] ~docv:"TARGET" ~doc)
  in
  let run = function
    | Some render -> render ()
    | None -> List.iter (fun (_, render) -> render ()) Hypertee_experiments.Paper.targets
  in
  Cmd.v
    (Cmd.info "paper" ~doc:"Reproduce the paper's evaluation tables and figures (Sec. VII)")
    Term.(const run $ target_arg)

(* --- chaos --- *)

let chaos_cmd =
  let ops_arg =
    Arg.(value & opt int 2000 & info [ "ops" ] ~docv:"N" ~doc:"EMCall invocations per sweep point.")
  in
  let smoke_arg =
    Arg.(value & flag & info [ "smoke" ] ~doc:"Quick sweep (300 ops per point).")
  in
  let rolling_arg =
    Arg.(
      value & flag
      & info [ "rolling" ]
          ~doc:
            "Run only the rolling-restart scenario: kill and cold-restart every EMS shard \
             under live traffic, verify zero lost enclaves and a clean end-of-run deep \
             invariant sweep. Exits nonzero on any loss, divergence or violation.")
  in
  let table_arg =
    Arg.(
      value & opt (some string) None
      & info [ "table" ] ~docv:"FILE"
          ~doc:"Also write the rolling-restart report table to $(docv).")
  in
  let run seed ops smoke rolling table =
    let ops = if smoke then 300 else ops in
    let seed = Int64.of_int seed in
    let rolling_pass ~ops =
      let r = Hypertee_experiments.Chaos.rolling_restart ~seed ~ops () in
      Hypertee_experiments.Chaos.print_restart r;
      (match table with
      | None -> ()
      | Some path ->
        let ch = open_out path in
        Hypertee_experiments.Chaos.print_restart ~out:ch r;
        close_out ch;
        Printf.printf "wrote rolling-restart table to %s\n" path);
      r
    in
    if rolling then begin
      Printf.printf "rolling restart: ops=%d, seed=%Ld\n" ops seed;
      let r = rolling_pass ~ops in
      if not (Hypertee_experiments.Chaos.restart_clean r) then Stdlib.exit 1
    end
    else begin
      Printf.printf "chaos sweep: ops=%d per point, seed=%Ld\n" ops seed;
      Printf.printf
        "recovery machinery: EMCall retry/timeout, EMS watchdog, integrity containment\n";
      Hypertee_experiments.Chaos.print (Hypertee_experiments.Chaos.run ~seed ~ops);
      Printf.printf "\nrolling restart (quick pass): ops=%d\n"
        Hypertee_experiments.Chaos.restart_default_ops;
      let r = rolling_pass ~ops:Hypertee_experiments.Chaos.restart_default_ops in
      if not (Hypertee_experiments.Chaos.restart_clean r) then Stdlib.exit 1
    end
  in
  Cmd.v
    (Cmd.info "chaos" ~doc:"Availability sweep under deterministic fault injection")
    Term.(const run $ seed_arg $ ops_arg $ smoke_arg $ rolling_arg $ table_arg)

(* --- scale --- *)

let scale_cmd =
  let ops_arg =
    Arg.(value & opt int 256 & info [ "ops" ] ~docv:"N" ~doc:"EALLOC primitives per grid point.")
  in
  let smoke_arg = Arg.(value & flag & info [ "smoke" ] ~doc:"Quick sweep (64 ops per point).") in
  let run seed ops smoke =
    let ops = if smoke then 64 else ops in
    let seed = Int64.of_int seed in
    Printf.printf "scalability sweep: ops=%d per point, seed=%Ld\n" ops seed;
    Printf.printf "one doorbell drains a batch; EMS shards serve disjoint enclave id classes\n";
    Hypertee_experiments.Scale.print ~seed ~ops ();
    print_newline ();
    Hypertee_experiments.Scale.print_rebalance
      (Hypertee_experiments.Scale.rebalance ~seed ~ops ())
  in
  Cmd.v
    (Cmd.info "scale"
       ~doc:"Scalability sweep: CS cores x EMS shards x doorbell batch size")
    Term.(const run $ seed_arg $ ops_arg $ smoke_arg)

(* --- cloud --- *)

let cloud_cmd =
  let quick_arg =
    Arg.(value & flag & info [ "quick" ] ~doc:"CI-sized sweep (fewer sessions, shorter ladder).")
  in
  let json_arg =
    Arg.(
      value & opt (some string) None
      & info [ "json" ] ~docv:"FILE" ~doc:"Write the SLO curves as JSON (BENCH_cloud.json).")
  in
  let run seed quick json =
    let seed = Int64.of_int seed in
    Printf.printf "enclave-as-a-service sweep: seed=%Ld%s\n" seed
      (if quick then " (quick)" else "");
    Printf.printf
      "sessions: EWARM warm pool (cold launch on miss) -> attest -> secure channel -> ERETIRE\n";
    let outcome = Hypertee_experiments.Cloud.run ~seed ~quick () in
    Hypertee_experiments.Cloud.print outcome;
    (match json with
    | None -> ()
    | Some path ->
      let oc = open_out path in
      output_string oc (Hypertee_experiments.Cloud.json_of_outcome outcome);
      close_out oc;
      Printf.printf "wrote SLO curves to %s\n" path);
    if not (Hypertee_experiments.Cloud.clean outcome) then begin
      prerr_endline "cloud: invariant violations or oracle divergences under churn";
      Stdlib.exit 1
    end
  in
  Cmd.v
    (Cmd.info "cloud"
       ~doc:
         "Multi-tenant enclave-as-a-service load sweep: SLO curves, admission control, warm \
          pool")
    Term.(const run $ seed_arg $ quick_arg $ json_arg)

(* --- check --- *)

let check_cmd =
  let deep_arg =
    Arg.(
      value & flag
      & info [ "deep" ] ~doc:"Also MAC-verify every mapped enclave and shared page.")
  in
  let calls_arg =
    Arg.(
      value & opt int 1200
      & info [ "calls" ] ~docv:"N" ~doc:"EMCalls per oracle replay (clean and fault-injected).")
  in
  let seeds_arg =
    Arg.(
      value & opt int 24
      & info [ "seeds" ] ~docv:"N" ~doc:"Interleaving-explorer scenarios to run.")
  in
  let run deep calls seeds =
    if not (Hypertee_experiments.Verify.run ~deep ~calls ~seeds ()) then Stdlib.exit 1
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Verify platform invariants and replay the EMCall stream against a differential \
          oracle")
    Term.(const run $ deep_arg $ calls_arg $ seeds_arg)

(* --- trace --- *)

let trace_cmd =
  let target_arg =
    let doc =
      "Experiment to trace: " ^ String.concat ", " Hypertee_experiments.Tracing.target_names ^ "."
    in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"EXPERIMENT" ~doc)
  in
  let quick_arg = Arg.(value & flag & info [ "quick" ] ~doc:"CI-sized workload.") in
  let out_arg =
    Arg.(value & opt string "trace.json" & info [ "out"; "o" ] ~docv:"FILE"
           ~doc:"Where to write the Chrome trace_event JSON.")
  in
  let run seed target quick path =
    match Hypertee_experiments.Tracing.target_of_string target with
    | None ->
      `Error
        (false,
         Printf.sprintf "unknown experiment %S (one of: %s)" target
           (String.concat ", " Hypertee_experiments.Tracing.target_names))
    | Some t ->
      ignore (Hypertee_experiments.Tracing.run ~quick ~seed:(Int64.of_int seed) ~path t);
      Printf.printf "load %s in chrome://tracing or ui.perfetto.dev\n" path;
      `Ok ()
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Run an experiment under the span tracer and export Chrome trace_event JSON")
    Term.(ret (const run $ seed_arg $ target_arg $ quick_arg $ out_arg))

(* --- conformance --- *)

let conformance_cmd =
  let run () =
    let outcomes = Hypertee_channel.Conformance.run () in
    print_string (Hypertee_channel.Conformance.render outcomes);
    if Hypertee_channel.Conformance.all_ok outcomes then `Ok ()
    else `Error (false, "conformance vectors failed")
  in
  Cmd.v
    (Cmd.info "conformance"
       ~doc:
         "Run the secure-channel protocol conformance vectors (docs/PROTOCOL.md \xC2\xA77): \
          canned handshake flights, record round trips, and every malformed-input rejection")
    Term.(ret (const run $ const ()))

(* --- metrics --- *)

let metrics_cmd =
  let ops_arg =
    Arg.(value & opt int 400 & info [ "ops" ] ~docv:"N" ~doc:"Mixed primitives to issue.")
  in
  let json_arg =
    Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE"
           ~doc:"Also write the registry as JSON to $(docv).")
  in
  let run seed ops json =
    ignore (Hypertee_experiments.Tracing.metrics ~seed:(Int64.of_int seed) ~ops ?json ())
  in
  Cmd.v
    (Cmd.info "metrics"
       ~doc:"Run a mixed workload and print the platform metrics registry")
    Term.(const run $ seed_arg $ ops_arg $ json_arg)

(* --- perf --- *)

let perf_cmd =
  let quick_arg =
    Arg.(value & flag & info [ "quick" ] ~doc:"Smaller sampling budgets and sweep.")
  in
  let json_arg =
    Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE"
           ~doc:"Also write the samples to $(docv) as a JSON object: a host block and \
                 the sample list.")
  in
  let baseline_arg =
    Arg.(
      value & opt (some non_dir_file) None
      & info [ "baseline" ] ~docv:"FILE"
          ~doc:
            "Compare the fresh speedup-vs-reference ratios (a floor) and the modelled \
             p99 latency (a ceiling) against the samples in $(docv) (a previously written \
             perf JSON) and exit non-zero on a regression beyond the tolerance, or on a \
             gated row of $(docv) the fresh run did not produce. Raw MB/s is not gated: it \
             is machine-dependent, the ratios are not. A missing $(docv) is a command-line \
             error.")
  in
  let tolerance_arg =
    Arg.(
      value & opt float 30.0
      & info [ "tolerance" ] ~docv:"PCT"
          ~doc:
            "Allowed drop (percent) of a speedup ratio below the baseline, or rise of the \
             p99 latency above it, before --baseline fails, absorbing benchmark noise.")
  in
  let run quick json baseline tolerance =
    Printf.printf "host-time data-plane benchmark (%s budgets, medians of single calls)\n"
      (if quick then "quick" else "full");
    (* Load the baseline up front: --json and --baseline may name the
       same file (refreshing the committed numbers while gating
       against the old ones). *)
    let baseline_samples =
      Option.map (fun path -> (path, Hypertee_experiments.Perf.load_baseline ~path)) baseline
    in
    let samples = Hypertee_experiments.Perf.run ~quick () in
    Hypertee_experiments.Perf.print samples;
    (match json with
    | None -> ()
    | Some path ->
      Hypertee_experiments.Perf.write_json ~path samples;
      Printf.printf "wrote %d samples to %s\n" (List.length samples) path);
    match baseline_samples with
    | None -> ()
    | Some (path, base) -> (
      match
        Hypertee_experiments.Perf.compare_to_baseline ~baseline:base ~tolerance_pct:tolerance
          samples
      with
      | [] -> Printf.printf "perf guard: gated rows within %.0f%% of %s\n" tolerance path
      | regs ->
        List.iter
          (fun { Hypertee_experiments.Perf.r_target; r_metric; r_baseline; r_current } ->
            match r_current with
            | Some v ->
              Printf.printf "perf guard: REGRESSION %s %s: %.2f -> %.2f (tolerance %.0f%%)\n"
                r_target r_metric r_baseline v tolerance
            | None ->
              Printf.printf "perf guard: MISSING %s %s: %.2f in the baseline, not measured\n"
                r_target r_metric r_baseline)
          regs;
        exit 1)
  in
  Cmd.v
    (Cmd.info "perf"
       ~doc:"Host-time microbenchmarks of the crypto data plane, medians of single calls")
    Term.(const run $ quick_arg $ json_arg $ baseline_arg $ tolerance_arg)

let () =
  let doc = "HyperTEE: a decoupled TEE architecture simulator (MICRO 2024 reproduction)" in
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  exit
    (Cmd.eval
       (Cmd.group ~default
          (Cmd.info "hypertee" ~version:"1.0.0" ~doc)
          [
            info_cmd; demo_cmd; attest_cmd; cost_cmd; slo_cmd; paper_cmd; chaos_cmd; scale_cmd;
            cloud_cmd; check_cmd; trace_cmd; metrics_cmd; conformance_cmd; perf_cmd;
          ]))
