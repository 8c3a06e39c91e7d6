let now () = Int64.to_int (Monotonic_clock.now ())

let timed f () =
  let t0 = now () in
  f ();
  now () - t0

let min_rounds = 5

let sample ~budget_ns steps =
  Array.iter (fun step -> ignore (step () : int)) steps;
  let stats = Array.map (fun _ -> Hypertee_util.Stats.create ()) steps in
  let spent = ref 0 and rounds = ref 0 in
  while !rounds < min_rounds || !spent < budget_ns do
    Array.iteri
      (fun i step ->
        let ns = step () in
        Hypertee_util.Stats.add stats.(i) (float_of_int ns);
        spent := !spent + ns)
      steps;
    incr rounds
  done;
  stats
