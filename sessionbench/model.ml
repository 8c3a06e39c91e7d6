(* The modelled clock: the same queue model as [Cloud]. Each
   EMS shard is an FCFS single server in virtual time; a session
   arrives at its open-loop arrival time and issues its EMCalls one
   after another, each occupying its shard for the modelled round trip
   [invoke_timed] returned. Latency is completion minus arrival. *)

module Engine = Hypertee_sim.Engine
module Resource = Hypertee_sim.Resource

type session = {
  arrival_ns : float;
  shards : int array;  (** serving shard of each call, in issue order *)
  service_ns : float array;  (** modelled round trip of each call *)
}

(* Latency of every session (ns, in input order) and the number of
   events the engine processed. *)
let latencies ~shards sessions =
  let engine = Engine.create () in
  let servers = Array.init shards (fun _ -> Resource.create engine ~servers:1) in
  let lat = Array.make (Array.length sessions) 0.0 in
  Array.iteri
    (fun i s ->
      Engine.at engine ~time:s.arrival_ns (fun _ ->
          let rec issue k =
            if k = Array.length s.shards then lat.(i) <- Engine.now engine -. s.arrival_ns
            else
              Resource.submit servers.(s.shards.(k)) ~service_ns:s.service_ns.(k)
                ~on_done:(fun ~queued_ns:_ ~total_ns:_ -> issue (k + 1))
          in
          issue 0))
    sessions;
  ignore (Engine.run engine);
  (lat, Engine.processed engine)

(* Utilisation of the busiest shard at [offered_per_s]: the offered
   work per second of virtual time on that shard. *)
let utilisation ~shards ~offered_per_s sessions =
  let busy = Array.make shards 0.0 in
  Array.iter (fun s -> Array.iteri (fun k sh -> busy.(sh) <- busy.(sh) +. s.service_ns.(k)) s.shards) sessions;
  let n = float_of_int (Stdlib.max 1 (Array.length sessions)) in
  Array.fold_left Stdlib.max 0.0 busy /. n *. offered_per_s /. 1e9
