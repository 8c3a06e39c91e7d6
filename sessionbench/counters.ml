(* Snapshots of the counters and gauges [Platform.publish_metrics]
   exposes, read by name. *)

module Metrics = Hypertee_obs.Metrics

let snapshot platform =
  let m = Metrics.create () in
  Hypertee.Platform.publish_metrics platform m;
  let tbl = Hashtbl.create 64 in
  List.iter
    (function
      | name :: _ :: _ :: value :: _ -> (
        match float_of_string_opt value with Some v -> Hashtbl.replace tbl name v | None -> ())
      | _ -> ())
    (Metrics.rows m);
  tbl

let get tbl name = Option.value ~default:0.0 (Hashtbl.find_opt tbl name)
let delta ~before ~after name = get after name -. get before name

(* A per-shard counter ([shard<i>.<suffix>]) summed over the shards. *)
let shard_sum tbl ~shards suffix =
  let total = ref 0.0 in
  for i = 0 to shards - 1 do
    total := !total +. get tbl (Printf.sprintf "shard%d.%s" i suffix)
  done;
  !total

let shard_delta ~before ~after ~shards suffix =
  shard_sum after ~shards suffix -. shard_sum before ~shards suffix
