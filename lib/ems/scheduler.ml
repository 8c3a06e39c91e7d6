module Fault = Hypertee_faults.Fault

(* [enclave] is the ordering key: jobs for one enclave keep their
   arrival order through a dispatch; [None] (e.g. ECREATE, which has
   no id yet) orders against nothing. *)
type job = { id : int; enclave : int option; run : unit -> unit }

type watchdog_report = { dead_workers : int; redispatched : int list }

type t = {
  rng : Hypertee_util.Xrng.t;
  workers : int;
  track : int; (* trace row: the owning shard's EMS track *)
  alive : bool array;
  mutable queue : job list; (* reversed arrival order *)
  mutable parked : job list; (* in-flight on dead/stalled workers *)
  mutable log : (int * int) list; (* reversed execution order *)
  mutable executed : int;
  mutable crashes : int;
  mutable stalls : int;
  mutable restarts : int;
  mutable faults : Fault.t option;
}

let create ?(track = 0) rng ~workers =
  if workers < 1 then invalid_arg "Scheduler.create: need at least one worker";
  {
    rng;
    workers;
    track;
    alive = Array.make workers true;
    queue = [];
    parked = [];
    log = [];
    executed = 0;
    crashes = 0;
    stalls = 0;
    restarts = 0;
    faults = None;
  }

let workers t = t.workers
let set_fault_injector t inj = t.faults <- Some inj
let submit t ?enclave ~id run = t.queue <- { id; enclave; run } :: t.queue
let pending t = List.length t.queue + List.length t.parked
let alive_workers t = Array.fold_left (fun acc a -> if a then acc + 1 else acc) 0 t.alive

(* Does the injected fault plan take this worker down before the job
   completes? A crash loses the job with the worker; a stall wedges
   the worker with the job still in hand. Either way the job is
   parked for the watchdog, which re-dispatches it under its original
   request id so the request/response binding survives. *)
let strike t =
  match t.faults with
  | None -> `Run
  | Some inj ->
    if Fault.fire inj Fault.Worker_crash then `Crash
    else if Fault.fire inj Fault.Worker_stall then `Stall
    else `Run

(* Randomized dispatch order (Sec. III-C): neither arrival order nor
   anything the submitter controls decides which enclave goes next.
   The shuffle permutes positions; each enclave's positions are then
   refilled with that enclave's own jobs in arrival order, so an
   EMEAS or EDESTROY never overtakes the EADDs before it. A batch with
   at most one job per enclave keeps the shuffled order unchanged. *)
let dispatch_order arrivals rng =
  let batch = Array.copy arrivals in
  Hypertee_util.Xrng.shuffle rng batch;
  let fifo = Hashtbl.create 16 in
  Array.iter
    (fun job ->
      Option.iter
        (fun e ->
          match Hashtbl.find_opt fifo e with
          | Some q -> Queue.push job q
          | None ->
            let q = Queue.create () in
            Queue.push job q;
            Hashtbl.replace fifo e q)
        job.enclave)
    arrivals;
  Array.iteri
    (fun i job ->
      Option.iter (fun e -> batch.(i) <- Queue.pop (Hashtbl.find fifo e)) job.enclave)
    batch;
  batch

let dispatch t =
  let batch = dispatch_order (Array.of_list (List.rev t.queue)) t.rng in
  t.queue <- [];
  let ran = ref 0 in
  Array.iteri
    (fun i job ->
      if alive_workers t = 0 then
        (* Every worker is down: the job waits for the watchdog. *)
        t.parked <- job :: t.parked
      else begin
        (* Round-robin over the workers that are still alive. *)
        let rec pick w = if t.alive.(w) then w else pick ((w + 1) mod t.workers) in
        let worker = pick (i mod t.workers) in
        match strike t with
        | `Crash ->
          t.alive.(worker) <- false;
          t.crashes <- t.crashes + 1;
          t.parked <- job :: t.parked;
          if Hypertee_obs.Trace.enabled () then
            Hypertee_obs.Trace.instant ~track:t.track ~cat:Hypertee_obs.Trace.Sched
              ~name:"sched:crash" ~request_id:job.id ()
        | `Stall ->
          t.alive.(worker) <- false;
          t.stalls <- t.stalls + 1;
          t.parked <- job :: t.parked;
          if Hypertee_obs.Trace.enabled () then
            Hypertee_obs.Trace.instant ~track:t.track ~cat:Hypertee_obs.Trace.Sched
              ~name:"sched:stall" ~request_id:job.id ()
        | `Run ->
          job.run ();
          incr ran;
          t.executed <- t.executed + 1;
          t.log <- (job.id, worker) :: t.log
      end)
    batch;
  !ran

let watchdog_scan t =
  let dead = t.workers - alive_workers t in
  if dead = 0 && t.parked = [] then { dead_workers = 0; redispatched = [] }
  else begin
    Array.fill t.alive 0 t.workers true;
    t.restarts <- t.restarts + dead;
    if dead > 0 && Hypertee_obs.Trace.enabled () then
      Hypertee_obs.Trace.instant ~track:t.track ~cat:Hypertee_obs.Trace.Sched
        ~name:"sched:watchdog-restart" ();
    let recovered = List.rev t.parked in
    t.parked <- [];
    (* Re-dispatch under the original ids: prepend so the recovered
       jobs keep their arrival position relative to new submissions. *)
    t.queue <- t.queue @ List.rev recovered;
    { dead_workers = dead; redispatched = List.map (fun j -> j.id) recovered }
  end

let execution_log t = List.rev t.log
let log_length t = List.length t.log
let executed t = t.executed
let crashes t = t.crashes
let stalls t = t.stalls
let restarts t = t.restarts

let publish_metrics t ~prefix registry =
  let module M = Hypertee_obs.Metrics in
  let set name help v = M.set_counter (M.counter registry ~help (prefix ^ name)) v in
  set "executed" "jobs run to completion" t.executed;
  set "crashes" "worker crashes injected" t.crashes;
  set "stalls" "worker stalls injected" t.stalls;
  set "restarts" "watchdog worker restarts" t.restarts;
  M.set_gauge (M.gauge registry ~help:"jobs queued or parked" (prefix ^ "pending"))
    (float_of_int (pending t))
