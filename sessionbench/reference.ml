(* Machine-speed reference. On a shared host the processor's speed
   drifts by up to 2x over seconds and whole minutes (neighbours on the
   same cores and caches; the process keeps 100 % of a CPU, so
   scheduler clocks do not show it). During the timed phase this fixed
   loop of the benchmark's own code runs between sessions every
   [interval_ns], and host times are scaled by ([nominal_ns] over the
   loop's time nearby) to the power [elasticity]: they read as on a
   machine where the loop takes [nominal_ns].

   The loop is hash-table inserts and lookups, small strings and list
   cells: the allocation- and pointer-heavy kind of work the simulator
   does, so it slows with the simulator when the host does. It calls
   nothing in the program, so a change to the program cannot move it;
   its data dies young, so the program's heap hardly touches it. *)

let nominal_ns = 200_000.0

(* How much more a session's host time moves than the loop's, in log
   terms, when the host slows. Measured once over 30-second runs (the
   spread across runs was smallest at 1.2-1.3 for cold-launch and
   warm-stream and at 0.8-1.0 for attested-channel) and fixed; it is
   never fitted per run. *)
let elasticity = 1.2

let scale_of loop_ns = (nominal_ns /. loop_ns) ** elasticity

(* Wall time between two runs of the loop. *)
let interval_ns = 25_000_000

(* Runs per scaling block: sessions are scaled by the median loop time
   of their block of runs (about half a second). *)
let per_block = 20

let loop () =
  let h = Hashtbl.create 64 in
  for i = 0 to 1000 do
    Hashtbl.replace h (i * 7919 land 4095) (string_of_int i)
  done;
  let l = ref [] in
  for i = 0 to 1000 do
    l := (i, Hashtbl.find_opt h (i land 4095)) :: !l
  done;
  ignore (Sys.opaque_identity (List.length !l))

(* Host time of one run of the loop, in ns. *)
let time () =
  let start = Probe.now () in
  loop ();
  Probe.now () - start

type t = { mutable samples : int array; mutable n : int; mutable last : int }

let create () = { samples = Array.make 1024 0; n = 0; last = 0 }

(* Called before each session: run and time the loop if [interval_ns]
   has passed since its last run. Returns the session's slot, the
   index of the latest run. *)
let tick t =
  let start = Probe.now () in
  if t.n = 0 || start - t.last >= interval_ns then begin
    if t.n = Array.length t.samples then t.samples <- Array.append t.samples t.samples;
    t.samples.(t.n) <- time ();
    t.n <- t.n + 1;
    t.last <- start
  end;
  t.n - 1

let runs t = t.n

let median a =
  let a = Array.copy a in
  Array.sort compare a;
  let n = Array.length a in
  if n mod 2 = 1 then float_of_int a.(n / 2) else float_of_int (a.((n / 2) - 1) + a.(n / 2)) /. 2.0

(* Median loop time over the whole run, in ns. *)
let median_ns t = if t.n = 0 then nan else median (Array.sub t.samples 0 t.n)

(* Scale for the sessions of [slot], from the median loop time of the
   slot's block. *)
let scales t =
  let blocks = (t.n + per_block - 1) / per_block in
  let per =
    Array.init blocks (fun b ->
        let lo = b * per_block in
        scale_of (median (Array.sub t.samples lo (Stdlib.min per_block (t.n - lo)))))
  in
  fun slot -> per.(slot / per_block)

(* Scale for work about to run (a set-up), from the median of [runs]
   runs of the loop now. *)
let scale_now ?(runs = 9) () = scale_of (median (Array.init runs (fun _ -> time ())))
