module Edge_set = Set.Make (struct
  type t = int * int

  let compare = compare
end)

module Int_set = Set.Make (Int)

type policy = { edges : Edge_set.t; indirect_targets : Int_set.t }

let policy ~edges ~indirect_targets =
  { edges = Edge_set.of_list edges; indirect_targets = Int_set.of_list indirect_targets }

type verdict = Clean of int | Violation of { from_pc : int; to_pc : int } | Buffer_overflow

type monitored = {
  policy : policy;
  buffer : (int * int) Hypertee_util.Ring_queue.t;
  mutable overflowed : bool;
}

type t = {
  buffer_capacity : int;
  enclaves : (Types.enclave_id, monitored) Hashtbl.t;
  mutable violations : int;
}

let create ?(buffer_capacity = 1024) () =
  { buffer_capacity; enclaves = Hashtbl.create 8; violations = 0 }

let register t ~enclave policy =
  Hashtbl.replace t.enclaves enclave
    {
      policy;
      buffer = Hypertee_util.Ring_queue.create ~capacity:t.buffer_capacity;
      overflowed = false;
    }

let record_transfer t ~enclave ~from_pc ~to_pc =
  match Hashtbl.find_opt t.enclaves enclave with
  | None -> () (* unmonitored enclave: the hardware feature is off *)
  | Some st ->
    if not (Hypertee_util.Ring_queue.push st.buffer (from_pc, to_pc)) then st.overflowed <- true

let allowed policy ~from_pc ~to_pc =
  Edge_set.mem (from_pc, to_pc) policy.edges || Int_set.mem to_pc policy.indirect_targets

let monitor t ~enclave =
  match Hashtbl.find_opt t.enclaves enclave with
  | None -> Clean 0
  | Some st ->
    if st.overflowed then begin
      (* Losing trace means losing the guarantee: treat as violation
         (the paper's conservative choice — terminate). *)
      st.overflowed <- false;
      Hypertee_util.Ring_queue.clear st.buffer;
      t.violations <- t.violations + 1;
      Buffer_overflow
    end
    else begin
      let rec drain checked =
        match Hypertee_util.Ring_queue.pop st.buffer with
        | None -> Clean checked
        | Some (from_pc, to_pc) ->
          if allowed st.policy ~from_pc ~to_pc then drain (checked + 1)
          else begin
            Hypertee_util.Ring_queue.clear st.buffer;
            t.violations <- t.violations + 1;
            Violation { from_pc; to_pc }
          end
      in
      drain 0
    end

let violations t = t.violations

let pending t ~enclave =
  match Hashtbl.find_opt t.enclaves enclave with
  | Some st -> Hypertee_util.Ring_queue.length st.buffer
  | None -> 0
