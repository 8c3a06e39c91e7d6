type t = {
  mutable sk : bytes; (* symmetric root, 32 bytes *)
  ek : Hypertee_crypto.Rsa.keypair;
  ak : Hypertee_crypto.Rsa.keypair;
  mutable ek_memo : (bytes * bytes) option; (* last (message, EK signature) *)
}

let provision rng =
  let sk = Hypertee_util.Xrng.bytes rng 32 in
  let ek = Hypertee_crypto.Rsa.generate rng in
  (* AK is derived from SK and a random salt (Sec. VI); we seed an
     RSA keypair deterministically from that derivation. *)
  let salt = Hypertee_util.Xrng.bytes rng 16 in
  let ak_seed = Hypertee_crypto.Hmac.derive ~ikm:sk ~salt ~info:"hypertee-ak-seed" 8 in
  let ak_rng = Hypertee_util.Xrng.create (Hypertee_util.Bytes_ext.get_u64_le ak_seed 0) in
  let ak = Hypertee_crypto.Rsa.generate ak_rng in
  { sk; ek; ak; ek_memo = None }

let ek_public t = t.ek.Hypertee_crypto.Rsa.public
let ak_public t = t.ak.Hypertee_crypto.Rsa.public

(* Every quote's EK signature covers the platform's constant
   measurement and PKCS#1 v1.5 signing is deterministic, so one memo
   entry signs the certificate once per platform. Copies keep the
   memo immune to callers mutating what they passed or got back. *)
let sign_with_ek t msg =
  match t.ek_memo with
  | Some (m, s) when Bytes.equal m msg -> Bytes.copy s
  | _ ->
    let s = Hypertee_crypto.Rsa.sign t.ek msg in
    t.ek_memo <- Some (Bytes.copy msg, Bytes.copy s);
    s

let sign_with_ak t msg = Hypertee_crypto.Rsa.sign t.ak msg

let derive t ~info ~context len =
  Hypertee_crypto.Hmac.derive ~ikm:t.sk ~salt:context ~info len

let int_bytes v =
  let b = Bytes.create 8 in
  Hypertee_util.Bytes_ext.set_u64_le b 0 (Int64.of_int v);
  b

let memory_key t ~enclave_measurement ~enclave_id =
  derive t ~info:"hypertee-memory-key"
    ~context:(Bytes.cat enclave_measurement (int_bytes enclave_id))
    16

let shm_key t ~owner ~shm_id =
  derive t ~info:"hypertee-shm-key" ~context:(Bytes.cat (int_bytes owner) (int_bytes shm_id)) 16

let channel_binding t ~chan ~listener =
  derive t ~info:"hypertee-channel-binding"
    ~context:(Bytes.cat (int_bytes chan) (int_bytes listener))
    16

let sealing_key t ~enclave_measurement =
  derive t ~info:"hypertee-sealing-key" ~context:enclave_measurement 16

let swap_key t = derive t ~info:"hypertee-swap-key" ~context:Bytes.empty 16
let snapshot_key t = derive t ~info:"hypertee-snapshot-key" ~context:Bytes.empty 32

let erase t rng =
  Hypertee_util.Bytes_ext.fill_zero t.sk;
  t.sk <- Hypertee_util.Xrng.bytes rng 32
