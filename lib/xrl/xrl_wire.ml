type message =
  | Request of { seq : int; xrl : Xrl.t }
  | Reply of { seq : int; error : Xrl_error.t; args : Xrl_atom.t list }

let magic0 = Char.code 'X'
let magic1 = Char.code 'O'
let version = 1
let kind_request = 0
let kind_reply = 1

let put_str w s =
  if String.length s > 0xFFFF then invalid_arg "Xrl_wire: string too long";
  Wire.W.u16 w (String.length s);
  Wire.W.bytes w s

let get_str r =
  let n = Wire.R.u16 r in
  Wire.R.bytes r n

let put_lstr w s =
  Wire.W.u32 w (String.length s);
  Wire.W.bytes w s

let get_lstr r =
  let n = Wire.R.u32 r in
  Wire.R.bytes r n

(* Atom type tags on the wire. *)
let tag_of_value : Xrl_atom.value -> int = function
  | U32 _ -> 1
  | I32 _ -> 2
  | U64 _ -> 3
  | Txt _ -> 4
  | Bool _ -> 5
  | Ipv4_v _ -> 6
  | Ipv4net_v _ -> 7
  | Binary _ -> 8
  | List _ -> 9

let rec encode_value w (v : Xrl_atom.value) =
  Wire.W.u8 w (tag_of_value v);
  match v with
  | U32 x -> Wire.W.u32 w x
  | I32 x -> Wire.W.u32 w (x land 0xFFFF_FFFF)
  | U64 x ->
    Wire.W.u32 w (Int64.to_int (Int64.shift_right_logical x 32));
    Wire.W.u32 w (Int64.to_int (Int64.logand x 0xFFFF_FFFFL))
  | Txt s -> put_lstr w s
  | Bool b -> Wire.W.u8 w (if b then 1 else 0)
  | Ipv4_v a -> Wire.W.ipv4 w a
  | Ipv4net_v n ->
    Wire.W.ipv4 w (Ipv4net.network n);
    Wire.W.u8 w (Ipv4net.prefix_len n)
  | Binary s -> put_lstr w s
  | List vs ->
    Wire.W.u16 w (List.length vs);
    List.iter (encode_value w) vs

let rec decode_value r : Xrl_atom.value =
  match Wire.R.u8 r with
  | 1 -> U32 (Wire.R.u32 r)
  | 2 ->
    let raw = Wire.R.u32 r in
    let v = if raw land 0x8000_0000 <> 0 then raw - 0x1_0000_0000 else raw in
    I32 v
  | 3 ->
    let hi = Wire.R.u32 r in
    let lo = Wire.R.u32 r in
    U64 (Int64.logor (Int64.shift_left (Int64.of_int hi) 32) (Int64.of_int lo))
  | 4 -> Txt (get_lstr r)
  | 5 -> Bool (Wire.R.u8 r <> 0)
  | 6 -> Ipv4_v (Wire.R.ipv4 r)
  | 7 ->
    let a = Wire.R.ipv4 r in
    let l = Wire.R.u8 r in
    if l > 32 then failwith "Xrl_wire: bad prefix length";
    Ipv4net_v (Ipv4net.make a l)
  | 8 -> Binary (get_lstr r)
  | 9 ->
    let n = Wire.R.u16 r in
    List (List.init n (fun _ -> decode_value r))
  | tag -> failwith (Printf.sprintf "Xrl_wire: unknown atom tag %d" tag)

let encode_atoms w atoms =
  Wire.W.u16 w (List.length atoms);
  List.iter
    (fun (a : Xrl_atom.t) ->
       put_str w a.name;
       encode_value w a.value)
    atoms

let decode_atoms r =
  let n = Wire.R.u16 r in
  List.init n (fun _ ->
      let name = get_str r in
      let value = decode_value r in
      Xrl_atom.make name value)

let encode_into w msg =
  Wire.W.u8 w magic0;
  Wire.W.u8 w magic1;
  Wire.W.u8 w version;
  match msg with
  | Request { seq; xrl } ->
    Wire.W.u8 w kind_request;
    Wire.W.u32 w seq;
    put_str w xrl.Xrl.protocol;
    put_str w xrl.Xrl.target;
    put_str w xrl.Xrl.interface;
    put_str w xrl.Xrl.version;
    put_str w xrl.Xrl.method_name;
    encode_atoms w xrl.Xrl.args
  | Reply { seq; error; args } ->
    Wire.W.u8 w kind_reply;
    Wire.W.u32 w seq;
    Wire.W.u16 w (Xrl_error.code error);
    put_str w
      (match error with
       | Ok_xrl -> ""
       | Resolve_failed s | No_such_method s | Bad_args s
       | Command_failed s | Send_failed s | Reply_timed_out s
       | Internal_error s | Timed_out s -> s);
    encode_atoms w args

let encode msg =
  let w = Wire.W.create ~initial:128 () in
  encode_into w msg;
  Wire.W.contents w

let decode_body r kind =
  let seq = Wire.R.u32 r in
  if kind = kind_request then begin
    let protocol = get_str r in
    let target = get_str r in
    let interface = get_str r in
    let ver = get_str r in
    let method_name = get_str r in
    let args = decode_atoms r in
    Request
      { seq;
        xrl =
          Xrl.make ~protocol ~target ~interface ~version:ver ~method_name
            args }
  end
  else if kind = kind_reply then begin
    let ecode = Wire.R.u16 r in
    let note = get_str r in
    let args = decode_atoms r in
    Reply { seq; error = Xrl_error.of_code ecode note; args }
  end
  else failwith (Printf.sprintf "Xrl_wire: unknown message kind %d" kind)

let decode s =
  try
    let r = Wire.R.of_string s in
    if Wire.R.u8 r <> magic0 || Wire.R.u8 r <> magic1 then
      Error "bad magic"
    else if Wire.R.u8 r <> version then Error "unsupported version"
    else Ok (decode_body r (Wire.R.u8 r))
  with
  | Wire.Truncated -> Error "truncated message"
  | Failure msg -> Error msg
  | Invalid_argument msg -> Error msg
