type msg =
  | Open of { version : int; my_as : int; hold_time : int; bgp_id : Ipv4.t }
  | Update of {
      withdrawn : Ipv4net.t list;
      attrs : Bgp_types.attrs option;
      nlri : Ipv4net.t list;
    }
  | Notification of { code : int; subcode : int; data : string }
  | Keepalive

let max_message_size = 4096
let header_size = 19
let ty_open = 1
let ty_update = 2
let ty_notification = 3
let ty_keepalive = 4

let err_msg_header = 1
let err_open = 2
let err_update = 3
let err_hold_timer = 4
let err_fsm = 5
let err_cease = 6

let as_trans = 23456
let cap_param_type = 2
let cap_as4 = 65

(* --- prefix encoding ------------------------------------------------- *)

let encode_prefix w net =
  let len = Ipv4net.prefix_len net in
  let nbytes = (len + 7) / 8 in
  Wire.W.u8 w len;
  let v = Ipv4.to_int (Ipv4net.network net) in
  for i = 0 to nbytes - 1 do
    Wire.W.u8 w ((v lsr (8 * (3 - i))) land 0xFF)
  done

let decode_prefix r =
  let len = Wire.R.u8 r in
  if len > 32 then failwith (Printf.sprintf "bad prefix length %d" len);
  let nbytes = (len + 7) / 8 in
  let v = ref 0 in
  for i = 0 to nbytes - 1 do
    v := !v lor (Wire.R.u8 r lsl (8 * (3 - i)))
  done;
  Ipv4net.make (Ipv4.of_int !v) len

let rec decode_prefixes r acc =
  if Wire.R.eof r then List.rev acc
  else decode_prefixes r (decode_prefix r :: acc)

(* --- path attributes -------------------------------------------------- *)

let flag_optional = 0x80
let flag_transitive = 0x40
let flag_extlen = 0x10

let at_origin = 1
let at_aspath = 2
let at_nexthop = 3
let at_med = 4
let at_localpref = 5
let at_atomic = 6
let at_community = 8

let encode_attr w ~flags ~ty body =
  let blen = String.length body in
  if blen > 255 then begin
    Wire.W.u8 w (flags lor flag_extlen);
    Wire.W.u8 w ty;
    Wire.W.u16 w blen
  end
  else begin
    Wire.W.u8 w flags;
    Wire.W.u8 w ty;
    Wire.W.u8 w blen
  end;
  Wire.W.bytes w body

let body f =
  let w = Wire.W.create () in
  f w;
  Wire.W.contents w

let encode_attrs w (a : Bgp_types.attrs) =
  encode_attr w ~flags:flag_transitive ~ty:at_origin
    (body (fun w -> Wire.W.u8 w (Bgp_types.origin_rank a.origin)));
  encode_attr w ~flags:flag_transitive ~ty:at_aspath
    (body (fun w -> Aspath.encode w a.aspath));
  encode_attr w ~flags:flag_transitive ~ty:at_nexthop
    (body (fun w -> Wire.W.ipv4 w a.nexthop));
  (match a.med with
   | Some med ->
     encode_attr w ~flags:flag_optional ~ty:at_med
       (body (fun w -> Wire.W.u32 w med))
   | None -> ());
  (match a.localpref with
   | Some lp ->
     encode_attr w ~flags:flag_transitive ~ty:at_localpref
       (body (fun w -> Wire.W.u32 w lp))
   | None -> ());
  if a.atomic_aggregate then
    encode_attr w ~flags:flag_transitive ~ty:at_atomic "";
  match a.communities with
  | [] -> ()
  | comms ->
    encode_attr w
      ~flags:(flag_optional lor flag_transitive)
      ~ty:at_community
      (body (fun w -> List.iter (Wire.W.u32 w) comms))

let decode_attrs r : Bgp_types.attrs =
  let origin = ref None in
  let aspath = ref None in
  let nexthop = ref None in
  let med = ref None in
  let localpref = ref None in
  let communities = ref [] in
  let atomic = ref false in
  while not (Wire.R.eof r) do
    let flags = Wire.R.u8 r in
    let ty = Wire.R.u8 r in
    let len =
      if flags land flag_extlen <> 0 then Wire.R.u16 r else Wire.R.u8 r
    in
    let br = Wire.R.sub r len in
    if ty = at_origin then begin
      match Wire.R.u8 br with
      | 0 -> origin := Some Bgp_types.IGP
      | 1 -> origin := Some Bgp_types.EGP
      | 2 -> origin := Some Bgp_types.INCOMPLETE
      | v -> failwith (Printf.sprintf "bad ORIGIN %d" v)
    end
    else if ty = at_aspath then aspath := Some (Aspath.decode br)
    else if ty = at_nexthop then nexthop := Some (Wire.R.ipv4 br)
    else if ty = at_med then med := Some (Wire.R.u32 br)
    else if ty = at_localpref then localpref := Some (Wire.R.u32 br)
    else if ty = at_atomic then atomic := true
    else if ty = at_community then begin
      let n = len / 4 in
      communities := List.init n (fun _ -> Wire.R.u32 br)
    end
    else if flags land flag_optional = 0 then
      failwith (Printf.sprintf "unrecognized well-known attribute %d" ty)
    (* unknown optional attributes are skipped (already consumed) *)
  done;
  match !origin, !aspath, !nexthop with
  | Some origin, Some aspath, Some nexthop ->
    { Bgp_types.origin; aspath; nexthop; med = !med; localpref = !localpref;
      communities = !communities; atomic_aggregate = !atomic }
  | _ -> failwith "missing mandatory attribute"

(* --- messages ---------------------------------------------------------- *)

let encode msg =
  let w = Wire.W.create ~initial:64 () in
  for _ = 1 to 16 do Wire.W.u8 w 0xFF done;
  Wire.W.u16 w 0; (* patched below *)
  (match msg with
   | Open { version; my_as; hold_time; bgp_id } ->
     Wire.W.u8 w ty_open;
     Wire.W.u8 w version;
     Wire.W.u16 w (if my_as > 0xFFFF then as_trans else my_as);
     Wire.W.u16 w hold_time;
     Wire.W.ipv4 w bgp_id;
     (* One optional parameter: the 4-octet-AS capability (RFC 6793),
        carrying the real AS number. *)
     Wire.W.u8 w 8; (* opt params length *)
     Wire.W.u8 w cap_param_type;
     Wire.W.u8 w 6;
     Wire.W.u8 w cap_as4;
     Wire.W.u8 w 4;
     Wire.W.u32 w my_as
   | Update { withdrawn; attrs; nlri } ->
     Wire.W.u8 w ty_update;
     let wbody = body (fun w -> List.iter (encode_prefix w) withdrawn) in
     Wire.W.u16 w (String.length wbody);
     Wire.W.bytes w wbody;
     let abody =
       match attrs with
       | Some a -> body (fun w -> encode_attrs w a)
       | None -> ""
     in
     Wire.W.u16 w (String.length abody);
     Wire.W.bytes w abody;
     List.iter (encode_prefix w) nlri
   | Notification { code; subcode; data } ->
     Wire.W.u8 w ty_notification;
     Wire.W.u8 w code;
     Wire.W.u8 w subcode;
     Wire.W.bytes w data
   | Keepalive -> Wire.W.u8 w ty_keepalive);
  let len = Wire.W.length w in
  if len > max_message_size then
    invalid_arg (Printf.sprintf "Bgp_packet.encode: %d bytes" len);
  Wire.W.patch_u16 w 16 len;
  Wire.W.contents w

let decode_body ty r =
  if ty = ty_open then begin
    let version = Wire.R.u8 r in
    let as16 = Wire.R.u16 r in
    let hold_time = Wire.R.u16 r in
    let bgp_id = Wire.R.ipv4 r in
    let optlen = Wire.R.u8 r in
    let opts = Wire.R.sub r optlen in
    (* Scan optional parameters for the AS4 capability. *)
    let my_as = ref as16 in
    while not (Wire.R.eof opts) do
      let pty = Wire.R.u8 opts in
      let plen = Wire.R.u8 opts in
      let pr = Wire.R.sub opts plen in
      if pty = cap_param_type then
        while not (Wire.R.eof pr) do
          let code = Wire.R.u8 pr in
          let clen = Wire.R.u8 pr in
          let cr = Wire.R.sub pr clen in
          if code = cap_as4 && clen = 4 then my_as := Wire.R.u32 cr
        done
    done;
    Open { version; my_as = !my_as; hold_time; bgp_id }
  end
  else if ty = ty_update then begin
    let wlen = Wire.R.u16 r in
    let withdrawn = decode_prefixes (Wire.R.sub r wlen) [] in
    let alen = Wire.R.u16 r in
    let attrs =
      if alen = 0 then None else Some (decode_attrs (Wire.R.sub r alen))
    in
    let nlri = decode_prefixes r [] in
    if nlri <> [] && attrs = None then
      failwith "UPDATE with NLRI but no attributes";
    Update { withdrawn; attrs; nlri }
  end
  else if ty = ty_notification then begin
    let code = Wire.R.u8 r in
    let subcode = Wire.R.u8 r in
    let data = Wire.R.bytes r (Wire.R.remaining r) in
    Notification { code; subcode; data }
  end
  else if ty = ty_keepalive then Keepalive
  else failwith (Printf.sprintf "unknown message type %d" ty)

let decode s =
  try
    let r = Wire.R.of_string s in
    for _ = 1 to 16 do
      if Wire.R.u8 r <> 0xFF then failwith "bad marker"
    done;
    let len = Wire.R.u16 r in
    if len <> String.length s then failwith "length mismatch";
    let ty = Wire.R.u8 r in
    Ok (decode_body ty r)
  with
  | Failure msg -> Error msg
  | Wire.Truncated -> Error "truncated message"

(* --- packing route changes into UPDATEs ---------------------------------- *)

let max_prefixes_per_update = 700

(* Attribute sets keyed by a hash of the whole record: the generic
   hash stops after ten values, too few to reach into an AS path. *)
module Attrs_tbl = Hashtbl.Make (struct
    type t = Bgp_types.attrs

    let equal = Bgp_types.attrs_equal
    let hash a = Hashtbl.hash_param 64 256 a
  end)

let rec chunks = function
  | [] -> []
  | l ->
    let rec take n acc = function
      | x :: rest when n > 0 -> take (n - 1) (x :: acc) rest
      | rest -> (List.rev acc, rest)
    in
    let head, rest = take max_prefixes_per_update [] l in
    head :: chunks rest

let updates ~withdrawn ~announce =
  let groups = Attrs_tbl.create 16 in
  let first_seen = ref [] in (* newest first *)
  List.iter
    (fun (attrs, net) ->
       match Attrs_tbl.find_opt groups attrs with
       | Some nets -> nets := net :: !nets
       | None ->
         let nets = ref [ net ] in
         Attrs_tbl.add groups attrs nets;
         first_seen := (attrs, nets) :: !first_seen)
    announce;
  List.map
    (fun nets -> Update { withdrawn = nets; attrs = None; nlri = [] })
    (chunks withdrawn)
  @ List.concat_map
    (fun (attrs, nets) ->
       List.map
         (fun nlri -> Update { withdrawn = []; attrs = Some attrs; nlri })
         (chunks (List.rev !nets)))
    (List.rev !first_seen)

let msg_to_string = function
  | Open { version; my_as; hold_time; bgp_id } ->
    Printf.sprintf "OPEN v%d as %d hold %d id %s" version my_as hold_time
      (Ipv4.to_string bgp_id)
  | Update { withdrawn; attrs; nlri } ->
    Printf.sprintf "UPDATE withdraw [%s] announce [%s]%s"
      (String.concat " " (List.map Ipv4net.to_string withdrawn))
      (String.concat " " (List.map Ipv4net.to_string nlri))
      (match attrs with
       | Some a -> " path [" ^ Aspath.to_string a.Bgp_types.aspath ^ "]"
       | None -> "")
  | Notification { code; subcode; _ } ->
    Printf.sprintf "NOTIFICATION %d/%d" code subcode
  | Keepalive -> "KEEPALIVE"

module Stream_parser = struct
  type t = { buf : Buffer.t; mutable poisoned : bool }

  let create () = { buf = Buffer.create 4096; poisoned = false }
  let buffered t = Buffer.length t.buf

  let feed t data =
    if t.poisoned then Error "parser poisoned by earlier framing error"
    else begin
      Buffer.add_string t.buf data;
      let contents = Buffer.contents t.buf in
      let total = String.length contents in
      let pos = ref 0 in
      let out = ref [] in
      let err = ref None in
      let continue = ref true in
      while !continue && !err = None do
        if total - !pos < header_size then continue := false
        else begin
          let marker_ok =
            let rec check i = i >= 16 || (contents.[!pos + i] = '\xFF' && check (i + 1)) in
            check 0
          in
          if not marker_ok then err := Some "bad marker"
          else begin
            let len =
              (Char.code contents.[!pos + 16] lsl 8)
              lor Char.code contents.[!pos + 17]
            in
            if len < header_size || len > max_message_size then
              err := Some (Printf.sprintf "bad length %d" len)
            else if total - !pos < len then continue := false
            else
              match decode (String.sub contents !pos len) with
              | Ok msg ->
                out := msg :: !out;
                pos := !pos + len
              | Error e -> err := Some e
          end
        end
      done;
      match !err with
      | Some e ->
        t.poisoned <- true;
        Error e
      | None ->
        Buffer.clear t.buf;
        Buffer.add_substring t.buf contents !pos (total - !pos);
        Ok (List.rev !out)
    end
end
