type t = {
  src : Ipv4.t;
  dst : Ipv4.t;
  mutable ttl : int;
  proto : int;
  payload : string;
  mutable in_ifname : string;
  mutable out_ifname : string;
  mutable nexthop : Ipv4.t;
}

let make ?(ttl = 64) ?(proto = 0) ?(payload = "") ~src ~dst () =
  if ttl < 0 || ttl > 255 then invalid_arg "Packet.make: ttl";
  if proto < 0 || proto > 255 then invalid_arg "Packet.make: proto";
  { src; dst; ttl; proto; payload; in_ifname = ""; out_ifname = "";
    nexthop = Ipv4.zero }

let copy t = { t with ttl = t.ttl }

(* Wire form: magic "DP", ttl, proto, then src and dst as 4 bytes each
   in network order; the payload follows verbatim. *)
let header_len = 12

let put_addr b off a =
  let a = Ipv4.to_int a in
  Bytes.unsafe_set b off (Char.unsafe_chr ((a lsr 24) land 0xff));
  Bytes.unsafe_set b (off + 1) (Char.unsafe_chr ((a lsr 16) land 0xff));
  Bytes.unsafe_set b (off + 2) (Char.unsafe_chr ((a lsr 8) land 0xff));
  Bytes.unsafe_set b (off + 3) (Char.unsafe_chr (a land 0xff))

let to_wire t =
  let len = String.length t.payload in
  let b = Bytes.create (header_len + len) in
  Bytes.unsafe_set b 0 'D';
  Bytes.unsafe_set b 1 'P';
  Bytes.unsafe_set b 2 (Char.unsafe_chr (t.ttl land 0xff));
  Bytes.unsafe_set b 3 (Char.unsafe_chr (t.proto land 0xff));
  put_addr b 4 t.src;
  put_addr b 8 t.dst;
  Bytes.unsafe_blit_string t.payload 0 b header_len len;
  Bytes.unsafe_to_string b

(* Callers check that [s] holds [off + 4] bytes. *)
let get_addr s off =
  Ipv4.of_int
    ((Char.code (String.unsafe_get s off) lsl 24)
    lor (Char.code (String.unsafe_get s (off + 1)) lsl 16)
    lor (Char.code (String.unsafe_get s (off + 2)) lsl 8)
    lor Char.code (String.unsafe_get s (off + 3)))

let of_wire s =
  let len = String.length s in
  if len < header_len then Error (Printf.sprintf "short packet: %d bytes" len)
  else if not (s.[0] = 'D' && s.[1] = 'P') then Error "bad magic"
  else
    Ok
      { src = get_addr s 4; dst = get_addr s 8;
        ttl = Char.code s.[2]; proto = Char.code s.[3];
        payload =
          (if len = header_len then ""
           else String.sub s header_len (len - header_len));
        in_ifname = ""; out_ifname = ""; nexthop = Ipv4.zero }

let to_string t =
  Printf.sprintf "%s -> %s ttl=%d proto=%d len=%d%s%s" (Ipv4.to_string t.src)
    (Ipv4.to_string t.dst) t.ttl t.proto (String.length t.payload)
    (if t.in_ifname = "" then "" else " in=" ^ t.in_ifname)
    (if t.out_ifname = "" then ""
     else
       Printf.sprintf " out=%s via %s" t.out_ifname (Ipv4.to_string t.nexthop))
