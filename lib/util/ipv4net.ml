(* network lsl 6 lor length; see ipv4net.mli. *)
type t = int

let mask32 = 0xFFFF_FFFF

(* [len] leading one bits of a 32-bit mask; 0 for /0 because the
   shifted-out bits fall off the 63-bit int before the [land]. *)
let mask len = (mask32 lsl (32 - len)) land mask32
let net t = t lsr 6
let len t = t land 63
let pack net len = (net lsl 6) lor len

let make addr len =
  if len < 0 || len > 32 then invalid_arg "Ipv4net.make";
  pack (Ipv4.to_int addr land mask len) len

let network t = Ipv4.of_int (net t)
let prefix_len = len
let netmask t = Ipv4.of_int (mask (len t))
let default = 0
let host a = pack (Ipv4.to_int a) 32

(* One or two ASCII digits, 0..32. *)
let len_of_string s i =
  let digit j = Char.code s.[j] - Char.code '0' in
  let is_digit j = match s.[j] with '0' .. '9' -> true | _ -> false in
  match String.length s - i with
  | 1 when is_digit i -> Some (digit i)
  | 2 when is_digit i && is_digit (i + 1) ->
    let l = (10 * digit i) + digit (i + 1) in
    if l <= 32 then Some l else None
  | _ -> None

let of_string s =
  match String.index_opt s '/' with
  | None -> Option.map host (Ipv4.of_string s)
  | Some i ->
    (match Ipv4.of_string (String.sub s 0 i), len_of_string s (i + 1) with
     | Some a, Some l -> Some (make a l)
     | _ -> None)

let of_string_exn s =
  match of_string s with
  | Some n -> n
  | None -> invalid_arg (Printf.sprintf "Ipv4net.of_string_exn: %S" s)

let to_string t = Printf.sprintf "%s/%d" (Ipv4.to_string (network t)) (len t)

let contains_addr t a = Ipv4.to_int a land mask (len t) = net t

(* The packed values differ only below the outer prefix's length. *)
let contains outer inner =
  len outer <= len inner && (outer lxor inner) lsr (38 - len outer) = 0

let overlaps a b = contains a b || contains b a

let first_addr = network
let last_addr t = Ipv4.of_int (net t lor (lnot (mask (len t)) land mask32))

let split t =
  let l = len t in
  if l >= 32 then None
  else
    Some (pack (net t) (l + 1), pack (net t lor (1 lsl (31 - l))) (l + 1))

let parent t =
  let l = len t in
  if l = 0 then None else Some (pack (net t land mask (l - 1)) (l - 1))

let compare = Int.compare
let equal = Int.equal
let pp fmt t = Format.pp_print_string fmt (to_string t)
