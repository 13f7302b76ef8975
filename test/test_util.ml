(* Unit and property tests for xorp_util: addresses, prefixes, wire
   buffers, the deterministic RNG and the synthetic route feed. *)

let check = Alcotest.check
let ipv4 = Alcotest.testable Ipv4.pp Ipv4.equal
let ipv4net = Alcotest.testable Ipv4net.pp Ipv4net.equal

(* --- Ipv4 ----------------------------------------------------------- *)

let test_ipv4_parse () =
  check ipv4 "dotted quad" (Ipv4.of_octets 128 16 32 1)
    (Ipv4.of_string_exn "128.16.32.1");
  check ipv4 "zero" Ipv4.zero (Ipv4.of_string_exn "0.0.0.0");
  check ipv4 "broadcast" Ipv4.broadcast (Ipv4.of_string_exn "255.255.255.255")

let test_ipv4_parse_rejects () =
  let bad = [ ""; "1.2.3"; "1.2.3.4.5"; "256.1.1.1"; "1.2.3.4 "; " 1.2.3.4";
              "1..2.3"; "a.b.c.d"; "1.2.3.4/8"; "01.2.3.4567" ] in
  List.iter
    (fun s ->
       check Alcotest.bool (Printf.sprintf "reject %S" s) true
         (Ipv4.of_string s = None))
    bad

let test_ipv4_roundtrip () =
  let rng = Rng.create 1 in
  for _ = 1 to 1000 do
    let a = Ipv4.of_int (Rng.int rng 0x40000000 * 4 + Rng.int rng 4) in
    check ipv4 "to_string/of_string roundtrip"
      a (Ipv4.of_string_exn (Ipv4.to_string a))
  done

let test_ipv4_bits () =
  let a = Ipv4.of_string_exn "128.0.0.1" in
  check Alcotest.bool "msb set" true (Ipv4.bit a 0);
  check Alcotest.bool "bit 1 clear" false (Ipv4.bit a 1);
  check Alcotest.bool "lsb set" true (Ipv4.bit a 31);
  check ipv4 "mask 0" Ipv4.zero (Ipv4.mask_of_len 0);
  check ipv4 "mask 32" Ipv4.broadcast (Ipv4.mask_of_len 32);
  check ipv4 "mask 8" (Ipv4.of_octets 255 0 0 0) (Ipv4.mask_of_len 8);
  check ipv4 "mask 17" (Ipv4.of_octets 255 255 128 0) (Ipv4.mask_of_len 17)

let test_ipv4_succ_wraps () =
  check ipv4 "succ wraps" Ipv4.zero (Ipv4.succ Ipv4.broadcast);
  check ipv4 "succ carries"
    (Ipv4.of_string_exn "10.1.0.0")
    (Ipv4.succ (Ipv4.of_string_exn "10.0.255.255"))

let test_ipv4_classes () =
  check Alcotest.bool "multicast" true
    (Ipv4.is_multicast (Ipv4.of_string_exn "224.0.0.9"));
  check Alcotest.bool "not multicast" false
    (Ipv4.is_multicast (Ipv4.of_string_exn "192.0.0.9"));
  check Alcotest.bool "loopback" true
    (Ipv4.is_loopback (Ipv4.of_string_exn "127.0.0.1"))

(* --- Ipv4net -------------------------------------------------------- *)

let net = Ipv4net.of_string_exn

let test_net_canonical () =
  check ipv4net "host bits dropped" (net "10.1.0.0/16") (net "10.1.2.3/16");
  check Alcotest.int "len" 16 (Ipv4net.prefix_len (net "10.1.2.3/16"));
  check ipv4net "bare addr is /32" (net "1.2.3.4/32") (net "1.2.3.4")

let test_net_contains () =
  check Alcotest.bool "contains addr" true
    (Ipv4net.contains_addr (net "128.16.0.0/18") (Ipv4.of_string_exn "128.16.32.1"));
  check Alcotest.bool "excludes addr" false
    (Ipv4net.contains_addr (net "128.16.0.0/18") (Ipv4.of_string_exn "128.16.160.1"));
  check Alcotest.bool "nested" true
    (Ipv4net.contains (net "128.16.0.0/16") (net "128.16.192.0/18"));
  check Alcotest.bool "not nested" false
    (Ipv4net.contains (net "128.16.192.0/18") (net "128.16.0.0/16"));
  check Alcotest.bool "self" true
    (Ipv4net.contains (net "10.0.0.0/8") (net "10.0.0.0/8"))

let test_net_split_parent () =
  (match Ipv4net.split (net "128.16.128.0/17") with
   | Some (l, r) ->
     check ipv4net "left half" (net "128.16.128.0/18") l;
     check ipv4net "right half" (net "128.16.192.0/18") r
   | None -> Alcotest.fail "split /17 gave None");
  check Alcotest.bool "no split of /32" true (Ipv4net.split (net "1.2.3.4/32") = None);
  (match Ipv4net.parent (net "128.16.192.0/18") with
   | Some p -> check ipv4net "parent" (net "128.16.128.0/17") p
   | None -> Alcotest.fail "parent of /18 gave None");
  check Alcotest.bool "no parent of /0" true (Ipv4net.parent Ipv4net.default = None)

let test_net_last_addr () =
  check ipv4 "last addr"
    (Ipv4.of_string_exn "128.16.63.255")
    (Ipv4net.last_addr (net "128.16.0.0/18"))

let test_net_overlaps () =
  check Alcotest.bool "nested overlap" true
    (Ipv4net.overlaps (net "10.0.0.0/8") (net "10.1.0.0/16"));
  check Alcotest.bool "reverse too" true
    (Ipv4net.overlaps (net "10.1.0.0/16") (net "10.0.0.0/8"));
  check Alcotest.bool "disjoint" false
    (Ipv4net.overlaps (net "10.0.0.0/16") (net "10.1.0.0/16"));
  check Alcotest.bool "self" true
    (Ipv4net.overlaps (net "10.0.0.0/8") (net "10.0.0.0/8"))

let test_net_parse_strict () =
  check ipv4net "/0" Ipv4net.default (net "0.0.0.0/0");
  check ipv4net "two digits" (Ipv4net.make (Ipv4.of_octets 10 1 0 0) 16)
    (net "10.1.0.0/16");
  check Alcotest.int "/32" 32 (Ipv4net.prefix_len (net "255.255.255.255/32"));
  (* The length is one or two ASCII digits with a value of 0..32:
     nothing int_of_string would also take (radix, sign, underscore). *)
  let bad = [ "10.0.0.0/0x10"; "10.0.0.0/0b11000"; "10.0.0.0/0o10";
              "10.0.0.0/+8"; "10.0.0.0/1_6"; "10.0.0.0/-0"; "10.0.0.0/";
              "10.0.0.0/33"; "10.0.0.0/99"; "10.0.0.0/008"; "10.0.0.0/ 8";
              "10.0.0.0/8 "; "10.0.0.0/8/8"; "10.0.0.0//8"; "/8"; "10.0.0/8";
              "10.0.0.0/a" ] in
  List.iter
    (fun s ->
       check Alcotest.bool (Printf.sprintf "reject %S" s) true
         (Ipv4net.of_string s = None))
    bad

(* --- Wire ----------------------------------------------------------- *)

let test_wire_roundtrip () =
  let w = Wire.W.create () in
  Wire.W.u8 w 0xAB;
  Wire.W.u16 w 0xCDEF;
  Wire.W.u32 w 0xDEADBEEF;
  Wire.W.bytes w "hello";
  Wire.W.ipv4 w (Ipv4.of_string_exn "10.0.0.1");
  let r = Wire.R.of_string (Wire.W.contents w) in
  check Alcotest.int "u8" 0xAB (Wire.R.u8 r);
  check Alcotest.int "u16" 0xCDEF (Wire.R.u16 r);
  check Alcotest.int "u32" 0xDEADBEEF (Wire.R.u32 r);
  check Alcotest.string "bytes" "hello" (Wire.R.bytes r 5);
  check ipv4 "ipv4" (Ipv4.of_string_exn "10.0.0.1") (Wire.R.ipv4 r);
  check Alcotest.bool "eof" true (Wire.R.eof r)

let test_wire_truncated () =
  let r = Wire.R.of_string "\x01\x02" in
  ignore (Wire.R.u8 r);
  Alcotest.check_raises "u32 past end" Wire.Truncated (fun () ->
      ignore (Wire.R.u32 r))

let test_wire_patch () =
  let w = Wire.W.create () in
  Wire.W.u16 w 0;
  Wire.W.bytes w "abc";
  Wire.W.patch_u16 w 0 (Wire.W.length w);
  let r = Wire.R.of_string (Wire.W.contents w) in
  check Alcotest.int "patched length" 5 (Wire.R.u16 r)

(* Regression: patching a reserved slot must produce byte-for-byte the
   output of streaming the final value directly — the old Buffer-based
   writer rebuilt the whole buffer on patch (O(n) and easy to get
   wrong); the Bytes writer patches in place. *)
let test_wire_patch_equals_streamed () =
  let patched = Wire.W.create () in
  Wire.W.u8 patched 0x42;
  Wire.W.u16 patched 0;
  Wire.W.bytes patched "payload";
  Wire.W.u32 patched 0;
  Wire.W.bytes patched "tail";
  Wire.W.patch_u16 patched 1 0xBEEF;
  Wire.W.patch_u32 patched 10 0xCAFEBABE;
  let streamed = Wire.W.create () in
  Wire.W.u8 streamed 0x42;
  Wire.W.u16 streamed 0xBEEF;
  Wire.W.bytes streamed "payload";
  Wire.W.u32 streamed 0xCAFEBABE;
  Wire.W.bytes streamed "tail";
  check Alcotest.string "patched = streamed"
    (Wire.W.contents streamed) (Wire.W.contents patched);
  (* Patching must not disturb growth: keep writing after the patch. *)
  Wire.W.bytes patched (String.make 300 'x');
  Wire.W.bytes streamed (String.make 300 'x');
  check Alcotest.string "after growth"
    (Wire.W.contents streamed) (Wire.W.contents patched)

let test_wire_patch_bounds () =
  let w = Wire.W.create () in
  Wire.W.u16 w 0;
  (try
     Wire.W.patch_u16 w 1 7;
     Alcotest.fail "patch past end accepted"
   with Invalid_argument _ -> ());
  (try
     Wire.W.patch_u32 w 0 7;
     Alcotest.fail "u32 patch into 2 bytes accepted"
   with Invalid_argument _ -> ());
  (try
     Wire.W.patch_u16 w (-1) 7;
     Alcotest.fail "negative offset accepted"
   with Invalid_argument _ -> ())

(* --- Route_pack ------------------------------------------------------ *)

let test_route_pack_roundtrip () =
  let adds =
    [ { Route_pack.net = Ipv4net.of_string_exn "10.0.0.0/8";
        nexthop = Ipv4.of_string_exn "192.168.0.1";
        ifname = "eth0"; protocol = "ebgp"; metric = 100 };
      { Route_pack.net = Ipv4net.of_string_exn "172.16.1.0/24";
        nexthop = Ipv4.of_string_exn "192.168.0.2";
        ifname = ""; protocol = "static"; metric = 0 } ]
  in
  (match Route_pack.unpack_adds (Route_pack.pack_adds adds) with
   | Ok got ->
     check Alcotest.int "add count" 2 (List.length got);
     List.iter2
       (fun (a : Route_pack.add) (b : Route_pack.add) ->
          check Alcotest.string "net" (Ipv4net.to_string a.net)
            (Ipv4net.to_string b.net);
          check ipv4 "nexthop" a.nexthop b.nexthop;
          check Alcotest.string "ifname" a.ifname b.ifname;
          check Alcotest.string "protocol" a.protocol b.protocol;
          check Alcotest.int "metric" a.metric b.metric)
       adds got
   | Error msg -> Alcotest.fail ("unpack_adds: " ^ msg));
  let dels =
    [ Ipv4net.of_string_exn "10.0.0.0/8"; Ipv4net.of_string_exn "0.0.0.0/0" ]
  in
  match Route_pack.unpack_deletes (Route_pack.pack_deletes dels) with
  | Ok got ->
    check
      Alcotest.(list string)
      "deletes"
      (List.map Ipv4net.to_string dels)
      (List.map Ipv4net.to_string got)
  | Error msg -> Alcotest.fail ("unpack_deletes: " ^ msg)

let test_route_pack_rejects_junk () =
  (match Route_pack.unpack_adds "xx" with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "short input accepted");
  let good = Route_pack.pack_deletes [ Ipv4net.of_string_exn "10.0.0.0/8" ] in
  (match Route_pack.unpack_deletes (good ^ "z") with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "trailing bytes accepted");
  (* Absurd declared count must be rejected before allocation. *)
  let w = Wire.W.create () in
  Wire.W.u32 w 0xFFFFFFF;
  match Route_pack.unpack_adds (Wire.W.contents w) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "absurd count accepted"

let test_wire_sub () =
  let w = Wire.W.create () in
  Wire.W.bytes w "abcdef";
  let r = Wire.R.of_string (Wire.W.contents w) in
  let inner = Wire.R.sub r 4 in
  check Alcotest.string "inner reads its scope" "abcd" (Wire.R.bytes inner 4);
  Alcotest.check_raises "inner is bounded" Wire.Truncated (fun () ->
      ignore (Wire.R.u8 inner));
  check Alcotest.string "outer continues after sub" "ef" (Wire.R.bytes r 2)

(* --- Rng ------------------------------------------------------------ *)

let test_rng_deterministic () =
  let a = Rng.create 99 and b = Rng.create 99 in
  for _ = 1 to 100 do
    check Alcotest.int "same stream" (Rng.int a 1000000) (Rng.int b 1000000)
  done

let test_rng_bounds () =
  let rng = Rng.create 3 in
  for _ = 1 to 10000 do
    let v = Rng.int rng 7 in
    if v < 0 || v >= 7 then Alcotest.failf "out of bounds: %d" v
  done

let test_rng_bytes () =
  let rng = Rng.create 5 in
  check Alcotest.int "length" 16 (String.length (Rng.bytes rng 16));
  let rng2 = Rng.create 5 in
  check Alcotest.string "deterministic" (Rng.bytes rng2 16)
    (Rng.bytes (Rng.create 5) 16)

(* --- Feed ----------------------------------------------------------- *)

let test_feed_unique_prefixes () =
  let feed = Feed.generate ~seed:1 20000 in
  let tbl = Hashtbl.create 40000 in
  Array.iter
    (fun (e : Feed.entry) ->
       if Hashtbl.mem tbl e.net then
         Alcotest.failf "duplicate prefix %s" (Ipv4net.to_string e.net);
       Hashtbl.add tbl e.net ())
    feed;
  check Alcotest.int "count" 20000 (Array.length feed)

let test_feed_deterministic () =
  let a = Feed.generate ~seed:7 500 and b = Feed.generate ~seed:7 500 in
  Array.iteri
    (fun i (e : Feed.entry) ->
       check ipv4net "same prefix" e.net b.(i).Feed.net)
    a

let test_feed_shape () =
  let feed = Feed.generate ~seed:2 50000 in
  let count24 =
    Array.fold_left
      (fun acc (e : Feed.entry) ->
         if Ipv4net.prefix_len e.net = 24 then acc + 1 else acc)
      0 feed
  in
  (* /24s should dominate: roughly 55% by construction. *)
  if count24 < 25000 || count24 > 32000 then
    Alcotest.failf "/24 share off: %d of 50000" count24;
  Array.iter
    (fun (e : Feed.entry) ->
       if e.Feed.as_path = [] then Alcotest.fail "empty AS path";
       let l = Ipv4net.prefix_len e.Feed.net in
       if l < 8 || l > 24 then Alcotest.failf "odd prefix length %d" l)
    feed;
  (* AS-path hop counts should follow the survey distribution: mean
     close to 3.9 (prepending pushes it slightly up), never absurd. *)
  let total_hops =
    Array.fold_left
      (fun acc (e : Feed.entry) -> acc + List.length e.Feed.as_path)
      0 feed
  in
  let mean = float_of_int total_hops /. float_of_int (Array.length feed) in
  if mean < 3.4 || mean > 4.6 then
    Alcotest.failf "AS path mean hops off: %.2f" mean;
  Array.iter
    (fun (e : Feed.entry) ->
       let l = List.length e.Feed.as_path in
       if l < 1 || l > 13 then Alcotest.failf "odd AS path length %d" l)
    feed

let test_feed_nexthops () =
  let feed = Feed.generate ~seed:3 1000 in
  let nhs = Feed.nexthops feed in
  check Alcotest.bool "a few distinct nexthops" true (List.length nhs > 1);
  let sorted = List.sort Ipv4.compare nhs in
  check (Alcotest.list ipv4) "sorted" sorted nhs

(* --- qcheck properties ---------------------------------------------- *)

let arb_addr =
  QCheck.map
    (fun i -> Ipv4.of_int (i land 0xFFFF_FFFF))
    QCheck.(int_bound 0x3FFFFFFF)

let arb_net =
  QCheck.map
    (fun (i, len) -> Ipv4net.make (Ipv4.of_int (i * 7919)) (len mod 33))
    QCheck.(pair (int_bound 0x3FFFFFFF) (int_bound 32))

let prop_ipv4_roundtrip =
  QCheck.Test.make ~name:"ipv4 text roundtrip" ~count:500 arb_addr (fun a ->
      Ipv4.equal a (Ipv4.of_string_exn (Ipv4.to_string a)))

let prop_net_roundtrip =
  QCheck.Test.make ~name:"ipv4net text roundtrip" ~count:500 arb_net (fun n ->
      Ipv4net.equal n (Ipv4net.of_string_exn (Ipv4net.to_string n)))

let prop_net_contains_first_last =
  QCheck.Test.make ~name:"net contains its first and last address" ~count:500
    arb_net (fun n ->
        Ipv4net.contains_addr n (Ipv4net.first_addr n)
        && Ipv4net.contains_addr n (Ipv4net.last_addr n))

let prop_split_partitions =
  QCheck.Test.make ~name:"split halves partition the parent" ~count:500 arb_net
    (fun n ->
       match Ipv4net.split n with
       | None -> Ipv4net.prefix_len n = 32
       | Some (l, r) ->
         Ipv4net.contains n l && Ipv4net.contains n r
         && (not (Ipv4net.overlaps l r))
         && Ipv4.equal (Ipv4.succ (Ipv4net.last_addr l)) (Ipv4net.first_addr r))

(* A reference model of Ipv4net: a prefix is a plain (network, length)
   pair and every operation is spelled out bit by bit. *)
module Ref_net = struct
  let mask l =
    let rec go i acc = if i = l then acc else go (i + 1) (acc lor (1 lsl (31 - i))) in
    go 0 0

  let make a l = (a land mask l, l)
  let contains_addr (n, l) a = a land mask l = n
  let contains (n1, l1) (n2, l2) = l1 <= l2 && contains_addr (n1, l1) n2
  let last (n, l) = n lor (0xFFFF_FFFF lxor mask l)

  let split (n, l) =
    if l = 32 then None else Some ((n, l + 1), (n lor (1 lsl (31 - l)), l + 1))

  let parent (n, l) = if l = 0 then None else Some (make n (l - 1))
  let of_net n = (Ipv4.to_int (Ipv4net.network n), Ipv4net.prefix_len n)
end

(* Addresses and lengths weighted toward the edges (/0, /32, all-zero
   and all-one addresses); the second prefix and the probe address are
   often near the first, so nesting and equality come up. *)
let arb_net_case =
  let open QCheck.Gen in
  let addr =
    frequency
      [ (1, oneofl [ 0; 0xFFFF_FFFF; 0x8000_0000; 0x7FFF_FFFF; 1 ]);
        (6, map2 (fun hi lo -> (hi lsl 16) lor lo) (int_bound 0xFFFF) (int_bound 0xFFFF)) ]
  in
  let len = frequency [ (1, oneofl [ 0; 32; 1; 31 ]); (4, int_bound 32) ] in
  let near a = frequency [ (1, addr); (2, map (fun b -> a lxor (1 lsl b)) (int_bound 31));
                           (1, return a) ] in
  let random =
    addr >>= fun a1 ->
    near a1 >>= fun a2 ->
    near a1 >>= fun x ->
    map2 (fun l1 l2 -> (a1, l1, a2, l2, x)) len len
  in
  (* 0.0.0.0/0 and 255.255.255.255/32 against each other and the
     opposite corners. *)
  let corners = [ (0, 0); (0xFFFF_FFFF, 32); (0, 32); (0xFFFF_FFFF, 0) ] in
  let edges =
    List.concat_map
      (fun (a1, l1) -> List.map (fun (a2, l2) -> (a1, l1, a2, l2, a2)) corners)
      corners
  in
  let gen = frequency [ (1, oneofl edges); (9, random) ] in
  QCheck.make gen ~print:(fun (a1, l1, a2, l2, x) ->
      Printf.sprintf "%s/%d %s/%d probe %s"
        (Ipv4.to_string (Ipv4.of_int a1)) l1 (Ipv4.to_string (Ipv4.of_int a2)) l2
        (Ipv4.to_string (Ipv4.of_int x)))

let prop_net_reference_model =
  QCheck.Test.make ~name:"ipv4net agrees with a (network, length) model" ~count:2000
    arb_net_case (fun (a1, l1, a2, l2, x) ->
        let n1 = Ipv4net.make (Ipv4.of_int a1) l1
        and n2 = Ipv4net.make (Ipv4.of_int a2) l2 in
        let r1 = Ref_net.make a1 l1 and r2 = Ref_net.make a2 l2 in
        let same_pair n r = Ref_net.of_net n = r in
        let sign c = Int.compare c 0 in
        same_pair n1 r1 && same_pair n2 r2
        && Ipv4.to_int (Ipv4net.netmask n1) = Ref_net.mask l1
        && sign (Ipv4net.compare n1 n2) = sign (compare r1 r2)
        && Ipv4net.equal n1 n2 = (r1 = r2)
        && Ipv4net.contains n1 n2 = Ref_net.contains r1 r2
        && Ipv4net.contains n2 n1 = Ref_net.contains r2 r1
        && Ipv4net.overlaps n1 n2 = (Ref_net.contains r1 r2 || Ref_net.contains r2 r1)
        && Ipv4net.contains_addr n1 (Ipv4.of_int x) = Ref_net.contains_addr r1 x
        && Ipv4.to_int (Ipv4net.first_addr n1) = fst r1
        && Ipv4.to_int (Ipv4net.last_addr n1) = Ref_net.last r1
        && (match Ipv4net.split n1, Ref_net.split r1 with
            | None, None -> true
            | Some (l, r), Some (rl, rr) -> same_pair l rl && same_pair r rr
            | _ -> false)
        && (match Ipv4net.parent n1, Ref_net.parent r1 with
            | None, None -> true
            | Some p, Some rp -> same_pair p rp
            | _ -> false)
        && Ipv4net.of_string (Ipv4net.to_string n1) = Some n1)

let prop_mask_len =
  QCheck.Test.make ~name:"netmask has prefix_len leading ones" ~count:100
    QCheck.(int_bound 32)
    (fun l ->
       let m = Ipv4.to_int (Ipv4.mask_of_len l) in
       let rec ones i = if i >= 32 then 32
         else if (m lsr (31 - i)) land 1 = 1 then ones (i + 1) else i in
       ones 0 = l)

(* --- Laneq ----------------------------------------------------------- *)

let lq_net i = Ipv4net.make (Ipv4.of_octets 10 i 0 0) 16

let test_laneq_basics () =
  let q : int Laneq.t = Laneq.create () in
  Alcotest.(check bool) "empty" true (Laneq.is_empty q);
  Laneq.push q Laneq.Urgent ~net:(lq_net 1) 1;
  Laneq.push q Laneq.Bulk ~net:(lq_net 2) 2;
  Laneq.push q Laneq.Urgent ~net:(lq_net 3) 3;
  check Alcotest.int "length" 3 (Laneq.length q);
  check Alcotest.int "urgent" 2 (Laneq.urgent_length q);
  check Alcotest.int "bulk" 1 (Laneq.bulk_length q);
  check Alcotest.int "peak" 3 (Laneq.peak_length q);
  (* drain hands over the whole urgent lane and the bulk lane, each in
     push order *)
  let urgent, bulk = Laneq.drain q ~bulk_slice:10 in
  check Alcotest.(list int) "urgent in push order" [ 1; 3 ] urgent;
  check Alcotest.(list int) "bulk" [ 2 ] bulk;
  Alcotest.(check bool) "drained" true (Laneq.is_empty q);
  (* the bulk slice bounds one drain; the urgent lane is never cut *)
  List.iter (fun i -> Laneq.push q Laneq.Bulk ~net:(lq_net i) i) [ 4; 5; 6 ];
  Laneq.push q Laneq.Urgent ~net:(lq_net 7) 7;
  Laneq.push q Laneq.Urgent ~net:(lq_net 8) 8;
  let urgent, bulk = Laneq.drain q ~bulk_slice:2 in
  check Alcotest.(list int) "whole urgent lane" [ 7; 8 ] urgent;
  check Alcotest.(list int) "bulk slice" [ 4; 5 ] bulk;
  check Alcotest.int "bulk left over" 1 (Laneq.bulk_length q);
  let urgent, bulk = Laneq.drain q ~bulk_slice:2 in
  check Alcotest.(list int) "no urgent left" [] urgent;
  check Alcotest.(list int) "rest of bulk" [ 6 ] bulk

let test_laneq_demotion_guard () =
  let q : int Laneq.t = Laneq.create () in
  Laneq.push q Laneq.Bulk ~net:(lq_net 1) 1;
  (* Same prefix, urgent: must be demoted behind the bulk entry. *)
  Laneq.push q Laneq.Urgent ~net:(lq_net 1) 2;
  (* Different prefix, urgent: stays urgent. *)
  Laneq.push q Laneq.Urgent ~net:(lq_net 2) 3;
  check Alcotest.int "demoted" 1 (Laneq.demoted q);
  check Alcotest.int "urgent holds only net2" 1 (Laneq.urgent_length q);
  let urgent, bulk = Laneq.drain q ~bulk_slice:10 in
  check Alcotest.(list int) "urgent lane holds 3" [ 3 ] urgent;
  check Alcotest.(list int) "demoted entry follows its blocker" [ 1; 2 ] bulk;
  (* Once the prefix's bulk entries drained, urgent pushes stay
     urgent again. *)
  Laneq.push q Laneq.Urgent ~net:(lq_net 1) 4;
  check Alcotest.int "no further demotion" 1 (Laneq.demoted q);
  check Alcotest.int "urgent again" 1 (Laneq.urgent_length q)

let test_laneq_unordered_variant () =
  (* ordered:false drops the guard: the injected-bug mode really does
     let an urgent change overtake same-prefix bulk work. *)
  let q : int Laneq.t = Laneq.create ~ordered:false () in
  Laneq.push q Laneq.Bulk ~net:(lq_net 1) 1;
  Laneq.push q Laneq.Urgent ~net:(lq_net 1) 2;
  check Alcotest.int "nothing demoted" 0 (Laneq.demoted q);
  let urgent, bulk = Laneq.drain q ~bulk_slice:10 in
  check Alcotest.(list int) "unordered variant reorders" [ 2; 1 ] (urgent @ bulk)

let test_laneq_clear () =
  let q : int Laneq.t = Laneq.create () in
  Laneq.push q Laneq.Bulk ~net:(lq_net 1) 1;
  Laneq.push q Laneq.Urgent ~net:(lq_net 1) 2;
  Laneq.clear q;
  Alcotest.(check bool) "cleared" true (Laneq.is_empty q);
  (* bulk_pending must be cleared too, or this would demote. *)
  Laneq.push q Laneq.Urgent ~net:(lq_net 1) 3;
  check Alcotest.int "urgent after clear" 1 (Laneq.urgent_length q)

(* Coalescing, against a model receiver. Each prefix of a small pool
   gets a well-formed stream of route changes for two receiver tables
   (the RIB's two BGP origin tables): an add only where the table holds
   nothing for the prefix, a replace or a delete only of what it holds,
   and a prefix in one table at a time, so a move is a delete from one
   table and an add to the other. Changes go out on random lanes and
   drain at random points, merged as BGP's RIB queue merges them. The
   receiver applies what it drains strictly; at the end its tables must
   equal the stream's. After every push the queue holds at most one
   entry per prefix, lane and table, and an urgent push for a prefix
   with a bulk entry pending leaves the urgent lane as it was. *)
type lq_op = Lq_change of int * int * bool | Lq_drain of int

let gen_lq_ops =
  QCheck.Gen.(
    list_size (int_range 1 80)
      (frequency
         [ ( 5,
             map3
               (fun p c u -> Lq_change (p, c, u))
               (int_range 0 2) (int_range 0 3) bool );
           (1, map (fun s -> Lq_drain s) (int_range 1 3)) ]))

let arb_lq_ops =
  QCheck.make gen_lq_ops ~shrink:QCheck.Shrink.list
    ~print:(fun ops ->
        String.concat ""
          (List.map
             (function
               | Lq_change (p, c, u) ->
                 Printf.sprintf "%c%d.%d " (if u then 'u' else 'b') p c
               | Lq_drain s -> Printf.sprintf "|%d " s)
             ops))

(* Entries are (change, (table, prefix, value), ()), merged as BGP's
   RIB queue merges them: only within one table. *)
let lq_merge =
  Laneq.merge_changes ~compatible:(fun (a, _, _) (b, _, _) -> a = b)

exception Lq_broken of string

let lq_coalescing ?(merge = lq_merge) ops =
  let q = Laneq.create () in
  let nets = Array.init 3 lq_net in
  (* The stream's view and the receiver's: (table, prefix) -> value. *)
  let sent = Hashtbl.create 8 and got = Hashtbl.create 8 in
  let broken what = raise (Lq_broken what) in
  let apply tbl (change, (table, p, v), ()) =
    let held = Hashtbl.mem tbl (table, p) in
    (match (change : Laneq.change) with
     | Add -> if held then broken "add over a held route"
     | Replace | Delete -> if not held then broken "change to nothing held");
    match change with
    | Add | Replace -> Hashtbl.replace tbl (table, p) v
    | Delete -> Hashtbl.remove tbl (table, p)
  in
  let per_table lane p =
    List.fold_left
      (fun (a, b) (_, (_, (table, p', _), ())) ->
         if p' <> p then (a, b) else if table = 0 then (a + 1, b)
         else (a, b + 1))
      (0, 0) (Laneq.to_list q lane)
  in
  let value = ref 0 in
  let push urgent change table p =
    incr value;
    let entry = (change, (table, p, !value), ()) in
    apply sent entry;
    let blocked = urgent && Laneq.mem q Laneq.Bulk nets.(p) in
    let before = Laneq.to_list q Laneq.Urgent in
    Laneq.push ~merge q
      (if urgent then Laneq.Urgent else Laneq.Bulk)
      ~net:nets.(p) entry;
    if blocked && Laneq.to_list q Laneq.Urgent <> before then
      broken "an urgent push overtook a bulk entry";
    List.iter
      (fun lane ->
         let a, b = per_table lane p in
         if a > 1 || b > 1 then broken "two entries for one prefix, lane and table")
      [ Laneq.Urgent; Laneq.Bulk ]
  in
  let drain slice =
    let urgent, bulk = Laneq.drain q ~bulk_slice:slice in
    List.iter (apply got) urgent;
    List.iter (apply got) bulk
  in
  let holding p = List.find_opt (fun t -> Hashtbl.mem sent (t, p)) [ 0; 1 ] in
  List.iter
    (function
      | Lq_drain slice -> drain slice
      | Lq_change (p, choice, urgent) ->
        let push = push urgent in
        (match holding p, choice with
         | None, _ -> push Laneq.Add (choice mod 2) p
         | Some t, 0 -> push Laneq.Replace t p
         | Some t, 1 -> push Laneq.Delete t p
         | Some t, 2 ->
           (* move to the other table *)
           push Laneq.Delete t p;
           push Laneq.Add (1 - t) p
         | Some t, _ ->
           (* a replacement sent the old way, as a delete and an add *)
           push Laneq.Delete t p;
           push Laneq.Add t p))
    ops;
  while not (Laneq.is_empty q) do drain 2 done;
  let sorted tbl =
    List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])
  in
  if sorted sent <> sorted got then broken "receiver disagrees with the stream"

let prop_laneq_coalescing =
  QCheck.Test.make ~name:"laneq: coalescing keeps the receiver's table"
    ~count:500 arb_lq_ops (fun ops ->
        match lq_coalescing ops with
        | () -> true
        | exception Lq_broken what -> QCheck.Test.fail_report what)

let () =
  Alcotest.run "xorp_util"
    [
      ( "ipv4",
        [
          Alcotest.test_case "parse" `Quick test_ipv4_parse;
          Alcotest.test_case "parse rejects junk" `Quick test_ipv4_parse_rejects;
          Alcotest.test_case "roundtrip" `Quick test_ipv4_roundtrip;
          Alcotest.test_case "bits and masks" `Quick test_ipv4_bits;
          Alcotest.test_case "succ wraps" `Quick test_ipv4_succ_wraps;
          Alcotest.test_case "address classes" `Quick test_ipv4_classes;
        ] );
      ( "ipv4net",
        [
          Alcotest.test_case "canonical form" `Quick test_net_canonical;
          Alcotest.test_case "containment" `Quick test_net_contains;
          Alcotest.test_case "split and parent" `Quick test_net_split_parent;
          Alcotest.test_case "last addr" `Quick test_net_last_addr;
          Alcotest.test_case "overlaps" `Quick test_net_overlaps;
          Alcotest.test_case "strict length parse" `Quick test_net_parse_strict;
        ] );
      ( "wire",
        [
          Alcotest.test_case "roundtrip" `Quick test_wire_roundtrip;
          Alcotest.test_case "truncated raises" `Quick test_wire_truncated;
          Alcotest.test_case "patch_u16" `Quick test_wire_patch;
          Alcotest.test_case "patch equals streamed" `Quick
            test_wire_patch_equals_streamed;
          Alcotest.test_case "patch bounds" `Quick test_wire_patch_bounds;
          Alcotest.test_case "sub reader scoping" `Quick test_wire_sub;
        ] );
      ( "route_pack",
        [
          Alcotest.test_case "roundtrip" `Quick test_route_pack_roundtrip;
          Alcotest.test_case "rejects junk" `Quick test_route_pack_rejects_junk;
        ] );
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "bounds" `Quick test_rng_bounds;
          Alcotest.test_case "bytes" `Quick test_rng_bytes;
        ] );
      ( "feed",
        [
          Alcotest.test_case "unique prefixes" `Quick test_feed_unique_prefixes;
          Alcotest.test_case "deterministic" `Quick test_feed_deterministic;
          Alcotest.test_case "realistic shape" `Quick test_feed_shape;
          Alcotest.test_case "nexthops" `Quick test_feed_nexthops;
        ] );
      ( "laneq",
        [
          Alcotest.test_case "push/drain across lanes" `Quick test_laneq_basics;
          Alcotest.test_case "per-prefix demotion guard" `Quick
            test_laneq_demotion_guard;
          Alcotest.test_case "unordered variant reorders" `Quick
            test_laneq_unordered_variant;
          Alcotest.test_case "clear resets guard" `Quick test_laneq_clear;
          QCheck_alcotest.to_alcotest prop_laneq_coalescing;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_ipv4_roundtrip;
            prop_net_roundtrip;
            prop_net_contains_first_last;
            prop_split_partitions;
            prop_net_reference_model;
            prop_mask_len;
          ] );
    ]
