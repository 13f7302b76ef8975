(* Tests for the Patricia tree: structure, longest-prefix match, the
   Figure 8 largest-enclosing-subnet computation, and safe iterators
   under concurrent mutation (paper §5.3). *)

let check = Alcotest.check
let net = Ipv4net.of_string_exn
let addr = Ipv4.of_string_exn
let ipv4net = Alcotest.testable Ipv4net.pp Ipv4net.equal

let assert_ok t =
  match Ptree.check_invariants t with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "invariant broken: %s" msg

let build nets =
  let t = Ptree.create () in
  List.iter (fun n -> ignore (Ptree.insert t (net n) n)) nets;
  t

let test_insert_find () =
  let t = build [ "10.0.0.0/8"; "10.1.0.0/16"; "192.168.0.0/24" ] in
  check (Alcotest.option Alcotest.string) "find /8" (Some "10.0.0.0/8")
    (Ptree.find t (net "10.0.0.0/8"));
  check (Alcotest.option Alcotest.string) "find /16" (Some "10.1.0.0/16")
    (Ptree.find t (net "10.1.0.0/16"));
  check (Alcotest.option Alcotest.string) "absent" None
    (Ptree.find t (net "10.2.0.0/16"));
  check Alcotest.int "size" 3 (Ptree.size t);
  assert_ok t

let test_insert_replaces () =
  let t = Ptree.create () in
  ignore (Ptree.insert t (net "10.0.0.0/8") 1);
  let old = Ptree.insert t (net "10.0.0.0/8") 2 in
  check (Alcotest.option Alcotest.int) "old value returned" (Some 1) old;
  check (Alcotest.option Alcotest.int) "new value stored" (Some 2)
    (Ptree.find t (net "10.0.0.0/8"));
  check Alcotest.int "size unchanged" 1 (Ptree.size t)

let test_default_route () =
  let t = build [ "0.0.0.0/0"; "10.0.0.0/8" ] in
  check (Alcotest.option Alcotest.string) "default stored" (Some "0.0.0.0/0")
    (Ptree.find t Ipv4net.default);
  (match Ptree.longest_match t (addr "192.0.2.1") with
   | Some (n, _) -> check ipv4net "default matches anything" Ipv4net.default n
   | None -> Alcotest.fail "no match");
  assert_ok t

let test_longest_match () =
  let t = build [ "128.16.0.0/16"; "128.16.0.0/18"; "128.16.128.0/17";
                  "128.16.192.0/18" ] in
  let lm a =
    match Ptree.longest_match t (addr a) with
    | Some (n, _) -> Ipv4net.to_string n
    | None -> "none"
  in
  check Alcotest.string "32.1 matches /18" "128.16.0.0/18" (lm "128.16.32.1");
  check Alcotest.string "160.1 matches /17" "128.16.128.0/17" (lm "128.16.160.1");
  check Alcotest.string "192.1 matches 2nd /18" "128.16.192.0/18" (lm "128.16.192.1");
  check Alcotest.string "64.1 matches /16" "128.16.0.0/16" (lm "128.16.64.1");
  check Alcotest.string "no match outside" "none" (lm "128.17.0.1");
  assert_ok t

let test_longest_match_net () =
  let t = build [ "10.0.0.0/8"; "10.1.0.0/16" ] in
  (match Ptree.longest_match_net t (net "10.1.2.0/24") with
   | Some (n, _) -> check ipv4net "covers /24" (net "10.1.0.0/16") n
   | None -> Alcotest.fail "no match");
  (match Ptree.longest_match_net t (net "10.1.0.0/16") with
   | Some (n, _) -> check ipv4net "exact counts" (net "10.1.0.0/16") n
   | None -> Alcotest.fail "no exact match");
  (match Ptree.longest_match_net t (net "10.0.0.0/7") with
   | Some _ -> Alcotest.fail "/7 is not covered by /8"
   | None -> ())

let test_remove () =
  let t = build [ "10.0.0.0/8"; "10.1.0.0/16"; "10.1.2.0/24" ] in
  check (Alcotest.option Alcotest.string) "removed" (Some "10.1.0.0/16")
    (Ptree.remove t (net "10.1.0.0/16"));
  check (Alcotest.option Alcotest.string) "gone" None
    (Ptree.find t (net "10.1.0.0/16"));
  check (Alcotest.option Alcotest.string) "others stay" (Some "10.1.2.0/24")
    (Ptree.find t (net "10.1.2.0/24"));
  check (Alcotest.option Alcotest.string) "double remove" None
    (Ptree.remove t (net "10.1.0.0/16"));
  check Alcotest.int "size" 2 (Ptree.size t);
  assert_ok t;
  (* longest match no longer sees the removed route *)
  (match Ptree.longest_match t (addr "10.1.2.3") with
   | Some (n, _) -> check ipv4net "match skips removed" (net "10.1.2.0/24") n
   | None -> Alcotest.fail "no match")

let test_iter_order () =
  let t = build [ "192.168.0.0/24"; "10.0.0.0/8"; "10.1.0.0/16";
                  "10.0.0.0/16"; "172.16.0.0/12" ] in
  let keys = List.map (fun (k, _) -> Ipv4net.to_string k) (Ptree.to_list t) in
  check (Alcotest.list Alcotest.string) "lexicographic pre-order"
    [ "10.0.0.0/8"; "10.0.0.0/16"; "10.1.0.0/16"; "172.16.0.0/12";
      "192.168.0.0/24" ]
    keys

let test_clear () =
  let t = build [ "10.0.0.0/8"; "10.1.0.0/16" ] in
  Ptree.clear t;
  check Alcotest.int "empty" 0 (Ptree.size t);
  check (Alcotest.option Alcotest.string) "gone" None
    (Ptree.find t (net "10.0.0.0/8"));
  assert_ok t

(* --- Figure 8: largest enclosing subnet ----------------------------- *)

let fig8_tree () =
  build [ "128.16.0.0/16"; "128.16.0.0/18"; "128.16.128.0/17";
          "128.16.192.0/18" ]

let test_les_simple () =
  let t = fig8_tree () in
  check ipv4net "32.1: whole /18 is hole-free" (net "128.16.0.0/18")
    (Ptree.largest_enclosing_hole t (addr "128.16.32.1"))

let test_les_overlayed () =
  let t = fig8_tree () in
  (* The paper's key example: 128.16.160.1 matches 128.16.128.0/17,
     which is overlayed by 128.16.192.0/18, so the valid cache range is
     only 128.16.128.0/18. *)
  check ipv4net "160.1: narrowed to /18" (net "128.16.128.0/18")
    (Ptree.largest_enclosing_hole t (addr "128.16.160.1"))

let test_les_inside_overlay () =
  let t = fig8_tree () in
  check ipv4net "192.1: the overlaying /18 itself" (net "128.16.192.0/18")
    (Ptree.largest_enclosing_hole t (addr "128.16.192.1"))

let test_les_no_match () =
  let t = fig8_tree () in
  (* No route covers 20.0.0.0; the hole is huge but must exclude
     128.16/16. 20.0.0.1 = 00010100...; 128.x = 1xxxxxxx: they diverge
     at bit 0, so the hole is 0.0.0.0/1. *)
  check ipv4net "hole outside all routes" (net "0.0.0.0/1")
    (Ptree.largest_enclosing_hole t (addr "20.0.0.1"))

let test_les_middle_sibling () =
  let t = build [ "10.0.0.0/8"; "10.64.0.0/16" ] in
  (* 10.128.0.0 inside /8; sibling /16 overlays the /8 on the other
     half: 10.128.x diverges from 10.64.x at bit 8 (the 10.128/9 half
     contains no more-specifics). *)
  check ipv4net "narrow past the sibling" (net "10.128.0.0/9")
    (Ptree.largest_enclosing_hole t (addr "10.128.0.1"))

let test_has_strictly_inside () =
  let t = fig8_tree () in
  check Alcotest.bool "/16 has inner routes" true
    (Ptree.has_strictly_inside t (net "128.16.0.0/16"));
  check Alcotest.bool "/18 is a leaf" false
    (Ptree.has_strictly_inside t (net "128.16.0.0/18"));
  check Alcotest.bool "unrelated" false
    (Ptree.has_strictly_inside t (net "20.0.0.0/8"));
  check Alcotest.bool "strict: equality is not inside" false
    (Ptree.has_strictly_inside t (net "128.16.192.0/18"))

(* --- Safe iterators (§5.3) ------------------------------------------ *)

let test_iter_complete () =
  let t = build [ "10.0.0.0/8"; "10.1.0.0/16"; "172.16.0.0/12";
                  "192.168.1.0/24" ] in
  let it = Ptree.Safe_iter.start t in
  let rec drain acc =
    match Ptree.Safe_iter.next it with
    | Some (k, _) -> drain (Ipv4net.to_string k :: acc)
    | None -> List.rev acc
  in
  check (Alcotest.list Alcotest.string) "visits all in order"
    [ "10.0.0.0/8"; "10.1.0.0/16"; "172.16.0.0/12"; "192.168.1.0/24" ]
    (drain [])

let test_iter_survives_delete_current () =
  let t = build [ "10.0.0.0/8"; "10.1.0.0/16"; "172.16.0.0/12" ] in
  let it = Ptree.Safe_iter.start t in
  (match Ptree.Safe_iter.next it with
   | Some (k, _) -> check ipv4net "first" (net "10.0.0.0/8") k
   | None -> Alcotest.fail "empty");
  (* Delete the node the iterator is pinned to. *)
  ignore (Ptree.remove t (net "10.0.0.0/8"));
  check (Alcotest.option Alcotest.string) "binding is gone" None
    (Ptree.find t (net "10.0.0.0/8"));
  (* The iterator still advances correctly. *)
  (match Ptree.Safe_iter.next it with
   | Some (k, _) -> check ipv4net "next" (net "10.1.0.0/16") k
   | None -> Alcotest.fail "iterator lost its place");
  (match Ptree.Safe_iter.next it with
   | Some (k, _) -> check ipv4net "third" (net "172.16.0.0/12") k
   | None -> Alcotest.fail "iterator lost its place");
  check Alcotest.bool "end" true (Ptree.Safe_iter.next it = None);
  (* Once the iterator left, deferred physical deletion happened. *)
  assert_ok t

let test_iter_survives_delete_everything () =
  let nets = [ "10.0.0.0/8"; "10.1.0.0/16"; "10.1.2.0/24"; "172.16.0.0/12";
               "192.168.0.0/16"; "192.168.1.0/24" ] in
  let t = build nets in
  let it = Ptree.Safe_iter.start t in
  (match Ptree.Safe_iter.next it with
   | Some _ -> ()
   | None -> Alcotest.fail "empty");
  List.iter (fun n -> ignore (Ptree.remove t (net n))) nets;
  check Alcotest.int "all removed" 0 (Ptree.size t);
  check Alcotest.bool "iterator sees the end" true
    (Ptree.Safe_iter.next it = None);
  assert_ok t

let test_iter_sees_insertions_ahead () =
  let t = build [ "10.0.0.0/8"; "192.168.0.0/16" ] in
  let it = Ptree.Safe_iter.start t in
  ignore (Ptree.Safe_iter.next it);
  (* insert ahead of the cursor *)
  ignore (Ptree.insert t (net "172.16.0.0/12") "new");
  let rest =
    let rec drain acc =
      match Ptree.Safe_iter.next it with
      | Some (k, _) -> drain (Ipv4net.to_string k :: acc)
      | None -> List.rev acc
    in
    drain []
  in
  check (Alcotest.list Alcotest.string) "new binding visited"
    [ "172.16.0.0/12"; "192.168.0.0/16" ] rest

let test_iter_stop_releases () =
  let t = build [ "10.0.0.0/8"; "10.1.0.0/16" ] in
  let it = Ptree.Safe_iter.start t in
  ignore (Ptree.Safe_iter.next it);
  ignore (Ptree.remove t (net "10.0.0.0/8"));
  Ptree.Safe_iter.stop it;
  Ptree.Safe_iter.stop it; (* idempotent *)
  assert_ok t;
  check Alcotest.bool "next after stop" true (Ptree.Safe_iter.next it = None)

let test_two_iterators_one_node () =
  let t = build [ "10.0.0.0/8"; "10.1.0.0/16" ] in
  let it1 = Ptree.Safe_iter.start t in
  let it2 = Ptree.Safe_iter.start t in
  ignore (Ptree.Safe_iter.next it1);
  ignore (Ptree.Safe_iter.next it2);
  ignore (Ptree.remove t (net "10.0.0.0/8"));
  ignore (Ptree.Safe_iter.next it1); (* it1 leaves; it2 still pins *)
  (match Ptree.Safe_iter.next it2 with
   | Some (k, _) -> check ipv4net "it2 advances too" (net "10.1.0.0/16") k
   | None -> Alcotest.fail "it2 lost its place");
  Ptree.Safe_iter.stop it1;
  Ptree.Safe_iter.stop it2;
  assert_ok t

(* --- qcheck properties ---------------------------------------------- *)

let arb_nets =
  let gen_net =
    QCheck.Gen.(
      map2
        (fun i len -> Ipv4net.make (Ipv4.of_int (i * 2654435761)) (8 + (len mod 25)))
        (int_bound 0x3FFFFFFF) (int_bound 24))
  in
  QCheck.make
    QCheck.Gen.(list_size (int_range 1 120) gen_net)
    ~print:(fun l -> String.concat ";" (List.map Ipv4net.to_string l))

let prop_model_find =
  QCheck.Test.make ~name:"find agrees with assoc-list model" ~count:200 arb_nets
    (fun nets ->
       let t = Ptree.create () in
       let model = Hashtbl.create 64 in
       List.iteri
         (fun i n ->
            ignore (Ptree.insert t n i);
            Hashtbl.replace model n i)
         nets;
       Hashtbl.fold
         (fun n i acc -> acc && Ptree.find t n = Some i)
         model
         (Ptree.size t = Hashtbl.length model
          && Ptree.check_invariants t = Ok (Printf.sprintf "%d bindings, structure consistent" (Hashtbl.length model))))

let prop_longest_match_model =
  QCheck.Test.make ~name:"longest_match agrees with linear scan" ~count:200
    (QCheck.pair arb_nets (QCheck.int_bound 0x3FFFFFFF))
    (fun (nets, a) ->
       let a = Ipv4.of_int (a * 40503) in
       let t = Ptree.create () in
       List.iter (fun n -> ignore (Ptree.insert t n n)) nets;
       let expected =
         List.fold_left
           (fun best n ->
              if Ipv4net.contains_addr n a then
                match best with
                | Some b when Ipv4net.prefix_len b >= Ipv4net.prefix_len n ->
                  best
                | _ -> Some n
              else best)
           None nets
       in
       match Ptree.longest_match t a, expected with
       | None, None -> true
       | Some (n, _), Some e -> Ipv4net.equal n e
       | _ -> false)

let prop_remove_all_empties =
  QCheck.Test.make ~name:"removing everything empties the tree" ~count:200
    arb_nets (fun nets ->
        let t = Ptree.create () in
        List.iter (fun n -> ignore (Ptree.insert t n ())) nets;
        List.iter (fun n -> ignore (Ptree.remove t n)) nets;
        Ptree.size t = 0 && Ptree.to_list t = []
        && (match Ptree.check_invariants t with Ok _ -> true | Error _ -> false))

let prop_les_is_hole =
  QCheck.Test.make ~name:"largest_enclosing_hole contains no inner route"
    ~count:200
    (QCheck.pair arb_nets (QCheck.int_bound 0x3FFFFFFF))
    (fun (nets, a) ->
       let a = Ipv4.of_int (a * 48271) in
       let t = Ptree.create () in
       List.iter (fun n -> ignore (Ptree.insert t n ())) nets;
       let hole = Ptree.largest_enclosing_hole t a in
       Ipv4net.contains_addr hole a
       && (not (Ptree.has_strictly_inside t hole))
       &&
       (* every address in the hole has the same longest match *)
       let lm x = Option.map fst (Ptree.longest_match t x) in
       let same x = lm x = lm a in
       same (Ipv4net.first_addr hole) && same (Ipv4net.last_addr hole))

let prop_iterator_vs_snapshot =
  QCheck.Test.make ~name:"safe iterator visits surviving bindings" ~count:200
    arb_nets (fun nets ->
        let t = Ptree.create () in
        List.iter (fun n -> ignore (Ptree.insert t n ())) nets;
        (* Walk while deleting every other visited binding behind the
           cursor; the iterator must still terminate and visit each
           surviving key at most once. *)
        let it = Ptree.Safe_iter.start t in
        let visited = ref [] in
        let flip = ref false in
        let rec go () =
          match Ptree.Safe_iter.next it with
          | None -> ()
          | Some (k, ()) ->
            visited := k :: !visited;
            flip := not !flip;
            if !flip then ignore (Ptree.remove t k);
            go ()
        in
        go ();
        let sorted = List.sort Ipv4net.compare !visited in
        let rec no_dup = function
          | a :: (b :: _ as rest) -> (not (Ipv4net.equal a b)) && no_dup rest
          | _ -> true
        in
        no_dup sorted
        && (match Ptree.check_invariants t with Ok _ -> true | Error _ -> false))

(* Random interleavings of insert, remove and clear, with a safe
   iterator advanced now and then and otherwise left pinned mid-walk.
   After every step each query is checked against a linear scan of an
   association-list model, then the structure is self-checked; every
   binding the iterator yields must be live at that moment. Keys come
   from a small nested pool so splices, glue nodes and one-child
   prunes are frequent. *)
type op = Insert of int | Remove of int | Clear | Advance

let pool_size = 12

let arb_interleaving =
  let open QCheck.Gen in
  let base = oneofl [ 0x0A00_0000; 0x0A80_0000; 0xC0A8_0000; 0x0A01_0200 ] in
  let key =
    map3
      (fun b bits len -> Ipv4net.make (Ipv4.of_int (b lxor bits)) len)
      base (int_bound 0xFFFF) (frequency [ (1, oneofl [ 0; 32 ]); (6, int_range 6 26) ])
  in
  let op =
    frequency
      [ (6, map (fun i -> Insert i) (int_bound (pool_size - 1)));
        (4, map (fun i -> Remove i) (int_bound (pool_size - 1)));
        (1, return Clear); (3, return Advance) ]
  in
  QCheck.make
    (pair (array_size (return pool_size) key) (list_size (int_range 1 80) op))
    ~print:(fun (pool, ops) ->
        String.concat " "
          (List.map
             (function
               | Insert i -> "+" ^ Ipv4net.to_string pool.(i)
               | Remove i -> "-" ^ Ipv4net.to_string pool.(i)
               | Clear -> "clear"
               | Advance -> "next")
             ops))

let prop_interleaved_model =
  QCheck.Test.make ~name:"interleaved insert/remove/clear agree with a model"
    ~count:300 arb_interleaving (fun (pool, ops) ->
        let t = Ptree.create () in
        let model = ref [] in (* (key, value), any order *)
        let it = ref None in
        let fail fmt = QCheck.Test.fail_reportf fmt in
        let sorted l = List.sort (fun (a, _) (b, _) -> Ipv4net.compare a b) l in
        let verify step =
          let m = !model in
          Array.iter
            (fun q ->
               let find = List.assoc_opt q m in
               let outer = List.filter (fun (k, _) -> Ipv4net.contains k q) m in
               let by_len (a, _) (b, _) =
                 Int.compare (Ipv4net.prefix_len a) (Ipv4net.prefix_len b) in
               let containing = List.sort by_len outer in
               let longest = match List.rev containing with b :: _ -> Some b | [] -> None in
               let within = sorted (List.filter (fun (k, _) -> Ipv4net.contains q k) m) in
               let inside = List.exists (fun (k, _) -> not (Ipv4net.equal k q)) within in
               let folded =
                 List.rev (Ptree.fold_within t q (fun k v acc -> (k, v) :: acc) [])
               in
               if Ptree.find t q <> find then fail "step %d: find %a" step Ipv4net.pp q;
               if Ptree.longest_match_net t q <> longest then
                 fail "step %d: longest_match_net %a" step Ipv4net.pp q;
               if Ptree.containing t q <> containing then
                 fail "step %d: containing %a" step Ipv4net.pp q;
               if folded <> within then fail "step %d: fold_within %a" step Ipv4net.pp q;
               if Ptree.has_strictly_inside t q <> inside then
                 fail "step %d: has_strictly_inside %a" step Ipv4net.pp q)
            pool;
          if Ptree.size t <> List.length m then fail "step %d: size" step;
          match Ptree.check_invariants t with
          | Ok _ -> ()
          | Error e -> fail "step %d: %s" step e
        in
        List.iteri
          (fun step op ->
             (match op with
              | Insert i ->
                let k = pool.(i) in
                if Ptree.insert t k step <> List.assoc_opt k !model then
                  fail "step %d: insert's old binding" step;
                model := (k, step) :: List.remove_assoc k !model
              | Remove i ->
                let k = pool.(i) in
                if Ptree.remove t k <> List.assoc_opt k !model then
                  fail "step %d: remove's old binding" step;
                model := List.remove_assoc k !model
              | Clear ->
                Ptree.clear t;
                model := []
              | Advance ->
                let i = match !it with Some i -> i | None -> Ptree.Safe_iter.start t in
                (match Ptree.Safe_iter.next i with
                 | None -> it := None
                 | Some (k, v) ->
                   it := Some i;
                   if List.assoc_opt k !model <> Some v then
                     fail "step %d: iterator yielded dead binding %a" step Ipv4net.pp k;
                   if Ptree.Safe_iter.pinned i <> Some k then
                     fail "step %d: iterator pins another key" step));
             verify step)
          ops;
        Option.iter Ptree.Safe_iter.stop !it;
        verify (List.length ops);
        Ptree.to_list t = sorted !model)

let () =
  Alcotest.run "xorp_trie"
    [
      ( "basic",
        [
          Alcotest.test_case "insert and find" `Quick test_insert_find;
          Alcotest.test_case "insert replaces" `Quick test_insert_replaces;
          Alcotest.test_case "default route" `Quick test_default_route;
          Alcotest.test_case "longest match" `Quick test_longest_match;
          Alcotest.test_case "longest match net" `Quick test_longest_match_net;
          Alcotest.test_case "remove" `Quick test_remove;
          Alcotest.test_case "iteration order" `Quick test_iter_order;
          Alcotest.test_case "clear" `Quick test_clear;
        ] );
      ( "figure8",
        [
          Alcotest.test_case "simple /18" `Quick test_les_simple;
          Alcotest.test_case "overlayed /17" `Quick test_les_overlayed;
          Alcotest.test_case "inside the overlay" `Quick test_les_inside_overlay;
          Alcotest.test_case "no matching route" `Quick test_les_no_match;
          Alcotest.test_case "sibling overlay" `Quick test_les_middle_sibling;
          Alcotest.test_case "has_strictly_inside" `Quick test_has_strictly_inside;
        ] );
      ( "safe_iter",
        [
          Alcotest.test_case "complete walk" `Quick test_iter_complete;
          Alcotest.test_case "delete current node" `Quick
            test_iter_survives_delete_current;
          Alcotest.test_case "delete everything mid-walk" `Quick
            test_iter_survives_delete_everything;
          Alcotest.test_case "sees insertions ahead" `Quick
            test_iter_sees_insertions_ahead;
          Alcotest.test_case "stop releases pin" `Quick test_iter_stop_releases;
          Alcotest.test_case "two iterators, one node" `Quick
            test_two_iterators_one_node;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_model_find;
            prop_longest_match_model;
            prop_remove_all_empties;
            prop_les_is_hole;
            prop_iterator_vs_snapshot;
            prop_interleaved_model;
          ] );
    ]
