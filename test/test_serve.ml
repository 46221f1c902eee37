(* Tests for the serving layer: the policy decision diagram (diagram
   admit must agree with the compiled bitsets and the interpreted
   Policy Terms on every crossing, and the hash-cons store must never
   hold two structurally equal live nodes), the generic LRU behind the
   handle table and ORWG's route caches, the never-mix snapshot guarantee
   under set_transit churn, workload determinism, and short daemon
   sessions end to end. *)

module Rng = Pr_util.Rng
module Lru = Pr_util.Lru
module Graph = Pr_topology.Graph
module Path = Pr_topology.Path
module Link = Pr_topology.Link
module Figure1 = Pr_topology.Figure1
module Flow = Pr_policy.Flow
module Qos = Pr_policy.Qos
module Uci = Pr_policy.Uci
module Policy_term = Pr_policy.Policy_term
module Transit_policy = Pr_policy.Transit_policy
module Config = Pr_policy.Config
module Gen = Pr_policy.Gen
module Compiled = Pr_policy.Compiled
module Policy_store = Pr_policy.Policy_store
module Validate = Pr_policy.Validate
module Scenario = Pr_core.Scenario
module Pdd = Pr_serve.Pdd
module Serve = Pr_serve.Serve
module Workload = Pr_serve.Workload
module Daemon = Pr_serve.Daemon
module Metrics = Pr_sim.Metrics

let check_int = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

(* --- generators (the compilation edge cases of test_policy) -------- *)

let universe = 14

let gen_pred_full =
  QCheck.Gen.(
    frequency
      [
        (3, return Policy_term.Any);
        (1, return (Policy_term.Only [||]));
        (1, return (Policy_term.Except [||]));
        ( 3,
          map
            (fun l -> Policy_term.Only (Array.of_list l))
            (list_size (int_range 1 6) (int_range 0 20)) );
        ( 3,
          map
            (fun l -> Policy_term.Except (Array.of_list l))
            (list_size (int_range 1 6) (int_range 0 20)) );
      ])

let gen_subset all =
  QCheck.Gen.(
    map
      (fun mask ->
        match List.filteri (fun i _ -> (mask lsr i) land 1 = 1) all with
        | [] -> all
        | l -> l)
      (int_range 0 ((1 lsl List.length all) - 1)))

let gen_hours =
  QCheck.Gen.(
    frequency
      [
        (2, return None);
        ( 3,
          map2
            (fun a b -> if a = b then None else Some (a, b))
            (int_range 0 23) (int_range 0 23) );
      ])

let gen_term_for owner =
  QCheck.Gen.(
    map
      (fun ((src, dst, prev, next), qos, ucis, (hours, auth)) ->
        Policy_term.make ~owner ~sources:src ~destinations:dst ~prev_hops:prev
          ~next_hops:next ~qos ~ucis ?hours ~auth_required:auth ())
      (tup4
         (tup4 gen_pred_full gen_pred_full gen_pred_full gen_pred_full)
         (gen_subset Qos.all) (gen_subset Uci.all)
         (tup2 gen_hours bool)))

let gen_term = gen_term_for 5

let gen_terms = QCheck.Gen.(list_size (int_range 0 5) gen_term)

let gen_ctx =
  QCheck.Gen.(
    let id = int_range 0 13 in
    map
      (fun (src, dst, (qi, ui, hour, auth), prev, next) ->
        {
          Policy_term.flow =
            Flow.make ~src ~dst ~qos:(Qos.of_index qi) ~uci:(Uci.of_index ui) ~hour
              ~authenticated:auth ();
          prev = (if prev < 0 then None else Some prev);
          next = (if next < 0 then None else Some next);
        })
      (tup5 id id
         (tup4 (int_range 0 3) (int_range 0 2) (int_range 0 23) bool)
         (int_range (-1) 13) (int_range (-1) 13)))

(* --- decision diagram: observational equivalence ------------------- *)

let diagram_matches_compiled_and_interpreted =
  QCheck.Test.make
    ~name:"diagram admit = Compiled.allows = Transit_policy.allows" ~count:500
    (QCheck.make QCheck.Gen.(pair gen_terms gen_ctx))
    (fun (terms, ctx) ->
      let compiled = Compiled.compile ~n:universe terms in
      let root = Pdd.compile (Pdd.store_create ()) compiled in
      let d =
        Pdd.admit_node root ctx.Policy_term.flow ~prev:ctx.Policy_term.prev
          ~next:ctx.Policy_term.next
      in
      let policy = Transit_policy.make 5 terms in
      d = Compiled.allows compiled ctx && d = Transit_policy.allows policy ctx)

let flow_entry_matches_full_walk =
  QCheck.Test.make ~name:"flow_entry + entry_admit = the full walk" ~count:500
    (QCheck.make QCheck.Gen.(pair gen_terms gen_ctx))
    (fun (terms, ctx) ->
      let compiled = Compiled.compile ~n:universe terms in
      let root = Pdd.compile (Pdd.store_create ()) compiled in
      let entry = Pdd.flow_entry root ctx.Policy_term.flow in
      Pdd.entry_admit entry ~prev:ctx.Policy_term.prev ~next:ctx.Policy_term.next
      = Pdd.admit_node root ctx.Policy_term.flow ~prev:ctx.Policy_term.prev
          ~next:ctx.Policy_term.next)

(* Shared store, many policies, churn — and the hash-cons invariant
   (no two structurally equal live nodes) must survive it all. *)
let hash_cons_invariant_under_churn =
  QCheck.Test.make ~name:"hash-cons invariant survives set_transit churn" ~count:30
    (QCheck.make
       QCheck.Gen.(
         pair
           (list_size (int_range 1 6)
              (int_range 0 13 >>= fun ad ->
               map
                 (fun terms -> (ad, terms))
                 (list_size (int_range 0 5) (gen_term_for ad))))
           gen_ctx))
    (fun (flips, ctx) ->
      let g = Figure1.graph () in
      let store = Policy_store.create (Config.defaults g) in
      let db = Pdd.db_create store in
      (match Pdd.check db with
      | Ok () -> ()
      | Error e -> QCheck.Test.fail_reportf "initial check: %s" e);
      List.iter
        (fun (ad, terms) ->
          Policy_store.set_transit store ad (Transit_policy.make ad terms);
          ignore (Pdd.refresh db);
          (match Pdd.check db with
          | Ok () -> ()
          | Error e -> QCheck.Test.fail_reportf "after flip: %s" e);
          let snap = Pdd.snapshot db in
          let d =
            Pdd.admit snap ~ad ctx.Policy_term.flow ~prev:ctx.Policy_term.prev
              ~next:ctx.Policy_term.next
          in
          if d <> Policy_store.allows store ad ctx then
            QCheck.Test.fail_reportf "diagram disagrees with store after flip")
        flips;
      true)

(* --- Lru ----------------------------------------------------------- *)

(* Model: MRU-first association list, bounded at the capacity. *)
let lru_matches_model =
  let gen_ops =
    QCheck.Gen.(
      list_size (int_range 0 120)
        (frequency
           [
             (4, map2 (fun k v -> `Put (k, v)) (int_range 0 9) small_int);
             (3, map (fun k -> `Find k) (int_range 0 9));
             (1, map (fun k -> `Remove k) (int_range 0 9));
           ]))
  in
  QCheck.Test.make ~name:"Lru agrees with a bounded MRU-list model" ~count:300
    (QCheck.make gen_ops) (fun ops ->
      let cap = 4 in
      let t = Lru.create ~capacity:(Some cap) () in
      let model = ref [] in
      let evicted = ref 0 in
      let ok = ref true in
      List.iter
        (fun op ->
          match op with
          | `Put (k, v) ->
            let existed = List.mem_assoc k !model in
            model := (k, v) :: List.remove_assoc k !model;
            if (not existed) && List.length !model > cap then begin
              match List.rev !model with
              | (victim, _) :: _ ->
                model := List.remove_assoc victim !model;
                incr evicted
              | [] -> ()
            end;
            ignore (Lru.put t k v)
          | `Find k -> (
            let got = Lru.find t k in
            match List.assoc_opt k !model with
            | Some v ->
              model := (k, v) :: List.remove_assoc k !model;
              if got <> Some v then ok := false
            | None -> if got <> None then ok := false)
          | `Remove k ->
            model := List.remove_assoc k !model;
            Lru.remove t k)
        ops;
      !ok
      && Lru.self_check t = Ok ()
      && Lru.length t = List.length !model
      && Lru.evictions t = !evicted
      && Lru.fold t ~init:[] ~f:(fun acc k v -> (k, v) :: acc) = List.rev !model)

let lru_eviction_order () =
  let t = Lru.create ~capacity:(Some 2) () in
  check_bool "no eviction below capacity" true (Lru.put t 1 "a" = None);
  check_bool "no eviction at capacity" true (Lru.put t 2 "b" = None);
  check_bool "lru key evicted" true (Lru.put t 3 "c" = Some 1);
  (* Touch 2, then overflow: 3 (now least recent) goes. *)
  check_bool "find touches" true (Lru.find t 2 = Some "b");
  check_bool "touched key survives" true (Lru.put t 4 "d" = Some 3);
  check_int "two evictions" 2 (Lru.evictions t);
  (* Updating a resident key never evicts. *)
  check_bool "update in place" true (Lru.put t 2 "b2" = None);
  check_bool "updated value visible" true (Lru.peek t 2 = Some "b2");
  Lru.clear t;
  check_int "clear keeps the eviction count" 2 (Lru.evictions t);
  check_int "clear empties" 0 (Lru.length t);
  check_bool "self-check" true (Lru.self_check t = Ok ())

let lru_unbounded_and_bad_capacity () =
  let t = Lru.create () in
  for i = 0 to 999 do
    ignore (Lru.put t i i)
  done;
  check_int "unbounded never evicts" 0 (Lru.evictions t);
  check_int "all resident" 1000 (Lru.length t);
  Alcotest.check_raises "capacity must be positive"
    (Invalid_argument "Lru.create: capacity < 1") (fun () ->
      ignore (Lru.create ~capacity:(Some 0) ()))

(* --- snapshots never mix versions (satellite: stale-snapshot fix) --- *)

let restrictive =
  { Gen.default with Gen.restrictiveness = 0.8; granularity = Gen.Fine }

let answer_path = function
  | Serve.Route { path; _ } -> Some path
  | Serve.No_route _ -> None

(* Answers under one fixed database version, via a fresh private store. *)
let answers_at config graph ~flip flows =
  let store = Policy_store.create config in
  (match flip with
  | Some (ad, p) -> Policy_store.set_transit store ad p
  | None -> ());
  let serve = Serve.create graph store in
  ignore (Serve.refresh serve ~now:0.0);
  List.map (fun f -> answer_path (Serve.query serve ~now:0.0 f)) flows

let snapshot_race_regression () =
  let scenario = Scenario.for_size ~policy:restrictive ~target_ads:30 ~seed:9 () in
  let g = scenario.Scenario.graph in
  let config = scenario.Scenario.config in
  let flows = Scenario.flows scenario ~rng:(Rng.create 17) ~count:24 () in
  let victim = List.hd (Graph.transit_ids g) in
  let flip = (victim, Transit_policy.no_transit victim) in
  let old_answers = answers_at config g ~flip:None flows in
  let new_answers = answers_at config g ~flip:(Some flip) flows in
  check_bool "the flip changes at least one answer" true (old_answers <> new_answers);
  (* Race a query batch against the flip: set_transit lands mid-batch
     and the serve refreshes a few queries later. Every answer must
     equal the old version's or the new version's — never a mix of the
     two databases inside one answer, and the version tag must say
     which. *)
  let store = Policy_store.create config in
  let serve = Serve.create g store in
  ignore (Serve.refresh serve ~now:0.0);
  let v0 = Pdd.snapshot_version (Serve.snapshot serve) in
  List.iteri
    (fun i f ->
      if i = 8 then Policy_store.set_transit store victim (snd flip);
      if i = 16 then ignore (Serve.refresh serve ~now:0.0);
      let a = Serve.query serve ~now:0.0 f in
      let version =
        match a with Serve.Route { version; _ } -> version | Serve.No_route { version } -> version
      in
      let expected =
        if version = v0 then List.nth old_answers i else List.nth new_answers i
      in
      if answer_path a <> expected then
        Alcotest.failf "query %d: answer matches neither version cleanly" i;
      (* Before the refresh the serve must keep answering from the old
         snapshot; after it, from the new one. *)
      check_int "version pinned per query" (if i < 16 then v0 else v0 + 1) version)
    flows;
  (* A caller-pinned snapshot is immune to the refresh entirely. *)
  let store2 = Policy_store.create config in
  let serve2 = Serve.create g store2 in
  ignore (Serve.refresh serve2 ~now:0.0);
  let snap = Serve.snapshot serve2 in
  List.iteri
    (fun i f ->
      if i = 8 then begin
        Policy_store.set_transit store2 victim (snd flip);
        ignore (Serve.refresh serve2 ~now:0.0)
      end;
      let a = Serve.query ~snap serve2 ~now:0.0 f in
      if answer_path a <> List.nth old_answers i then
        Alcotest.failf "pinned query %d: not the old version's answer" i)
    flows

(* --- handle table -------------------------------------------------- *)

let handle_accounting () =
  let scenario = Scenario.for_size ~policy:restrictive ~target_ads:30 ~seed:9 () in
  let store = Policy_store.create scenario.Scenario.config in
  let serve =
    Serve.create ~handle_capacity:(Some 4) scenario.Scenario.graph store
  in
  ignore (Serve.refresh serve ~now:0.0);
  let flows = Scenario.flows scenario ~rng:(Rng.create 23) ~count:40 () in
  let handles =
    List.filter_map
      (fun f ->
        match Serve.query serve ~now:0.0 f with
        | Serve.Route { handle; _ } -> Some handle
        | Serve.No_route _ -> None)
      flows
  in
  check_bool "issued more than capacity" true (List.length handles > 4);
  let s = Serve.stats serve in
  check_int "issued = live + evicted" s.Serve.handles_issued
    (s.Serve.handles_live + s.Serve.handle_evictions);
  check_bool "evictions happened" true (s.Serve.handle_evictions > 0);
  (* Only the most recent handles answer; evicted ones miss. *)
  (match List.rev handles with
  | newest :: _ ->
    check_bool "newest handle lives" true (Serve.data serve ~now:0.0 ~handle:newest <> None)
  | [] -> Alcotest.fail "no handles issued");
  check_bool "oldest handle evicted" true
    (Serve.data serve ~now:0.0 ~handle:(List.hd handles) = None);
  check_bool "self-check clean" true (Serve.self_check serve = Ok ())

(* --- workload determinism ------------------------------------------ *)

let workload_deterministic () =
  let scenario = Scenario.for_size ~policy:restrictive ~target_ads:30 ~seed:9 () in
  let stream seed =
    let w = Workload.create ~rng:(Rng.create seed) scenario.Scenario.graph in
    List.init 200 (fun i -> Workload.next w ~now:(float_of_int i *. 0.3))
  in
  check_bool "same seed, same operations" true (stream 5 = stream 5);
  check_bool "different seed, different operations" true (stream 5 <> stream 6);
  let ops = stream 5 in
  check_bool "stream mixes queries and data" true
    (List.exists (function Workload.Query _ -> true | _ -> false) ops
    && List.exists (function Workload.Data _ -> true | _ -> false) ops)

(* --- daemon end to end --------------------------------------------- *)

let daemon_session_healthy () =
  let cfg = { Daemon.default_config with Daemon.target_ads = 20; duration = 8.0; seed = 3 } in
  let r = Daemon.run cfg in
  check_bool "session healthy" true (Daemon.healthy r);
  check_int "no admission disagreements" 0 r.Daemon.agreement_failures;
  check_bool "agreement checks actually ran" true (r.Daemon.agreement_checks > 0);
  check_bool "policy flips actually happened" true (r.Daemon.flips > 0);
  check_bool "faults actually fired" true (r.Daemon.faults > 0);
  check_bool "incremental rebuilds stayed incremental" true
    (r.Daemon.stats.Serve.rebuilt_ads
    < r.Daemon.ads * (r.Daemon.stats.Serve.rebuilds + 1))

(* Under the chatter plan the update guard quarantines the flapping
   adjacency and the loop serves from its pinned snapshot; past the
   deadline (4 x interval of staleness) every query is shed, and every
   query that is not shed is either answered or a no-route. *)
let daemon_chatter_sheds_past_deadline () =
  let plan =
    match Pr_faults.Plan.profile "chatter" with
    | Some p -> p
    | None -> Alcotest.fail "no chatter profile"
  in
  let cfg =
    {
      Daemon.default_config with
      Daemon.target_ads = 30;
      duration = 12.0;
      seed = 7;
      plan;
      plan_name = "chatter";
    }
  in
  let r = Daemon.run cfg in
  check_bool "session healthy" true (Daemon.healthy r);
  check_bool "went stale" true (r.Daemon.stale_batches > 0);
  check_bool "stale past the deadline" true
    (r.Daemon.max_stale_age > 4.0 *. cfg.Daemon.interval);
  check_bool "queries shed" true (r.Daemon.queries_shed > 0);
  check_int "every query served is answered or no-route" r.Daemon.queries
    (r.Daemon.answered + r.Daemon.no_routes);
  check_int "no route cache" 0 r.Daemon.stats.Serve.route_hits

(* --- served routes: live, legal, cheapest --------------------------- *)

(* Each query searches afresh: take a link of a served route down and
   the answer detours around it; bring it back and the same flow gets
   its original route again, never the remembered detour. *)
let repeat_query_follows_link_state () =
  let scenario = Scenario.for_size ~policy:restrictive ~target_ads:30 ~seed:9 () in
  let g = scenario.Scenario.graph in
  let links_down = Array.make (Graph.num_links g) false in
  let link_up l = not links_down.(l) in
  let serve = Serve.create ~link_up g (Policy_store.create scenario.Scenario.config) in
  ignore (Serve.refresh serve ~now:0.0);
  let route f =
    match Serve.query serve ~now:0.0 f with
    | Serve.Route { path; handle; _ } -> Some (path, handle)
    | Serve.No_route _ -> None
  in
  (* The links joining the first hop of a path, parallel ones included. *)
  let first_hop_links = function
    | a :: b :: _ ->
        Graph.fold_neighbors g a ~init:[] ~f:(fun acc v l -> if v = b then l :: acc else acc)
    | _ -> []
  in
  let detoured =
    Scenario.flows scenario ~rng:(Rng.create 4) ~count:60 ()
    |> List.filter_map (fun f ->
           match route f with
           | Some (path, h1) when List.length path > 2 -> (
               let hop = first_hop_links path in
               List.iter (fun l -> links_down.(l) <- true) hop;
               let during = route f in
               List.iter (fun l -> links_down.(l) <- false) hop;
               match during with
               | Some (detour, _) ->
                   check_bool "detour avoids the down hop" true
                     (List.nth detour 1 <> List.nth path 1);
                   (match route f with
                   | Some (again, h2) ->
                       check_bool "restored route is the original" true (again = path);
                       check_bool "fresh handle" true (h2 <> h1)
                   | None -> Alcotest.fail "no route after restore");
                   Some f
               | None -> None)
           | _ -> None)
  in
  check_bool "some flow detoured and came back" true (detoured <> []);
  check_int "no route cache hits" 0 (Serve.stats serve).Serve.route_hits



(* The flow's QOS metric over the cheapest up parallel link from a to
   b, or None when no up link joins them. *)
let hop_metric g ~link_up (f : Flow.t) a b =
  Graph.fold_neighbors g a ~init:None ~f:(fun acc v l ->
      if v <> b || not (link_up l) then acc
      else begin
        let link = Graph.link g l in
        let m =
          Pr_proto.Qos_metric.metric f.Flow.qos ~cost:link.Link.cost ~delay:link.Link.delay
        in
        match acc with Some m' when m' <= m -> acc | _ -> Some m
      end)

(* The path's cost under the live topology, or None when it crosses a
   down AD or a hop with no up link. *)
let live_cost g ~link_up ~node_up f path =
  let rec go acc = function
    | [] -> Some acc
    | [ last ] -> if node_up last then Some acc else None
    | a :: (b :: _ as rest) -> (
        if not (node_up a) then None
        else
          match hop_metric g ~link_up f a b with
          | None -> None
          | Some m -> go (acc + m) rest)
  in
  go 0 path

let served_routes_live_legal_cheapest =
  QCheck.Test.make ~name:"served routes are live, legal and no dearer than any live legal path"
    ~count:60 QCheck.small_nat (fun seed ->
      let rng = Rng.create seed in
      let target_ads = 10 + Rng.int rng 31 in
      let policy = if Rng.bool rng then restrictive else Gen.default in
      let scenario = Scenario.for_size ~policy ~target_ads ~seed () in
      let g = scenario.Scenario.graph and config = scenario.Scenario.config in
      let links_down = Array.init (Graph.num_links g) (fun _ -> Rng.chance rng 0.1) in
      let ads_down = Array.init (Graph.n g) (fun _ -> Rng.chance rng 0.05) in
      let link_up l = not links_down.(l) and node_up ad = not ads_down.(ad) in
      let serve = Serve.create ~link_up ~node_up g (Policy_store.create config) in
      ignore (Serve.refresh serve ~now:0.0);
      let flows = Scenario.flows scenario ~rng ~count:12 () in
      let served round (f : Flow.t) =
        match Serve.query serve ~now:0.0 f with
        | Serve.No_route _ -> true
        | Serve.Route { path; _ } -> (
            let fail why =
              QCheck.Test.fail_reportf "seed %d, %s, flow %d->%d, path %s: %s" seed round
                f.Flow.src f.Flow.dst (Path.to_string path) why
            in
            if List.hd path <> f.Flow.src || List.nth path (List.length path - 1) <> f.Flow.dst
            then fail "wrong endpoints"
            else if not (Path.is_loop_free path) then fail "loops"
            else if not (Validate.transit_legal g config f path) then fail "not transit-legal"
            else
              match live_cost g ~link_up ~node_up f path with
              | None -> fail "crosses a down AD or link"
              | Some cost ->
                  Validate.legal_paths g config f ~max_hops:8 ~limit:2000 ()
                  |> List.for_all (fun alt ->
                         match live_cost g ~link_up ~node_up f alt with
                         | Some alt_cost when alt_cost < cost ->
                             fail
                               (Printf.sprintf "costs %d, but live legal %s costs %d" cost
                                  (Path.to_string alt) alt_cost)
                         | _ -> true))
      in
      List.for_all (served "while down") flows
      && begin
           (* Bring everything back up: the same flows must now get the
              cheapest route of the restored topology, not a detour
              remembered from the outage. *)
           Array.fill links_down 0 (Array.length links_down) false;
           Array.fill ads_down 0 (Array.length ads_down) false;
           List.for_all (served "after restore") flows
         end)

(* --- the bounded search against the per-query rebuild -------------- *)

(* The oracle: a per-query snapshot of the live graph (the cheapest up
   parallel link to each up neighbor, under the flow's QOS metric)
   searched without a bound. The server's static planes, live edge
   costs and landmark bound must give the same route costs. *)
let reference_route g ~link_up ~node_up snap (f : Flow.t) =
  let rows =
    Array.init (Graph.n g) (fun u ->
        if not (node_up u) then [||]
        else
          Graph.neighbor_ids g u
          |> List.filter_map (fun v ->
                 if node_up v then Option.map (fun m -> (v, m)) (hop_metric g ~link_up f u v)
                 else None)
          |> Array.of_list)
  in
  let csr, metric = Pr_proto.Policy_route.weighted_csr rows in
  fst
    (Pr_proto.Policy_route.search ~src:f.Flow.src ~dst:f.Flow.dst ~csr
       ~cost:(fun _ i -> metric.(i))
       ~entry:(fun ad -> Pdd.flow_entry (Pdd.root snap ad) f)
       ~admit:Pdd.entry_admit ())

(* Flows compared, and those answered by a different route of the same
   cost (the landmark bound may settle ties another way). *)
let reference_flows = ref 0

let reference_ties = ref 0

let bounded_search_matches_reference =
  QCheck.Test.make
    ~name:"served routes cost what the unbounded search over a live rebuild costs"
    ~count:400 QCheck.small_nat (fun seed ->
      let rng = Rng.create seed in
      let target_ads = 10 + Rng.int rng 91 in
      let policy = if Rng.bool rng then restrictive else Gen.default in
      let scenario = Scenario.for_size ~policy ~target_ads ~seed () in
      let g = scenario.Scenario.graph in
      let links_down = Array.init (Graph.num_links g) (fun _ -> Rng.chance rng 0.1) in
      let ads_down = Array.init (Graph.n g) (fun _ -> Rng.chance rng 0.05) in
      let link_up l = not links_down.(l) and node_up ad = not ads_down.(ad) in
      let serve =
        Serve.create ~link_up ~node_up g (Policy_store.create scenario.Scenario.config)
      in
      ignore (Serve.refresh serve ~now:0.0);
      let snap = Serve.snapshot serve in
      Scenario.flows scenario ~rng ~count:30 ()
      |> List.for_all (fun (f : Flow.t) ->
             incr reference_flows;
             let served = answer_path (Serve.query ~snap serve ~now:0.0 f) in
             let expected = reference_route g ~link_up ~node_up snap f in
             let cost = Option.map (live_cost g ~link_up ~node_up f) in
             if cost served <> cost expected then
               QCheck.Test.fail_reportf "seed %d, flow %d->%d: served %s, reference %s" seed
                 f.Flow.src f.Flow.dst
                 (Option.fold ~none:"none" ~some:Path.to_string served)
                 (Option.fold ~none:"none" ~some:Path.to_string expected)
             else begin
               if served <> expected then incr reference_ties;
               true
             end))

let reference_tally () =
  check_bool "flows were compared" true (!reference_flows > 0);
  Printf.printf "bounded vs reference: %d flows, %d equal-cost ties\n" !reference_flows
    !reference_ties

(* No generated internet has parallel links, so build one: S - A = B - D
   where A and B are joined by a cheap (1) and a dear (4) link, with a
   detour A - C - B costing 3 in between. *)
let parallel_link_fallback () =
  let module Ad = Pr_topology.Ad in
  let ads =
    [|
      Ad.make ~id:0 ~name:"S" ~klass:Ad.Stub ~level:Ad.Campus;
      Ad.make ~id:1 ~name:"A" ~klass:Ad.Transit ~level:Ad.Regional;
      Ad.make ~id:2 ~name:"B" ~klass:Ad.Transit ~level:Ad.Regional;
      Ad.make ~id:3 ~name:"D" ~klass:Ad.Stub ~level:Ad.Campus;
      Ad.make ~id:4 ~name:"C" ~klass:Ad.Transit ~level:Ad.Regional;
    |]
  in
  let link id a b cost = Link.make ~id ~a ~b ~cost Link.Hierarchical in
  let g =
    Graph.create ads
      [| link 0 0 1 1; link 1 1 2 1; link 2 1 2 4; link 3 2 3 1; link 4 1 4 1; link 5 4 2 2 |]
  in
  let links_down = Array.make (Graph.num_links g) false in
  let ads_down = Array.make (Graph.n g) false in
  let link_up l = not links_down.(l) and node_up ad = not ads_down.(ad) in
  let serve =
    Serve.create ~link_up ~node_up g (Policy_store.create (Config.defaults g))
  in
  ignore (Serve.refresh serve ~now:0.0);
  let f = Flow.make ~src:0 ~dst:3 () in
  let route () = answer_path (Serve.query serve ~now:0.0 f) in
  let check_route what expected =
    Alcotest.(check (option (list int))) what expected (route ())
  in
  let direct = Some [ 0; 1; 2; 3 ] and detour = Some [ 0; 1; 4; 2; 3 ] in
  check_route "all up: the cheap link" direct;
  links_down.(1) <- true;
  (* Priced at the dear link (4), the pair loses to the detour (3). *)
  check_route "cheap link down: the pair costs the dear link" detour;
  ads_down.(4) <- true;
  check_route "no detour: the dear link still carries the pair" direct;
  links_down.(2) <- true;
  check_route "both links and the detour down" None;
  ads_down.(4) <- false;
  check_route "both links down: the detour" detour;
  links_down.(1) <- false;
  links_down.(2) <- false;
  check_route "restored: the original route" direct

(* Each server owns its search workspace: interleaving two servers of
   different sizes, across a policy flip and refresh, answers exactly
   as a freshly created server would. *)
let workspace_isolation () =
  let setup target_ads seed =
    let scenario = Scenario.for_size ~policy:restrictive ~target_ads ~seed () in
    let g = scenario.Scenario.graph in
    let store = Policy_store.create scenario.Scenario.config in
    let serve = Serve.create g store in
    ignore (Serve.refresh serve ~now:0.0);
    let flows = Scenario.flows scenario ~rng:(Rng.create seed) ~count:30 () in
    (g, store, serve, flows)
  in
  let big = setup 80 3 and small = setup 20 5 in
  let fresh (g, store, _, _) f =
    let serve = Serve.create g store in
    ignore (Serve.refresh serve ~now:0.0);
    answer_path (Serve.query serve ~now:0.0 f)
  in
  let ask ((_, _, serve, _) as s) f =
    check_bool "same answer as a fresh server" true
      (answer_path (Serve.query serve ~now:0.0 f) = fresh s f)
  in
  let (g, store, _, _) = big in
  let round () =
    let (_, _, _, big_flows) = big and (_, _, _, small_flows) = small in
    List.iter2
      (fun fb fs ->
        ask big fb;
        ask small fs)
      big_flows small_flows
  in
  round ();
  let victim = List.hd (Graph.transit_ids g) in
  Policy_store.set_transit store victim (Transit_policy.no_transit victim);
  List.iter (fun (_, _, serve, _) -> ignore (Serve.refresh serve ~now:1.0)) [ big; small ];
  round ()

(* --- ORWG route cache bounded by the same LRU ---------------------- *)

module Tiny_rc = Pr_orwg.Orwg.Make (struct
  let name = "orwg-tiny-rc"

  let use_handles = true

  let pg_capacity = None

  let pr_capacity = Some 1

  let setup_retries = 2

  let delegate_stub_route_servers = false

  let prune_synthesis = false
end)

module Rt = Pr_proto.Runner.Make (Tiny_rc)
module Ro = Pr_proto.Runner.Make (Pr_orwg.Orwg.Orwg)

let orwg_route_cache_bounded () =
  let g = Figure1.graph () in
  let r = Rt.setup g (Config.defaults g) in
  ignore (Rt.converge r);
  let f1 = Flow.make ~src:7 ~dst:8 () in
  let f2 = Flow.make ~src:7 ~dst:9 () in
  check_bool "f1 delivered" true (Pr_proto.Forwarding.delivered (Rt.send_flow r f1));
  check_bool "f2 delivered" true (Pr_proto.Forwarding.delivered (Rt.send_flow r f2));
  check_bool "route cache at capacity" true
    (Tiny_rc.route_cache_entries (Rt.protocol r) 7 <= 1);
  check_bool "route evictions counted" true (Tiny_rc.route_evictions (Rt.protocol r) 7 > 0);
  (* Evictions surface in the run metrics too. *)
  check_bool "metrics see the evictions" true
    (Metrics.evictions_of (Rt.metrics r) 7 > 0);
  (* The evicted flow still delivers — through a fresh synthesis. *)
  check_bool "f1 recovers" true (Pr_proto.Forwarding.delivered (Rt.send_flow r f1))

let orwg_route_cache_default_roomy () =
  let g = Figure1.graph () in
  let r = Ro.setup g (Config.defaults g) in
  ignore (Ro.converge r);
  List.iter
    (fun dst ->
      if dst <> 7 then ignore (Ro.send_flow r (Flow.make ~src:7 ~dst ())))
    (Graph.host_ids g);
  List.iter
    (fun ad ->
      check_int "no route evictions at the default bound" 0
        (Pr_orwg.Orwg.Orwg.route_evictions (Ro.protocol r) ad))
    (List.init (Graph.n g) Fun.id)

(* --- metrics eviction counters ------------------------------------- *)

let metrics_evictions_roundtrip () =
  let m = Metrics.create ~n:3 in
  Metrics.record_eviction m 1 ();
  Metrics.record_eviction m 1 ~count:4 ();
  Metrics.record_eviction m 2 ();
  check_int "total" 6 (Metrics.evictions m);
  check_int "per-ad" 5 (Metrics.evictions_of m 1);
  let d = Metrics.diff ~after:m ~before:(Metrics.create ~n:3) in
  check_int "diff keeps evictions" 6 (Metrics.evictions d)

let () =
  Alcotest.run "pr_serve"
    [
      ( "pdd",
        qsuite
          [
            diagram_matches_compiled_and_interpreted;
            flow_entry_matches_full_walk;
            hash_cons_invariant_under_churn;
          ] );
      ( "lru",
        [
          Alcotest.test_case "eviction order" `Quick lru_eviction_order;
          Alcotest.test_case "unbounded + bad capacity" `Quick
            lru_unbounded_and_bad_capacity;
        ]
        @ qsuite [ lru_matches_model ] );
      ( "serve",
        [
          Alcotest.test_case "snapshot race regression" `Quick snapshot_race_regression;
          Alcotest.test_case "handle accounting" `Quick handle_accounting;
          Alcotest.test_case "workload determinism" `Quick workload_deterministic;
          Alcotest.test_case "daemon session healthy" `Quick daemon_session_healthy;
          Alcotest.test_case "chatter sheds past the deadline" `Quick
            daemon_chatter_sheds_past_deadline;
          Alcotest.test_case "repeat query follows link state" `Quick
            repeat_query_follows_link_state;
        ]
        @ qsuite [ served_routes_live_legal_cheapest ]
        @ [
            QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 16 |])
              bounded_search_matches_reference;
            Alcotest.test_case "bounded vs reference tally" `Quick reference_tally;
            Alcotest.test_case "parallel-link fallback" `Quick parallel_link_fallback;
            Alcotest.test_case "workspace isolation" `Quick workspace_isolation;
          ] );
      ( "orwg-cache",
        [
          Alcotest.test_case "bounded route cache evicts" `Quick orwg_route_cache_bounded;
          Alcotest.test_case "default bound never evicts here" `Quick
            orwg_route_cache_default_roomy;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "eviction counters roundtrip" `Quick
            metrics_evictions_roundtrip;
        ] );
    ]
