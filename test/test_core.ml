(* Integration tests for pr_core: the design space, the registry, the
   scenario builders and the experiment driver — plus cross-protocol
   invariants that hold over whole scenarios. *)

module Rng = Pr_util.Rng
module Graph = Pr_topology.Graph
module Flow = Pr_policy.Flow
module Gen = Pr_policy.Gen
module Design_point = Pr_proto.Design_point
module Design_space = Pr_core.Design_space
module Registry = Pr_core.Registry
module Scenario = Pr_core.Scenario
module Experiment = Pr_core.Experiment

let check_int = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

(* --- Design space ---------------------------------------------------- *)

let design_space_complete () =
  check_int "eight cells" 8 (List.length Design_space.cells);
  (* Every design point appears exactly once. *)
  List.iter
    (fun point ->
      let cell = Design_space.find point in
      check_bool "cell matches" true (Design_point.equal cell.Design_space.point point))
    Design_point.all;
  (* Four implemented, four impractical — as in the paper. *)
  let implemented =
    List.filter
      (fun c ->
        match c.Design_space.status with
        | Design_space.Implemented _ -> true
        | Design_space.Impractical _ -> false)
      Design_space.cells
  in
  check_int "four implemented points" 4 (List.length implemented)

let design_space_consistent_with_registry () =
  (* Every policy design's declared point is an implemented cell (the
     policy-free baselines occupy cells only as strawmen). *)
  List.iter
    (fun packed ->
      let cell = Design_space.find (Registry.design_point packed) in
      match cell.Design_space.status with
      | Design_space.Implemented _ -> ()
      | Design_space.Impractical _ ->
        Alcotest.failf "%s declares an impractical design point" (Registry.name packed))
    Registry.policy_designs

let contains_substring haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let design_space_renders () =
  let s = Design_space.render () in
  check_bool "mentions orwg" true (contains_substring s "orwg")

(* --- Registry --------------------------------------------------------- *)

let registry_names_unique () =
  let names = Registry.names Registry.all in
  check_int "unique names" (List.length names) (List.length (List.sort_uniq compare names));
  check_int "four policy designs" 4 (List.length Registry.policy_designs);
  check_int "four baselines" 4 (List.length Registry.baselines)

let registry_find () =
  check_bool "find orwg" true (Registry.name (Registry.find "orwg") = "orwg");
  Alcotest.check_raises "unknown" Not_found (fun () -> ignore (Registry.find "nonesuch"))

(* --- Scenario --------------------------------------------------------- *)

let scenario_deterministic () =
  let s1 = Scenario.hierarchical ~seed:5 () in
  let s2 = Scenario.hierarchical ~seed:5 () in
  check_int "same size" (Graph.n s1.Scenario.graph) (Graph.n s2.Scenario.graph);
  check_int "same policy terms"
    (Pr_policy.Config.total_terms s1.Scenario.config)
    (Pr_policy.Config.total_terms s2.Scenario.config);
  let rng1 = Rng.create 9 and rng2 = Rng.create 9 in
  let f1 = Scenario.flows s1 ~rng:rng1 ~count:20 () in
  let f2 = Scenario.flows s2 ~rng:rng2 ~count:20 () in
  check_bool "same workload" true (List.for_all2 Flow.equal f1 f2)

let scenario_flows_are_host_to_host () =
  let s = Scenario.hierarchical ~seed:3 () in
  let rng = Rng.create 1 in
  let hosts = Graph.host_ids s.Scenario.graph in
  List.iter
    (fun (f : Flow.t) ->
      check_bool "src is a host" true (List.mem f.Flow.src hosts);
      check_bool "dst is a host" true (List.mem f.Flow.dst hosts);
      check_bool "src <> dst" true (f.Flow.src <> f.Flow.dst))
    (Scenario.flows s ~rng ~count:50 ())

let scenario_open_policies () =
  let s = Scenario.figure1 ~seed:2 () in
  let o = Scenario.open_policies s in
  check_bool "fewer or equal terms" true
    (Pr_policy.Config.total_terms o.Scenario.config
    <= Pr_policy.Config.total_terms s.Scenario.config + 14);
  check_bool "no source policies" true
    (List.for_all
       (fun ad -> not (Pr_policy.Config.has_source_policy o.Scenario.config ad))
       (List.init 14 (fun i -> i)))

let scenario_all_host_pairs () =
  let s = Scenario.figure1 ~seed:2 () in
  let hosts = List.length (Graph.host_ids s.Scenario.graph) in
  check_int "ordered pairs" (hosts * (hosts - 1)) (List.length (Scenario.all_host_pairs s))

(* --- Codec --------------------------------------------------------------- *)

(* Figure 1 has unit delays; the E15 topology draws heterogeneous
   ones, which must come back bit-for-bit. *)
let codec_roundtrip_figure1 () =
  let e15 =
    Scenario.hierarchical
      ~topology:
        { Pr_topology.Generator.default with max_delay = 4.0; max_cost = 3 }
      ~seed:163 ()
  in
  List.iter
    (fun s ->
      let g = s.Scenario.graph in
      List.iter2
        (fun (l : Pr_topology.Link.t) sx ->
          match sx with
          | Pr_util.Sexp.List fields when l.delay = 1.0 ->
            Alcotest.(check string) "unit delay prints as 1" "1"
              (Pr_util.Sexp.to_string (List.nth fields 6))
          | _ -> ())
        (Array.to_list (Graph.links g))
        (Result.get_ok (Pr_util.Sexp.assoc "links" (Pr_core.Codec.graph_to_sexp g)));
      match Pr_core.Codec.load (Pr_core.Codec.save s) with
      | Error e -> Alcotest.failf "load failed: %s" e
      | Ok s' ->
        Alcotest.(check string) "label" s.Scenario.label s'.Scenario.label;
        check_int "seed" s.Scenario.seed s'.Scenario.seed;
        check_int "same n" (Graph.n g) (Graph.n s'.Scenario.graph);
        check_int "same links"
          (Graph.num_links g)
          (Graph.num_links s'.Scenario.graph);
        Array.iter2
          (fun (l : Pr_topology.Link.t) (l' : Pr_topology.Link.t) ->
            check_bool
              (Printf.sprintf "link %d delay %.17g" l.id l.delay)
              true
              (Float.equal l.delay l'.delay))
          (Graph.links g)
          (Graph.links s'.Scenario.graph);
        check_int "same policy terms"
          (Pr_policy.Config.total_terms s.Scenario.config)
          (Pr_policy.Config.total_terms s'.Scenario.config);
        check_int "same advertisement bytes"
          (Pr_policy.Config.total_advertisement_bytes s.Scenario.config)
          (Pr_policy.Config.total_advertisement_bytes s'.Scenario.config))
    [ Scenario.figure1 ~seed:42 (); e15 ]

let codec_roundtrip_behaviour =
  QCheck.Test.make ~name:"reloaded scenarios behave identically" ~count:8 QCheck.small_int
    (fun seed ->
      let s =
        Scenario.figure1
          ~policy:{ Gen.default with restrictiveness = 0.5; source_policy_prob = 0.5 }
          ~seed ()
      in
      match Pr_core.Codec.load (Pr_core.Codec.save s) with
      | Error _ -> false
      | Ok s' ->
        let flows =
          let rng = Rng.create (seed + 1) in
          Scenario.flows s ~rng ~count:15 ()
        in
        let r = Experiment.evaluate (Registry.find "orwg") s ~flows () in
        let r' = Experiment.evaluate (Registry.find "orwg") s' ~flows () in
        r.Experiment.delivered = r'.Experiment.delivered
        && r.Experiment.messages = r'.Experiment.messages
        && r.Experiment.bytes = r'.Experiment.bytes
        && r.Experiment.transit_violations = r'.Experiment.transit_violations)

let codec_term_fields_roundtrip () =
  (* A term exercising every field must survive the trip with identical
     admission behaviour. *)
  let term =
    Pr_policy.Policy_term.make ~owner:3
      ~sources:(Pr_policy.Policy_term.Only [| 1; 2; 7 |])
      ~destinations:(Pr_policy.Policy_term.Except [| 4 |])
      ~prev_hops:(Pr_policy.Policy_term.Only [| 0 |])
      ~next_hops:(Pr_policy.Policy_term.Except [| 5; 6 |])
      ~qos:[ Pr_policy.Qos.Low_delay; Pr_policy.Qos.Default ]
      ~ucis:[ Pr_policy.Uci.Commercial ]
      ~hours:(22, 6) ~auth_required:true ()
  in
  let g = Pr_topology.Figure1.graph () in
  let transit =
    Array.init 14 (fun ad ->
        if ad = 3 then Pr_policy.Transit_policy.make 3 [ term ]
        else Pr_policy.Transit_policy.no_transit ad)
  in
  let scenario =
    {
      Scenario.label = "codec-term";
      graph = g;
      config = Pr_policy.Config.make ~transit ();
      seed = 0;
    }
  in
  match Pr_core.Codec.load (Pr_core.Codec.save scenario) with
  | Error e -> Alcotest.failf "roundtrip failed: %s" e
  | Ok s' ->
    let term' =
      match (Pr_policy.Config.transit s'.Scenario.config 3).Pr_policy.Transit_policy.terms with
      | [ t ] -> t
      | _ -> Alcotest.fail "expected exactly one term"
    in
    (* Probe admission agreement across a grid of contexts. *)
    List.iter
      (fun src ->
        List.iter
          (fun (hour, auth, prev, next) ->
            let ctx =
              {
                Pr_policy.Policy_term.flow =
                  Flow.make ~src ~dst:2 ~qos:Pr_policy.Qos.Low_delay
                    ~uci:Pr_policy.Uci.Commercial ~hour ~authenticated:auth ();
                prev;
                next;
              }
            in
            check_bool "same admission" 
              (Pr_policy.Policy_term.admits term ctx)
              (Pr_policy.Policy_term.admits term' ctx))
          [ (23, true, Some 0, Some 7); (12, true, Some 0, Some 7);
            (23, false, Some 0, Some 7); (23, true, Some 1, Some 7);
            (23, true, Some 0, Some 5); (23, true, None, None) ])
      [ 1; 3; 7 ]

let codec_rejects_garbage () =
  check_bool "not a scenario" true (Result.is_error (Pr_core.Codec.load "(scenario)"));
  check_bool "not sexp" true (Result.is_error (Pr_core.Codec.load "((("));
  check_bool "missing file" true
    (Result.is_error (Pr_core.Codec.load_file ~path:"/nonexistent/file.scn"));
  (* Bad link fields from a scenario file come back as [Error], never as
     an exception or a silently accepted link. *)
  let graph link =
    Printf.sprintf
      "(graph (ads (ad 0 a stub campus) (ad 1 b stub campus)) (links %s))" link
  in
  List.iter
    (fun link ->
      let doc = graph link in
      match Pr_core.Codec.graph_of_sexp (Pr_util.Sexp.of_string doc |> Result.get_ok) with
      | Ok _ -> Alcotest.failf "accepted %s" link
      | Error _ -> ()
      | exception e -> Alcotest.failf "%s raised %s" link (Printexc.to_string e))
    [
      "(link 0 0 1 hierarchical 1 nan)";
      "(link 0 0 1 hierarchical 1 inf)";
      "(link 0 0 1 hierarchical 1 0)";
      "(link 0 0 1 hierarchical 1 -1)";
      "(link 0 0 1 hierarchical 0 1)";
      "(link 0 0 0 hierarchical 1 1)";
    ];
  check_bool "well-formed link accepted" true
    (Result.is_ok
       (Pr_core.Codec.graph_of_sexp
          (Pr_util.Sexp.of_string (graph "(link 0 0 1 hierarchical 1 1)")
          |> Result.get_ok)))

let codec_delays_exact () =
  let delays = [ 1.0; 4.0; 0.1; 1.0 /. 3.0; 1.6117326875038318; 1e-300; Float.max_float ] in
  let doc =
    Printf.sprintf "(graph (ads (ad 0 a stub campus) (ad 1 b stub campus)) (links %s))"
      (String.concat " "
         (List.mapi (fun id d -> Printf.sprintf "(link %d 0 1 lateral 1 %.17g)" id d) delays))
  in
  let g =
    match Pr_core.Codec.graph_of_sexp (Result.get_ok (Pr_util.Sexp.of_string doc)) with
    | Ok g -> g
    | Error e -> Alcotest.failf "decode failed: %s" e
  in
  let printed =
    Result.get_ok (Pr_util.Sexp.assoc "links" (Pr_core.Codec.graph_to_sexp g))
    |> List.map (function
         | Pr_util.Sexp.List fields -> Pr_util.Sexp.to_string (List.nth fields 6)
         | s -> Alcotest.failf "malformed link %s" (Pr_util.Sexp.to_string s))
  in
  Alcotest.(check string) "1.0 prints as 1" "1" (List.nth printed 0);
  Alcotest.(check string) "4.0 prints as 4" "4" (List.nth printed 1);
  List.iter2
    (fun d p ->
      check_bool (Printf.sprintf "%s reads back as %.17g" p d) true
        (Float.equal d (float_of_string p)))
    delays printed

let codec_file_roundtrip () =
  let s = Scenario.figure1 ~seed:9 () in
  let path = Filename.temp_file "scenario" ".scn" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Pr_core.Codec.save_file s ~path;
      match Pr_core.Codec.load_file ~path with
      | Ok s' -> check_int "roundtrip via file" (Graph.n s.Scenario.graph) (Graph.n s'.Scenario.graph)
      | Error e -> Alcotest.failf "load_file: %s" e)

(* --- Impact ------------------------------------------------------------ *)

let impact_noop_change () =
  (* Re-proposing an AD's existing policy must report no change. *)
  let scenario = Scenario.figure1 ~seed:42 () in
  let current = Pr_policy.Config.transit scenario.Scenario.config 0 in
  let r = Pr_core.Impact.assess scenario ~proposed:current () in
  check_int "nothing lost" 0 (List.length r.Pr_core.Impact.lost);
  check_int "nothing gained" 0 (List.length r.Pr_core.Impact.gained);
  check_int "nothing degraded" 0 (List.length r.Pr_core.Impact.degraded);
  check_int "load unchanged" r.Pr_core.Impact.transit_load_before
    r.Pr_core.Impact.transit_load_after

let impact_closing_backbone () =
  let scenario =
    Scenario.open_policies (Scenario.figure1 ~seed:42 ())
  in
  let proposed = Pr_policy.Transit_policy.no_transit 0 in
  let r = Pr_core.Impact.assess scenario ~proposed () in
  (* Campus 7 hangs off R1 which reaches the rest only via BB1: its 6
     destinations and 6 sources are cut (minus any bypass detours). *)
  check_bool "pairs lost" true (List.length r.Pr_core.Impact.lost > 0);
  check_int "sheds all transit" 0 r.Pr_core.Impact.transit_load_after;
  check_bool "carried transit before" true (r.Pr_core.Impact.transit_load_before > 0);
  (* Every lost pair really is unreachable after. *)
  List.iter
    (fun (c : Pr_core.Impact.pair_change) ->
      check_bool "after is none" true (c.Pr_core.Impact.after = None);
      check_bool "before was some" true (c.Pr_core.Impact.before <> None))
    r.Pr_core.Impact.lost

let impact_opening_gains () =
  (* Start from a config where BB1 refuses everything, then open it. *)
  let base = Scenario.open_policies (Scenario.figure1 ~seed:42 ()) in
  let g = base.Scenario.graph in
  let transit =
    Array.init (Graph.n g) (fun ad ->
        if ad = 0 then Pr_policy.Transit_policy.no_transit 0
        else Pr_policy.Config.transit base.Scenario.config ad)
  in
  let closed =
    { base with Scenario.config = Pr_policy.Config.make ~transit () }
  in
  let r =
    Pr_core.Impact.assess closed ~proposed:(Pr_policy.Transit_policy.open_transit 0) ()
  in
  check_bool "pairs gained" true (List.length r.Pr_core.Impact.gained > 0);
  check_int "nothing lost by opening" 0 (List.length r.Pr_core.Impact.lost)

let impact_class_specific () =
  let scenario = Scenario.open_policies (Scenario.figure1 ~seed:42 ()) in
  let research_only =
    Pr_policy.Transit_policy.make 0
      [ Pr_policy.Policy_term.make ~owner:0 ~ucis:[ Pr_policy.Uci.Research ] () ]
  in
  let res =
    Pr_core.Impact.assess scenario ~proposed:research_only ~uci:Pr_policy.Uci.Research ()
  in
  let com =
    Pr_core.Impact.assess scenario ~proposed:research_only ~uci:Pr_policy.Uci.Commercial ()
  in
  check_int "research unaffected" 0 (List.length res.Pr_core.Impact.lost);
  check_bool "commercial loses" true (List.length com.Pr_core.Impact.lost > 0)

let impact_summary_renders () =
  let scenario = Scenario.figure1 ~seed:42 () in
  let r =
    Pr_core.Impact.assess scenario ~proposed:(Pr_policy.Transit_policy.no_transit 0) ()
  in
  let s = Pr_core.Impact.summary r in
  check_bool "mentions the AD" true (contains_substring s "AD 0")

(* --- Experiment -------------------------------------------------------- *)

let experiment_smoke_all_protocols () =
  let scenario = Scenario.figure1 ~seed:42 () in
  let rng = Rng.create 7 in
  let flows = Scenario.flows scenario ~rng ~count:20 () in
  List.iter
    (fun packed ->
      let r = Experiment.evaluate packed scenario ~flows () in
      check_bool (r.Experiment.protocol ^ " converged") true r.Experiment.converged;
      check_int
        (r.Experiment.protocol ^ " outcomes partition")
        r.Experiment.flows
        (r.Experiment.delivered + r.Experiment.dropped + r.Experiment.looped
       + r.Experiment.prep_failed))
    Registry.all

let experiment_deterministic () =
  let scenario = Scenario.figure1 ~seed:42 () in
  let flows =
    let rng = Rng.create 7 in
    Scenario.flows scenario ~rng ~count:15 ()
  in
  let run () = Experiment.evaluate (Registry.find "ecma") scenario ~flows () in
  let a = run () and b = run () in
  check_int "same messages" a.Experiment.messages b.Experiment.messages;
  check_int "same delivered" a.Experiment.delivered b.Experiment.delivered;
  check_int "same computations" a.Experiment.computations b.Experiment.computations

let experiment_policy_designs_zero_violations () =
  (* The PT-carrying designs never violate transit policy; the
     baselines (which ignore policy) generally do. *)
  let scenario =
    Scenario.figure1 ~seed:11 ~policy:{ Gen.default with restrictiveness = 0.6 } ()
  in
  let rng = Rng.create 3 in
  let flows = Scenario.flows scenario ~rng ~count:40 () in
  List.iter
    (fun name ->
      let r = Experiment.evaluate (Registry.find name) scenario ~flows () in
      check_int (name ^ " has zero transit violations") 0 r.Experiment.transit_violations)
    [ "idrp"; "ls-hbh-pt"; "orwg" ]

let experiment_orwg_zero_source_violations () =
  let scenario =
    Scenario.figure1 ~seed:13
      ~policy:{ Gen.default with restrictiveness = 0.5; source_policy_prob = 0.8 }
      ()
  in
  let rng = Rng.create 5 in
  let flows = Scenario.flows scenario ~rng ~count:40 () in
  let r = Experiment.evaluate (Registry.find "orwg") scenario ~flows () in
  check_int "orwg honors source policies" 0 r.Experiment.source_violations

let experiment_convergence_probe () =
  let scenario = Scenario.figure1 ~seed:42 () in
  let g = scenario.Scenario.graph in
  let link = Option.get (Graph.find_link g 0 1) in
  let probe = Experiment.convergence_after_failure (Registry.find "link-state") scenario ~link in
  check_bool "initial messages counted" true (probe.Experiment.initial_messages > 0);
  check_bool "failure reaction counted" true (probe.Experiment.after_failure_messages > 0);
  check_bool "reconverged" true probe.Experiment.after_failure_converged

let experiment_availability_helper () =
  let scenario = Scenario.figure1 ~seed:42 () in
  let rng = Rng.create 7 in
  let flows = Scenario.flows scenario ~rng ~count:20 () in
  let delivered =
    Experiment.availability (Registry.find "link-state") scenario ~flows ~delivered:true
  in
  let undelivered =
    Experiment.availability (Registry.find "link-state") scenario ~flows ~delivered:false
  in
  check_int "partition of workload" (List.length flows)
    (List.length delivered + List.length undelivered)

let () =
  Alcotest.run "pr_core"
    [
      ( "design-space",
        [
          Alcotest.test_case "complete" `Quick design_space_complete;
          Alcotest.test_case "consistent with registry" `Quick
            design_space_consistent_with_registry;
          Alcotest.test_case "renders" `Quick design_space_renders;
        ] );
      ( "registry",
        [
          Alcotest.test_case "unique names" `Quick registry_names_unique;
          Alcotest.test_case "find" `Quick registry_find;
        ] );
      ( "scenario",
        [
          Alcotest.test_case "deterministic" `Quick scenario_deterministic;
          Alcotest.test_case "host-to-host flows" `Quick scenario_flows_are_host_to_host;
          Alcotest.test_case "open policies" `Quick scenario_open_policies;
          Alcotest.test_case "all host pairs" `Quick scenario_all_host_pairs;
        ] );
      ( "codec",
        [
          Alcotest.test_case "figure1 roundtrip" `Quick codec_roundtrip_figure1;
          Alcotest.test_case "term fields roundtrip" `Quick codec_term_fields_roundtrip;
          Alcotest.test_case "rejects garbage" `Quick codec_rejects_garbage;
          Alcotest.test_case "file roundtrip" `Quick codec_file_roundtrip;
        ]
        @ List.map QCheck_alcotest.to_alcotest [ codec_roundtrip_behaviour ]
        @ [ Alcotest.test_case "delays exact" `Quick codec_delays_exact ] );
      ( "impact",
        [
          Alcotest.test_case "no-op change" `Quick impact_noop_change;
          Alcotest.test_case "closing a backbone" `Quick impact_closing_backbone;
          Alcotest.test_case "opening gains" `Quick impact_opening_gains;
          Alcotest.test_case "class specific" `Quick impact_class_specific;
          Alcotest.test_case "summary renders" `Quick impact_summary_renders;
        ] );
      ( "experiment",
        [
          Alcotest.test_case "smoke all protocols" `Slow experiment_smoke_all_protocols;
          Alcotest.test_case "deterministic" `Quick experiment_deterministic;
          Alcotest.test_case "policy designs: no transit violations" `Quick
            experiment_policy_designs_zero_violations;
          Alcotest.test_case "orwg: no source violations" `Quick
            experiment_orwg_zero_source_violations;
          Alcotest.test_case "convergence probe" `Quick experiment_convergence_probe;
          Alcotest.test_case "availability helper" `Quick experiment_availability_helper;
        ] );
    ]
