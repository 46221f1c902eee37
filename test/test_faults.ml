(* Tests for the pr_faults fault-injection subsystem: plan specs,
   crash/restart across the protocol families, partition heal
   exactness, chaos-report determinism, and the harness's non-vacuity
   (the deliberately broken variant must be flagged). *)

module J = Pr_util.Json
module Rng = Pr_util.Rng
module Graph = Pr_topology.Graph
module Generator = Pr_topology.Generator
module Engine = Pr_sim.Engine
module Metrics = Pr_sim.Metrics
module Network = Pr_sim.Network
module Churn = Pr_sim.Churn
module Runner = Pr_proto.Runner
module Forwarding = Pr_proto.Forwarding
module Registry = Pr_core.Registry
module Scenario = Pr_core.Scenario
module Plan = Pr_faults.Plan
module Nemesis = Pr_faults.Nemesis
module Chaos = Pr_faults.Chaos

let check_int = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

let check_string = Alcotest.(check string)

(* --- Plan specs ----------------------------------------------------- *)

let plan_roundtrip () =
  List.iter
    (fun (name, plan) ->
      let spec = Plan.to_string plan in
      match Plan.of_string spec with
      | Error e -> Alcotest.failf "profile %s spec %S did not parse: %s" name spec e
      | Ok reparsed ->
        check_string
          (Printf.sprintf "profile %s round-trips" name)
          spec (Plan.to_string reparsed))
    Plan.profiles

let plan_parse_errors () =
  List.iter
    (fun spec ->
      match Plan.of_string spec with
      | Ok _ -> Alcotest.failf "spec %S should not parse" spec
      | Error _ -> ())
    [ "bogus:plan"; "drop:p=1.5"; "crash:down=8"; "drop:p=nope"; "storm:at=1,flaps=x" ]

let plan_empty () =
  check_bool "empty spec is the empty plan" true (Plan.of_string "" = Ok []);
  check_bool "no message faults" false (Plan.has_message_faults []);
  check_int "no incidents" 0 (List.length (Plan.incident_times []))

let plan_incidents () =
  let plan =
    [
      Plan.Crash { ad = Some 2; at_time = 5.0; down_for = Some 3.0 };
      Plan.Partition { at_time = 10.0; heal_after = Some 4.0 };
    ]
  in
  Alcotest.(check (list (float 1e-9)))
    "onsets and recoveries, sorted" [ 5.0; 8.0; 10.0; 14.0 ] (Plan.incident_times plan);
  Alcotest.(check (float 1e-9)) "last incident" 14.0 (Plan.last_incident_time plan)

(* --- Metrics loss accounting ---------------------------------------- *)

let metrics_losses () =
  let m = Metrics.create ~n:3 in
  Metrics.record_loss m 1;
  Metrics.record_loss m 1;
  Metrics.record_loss m 2;
  check_int "total losses" 3 (Metrics.msgs_lost m);
  check_int "per-node losses" 2 (Metrics.msgs_lost_of m 1)

(* --- Crash/restart across the protocol families --------------------- *)

(* One representative per design-point family, plus the baselines:
   after a transit-AD crash with total state loss and a restart, the
   protocol must reconverge and deliver again. *)
let crash_restart_case name =
  let test () =
    match Registry.find_opt name with
    | None -> Alcotest.failf "protocol %s not registered" name
    | Some (Registry.Packed (module P)) ->
      let scenario = Scenario.for_size ~target_ads:14 ~seed:7 () in
      let g = scenario.Scenario.graph in
      let module R = Runner.Make (P) in
      let r = R.setup g scenario.Scenario.config in
      ignore (R.converge r);
      let flows = Scenario.flows scenario ~rng:(Rng.create 99) ~count:20 () in
      let delivered fs =
        List.fold_left
          (fun acc f -> if Forwarding.delivered (R.send_flow r f) then acc + 1 else acc)
          0 fs
      in
      let before = delivered flows in
      let victim = List.hd (Graph.transit_ids g) in
      R.crash_ad r victim;
      let c = R.converge ~max_events:2_000_000 r in
      check_bool (name ^ " reconverges after crash") true c.Runner.converged;
      R.restart_ad r victim;
      let c = R.converge ~max_events:2_000_000 r in
      check_bool (name ^ " reconverges after restart") true c.Runner.converged;
      (* EGP's single-path reachability does not fully recover from
         fail/restore — the conformance suite exempts it from the same
         property, so only the reconvergence is required of it here. *)
      if name <> "egp" then
        check_int (name ^ " delivers as before once healed") before (delivered flows)
  in
  Alcotest.test_case name `Quick test

(* --- Partition heal exactness (qcheck) ------------------------------ *)

(* The heal must restore exactly the links the partition cut: links
   downed by an unrecovered crash or left down by interleaved churn
   (odd flip count) stay down. Checked by snapshotting the down-link
   set just before the partition fires and comparing it to the final
   state after the heal. *)
let partition_heals_exactly =
  QCheck.Test.make ~name:"partition heal restores exactly the cut links" ~count:15
    QCheck.small_int (fun seed ->
      let g = Generator.generate (Rng.create seed) Generator.default in
      let engine = Engine.create () in
      let metrics = Metrics.create ~n:(Graph.n g) in
      let net = Network.create engine g metrics in
      Network.set_message_handler net (fun ~at:_ ~from:_ () -> ());
      Network.set_link_handler net (fun ~at:_ ~link:_ ~up:_ -> ());
      (* Interference: churn with an odd flip count leaves its last
         failure down; a never-restarting crash leaves links down too. *)
      Churn.schedule net (Rng.derive seed "churn") ~events:3 ~spacing:2.0 ();
      let plan =
        [
          Plan.Crash { ad = None; at_time = 9.0; down_for = None };
          Plan.Partition { at_time = 20.0; heal_after = Some 10.0 };
        ]
      in
      let nemesis = Nemesis.install net ~rng:(Rng.derive seed "faults") plan in
      let down_links () =
        List.filter
          (fun lid -> not (Network.link_is_up net lid))
          (List.init (Graph.num_links g) Fun.id)
      in
      let before_partition = ref [] in
      Engine.schedule_at engine ~time:19.9 (fun () -> before_partition := down_links ());
      (match Engine.run engine with
      | Engine.Drained -> ()
      | Engine.Reached_limit -> QCheck.Test.fail_report "event queue did not drain");
      let cut = Nemesis.partition_cut nemesis in
      List.iter
        (fun lid ->
          if List.mem lid !before_partition then
            QCheck.Test.fail_reportf "link %d was already down when the partition fired"
              lid)
        cut;
      (* Final damage = pre-partition damage: every cut link healed,
         nothing else resurrected. *)
      down_links () = !before_partition)

(* --- Chaos determinism ---------------------------------------------- *)

let chaos_deterministic () =
  let scenario = Scenario.for_size ~target_ads:14 ~seed:42 () in
  let packed = Option.get (Registry.find_opt "ecma") in
  let doc () = J.to_string (Chaos.report_json (Chaos.run ~probes:20 packed scenario)) in
  check_string "identical (seed, plan) => byte-identical report" (doc ()) (doc ())

let chaos_empty_plan_is_clean () =
  let scenario = Scenario.for_size ~target_ads:14 ~seed:42 () in
  let packed = Option.get (Registry.find_opt "ecma") in
  let report = Chaos.run ~plan:[] ~probes:20 packed scenario in
  check_bool "converged" true report.Chaos.converged;
  check_int "no faults fired" 0 (List.length report.Chaos.fault_log);
  check_int "nothing lost" 0 report.Chaos.msgs_lost;
  check_int "no violations" 0 (List.length report.Chaos.violations)

(* --- Non-vacuity ----------------------------------------------------- *)

(* The harness is only trustworthy if it actually flags a broken
   protocol: the deliberately broken variant must produce violations
   under the default plan, while the real design points produce none. *)
let harness_flags_broken_variant () =
  let scenario = Scenario.for_size ~target_ads:14 ~seed:42 () in
  let broken =
    match Chaos.find_protocol "broken-ls" with
    | Some p -> p
    | None -> Alcotest.fail "broken-ls not resolvable"
  in
  check_bool "broken-ls is hidden from the registry" true
    (Registry.find_opt "broken-ls" = None);
  let report = Chaos.run ~probes:40 broken scenario in
  check_bool "harness flags the broken variant" true (report.Chaos.violations <> [])

let harness_passes_design_points () =
  let scenario = Scenario.for_size ~target_ads:14 ~seed:42 () in
  List.iter
    (fun name ->
      let packed = Option.get (Registry.find_opt name) in
      let report = Chaos.run ~probes:40 packed scenario in
      check_bool (name ^ " converges through the default plan") true
        report.Chaos.converged;
      check_int (name ^ " has zero violations") 0 (List.length report.Chaos.violations))
    [ "ecma"; "idrp"; "ls-hbh-pt"; "orwg" ]

(* --- Byzantine containment ------------------------------------------- *)

(* The §5 design points under the Byzantine profile with the guard on:
   the attack must actually fire (forged updates on the wire), the
   guard must bite (rejections and quarantines), and the honest
   internet must come through clean — zero violations of any kind. *)
let guard_contains_byzantine () =
  let scenario = Scenario.for_size ~target_ads:14 ~seed:42 () in
  let plan = Option.get (Plan.profile "byzantine") in
  List.iter
    (fun name ->
      let packed = Option.get (Registry.find_opt name) in
      let report = Chaos.run ~plan ~probes:40 packed scenario in
      check_bool (name ^ " converges under attack") true report.Chaos.converged;
      check_bool (name ^ " offense fired") true (report.Chaos.msgs_forged > 0);
      check_bool (name ^ " guard rejected updates") true
        (report.Chaos.updates_rejected > 0);
      check_bool (name ^ " guard quarantined the attacker") true
        (report.Chaos.quarantines > 0);
      check_int
        (name ^ " zero violations under guard")
        0
        (List.length report.Chaos.violations))
    [ "ecma"; "idrp"; "ls-hbh-pt"; "orwg" ]

(* Defense non-vacuity: with the guard off, the same attack must stick
   — the containment audit finds adversarial state in honest ADs. *)
let unguarded_byzantine_breached () =
  let scenario = Scenario.for_size ~target_ads:14 ~seed:42 () in
  let plan = Option.get (Plan.profile "byzantine") in
  let packed = Option.get (Registry.find_opt "ecma") in
  let report =
    Chaos.run ~plan ~guard:Pr_guard.Guard.disabled ~probes:40 packed scenario
  in
  check_bool "unguarded run is breached" true
    (Chaos.containment_violations report >= 1);
  check_int "guard counted nothing while off" 0 report.Chaos.updates_rejected

let byzantine_report_deterministic () =
  let scenario = Scenario.for_size ~target_ads:14 ~seed:42 () in
  let plan = Option.get (Plan.profile "byzantine") in
  let packed = Option.get (Registry.find_opt "idrp") in
  let doc () =
    J.to_string (Chaos.report_json (Chaos.run ~plan ~probes:20 packed scenario))
  in
  check_string "identical (seed, plan, guard) => byte-identical report" (doc ())
    (doc ())

(* --- Campaign integration ------------------------------------------- *)

let faulted_run profile max_events =
  let open Pr_campaign in
  {
    Grid.id =
      Grid.id_of ~protocol:"ecma" ~size:14 ~restrictiveness:0.0
        ~granularity:Pr_policy.Gen.Source_specific ~churn:false ~faults:profile
        ~replicate:0;
    protocol = "ecma";
    size = 14;
    restrictiveness = 0.0;
    granularity = Pr_policy.Gen.Source_specific;
    churn = false;
    faults = profile;
    replicate = 0;
    seed = 42;
    flows = 20;
    max_events;
  }

let exec_budget_exhausted () =
  let open Pr_campaign in
  (* A budget far too small to drain: the campaign must record a
     result (outcome = budget_exhausted, partial metrics), not a
     worker failure that resume would retry forever. *)
  match Exec.execute (faulted_run "default" 50) with
  | Error e -> Alcotest.failf "expected a partial result, got failure: %s" e
  | Ok t ->
    check_string "outcome" "budget_exhausted" t.Exec.outcome;
    check_bool "not converged" false t.Exec.converged;
    let record = J.to_string (Exec.to_json t) in
    check_bool "record carries the outcome" true
      (let sub = {|"outcome": "budget_exhausted"|} in
       let len = String.length sub in
       let rec scan i =
         i + len <= String.length record
         && (String.sub record i len = sub || scan (i + 1))
       in
       scan 0)

let exec_unknown_profile () =
  let open Pr_campaign in
  match Exec.execute (faulted_run "bogus" 1_000_000) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown fault profile must be an Error"

let exec_faulted_completes () =
  let open Pr_campaign in
  match Exec.execute (faulted_run "crash" 10_000_000) with
  | Error e -> Alcotest.failf "crash-profile run failed: %s" e
  | Ok t ->
    check_string "outcome" "completed" t.Exec.outcome;
    check_int "no loop violations" 0 t.Exec.loop_violations;
    check_int "no blackhole violations" 0 t.Exec.blackhole_violations;
    check_bool "record carries the chaos extras" true
      (List.mem_assoc "reconvergence_time" t.Exec.chaos_fields)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "faults"
    [
      ( "plan",
        [
          Alcotest.test_case "profiles round-trip through specs" `Quick plan_roundtrip;
          Alcotest.test_case "bad specs rejected" `Quick plan_parse_errors;
          Alcotest.test_case "empty plan" `Quick plan_empty;
          Alcotest.test_case "incident times" `Quick plan_incidents;
        ] );
      ("metrics", [ Alcotest.test_case "loss accounting" `Quick metrics_losses ]);
      ( "crash-restart",
        List.map crash_restart_case
          [ "dv-plain"; "link-state"; "egp"; "ecma"; "idrp"; "ls-hbh-pt"; "orwg" ] );
      ("partition", qsuite [ partition_heals_exactly ]);
      ( "chaos",
        [
          Alcotest.test_case "deterministic report" `Quick chaos_deterministic;
          Alcotest.test_case "empty plan is clean" `Quick chaos_empty_plan_is_clean;
          Alcotest.test_case "broken variant flagged" `Quick harness_flags_broken_variant;
          Alcotest.test_case "design points pass" `Quick harness_passes_design_points;
        ] );
      ( "byzantine",
        [
          Alcotest.test_case "guard contains the attacker" `Quick
            guard_contains_byzantine;
          Alcotest.test_case "unguarded run is breached" `Quick
            unguarded_byzantine_breached;
          Alcotest.test_case "adversarial report deterministic" `Quick
            byzantine_report_deterministic;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "budget exhaustion is a result" `Quick exec_budget_exhausted;
          Alcotest.test_case "unknown profile is an error" `Quick exec_unknown_profile;
          Alcotest.test_case "crash profile completes" `Quick exec_faulted_completes;
        ] );
    ]
