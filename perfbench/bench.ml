(* The repository benchmark: four workloads over the libraries' public
   entry points, every timing on the monotonic clock, every percentile
   an exact order statistic. See perfbench/README.md.

   Usage: bench.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]
                    [--spans-dir DIR]
   With --trace 1 the spans of the traced run are written to DIR. *)

module Graph = Pr_topology.Graph
module Scenario = Pr_core.Scenario
module Registry = Pr_core.Registry
module Runner = Pr_proto.Runner
module Forwarding = Pr_proto.Forwarding
module Chaos = Pr_faults.Chaos
module Plan = Pr_faults.Plan
module Guard = Pr_guard.Guard
module Serve = Pr_serve.Serve
module Workload = Pr_serve.Workload
module Pdd = Pr_serve.Pdd
module Store = Pr_policy.Policy_store
module Config = Pr_policy.Config
module Validate = Pr_policy.Validate
module Transit_policy = Pr_policy.Transit_policy
module Flow = Pr_policy.Flow
module Rng = Pr_util.Rng
module Json = Pr_util.Json
module Reg = Pr_telemetry.Registry
module Hist = Pr_telemetry.Hist
module Alloc = Pr_telemetry.Alloc

let now_s = Spans.now_s

(* ---------- results of one run ---------- *)

type result = {
  mutable attempted : int;
  mutable failed : int;
  mutable problems : string list;  (** checks that make the run incorrect *)
  mutable failures : string list;  (** failed operations (counted, shown) *)
  samples : (string, float list) Hashtbl.t;  (** raw samples, newest first *)
  counters : (string, int) Hashtbl.t;  (** deterministic counters *)
  layer : (string, float) Hashtbl.t;  (** allocation and GC figures per phase *)
}

let result () =
  {
    attempted = 0;
    failed = 0;
    problems = [];
    failures = [];
    samples = Hashtbl.create 64;
    counters = Hashtbl.create 64;
    layer = Hashtbl.create 128;
  }

let sample r k v =
  Hashtbl.replace r.samples k (v :: Option.value ~default:[] (Hashtbl.find_opt r.samples k))

let samples r k = Option.value ~default:[] (Hashtbl.find_opt r.samples k)

let count r k v = Hashtbl.replace r.counters k v

let fail r what =
  r.failed <- r.failed + 1;
  r.failures <- what :: r.failures

let problem r what = r.problems <- what :: r.problems

let sorted l =
  let a = Array.of_list l in
  Array.sort compare a;
  a

(* Exact order statistic, nearest-rank: the smallest sample with at
   least [p] of the samples at or below it. *)
let quantile l p =
  let a = sorted l in
  let n = Array.length a in
  if n = 0 then nan
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

let median l = quantile l 0.5

let peak_heap_mb () =
  let s = Gc.quick_stat () in
  float_of_int (s.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0

(* ---------- inputs ---------- *)

(* Each workload's internet is a fixture: the [for_size] scenario drawn
   with [fixture_seed], whose seed also schedules the chaos fault plan.
   The run seed draws the traffic over it — data-plane flows, chaos
   probes, the query stream and the policy flips — so runs on
   different seeds do the same routing work on different traffic. With
   the run seed equal to [fixture_seed], every input is the one
   [prx converge|chaos --size N --seed 42] sees. *)
let fixture_seed = 42

let scenario ~size = Scenario.for_size ~target_ads:size ~seed:fixture_seed ()

let chaos_probes = 40

(* ---------- protocol workloads ---------- *)

(* Each design point converges and then sends [flows] flows; [chaos]
   is the design point that then runs the chaos gauntlet. *)
type pw = {
  size : int;
  designs : (string * int) list;  (** design point, flows *)
  chaos : string;
  chaos_plan : string;
}

let pathvector =
  {
    size = 150;
    designs = [ ("ecma", 1000); ("idrp", 10_000) ];
    chaos = "idrp";
    chaos_plan = "byzantine";
  }

let linkstate =
  {
    size = 1000;
    designs = [ ("ls-hbh-pt", 100); ("orwg", 1000) ];
    chaos = "orwg";
    chaos_plan = "default";
  }

(* One design point set up on a scenario, its module type hidden. *)
type session = {
  name : string;
  converge : unit -> Runner.convergence;
  send_flow : Flow.t -> Forwarding.outcome;
  table_entries : unit -> int;
}

let session (Registry.Packed (module P)) (sc : Scenario.t) =
  let module R = Runner.Make (P) in
  let r = R.setup sc.Scenario.graph sc.Scenario.config in
  {
    name = P.name;
    converge = (fun () -> R.converge r);
    send_flow = R.send_flow r;
    table_entries = (fun () -> R.table_entries r);
  }

let packed ~traced name =
  let p = Registry.find name in
  if traced then Spans.wrap p else p

(* Work units charged to the protocol histograms during a phase. *)
let work_units ~before ~after =
  List.fold_left
    (fun acc (name, v) ->
      match v with
      | Reg.Histogram h
        when String.length name > 6 && String.sub name 0 6 = "proto."
             && Filename.check_suffix name ".work" ->
          acc + int_of_float (Hist.sum h)
      | _ -> acc)
    0
    (Reg.diff ~after ~before)

(* A phase: time it, and when traced, open a span whose self time is
   whatever the wrapped protocol calls inside it do not cover. *)
let phase ~traced label f =
  if traced then begin
    Spans.current := Spans.ctx label;
    let a = Spans.acc (label ^ ".sim") in
    let t0 = now_s () in
    let v = Spans.span a label f in
    let dt = now_s () -. t0 in
    Spans.current := Spans.ctx "idle";
    (v, dt)
  end
  else begin
    let t0 = now_s () in
    let v = f () in
    (v, now_s () -. t0)
  end

let setup_protocols w ~traced r =
  let t0 = now_s () in
  let sc = scenario ~size:w.size in
  let t1 = now_s () in
  Spans.current := Spans.ctx "setup";
  let sessions = List.map (fun (d, _) -> session (packed ~traced d) sc) w.designs in
  let t2 = now_s () in
  sample r "setup.scenario_s" (t1 -. t0);
  sample r "setup.runner_s" (t2 -. t1);
  sample r "setup_s" (t2 -. t0);
  (sc, sessions)

let protocol_iteration w ~seed ~traced ~first r =
  let sc, sessions = setup_protocols w ~traced r in
  let cnt k v = if first then count r k v in
  let work = ref 0.0 in
  let all_flows =
    Scenario.flows sc ~rng:(Rng.derive seed "perfbench-flows")
      ~count:(List.fold_left (fun m (_, k) -> max m k) 0 w.designs) ()
  in
  List.iter2
    (fun s (_, nflows) ->
      let p = s.name in
      let gc0 = Gc.quick_stat () in
      let reg0 = Reg.snapshot Reg.default in
      let conv = ref None in
      let words = Alloc.words (fun () -> conv := Some (phase ~traced ("converge." ^ p) s.converge)) in
      let c, dt = Option.get !conv in
      let gc1 = Gc.quick_stat () in
      let reg1 = Reg.snapshot Reg.default in
      sample r ("converge_s." ^ p) dt;
      work := !work +. dt;
      r.attempted <- r.attempted + 1;
      if not c.Runner.converged then fail r (p ^ ": converge exhausted its event budget");
      if first then begin
        Hashtbl.replace r.layer ("converge." ^ p ^ ".alloc_words_per_event")
          (words /. float_of_int (max 1 c.Runner.events));
        Hashtbl.replace r.layer ("converge." ^ p ^ ".gc.major_collections")
          (float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections))
      end;
      cnt ("converge." ^ p ^ ".events") c.Runner.events;
      cnt ("converge." ^ p ^ ".messages") c.Runner.messages;
      cnt ("converge." ^ p ^ ".bytes") c.Runner.bytes;
      cnt ("converge." ^ p ^ ".work_units") (work_units ~before:reg0 ~after:reg1);
      cnt ("converge." ^ p ^ ".table_entries") (s.table_entries ());
      (* Flow batch: one packet per flow through the data plane,
         including any route setup. *)
      let flows = List.filteri (fun i _ -> i < nflows) all_flows in
      let delivered = ref 0 and undelivered = ref 0 and loops = ref 0 in
      let lat = ref [] in
      let (), dt =
        phase ~traced ("route." ^ p) (fun () ->
            List.iter
              (fun f ->
                let t0 = now_s () in
                let o = s.send_flow f in
                lat := ((now_s () -. t0) *. 1e3) :: !lat;
                match o with
                | Forwarding.Delivered _ -> incr delivered
                | Forwarding.Looped _ -> incr loops
                | Forwarding.Dropped _ | Forwarding.Prep_failed _ -> incr undelivered)
              flows)
      in
      List.iter (sample r ("flow_ms." ^ p)) !lat;
      sample r ("route_s." ^ p) dt;
      work := !work +. dt;
      r.attempted <- r.attempted + nflows;
      for _ = 1 to !loops do
        fail r (p ^ ": data-plane loop");
        problem r (p ^ ": data-plane loop after a fault-free converge")
      done;
      cnt ("route." ^ p ^ ".flows_delivered") !delivered;
      cnt ("route." ^ p ^ ".flows_undelivered") !undelivered;
      cnt ("route." ^ p ^ ".loops") !loops)
    sessions w.designs;
  (* Chaos: the whole gauntlet, guard on. *)
  let plan = Option.get (Plan.profile w.chaos_plan) in
  let p = w.chaos in
  let probes = Scenario.flows sc ~rng:(Rng.derive seed "chaos-probes") ~count:chaos_probes () in
  let rep, dt =
    phase ~traced ("chaos." ^ p) (fun () ->
        Chaos.run ~plan ~guard:Guard.default_config ~flows:probes (packed ~traced p) sc)
  in
  sample r ("chaos_s." ^ p) dt;
  work := !work +. dt;
  sample r "work_s" !work;
  r.attempted <- r.attempted + rep.Chaos.probes;
  List.iter
    (fun (v : Chaos.violation) ->
      let flow =
        match v.Chaos.flow with Some (a, b) -> Printf.sprintf " flow %d->%d" a b | None -> ""
      in
      fail r (Printf.sprintf "%s chaos %s:%s %s" p v.Chaos.kind flow v.Chaos.detail);
      (* A loop or a containment breach is wrong output, not only a
         missed delivery. *)
      match v.Chaos.kind with
      | "loop" | "containment" ->
          problem r (Printf.sprintf "%s chaos %s violation" p v.Chaos.kind)
      | _ -> ())
    rep.Chaos.violations;
  let c = "chaos." ^ p in
  cnt (c ^ ".events") rep.Chaos.events;
  cnt (c ^ ".messages") rep.Chaos.messages;
  cnt (c ^ ".updates_rejected") rep.Chaos.updates_rejected;
  cnt (c ^ ".quarantines") rep.Chaos.quarantines;
  cnt (c ^ ".quarantine_drops") rep.Chaos.quarantine_drops;
  cnt (c ^ ".msgs_lost") rep.Chaos.msgs_lost;
  cnt (c ^ ".probes") rep.Chaos.probes;
  cnt (c ^ ".probes_delivered") rep.Chaos.delivered;
  cnt (c ^ ".violations") (List.length rep.Chaos.violations);
  cnt (c ^ ".report_hash") (Hashtbl.hash (Json.to_string (Chaos.report_json rep)))

(* ---------- serve workloads ---------- *)

type sw = { flip_every : int; params : Workload.params }

let serve_hot = { flip_every = 8; params = Workload.default }

(* Every endpoint drawn uniformly: no hot set at all. *)
let serve_spread =
  {
    flip_every = 1;
    params = { Workload.default with Workload.hot_fraction = 1.0; hot_weight = 0.0 };
  }

let serve_size = 10_000

let batch_ops = 64

let batch_interval = 0.5

let min_queries = 1000

let setup_serve r =
  let t0 = now_s () in
  let sc = scenario ~size:serve_size in
  let t1 = now_s () in
  let store = Store.create sc.Scenario.config in
  let serve = Serve.create sc.Scenario.graph store in
  let t2 = now_s () in
  sample r "setup.scenario_s" (t1 -. t0);
  sample r "setup.serve_create_s" (t2 -. t1);
  sample r "setup_s" (t2 -. t0);
  (sc, store, serve)

(* One closed-loop client: batches of [batch_ops] ops, each query
   waiting for its answer, with a policy flip (set_transit, then
   refresh) every [flip_every] batches. Runs [batches] batches, or with
   [batches = None] the fixed prefix and then on until [seconds];
   returns the number of batches run. *)
let serve_session w ~seed ~traced ~seconds ~batches r =
  let sc, store, serve = setup_serve r in
  let graph = sc.Scenario.graph in
  let n = Graph.n graph in
  (* The generator's hot set is part of the workload, so it is drawn
     from the fixture seed; the run seed then advances the generator's
     stream by up to 2^24 draws, so each seed samples a different op
     sequence from the same distribution. *)
  let wl_rng = Rng.derive fixture_seed "perfbench-serve" in
  let wl = Workload.create ~params:w.params ~rng:wl_rng graph in
  for _ = 1 to Rng.int (Rng.derive seed "perfbench-serve-offset") (1 lsl 24) do
    ignore (Rng.bits64 wl_rng)
  done;
  let flip_rng = Rng.derive seed "perfbench-flips" in
  let transit = Array.of_list (Graph.transit_ids graph) in
  let originals = Hashtbl.create 16 in
  let ring_cap = 64 in
  let ring = Array.make ring_cap (-1) in
  let ring_head = ref 0 and ring_count = ref 0 in
  let a_query = Spans.acc "serve.query"
  and a_data = Spans.acc "serve.data"
  and a_set = Spans.acc "serve.set_transit"
  and a_refresh = Spans.acc "serve.refresh" in
  let timed a name f = if traced then Spans.span a name f else f () in
  let measured = ref 0.0 and query_wall = ref 0.0 in
  let queries = ref 0 and answered = ref 0 and no_route = ref 0 in
  let seen = Hashtbl.create 4096 and repeats = ref 0 in
  let legality_checks = ref 0 in
  (* The policies in force, for the legality oracle: rebuilt outside
     the timed calls whenever the store version moves. *)
  let in_force = ref (-1, sc.Scenario.config) in
  let config_now () =
    let v = Store.version store in
    if fst !in_force <> v then
      in_force := (v, Config.make ~transit:(Array.init n (Store.transit store)) ());
    snd !in_force
  in
  let flip ~now =
    let ad = transit.(Rng.int flip_rng (Array.length transit)) in
    let t0 = now_s () in
    timed a_set "set_transit" (fun () ->
        match Hashtbl.find_opt originals ad with
        | Some original ->
            Hashtbl.remove originals ad;
            Store.set_transit store ad original
        | None ->
            Hashtbl.add originals ad (Store.transit store ad);
            let flipped =
              if Rng.bool flip_rng then Transit_policy.no_transit ad
              else Transit_policy.open_transit ad
            in
            Store.set_transit store ad flipped);
    let rebuilt = timed a_refresh "refresh" (fun () -> Serve.refresh serve ~now) in
    let dt = now_s () -. t0 in
    measured := !measured +. dt;
    sample r "update_ms" (dt *. 1e3);
    if rebuilt = 0 then problem r "refresh after set_transit rebuilt no diagram"
  in
  let batch b =
    let now = float_of_int b *. batch_interval in
    if b > 0 && b mod w.flip_every = 0 then flip ~now;
    for _ = 1 to batch_ops do
      match Workload.next wl ~now with
      | Workload.Data rank ->
          if !ring_count > 0 then begin
            let k = rank mod !ring_count in
            let h = ring.((!ring_head - 1 - k + (2 * ring_cap)) mod ring_cap) in
            let t0 = now_s () in
            ignore (timed a_data "data" (fun () -> Serve.data serve ~now ~handle:h));
            let dt = now_s () -. t0 in
            measured := !measured +. dt;
            sample r "data_ms" (dt *. 1e3)
          end
      | Workload.Query flow -> (
          let t0 = now_s () in
          let answer = timed a_query "query" (fun () -> Serve.query serve ~now flow) in
          let dt = now_s () -. t0 in
          measured := !measured +. dt;
          query_wall := !query_wall +. dt;
          sample r "query_ms" (dt *. 1e3);
          incr queries;
          r.attempted <- r.attempted + 1;
          let key = (flow.Flow.dst, Store.version store) in
          if Hashtbl.mem seen key then incr repeats else Hashtbl.add seen key ();
          match answer with
          | Serve.Route { path; handle; version; _ } ->
              incr answered;
              ring.(!ring_head mod ring_cap) <- handle;
              incr ring_head;
              if !ring_count < ring_cap then incr ring_count;
              if version <> Store.version store then
                problem r "query answered from a stale snapshot";
              (* Legality oracle on a sample of the served routes. *)
              if !answered mod 4 = 1 then begin
                incr legality_checks;
                if not (Validate.transit_legal graph (config_now ()) flow path) then begin
                  let what =
                    Printf.sprintf "served route %d->%d fails the legality oracle"
                      flow.Flow.src flow.Flow.dst
                  in
                  fail r what;
                  problem r what
                end
              end
          | Serve.No_route _ -> incr no_route)
    done
  in
  (* Windows: whole batches until [min_queries] more queries. The first
     window is the fixed prefix: its op sequence is deterministic, so its
     counters compare across runs. Each complete window gives one
     [work_s] sample (its measured wall); batches go on until [seconds]. *)
  let t_start = now_s () in
  let b = ref 0 in
  let window_start = ref (0, 0.0, 0.0) in
  let continue () =
    match batches with
    | Some k -> !b < k
    | None -> !b = 0 || !queries < min_queries || now_s () -. t_start < seconds
  in
  while continue () do
    batch !b;
    incr b;
    let q0, m0, w0 = !window_start in
    if !queries - q0 >= min_queries then begin
      window_start := (!queries, !measured, !query_wall);
      sample r "work_s" (!measured -. m0);
      sample r "query_wall_s" (!query_wall -. w0);
      if q0 = 0 then begin
        sample r "peak_heap_mb" (peak_heap_mb ());
        let st = Serve.stats serve in
        count r "serve.batches" !b;
        count r "serve.queries" !queries;
        count r "serve.answered" !answered;
        count r "serve.no_routes" !no_route;
        count r "serve.dst_repeats" !repeats;
        count r "serve.route_hits" st.Serve.route_hits;
        count r "serve.handle_hits" st.Serve.handle_hits;
        count r "serve.handle_misses" st.Serve.handle_misses;
        count r "serve.data_packets" st.Serve.data_packets;
        count r "serve.refreshes" (List.length (samples r "update_ms"));
        count r "serve.rebuilt_ads" st.Serve.rebuilt_ads;
        let hc = Pdd.db_store (Serve.pdd serve) in
        count r "pdd.nodes" (Pdd.store_nodes hc);
        count r "pdd.preds" (Pdd.store_preds hc);
        count r "serve.legality_checks" !legality_checks
      end
    end
  done;
  (* Health audits, outside every timed call. *)
  (match Serve.self_check serve with Ok () -> () | Error e -> problem r ("Serve.self_check: " ^ e));
  (match Pdd.check (Serve.pdd serve) with Ok () -> () | Error e -> problem r ("Pdd.check: " ^ e));
  !b

(* ---------- runs ---------- *)

let workloads = [ "pathvector"; "linkstate"; "serve-hot"; "serve-spread" ]

(* Set-ups per run, so [setup_s] is a median; a fixed count keeps the
   heap the measured phases start from the same on every run. *)
let setups_protocol = 15

let setups_serve = 3

let repeat_setups k f =
  for _ = 1 to k - 1 do
    ignore (f ())
  done;
  Gc.compact ()

(* One run without tracing. [seconds = 0] runs exactly one iteration
   (protocol workloads) or the fixed prefix (serve workloads). *)
let run_plain name ~seed ~seconds =
  let r = result () in
  let t_start = now_s () in
  let batches =
    match name with
    | "pathvector" | "linkstate" ->
        let w = if name = "pathvector" then pathvector else linkstate in
        repeat_setups setups_protocol (fun () -> setup_protocols w ~traced:false r);
        (* As many whole iterations as fit in [seconds], at least one. *)
        let i = ref 0 and last = ref 0.0 in
        while !i = 0 || now_s () -. t_start +. !last <= seconds do
          let t0 = now_s () in
          protocol_iteration w ~seed ~traced:false ~first:(!i = 0) r;
          if !i = 0 then sample r "peak_heap_mb" (peak_heap_mb ());
          last := now_s () -. t0;
          incr i
        done;
        None
    | _ ->
        let w = if name = "serve-hot" then serve_hot else serve_spread in
        repeat_setups setups_serve (fun () -> setup_serve r);
        Some (serve_session w ~seed ~traced:false ~seconds ~batches:None r)
  in
  (r, batches)

let run_traced name ~seed ~batches =
  let r = result () in
  (match name with
  | "pathvector" | "linkstate" ->
      let w = if name = "pathvector" then pathvector else linkstate in
      protocol_iteration w ~seed ~traced:true ~first:true r
  | _ ->
      let w = if name = "serve-hot" then serve_hot else serve_spread in
      ignore (serve_session w ~seed ~traced:true ~seconds:0.0 ~batches r));
  r

(* ---------- metrics ---------- *)

let med r k = match samples r k with [] -> 0.0 | l -> median l

(* The first sample taken (the fixed prefix's, for serve windows). *)
let first r k = match List.rev (samples r k) with [] -> 0.0 | v :: _ -> v

let cnt r k = match Hashtbl.find_opt r.counters k with Some v -> float_of_int v | None -> 0.0

let ratio a b = if b > 0.0 then a /. b else 0.0

let end_to_end r =
  [
    ("setup_s", "s", med r "setup_s");
    ("work_s", "s", med r "work_s");
    ("peak_heap_mb", "MB", med r "peak_heap_mb");
    ("success_rate", "ratio", 1.0 -. ratio (float_of_int r.failed) (float_of_int r.attempted));
  ]

let designs = [ "ecma"; "idrp"; "ls-hbh-pt"; "orwg" ]

let span_s label f =
  match Spans.find label with Some a -> float_of_int (f a) *. 1e-9 | None -> 0.0

let self_s label = span_s label (fun a -> a.Spans.self_ns)

let total_s label = span_s label (fun a -> a.Spans.total_ns)

let calls label = match Spans.find label with Some a -> float_of_int a.Spans.calls | None -> 0.0

(* Per-layer metrics: self times and calls from the traced run (the
   span accumulators), walls and allocation from the untraced run [u],
   counters (equal in both) from [u]. Every name is reported on every workload; a layer a
   workload does not exercise reads 0. *)
let per_layer ~u ~overhead =
  let layer k = Option.value ~default:0.0 (Hashtbl.find_opt u.layer k) in
  let conv p =
    let c = "converge." ^ p in
    let wall = total_s (c ^ ".sim") in
    let events = cnt u (c ^ ".events") in
    let hcalls = calls (c ^ ".handler") in
    [
      (c ^ ".wall_s", "s", med u ("converge_s." ^ p));
      (c ^ ".sim.self_s", "s", self_s (c ^ ".sim"));
      (c ^ ".sim.ns_per_event", "ns", ratio (self_s (c ^ ".sim") *. 1e9) events);
      (c ^ ".sim.share", "ratio", ratio (self_s (c ^ ".sim")) wall);
      (c ^ ".handler.self_s", "s", self_s (c ^ ".handler"));
      (c ^ ".handler.ns_per_call", "ns", ratio (self_s (c ^ ".handler") *. 1e9) hcalls);
      (c ^ ".handler.share", "ratio", ratio (self_s (c ^ ".handler")) wall);
      (c ^ ".events", "count", events);
      (c ^ ".bytes", "bytes", cnt u (c ^ ".bytes"));
      (c ^ ".table_entries", "count", cnt u (c ^ ".table_entries"));
      (c ^ ".work_units", "count", cnt u (c ^ ".work_units"));
      (c ^ ".alloc_words_per_event", "words", layer (c ^ ".alloc_words_per_event"));
      (c ^ ".gc.major_collections", "count", layer (c ^ ".gc.major_collections"));
    ]
  in
  let route p =
    let c = "route." ^ p in
    let flows = float_of_int (List.length (samples u ("flow_ms." ^ p))) in
    [
      (c ^ ".self_s", "s", self_s (c ^ ".route"));
      (c ^ ".calls", "count", calls (c ^ ".route"));
      (c ^ ".ms_per_flow", "ms", ratio (med u ("route_s." ^ p) *. 1e3) flows);
      (c ^ ".flows_delivered", "count", cnt u (c ^ ".flows_delivered"));
    ]
  in
  let chaos p =
    let c = "chaos." ^ p in
    [
      (c ^ ".wall_s", "s", med u ("chaos_s." ^ p));
      (c ^ ".sim.self_s", "s", self_s (c ^ ".sim"));
      (c ^ ".handler.self_s", "s", self_s (c ^ ".handler"));
      (c ^ ".guard.self_s", "s", self_s (c ^ ".guard"));
      (c ^ ".guard.calls", "count", calls (c ^ ".guard"));
      (c ^ ".route.self_s", "s", self_s (c ^ ".route"));
      (c ^ ".events", "count", cnt u (c ^ ".events"));
      (c ^ ".updates_rejected", "count", cnt u (c ^ ".updates_rejected"));
      (c ^ ".quarantines", "count", cnt u (c ^ ".quarantines"));
      (c ^ ".quarantine_drops", "count", cnt u (c ^ ".quarantine_drops"));
      (c ^ ".msgs_lost", "count", cnt u (c ^ ".msgs_lost"));
      (c ^ ".probes_delivered", "count", cnt u (c ^ ".probes_delivered"));
      (c ^ ".violations", "count", cnt u (c ^ ".violations"));
    ]
  in
  let q = samples u "query_ms" and upd = samples u "update_ms" in
  let nz l p = if l = [] then 0.0 else quantile l p in
  let queries = cnt u "serve.queries" in
  let serve =
    [
      ("serve.query.self_s", "s", self_s "serve.query");
      ("serve.query.calls", "count", calls "serve.query");
      ("serve.query.p50_ms", "ms", nz q 0.5);
      ("serve.query.p99_ms", "ms", nz q 0.99);
      ("serve.query.samples", "count", float_of_int (List.length q));
      ("serve.qps", "1/s", ratio (cnt u "serve.answered") (first u "query_wall_s"));
      ("serve.answered", "count", cnt u "serve.answered");
      ("serve.no_routes", "count", cnt u "serve.no_routes");
      ("serve.route_hit_ratio", "ratio", ratio (cnt u "serve.route_hits") queries);
      ("serve.dst_repeat_share", "ratio", ratio (cnt u "serve.dst_repeats") queries);
      ("serve.data.self_s", "s", self_s "serve.data");
      ("serve.handle_hit_ratio", "ratio",
        ratio (cnt u "serve.handle_hits") (cnt u "serve.handle_hits" +. cnt u "serve.handle_misses"));
      ("serve.set_transit.self_s", "s", self_s "serve.set_transit");
      ("serve.refresh.self_s", "s", self_s "serve.refresh");
      ("serve.refresh.calls", "count", calls "serve.refresh");
      ("serve.update.p50_ms", "ms", nz upd 0.5);
      ("serve.update.p90_ms", "ms", nz upd 0.9);
      ("serve.rebuilt_ads", "count", cnt u "serve.rebuilt_ads");
      ("pdd.nodes", "count", cnt u "pdd.nodes");
      ("pdd.preds", "count", cnt u "pdd.preds");
    ]
  in
  [
    ("setup.scenario_s", "s", med u "setup.scenario_s");
    ("setup.runner_s", "s", med u "setup.runner_s");
    ("setup.serve_create_s", "s", med u "setup.serve_create_s");
  ]
  @ List.concat_map conv designs
  @ List.concat_map route designs
  @ List.concat_map chaos [ "idrp"; "orwg" ]
  @ serve
  @ [
      ("trace.overhead_s", "s", overhead);
      ("trace.spans_dropped", "count", float_of_int !Spans.dropped);
    ]

(* ---------- output ---------- *)

let num v = if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v else Printf.sprintf "%.17g" v

let json_line r metrics =
  List.iter
    (fun (name, _, v) ->
      if not (Float.is_finite v) then problem r (name ^ " has no value (no samples)"))
    metrics;
  let metrics = List.map (fun (n, u, v) -> (n, u, if Float.is_finite v then v else 0.0)) metrics in
  let b = Buffer.create 4096 in
  Printf.bprintf b "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {"
    (r.problems = []) r.attempted r.failed;
  List.iteri
    (fun i (name, unit, v) ->
      if i > 0 then Buffer.add_string b ", ";
      Printf.bprintf b "%S: {\"value\": %s, \"unit\": %S}" name (num v) unit)
    metrics;
  Buffer.add_string b "}}";
  Buffer.contents b

let pct l p = if l = [] then "-" else Printf.sprintf "%.4f" (quantile l p)

(* The workload's figures by the names the README uses, with sample
   counts beside every percentile. *)
let print_report name r =
  Printf.printf "workload %s\n" name;
  let line k unit v = Printf.printf "  %-28s %14.6f %s\n" k v unit in
  line "setup_s" "s" (med r "setup_s");
  List.iter
    (fun p ->
      List.iter
        (fun (k, unit) ->
          let key = k ^ "." ^ p in
          if samples r key <> [] then line key unit (med r key))
        [ ("converge_s", "s"); ("route_s", "s"); ("chaos_s", "s") ])
    designs;
  let lat k l =
    if l <> [] then
      Printf.printf "  %-28s p50 %s  p90 %s  p99 %s ms  (n=%d)\n" k (pct l 0.5) (pct l 0.9)
        (pct l 0.99) (List.length l)
  in
  List.iter (fun p -> lat ("flow." ^ p) (samples r ("flow_ms." ^ p))) designs;
  lat "query" (samples r "query_ms");
  lat "data" (samples r "data_ms");
  lat "update" (samples r "update_ms");
  if samples r "query_wall_s" <> [] then
    line "serve_qps" "1/s" (ratio (cnt r "serve.answered") (first r "query_wall_s"));
  line "peak_heap_mb" "MB" (peak_heap_mb ());
  Printf.printf "  %-28s %14.6f ratio  (%d failed of %d attempted)\n" "error_rate"
    (ratio (float_of_int r.failed) (float_of_int r.attempted))
    r.failed r.attempted;
  List.iter (Printf.printf "  failed: %s\n") (List.rev r.failures);
  List.iter (Printf.printf "  INCORRECT: %s\n") (List.rev r.problems);
  Printf.printf "  deterministic counters:\n";
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) r.counters []
  |> List.sort compare
  |> List.iter (fun (k, v) -> Printf.printf "    %-40s %d\n" k v)

let usage () =
  prerr_endline
    "usage: bench.exe --workload (pathvector|linkstate|serve-hot|serve-spread) [--seed N] \
     [--seconds S] [--trace 0|1] [--spans-dir DIR]";
  exit 2

let () =
  let workload = ref "" and seed = ref 42 and seconds = ref 10.0 and trace = ref 0 in
  let spans_dir = ref None in
  let rec parse = function
    | "--workload" :: v :: rest ->
        workload := v;
        parse rest
    | "--seed" :: v :: rest ->
        (match int_of_string_opt v with Some s -> seed := s | None -> usage ());
        parse rest
    | "--seconds" :: v :: rest ->
        (match float_of_string_opt v with Some s -> seconds := s | None -> usage ());
        parse rest
    | "--trace" :: v :: rest ->
        (match v with "0" -> trace := 0 | "1" -> trace := 1 | _ -> usage ());
        parse rest
    | "--spans-dir" :: v :: rest ->
        spans_dir := Some v;
        parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  if not (List.mem !workload workloads) then usage ();
  let name = !workload and seed = !seed in
  if !trace = 0 then begin
    let r, _ = run_plain name ~seed ~seconds:!seconds in
    print_report name r;
    print_endline (json_line r (end_to_end r))
  end
  else begin
    let u, batches = run_plain name ~seed ~seconds:0.0 in
    let t = run_traced name ~seed ~batches in
    (* The wrapper must change no behaviour: every deterministic
       counter of the traced run equals the untraced run's. *)
    let diffs =
      Hashtbl.fold
        (fun k v acc ->
          match Hashtbl.find_opt t.counters k with
          | Some v' when v' = v -> acc
          | Some v' -> Printf.sprintf "%s: untraced %d, traced %d" k v v' :: acc
          | None -> (k ^ ": missing from the traced run") :: acc)
        u.counters []
    in
    List.iter (fun d -> problem u ("traced run changed a counter: " ^ d)) diffs;
    let overhead = med t "work_s" -. med u "work_s" in
    print_report name u;
    let layers = per_layer ~u ~overhead in
    Printf.printf "per-layer (traced run; self time = span minus child spans):\n";
    List.iter (fun (k, unit, v) -> if v <> 0.0 then Printf.printf "  %-40s %16.6f %s\n" k v unit) layers;
    Printf.printf "  traced counters equal untraced: %b (%d compared)\n" (diffs = [])
      (Hashtbl.length u.counters);
    Option.iter
      (fun dir ->
        let path = Filename.concat dir (Printf.sprintf "%s-seed%d.trace.json" name seed) in
        Spans.write path;
        Printf.printf "  spans: %d stored, %d dropped -> %s\n" !Spans.stored !Spans.dropped path)
      !spans_dir;
    print_endline (json_line u layers)
  end
