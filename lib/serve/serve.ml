(* Route-server query engine (see serve.mli). *)

module Graph = Pr_topology.Graph
module Link = Pr_topology.Link
module Path = Pr_topology.Path
module Flow = Pr_policy.Flow
module Qos = Pr_policy.Qos
module Policy_route = Pr_proto.Policy_route
module Lru = Pr_util.Lru
module Trace = Pr_obs.Trace
module Reg = Pr_telemetry.Registry
module Hist = Pr_telemetry.Hist

(* --- per-class planes ------------------------------------------------

   The search runs over state built once from the configured graph: a
   CSR of unique neighbor pairs (shared by every QOS class) and, per
   metric class, the cheapest parallel link of each entry plus landmark
   distances for the A* bound. Live link/node state is read while an
   edge is relaxed, so nothing here is ever rebuilt or invalidated. *)

(* The metric classes: Default and High_throughput share the cost
   metric; Low_delay and High_reliability have their own. *)
let class_of = function
  | Qos.Default | Qos.High_throughput -> 0
  | Qos.Low_delay -> 1
  | Qos.High_reliability -> 2

let class_qos = [| Qos.Default; Qos.Low_delay; Qos.High_reliability |]

let landmarks = 8

(* Landmark distances are bytes; this one means "unknown" (unreachable
   or too far to store), and the bound skips that landmark. *)
let unknown = 255

type plane = {
  metric : int array;  (* per link: its metric in this class *)
  cheapest : int array;  (* per CSR entry: the cheapest parallel link *)
  marks : Bytes.t;
      (* n * landmarks bytes: AD v's distance from landmark j is at
         v * landmarks + j *)
}

(* Landmarks by farthest-point selection on the all-up graph: the AD
   farthest from AD 0, then repeatedly the AD farthest from the
   landmarks chosen so far (an AD no landmark reaches counts as
   farthest, so each component gets one). *)
let build_marks g metric =
  let n = Graph.n g in
  let marks = Bytes.make (n * landmarks) (Char.chr unknown) in
  if n > 0 then begin
    let up = Array.make (Graph.num_links g) true in
    let dist src = (Pr_topology.Spf.tree_state g ~up ~cost:metric ~src).Pr_topology.Spf.dist in
    let farthest d =
      let best = ref 0 in
      Array.iteri (fun v x -> if x > d.(!best) then best := v) d;
      !best
    in
    let reach d = Array.map (fun x -> if x < 0 then max_int else x) d in
    let nearest = Array.make n max_int in
    let next = ref (farthest (reach (dist 0))) and j = ref 0 in
    while !j < landmarks && nearest.(!next) > 0 do
      let d = dist !next in
      Array.iteri
        (fun v x ->
          if x >= 0 && x < unknown then Bytes.set marks ((v * landmarks) + !j) (Char.chr x);
          if x >= 0 && x < nearest.(v) then nearest.(v) <- x)
        d;
      incr j;
      next := farthest nearest
    done
  end;
  marks

let build_plane g csr c =
  let metric =
    Array.map
      (fun (l : Link.t) ->
        Pr_proto.Qos_metric.metric class_qos.(c) ~cost:l.Link.cost ~delay:l.Link.delay)
      (Graph.links g)
  in
  let { Policy_route.offset; nbr; _ } = csr in
  let cheapest = Array.make (Array.length nbr) (-1) in
  for u = 0 to Graph.n g - 1 do
    for i = offset.(u) to offset.(u + 1) - 1 do
      Graph.iter_links_between g u nbr.(i) ~f:(fun l ->
          if cheapest.(i) < 0 || metric.(l) < metric.(cheapest.(i)) then cheapest.(i) <- l)
    done
  done;
  { metric; cheapest; marks = build_marks g metric }

(* The admissible, consistent A* bound toward [dst]: by the triangle
   inequality d(v, dst) >= |d(L, dst) - d(L, v)| for every landmark L.
   The distances are all-up ones; failures and policy only remove
   edges and transitions and link metrics never change, so the bound
   holds under any live state and policy version. *)
let bound plane dst =
  let marks = plane.marks in
  let t = dst * landmarks in
  fun v ->
    let b = ref 0 and o = v * landmarks in
    for j = 0 to landmarks - 1 do
      let dt = Char.code (Bytes.unsafe_get marks (t + j))
      and dv = Char.code (Bytes.unsafe_get marks (o + j)) in
      if dt <> unknown && dv <> unknown then begin
        let x = abs (dt - dv) in
        if x > !b then b := x
      end
    done;
    !b

type t = {
  graph : Graph.t;
  pdd : Pdd.db;
  link_up : Link.id -> bool;
  node_up : Pr_topology.Ad.id -> bool;
  trace : Trace.t;
  csr : Policy_route.csr Lazy.t;  (* built on the first query *)
  planes : plane Lazy.t array;  (* per metric class, built on its first query *)
  workspace : Pdd.node Policy_route.workspace;
  mutable states_settled : int;
  handles : (int, Path.t) Lru.t;
  mutable next_handle : int;
  mutable queries : int;
  mutable data_packets : int;
  mutable handle_hits : int;
  mutable handle_misses : int;
  mutable no_routes : int;
  (* Registry handles resolved once at creation; the query path never
     hashes a metric name. These shadow the per-server counters above
     into the process-global registry so campaigns and the daemon can
     snapshot them. *)
  m_queries : Reg.counter;
  m_handle_hits : Reg.counter;
  m_handle_misses : Reg.counter;
  m_no_routes : Reg.counter;
  m_handles_issued : Reg.counter;
  m_handle_evictions : Reg.counter;
  m_rebuild_ns : Hist.t;
  m_pdd_nodes : Reg.gauge;
  m_pdd_preds : Reg.gauge;
}

let create ?(handle_capacity = Some 1024) ?(trace = Trace.disabled)
    ?(link_up = fun _ -> true) ?(node_up = fun _ -> true) graph store =
  let csr =
    lazy
      (Policy_route.csr_of_rows
         (Array.init (Graph.n graph) (fun u -> Array.of_list (Graph.neighbor_ids graph u))))
  in
  {
    graph;
    pdd = Pdd.db_create store;
    link_up;
    node_up;
    trace;
    csr;
    planes =
      Array.init (Array.length class_qos) (fun c ->
          lazy (build_plane graph (Lazy.force csr) c));
    workspace = Policy_route.workspace ();
    states_settled = 0;
    handles = Lru.create ~capacity:handle_capacity ();
    next_handle = 0;
    queries = 0;
    data_packets = 0;
    handle_hits = 0;
    handle_misses = 0;
    no_routes = 0;
    m_queries = Reg.counter Reg.default "serve.queries";
    m_handle_hits = Reg.counter Reg.default "serve.handle_hits";
    m_handle_misses = Reg.counter Reg.default "serve.handle_misses";
    m_no_routes = Reg.counter Reg.default "serve.no_routes";
    m_handles_issued = Reg.counter Reg.default "serve.handles_issued";
    m_handle_evictions = Reg.counter Reg.default "serve.handle_evictions";
    m_rebuild_ns = Reg.histogram Reg.default "pdd.rebuild_ns";
    m_pdd_nodes = Reg.gauge Reg.default "pdd.nodes";
    m_pdd_preds = Reg.gauge Reg.default "pdd.preds";
  }

let pdd t = t.pdd

let refresh t ~now =
  let t0 = Monotonic_clock.now () in
  let k = Pdd.refresh t.pdd in
  if k > 0 then begin
    let dt = Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) in
    Hist.record t.m_rebuild_ns dt;
    let store = Pdd.db_store t.pdd in
    Reg.set t.m_pdd_nodes (float_of_int (Pdd.store_nodes store));
    Reg.set t.m_pdd_preds (float_of_int (Pdd.store_preds store));
    Trace.instant t.trace ~ts:now ~tid:0 "serve.rebuild";
    Trace.counter t.trace ~ts:now ~tid:0 ~value:(float_of_int k) "serve.rebuilt_ads"
  end;
  k

let snapshot t = Pdd.snapshot t.pdd

type answer =
  | Route of { path : Path.t; handle : int; version : int }
  | No_route of { version : int }

(* The flow's metric over entry [i] (u -> w) under live state, or
   [max_int] when the far end is down or no link joining them is up.
   The precomputed cheapest link answers unless it is down; then the
   pair's parallel links are rescanned for the cheapest up one — the
   answer a per-query rebuild of the live graph would give. *)
let live_cost t plane nbr u i =
  let w = Array.unsafe_get nbr i in
  if not (t.node_up w) then max_int
  else begin
    let l = plane.cheapest.(i) in
    if t.link_up l then plane.metric.(l)
    else begin
      let best = ref max_int in
      Graph.iter_links_between t.graph u w ~f:(fun l ->
          if t.link_up l && plane.metric.(l) < !best then best := plane.metric.(l));
      !best
    end
  end

(* Exact (node, arrived-from) policy search: {!Policy_route.search}
   over the class's plane under live link/node state, steered by the
   landmark bound, with admission resolved through the diagram
   snapshot — one [Pdd.flow_entry] per touched AD, then at most a few
   predicate probes per edge relaxation. *)
let synthesize t snap (f : Flow.t) =
  let src = f.Flow.src and dst = f.Flow.dst in
  if src = dst then Some [ src ]
  else if not (t.node_up src && t.node_up dst) then None
  else begin
    let csr = Lazy.force t.csr in
    let plane = Lazy.force t.planes.(class_of f.Flow.qos) in
    let path, work =
      Policy_route.search ~src ~dst ~csr
        ~cost:(live_cost t plane csr.Policy_route.nbr)
        ~entry:(fun ad -> Pdd.flow_entry (Pdd.root snap ad) f)
        ~admit:Pdd.entry_admit ~bound:(bound plane dst) ~workspace:t.workspace ()
    in
    t.states_settled <- t.states_settled + work;
    path
  end

let issue_handle t ~now path =
  let h = t.next_handle in
  t.next_handle <- h + 1;
  Reg.inc t.m_handles_issued;
  (match Lru.put t.handles h path with
  | Some _evicted ->
      Reg.inc t.m_handle_evictions;
      Trace.instant t.trace ~ts:now ~tid:0 "serve.handle.evict"
  | None -> ());
  Trace.counter t.trace ~ts:now ~tid:0
    ~value:(float_of_int (Lru.length t.handles))
    "serve.handles";
  h

let query ?snap t ~now (f : Flow.t) =
  t.queries <- t.queries + 1;
  Reg.inc t.m_queries;
  (* Pin one snapshot for every read this query makes: a concurrent
     set_transit + refresh publishes a new roots array but never
     mutates this one, so the answer is wholly from one version. *)
  let snap = match snap with Some s -> s | None -> Pdd.snapshot t.pdd in
  let version = Pdd.snapshot_version snap in
  match synthesize t snap f with
  | Some path -> Route { path; handle = issue_handle t ~now path; version }
  | None ->
      t.no_routes <- t.no_routes + 1;
      Reg.inc t.m_no_routes;
      No_route { version }

let data t ~now ~handle =
  t.data_packets <- t.data_packets + 1;
  match Lru.find t.handles handle with
  | Some path ->
      t.handle_hits <- t.handle_hits + 1;
      Reg.inc t.m_handle_hits;
      Some path
  | None ->
      t.handle_misses <- t.handle_misses + 1;
      Reg.inc t.m_handle_misses;
      Trace.instant t.trace ~ts:now ~tid:0 "serve.handle.stale";
      None

type stats = {
  queries : int;
  data_packets : int;
  route_hits : int;
  handle_hits : int;
  handle_misses : int;
  handle_evictions : int;
  handles_issued : int;
  handles_live : int;
  no_routes : int;
  rebuilds : int;
  rebuilt_ads : int;
  states_settled : int;
}

let stats (t : t) =
  {
    queries = t.queries;
    data_packets = t.data_packets;
    route_hits = 0;
    handle_hits = t.handle_hits;
    handle_misses = t.handle_misses;
    handle_evictions = Lru.evictions t.handles;
    handles_issued = t.next_handle;
    handles_live = Lru.length t.handles;
    no_routes = t.no_routes;
    rebuilds = Pdd.rebuilds t.pdd;
    rebuilt_ads = Pdd.rebuilt_ads t.pdd;
    states_settled = t.states_settled;
  }

let self_check t =
  match Lru.self_check t.handles with
  | Error e -> Error ("handle table: " ^ e)
  | Ok () ->
      let live = Lru.length t.handles and evicted = Lru.evictions t.handles in
      if live + evicted <> t.next_handle then
        Error
          (Printf.sprintf "handle leak: issued %d but live %d + evicted %d" t.next_handle
             live evicted)
      else Ok ()
