(* Route-server query engine (see serve.mli). *)

module Graph = Pr_topology.Graph
module Link = Pr_topology.Link
module Path = Pr_topology.Path
module Flow = Pr_policy.Flow
module Lru = Pr_util.Lru
module Trace = Pr_obs.Trace
module Reg = Pr_telemetry.Registry
module Hist = Pr_telemetry.Hist

type t = {
  graph : Graph.t;
  pdd : Pdd.db;
  link_up : Link.id -> bool;
  node_up : Pr_topology.Ad.id -> bool;
  trace : Trace.t;
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
  {
    graph;
    pdd = Pdd.db_create store;
    link_up;
    node_up;
    trace;
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

(* Exact (node, arrived-from) policy search: {!Pr_proto.Policy_route.search}
   over the configured graph under dynamic link/node state, with
   admission resolved through the diagram snapshot — one
   [Pdd.flow_entry] per touched AD, then at most a few predicate probes
   per edge relaxation. *)
let synthesize t snap (f : Flow.t) =
  let g = t.graph in
  let n = Graph.n g in
  let entries : Pdd.node option array = Array.make n None in
  let entry ad =
    match entries.(ad) with
    | Some e -> e
    | None ->
        let e = Pdd.flow_entry (Pdd.root snap ad) f in
        entries.(ad) <- Some e;
        e
  in
  (* Adjacency snapshot: per node, the cheapest up parallel link to
     each up neighbor under the flow's QOS metric. *)
  let adj = Array.make n [||] in
  for u = 0 to n - 1 do
    if t.node_up u then begin
      let acc = ref [] in
      let cur_nbr = ref (-1) and cur_m = ref max_int in
      let flush () =
        if !cur_nbr >= 0 && !cur_m < max_int then acc := (!cur_nbr, !cur_m) :: !acc
      in
      Graph.iter_neighbors g u ~f:(fun v l ->
          if v <> !cur_nbr then begin
            flush ();
            cur_nbr := v;
            cur_m := max_int
          end;
          if t.node_up v && t.link_up l then begin
            let link = Graph.link g l in
            let m =
              Pr_proto.Qos_metric.metric f.Flow.qos ~cost:link.Link.cost
                ~delay:link.Link.delay
            in
            if m < !cur_m then cur_m := m
          end);
      flush ();
      adj.(u) <- Array.of_list (List.rev !acc)
    end
  done;
  fst
    (Pr_proto.Policy_route.search ~n ~src:f.Flow.src ~dst:f.Flow.dst ~adj ~entry
       ~admit:Pdd.entry_admit ())

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
