(** Policy-constrained route computation over a link-state database.

    This is the "route synthesis" at the heart of the paper's
    recommended architecture (§5.4.1) and of the LS hop-by-hop design
    (§5.3): find AD paths such that every interior AD's advertised
    Policy Terms admit the flow, where a PT may constrain the previous
    and next hop as well as source, destination, QOS, UCI, hour and
    authentication.

    Because admission of an interior AD depends on both its
    predecessor and successor, shortest-path search runs over
    (node, arrived-from) states rather than nodes. {!search} is that
    search, the one policy-route Dijkstra in the system: {!shortest}
    runs it over the link-state database, and the route server
    ([Pr_serve.Serve]) runs it over the live graph with admission
    resolved through its decision diagrams.

    The database searches run through an {!engine}: a per-flow view of
    the database that resolves each AD's flow-only policy conditions
    once ({!Pr_policy.Compiled.specialize}) and leaves only prev/next
    bitset probes in the relaxation inner loop. *)

type engine
(** A flow-specialized admission engine over one database snapshot.
    Cheap to build (one small array); per-AD specializations are
    compiled lazily on first probe. Build a fresh engine per (flow,
    database-version) — callers already keyed on
    {!Ls_flood.db_version} for their route caches get this for free. *)

val engine : Lsdb.t -> n:int -> Pr_policy.Flow.t -> engine

val engine_flow : engine -> Pr_policy.Flow.t

val admits :
  engine ->
  Pr_topology.Ad.id ->
  prev:Pr_topology.Ad.id option ->
  next:Pr_topology.Ad.id option ->
  bool
(** Does some advertised PT of the AD admit this crossing, according
    to the database the engine wraps. *)

val path_admitted : engine -> Pr_topology.Path.t -> bool
(** Every interior crossing of the path is admitted — what ORWG checks
    before re-using a cached source route. *)

val search :
  n:int ->
  src:Pr_topology.Ad.id ->
  dst:Pr_topology.Ad.id ->
  adj:(Pr_topology.Ad.id * int) array array ->
  entry:(Pr_topology.Ad.id -> 'e) ->
  admit:('e -> prev:Pr_topology.Ad.id option -> next:Pr_topology.Ad.id option -> bool) ->
  ?avoid:Pr_topology.Ad.id list ->
  unit ->
  Pr_topology.Path.t option * int
(** Minimum-cost loop-free path from [src] to [dst] whose every
    interior crossing is admitted: Dijkstra over (node, arrived-from)
    states of the caller's adjacency snapshot. [adj.(u)] lists [u]'s
    neighbors with the metric of the edge out of [u]; the snapshot
    must be symmetric ([v] in [adj.(u)] iff [u] in [adj.(v)]), and a
    relaxation onto a missing reverse entry raises
    [Invalid_argument "Policy_route.search: adjacency is not
    symmetric"]. Storage is one slot per adjacency entry (the sum of
    degrees), not [n * n].

    [entry v] is resolved once each time a state at a non-source AD
    [v] is settled (never for [src], never for [dst]), so callers can
    hoist per-AD, per-flow work there; [admit (entry v) ~prev ~next]
    runs on every edge relaxation out of such a state. [avoid]
    excludes interior ADs. Returns the path (or [None] when no legal
    loop-free path exists) and the search work: the number of states
    settled, [0] when [src = dst]. *)

val shortest :
  engine ->
  ?avoid:Pr_topology.Ad.id list ->
  unit ->
  Pr_topology.Path.t option * int
(** Minimum-cost policy-legal path for the engine's flow: {!search}
    over the database's bidirectionally confirmed adjacencies, weighted
    by the flow's QOS metric. [avoid] excludes interior ADs
    (the source's own criteria). Returns the path and the search work
    (states settled), the unit charged to {!Pr_sim.Metrics} as
    computation. *)

val shortest_pruned :
  engine ->
  ?avoid:Pr_topology.Ad.id list ->
  unit ->
  Pr_topology.Path.t option * int
(** Synthesis pruning heuristic (paper §6: "heuristics for pruning
    precomputations and for focusing on-demand computations"): an
    {e optimistic} node-level Dijkstra that checks admission per AD
    while ignoring prev/next-hop predicates — n states instead of the
    exact search's n² (node, arrived-from) states — then validates the
    result exactly and falls back to {!shortest} only when a
    hop-constrained term rejects it. Exact in outcome, cheap in the
    common case where few terms constrain hops. Returns the route and
    the combined search work. *)

val enumerate :
  engine ->
  max_hops:int ->
  ?limit:int ->
  unit ->
  Pr_topology.Path.t list
(** All policy-legal simple paths within [max_hops] according to the
    database (default [limit] 2000) — the route server's candidate set
    when the source wants choice rather than just a shortest route. *)

val spanning_work : n:int -> int
(** Nominal work of one full (per-source) spanning computation, used
    to compare computation burdens across designs: [n * n] states in
    the worst case. *)
