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

type csr = private {
  offset : int array;
      (** [n + 1] row starts: AD [u]'s entries are [offset.(u)] to
          [offset.(u + 1) - 1] *)
  nbr : int array;  (** per entry: the neighbor it leads to *)
  rev : int array;  (** per entry [u -> w]: the index of [u] in [w]'s row *)
}
(** A symmetric adjacency in compressed sparse rows: the shape
    {!search} runs over. The structure carries no weights; a search
    prices each entry through its [cost] callback, so one [csr] serves
    every metric and every live link/node state. *)

val csr_of_rows : Pr_topology.Ad.id array array -> csr
(** [rows.(u)] lists [u]'s neighbors, in the order a search relaxes
    them. The rows must be symmetric ([v] in [rows.(u)] iff [u] in
    [rows.(v)]).
    @raise Invalid_argument ["Policy_route.csr_of_rows: adjacency is not
    symmetric"] otherwise, or when a neighbor is not an AD id. *)

val weighted_csr : (Pr_topology.Ad.id * int) array array -> csr * int array
(** {!csr_of_rows} of [(neighbor, metric)] rows, plus the metrics as
    one array indexed like the entries — for searches whose edge costs
    are fixed ([~cost:(fun _ i -> metric.(i))]). *)

type 'e workspace
(** Reusable per-search state: the per-state dist/parent/settled
    arrays, the per-AD memo of [entry] results and the priority queue.
    A search bumps the workspace's generation and treats every array
    entry stamped with an older one as empty, so starting a search
    allocates nothing once the arrays have grown to the largest
    adjacency searched. A workspace holds one search at a time; give
    each owner (say, each route server) its own. Nothing it holds
    survives into the next search's results. *)

val workspace : unit -> 'e workspace
(** An empty workspace; its arrays grow on first use. *)

val search :
  src:Pr_topology.Ad.id ->
  dst:Pr_topology.Ad.id ->
  csr:csr ->
  cost:(Pr_topology.Ad.id -> int -> int) ->
  entry:(Pr_topology.Ad.id -> 'e) ->
  admit:('e -> prev:Pr_topology.Ad.id option -> next:Pr_topology.Ad.id option -> bool) ->
  ?avoid:Pr_topology.Ad.id list ->
  ?bound:(Pr_topology.Ad.id -> int) ->
  ?workspace:'e workspace ->
  unit ->
  Pr_topology.Path.t option * int
(** Minimum-cost loop-free path from [src] to [dst] whose every
    interior crossing is admitted: Dijkstra (A* when [bound] is given)
    over the (node, arrived-from) states of [csr]. Storage is one slot
    per adjacency entry (the sum of degrees), not [n * n].

    [cost u i] prices entry [i] of [u]'s row (nonnegative), or returns
    [max_int] when the edge is unusable right now (a down link or a
    down far end). [admit (entry v) ~prev ~next] decides each
    relaxation out of a state at a non-source AD [v] that would
    improve a distance; [entry v] is resolved at most once per AD per
    search (memoized in the workspace; never for [src], never for
    [dst]), so callers can hoist per-AD, per-flow work there. [avoid]
    excludes interior ADs.

    [bound v] is a lower bound on the cost still to go from [v] to
    [dst]; the queue is ordered by [dist + bound]. It must be
    admissible (never above the true remaining cost over usable,
    admitted edges) and consistent ([bound u <= cost u i + bound w] for
    every usable entry [i] from [u] to [w]); then the returned cost is
    still the minimum, and only which of several equal-cost paths is
    returned may differ from the unbounded search. Without [bound] the
    queue pops by distance, first-in first-out among equal distances.

    [workspace] supplies reusable state (see {!workspace}); without it
    the search allocates its own. Returns the path (or [None] when no
    legal loop-free path exists) and the search work: the number of
    states settled, [0] when [src = dst]. *)

val shortest :
  engine ->
  ?avoid:Pr_topology.Ad.id list ->
  unit ->
  Pr_topology.Path.t option * int
(** Minimum-cost policy-legal path for the engine's flow: {!search},
    without a bound, over the database's bidirectionally confirmed
    adjacencies, weighted by the flow's QOS metric. [avoid] excludes
    interior ADs (the source's own criteria). Returns the path and the search work
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
