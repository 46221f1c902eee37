(** The route-server query engine (paper §5.4).

    A [Serve.t] answers per-flow route queries against one immutable
    {!Pdd.snapshot} per query: the decision-diagram database version
    pinned when the query starts. Policy churn
    ([Policy_store.set_transit]) bumps the store version; {!refresh}
    catches the diagrams up incrementally and publishes a {e new}
    roots array, so a query never observes a mix of two versions — it
    answers entirely from the version it pinned (callers that want the
    newest answers simply refresh first, the retry-on-new discipline).

    There is no route cache: every query synthesizes its route afresh
    ({!Pr_proto.Policy_route.search} over the live topology), so an
    answer always reflects the link/node state at the moment it is
    asked. What does not change between queries is built once, on
    first use, and then never rebuilt: a CSR of the configured graph's
    neighbor pairs, and per QOS metric class (cost for Default and
    High_throughput, delay, hops) a {e plane} holding each entry's
    cheapest parallel link and the distances from 8 landmarks that
    give the search its A* lower bound. The search reads link/node
    state through [link_up]/[node_up] as it relaxes each edge, falling
    back to the pair's cheapest {e up} parallel link when the cheapest
    one is down, so it returns the same route costs as a search over a
    fresh per-query snapshot of the live graph. A plane takes
    [8 * (links + entries + n)] bytes on a 64-bit host (entries =
    twice the neighbor pairs; about 0.45 MB at 10^4 ADs) plus the shared CSR and
    the server's reusable search workspace (a few words per entry),
    so all three classes together take a few MB. The landmark
    distances are computed on the class's first query (9 shortest-path
    trees), not in {!create}. Reuse comes from the paper's route setup instead — the
    {e handle table}, an LRU-bounded ({!Pr_util.Lru}) map from handles
    to installed routes: a successful query installs the route under a
    fresh handle, and data packets present handles instead of
    repeating the query. A handle miss (evicted under LRU pressure)
    means the client must re-set-up.

    Handle hits, misses and evictions are exposed in {!stats} and as
    [lib/obs] trace instants/counters. *)

type t

val create :
  ?handle_capacity:int option ->
  ?trace:Pr_obs.Trace.t ->
  ?link_up:(Pr_topology.Link.id -> bool) ->
  ?node_up:(Pr_topology.Ad.id -> bool) ->
  Pr_topology.Graph.t ->
  Pr_policy.Policy_store.t ->
  t
(** Defaults: handle capacity [Some 1024],
    disabled trace, and an always-up topology. [link_up]/[node_up]
    plug in the simulated network's dynamic state. Building the server
    compiles the whole policy database into decision diagrams. *)

val pdd : t -> Pdd.db

val refresh : t -> now:float -> int
(** Catch the diagrams up with the policy store; returns the number of
    AD diagrams recompiled (0 when nothing changed). Queries issued
    after a refresh answer from the new version; queries that pinned
    the old snapshot keep answering from it. *)

val snapshot : t -> Pdd.snapshot
(** The current database version (refresh first for the newest). *)

type answer =
  | Route of { path : Pr_topology.Path.t; handle : int; version : int }
  | No_route of { version : int }

val query : ?snap:Pdd.snapshot -> t -> now:float -> Pr_policy.Flow.t -> answer
(** Answer one route query by exact (node, arrived-from) policy search
    ({!Pr_proto.Policy_route.search}) over the live topology, with
    admission read from the single pinned diagram snapshot ([snap] if
    given, else the current one). The route is a minimum-cost live,
    legal, loop-free one; among equal-cost routes the landmark bound
    decides which is found. A successful query installs the route in
    the handle table and returns the fresh handle. *)

val data : t -> now:float -> handle:int -> Pr_topology.Path.t option
(** Present a handle for a data packet: [Some path] on a live handle
    (touching its recency), [None] when the handle was evicted or
    never existed — the client must re-query. *)

type stats = {
  queries : int;
  data_packets : int;
  route_hits : int;
      (** always 0: there is no route cache; kept so existing readers
          of the stats record still build *)
  handle_hits : int;
  handle_misses : int;
  handle_evictions : int;
  handles_issued : int;
  handles_live : int;
  no_routes : int;
  rebuilds : int;  (** diagram rebuild passes, initial build included *)
  rebuilt_ads : int;  (** per-AD diagram recompilations *)
  states_settled : int;
      (** search work summed over all queries: (node, arrived-from)
          states settled *)
}

val stats : t -> stats

val self_check : t -> (unit, string) result
(** Handle-leak audit: the handle table passes
    {!Pr_util.Lru.self_check} and every issued handle is accounted for
    (live + evicted = issued). *)
