module Flow = Pr_policy.Flow
module Compiled = Pr_policy.Compiled
module Pqueue = Pr_util.Pqueue

type engine = {
  db : Lsdb.t;
  n : int;
  flow : Flow.t;
  specs : Compiled.spec option array;
      (* per-AD per-flow specializations, built lazily: synthesis
         probes the same transit ADs many times for one flow *)
}

let engine db ~n flow = { db; n; flow; specs = Array.make n None }

let engine_flow e = e.flow

let spec_for e ad =
  match e.specs.(ad) with
  | Some s -> s
  | None ->
    let s = Compiled.specialize (Lsdb.compiled_of e.db ad) e.flow in
    e.specs.(ad) <- Some s;
    s

let admits e ad ~prev ~next = Compiled.spec_allows (spec_for e ad) ~prev ~next

(* Neighbors of u according to the database, bidirectionally
   confirmed, weighted by the flow's QOS metric: the per-QOS route
   computation of paper section 3's IGP discussion, lifted to the
   inter-AD databases. *)
let db_neighbors e u =
  match Lsdb.get e.db u with
  | None -> []
  | Some lsa ->
    List.filter_map
      (fun (a : Lsdb.adjacency) ->
        let v = a.Lsdb.nbr in
        if v < 0 || v >= e.n then None
        else Option.map (fun m -> (v, m)) (Lsdb.bidirectional_metric e.db e.flow.Flow.qos u v))
      lsa.Lsdb.adjacencies

let search ~n ~src ~dst ~adj ~entry ~admit ?(avoid = []) () =
  if src = dst then (Some [ src ], 0)
  else begin
    (* State (v, p): we are at v having arrived from p. Encoded as
       v * n + p for the queue; the initial state uses p = src
       (harmless: src is on the path anyway and never re-enterable as
       interior).

       Storage is NOT n^2: a reachable state's p is always one of v's
       neighbors in the (symmetric) adjacency snapshot, so there are
       only sum-of-degrees states plus the start. The snapshot doubles
       as the CSR index that maps (v, p) to a compact slot. Queue
       payloads and priorities are those of the dense-array
       formulation, so pop order — and therefore the synthesized
       route — is identical to it. *)
    let offset = Array.make (n + 1) 0 in
    for u = 0 to n - 1 do
      offset.(u + 1) <- offset.(u) + Array.length adj.(u)
    done;
    let start_slot = offset.(n) in
    let slot v p =
      (* Position of p among v's neighbors. A linear exact-match scan:
         degrees are small and, unlike a rank search, it does not care
         how the caller ordered a row. *)
      let a = adj.(v) in
      let len = Array.length a in
      let i = ref 0 in
      while !i < len && fst (Array.unsafe_get a !i) <> p do
        incr i
      done;
      if !i = len then invalid_arg "Policy_route.search: adjacency is not symmetric";
      offset.(v) + !i
    in
    let size = start_slot + 1 in
    let dist = Array.make size infinity in
    let parent = Array.make size (-1) in
    let settled = Array.make size false in
    let work = ref 0 in
    let q = Pqueue.create () in
    let encode v p = (v * n) + p in
    let avoid_arr = Array.make n false in
    List.iter (fun a -> if a >= 0 && a < n then avoid_arr.(a) <- true) avoid;
    dist.(start_slot) <- 0.0;
    Pqueue.add q ~priority:0.0 (encode src src);
    let best_final = ref None in
    let continue_ = ref true in
    while !continue_ do
      match Pqueue.pop q with
      | None -> continue_ := false
      | Some (d, state) ->
        let v = state / n and p = state mod n in
        let state_slot = if v = src then start_slot else slot v p in
        if not settled.(state_slot) then begin
          settled.(state_slot) <- true;
          incr work;
          if v = dst then begin
            best_final := Some state_slot;
            continue_ := false
          end
          else begin
            let prev = if v = src then None else Some p in
            let e = if v = src then None else Some (entry v) in
            let a = adj.(v) in
            for i = 0 to Array.length a - 1 do
              let w, cost = Array.unsafe_get a i in
              let interior_ok =
                match e with None -> true | Some e -> admit e ~prev ~next:(Some w)
              in
              let avoid_ok = w = dst || not avoid_arr.(w) in
              if interior_ok && avoid_ok && w <> src then begin
                let slot' = slot w v in
                let d' = d +. float_of_int cost in
                if d' < dist.(slot') then begin
                  dist.(slot') <- d';
                  parent.(slot') <- state_slot;
                  Pqueue.add q ~priority:d' (encode w v)
                end
              end
            done
          end
        end
    done;
    let node_of s =
      (* The slot's node: the owner of the CSR row it falls in. *)
      if s = start_slot then src
      else begin
        let lo = ref 0 and hi = ref n in
        while !hi - !lo > 1 do
          let mid = (!lo + !hi) / 2 in
          if offset.(mid) <= s then lo := mid else hi := mid
        done;
        !lo
      end
    in
    match !best_final with
    | None -> (None, !work)
    | Some state ->
      (* Reconstruct by walking parents; guard against cycles in the
         state graph (there are none, but be defensive). *)
      let rec build acc state steps =
        if steps > size then None
        else begin
          let v = node_of state in
          if parent.(state) < 0 then Some (v :: acc)
          else build (v :: acc) parent.(state) (steps + 1)
        end
      in
      let path = build [] state 0 in
      (* A path can revisit an AD through different (v, p) states;
         such routes are rejected (sources require loop-free routes,
         paper §4.4). *)
      (match path with
      | Some p when Pr_topology.Path.is_loop_free p -> (Some p, !work)
      | _ -> (None, !work))
  end

let shortest e ?avoid () =
  let adj = Array.init e.n (fun u -> Array.of_list (db_neighbors e u)) in
  search ~n:e.n ~src:e.flow.Flow.src ~dst:e.flow.Flow.dst ~adj ~entry:Fun.id
    ~admit:(admits e) ?avoid ()

(* Optimistic node-level Dijkstra: admission is checked per node,
   ignoring prev/next-hop predicates (a None hop satisfies any
   predicate, so this over-approximates legality). The state space is
   n nodes instead of n^2 (node, arrived-from) states. The caller
   validates the result and falls back to the exact search when some
   hop-constrained term rejects it. *)
let shortest_optimistic e ~avoid =
  let n = e.n in
  let src = e.flow.Flow.src and dst = e.flow.Flow.dst in
  let dist = Array.make n infinity in
  let parent = Array.make n (-1) in
  let settled = Array.make n false in
  let work = ref 0 in
  let q = Pqueue.create () in
  let avoid_arr = Array.make n false in
  List.iter (fun a -> if a >= 0 && a < n then avoid_arr.(a) <- true) avoid;
  dist.(src) <- 0.0;
  Pqueue.add q ~priority:0.0 src;
  let continue_ = ref true in
  let found = ref false in
  while !continue_ do
    match Pqueue.pop q with
    | None -> continue_ := false
    | Some (d, v) ->
      if not settled.(v) then begin
        settled.(v) <- true;
        incr work;
        if v = dst then begin
          found := true;
          continue_ := false
        end
        else begin
          let v_ok = v = src || admits e v ~prev:None ~next:None in
          if v_ok then
            List.iter
              (fun (w, cost) ->
                let avoid_ok = w = dst || not avoid_arr.(w) in
                if avoid_ok && w <> src then begin
                  let d' = d +. float_of_int cost in
                  if d' < dist.(w) then begin
                    dist.(w) <- d';
                    parent.(w) <- v;
                    Pqueue.add q ~priority:d' w
                  end
                end)
              (db_neighbors e v)
        end
      end
  done;
  if not !found then (None, !work)
  else begin
    let rec build acc v = if v = src then src :: acc else build (v :: acc) parent.(v) in
    (Some (build [] dst), !work)
  end

(* Is the path exactly legal per the database, including prev/next-hop
   constrained terms? *)
let path_admitted e path =
  let rec scan = function
    | prev :: ad :: next :: rest ->
      admits e ad ~prev:(Some prev) ~next:(Some next) && scan (ad :: next :: rest)
    | _ -> true
  in
  scan path

let shortest_pruned e ?(avoid = []) () =
  match shortest_optimistic e ~avoid with
  | Some path, work when path_admitted e path ->
    (* The optimistic route survives exact validation: done, at node
       (not node-pair) search cost. *)
    (Some path, work)
  | _, work ->
    (* Either nothing was found or a hop-constrained term rejected the
       optimistic route: run the exact search. *)
    let path, full_work = shortest e ~avoid () in
    (path, work + full_work)

let enumerate e ~max_hops ?(limit = 2000) () =
  let src = e.flow.Flow.src and dst = e.flow.Flow.dst in
  let results = ref [] in
  let count = ref 0 in
  let on_path = Array.make e.n false in
  let rec go u prev prefix_rev depth =
    if !count < limit then
      if u = dst then begin
        incr count;
        results := List.rev (dst :: prefix_rev) :: !results
      end
      else if depth < max_hops then
        List.iter
          (fun (v, _) ->
            if (not on_path.(v)) && v <> src then begin
              let u_ok = u = src || admits e u ~prev ~next:(Some v) in
              if u_ok then begin
                on_path.(v) <- true;
                go v (Some u) (u :: prefix_rev) (depth + 1);
                on_path.(v) <- false
              end
            end)
          (db_neighbors e u)
  in
  if src = dst then [ [ src ] ]
  else begin
    on_path.(src) <- true;
    go src None [] 0;
    List.rev !results
  end

let spanning_work ~n = n * n
