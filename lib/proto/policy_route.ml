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

(* The ADs a search must not cross, as a mask; [None] (no allocation)
   for the common empty list. *)
let avoid_mask ~n = function
  | [] -> None
  | avoid ->
    let a = Array.make n false in
    List.iter (fun x -> if x >= 0 && x < n then a.(x) <- true) avoid;
    Some a

type csr = { offset : int array; nbr : int array; rev : int array }

let csr_of_rows rows =
  let n = Array.length rows in
  let offset = Array.make (n + 1) 0 in
  for u = 0 to n - 1 do
    offset.(u + 1) <- offset.(u) + Array.length rows.(u)
  done;
  let nbr = Array.concat (Array.to_list rows) in
  Array.iter
    (fun w ->
      if w < 0 || w >= n then invalid_arg "Policy_route.csr_of_rows: neighbor out of range")
    nbr;
  let rev = Array.make (Array.length nbr) 0 in
  for u = 0 to n - 1 do
    for i = offset.(u) to offset.(u + 1) - 1 do
      (* Entry i runs u -> w; its reverse is u's position in w's row. A
         linear exact-match scan: degrees are small and, unlike a rank
         search, it does not care how the caller ordered a row. *)
      let w = nbr.(i) in
      let j = ref offset.(w) and hi = offset.(w + 1) in
      while !j < hi && nbr.(!j) <> u do
        incr j
      done;
      if !j = hi then invalid_arg "Policy_route.csr_of_rows: adjacency is not symmetric";
      rev.(i) <- !j
    done
  done;
  { offset; nbr; rev }

let weighted_csr rows =
  let column f = Array.map (Array.map f) rows in
  (csr_of_rows (column fst), Array.concat (Array.to_list (column snd)))

(* Per-query search state, reused across the searches of one owner.
   A slot's dist/parent and an AD's memoized entry are valid only when
   its mark carries the current generation, so starting a search costs
   O(1), not O(slots). *)
type 'e workspace = {
  mutable gen : int;
  mutable mark : int array;  (* per slot: 2 gen = reached, 2 gen + 1 = settled *)
  mutable dist : int array;
  mutable parent : int array;
  mutable emark : int array;  (* per AD: gen when entries.(ad) is this search's *)
  mutable entries : 'e array;
  (* Binary min-heap of slots on (priority, insertion order): equal
     priorities pop first-in first-out, the order of Pr_util.Pqueue. *)
  mutable hprio : int array;
  mutable hseq : int array;
  mutable hslot : int array;
  mutable hsize : int;
  mutable hnext : int;
}

let workspace () =
  {
    gen = 0;
    mark = [||];
    dist = [||];
    parent = [||];
    emark = [||];
    entries = [||];
    hprio = Array.make 64 0;
    hseq = Array.make 64 0;
    hslot = Array.make 64 0;
    hsize = 0;
    hnext = 0;
  }

(* Start a search over [slots] states of an [n]-AD adjacency. Arrays
   only grow, and a fresh array's zero marks predate generation 1. *)
let begin_search ws ~slots ~n =
  if Array.length ws.mark < slots then begin
    ws.mark <- Array.make slots 0;
    ws.dist <- Array.make slots 0;
    ws.parent <- Array.make slots 0
  end;
  if Array.length ws.emark < n then ws.emark <- Array.make n 0;
  ws.gen <- ws.gen + 1;
  ws.hsize <- 0;
  ws.hnext <- 0

let heap_push ws prio slot =
  if ws.hsize = Array.length ws.hprio then begin
    let grow a = Array.append a (Array.make (Array.length a) 0) in
    ws.hprio <- grow ws.hprio;
    ws.hseq <- grow ws.hseq;
    ws.hslot <- grow ws.hslot
  end;
  let seq = ws.hnext in
  ws.hnext <- seq + 1;
  (* The newest entry loses every tie, so it rises only past strictly
     larger priorities. *)
  let i = ref ws.hsize in
  ws.hsize <- ws.hsize + 1;
  while !i > 0 && prio < ws.hprio.((!i - 1) / 2) do
    let p = (!i - 1) / 2 in
    ws.hprio.(!i) <- ws.hprio.(p);
    ws.hseq.(!i) <- ws.hseq.(p);
    ws.hslot.(!i) <- ws.hslot.(p);
    i := p
  done;
  ws.hprio.(!i) <- prio;
  ws.hseq.(!i) <- seq;
  ws.hslot.(!i) <- slot

let heap_pop ws =
  let top = ws.hslot.(0) in
  let size = ws.hsize - 1 in
  ws.hsize <- size;
  if size > 0 then begin
    let prio = ws.hprio.(size) and seq = ws.hseq.(size) and slot = ws.hslot.(size) in
    let less a b =
      ws.hprio.(a) < ws.hprio.(b) || (ws.hprio.(a) = ws.hprio.(b) && ws.hseq.(a) < ws.hseq.(b))
    in
    let before j = ws.hprio.(j) < prio || (ws.hprio.(j) = prio && ws.hseq.(j) < seq) in
    let i = ref 0 and continue_ = ref true in
    while !continue_ do
      let l = (2 * !i) + 1 in
      if l >= size then continue_ := false
      else begin
        let c = if l + 1 < size && less (l + 1) l then l + 1 else l in
        if before c then begin
          ws.hprio.(!i) <- ws.hprio.(c);
          ws.hseq.(!i) <- ws.hseq.(c);
          ws.hslot.(!i) <- ws.hslot.(c);
          i := c
        end
        else continue_ := false
      end
    done;
    ws.hprio.(!i) <- prio;
    ws.hseq.(!i) <- seq;
    ws.hslot.(!i) <- slot
  end;
  top

let search ~src ~dst ~csr ~cost ~entry ~admit ?(avoid = []) ?bound ?workspace:ws () =
  if src = dst then (Some [ src ], 0)
  else begin
    (* State (v, p): we are at v having arrived from p. Its slot is p's
       entry in v's CSR row, so reaching w from v over entry i lands in
       slot rev.(i), and slot s is at nbr.(rev.(s)) having arrived from
       nbr.(s). The start state (src, -) takes the one extra slot past
       the rows. Storage is one slot per adjacency entry, not n^2. *)
    let { offset; nbr; rev } = csr in
    let n = Array.length offset - 1 in
    let start = offset.(n) in
    let ws = match ws with Some ws -> ws | None -> workspace () in
    begin_search ws ~slots:(start + 1) ~n;
    let gen = ws.gen in
    let reached = 2 * gen and settled = (2 * gen) + 1 in
    let mark = ws.mark and dist = ws.dist and parent = ws.parent in
    let entry_of v =
      if ws.emark.(v) = gen then ws.entries.(v)
      else begin
        let e = entry v in
        if Array.length ws.entries < n then ws.entries <- Array.make n e;
        ws.entries.(v) <- e;
        ws.emark.(v) <- gen;
        e
      end
    in
    let avoided = avoid_mask ~n avoid in
    let h = match bound with Some b -> b | None -> fun _ -> 0 in
    mark.(start) <- reached;
    dist.(start) <- 0;
    parent.(start) <- -1;
    heap_push ws (h src) start;
    let work = ref 0 in
    let final = ref (-1) in
    while !final < 0 && ws.hsize > 0 do
      let s = heap_pop ws in
      if mark.(s) <> settled then begin
        mark.(s) <- settled;
        incr work;
        let v = if s = start then src else nbr.(rev.(s)) in
        if v = dst then final := s
        else begin
          let d = dist.(s) in
          let prev = if s = start then None else Some nbr.(s) in
          for i = offset.(v) to offset.(v + 1) - 1 do
            let w = nbr.(i) in
            let avoid_ok =
              match avoided with Some a -> w = dst || not a.(w) | None -> true
            in
            if w <> src && avoid_ok then begin
              let c = cost v i in
              if c <> max_int then begin
                let d' = d + c in
                let s' = rev.(i) in
                if
                  (mark.(s') < reached || d' < dist.(s'))
                  && (s = start || admit (entry_of v) ~prev ~next:(Some w))
                then begin
                  mark.(s') <- reached;
                  dist.(s') <- d';
                  parent.(s') <- s;
                  heap_push ws (d' + h w) s'
                end
              end
            end
          done
        end
      end
    done;
    if !final < 0 then (None, !work)
    else begin
      (* Reconstruct by walking parents; guard against cycles in the
         state graph (there are none, but be defensive). *)
      let rec build acc s steps =
        if steps > start then None
        else begin
          let v = if s = start then src else nbr.(rev.(s)) in
          if parent.(s) < 0 then Some (v :: acc) else build (v :: acc) parent.(s) (steps + 1)
        end
      in
      (* A path can revisit an AD through different (v, p) states;
         such routes are rejected (sources require loop-free routes,
         paper §4.4). *)
      match build [] !final 0 with
      | Some p when Pr_topology.Path.is_loop_free p -> (Some p, !work)
      | _ -> (None, !work)
    end
  end

let shortest e ?avoid () =
  let csr, metric =
    weighted_csr (Array.init e.n (fun u -> Array.of_list (db_neighbors e u)))
  in
  search ~src:e.flow.Flow.src ~dst:e.flow.Flow.dst ~csr
    ~cost:(fun _ i -> metric.(i))
    ~entry:Fun.id ~admit:(admits e) ?avoid ()

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
  let avoided = avoid_mask ~n avoid in
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
                let avoid_ok =
                  match avoided with Some a -> w = dst || not a.(w) | None -> true
                in
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
