module J = Pr_util.Json

type band = Exact | Rel of float | Ignore

type check = { field : string; band : band }

type outcome = {
  field : string;
  baseline : float option;
  current : float option;
  band : band;
  ok : bool;
  note : string;
}

let number j name =
  match J.member name j with
  | Some (J.Int v) -> Some (float_of_int v)
  | Some (J.Float v) -> Some v
  | _ -> None

let within_exact a b =
  Float.abs (a -. b) <= 1e-9 *. Float.max 1.0 (Float.max (Float.abs a) (Float.abs b))

(* Symmetric band with one unit of absolute slack so zero-valued
   timing fields do not trip on noise. *)
let within_rel tol a b =
  let slack = 1.0 in
  b <= (a *. (1.0 +. tol)) +. slack && a <= (b *. (1.0 +. tol)) +. slack

let compare_row ~spec ~baseline ~current =
  List.map
    (fun (ck : check) ->
      let field = ck.field and band = ck.band in
      let b = number baseline field and c = number current field in
      match (b, c, band) with
      | None, _, _ ->
          { field; baseline = b; current = c; band; ok = true;
            note = "absent in baseline (skipped)" }
      | Some _, _, Ignore ->
          { field; baseline = b; current = c; band; ok = true; note = "ignored" }
      | Some _, None, _ ->
          { field; baseline = b; current = c; band; ok = false;
            note = "missing in current run" }
      | Some bv, Some cv, Exact ->
          let ok = within_exact bv cv in
          { field; baseline = b; current = c; band; ok;
            note = (if ok then "exact" else "deterministic value changed") }
      | Some bv, Some cv, Rel tol ->
          let ok = within_rel tol bv cv in
          let note =
            if ok then Printf.sprintf "within ±%.0f%%" (tol *. 100.0)
            else Printf.sprintf "outside ±%.0f%% band" (tol *. 100.0)
          in
          { field; baseline = b; current = c; band; ok; note })
    spec

let failures outcomes = List.filter (fun o -> not o.ok) outcomes

let serve_spec ~timing_tolerance =
  let exact f = { field = f; band = Exact } in
  let rel f = { field = f; band = Rel timing_tolerance } in
  [
    (* Deterministic under (seed, plan, config): scenario shape and
       counted work. *)
    exact "ads";
    exact "links";
    exact "queries";
    exact "answered";
    exact "no_routes";
    exact "handle_hits";
    exact "handle_misses";
    exact "handles_issued";
    exact "handle_evictions";
    exact "rebuilds";
    exact "rebuilt_ads";
    exact "diagram_nodes";
    exact "diagram_preds";
    exact "agreement_checks";
    exact "agreement_failures";
    (* Total search work: what the A* landmark bound saves, so losing
       the bound moves it — a regression no timing band catches. *)
    exact "states_settled";
    (* Graceful-degradation counters: simulated-time products of the
       (seed, plan) pair, so exact too. *)
    exact "stale_batches";
    exact "queries_shed";
    exact "max_stale_age";
    exact "link_quarantines";
    exact "link_readmissions";
    (* Wall-clock-derived: gate within the declared band. *)
    rel "qps";
    rel "p50_ns";
    rel "p99_ns";
    rel "build_ns";
  ]

let pp_outcome ppf o =
  let num = function None -> "-" | Some v -> Printf.sprintf "%g" v in
  let band =
    match o.band with
    | Exact -> "exact"
    | Rel tol -> Printf.sprintf "±%.0f%%" (tol *. 100.0)
    | Ignore -> "ignore"
  in
  Format.fprintf ppf "%-22s %-6s baseline=%-14s current=%-14s %s %s" o.field
    band (num o.baseline) (num o.current)
    (if o.ok then "ok" else "FAIL")
    o.note
