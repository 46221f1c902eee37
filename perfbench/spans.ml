(* Benchmark-side tracing: a monotonic clock, an in-memory span store,
   per-layer self-time accumulators, and a functor that delegates every
   protocol function and times the calls into each layer. Nothing here
   reaches into the libraries: spans are recorded only around the
   public calls the benchmark (or the runner it drives) makes. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let now_s () = float_of_int (now_ns ()) *. 1e-9

(* One accumulator per (phase, design point, layer). [self_ns] is the
   span's duration minus the part its child spans cover. Only the
   first [per_acc_spans] spans of each accumulator are stored; every
   call is accumulated. *)
type acc = {
  label : string;
  mutable calls : int;
  mutable total_ns : int;
  mutable self_ns : int;
  mutable stored : int;
}

let per_acc_spans = 1024

let accs : acc list ref = ref []

let acc label =
  match List.find_opt (fun a -> a.label = label) !accs with
  | Some a -> a
  | None ->
      let a = { label; calls = 0; total_ns = 0; self_ns = 0; stored = 0 } in
      accs := a :: !accs;
      a

let find label = List.find_opt (fun a -> a.label = label) !accs

(* Span store: struct of arrays, preallocated, written out at the end. *)
let cap = 1 lsl 16

let s_name = Array.make cap ""

let s_start = Array.make cap 0

let s_end = Array.make cap 0

let s_parent = Array.make cap (-1)

let stored = ref 0

let dropped = ref 0

(* Open frames. *)
let max_depth = 64

let dummy = { label = ""; calls = 0; total_ns = 0; self_ns = 0; stored = 0 }

let f_span = Array.make max_depth (-1)

let f_start = Array.make max_depth 0

let f_child = Array.make max_depth 0

let f_acc = Array.make max_depth dummy

let depth = ref 0

let enter a name =
  let d = !depth in
  let t = now_ns () in
  let idx =
    if a.stored < per_acc_spans && !stored < cap then begin
      let i = !stored in
      incr stored;
      a.stored <- a.stored + 1;
      s_name.(i) <- name;
      s_start.(i) <- t;
      s_end.(i) <- t;
      s_parent.(i) <- (if d > 0 then f_span.(d - 1) else -1);
      i
    end
    else begin
      incr dropped;
      -1
    end
  in
  f_span.(d) <- idx;
  f_start.(d) <- t;
  f_child.(d) <- 0;
  f_acc.(d) <- a;
  depth := d + 1

let leave () =
  let t = now_ns () in
  let d = !depth - 1 in
  depth := d;
  let dur = t - f_start.(d) in
  let a = f_acc.(d) in
  a.calls <- a.calls + 1;
  a.total_ns <- a.total_ns + dur;
  a.self_ns <- a.self_ns + dur - f_child.(d);
  if d > 0 then f_child.(d - 1) <- f_child.(d - 1) + dur;
  let i = f_span.(d) in
  if i >= 0 then s_end.(i) <- t

let span a name f =
  enter a name;
  match f () with
  | v ->
      leave ();
      v
  | exception e ->
      leave ();
      raise e

(* Chrome trace-event JSON (loads in Perfetto): one complete event per
   stored span, its parent index in [args]. *)
let write path =
  let oc = open_out path in
  let t0 = if !stored > 0 then s_start.(0) else 0 in
  output_string oc "{\"traceEvents\":[";
  for i = 0 to !stored - 1 do
    if i > 0 then output_char oc ',';
    Printf.fprintf oc
      "\n{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d}}"
      s_name.(i)
      (float_of_int (s_start.(i) - t0) /. 1e3)
      (float_of_int (s_end.(i) - s_start.(i)) /. 1e3)
      i s_parent.(i)
  done;
  Printf.fprintf oc "\n],\"spans_stored\":%d,\"spans_dropped\":%d}\n" !stored !dropped;
  close_out oc

(* The layers a protocol call can land in. The benchmark switches the
   current context between phases; each wrapped call charges the
   context's accumulator for its layer. Calls not listed here run
   unwrapped, so their time stays in the phase's own (sim) self time. *)
type ctx = {
  handler : acc;  (** start, handle_message, handle_link, reset_node, resync *)
  route : acc;  (** prepare_flow, originate, forward *)
  guard : acc;  (** check_update *)
}

let ctx prefix =
  let a l = acc (prefix ^ "." ^ l) in
  { handler = a "handler"; route = a "route"; guard = a "guard" }

let current = ref (ctx "setup")

module Timed (P : Pr_proto.Protocol_intf.PROTOCOL) :
  Pr_proto.Protocol_intf.PROTOCOL with type t = P.t and type message = P.message = struct
  (* Every function delegates to [P]; the timed ones charge a layer. *)
  type t = P.t

  type message = P.message

  let name = P.name

  let design_point = P.design_point

  let create = P.create

  let start t = span !current.handler "start" (fun () -> P.start t)

  let handle_message t ~at ~from m =
    enter !current.handler "handle_message";
    match P.handle_message t ~at ~from m with
    | () -> leave ()
    | exception e ->
        leave ();
        raise e

  let handle_link t ~at ~link ~up =
    span !current.handler "handle_link" (fun () -> P.handle_link t ~at ~link ~up)

  let reset_node t ~at = span !current.handler "reset_node" (fun () -> P.reset_node t ~at)

  let check_update t ~at ~from m =
    enter !current.guard "check_update";
    match P.check_update t ~at ~from m with
    | r ->
        leave ();
        r
    | exception e ->
        leave ();
        raise e

  let corrupt_update = P.corrupt_update

  let forge_update = P.forge_update

  let audit_state = P.audit_state

  let resync t ~at ~nbr = span !current.handler "resync" (fun () -> P.resync t ~at ~nbr)

  let prepare_flow t f = span !current.route "prepare_flow" (fun () -> P.prepare_flow t f)

  let originate t p = span !current.route "originate" (fun () -> P.originate t p)

  let forward t ~at ~from p =
    enter !current.route "forward";
    match P.forward t ~at ~from p with
    | d ->
        leave ();
        d
    | exception e ->
        leave ();
        raise e

  let table_entries = P.table_entries
end

let wrap (Pr_core.Registry.Packed (module P)) =
  let module T = Timed (P) in
  Pr_core.Registry.Packed (module T)
