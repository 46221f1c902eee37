module J = Pr_util.Json

type kind = Begin | End | Instant | Counter | Complete

type t = {
  mutable on : bool;
  ring : bool; (* when full: overwrite the oldest event, else drop the newest *)
  capacity : int;
  kinds : kind array;
  ts : float array;
  tid : int array;
  names : string array;
  values : float array; (* a counter's sample, a complete span's duration *)
  details : string array;
  mutable head : int; (* events stored so far; the next slot is head mod capacity *)
  mutable dropped : int;
}

let make ~ring capacity =
  let capacity = Stdlib.max 1 capacity in
  {
    on = true;
    ring;
    capacity;
    kinds = Array.make capacity Instant;
    ts = Array.make capacity 0.0;
    tid = Array.make capacity 0;
    names = Array.make capacity "";
    values = Array.make capacity 0.0;
    details = Array.make capacity "";
    head = 0;
    dropped = 0;
  }

let create ?(capacity = 1 lsl 18) () = make ~ring:false capacity

let ring ~capacity = make ~ring:true capacity

let flight = ring ~capacity:1024

let disabled =
  {
    on = false;
    ring = false;
    capacity = 0;
    kinds = [||];
    ts = [||];
    tid = [||];
    names = [||];
    values = [||];
    details = [||];
    head = 0;
    dropped = 0;
  }

let enabled t = t.on

let set_enabled t on = if t.capacity > 0 then t.on <- on

let length t = Stdlib.min t.head t.capacity

let dropped t = t.dropped

let total t = t.head + t.dropped

let clear t =
  t.head <- 0;
  t.dropped <- 0

(* The one hot-path entry point: a single branch on [on] when tracing
   is off, one bounds check and six array stores when it is on. A
   full export buffer counts new events instead of storing them
   (dropping new events keeps every recorded End matched to a recorded
   Begin); a full ring overwrites its oldest event. *)
let record t kind ~ts ~tid ~value ~detail name =
  if t.on then begin
    if t.head >= t.capacity && not t.ring then t.dropped <- t.dropped + 1
    else begin
      let i = if t.head < t.capacity then t.head else t.head mod t.capacity in
      t.kinds.(i) <- kind;
      t.ts.(i) <- ts;
      t.tid.(i) <- tid;
      t.names.(i) <- name;
      t.values.(i) <- value;
      t.details.(i) <- detail;
      t.head <- t.head + 1
    end
  end

let span_begin t ~ts ~tid name = record t Begin ~ts ~tid ~value:0.0 ~detail:"" name

let span_end t ~ts ~tid name = record t End ~ts ~tid ~value:0.0 ~detail:"" name

let instant t ~ts ~tid name = record t Instant ~ts ~tid ~value:0.0 ~detail:"" name

let counter t ~ts ~tid ~value name = record t Counter ~ts ~tid ~value ~detail:"" name

let complete t ~ts ~dur ~tid name = record t Complete ~ts ~tid ~value:dur ~detail:"" name

(* [flight] is process-wide and a caller may note from several domains
   at once, so notes are serialised. Uncontended lock cost is
   negligible next to the string formatting every caller already does,
   and notes are off the per-event hot path. *)
let note_mutex = Mutex.create ()

let note ?(tid = 0) ?(value = 0.0) ?(detail = "") t ~ts name =
  if t.on then begin
    Mutex.lock note_mutex;
    record t Instant ~ts ~tid ~value ~detail name;
    Mutex.unlock note_mutex
  end

(* Slots of the stored events, oldest first. *)
let slots t =
  let n = length t in
  List.init n (fun k -> (t.head - n + k) mod t.capacity)

(* --- export --------------------------------------------------------- *)

let phase = function Begin -> "B" | End -> "E" | Instant -> "i" | Counter -> "C" | Complete -> "X"

(* The one event encoder, shared by the Chrome and post-mortem
   documents: name/ph/ts/pid/tid, then the document's own fields. *)
let event ~name ~ph ~ts ~tid extra =
  J.Obj
    ([
       ("name", J.String name);
       ("ph", J.String ph);
       ("ts", J.Float ts);
       ("pid", J.Int 1);
       ("tid", J.Int tid);
     ]
    @ extra)

(* Export in record order (timestamps are therefore monotonic by
   construction). Spans still open at the end — end events lost to a
   full buffer, or a run cut short — are closed at the last recorded
   timestamp so the document always carries balanced B/E pairs. *)
let to_json t =
  let stacks : (int, string list) Hashtbl.t = Hashtbl.create 8 in
  let push tid name =
    Hashtbl.replace stacks tid (name :: Option.value (Hashtbl.find_opt stacks tid) ~default:[])
  in
  let events = ref [] in
  let emit e = events := e :: !events in
  let last_ts = ref 0.0 in
  List.iter
    (fun i ->
      let name = t.names.(i) and ts = t.ts.(i) and tid = t.tid.(i) in
      let ph = phase t.kinds.(i) in
      last_ts := ts;
      match t.kinds.(i) with
      | Begin ->
        push tid name;
        emit (event ~name ~ph ~ts ~tid [])
      | End -> (
        (* A stray End (no matching Begin on this tid) is recorder
           misuse, or its Begin was overwritten; skip it rather than
           emit an unbalanced document. *)
        match Hashtbl.find_opt stacks tid with
        | Some (top :: rest) when top = name ->
          Hashtbl.replace stacks tid rest;
          emit (event ~name ~ph ~ts ~tid [])
        | _ -> ())
      | Instant -> emit (event ~name ~ph ~ts ~tid [ ("s", J.String "t") ])
      | Counter ->
        emit (event ~name ~ph ~ts ~tid [ ("args", J.Obj [ (name, J.Float t.values.(i)) ]) ])
      | Complete -> emit (event ~name ~ph ~ts ~tid [ ("dur", J.Float t.values.(i)) ]))
    (slots t);
  Hashtbl.iter
    (fun tid stack ->
      List.iter (fun name -> emit (event ~name ~ph:"E" ~ts:!last_ts ~tid [])) stack)
    stacks;
  J.Obj
    [
      ("traceEvents", J.List (List.rev !events));
      ("displayTimeUnit", J.String "ms");
      ("otherData", J.Obj [ ("dropped_events", J.Int t.dropped) ]);
    ]

let write_doc ~path doc =
  let oc = open_out path in
  output_string oc (J.to_string doc);
  output_char oc '\n';
  close_out oc

let write ~path t = write_doc ~path (to_json t)

(* Post-mortem events carry their detail and any non-zero value as
   args. *)
let post_mortem_event t i =
  let args =
    (if t.details.(i) = "" then [] else [ ("detail", J.String t.details.(i)) ])
    @ if t.values.(i) = 0.0 then [] else [ ("value", J.Float t.values.(i)) ]
  in
  event ~name:t.names.(i) ~ph:(phase t.kinds.(i)) ~ts:t.ts.(i) ~tid:t.tid.(i)
    (if args = [] then [] else [ ("args", J.Obj args) ])

let dump ?metrics ~reason ~path t =
  write_doc ~path
    (J.Obj
       ([
          ("document", J.String "post-mortem");
          ("reason", J.String reason);
          ("recorded", J.Int (total t));
          ("capacity", J.Int t.capacity);
          ("events", J.List (List.map (post_mortem_event t) (slots t)));
        ]
       @ match metrics with None -> [] | Some m -> [ ("metrics", m) ]))

(* --- validation ----------------------------------------------------- *)

let ( let* ) = Result.bind

let validate_event i ev =
  let fail fmt = Printf.ksprintf (fun m -> Error (Printf.sprintf "event %d: %s" i m)) fmt in
  match ev with
  | J.Obj _ ->
    let* name =
      Result.map_error (fun e -> Printf.sprintf "event %d: %s" i e) (J.string_member "name" ev)
    in
    let* ph =
      Result.map_error (fun e -> Printf.sprintf "event %d: %s" i e) (J.string_member "ph" ev)
    in
    let* ts =
      Result.map_error (fun e -> Printf.sprintf "event %d: %s" i e) (J.float_member "ts" ev)
    in
    let* tid =
      Result.map_error (fun e -> Printf.sprintf "event %d: %s" i e) (J.int_member "tid" ev)
    in
    let* () =
      match J.int_member "pid" ev with
      | Ok _ -> Ok ()
      | Error e -> fail "%s" e
    in
    let* () =
      match ph with
      | "B" | "E" | "i" | "C" | "X" -> Ok ()
      | other -> fail "unknown phase %S" other
    in
    let* () =
      match ph with
      | "X" -> (
        match J.float_member "dur" ev with
        | Ok d when d >= 0.0 -> Ok ()
        | Ok d -> fail "negative dur %g" d
        | Error e -> fail "%s" e)
      | "C" -> (
        match J.member "args" ev with
        | Some (J.Obj _) -> Ok ()
        | _ -> fail "counter without args object")
      | _ -> Ok ()
    in
    Ok (name, ph, ts, tid)
  | other -> fail "not an object (%s)" (J.to_string other)

(* Checks the properties the runtest checker enforces: a traceEvents
   list whose events are well-formed, timestamps non-decreasing in
   document order, and span Begin/End balanced per tid with stack
   (LIFO) discipline. *)
let validate_json doc =
  let* events =
    match J.member "traceEvents" doc with
    | Some (J.List evs) -> Ok evs
    | Some other -> Error ("traceEvents is not a list: " ^ J.to_string other)
    | None -> Error "missing traceEvents"
  in
  let stacks : (int, string list) Hashtbl.t = Hashtbl.create 8 in
  let* _count =
    List.fold_left
      (fun acc ev ->
        let* (i, prev_ts) = acc in
        let* (name, ph, ts, tid) = validate_event i ev in
        let* () =
          if ts < prev_ts then
            Error
              (Printf.sprintf "event %d: timestamp %g precedes %g (not monotonic)" i ts
                 prev_ts)
          else Ok ()
        in
        let* () =
          match ph with
          | "B" ->
            Hashtbl.replace stacks tid
              (name :: Option.value (Hashtbl.find_opt stacks tid) ~default:[]);
            Ok ()
          | "E" -> (
            match Hashtbl.find_opt stacks tid with
            | Some (top :: rest) when top = name ->
              Hashtbl.replace stacks tid rest;
              Ok ()
            | Some (top :: _) ->
              Error
                (Printf.sprintf "event %d: span end %S does not match open span %S (tid %d)"
                   i name top tid)
            | _ ->
              Error (Printf.sprintf "event %d: span end %S with no open span (tid %d)" i name tid))
          | _ -> Ok ()
        in
        Ok (i + 1, ts))
      (Ok (0, neg_infinity)) events
  in
  Hashtbl.fold
    (fun tid stack acc ->
      let* () = acc in
      match stack with
      | [] -> Ok ()
      | name :: _ -> Error (Printf.sprintf "unclosed span %S on tid %d" name tid))
    stacks (Ok ())
