(** Structured event recorder: one struct-of-arrays buffer with two
    retentions, Chrome trace-event export and post-mortem dumps.

    Every record call behind a disabled recorder is a single branch on
    one bool, so instrumented hot paths stay allocation-free. What
    happens when the buffer fills is fixed when it is built:

    - {!create} builds an export buffer, sized for a whole run, that
      counts new events as dropped once full — recorded spans
      therefore never lose their [span_begin] to overwrite;
    - {!ring} builds a small recorder that overwrites its oldest
      event, so it always holds the moments leading up to a failure.

    {!flight} is the process-global always-on ring. Chaos invariant
    violations, nemesis faults, link and node state changes, guard
    verdicts, serve self-check failures and engine budget exhaustion
    all {!note} into it, and {!dump} writes it out as a post-mortem. *)

type t

val create : ?capacity:int -> unit -> t
(** Fresh enabled export buffer that drops the newest events when
    full. [capacity] defaults to [1 lsl 18] events. *)

val ring : capacity:int -> t
(** Fresh enabled ring that overwrites the oldest event when full. *)

val flight : t
(** The process-global flight recorder: a 1024-event {!ring}. *)

val disabled : t
(** The shared permanently-disabled recorder: every record call on it
    is a no-op. This is the default everywhere instrumentation hooks
    accept a [?trace] argument. *)

val enabled : t -> bool

val set_enabled : t -> bool -> unit
(** No effect on [disabled]. *)

val length : t -> int
(** Events currently stored (at most the capacity). *)

val dropped : t -> int
(** Events an export buffer discarded because it was full; always 0
    for a ring. *)

val total : t -> int
(** Events ever recorded, including dropped and overwritten ones. *)

val clear : t -> unit

(** All record functions take [~ts] in the caller's timebase —
    simulated time for in-run traces, wall-clock microseconds for the
    pool trace — and [~tid], rendered as the Perfetto track (the AD id
    for protocol work, worker pid for pool spans). *)

val span_begin : t -> ts:float -> tid:int -> string -> unit
val span_end : t -> ts:float -> tid:int -> string -> unit
val instant : t -> ts:float -> tid:int -> string -> unit
val counter : t -> ts:float -> tid:int -> value:float -> string -> unit

val complete : t -> ts:float -> dur:float -> tid:int -> string -> unit
(** A self-contained span ([ph:"X"]): one event carrying its own
    duration. Used for route computations, where [dur] is the work
    charge rather than elapsed time. *)

val note : ?tid:int -> ?value:float -> ?detail:string -> t -> ts:float -> string -> unit
(** Record one instant with a free-form [detail] and an optional
    [value] (both shown as args in the post-mortem). Notes are
    serialised by a process-wide lock, so several domains may note
    into {!flight} at once. [tid] defaults to 0. *)

val to_json : t -> Pr_util.Json.t
(** Chrome trace-event document ([{"traceEvents": [...]}]) loadable in
    Perfetto / chrome://tracing. Events appear in record order, so
    timestamps are monotone; spans still open at export are closed at
    the last recorded timestamp so begin/end pairs always balance (an
    end whose begin a ring overwrote is skipped). *)

val write : path:string -> t -> unit
(** [to_json] serialised to [path], newline-terminated. *)

val dump : ?metrics:Pr_util.Json.t -> reason:string -> path:string -> t -> unit
(** Write the post-mortem document to [path], newline-terminated:
    [{"document": "post-mortem", "reason", "recorded" (= {!total}),
    "capacity", "events"}], the stored events oldest first, plus
    [metrics] (an already-encoded registry snapshot) when given. *)

val validate_json : Pr_util.Json.t -> (unit, string) result
(** Check a parsed trace document for the invariants [to_json]
    guarantees: a [traceEvents] list of well-formed events (known
    phase, name/ph/ts/pid/tid present, [dur >= 0] on completes, args
    on counters), non-decreasing timestamps, and per-track LIFO
    balanced span pairs. Shared by bin/trace_check and the tests. *)
