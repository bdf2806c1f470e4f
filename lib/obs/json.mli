(** Minimal JSON values: enough to emit and re-parse the JSON-lines
    metrics stream without external dependencies.

    {!Sink.jsonl} serialises events with {!to_string}; tests and the
    smoke-check executable round-trip them with {!of_string}. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact (single-line) serialisation with full string escaping.
    Finite floats render as [%.17g] (which round-trips every float);
    non-finite floats render as [null] (JSON has no literals for them). *)

val write : Buffer.t -> t -> unit
(** [write buf v] appends [to_string v] to [buf] without building the
    intermediate string. *)

val of_string : string -> (t, string) result
(** Parse one complete JSON value; [Error] carries a position-annotated
    message.  Numbers without [.], [e] or [E] parse as {!Int} when they
    fit in an [int]; every other number parses as {!Float}. *)

val member : string -> t -> t option
(** [member k (Obj fields)] looks up key [k]; [None] on other values. *)
