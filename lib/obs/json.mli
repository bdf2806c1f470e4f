(** Minimal JSON without external dependencies: a value type with a
    writer, and one pull reader that reads in place over a byte window.

    The reader is the only tokenizer.  {!of_string} builds {!t} trees
    on it (the JSON-lines metrics stream, checkpoint journals,
    [spec.json]); the daemon's frame codec decodes requests straight
    from its socket buffer with it, comparing keys in place and writing
    coordinates into its point array, with no intermediate string or
    tree.  The number rule is the same everywhere: a token without
    ['.'], ['e'] or ['E'] is an {!Int} when [int_of_string] takes it,
    every other accepted token is [float_of_string]'s float, and the
    reader's fast conversion is bit-identical to both (see DESIGN.md
    §5h).  String escapes follow RFC 8259: [\u] takes exactly four hex
    digits, and code points are stored as UTF-8 with surrogate pairs
    combined; a lone surrogate is an error. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(** {1 Writing} *)

val to_string : t -> string
(** Compact (single-line) serialisation with full string escaping.
    Finite floats render as [%.17g] (which round-trips every float);
    non-finite floats render as [null] (JSON has no literals for them). *)

val write : Buffer.t -> t -> unit
(** [write buf v] appends [to_string v] to [buf] without building the
    intermediate string. *)

val add_int : Buffer.t -> int -> unit
(** Append an int as {!write} renders [Int i], digit by digit. *)

val add_float : Buffer.t -> float -> unit
(** Append a float as {!write} renders [Float f]. *)

(** {1 Parsing} *)

val of_string : string -> (t, string) result
(** Parse one complete JSON value; [Error] carries a position-annotated
    message.  Numbers without [.], [e] or [E] parse as {!Int} when they
    fit in an [int]; every other number parses as {!Float}. *)

val member : string -> t -> t option
(** [member k (Obj fields)] looks up key [k] (the first occurrence);
    [None] on other values. *)

(** {1 The pull reader}

    A cursor over [src.[off .. off+len)].  A value is read by asking
    {!peek} what comes next and calling the matching reader; every
    syntax error raises {!Syntax_error} with the offset of the failing
    byte within the window.  The reader holds no copy of its window:
    the window must not change while it is read. *)

exception Syntax_error of int * string

type reader

type kind = K_object | K_array | K_string | K_number | K_true | K_false | K_null

type number = N_int | N_float

val reader : unit -> reader

val reset : reader -> Bytes.t -> int -> int -> unit
(** [reset r src off len] points [r] at a new window.  Raises
    [Invalid_argument] when the window lies outside [src]. *)

val release : reader -> unit
(** Point [r] at an empty window and drop a string scratch above 4 KiB,
    so a long-lived reader keeps neither its last window nor the
    longest escaped string it ever decoded alive. *)

val peek : reader -> kind
(** Skip whitespace and classify the next value from its first byte,
    without consuming it; a byte no other kind starts with is
    {!K_number}.  Raises at end of input. *)

val enter_object : reader -> bool
(** Consume ['{']; [false] when the object is empty (its ['}'] consumed
    too). *)

val field : reader -> unit
(** Read the next key and its [':']; the key is then the current string
    ({!string_equal}, {!string_contents}). *)

val next_field : reader -> bool
(** After a member's value: [true] past a [','], [false] past the
    closing ['}']. *)

val enter_array : reader -> bool
(** Consume the opening bracket; [false] when the array is empty. *)

val next_item : reader -> bool
(** After an element: [true] past a [','], [false] past the closing
    bracket. *)

val read_string : reader -> unit
(** Read a string value; it becomes the current string.  An escape-free
    string is left in place; one with escapes is decoded into the
    reader's scratch, which the next string read reuses. *)

val string_equal : reader -> string -> bool
(** Compare the current string with a literal, in place. *)

val string_contents : reader -> string
(** The current string, copied out. *)

val number : reader -> number
(** Read a number token under the number rule: its value is then
    {!int_value} or, through {!store_number}, the float. *)

val int_value : reader -> int
(** The last number read, when it was {!N_int}. *)

val store_number : reader -> float array -> int -> unit
(** [store_number r dst i] writes the last number read into [dst.(i)]
    as a float ([float_of_int] of an {!N_int}). *)

val bool : reader -> bool
(** Read [true] or [false] (after {!peek} gave {!K_true} or
    {!K_false}). *)

val skip_value : reader -> unit
(** Read and check one value of any kind, keeping nothing. *)

val expect_end : reader -> unit
(** Only whitespace may remain in the window. *)
