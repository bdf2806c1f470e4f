type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* The runtime primitive behind [Printf.sprintf "%.17g"]: for a finite
   float Printf formats through exactly this call, so the output is
   byte-identical without Printf's format interpretation. *)
external format_float : string -> float -> string = "caml_format_float"

let needs_escape = function '"' | '\\' | '\000' .. '\031' -> true | _ -> false

let add_escaped buf s =
  if not (String.exists needs_escape s) then Buffer.add_string buf s
  else
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when Char.code c < 0x20 ->
            Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s

(* Decimal digits of [n <= 0], most significant first.  Working on the
   non-positive side covers [min_int], whose negation overflows. *)
let rec add_neg_digits buf n =
  if n <= -10 then add_neg_digits buf (n / 10);
  Buffer.add_char buf (Char.chr (48 - (n mod 10)))

let add_int buf i =
  if i < 0 then begin
    Buffer.add_char buf '-';
    add_neg_digits buf i
  end
  else add_neg_digits buf (-i)

(* %.17g round-trips every float; JSON has no nan/inf literals. *)
let add_float buf f =
  if Float.is_finite f then Buffer.add_string buf (format_float "%.17g" f)
  else Buffer.add_string buf "null"

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> add_int buf i
  | Float f -> add_float buf f
  | String s ->
      Buffer.add_char buf '"';
      add_escaped buf s;
      Buffer.add_char buf '"'
  | List xs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char buf ',';
          write buf x)
        xs;
      Buffer.add_char buf ']'
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_char buf '"';
          add_escaped buf k;
          Buffer.add_string buf "\":";
          write buf v)
        fields;
      Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 128 in
  write buf v;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* The pull reader                                                    *)
(* ------------------------------------------------------------------ *)

(* One cursor over a byte window, read in place.  It is the only JSON
   tokenizer here: [of_string] builds trees on it, and the daemon's
   frame codec decodes requests from its socket buffer with it.  Syntax
   errors raise [Syntax_error] with the offset of the failing byte
   relative to the window start. *)

exception Syntax_error of int * string

type kind = K_object | K_array | K_string | K_number | K_true | K_false | K_null
type number = N_int | N_float

type reader = {
  mutable src : Bytes.t;
  mutable base : int;  (* window start: error offsets are relative to it *)
  mutable pos : int;
  mutable stop : int;  (* one past the window's last byte *)
  (* the last string read: in place in [src] when it has no escapes,
     else decoded into [scratch] *)
  mutable s_src : Bytes.t;
  mutable s_off : int;
  mutable s_len : int;
  mutable scratch : Bytes.t;
  (* the last number read *)
  mutable last_int : bool;
  mutable int_value : int;
  float_value : float array;  (* one cell: an unboxed home for the float *)
}

let reader () =
  {
    src = Bytes.empty;
    base = 0;
    pos = 0;
    stop = 0;
    s_src = Bytes.empty;
    s_off = 0;
    s_len = 0;
    scratch = Bytes.empty;
    last_int = false;
    int_value = 0;
    float_value = [| 0. |];
  }

let reset r src off len =
  if off < 0 || len < 0 || off + len > Bytes.length src then
    invalid_arg "Json.reset: window outside the buffer";
  r.src <- src;
  r.base <- off;
  r.pos <- off;
  r.stop <- off + len

(* a decode scratch above this is dropped by [release] *)
let scratch_keep = 4096

let release r =
  r.src <- Bytes.empty;
  r.base <- 0;
  r.pos <- 0;
  r.stop <- 0;
  r.s_src <- Bytes.empty;
  r.s_off <- 0;
  r.s_len <- 0;
  if Bytes.length r.scratch > scratch_keep then r.scratch <- Bytes.empty

let fail r msg = raise (Syntax_error (r.pos - r.base, msg))

let rec skip_ws r =
  if r.pos < r.stop then
    match Bytes.get r.src r.pos with
    | ' ' | '\t' | '\n' | '\r' ->
        r.pos <- r.pos + 1;
        skip_ws r
    | _ -> ()

let peek r =
  skip_ws r;
  if r.pos >= r.stop then fail r "unexpected end of input";
  match Bytes.get r.src r.pos with
  | '"' -> K_string
  | 't' -> K_true
  | 'f' -> K_false
  | 'n' -> K_null
  | '{' -> K_object
  | '[' -> K_array
  | _ -> K_number

let expect r c msg =
  if r.pos < r.stop && Bytes.get r.src r.pos = c then r.pos <- r.pos + 1
  else fail r msg

let rec bytes_match src pos word i n =
  i >= n
  || Char.equal (Bytes.get src (pos + i)) (String.get word i)
     && bytes_match src pos word (i + 1) n

let literal r word =
  let n = String.length word in
  if r.pos + n <= r.stop && bytes_match r.src r.pos word 0 n then
    r.pos <- r.pos + n
  else fail r ("expected " ^ word)

let bool r =
  if r.pos < r.stop && Bytes.get r.src r.pos = 't' then begin
    literal r "true";
    true
  end
  else begin
    literal r "false";
    false
  end

(* -- strings -- *)

let reserve r extra =
  let need = r.s_len + extra in
  if need > Bytes.length r.scratch then begin
    let cap = Int.max need (Int.max 64 (2 * Bytes.length r.scratch)) in
    let bigger = Bytes.create cap in
    Bytes.blit r.scratch 0 bigger 0 r.s_len;
    r.scratch <- bigger
  end

let add_byte r code =
  reserve r 1;
  Bytes.set r.scratch r.s_len (Char.chr code);
  r.s_len <- r.s_len + 1

let add_utf8 r cp =
  if cp < 0x80 then add_byte r cp
  else if cp < 0x800 then begin
    add_byte r (0xC0 lor (cp lsr 6));
    add_byte r (0x80 lor (cp land 0x3F))
  end
  else if cp < 0x10000 then begin
    add_byte r (0xE0 lor (cp lsr 12));
    add_byte r (0x80 lor ((cp lsr 6) land 0x3F));
    add_byte r (0x80 lor (cp land 0x3F))
  end
  else begin
    add_byte r (0xF0 lor (cp lsr 18));
    add_byte r (0x80 lor ((cp lsr 12) land 0x3F));
    add_byte r (0x80 lor ((cp lsr 6) land 0x3F));
    add_byte r (0x80 lor (cp land 0x3F))
  end

let hex_digit = function
  | '0' .. '9' as c -> Char.code c - 48
  | 'a' .. 'f' as c -> Char.code c - 87
  | 'A' .. 'F' as c -> Char.code c - 55
  | _ -> -1

(* Exactly four hex digits after a \u escape. *)
let hex4 r =
  if r.pos + 4 > r.stop then fail r "bad \\u escape";
  let v = ref 0 in
  for k = 0 to 3 do
    let d = hex_digit (Bytes.get r.src (r.pos + k)) in
    if d < 0 then begin
      r.pos <- r.pos + 4;
      fail r "bad \\u escape"
    end;
    v := (!v * 16) + d
  done;
  r.pos <- r.pos + 4;
  !v

(* \u code units to UTF-8: a high surrogate must be followed by an
   escaped low one, and the pair encodes one supplementary code point. *)
let unicode_escape r =
  let cp = hex4 r in
  if cp >= 0xD800 && cp <= 0xDBFF then begin
    if
      r.pos + 2 <= r.stop
      && Bytes.get r.src r.pos = '\\'
      && Bytes.get r.src (r.pos + 1) = 'u'
    then begin
      r.pos <- r.pos + 2;
      let lo = hex4 r in
      if lo >= 0xDC00 && lo <= 0xDFFF then
        add_utf8 r (0x10000 + ((cp - 0xD800) lsl 10) + (lo - 0xDC00))
      else fail r "unpaired surrogate in \\u escape"
    end
    else fail r "unpaired surrogate in \\u escape"
  end
  else if cp >= 0xDC00 && cp <= 0xDFFF then
    fail r "unpaired surrogate in \\u escape"
  else add_utf8 r cp

let escape r =
  if r.pos >= r.stop then fail r "unterminated escape";
  let e = Bytes.get r.src r.pos in
  r.pos <- r.pos + 1;
  match e with
  | '"' | '\\' | '/' -> add_byte r (Char.code e)
  | 'n' -> add_byte r 0x0A
  | 't' -> add_byte r 0x09
  | 'r' -> add_byte r 0x0D
  | 'b' -> add_byte r 0x08
  | 'f' -> add_byte r 0x0C
  | 'u' -> unicode_escape r
  | _ -> fail r "bad escape"

(* Slow path: the string has escapes.  Bytes [start, pos) are already
   known to be escape-free; decode the rest into [scratch]. *)
let read_escaped r start =
  r.s_len <- 0;
  reserve r (r.pos - start);
  Bytes.blit r.src start r.scratch 0 (r.pos - start);
  r.s_len <- r.pos - start;
  let closed = ref false in
  while not !closed do
    if r.pos >= r.stop then fail r "unterminated string";
    let c = Bytes.get r.src r.pos in
    r.pos <- r.pos + 1;
    match c with
    | '"' -> closed := true
    | '\\' -> escape r
    | c when Char.code c < 0x20 -> fail r "control character in string"
    | c -> add_byte r (Char.code c)
  done;
  r.s_src <- r.scratch;
  r.s_off <- 0

let rec scan_plain src i stop =
  if i < stop && not (needs_escape (Bytes.get src i)) then
    scan_plain src (i + 1) stop
  else i

(* Fast path: an escape-free string stays where it is. *)
let read_string r =
  expect r '"' "expected \"";
  let start = r.pos in
  let i = scan_plain r.src start r.stop in
  r.pos <- i;
  if i < r.stop && Bytes.get r.src i = '"' then begin
    r.pos <- i + 1;
    r.s_src <- r.src;
    r.s_off <- start;
    r.s_len <- i - start
  end
  else read_escaped r start

let string_equal r lit =
  let n = String.length lit in
  n = r.s_len && bytes_match r.s_src r.s_off lit 0 n

let string_contents r = Bytes.sub_string r.s_src r.s_off r.s_len

(* -- numbers -- *)

let pow10 =
  [|
    1e0; 1e1; 1e2; 1e3; 1e4; 1e5; 1e6; 1e7; 1e8; 1e9; 1e10; 1e11; 1e12;
    1e13; 1e14; 1e15; 1e16; 1e17; 1e18; 1e19; 1e20; 1e21; 1e22;
  |]

let is_digit c = c >= '0' && c <= '9'

let is_number_byte = function
  | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
  | _ -> false

(* [m * 10^e10] for [2^53 <= m < 10^18], [|e10| <= 22], correctly
   rounded, or 2 when that cannot be certified cheaply.  [m = mh + ml]
   exactly; one rounded operation on [mh] plus its fma-computed error
   (exact for a product, the exact remainder for a quotient) and the
   [ml] term give [hi + t] within 2^-43 of an ulp of the true value, so
   [x = hi + t] rounded is the correctly rounded result unless the true
   value may lie within that bound of a rounding midpoint: then the
   caller falls back to [float_of_string]. *)
let wide_decimal r m e10 neg =
  let mh = float_of_int m in
  let ml = float_of_int (m - int_of_float mh) in
  let p = pow10.(abs e10) in
  let hi = if e10 >= 0 then mh *. p else mh /. p in
  let t =
    if e10 >= 0 then Float.fma mh p (-.hi) +. (ml *. p)
    else (Float.fma (-.hi) p mh +. ml) /. p
  in
  let x = hi +. t in
  let d = hi -. x +. t in
  (* the narrower of the two gaps around x, so the test holds on
     either side *)
  let gap = x -. Float.next_after x Float.neg_infinity in
  if Float.abs d <= gap *. (0.5 -. 0x1p-30) then begin
    r.float_value.(0) <- (if neg then -.x else x);
    1
  end
  else 2

(* Scan one number token and convert it: 0 = an int (in [int_value]),
   1 = a float (in [float_value]), 2 = leave it to [number]'s slow path.
   The token runs over every byte in [0-9+-.eE], as it always has; the
   fast paths take only tokens of the strict shape
   [+-]? d* ('.' d* )? ([eE] [+-]? d+)?, with at least one mantissa
   digit, that [float_of_string] (and, without '.' or an exponent,
   [int_of_string]) accept whole.  An int token
   takes at most 18 significant digits (so it fits); a fractional one
   at most 18 significant digits and a decimal exponent within 22. *)
let scan_number r =
  let src = r.src and stop = r.stop in
  let i = ref r.pos in
  let neg = !i < stop && Bytes.get src !i = '-' in
  if !i < stop && (neg || Bytes.get src !i = '+') then incr i;
  let m = ref 0 and sig_digits = ref 0 and digits = ref 0 and frac = ref 0 in
  let fractional = ref false in
  (* the digits, with at most one '.' among them *)
  let in_digits = ref true in
  while !in_digits && !i < stop do
    let c = Bytes.get src !i in
    if is_digit c then begin
      let dg = Char.code c - 48 in
      if !sig_digits > 0 || dg > 0 then begin
        incr sig_digits;
        if !sig_digits <= 18 then m := (!m * 10) + dg
      end;
      incr digits;
      if !fractional then incr frac;
      incr i
    end
    else if c = '.' && not !fractional then begin
      fractional := true;
      incr i
    end
    else in_digits := false
  done;
  let strict = ref (!digits > 0) in
  let e = ref 0 in
  if !strict && !i < stop && (Bytes.get src !i = 'e' || Bytes.get src !i = 'E')
  then begin
    fractional := true;
    incr i;
    let eneg = !i < stop && Bytes.get src !i = '-' in
    if !i < stop && (eneg || Bytes.get src !i = '+') then incr i;
    let exp_digits = ref 0 in
    while !i < stop && is_digit (Bytes.get src !i) do
      (* past the cap the exponent is no longer exact: leave the token
         to the slow path *)
      if !e < 100_000 then e := (!e * 10) + (Char.code (Bytes.get src !i) - 48)
      else strict := false;
      incr exp_digits;
      incr i
    done;
    if !exp_digits = 0 then strict := false;
    if eneg then e := - !e
  end;
  let j = ref !i in
  while !j < stop && is_number_byte (Bytes.get src !j) do
    incr j
  done;
  r.pos <- !j;
  if (not !strict) || !j <> !i || !sig_digits > 18 then 2
  else if not !fractional then begin
    r.int_value <- (if neg then - !m else !m);
    0
  end
  else if !m = 0 then begin
    r.float_value.(0) <- (if neg then -0. else 0.);
    1
  end
  else
    let e10 = !e - !frac in
    if e10 < -22 || e10 > 22 then 2
    else if !m < 1 lsl 53 then begin
      (* Clinger: m and 10^|e10| are exact doubles, so one correctly
         rounded operation is the correctly rounded result *)
      let f = float_of_int !m in
      let f = if e10 >= 0 then f *. pow10.(e10) else f /. pow10.(-e10) in
      r.float_value.(0) <- (if neg then -.f else f);
      1
    end
    else wide_decimal r !m e10 neg

(* The number rule: a token without '.', 'e' or 'E' is an int when
   [int_of_string] takes it, and every other accepted token is
   [float_of_string]'s float.  The scan's fast paths give the same
   answers; everything else gets those two functions themselves. *)
let number r =
  let start = r.pos in
  match scan_number r with
  | 0 ->
      r.last_int <- true;
      N_int
  | 1 ->
      r.last_int <- false;
      N_float
  | _ -> (
      let s = Bytes.sub_string r.src start (r.pos - start) in
      let fractional = String.exists (fun c -> c = '.' || c = 'e' || c = 'E') s in
      match if fractional then None else int_of_string_opt s with
      | Some i ->
          r.int_value <- i;
          r.last_int <- true;
          N_int
      | None -> (
          match float_of_string_opt s with
          | Some f ->
              r.float_value.(0) <- f;
              r.last_int <- false;
              N_float
          | None -> fail r ("bad number " ^ s)))

let int_value r = r.int_value

let store_number r dst i =
  dst.(i) <- (if r.last_int then float_of_int r.int_value else r.float_value.(0))

(* -- containers -- *)

(* After '{' or '[': [false] when the container is empty. *)
let enter r opening closing msg =
  expect r opening msg;
  skip_ws r;
  if r.pos < r.stop && Bytes.get r.src r.pos = closing then begin
    r.pos <- r.pos + 1;
    false
  end
  else true

(* After a member or element: [true] past ',', [false] past the close. *)
let next r closing msg =
  skip_ws r;
  if r.pos < r.stop && Bytes.get r.src r.pos = ',' then begin
    r.pos <- r.pos + 1;
    true
  end
  else if r.pos < r.stop && Bytes.get r.src r.pos = closing then begin
    r.pos <- r.pos + 1;
    false
  end
  else fail r msg

let enter_object r = enter r '{' '}' "expected {"
let next_field r = next r '}' "expected , or }"
let enter_array r = enter r '[' ']' "expected ["
let next_item r = next r ']' "expected , or ]"

let field r =
  skip_ws r;
  read_string r;
  skip_ws r;
  expect r ':' "expected :"

let expect_end r =
  skip_ws r;
  if r.pos <> r.stop then fail r "trailing input"

let rec skip_value r =
  match peek r with
  | K_string -> read_string r
  | K_number -> ignore (number r)
  | K_true -> literal r "true"
  | K_false -> literal r "false"
  | K_null -> literal r "null"
  | K_object -> if enter_object r then skip_fields r
  | K_array -> if enter_array r then skip_items r

and skip_fields r =
  field r;
  skip_value r;
  if next_field r then skip_fields r

and skip_items r =
  skip_value r;
  if next_item r then skip_items r

(* ------------------------------------------------------------------ *)
(* Trees                                                              *)
(* ------------------------------------------------------------------ *)

let rec tree r =
  match peek r with
  | K_string ->
      read_string r;
      String (string_contents r)
  | K_number -> (
      match number r with
      | N_int -> Int r.int_value
      | N_float -> Float r.float_value.(0))
  | K_true ->
      literal r "true";
      Bool true
  | K_false ->
      literal r "false";
      Bool false
  | K_null ->
      literal r "null";
      Null
  | K_object -> if enter_object r then tree_fields r [] else Obj []
  | K_array -> if enter_array r then tree_items r [] else List []

and tree_fields r acc =
  field r;
  let k = string_contents r in
  let v = tree r in
  let acc = (k, v) :: acc in
  if next_field r then tree_fields r acc else Obj (List.rev acc)

and tree_items r acc =
  let v = tree r in
  let acc = v :: acc in
  if next_item r then tree_items r acc else List (List.rev acc)

let of_string text =
  let r = reader () in
  (* archpred-lint: allow unsafe-index -- the reader never writes to its source window *)
  reset r (Bytes.unsafe_of_string text) 0 (String.length text);
  match
    let v = tree r in
    expect_end r;
    v
  with
  | v -> Ok v
  | exception Syntax_error (at, msg) ->
      Result.Error (Printf.sprintf "character %d: %s" at msg)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None
