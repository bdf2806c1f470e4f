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

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f ->
      (* %.17g round-trips every float; JSON has no nan/inf literals. *)
      if Float.is_finite f then Buffer.add_string buf (format_float "%.17g" f)
      else Buffer.add_string buf "null"
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

(* Recursive-descent parser over the input string.  Covers the JSON this
   library emits (and standard JSON generally) without external deps. *)
exception Bad of int * string

let of_string text =
  let n = String.length text in
  let pos = ref 0 in
  let fail msg = raise (Bad (!pos, msg)) in
  (* '\000' past the end: every caller that must tell end of input from a
     stray NUL checks [!pos < n] itself *)
  let peek () = if !pos < n then text.[!pos] else '\000' in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n
      && match text.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
    do
      advance ()
    done
  in
  let expect c =
    if !pos < n && text.[!pos] = c then advance ()
    else fail (Printf.sprintf "expected %c" c)
  in
  let literal word value =
    let l = String.length word in
    if !pos + l <= n && String.sub text !pos l = word then begin
      pos := !pos + l;
      value
    end
    else fail ("expected " ^ word)
  in
  (* Slow path: the string has escapes.  [start] is its first byte;
     bytes [start, !pos) are already known to be escape-free. *)
  let parse_escaped start =
    let buf = Buffer.create 16 in
    Buffer.add_substring buf text start (!pos - start);
    let rec go () =
      if !pos >= n then fail "unterminated string"
      else
        let c = text.[!pos] in
        advance ();
        match c with
        | '"' -> Buffer.contents buf
        | '\\' -> (
            if !pos >= n then fail "unterminated escape"
            else
              let e = text.[!pos] in
              advance ();
              match e with
              | '"' | '\\' | '/' ->
                  Buffer.add_char buf e;
                  go ()
              | 'n' ->
                  Buffer.add_char buf '\n';
                  go ()
              | 't' ->
                  Buffer.add_char buf '\t';
                  go ()
              | 'r' ->
                  Buffer.add_char buf '\r';
                  go ()
              | 'b' ->
                  Buffer.add_char buf '\b';
                  go ()
              | 'f' ->
                  Buffer.add_char buf '\012';
                  go ()
              | 'u' ->
                  if !pos + 4 > n then fail "bad \\u escape";
                  let hex = String.sub text !pos 4 in
                  pos := !pos + 4;
                  (match int_of_string_opt ("0x" ^ hex) with
                  | None -> fail "bad \\u escape"
                  | Some code ->
                      (* Enough for the control characters we emit. *)
                      if code < 0x80 then Buffer.add_char buf (Char.chr code)
                      else Buffer.add_string buf (Printf.sprintf "\\u%s" hex));
                  go ()
              | _ -> fail "bad escape")
        | c when Char.code c < 0x20 -> fail "control character in string"
        | c ->
            Buffer.add_char buf c;
            go ()
    in
    go ()
  in
  (* Fast path: an escape-free string is one slice of [text]. *)
  let parse_string () =
    expect '"';
    let start = !pos in
    while !pos < n && not (needs_escape text.[!pos]) do
      advance ()
    done;
    if !pos < n && text.[!pos] = '"' then begin
      advance ();
      String.sub text start (!pos - start - 1)
    end
    else parse_escaped start
  in
  let parse_number () =
    let start = !pos in
    (* a token with '.', 'e' or 'E' can only be a Float: skip the
       int_of_string_opt that would fail on it *)
    let fractional = ref false in
    let continue = ref true in
    while !continue && !pos < n do
      match text.[!pos] with
      | '0' .. '9' | '-' | '+' -> advance ()
      | '.' | 'e' | 'E' ->
          fractional := true;
          advance ()
      | _ -> continue := false
    done;
    let s = String.sub text start (!pos - start) in
    match if !fractional then None else int_of_string_opt s with
    | Some i -> Int i
    | None -> (
        match float_of_string_opt s with
        | Some f -> Float f
        | None -> fail ("bad number " ^ s))
  in
  let rec parse_value () =
    skip_ws ();
    if !pos >= n then fail "unexpected end of input"
    else
      match text.[!pos] with
      | '"' -> String (parse_string ())
      | 't' -> literal "true" (Bool true)
      | 'f' -> literal "false" (Bool false)
      | 'n' -> literal "null" Null
      | '{' ->
          advance ();
          skip_ws ();
          if peek () = '}' then begin
            advance ();
            Obj []
          end
          else
            let rec fields acc =
              skip_ws ();
              let k = parse_string () in
              skip_ws ();
              expect ':';
              let v = parse_value () in
              skip_ws ();
              match peek () with
              | ',' ->
                  advance ();
                  fields ((k, v) :: acc)
              | '}' ->
                  advance ();
                  Obj (List.rev ((k, v) :: acc))
              | _ -> fail "expected , or }"
            in
            fields []
      | '[' ->
          advance ();
          skip_ws ();
          if peek () = ']' then begin
            advance ();
            List []
          end
          else
            let rec items acc =
              let v = parse_value () in
              skip_ws ();
              match peek () with
              | ',' ->
                  advance ();
                  items (v :: acc)
              | ']' ->
                  advance ();
                  List (List.rev (v :: acc))
              | _ -> fail "expected , or ]"
            in
            items []
      | _ -> parse_number ()
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing input";
    v
  with
  | v -> Ok v
  | exception Bad (at, msg) ->
      Result.Error (Printf.sprintf "character %d: %s" at msg)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None
