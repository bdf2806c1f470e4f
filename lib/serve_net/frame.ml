module Json = Archpred_obs.Json

(* Wire protocol of the prediction daemon.

   Two self-describing framings share one connection, detected per
   frame from its first byte:

   - JSON lines: a frame starting with '{' runs to the next '\n'.
     Requests: [{"id":N,"point":[...],"natural":BOOL}] (natural
     defaults to false) or the control line
     [{"cmd":"reload","path":PATH}] (path optional).  Responses:
     [{"id":N,"status":S,"value":V}] with S one of "ok", "overloaded",
     "timeout", "bad_request", "shutting_down"; reload outcomes are
     [{"reload":"ok"|"failed","detail":D}].

   - Binary: a frame starting with the magic byte 0xA7, then a 32-bit
     little-endian payload length, then the payload.  Request payload:
     id u32, kind u8 (0 = normalized point, 1 = natural values),
     dim u16, then dim little-endian f64 coordinates — so the length
     must equal 7 + 8*dim.  Response payload (always 13 bytes): id u32,
     status u8 (ordinal of [status]), value f64.

   The decoder is pure and incremental: bytes are [feed]ed in arbitrary
   chunks and [next_request]/[next_response] either produce a complete
   message, ask for more input, or report a protocol error.  Errors are
   sticky — a connection that has desynced cannot be re-trusted — and
   are values, never exceptions, so a malformed peer can only ever kill
   its own connection.  JSON lines are read in place with the
   Archpred_obs.Json pull reader, never copied out or built into a
   tree. *)

type request =
  | Predict of { id : int; point : float array; natural : bool }
  | Reload of string option

type status = Ok | Overloaded | Timeout | Bad_request | Shutting_down

type response =
  | Reply of { id : int; status : status; value : float }
  | Reload_reply of { ok : bool; detail : string }

type wire = Json_wire | Binary_wire

let magic = '\xa7'
let header_len = 5 (* magic + u32 payload length *)
let max_dim = 1024 (* no realistic design space is wider *)

let status_code = function
  | Ok -> 0
  | Overloaded -> 1
  | Timeout -> 2
  | Bad_request -> 3
  | Shutting_down -> 4

let status_of_code = function
  | 0 -> Some Ok
  | 1 -> Some Overloaded
  | 2 -> Some Timeout
  | 3 -> Some Bad_request
  | 4 -> Some Shutting_down
  | _ -> None

let status_name = function
  | Ok -> "ok"
  | Overloaded -> "overloaded"
  | Timeout -> "timeout"
  | Bad_request -> "bad_request"
  | Shutting_down -> "shutting_down"

let status_of_name = function
  | "ok" -> Some Ok
  | "overloaded" -> Some Overloaded
  | "timeout" -> Some Timeout
  | "bad_request" -> Some Bad_request
  | "shutting_down" -> Some Shutting_down
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Encoding                                                           *)
(* ------------------------------------------------------------------ *)

let encode_request wire req =
  match (wire, req) with
  | Json_wire, Predict { id; point; natural } ->
      let fields =
        [
          ("id", Json.Int id);
          ("point", Json.List (Array.to_list (Array.map (fun v -> Json.Float v) point)));
        ]
        @ if natural then [ ("natural", Json.Bool true) ] else []
      in
      Json.to_string (Json.Obj fields) ^ "\n"
  | Json_wire, Reload path ->
      let fields =
        ("cmd", Json.String "reload")
        ::
        (match path with
        | Some p -> [ ("path", Json.String p) ]
        | None -> [])
      in
      Json.to_string (Json.Obj fields) ^ "\n"
  | Binary_wire, Predict { id; point; natural } ->
      let dim = Array.length point in
      let payload = 7 + (8 * dim) in
      let b = Bytes.create (header_len + payload) in
      Bytes.set b 0 magic;
      Bytes.set_int32_le b 1 (Int32.of_int payload);
      Bytes.set_int32_le b 5 (Int32.of_int id);
      Bytes.set_uint8 b 9 (if natural then 1 else 0);
      Bytes.set_uint16_le b 10 dim;
      Array.iteri
        (fun i v -> Bytes.set_int64_le b (12 + (8 * i)) (Int64.bits_of_float v))
        point;
      Bytes.to_string b
  | Binary_wire, Reload _ ->
      invalid_arg "Frame.encode_request: reload is a JSON-only control message"

(* The binary reply frame, appended field by field: the per-reply
   encoder of the binary wire (zero-alloc, enforced by
   tools/analyze/hotpaths.sexp). *)
let binary_reply_into buf id status value =
  Buffer.add_char buf magic;
  Buffer.add_int32_le buf 13l;
  Buffer.add_int32_le buf (Int32.of_int id);
  Buffer.add_uint8 buf (status_code status);
  Buffer.add_int64_le buf (Int64.bits_of_float value)

(* The JSON reply line, written field by field with the same text as
   the tree writer: [{"id":N,"status":"S"}] plus ["value":V] when ok.
   The per-reply encoder of the JSON wire (zero-alloc but for the
   [%.17g] text of V, enforced by tools/analyze/hotpaths.sexp). *)
let json_reply_into buf id status value =
  Buffer.add_string buf "{\"id\":";
  Json.add_int buf id;
  Buffer.add_string buf ",\"status\":\"";
  Buffer.add_string buf (status_name status);
  match status with
  | Ok ->
      Buffer.add_string buf "\",\"value\":";
      Json.add_float buf value;
      Buffer.add_string buf "}\n"
  | Overloaded | Timeout | Bad_request | Shutting_down ->
      Buffer.add_string buf "\"}\n"

let encode_response_into buf wire resp =
  match (wire, resp) with
  | Json_wire, Reply { id; status; value } -> json_reply_into buf id status value
  | Json_wire, Reload_reply { ok; detail } ->
      Json.write buf
        (Json.Obj
           [
             ("reload", Json.String (if ok then "ok" else "failed"));
             ("detail", Json.String detail);
           ]);
      Buffer.add_char buf '\n'
  | Binary_wire, Reply { id; status; value } ->
      binary_reply_into buf id status value
  | Binary_wire, Reload_reply _ ->
      invalid_arg "Frame.encode_response: reload replies are JSON-only"

let encode_response wire resp =
  let buf = Buffer.create 64 in
  encode_response_into buf wire resp;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Incremental decoding                                               *)
(* ------------------------------------------------------------------ *)

(* What a JSON frame said about one key: the first occurrence wins, as
   [List.assoc_opt] on the parsed object did; [Good] when its value has
   the expected shape. *)
type slot = Absent | Good | Bad

type decoder = {
  max_frame : int;
  mutable buf : Bytes.t;
  mutable start : int;  (* first unconsumed byte *)
  mutable len : int;  (* bytes buffered past [start] *)
  mutable scanned : int;  (* bytes past [start] known to hold no '\n' *)
  mutable failed : string option;  (* sticky protocol error *)
  json : Json.reader;
  (* JSON frame fields, reset per frame *)
  mutable coords : float array;  (* point scratch, grown up to max_dim *)
  mutable n_coords : int;
  mutable numeric : bool;  (* every element of "point" is a number *)
  mutable f_point : slot;
  mutable f_id : slot;
  mutable id : int;
  mutable f_natural : slot;
  mutable natural : bool;
  mutable f_cmd : slot;  (* Good: "reload" *)
  mutable f_text : slot;  (* "path" of a request, "detail" of a reply *)
  mutable text : string;
  mutable f_reload : slot;
  mutable reload_ok : bool;
  mutable f_status : slot;
  mutable status : status option;  (* None: an unknown name, in [status_text] *)
  mutable status_text : string;
  mutable f_value : slot;
  value : float array;  (* one cell *)
}

let default_max_frame = 1 lsl 20

let decoder ?(max_frame = default_max_frame) () =
  if max_frame < header_len + 13 then
    invalid_arg "Frame.decoder: max_frame too small for any frame";
  {
    max_frame;
    buf = Bytes.create 4096;
    start = 0;
    len = 0;
    scanned = 0;
    failed = None;
    json = Json.reader ();
    coords = Array.make 16 0.;
    n_coords = 0;
    numeric = true;
    f_point = Absent;
    f_id = Absent;
    id = 0;
    f_natural = Absent;
    natural = false;
    f_cmd = Absent;
    f_text = Absent;
    text = "";
    f_reload = Absent;
    reload_ok = false;
    f_status = Absent;
    status = None;
    status_text = "";
    f_value = Absent;
    value = [| Float.nan |];
  }

let feed d src pos n =
  if pos < 0 || n < 0 || pos + n > Bytes.length src then
    invalid_arg "Frame.feed: bad substring";
  if d.failed = None then begin
    let need = d.len + n in
    if d.start + need > Bytes.length d.buf then begin
      let cap = max need (2 * Bytes.length d.buf) in
      let nb = Bytes.create cap in
      Bytes.blit d.buf d.start nb 0 d.len;
      d.buf <- nb;
      d.start <- 0
    end;
    Bytes.blit src pos d.buf (d.start + d.len) n;
    d.len <- need
  end

let feed_string d s = feed d (Bytes.of_string s) 0 (String.length s)

let fail d msg =
  d.failed <- Some msg;
  d.len <- 0;
  `Error msg

let consume d n =
  d.start <- d.start + n;
  d.len <- d.len - n;
  d.scanned <- 0;
  if d.len = 0 then d.start <- 0

(* Find '\n' in the buffered window, resuming where the last call
   stopped, so a line fed in many chunks is scanned once; -1 while
   incomplete. *)
let find_newline d =
  let stop = d.start + d.len in
  let rec go i =
    if i >= stop then begin
      d.scanned <- d.len;
      -1
    end
    else if Bytes.get d.buf i = '\n' then i - d.start
    else go (i + 1)
  in
  go (d.start + d.scanned)

type kind = K_json of int | K_binary of string | K_need_more | K_error of string

(* Locate the next complete frame of either framing.  A binary frame is
   consumed here; a JSON line of [n] bytes stays in the window, at
   [start], for the in-place decode to consume. *)
let next_frame d =
  match d.failed with
  | Some msg -> K_error msg
  | None ->
      if d.len = 0 then K_need_more
      else
        let first = Bytes.get d.buf d.start in
        if first = magic then
          if d.len < header_len then K_need_more
          else
            let plen = Int32.to_int (Bytes.get_int32_le d.buf (d.start + 1)) in
            if plen < 0 || header_len + plen > d.max_frame then (
              ignore (fail d "binary frame length out of range");
              K_error "binary frame length out of range")
            else if d.len < header_len + plen then K_need_more
            else begin
              let payload =
                Bytes.sub_string d.buf (d.start + header_len) plen
              in
              consume d (header_len + plen);
              K_binary payload
            end
        else if first = '{' then
          match find_newline d with
          | -1 ->
              if d.len > d.max_frame then (
                ignore (fail d "JSON line exceeds max frame size");
                K_error "JSON line exceeds max frame size")
              else K_need_more
          | i -> K_json i
        else (
          ignore (fail d "unrecognised frame (expected '{' or 0xA7)");
          K_error "unrecognised frame (expected '{' or 0xA7)")

let reset_fields d =
  d.n_coords <- 0;
  d.numeric <- true;
  d.f_point <- Absent;
  d.f_id <- Absent;
  d.f_natural <- Absent;
  d.f_cmd <- Absent;
  d.f_text <- Absent;
  d.f_reload <- Absent;
  d.f_status <- Absent;
  d.f_value <- Absent

let absent = function Absent -> true | Good | Bad -> false

(* The first occurrence of [key] is the current key; later ones are
   read and dropped like unknown keys. *)
let first_key r slot key = absent slot && Json.string_equal r key

let grow_coords d =
  let bigger = Array.make (Int.min max_dim (2 * Array.length d.coords)) 0. in
  Array.blit d.coords 0 bigger 0 (Array.length d.coords);
  d.coords <- bigger

(* The elements of "point", straight into [coords]: numbers as the
   number rule reads them, anything else marks the point non-numeric.
   Elements past [max_dim] are only counted. *)
let read_coords d r =
  let more = ref (Json.enter_array r) in
  while !more do
    (match Json.peek r with
    | Json.K_number ->
        ignore (Json.number r);
        let i = d.n_coords in
        if i < max_dim then begin
          if i >= Array.length d.coords then grow_coords d;
          Json.store_number r d.coords i
        end
    | Json.K_object | Json.K_array | Json.K_string | Json.K_true
    | Json.K_false | Json.K_null ->
        Json.skip_value r;
        d.numeric <- false);
    d.n_coords <- d.n_coords + 1;
    more := Json.next_item r
  done

(* "id": an int token; a float token or any other value is [Bad]. *)
let read_id d r =
  match Json.peek r with
  | Json.K_number -> (
      match Json.number r with
      | Json.N_int ->
          d.f_id <- Good;
          d.id <- Json.int_value r
      | Json.N_float -> d.f_id <- Bad)
  | Json.K_object | Json.K_array | Json.K_string | Json.K_true | Json.K_false
  | Json.K_null ->
      Json.skip_value r;
      d.f_id <- Bad

(* A string-valued key: [Good] and the string current, or [Bad]. *)
let read_text r =
  match Json.peek r with
  | Json.K_string ->
      Json.read_string r;
      Good
  | Json.K_object | Json.K_array | Json.K_number | Json.K_true | Json.K_false
  | Json.K_null ->
      Json.skip_value r;
      Bad

let request_field d r =
  Json.field r;
  if first_key r d.f_point "point" then
    match Json.peek r with
    | Json.K_array ->
        d.f_point <- Good;
        read_coords d r
    | Json.K_object | Json.K_string | Json.K_number | Json.K_true
    | Json.K_false | Json.K_null ->
        d.f_point <- Bad;
        Json.skip_value r
  else if first_key r d.f_id "id" then read_id d r
  else if first_key r d.f_natural "natural" then
    match Json.peek r with
    | Json.K_true | Json.K_false ->
        d.f_natural <- Good;
        d.natural <- Json.bool r
    | Json.K_object | Json.K_array | Json.K_string | Json.K_number
    | Json.K_null ->
        d.f_natural <- Bad;
        Json.skip_value r
  else if first_key r d.f_cmd "cmd" then
    d.f_cmd <-
      (match read_text r with
      | Good when Json.string_equal r "reload" -> Good
      | Absent | Good | Bad -> Bad)
  else if first_key r d.f_text "path" then begin
    d.f_text <- read_text r;
    if d.f_text = Good then d.text <- Json.string_contents r
  end
  else Json.skip_value r

let request_of_fields d =
  match d.f_cmd with
  | Good -> `Msg (Reload (if d.f_text = Good then Some d.text else None), Json_wire)
  | Bad -> fail d "unknown cmd"
  | Absent -> (
      match (d.f_id, d.f_point) with
      | Good, Good ->
          if not d.numeric then fail d "non-numeric coordinate"
          else if d.n_coords > max_dim then fail d "point too wide"
          else
            let point = Array.sub d.coords 0 d.n_coords in
            let natural = d.f_natural = Good && d.natural in
            `Msg (Predict { id = d.id; point; natural }, Json_wire)
      | (Absent | Good | Bad), _ ->
          fail d "request needs \"id\" and \"point\"")

let response_field d r =
  Json.field r;
  if first_key r d.f_reload "reload" then begin
    d.f_reload <- read_text r;
    if d.f_reload = Good then d.reload_ok <- Json.string_equal r "ok"
  end
  else if first_key r d.f_text "detail" then begin
    d.f_text <- read_text r;
    if d.f_text = Good then d.text <- Json.string_contents r
  end
  else if first_key r d.f_id "id" then read_id d r
  else if first_key r d.f_status "status" then begin
    d.f_status <- read_text r;
    if d.f_status = Good then begin
      d.status <-
        (if Json.string_equal r "ok" then Some Ok
         else if Json.string_equal r "overloaded" then Some Overloaded
         else if Json.string_equal r "timeout" then Some Timeout
         else if Json.string_equal r "bad_request" then Some Bad_request
         else if Json.string_equal r "shutting_down" then Some Shutting_down
         else None);
      if d.status = None then d.status_text <- Json.string_contents r
    end
  end
  else if first_key r d.f_value "value" then
    match Json.peek r with
    | Json.K_number ->
        ignore (Json.number r);
        Json.store_number r d.value 0;
        d.f_value <- Good
    | Json.K_object | Json.K_array | Json.K_string | Json.K_true
    | Json.K_false | Json.K_null ->
        Json.skip_value r;
        d.f_value <- Bad
  else Json.skip_value r

let response_of_fields d =
  match d.f_reload with
  | Good ->
      let detail = if d.f_text = Good then d.text else "" in
      `Msg (Reload_reply { ok = d.reload_ok; detail }, Json_wire)
  | Bad -> fail d "bad reload reply"
  | Absent -> (
      match (d.f_id, d.f_status, d.status) with
      | Good, Good, None -> fail d ("unknown status " ^ d.status_text)
      | Good, Good, Some status ->
          let value = if d.f_value = Good then d.value.(0) else Float.nan in
          `Msg (Reply { id = d.id; status; value }, Json_wire)
      | (Absent | Good | Bad), _, _ ->
          fail d "response needs \"id\" and \"status\"")

(* Decode the [n]-byte JSON line at [start] in place: every key is read
   and checked as a JSON parse would, so a syntax error anywhere in the
   line wins over what the keys say, and the error text matches
   [Json.of_string]'s. *)
let decode_json_line d n ~what read_field of_fields =
  let r = d.json in
  Json.reset r d.buf d.start n;
  reset_fields d;
  match
    (* [next_frame] only hands over lines that start with '{' *)
    let more = ref (Json.enter_object r) in
    while !more do
      read_field d r;
      more := Json.next_field r
    done;
    Json.expect_end r
  with
  | () ->
      Json.release r;
      consume d (n + 1);
      of_fields d
  | exception Json.Syntax_error (at, msg) ->
      Json.release r;
      fail d (Printf.sprintf "bad JSON %s: character %d: %s" what at msg)

let parse_binary_request payload =
  let n = String.length payload in
  if n < 7 then Result.Error "binary request payload too short"
  else
    let id = Int32.to_int (String.get_int32_le payload 0) in
    match String.get_uint8 payload 4 with
    | k when k > 1 -> Result.Error (Printf.sprintf "unknown request kind %d" k)
    | k ->
        let natural = k = 1 in
        let dim = String.get_uint16_le payload 5 in
        if dim > max_dim then Result.Error "point too wide"
        else if n <> 7 + (8 * dim) then
          Result.Error "binary request length inconsistent with dim"
        else
          let point =
            Array.init dim (fun i ->
                Int64.float_of_bits (String.get_int64_le payload (7 + (8 * i))))
          in
          Result.Ok (Predict { id; point; natural })

let parse_binary_response payload =
  if String.length payload <> 13 then
    Result.Error "binary response payload must be 13 bytes"
  else
    let id = Int32.to_int (String.get_int32_le payload 0) in
    match status_of_code (String.get_uint8 payload 4) with
    | None -> Result.Error "unknown response status"
    | Some status ->
        let value = Int64.float_of_bits (String.get_int64_le payload 5) in
        Result.Ok (Reply { id; status; value })

let next_request d =
  match next_frame d with
  | K_need_more -> `Need_more
  | K_error msg -> `Error msg
  | K_json n -> decode_json_line d n ~what:"request" request_field request_of_fields
  | K_binary payload -> (
      match parse_binary_request payload with
      | Result.Ok msg -> `Msg (msg, Binary_wire)
      | Result.Error e -> fail d e)

let next_response d =
  match next_frame d with
  | K_need_more -> `Need_more
  | K_error msg -> `Error msg
  | K_json n ->
      decode_json_line d n ~what:"response" response_field response_of_fields
  | K_binary payload -> (
      match parse_binary_response payload with
      | Result.Ok msg -> `Msg (msg, Binary_wire)
      | Result.Error e -> fail d e)

let buffered d = d.len
