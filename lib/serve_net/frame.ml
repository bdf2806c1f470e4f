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
   its own connection. *)

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

let json_line_into buf json =
  Json.write buf json;
  Buffer.add_char buf '\n'

let encode_response_into buf wire resp =
  match (wire, resp) with
  | Json_wire, Reply { id; status; value } ->
      let fields =
        [ ("id", Json.Int id); ("status", Json.String (status_name status)) ]
        @ if status = Ok then [ ("value", Json.Float value) ] else []
      in
      json_line_into buf (Json.Obj fields)
  | Json_wire, Reload_reply { ok; detail } ->
      json_line_into buf
        (Json.Obj
           [
             ("reload", Json.String (if ok then "ok" else "failed"));
             ("detail", Json.String detail);
           ])
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

type decoder = {
  max_frame : int;
  mutable buf : Bytes.t;
  mutable start : int;  (* first unconsumed byte *)
  mutable len : int;  (* bytes buffered past [start] *)
  mutable failed : string option;  (* sticky protocol error *)
}

let default_max_frame = 1 lsl 20

let decoder ?(max_frame = default_max_frame) () =
  if max_frame < header_len + 13 then
    invalid_arg "Frame.decoder: max_frame too small for any frame";
  { max_frame; buf = Bytes.create 4096; start = 0; len = 0; failed = None }

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
  if d.len = 0 then d.start <- 0

(* Find '\n' in the buffered window; None while incomplete. *)
let find_newline d =
  let rec go i =
    if i >= d.len then None
    else if Bytes.get d.buf (d.start + i) = '\n' then Some i
    else go (i + 1)
  in
  go 0

type kind = K_json of string | K_binary of string | K_need_more | K_error of string

(* Extract the next complete frame of either framing, consuming it. *)
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
          | Some i ->
              let line = Bytes.sub_string d.buf d.start i in
              consume d (i + 1);
              K_json line
          | None ->
              if d.len > d.max_frame then (
                ignore (fail d "JSON line exceeds max frame size");
                K_error "JSON line exceeds max frame size")
              else K_need_more
        else (
          ignore (fail d "unrecognised frame (expected '{' or 0xA7)");
          K_error "unrecognised frame (expected '{' or 0xA7)")

let float_of_json = function
  | Json.Float v -> Some v
  | Json.Int v -> Some (float_of_int v)
  | _ -> None

let parse_json_request line =
  match Json.of_string line with
  | Error e -> Result.Error ("bad JSON request: " ^ e)
  | Result.Ok j -> (
      match Json.member "cmd" j with
      | Some (Json.String "reload") ->
          let path =
            match Json.member "path" j with
            | Some (Json.String p) -> Some p
            | _ -> None
          in
          Result.Ok (Reload path)
      | Some _ -> Result.Error "unknown cmd"
      | None -> (
          match (Json.member "id" j, Json.member "point" j) with
          | Some (Json.Int id), Some (Json.List vs) -> (
              let natural =
                match Json.member "natural" j with
                | Some (Json.Bool b) -> b
                | _ -> false
              in
              let coords = List.filter_map float_of_json vs in
              if List.length coords <> List.length vs then
                Result.Error "non-numeric coordinate"
              else
                let point = Array.of_list coords in
                if Array.length point > max_dim then
                  Result.Error "point too wide"
                else Result.Ok (Predict { id; point; natural }))
          | _ -> Result.Error "request needs \"id\" and \"point\""))

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

let parse_json_response line =
  match Json.of_string line with
  | Error e -> Result.Error ("bad JSON response: " ^ e)
  | Result.Ok j -> (
      match Json.member "reload" j with
      | Some (Json.String outcome) ->
          let detail =
            match Json.member "detail" j with
            | Some (Json.String s) -> s
            | _ -> ""
          in
          Result.Ok (Reload_reply { ok = outcome = "ok"; detail })
      | Some _ -> Result.Error "bad reload reply"
      | None -> (
          match (Json.member "id" j, Json.member "status" j) with
          | Some (Json.Int id), Some (Json.String s) -> (
              match status_of_name s with
              | None -> Result.Error ("unknown status " ^ s)
              | Some status ->
                  let value =
                    match Option.bind (Json.member "value" j) float_of_json with
                    | Some v -> v
                    | None -> Float.nan
                  in
                  Result.Ok (Reply { id; status; value }))
          | _ -> Result.Error "response needs \"id\" and \"status\""))

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

let next_with parse_json parse_binary d =
  match next_frame d with
  | K_need_more -> `Need_more
  | K_error msg -> `Error msg
  | K_json line -> (
      match parse_json line with
      | Result.Ok msg -> `Msg (msg, Json_wire)
      | Result.Error e -> fail d e)
  | K_binary payload -> (
      match parse_binary payload with
      | Result.Ok msg -> `Msg (msg, Binary_wire)
      | Result.Error e -> fail d e)

let next_request d = next_with parse_json_request parse_binary_request d
let next_response d = next_with parse_json_response parse_binary_response d

let buffered d = d.len
