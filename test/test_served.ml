(* The prediction daemon: codec round-trips and fuzz, then the live
   daemon driven over real sockets from a client in the main domain —
   including the PR-3-style deterministic fault matrix over the four
   serve-path injection sites.

   The daemon runs in its own domain; every scenario ends with a drain
   and joins the domain, so a crash in the event loop surfaces as a
   test failure here, not a leak. *)

module Design = Archpred_design
module Stats = Archpred_stats
module Rbf = Archpred_rbf
module Core = Archpred_core
module Obs = Archpred_obs
module Fault = Archpred_fault.Fault
module Frame = Archpred_serve_net.Frame
module Daemon = Archpred_serve_net.Daemon
module Client = Archpred_serve_net.Client

let bits = Int64.bits_of_float

(* ---------------------------------------------------------------- *)
(* Fixtures                                                         *)
(* ---------------------------------------------------------------- *)

let tiny_predictor ?(seed = 41) () =
  let dim = 9 in
  let rng = Stats.Rng.create seed in
  let centers =
    Array.init 6 (fun _ ->
        {
          Rbf.Network.c = Array.init dim (fun _ -> Stats.Rng.unit_float rng);
          r = Array.init dim (fun _ -> 0.3 +. Stats.Rng.unit_float rng);
        })
  in
  let weights = Array.init 6 (fun _ -> Stats.Rng.unit_float rng -. 0.5) in
  let network = { Rbf.Network.centers; weights } in
  Core.Predictor.make ~space:Core.Paper_space.space ~network ~p_min:1
    ~alpha:7. ()

let space = Core.Paper_space.space
let dim = Design.Space.dimension space

let grid_points ~seed n =
  let rng = Stats.Rng.create seed in
  Array.init n (fun _ ->
      Design.Space.snap space ~sample_size:90
        (Array.init dim (fun _ -> Stats.Rng.unit_float rng)))

let sock_counter = ref 0

let fresh_sock () =
  incr sock_counter;
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "archpred_t%d_%d.sock" (Unix.getpid ()) !sock_counter)

let start_daemon ?obs ?(tweak = fun c -> c) predictor =
  let sock = fresh_sock () in
  let control = Daemon.control () in
  let cfg =
    tweak
      {
        Daemon.default with
        Daemon.listener = Daemon.Unix_socket sock;
        tick_s = 0.002;
      }
  in
  let dom =
    Domain.spawn (fun () -> Daemon.run ?obs ~control ~predictor cfg)
  in
  (sock, control, dom)

let stop_daemon control dom =
  Daemon.request_drain control;
  Domain.join dom

(* ---------------------------------------------------------------- *)
(* Codec: round-trips                                               *)
(* ---------------------------------------------------------------- *)

let request_equal a b =
  match (a, b) with
  | ( Frame.Predict { id = i1; point = p1; natural = n1 },
      Frame.Predict { id = i2; point = p2; natural = n2 } ) ->
      i1 = i2 && n1 = n2
      && Array.length p1 = Array.length p2
      && Array.for_all2 (fun x y -> Int64.equal (bits x) (bits y)) p1 p2
  | Frame.Reload a, Frame.Reload b -> a = b
  | _ -> false

let decode_all_requests chunks =
  let d = Frame.decoder () in
  let out = ref [] in
  let step () =
    let continue = ref true in
    while !continue do
      match Frame.next_request d with
      | `Msg (m, w) -> out := (m, w) :: !out
      | `Need_more -> continue := false
      | `Error e -> Alcotest.failf "unexpected protocol error: %s" e
    done
  in
  List.iter
    (fun c ->
      Frame.feed_string d c;
      step ())
    chunks;
  List.rev !out

let test_roundtrip_both_wires () =
  let reqs =
    [
      Frame.Predict { id = 0; point = [| 0.5; 0.25 |]; natural = false };
      Frame.Predict { id = 77; point = Array.init 9 float_of_int; natural = true };
      Frame.Reload (Some "m.model");
      Frame.Reload None;
      Frame.Predict { id = 3; point = [||]; natural = false };
    ]
  in
  List.iter
    (fun req ->
      let wires =
        match req with
        | Frame.Reload _ -> [ Frame.Json_wire ]
        | Frame.Predict _ -> [ Frame.Json_wire; Frame.Binary_wire ]
      in
      List.iter
        (fun wire ->
          let s = Frame.encode_request wire req in
          match decode_all_requests [ s ] with
          | [ (got, w) ] ->
              Alcotest.(check bool) "wire preserved" true (w = wire);
              Alcotest.(check bool) "request round-trips" true
                (request_equal req got)
          | l -> Alcotest.failf "expected 1 message, got %d" (List.length l))
        wires)
    reqs

let test_response_roundtrip () =
  let resps =
    [
      Frame.Reply { id = 5; status = Frame.Ok; value = 1.25 };
      Frame.Reply { id = 0; status = Frame.Overloaded; value = Float.nan };
      Frame.Reply { id = 9; status = Frame.Timeout; value = Float.nan };
      Frame.Reply { id = 2; status = Frame.Bad_request; value = Float.nan };
      Frame.Reply { id = 1; status = Frame.Shutting_down; value = Float.nan };
      Frame.Reload_reply { ok = true; detail = "m.model" };
      Frame.Reload_reply { ok = false; detail = "checksum" };
    ]
  in
  List.iter
    (fun resp ->
      let wires =
        match resp with
        | Frame.Reload_reply _ -> [ Frame.Json_wire ]
        | Frame.Reply _ -> [ Frame.Json_wire; Frame.Binary_wire ]
      in
      List.iter
        (fun wire ->
          let d = Frame.decoder () in
          Frame.feed_string d (Frame.encode_response wire resp);
          match Frame.next_response d with
          | `Msg (got, _) -> (
              match (resp, got) with
              | ( Frame.Reply { id = i1; status = s1; value = v1 },
                  Frame.Reply { id = i2; status = s2; value = v2 } ) ->
                  Alcotest.(check int) "id" i1 i2;
                  Alcotest.(check bool) "status" true (s1 = s2);
                  if s1 = Frame.Ok then
                    Alcotest.(check bool) "value bits" true
                      (Int64.equal (bits v1) (bits v2))
              | ( Frame.Reload_reply { ok = o1; detail = d1 },
                  Frame.Reload_reply { ok = o2; detail = d2 } ) ->
                  Alcotest.(check bool) "ok" o1 o2;
                  Alcotest.(check string) "detail" d1 d2
              | _ -> Alcotest.fail "response kind changed in flight")
          | `Need_more -> Alcotest.fail "incomplete response"
          | `Error e -> Alcotest.failf "protocol error: %s" e)
        wires)
    resps

(* Golden reply bytes for every status on both framings: the wire is a
   contract with clients, so any change to it must show up here. *)
let test_response_golden () =
  let nan = Float.nan in
  let reply wire id status value = (wire, Frame.Reply { id; status; value }) in
  let j = Frame.Json_wire and b = Frame.Binary_wire in
  List.iter
    (fun ((wire, resp), want) ->
      Alcotest.(check string) "golden bytes" want
        (Frame.encode_response wire resp))
    [
      ( reply j 7 Frame.Ok 0.1,
        "{\"id\":7,\"status\":\"ok\",\"value\":0.10000000000000001}\n" );
      ( reply b 7 Frame.Ok 0.1,
        "\167\r\000\000\000\007\000\000\000\000\154\153\153\153\153\153\185?" );
      (reply j 7 Frame.Overloaded nan, "{\"id\":7,\"status\":\"overloaded\"}\n");
      ( reply b 7 Frame.Overloaded nan,
        "\167\r\000\000\000\007\000\000\000\001\001\000\000\000\000\000\248\127" );
      (reply j 7 Frame.Timeout nan, "{\"id\":7,\"status\":\"timeout\"}\n");
      ( reply b 7 Frame.Timeout nan,
        "\167\r\000\000\000\007\000\000\000\002\001\000\000\000\000\000\248\127" );
      (reply j 7 Frame.Bad_request nan, "{\"id\":7,\"status\":\"bad_request\"}\n");
      ( reply b 7 Frame.Bad_request nan,
        "\167\r\000\000\000\007\000\000\000\003\001\000\000\000\000\000\248\127" );
      ( reply j 7 Frame.Shutting_down nan,
        "{\"id\":7,\"status\":\"shutting_down\"}\n" );
      ( reply b 7 Frame.Shutting_down nan,
        "\167\r\000\000\000\007\000\000\000\004\001\000\000\000\000\000\248\127" );
      ( reply j 123456789 Frame.Ok (-2.5e-300),
        "{\"id\":123456789,\"status\":\"ok\",\"value\":-2.5e-300}\n" );
      ( reply b 123456789 Frame.Ok (-2.5e-300),
        "\167\r\000\000\000\021\205[\007\000/0\183\179\167\201\186\129" );
      (reply j (-1) Frame.Bad_request nan, "{\"id\":-1,\"status\":\"bad_request\"}\n");
      ( reply b (-1) Frame.Bad_request nan,
        "\167\r\000\000\000\255\255\255\255\003\001\000\000\000\000\000\248\127" );
      ( reply b 0 Frame.Ok 1.25,
        "\167\r\000\000\000\000\000\000\000\000\000\000\000\000\000\000\244?" );
      (reply j 0 Frame.Ok 1.25, "{\"id\":0,\"status\":\"ok\",\"value\":1.25}\n");
      (reply j 3 Frame.Ok Float.infinity, "{\"id\":3,\"status\":\"ok\",\"value\":null}\n");
      ( (j, Frame.Reload_reply { ok = true; detail = "m.model" }),
        "{\"reload\":\"ok\",\"detail\":\"m.model\"}\n" );
      ( (j, Frame.Reload_reply { ok = false; detail = "bad \"path\"\n\t\\ \001" }),
        "{\"reload\":\"failed\",\"detail\":\"bad \\\"path\\\"\\n\\t\\\\ \\u0001\"}\n" );
    ]

(* QCheck: any request, any split of the byte stream, decodes back. *)
let qcheck_chunked_roundtrip =
  let gen =
    QCheck.Gen.(
      let* n = int_range 0 12 in
      let* id = int_range 0 0xFFFF in
      let* natural = bool in
      let* wire = oneofl [ Frame.Json_wire; Frame.Binary_wire ] in
      let* coords = array_repeat n (float_range (-2.) 2.) in
      let* cut = int_range 1 7 in
      return (id, natural, wire, coords, cut))
  in
  QCheck.Test.make ~name:"chunked request round-trip" ~count:300
    (QCheck.make gen) (fun (id, natural, wire, point, cut) ->
      let req = Frame.Predict { id; point; natural } in
      let s = Frame.encode_request wire req in
      (* slice the encoding into [cut]-byte chunks *)
      let chunks = ref [] in
      let i = ref 0 in
      while !i < String.length s do
        let len = min cut (String.length s - !i) in
        chunks := String.sub s !i len :: !chunks;
        i := !i + len
      done;
      match decode_all_requests (List.rev !chunks) with
      | [ (got, w) ] -> w = wire && request_equal req got
      | _ -> false)

(* ---------------------------------------------------------------- *)
(* Codec: truncation and corruption fuzz                            *)
(* ---------------------------------------------------------------- *)

(* Every proper prefix of a valid frame is just an incomplete frame:
   [`Need_more], never an exception, never a spurious message. *)
let test_every_prefix_truncation () =
  let frames =
    [
      Frame.encode_request Frame.Binary_wire
        (Frame.Predict { id = 12; point = [| 0.5; 0.75; 1.0 |]; natural = false });
      Frame.encode_request Frame.Json_wire
        (Frame.Predict { id = 3; point = [| 0.125 |]; natural = true });
    ]
  in
  List.iter
    (fun s ->
      for cut = 0 to String.length s - 1 do
        let d = Frame.decoder () in
        Frame.feed_string d (String.sub s 0 cut);
        match Frame.next_request d with
        | `Need_more -> ()
        | `Msg _ -> Alcotest.failf "message out of a %d-byte prefix" cut
        | `Error e -> Alcotest.failf "prefix %d: protocol error %s" cut e
      done)
    frames

(* Corrupting the length field must produce a per-connection protocol
   error (or an honest Need_more for a plausible shorter length), never
   an exception or a wrong message. *)
let test_corrupted_length () =
  let s =
    Frame.encode_request Frame.Binary_wire
      (Frame.Predict { id = 1; point = [| 0.5; 0.25 |]; natural = false })
  in
  for byte = 1 to 4 do
    for v = 0 to 255 do
      let b = Bytes.of_string s in
      Bytes.set b byte (Char.chr v);
      let d = Frame.decoder ~max_frame:4096 () in
      Frame.feed_string d (Bytes.to_string b);
      (* a corrupted frame may also desync the *next* frame; both
         decode attempts must stay total *)
      match Frame.next_request d with
      | `Error _ | `Need_more -> ()
      | `Msg (Frame.Predict { point; _ }, _) ->
          (* only the true length decodes back to the true payload *)
          if Array.length point <> 2 then ()
      | `Msg _ -> ()
    done
  done

(* Arbitrary garbage: the decoder must stay total on any byte soup. *)
let qcheck_garbage_total =
  let gen = QCheck.Gen.(string_size ~gen:(char_range '\x00' '\xff') (int_range 0 64)) in
  QCheck.Test.make ~name:"garbage bytes never raise" ~count:500
    (QCheck.make gen) (fun junk ->
      let d = Frame.decoder ~max_frame:4096 () in
      Frame.feed_string d junk;
      let rec drain n =
        if n > 200 then true
        else
          match Frame.next_request d with
          | `Msg _ -> drain (n + 1)
          | `Need_more | `Error _ -> true
      in
      drain 0)

let test_oversized_frame_is_error () =
  let d = Frame.decoder ~max_frame:64 () in
  (* binary: length field larger than max_frame *)
  let b = Bytes.make 5 '\x00' in
  Bytes.set b 0 '\xa7';
  Bytes.set_int32_le b 1 1000l;
  Frame.feed_string d (Bytes.to_string b);
  (match Frame.next_request d with
  | `Error _ -> ()
  | _ -> Alcotest.fail "oversized binary frame accepted");
  (* JSON: unterminated line past max_frame *)
  let d = Frame.decoder ~max_frame:64 () in
  Frame.feed_string d ("{\"id\":1," ^ String.make 128 ' ');
  match Frame.next_request d with
  | `Error _ -> ()
  | _ -> Alcotest.fail "oversized JSON line accepted"

(* ---------------------------------------------------------------- *)
(* Codec: the in-place JSON decode against the tree decode          *)
(* ---------------------------------------------------------------- *)

(* The tree-based decode that Frame used before it decoded JSON lines
   in place: parse the line into a [Json.t], then look the keys up.
   Kept here as the oracle, the way Processor is kept for Batch. *)
module Oracle = struct
  module Json = Archpred_obs.Json

  let max_dim = 1024

  let float_of_json = function
    | Json.Float v -> Some v
    | Json.Int v -> Some (float_of_int v)
    | _ -> None

  let request line =
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
            Result.Ok (Frame.Reload path)
        | Some _ -> Result.Error "unknown cmd"
        | None -> (
            match (Json.member "id" j, Json.member "point" j) with
            | Some (Json.Int id), Some (Json.List vs) ->
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
                  else Result.Ok (Frame.Predict { id; point; natural })
            | _ -> Result.Error "request needs \"id\" and \"point\""))

  let response line =
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
            Result.Ok (Frame.Reload_reply { ok = outcome = "ok"; detail })
        | Some _ -> Result.Error "bad reload reply"
        | None -> (
            match (Json.member "id" j, Json.member "status" j) with
            | Some (Json.Int id), Some (Json.String s) -> (
                match Frame.status_of_name s with
                | None -> Result.Error ("unknown status " ^ s)
                | Some status ->
                    let value =
                      match Option.bind (Json.member "value" j) float_of_json with
                      | Some v -> v
                      | None -> Float.nan
                    in
                    Result.Ok (Frame.Reply { id; status; value }))
            | _ -> Result.Error "response needs \"id\" and \"status\""))
end

let response_equal a b =
  match (a, b) with
  | ( Frame.Reply { id = i1; status = s1; value = v1 },
      Frame.Reply { id = i2; status = s2; value = v2 } ) ->
      i1 = i2 && s1 = s2 && Int64.equal (bits v1) (bits v2)
  | ( Frame.Reload_reply { ok = o1; detail = d1 },
      Frame.Reload_reply { ok = o2; detail = d2 } ) ->
      o1 = o2 && String.equal d1 d2
  | _ -> false

(* Decode one line (no '\n' inside) through a fresh decoder. *)
let decode_line next line =
  let d = Frame.decoder () in
  Frame.feed_string d (line ^ "\n");
  match next d with
  | `Msg (m, Frame.Json_wire) -> Result.Ok m
  | `Msg (_, Frame.Binary_wire) -> Result.Error "decoded as binary"
  | `Error e -> Result.Error e
  | `Need_more -> Result.Error "need more"

let same_outcome equal got want =
  match (got, want) with
  | Result.Ok a, Result.Ok b -> equal a b
  | Result.Error e, Result.Error e' -> String.equal e e'
  | _ -> false

let request_agrees line =
  same_outcome request_equal (decode_line Frame.next_request line) (Oracle.request line)

let response_agrees line =
  same_outcome response_equal (decode_line Frame.next_response line) (Oracle.response line)

(* Random JSON-ish lines: the keys each side looks for, in any order,
   duplicated or beside unknown keys, with numbers of every shape the
   number rule distinguishes, escapes, nesting and stray bytes. *)
let json_line_gen keys =
  let open QCheck.Gen in
  let ws = oneofl [ ""; ""; " "; "\t"; "\r"; "  " ] in
  let number =
    frequency
      [
        ( 3,
          oneofl
            [
              "-0"; "+1"; ".5"; "1."; "1e3"; "1E-3"; "-.5e+2"; "007"; "0"; "-17";
              "1e400"; "-1e-400"; "99999999999999999999"; "4611686018427387904";
              "-4611686018427387905"; "-"; "+"; "1-2"; "1e"; "1.2.3"; "--1";
              "12345678901234567890.5"; "2.5e-3"; "0.1"; "9007199254740993.0";
              "1e22"; "1e23"; "-0.0"; "4.9e-324";
            ] );
        (2, map string_of_int int);
        (2, map (fun i -> string_of_int i) (int_range (-5) 100));
        (3, map (Printf.sprintf "%.17g") (float_range (-2.) 2.));
        (1, map (Printf.sprintf "%.15g") (float_range (-1e6) 1e6));
        (1, map (fun (m, e) -> Printf.sprintf "%de%d" m e)
              (pair (int_range 0 (max_int / 4)) (int_range (-25) 25)));
      ]
  in
  let str =
    oneofl
      [
        "\"reload\""; "\"ok\""; "\"failed\""; "\"timeout\""; "\"bad_request\"";
        "\"shutting_down\""; "\"overloaded\""; "\"nope\""; "\"m.model\"";
        "\"po\\u0069nt\""; "\"re\\u006coad\""; "\"caf\\u00e9\"";
        "\"\\ud83d\\ude00\""; "\"bad \\q\""; "\"\\u0_41\""; "\"\\ud83d\"";
        "\"\""; "\"tab\\there\""; "\"open";
      ]
  in
  let scalar =
    frequency
      [ (4, number); (2, str); (1, oneofl [ "true"; "false"; "null"; "tru"; "nul" ]) ]
  in
  let array_of elt =
    map2
      (fun (w1, w2) xs -> "[" ^ w1 ^ String.concat ("," ^ w2) xs ^ "]")
      (pair ws ws)
      (list_size (int_range 0 12) elt)
  in
  let rec value depth =
    if depth = 0 then scalar
    else
      frequency
        [
          (5, scalar);
          (3, array_of (frequency [ (6, number); (1, value (depth - 1)) ]));
          ( 1,
            map
              (fun fields ->
                "{" ^ String.concat "," (List.map (fun (k, v) -> "\"" ^ k ^ "\":" ^ v) fields) ^ "}")
              (list_size (int_range 0 3) (pair (oneofl [ "a"; "id" ]) (value (depth - 1)))) );
        ]
  in
  let key =
    frequency
      [ (8, map (fun k -> "\"" ^ k ^ "\"") (oneofl keys)); (1, oneofl [ "\"x\""; "\"po\\u0069nt\""; "\"\\u0069d\"" ]) ]
  in
  let field =
    map3
      (fun k (w1, w2, w3) v -> w1 ^ k ^ w2 ^ ":" ^ w3 ^ v)
      key (triple ws ws ws) (value 2)
  in
  let line =
    map3
      (fun fields w tail -> "{" ^ String.concat "," fields ^ w ^ "}" ^ tail)
      (list_size (int_range 0 7) field)
      ws
      (frequency [ (9, return ""); (1, oneofl [ " "; "x"; "}"; ",1" ]) ])
  in
  (* mutations: keep the first '{' so the frame stays JSON, and never
     put a '\n' inside the line *)
  let mutate s =
    let n = String.length s in
    frequency
      [
        (6, return s);
        (1, map (fun k -> String.sub s 0 (1 + (k mod n))) nat);
        ( 1,
          map2
            (fun k c ->
              let b = Bytes.of_string s in
              if n > 1 then Bytes.set b (1 + (k mod (n - 1))) (if c = '\n' then ' ' else c);
              Bytes.to_string b)
            nat (char_range '\000' '\255') );
      ]
  in
  line >>= mutate

let qcheck_request_decode_matches_tree =
  QCheck.Test.make ~name:"in-place request decode = tree decode" ~count:3000
    (QCheck.make ~print:Fun.id (json_line_gen [ "id"; "point"; "natural"; "cmd"; "path" ]))
    request_agrees

let qcheck_response_decode_matches_tree =
  QCheck.Test.make ~name:"in-place response decode = tree decode" ~count:2000
    (QCheck.make ~print:Fun.id
       (json_line_gen [ "id"; "status"; "value"; "reload"; "detail" ]))
    response_agrees

(* Every prefix of real lines, taken as a complete line, and a few
   hand-picked cases. *)
let test_json_decode_cases () =
  let lines =
    [
      Frame.encode_request Frame.Json_wire
        (Frame.Predict { id = 3; point = [| 0.125; -0.; 1e-300; 2.5 |]; natural = true });
      Frame.encode_request Frame.Json_wire (Frame.Reload (Some "caf\xc3\xa9.model"));
      "{\"cmd\":\"re\\u006coad\",\"path\":\"caf\\u00e9.model\"}";
      "{\"id\":1,\"id\":2.5,\"point\":[1,2],\"point\":\"x\",\"natural\":true,\"natural\":1}";
      "{\"id\":1.0,\"point\":[1]}";
      "{\"id\":-0,\"point\":[-0,+1,.5,1.,1e3]}";
      "{\"id\":1,\"point\":[1,\"2\"],\"point\":[1]}";
      "{\"cmd\":null,\"id\":1,\"point\":[]}";
      "{\"id\":1,\"point\":[" ^ String.concat "," (List.init 1025 string_of_int) ^ "]}";
      "{\"id\":1,\"point\":[" ^ String.concat "," (List.init 1024 string_of_int) ^ "]}";
    ]
  in
  List.iter
    (fun line ->
      let line = String.trim line in
      for cut = 1 to String.length line do
        let l = String.sub line 0 cut in
        if not (request_agrees l) then Alcotest.failf "request decode differs on %S" l
      done)
    lines;
  let replies =
    [
      String.trim (Frame.encode_response Frame.Json_wire (Frame.Reply { id = 7; status = Frame.Ok; value = 0.1 }));
      String.trim (Frame.encode_response Frame.Json_wire (Frame.Reload_reply { ok = false; detail = "bad \"path\"" }));
      "{\"id\":1,\"status\":\"weird\"}";
      "{\"status\":\"ok\",\"value\":\"x\",\"id\":4}";
      "{\"reload\":1,\"id\":1,\"status\":\"ok\"}";
    ]
  in
  List.iter
    (fun line ->
      for cut = 1 to String.length line do
        let l = String.sub line 0 cut in
        if not (response_agrees l) then Alcotest.failf "response decode differs on %S" l
      done)
    replies

(* A long line fed a byte at a time is scanned for its newline once,
   not once per byte, and decodes to the same request as fed whole. *)
let test_long_line_bytewise () =
  let pad = String.make (256 * 1024) 'x' in
  let line =
    "{\"id\":9,\"pad\":\"" ^ pad ^ "\",\"point\":[0.5,0.25,0.75]}\n"
  in
  let whole = decode_all_requests [ line ] in
  let d = Frame.decoder () in
  let one = Bytes.create 1 in
  let got = ref [] in
  let t0 = Obs.now_ns () in
  String.iter
    (fun c ->
      Bytes.set one 0 c;
      Frame.feed d one 0 1;
      match Frame.next_request d with
      | `Msg m -> got := m :: !got
      | `Need_more -> ()
      | `Error e -> Alcotest.failf "protocol error: %s" e)
    line;
  let elapsed = Int64.to_float (Int64.sub (Obs.now_ns ()) t0) /. 1e9 in
  (match (whole, !got) with
  | [ (a, _) ], [ (b, _) ] ->
      Alcotest.(check bool) "same request" true (request_equal a b)
  | _ -> Alcotest.fail "expected one request each way");
  (* linear: well under a second here; the rescanning decoder needed
     minutes for this line *)
  Alcotest.(check bool) (Printf.sprintf "bytewise feed took %.2f s" elapsed) true (elapsed < 10.)

(* One decoder across a long escaped string and the short lines after
   it: the reader drops its grown scratch between lines, and every line
   still decodes to what it says. *)
let test_decoder_reuse_after_long_escape () =
  let long = String.concat "" (List.init 5000 (fun _ -> "\\u00e9")) in
  let lines =
    [
      "{\"cmd\":\"reload\",\"path\":\"" ^ long ^ "\"}\n";
      "{\"cmd\":\"reload\",\"path\":\"a\\u0062\"}\n";
      "{\"id\":2,\"point\":[0.5,0.25]}\n";
    ]
  in
  let want =
    [
      Frame.Reload (Some (String.concat "" (List.init 5000 (fun _ -> "\xc3\xa9"))));
      Frame.Reload (Some "ab");
      Frame.Predict { id = 2; point = [| 0.5; 0.25 |]; natural = false };
    ]
  in
  let got = List.map fst (decode_all_requests lines) in
  Alcotest.(check int) "three requests" 3 (List.length got);
  List.iter2
    (fun a b -> Alcotest.(check bool) "same request" true (request_equal a b))
    want got

(* The JSON codec's per-frame allocation: a 9-coordinate request
   decodes into little more than its result, and a reply encodes with
   only the %.17g text of its value. *)
let test_json_codec_alloc () =
  let point = (grid_points ~seed:3 1).(0) in
  let req = Frame.Predict { id = 123456; point; natural = false } in
  let src = Bytes.of_string (Frame.encode_request Frame.Json_wire req) in
  let d = Frame.decoder () in
  let decode () =
    Frame.feed d src 0 (Bytes.length src);
    match Frame.next_request d with
    | `Msg (got, _) -> got
    | `Need_more | `Error _ -> Alcotest.fail "request did not decode"
  in
  Alcotest.(check bool) "decodes" true (request_equal req (decode ()));
  let n = 1000 in
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    ignore (Sys.opaque_identity (decode ()))
  done;
  let per_request = (Gc.minor_words () -. w0) /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "decode: %.1f minor words <= 64" per_request)
    true (per_request <= 64.);
  let buf = Buffer.create 4096 in
  let resp = Frame.Reply { id = 123456; status = Frame.Ok; value = 1.2345678901234567 } in
  Frame.encode_response_into buf Frame.Json_wire resp;
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    Buffer.clear buf;
    Frame.encode_response_into buf Frame.Json_wire resp
  done;
  let per_reply = (Gc.minor_words () -. w0) /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "encode: %.1f minor words <= 16" per_reply)
    true (per_reply <= 16.)

(* ---------------------------------------------------------------- *)
(* Live daemon scenarios                                            *)
(* ---------------------------------------------------------------- *)

type reply = { id : int; status : Frame.status; value : float }

let recv_reply c =
  match Client.recv c with
  | Frame.Reply { id; status; value } -> { id; status; value }
  | Frame.Reload_reply _ -> Alcotest.fail "unexpected reload reply"

let test_roundtrip_daemon () =
  let predictor = tiny_predictor () in
  let sock, control, dom = start_daemon predictor in
  let points = grid_points ~seed:5 64 in
  let c = Client.connect (Daemon.Unix_socket sock) in
  List.iter
    (fun wire ->
      Array.iteri (fun i p -> Client.predict c wire ~id:i p) points;
      Array.iteri
        (fun i p ->
          let r = recv_reply c in
          Alcotest.(check int) "id echoes" i r.id;
          Alcotest.(check bool) "status ok" true (r.status = Frame.Ok);
          let expect = Rbf.Network.eval predictor.Core.Predictor.network p in
          Alcotest.(check bool) "bit-identical to scalar oracle" true
            (Int64.equal (bits expect) (bits r.value)))
        points)
    [ Frame.Json_wire; Frame.Binary_wire ];
  (* well-framed but invalid points answer bad_request and never kill
     the daemon: wrong arity, out-of-cube, out-of-range natural units *)
  List.iter
    (fun (id, natural, point) ->
      Client.predict c Frame.Json_wire ~id ~natural point;
      let r = recv_reply c in
      Alcotest.(check int) "bad point id echoes" id r.id;
      Alcotest.(check bool) "bad point rejected" true
        (r.status = Frame.Bad_request))
    [
      (1001, false, [| 0.5 |]);
      (1002, false, Array.make dim 2.);
      (1003, true, [| 9.; 9.; 9.; 9.; 9.; 9.; 9.; 9.; 9. |]);
    ];
  (* and the daemon still serves after rejecting them *)
  Client.predict c Frame.Json_wire ~id:7 points.(0);
  let r = recv_reply c in
  Alcotest.(check bool) "still serving after bad requests" true
    (r.status = Frame.Ok);
  Client.close c;
  let s = stop_daemon control dom in
  Alcotest.(check int) "requests"
    ((2 * Array.length points) + 4)
    s.Daemon.requests;
  Alcotest.(check int) "answered all" s.Daemon.requests s.Daemon.answered;
  Alcotest.(check int) "bad requests counted" 3 s.Daemon.bad_requests;
  Alcotest.(check int) "lost none" 0 s.Daemon.lost;
  Alcotest.(check bool) "cache saw hits" true
    (s.Daemon.cache.Core.Memo.hits > 0)

(* a raw socket lets the test speak broken protocol on purpose; the
   connect retries while the daemon's domain is still binding *)
let rec raw_connect ?(tries = 250) sock =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX sock) with
  | () -> fd
  | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
    when tries > 0 ->
      Unix.close fd;
      Unix.sleepf 0.004;
      raw_connect ~tries:(tries - 1) sock

let raw_send fd s =
  let b = Bytes.of_string s in
  let n = ref 0 in
  while !n < Bytes.length b do
    n := !n + Unix.write fd b !n (Bytes.length b - !n)
  done

(* read until EOF, return everything — the daemon should answer the
   valid pre-garbage request and then close the read-poisoned conn
   once its egress drains *)
let raw_drain fd =
  let buf = Bytes.create 4096 in
  let acc = Buffer.create 256 in
  (try
     let rec go () =
       let n = Unix.read fd buf 0 (Bytes.length buf) in
       if n > 0 then (
         Buffer.add_subbytes acc buf 0 n;
         go ())
     in
     go ()
   with Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> ());
  Buffer.contents acc

let test_protocol_error_isolated () =
  let predictor = tiny_predictor () in
  let sock, control, dom = start_daemon predictor in
  let points = grid_points ~seed:6 8 in
  let good = Client.connect (Daemon.Unix_socket sock) in
  (* prove the daemon is up before speaking garbage at it *)
  Client.predict good Frame.Json_wire ~id:99 points.(0);
  let warm = recv_reply good in
  Alcotest.(check bool) "daemon up" true (warm.status = Frame.Ok);
  (* the bad peer sends one valid request, then unframeable bytes *)
  let bad = raw_connect sock in
  raw_send bad
    (Frame.encode_request Frame.Binary_wire
       (Frame.Predict { id = 0; point = points.(0); natural = false }));
  raw_send bad "\x99\x99garbage that is neither JSON nor magic\n";
  let bad_bytes = raw_drain bad in
  Unix.close bad;
  (* the daemon answered the valid request before cutting the peer off
     (the stream may also carry a courtesy bad_request notice) *)
  let d = Frame.decoder () in
  Frame.feed_string d bad_bytes;
  let answered = ref false in
  let continue = ref true in
  while !continue do
    match Frame.next_response d with
    | `Msg (Frame.Reply { id = 0; status = Frame.Ok; value }, _) ->
        let expect =
          Rbf.Network.eval predictor.Core.Predictor.network points.(0)
        in
        Alcotest.(check bool) "pre-garbage request answered exactly" true
          (Int64.equal (bits expect) (bits value));
        answered := true
    | `Msg _ -> ()
    | `Need_more | `Error _ -> continue := false
  done;
  Alcotest.(check bool) "pre-garbage request answered" true !answered;
  (* the good client is unaffected before, during and after *)
  Array.iteri (fun i p -> Client.predict good Frame.Json_wire ~id:i p) points;
  Array.iteri
    (fun i p ->
      let r = recv_reply good in
      Alcotest.(check int) "id" i r.id;
      let expect = Rbf.Network.eval predictor.Core.Predictor.network p in
      Alcotest.(check bool) "good conn unaffected" true
        (Int64.equal (bits expect) (bits r.value)))
    points;
  Client.close good;
  let s = stop_daemon control dom in
  Alcotest.(check bool) "protocol error counted" true
    (s.Daemon.protocol_errors >= 1);
  Alcotest.(check int) "lost none" 0 s.Daemon.lost

let test_shed_under_overload () =
  let predictor = tiny_predictor () in
  let sock, control, dom =
    start_daemon
      ~tweak:(fun c -> { c with Daemon.max_pending = 4; max_batch = 4 })
      predictor
  in
  let points = grid_points ~seed:7 512 in
  let c = Client.connect (Daemon.Unix_socket sock) in
  let load = Client.drive c Frame.Binary_wire ~pipeline:256 points in
  Client.close c;
  let s = stop_daemon control dom in
  Alcotest.(check int) "every request answered somehow"
    (Array.length points)
    (load.Client.ok + load.Client.shed + load.Client.timeouts
   + load.Client.other);
  Alcotest.(check int) "daemon agrees on shed" s.Daemon.shed load.Client.shed;
  Alcotest.(check bool) "some requests served" true (load.Client.ok > 0);
  Alcotest.(check int) "none lost" 0 s.Daemon.lost

let test_drain_zero_loss () =
  let predictor = tiny_predictor () in
  let sock, control, dom = start_daemon predictor in
  let points = grid_points ~seed:8 128 in
  let c = Client.connect (Daemon.Unix_socket sock) in
  Array.iteri (fun i p -> Client.predict c Frame.Binary_wire ~id:i p) points;
  (* drain while replies are still in flight *)
  Daemon.request_drain control;
  let got = ref 0 in
  (try
     while !got < Array.length points do
       ignore (recv_reply c);
       incr got
     done
   with Obs.Error.Archpred _ -> ());
  Client.close c;
  let s = Domain.join dom in
  Alcotest.(check int) "all accepted requests answered" s.Daemon.requests
    s.Daemon.answered;
  Alcotest.(check int) "zero lost on drain" 0 s.Daemon.lost

let test_hot_reload () =
  let pred_a = tiny_predictor ~seed:41 () in
  let pred_b = tiny_predictor ~seed:97 () in
  let dir = Filename.get_temp_dir_name () in
  let path_a = Filename.concat dir "served_reload_a.model" in
  let path_b = Filename.concat dir "served_reload_b.model" in
  let path_bad = Filename.concat dir "served_reload_bad.model" in
  Core.Persist.save pred_a path_a;
  Core.Persist.save pred_b path_b;
  (* a torn model file: valid prefix, then truncation breaks the CRC *)
  let full = Core.Persist.to_string pred_b in
  Out_channel.with_open_bin path_bad (fun oc ->
      Out_channel.output_string oc
        (String.sub full 0 (String.length full - 7)));
  let sock, control, dom =
    start_daemon
      ~tweak:(fun c -> { c with Daemon.model_path = Some path_a })
      pred_a
  in
  let p = (grid_points ~seed:9 1).(0) in
  let c = Client.connect (Daemon.Unix_socket sock) in
  let expect_a = Rbf.Network.eval pred_a.Core.Predictor.network p in
  let expect_b = Rbf.Network.eval pred_b.Core.Predictor.network p in
  Client.predict c Frame.Json_wire ~id:0 p;
  let r = recv_reply c in
  Alcotest.(check bool) "serves model A" true
    (Int64.equal (bits expect_a) (bits r.value));
  (* swap to B *)
  Client.reload c ~path:path_b ();
  (match Client.recv c with
  | Frame.Reload_reply { ok; _ } ->
      Alcotest.(check bool) "reload B accepted" true ok
  | _ -> Alcotest.fail "expected reload reply");
  Client.predict c Frame.Json_wire ~id:1 p;
  let r = recv_reply c in
  Alcotest.(check bool) "serves model B after reload" true
    (Int64.equal (bits expect_b) (bits r.value));
  (* a corrupt file must be rejected and roll back to B *)
  Client.reload c ~path:path_bad ();
  (match Client.recv c with
  | Frame.Reload_reply { ok; _ } ->
      Alcotest.(check bool) "corrupt reload rejected" false ok
  | _ -> Alcotest.fail "expected reload reply");
  Client.predict c Frame.Json_wire ~id:2 p;
  let r = recv_reply c in
  Alcotest.(check bool) "still serves model B" true
    (Int64.equal (bits expect_b) (bits r.value));
  Client.close c;
  let s = stop_daemon control dom in
  Alcotest.(check int) "one reload ok" 1 s.Daemon.reloads_ok;
  Alcotest.(check int) "one reload failed" 1 s.Daemon.reloads_failed;
  List.iter
    (fun f -> try Sys.remove f with Sys_error _ -> ())
    [ path_a; path_b; path_bad ]

(* ---------------------------------------------------------------- *)
(* Egress: partial writes, slow readers, peers that hang up         *)
(* ---------------------------------------------------------------- *)

let request_burst wire points =
  let b = Buffer.create (Array.length points * 96) in
  Array.iteri
    (fun i p ->
      Buffer.add_string b
        (Frame.encode_request wire (Frame.Predict { id = i; point = p; natural = false })))
    points;
  Buffer.contents b

(* Send [data], tolerating a daemon that hangs up part-way. *)
let send_until_hangup fd data =
  try raw_send fd data
  with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> ()

(* A client sends every request before reading anything, so the replies
   overrun the socket buffer and the daemon's writes come up short; then
   it reads a few bytes at a time.  Every reply must still arrive, in
   order and exact, and count as answered. *)
let test_partial_writes () =
  let predictor = tiny_predictor () in
  List.iter
    (fun (wire, n) ->
      let sock, control, dom =
        start_daemon
          ~tweak:(fun c -> { c with Daemon.deadline_ns = 60_000_000_000L })
          predictor
      in
      let points = grid_points ~seed:21 n in
      let fd = raw_connect sock in
      raw_send fd (request_burst wire points);
      let d = Frame.decoder () in
      let chunk = Bytes.create 7 in
      let got = ref 0 in
      while !got < n do
        let k = Unix.read fd chunk 0 (Bytes.length chunk) in
        if k = 0 then Alcotest.failf "daemon hung up after %d replies" !got;
        Frame.feed d chunk 0 k;
        let continue = ref true in
        while !continue do
          match Frame.next_response d with
          | `Msg (Frame.Reply { id; status; value }, w) ->
              if id <> !got || status <> Frame.Ok || w <> wire then
                Alcotest.failf "reply %d: id %d, status %s" !got id
                  (Frame.status_name status);
              let expect =
                Rbf.Network.eval predictor.Core.Predictor.network points.(id)
              in
              if not (Int64.equal (bits expect) (bits value)) then
                Alcotest.failf "reply %d differs from the scalar oracle" id;
              incr got
          | `Msg (Frame.Reload_reply _, _) -> Alcotest.fail "reload reply"
          | `Error e -> Alcotest.failf "protocol error: %s" e
          | `Need_more -> continue := false
        done
      done;
      Unix.close fd;
      let s = stop_daemon control dom in
      Alcotest.(check int) "requests" n s.Daemon.requests;
      Alcotest.(check int) "answered = requests" n s.Daemon.answered;
      Alcotest.(check int) "lost none" 0 s.Daemon.lost)
    (* 295 KB of binary and ~450 KB of JSON replies: past the socket
       buffer, within the default max_egress *)
    [ (Frame.Binary_wire, 16384); (Frame.Json_wire, 8192) ]

(* A peer that never reads is cut off once its egress window passes
   max_egress; everyone else keeps being served. *)
let test_slow_reader_disconnected () =
  let predictor = tiny_predictor () in
  let obs = Obs.create () in
  let sock, control, dom =
    start_daemon ~obs
      ~tweak:(fun c -> { c with Daemon.max_egress = 4096 })
      predictor
  in
  let points = grid_points ~seed:22 512 in
  let burst = request_burst Frame.Binary_wire points in
  let fd = raw_connect sock in
  (* up to 100 bursts: 900 KB of replies, far past socket buffer plus
     window; the daemon hangs up long before *)
  for _ = 1 to 100 do
    send_until_hangup fd burst
  done;
  Unix.close fd;
  let c = Client.connect (Daemon.Unix_socket sock) in
  Array.iteri (fun i p -> Client.predict c Frame.Binary_wire ~id:i p) points;
  Array.iteri
    (fun i p ->
      let r = recv_reply c in
      let expect = Rbf.Network.eval predictor.Core.Predictor.network p in
      Alcotest.(check int) "id" i r.id;
      Alcotest.(check bool) "others still served exactly" true
        (Int64.equal (bits expect) (bits r.value)))
    points;
  Client.close c;
  let s = stop_daemon control dom in
  Alcotest.(check int) "one overflow" 1
    (Obs.counter obs "served.egress_overflow");
  Alcotest.(check bool) "the cut-off peer's replies are lost" true
    (s.Daemon.lost > 0);
  Alcotest.(check int) "every request answered or lost" s.Daemon.requests
    (s.Daemon.answered + s.Daemon.lost)

(* Peers that send a burst and close without reading: the daemon's
   writes to them fail with EPIPE, which must cost those connections
   only -- never a SIGPIPE that ends the process. *)
let test_burst_and_close () =
  let predictor = tiny_predictor () in
  let sock, control, dom = start_daemon predictor in
  let burst = request_burst Frame.Json_wire (grid_points ~seed:23 4000) in
  for _ = 1 to 5 do
    let fd = raw_connect sock in
    send_until_hangup fd burst;
    Unix.close fd
  done;
  let points = grid_points ~seed:24 32 in
  let c = Client.connect (Daemon.Unix_socket sock) in
  List.iter
    (fun wire ->
      Array.iteri (fun i p -> Client.predict c wire ~id:i p) points;
      Array.iteri
        (fun i p ->
          let r = recv_reply c in
          let expect = Rbf.Network.eval predictor.Core.Predictor.network p in
          Alcotest.(check int) "id" i r.id;
          Alcotest.(check bool) "fresh connection exact" true
            (Int64.equal (bits expect) (bits r.value)))
        points)
    [ Frame.Json_wire; Frame.Binary_wire ];
  Client.close c;
  let s = stop_daemon control dom in
  Alcotest.(check int) "every request answered or lost" s.Daemon.requests
    (s.Daemon.answered + s.Daemon.lost)

(* ---------------------------------------------------------------- *)
(* The fault matrix                                                 *)
(* ---------------------------------------------------------------- *)

(* Arm one serve-path site, run a full client scenario, and assert the
   invariants the daemon must keep under any single fault: it never
   crashes, and every Ok answer is bit-identical to the scalar oracle.
   Deterministic at 1 and 4 domains. *)
let fault_scenario ~site ~domains () =
  let predictor = tiny_predictor () in
  let points = grid_points ~seed:11 32 in
  Fault.reset ();
  Fault.arm ~site ~after:1 ();
  let sock, control, dom =
    start_daemon ~tweak:(fun c -> { c with Daemon.domains }) predictor
  in
  let ok_values = ref [] in
  let run_client wire =
    match Client.connect ~retries:50 (Daemon.Unix_socket sock) with
    | c ->
        (try
           Array.iteri (fun i p -> Client.predict c wire ~id:i p) points;
           (match site with
           | "serve.reload" ->
               Client.reload c ~path:"/nonexistent/model" ();
               ()
           | _ -> ());
           Array.iter
             (fun _ ->
               match Client.recv c with
               | Frame.Reply { id; status = Frame.Ok; value } ->
                   ok_values := (id, value) :: !ok_values
               | Frame.Reply _ | Frame.Reload_reply _ -> ())
             points
         with
        | Obs.Error.Archpred _ -> ()
        | Unix.Unix_error _ ->
            (* the armed fault killed this connection — that is the
               sanctioned absorption, not a daemon failure *)
            ());
        Client.close c
    | exception Unix.Unix_error (_, _, _) -> ()
  in
  (* two connections, both framings, so the armed site gets exercised
     from more than one edge *)
  run_client Frame.Binary_wire;
  run_client Frame.Json_wire;
  let s = stop_daemon control dom in
  Fault.reset ();
  (* no crash: we got stats back.  No wrong answer: *)
  List.iter
    (fun (id, value) ->
      let expect =
        Rbf.Network.eval predictor.Core.Predictor.network points.(id)
      in
      Alcotest.(check bool)
        (Printf.sprintf "site %s domains %d: answer %d exact" site domains id)
        true
        (Int64.equal (bits expect) (bits value)))
    !ok_values;
  Alcotest.(check bool)
    (Printf.sprintf "site %s: accounting sane" site)
    true
    (s.Daemon.answered <= s.Daemon.requests
    && s.Daemon.lost + s.Daemon.answered <= s.Daemon.requests);
  (* a reload fault must have been absorbed as a failed reload *)
  if site = "serve.reload" then
    Alcotest.(check bool) "reload fault counted" true
      (s.Daemon.reloads_failed >= 1)

let test_fault_matrix () =
  List.iter
    (fun domains ->
      List.iter
        (fun site -> fault_scenario ~site ~domains ())
        [ "serve.accept"; "serve.read"; "serve.write"; "serve.reload" ])
    [ 1; 4 ]

(* domains must not change a single bit of any answer *)
let test_domains_bit_identical () =
  let predictor = tiny_predictor () in
  let points = grid_points ~seed:13 96 in
  let answers domains =
    let sock, control, dom =
      start_daemon
        ~tweak:(fun c ->
          { c with Daemon.domains; cache_capacity = 8 (* force misses *) })
        predictor
    in
    let c = Client.connect (Daemon.Unix_socket sock) in
    let got = Array.make (Array.length points) 0. in
    Array.iteri (fun i p -> Client.predict c Frame.Binary_wire ~id:i p) points;
    Array.iter
      (fun _ ->
        let r = recv_reply c in
        got.(r.id) <- r.value)
      points;
    Client.close c;
    ignore (stop_daemon control dom);
    got
  in
  let a1 = answers 1 in
  let a4 = answers 4 in
  Array.iteri
    (fun i v1 ->
      Alcotest.(check bool)
        (Printf.sprintf "point %d identical at 1 and 4 domains" i)
        true
        (Int64.equal (bits v1) (bits a4.(i))))
    a1

let () =
  Alcotest.run "served"
    [
      ( "codec",
        [
          Alcotest.test_case "round-trip both wires" `Quick
            test_roundtrip_both_wires;
          Alcotest.test_case "response round-trip" `Quick
            test_response_roundtrip;
          QCheck_alcotest.to_alcotest qcheck_chunked_roundtrip;
          Alcotest.test_case "every prefix truncation" `Quick
            test_every_prefix_truncation;
          Alcotest.test_case "corrupted length" `Quick test_corrupted_length;
          QCheck_alcotest.to_alcotest qcheck_garbage_total;
          Alcotest.test_case "oversized frames" `Quick
            test_oversized_frame_is_error;
          Alcotest.test_case "response golden bytes" `Quick
            test_response_golden;
          QCheck_alcotest.to_alcotest qcheck_request_decode_matches_tree;
          QCheck_alcotest.to_alcotest qcheck_response_decode_matches_tree;
          Alcotest.test_case "JSON decode prefixes and cases" `Quick
            test_json_decode_cases;
          Alcotest.test_case "long line fed bytewise" `Quick
            test_long_line_bytewise;
          Alcotest.test_case "decoder reuse after a long escape" `Quick
            test_decoder_reuse_after_long_escape;
          Alcotest.test_case "JSON codec allocation" `Quick
            test_json_codec_alloc;
        ] );
      ( "daemon",
        [
          Alcotest.test_case "both framings round-trip live" `Quick
            test_roundtrip_daemon;
          Alcotest.test_case "protocol error isolated" `Quick
            test_protocol_error_isolated;
          Alcotest.test_case "overload sheds, never drops" `Quick
            test_shed_under_overload;
          Alcotest.test_case "drain loses nothing" `Quick test_drain_zero_loss;
          Alcotest.test_case "hot reload with rollback" `Quick test_hot_reload;
          Alcotest.test_case "fault matrix (1 and 4 domains)" `Slow
            test_fault_matrix;
          Alcotest.test_case "1 vs 4 domains bit-identical" `Quick
            test_domains_bit_identical;
          Alcotest.test_case "partial writes, both framings" `Quick
            test_partial_writes;
          Alcotest.test_case "slow reader cut at max_egress" `Quick
            test_slow_reader_disconnected;
          Alcotest.test_case "burst-and-close peers" `Quick
            test_burst_and_close;
        ] );
    ]
