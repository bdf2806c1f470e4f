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
