(* End-to-end smoke test for the real daemon binary: save a tiny model,
   start `archpred served` on a temp Unix socket, round-trip predictions
   on both framings (answers must match the scalar oracle bitwise),
   hot-reload to a second model, then SIGTERM and require a clean
   drain — exit status 0.  A second daemon then takes peers that send a
   burst and hang up without reading: it must outlive them (no SIGPIPE
   death), answer a fresh connection exactly, and drain on SIGTERM with
   its accounting closed.  The binary path arrives as argv.(1) from the
   dune runtest rule. *)

module Core = Archpred_core
module Rbf = Archpred_rbf
module Stats = Archpred_stats
module Design = Archpred_design
module Frame = Archpred_serve_net.Frame
module Daemon = Archpred_serve_net.Daemon
module Client = Archpred_serve_net.Client

(* archpred-lint: allow exit -- check harness failure path *)
let fail fmt = Printf.ksprintf (fun m -> prerr_endline m; exit 1) fmt

let tiny_predictor seed =
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

(* Round-trip [points] on both framings; every answer must be ok, in
   order, and bitwise the scalar oracle's. *)
let check_answers c pred points =
  let bits = Int64.bits_of_float in
  List.iter
    (fun wire ->
      Array.iteri (fun i p -> Client.predict c wire ~id:i p) points;
      Array.iteri
        (fun i p ->
          match Client.recv c with
          | Frame.Reply { id; status = Frame.Ok; value } ->
              if id <> i then fail "reply order broken: want %d got %d" i id;
              let expect = Rbf.Network.eval pred.Core.Predictor.network p in
              if not (Int64.equal (bits expect) (bits value)) then
                fail "wrong answer at point %d: want %.17g got %.17g" i expect
                  value
          | Frame.Reply { status; _ } ->
              fail "point %d: status %s" i (Frame.status_name status)
          | Frame.Reload_reply _ -> fail "unexpected reload reply")
        points)
    [ Frame.Json_wire; Frame.Binary_wire ]

(* The daemon not yet reaped, killed if a check fails midway. *)
let live = ref None

let () =
  at_exit (fun () ->
      Option.iter
        (fun pid -> try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ())
        !live)

let spawn bin args ~stdout =
  let pid =
    Unix.create_process bin
      (Array.append [| bin; "served" |] args)
      Unix.stdin stdout Unix.stderr
  in
  live := Some pid;
  pid

let terminate pid =
  Unix.kill pid Sys.sigterm;
  let status = snd (Unix.waitpid [] pid) in
  live := None;
  match status with
  | Unix.WEXITED n -> n
  | Unix.WSIGNALED n -> fail "daemon killed by signal %d" n
  | Unix.WSTOPPED n -> fail "daemon stopped by signal %d" n

(* Five peers each send 4000 JSON requests and close without reading.
   The daemon's writes to them fail with EPIPE; before SIGPIPE was
   ignored that signal ended the daemon (exit status 141). *)
let burst_and_close bin ~model ~pred ~sock ~out points =
  let fd = Unix.openfile out [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let pid = spawn bin [| "--model"; model; "--socket"; sock |] ~stdout:fd in
  Unix.close fd;
  (* only now: a child would inherit the ignored disposition, and the
     daemon must be the one that ignores SIGPIPE *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let burst = Buffer.create (4000 * 96) in
  for i = 0 to 3999 do
    Buffer.add_string burst
      (Frame.encode_request Frame.Json_wire
         (Frame.Predict
            { id = i; point = points.(i mod Array.length points); natural = false }))
  done;
  let burst = Buffer.to_bytes burst in
  (* the first connect waits for the daemon to bind *)
  Client.close (Client.connect ~retries:250 (Daemon.Unix_socket sock));
  (try
     for _ = 1 to 5 do
       let s = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
       Unix.connect s (Unix.ADDR_UNIX sock);
       (try
          let off = ref 0 in
          while !off < Bytes.length burst do
            off := !off + Unix.write s burst !off (Bytes.length burst - !off)
          done
        with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> ());
       Unix.close s
     done;
     let c = Client.connect ~retries:0 (Daemon.Unix_socket sock) in
     check_answers c pred points;
     Client.close c
   with Unix.Unix_error (e, _, _) ->
     fail "daemon gone after burst-and-close peers: %s" (Unix.error_message e));
  let code = terminate pid in
  let lines = In_channel.with_open_text out In_channel.input_lines in
  let find fmt f = List.find_map (fun l -> Scanf.sscanf_opt l fmt f) lines in
  match
    ( find "drained: %d connections, %d requests, %d answered" (fun _ r a -> (r, a)),
      find " lost %d" Fun.id )
  with
  | Some (requests, answered), Some lost ->
      if requests <> answered + lost then
        fail "burst-and-close: %d requests, %d answered, %d lost" requests
          answered lost;
      (* replies owed to a peer that hung up count as lost, and the CLI
         exits 1 whenever anything was lost *)
      if code <> if lost > 0 then 1 else 0 then
        fail "burst-and-close: exit %d with %d lost" code lost;
      lost
  | _ -> fail "burst-and-close: no drained report in %s" out

let () =
  if Array.length Sys.argv < 2 then fail "usage: check_served ARCHPRED_BIN";
  let bin = Sys.argv.(1) in
  let dir = Filename.get_temp_dir_name () in
  let pid_tag = Unix.getpid () in
  let model_a = Filename.concat dir (Printf.sprintf "served_smoke_%d_a.model" pid_tag) in
  let model_b = Filename.concat dir (Printf.sprintf "served_smoke_%d_b.model" pid_tag) in
  let sock = Filename.concat dir (Printf.sprintf "served_smoke_%d.sock" pid_tag) in
  let sock2 = Filename.concat dir (Printf.sprintf "served_smoke_%d_2.sock" pid_tag) in
  let out2 = Filename.concat dir (Printf.sprintf "served_smoke_%d_2.out" pid_tag) in
  let pred_a = tiny_predictor 41 in
  let pred_b = tiny_predictor 97 in
  Core.Persist.save pred_a model_a;
  Core.Persist.save pred_b model_b;
  let pid =
    spawn bin [| "--model"; model_a; "--socket"; sock |] ~stdout:Unix.stdout
  in
  let cleanup () =
    List.iter
      (fun f -> try Sys.remove f with Sys_error _ -> ())
      [ model_a; model_b; sock; sock2; out2 ]
  in
  let space = Core.Paper_space.space in
  let dim = Design.Space.dimension space in
  let rng = Stats.Rng.create 5 in
  let points =
    Array.init 32 (fun _ ->
        Design.Space.snap space ~sample_size:90
          (Array.init dim (fun _ -> Stats.Rng.unit_float rng)))
  in
  let bits = Int64.bits_of_float in
  (try
     let c = Client.connect ~retries:250 (Daemon.Unix_socket sock) in
     check_answers c pred_a points;
     (* hot reload to model B over the wire *)
     Client.reload c ~path:model_b ();
     (match Client.recv c with
     | Frame.Reload_reply { ok = true; _ } -> ()
     | Frame.Reload_reply { ok = false; detail } ->
         fail "reload rejected: %s" detail
     | Frame.Reply _ -> fail "expected reload reply");
     Client.predict c Frame.Json_wire ~id:0 points.(0);
     (match Client.recv c with
     | Frame.Reply { status = Frame.Ok; value; _ } ->
         let expect =
           Rbf.Network.eval pred_b.Core.Predictor.network points.(0)
         in
         if not (Int64.equal (bits expect) (bits value)) then
           fail "post-reload answer is not model B's"
     | _ -> fail "post-reload predict failed");
     Client.close c;
     (* graceful drain on SIGTERM: the daemon must exit 0 *)
     let code = terminate pid in
     if code <> 0 then fail "daemon exited %d after SIGTERM" code
   with e ->
     cleanup ();
     raise e);
  let lost =
    burst_and_close bin ~model:model_a ~pred:pred_a ~sock:sock2 ~out:out2 points
  in
  cleanup ();
  Printf.printf
    "ok: served round-trips both framings, hot-reloads, drains clean (%d points); \
     outlives burst-and-close peers (%d replies lost to them)\n"
    (Array.length points) lost
