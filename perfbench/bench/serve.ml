(* The serve-hot and serve-cold workloads: an [archpred served] process
   driven in a closed loop by one client thread over a Unix socket. *)

open Measure
module Core = Archpred_core
module Frame = Archpred_serve_net.Frame
module Space = Archpred_design.Space
module Stats = Archpred_stats

type workload = {
  wire : Frame.wire;
  conns : int;
  window : int;  (** requests outstanding per connection *)
  burst : bool;
      (** send the next [window] requests once all replies are in, rather
          than one for each reply *)
  pool : int;  (** distinct grid-snapped points the stream cycles over *)
  warmup : int;  (** requests after the first reply, part of set-up *)
}

(* serve-hot: 512 points fit the daemon's 4096-entry memo, so after
   warm-up every lookup hits.  It is a design-space client: it sends 64
   points at once and waits for all their predictions, so the daemon sees
   the same batches from run to run and its CPU per request holds steady
   (a sliding window left the batch sizes, and so that cost, to the
   relative speed of the two processes).  serve-cold: two JSON clients
   with 16 requests in flight each; the pool is 16x the memo and the
   stream cycles through it, so every lookup misses and evicts.  Pipelined
   clients keep the daemon's CPU per request a matter of codec, kernel
   and memo work; with one request in flight per connection it is mostly
   the cost of waking up, which follows the host's load. *)
let hot ~small =
  { wire = Frame.Binary_wire; conns = 1; window = 64; burst = true; pool = 512;
    warmup = (if small then 512 else 8192) }

let cold ~small =
  { wire = Frame.Json_wire; conns = 2; window = 16; burst = false;
    pool = (if small then 8192 else 65_536);
    warmup = (if small then 1024 else 8192) }

(* The daemon's memo keys points on the grid of [grid_sample_size] levels. *)
let grid = Archpred_serve_net.Daemon.default.Archpred_serve_net.Daemon.grid_sample_size
let memo_capacity =
  Archpred_serve_net.Daemon.default.Archpred_serve_net.Daemon.cache_capacity

let pool_points ~seed n =
  let space = Core.Paper_space.space in
  let rng = Stats.Rng.create seed in
  let seen = Hashtbl.create n in
  let out = ref [] and k = ref 0 in
  while !k < n do
    let p =
      Space.snap space ~sample_size:grid
        (Array.init (Space.dimension space) (fun _ -> Stats.Rng.unit_float rng))
    in
    if not (Hashtbl.mem seen p) then (
      Hashtbl.add seen p ();
      out := p :: !out;
      incr k)
  done;
  Array.of_list (List.rev !out)

(* ---- the daemon process ---- *)

type daemon = { pid : int; sock : string; out : string; metrics : string option }

(* Daemons not yet drained, so a run that fails midway still stops them. *)
let live = ref []

let kill_live () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error (Unix.ESRCH, _, _) -> ());
      ignore (Unix.waitpid [] pid))
    !live;
  live := []

let spawn (o : opts) ~model ~name ~traced =
  let sock = Filename.concat o.workdir (name ^ ".sock") in
  let out = Filename.concat o.workdir (name ^ ".out") in
  let metrics = if traced then Some (Filename.concat o.workdir (name ^ ".jsonl")) else None in
  let argv =
    Array.append
      [| o.archpred; "served"; "--model"; model; "--socket"; sock |]
      (match metrics with Some m -> [| "--metrics"; m |] | None -> [||])
  in
  let fd = Unix.openfile out [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let pid = Unix.create_process o.archpred argv Unix.stdin fd fd in
  live := pid :: !live;
  Unix.close fd;
  { pid; sock; out; metrics }

let connect d =
  let t0 = now_ns () in
  let rec go () =
    let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX d.sock) with
    | () -> fd
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
      when seconds_since t0 < 20. ->
        Unix.close fd;
        Unix.sleepf 0.0005;
        go ()
  in
  go ()

(* The daemon's own account, printed when SIGTERM drains it. *)
type drained = {
  requests : int;
  answered : int;
  shed : int;
  timeouts : int;
  hits : int;
  misses : int;
  bypasses : int;
  lost : int;
}

let stop d =
  Unix.kill d.pid Sys.sigterm;
  let status = snd (Unix.waitpid [] d.pid) in
  live := List.filter (fun p -> p <> d.pid) !live;
  let lines = In_channel.with_open_text d.out In_channel.input_lines in
  let find fmt f = List.find_map (fun l -> Scanf.sscanf_opt l fmt f) lines in
  let get = function Some v -> v | None -> failwith ("unparsed daemon output " ^ d.out) in
  let requests, answered =
    get (find "drained: %d connections, %d requests, %d answered" (fun _ r a -> (r, a)))
  in
  let shed, timeouts = get (find " shed %d, timeouts %d" (fun s t -> (s, t))) in
  let hits, misses, bypasses =
    get (find " cache: %d hits, %d misses, %d bypasses" (fun h m b -> (h, m, b)))
  in
  let lost = get (find " lost %d" Fun.id) in
  (status, { requests; answered; shed; timeouts; hits; misses; bypasses; lost })

(* ---- the closed-loop client ---- *)

type conn = {
  fd : Unix.file_descr;
  dec : Frame.decoder;
  order : int array;  (** pool indices this connection sends, cycled *)
  mutable cursor : int;
  ring : int array;  (** pool index of each outstanding request *)
  sent_at : int array;
  mutable head : int;  (** replies received *)
  mutable tail : int;  (** requests sent *)
}

type tally = {
  mutable sent : int;
  mutable ok : int;
  mutable wrong : int;  (** ok replies whose value is not the oracle's *)
  mutable other : int;  (** shed, timeout, bad request, shutting down *)
  mutable lat : float array;
  mutable n_lat : int;
  mutable blocked_s : float;
}

let tally () =
  { sent = 0; ok = 0; wrong = 0; other = 0; lat = Array.make 4096 0.; n_lat = 0; blocked_s = 0. }

let record t x =
  if t.n_lat = Array.length t.lat then
    t.lat <- Array.append t.lat (Array.make (Array.length t.lat) 0.);
  t.lat.(t.n_lat) <- x;
  t.n_lat <- t.n_lat + 1

let conn_of fd ~order ~window =
  { fd; dec = Frame.decoder (); order; cursor = 0; ring = Array.make window 0;
    sent_at = Array.make window 0; head = 0; tail = 0 }

let rec write_all fd b off len =
  if len > 0 then
    let n = Unix.write fd b off len in
    write_all fd b (off + n) (len - n)

let send c ~frames ~window ~n tl buf =
  Buffer.clear buf;
  let now = now_ns () in
  for _ = 1 to n do
    let idx = c.order.(c.cursor mod Array.length c.order) in
    c.cursor <- c.cursor + 1;
    Buffer.add_string buf frames.(idx);
    c.ring.(c.tail mod window) <- idx;
    c.sent_at.(c.tail mod window) <- now;
    c.tail <- c.tail + 1
  done;
  tl.sent <- tl.sent + n;
  write_all c.fd (Buffer.to_bytes buf) 0 (Buffer.length buf)

exception Broken of string

(* Keep [window] requests outstanding on every connection until [limit]
   requests were sent or [seconds] passed, then collect every reply.
   Each ok reply must equal the oracle bit for bit.  A sliding window
   refills a connection as its replies arrive; a [burst] connection is
   refilled once all its replies are in. *)
let drive conns ~frames ~oracle ~window ~burst ?(limit = max_int) ?(seconds = infinity) tl =
  let buf = Buffer.create 65_536 and chunk = Bytes.create 65_536 in
  let t0 = now_ns () in
  let refill c n =
    if n > 0 && tl.sent < limit && seconds_since t0 < seconds then
      send c ~frames ~window ~n:(min n (limit - tl.sent)) tl buf
  in
  let inflight c = c.tail - c.head in
  let wait cs =
    let ts = now_ns () in
    let ready, _, _ = Unix.select (List.map (fun c -> c.fd) cs) [] [] 30. in
    tl.blocked_s <- tl.blocked_s +. seconds_since ts;
    if ready = [] then raise (Broken "no reply for 30 s");
    List.filter (fun c -> List.mem c.fd ready) cs
  in
  (* One read on [c]; decode and check every complete reply. *)
  let receive c =
    let n = Unix.read c.fd chunk 0 (Bytes.length chunk) in
    if n = 0 then raise (Broken "daemon closed the connection");
    Frame.feed c.dec chunk 0 n;
    let now = now_ns () in
    let rec replies got =
      match Frame.next_response c.dec with
      | `Msg (Frame.Reply { id; status; value }, _) ->
          let idx = c.ring.(c.head mod window) in
          record tl (float_of_int (now - c.sent_at.(c.head mod window)));
          c.head <- c.head + 1;
          (match status with
          | Frame.Ok
            when id = idx
                 && Int64.equal (Int64.bits_of_float value) (Int64.bits_of_float oracle.(idx)) ->
              tl.ok <- tl.ok + 1
          | Frame.Ok -> tl.wrong <- tl.wrong + 1
          | _ -> tl.other <- tl.other + 1);
          replies (got + 1)
      | `Msg (Frame.Reload_reply _, _) -> raise (Broken "unexpected reload reply")
      | `Error e -> raise (Broken e)
      | `Need_more -> got
    in
    replies 0
  in
  Array.iter (fun c -> refill c window) conns;
  while Array.exists (fun c -> inflight c > 0) conns do
    List.iter
      (fun c ->
        let got = receive c in
        if not burst then refill c got else if inflight c = 0 then refill c window)
      (wait (List.filter (fun c -> inflight c > 0) (Array.to_list conns)))
  done;
  seconds_since t0

(* ---- per-layer micro-measurements on the workload's own frames ---- *)

let ns_per f n = snd (timed f) *. 1e9 /. float_of_int n

let frame_costs w ~frames ~oracle =
  let m = Array.length frames in
  let server =
    ns_per
      (fun () ->
        let d = Frame.decoder () in
        Array.iteri
          (fun i f ->
            Frame.feed_string d f;
            match Frame.next_request d with
            | `Msg _ ->
                ignore
                  (Sys.opaque_identity
                     (Frame.encode_response w.wire
                        (Frame.Reply { id = i; status = Frame.Ok; value = oracle.(i) })))
            | `Need_more | `Error _ -> failwith "frame did not decode")
          frames)
      m
  in
  let replies =
    Array.mapi
      (fun i v -> Frame.encode_response w.wire (Frame.Reply { id = i; status = Frame.Ok; value = v }))
      oracle
  in
  let client =
    ns_per
      (fun () ->
        let d = Frame.decoder () in
        Array.iter
          (fun r ->
            Frame.feed_string d r;
            match Frame.next_response d with
            | `Msg _ -> ()
            | `Need_more | `Error _ -> failwith "reply did not decode")
          replies)
      m
  in
  (server, client)

(* [Predictor.predict_batch] at the daemon's mean batch size over the
   stream, without and with a daemon-sized memo (warmed by one pass).
   Medians over four fresh loads of the model: the kernel's speed depends
   on where the packed arrays land. *)
let kernel_costs model_path stream ~batch =
  let chunks =
    Array.init
      ((Array.length stream + batch - 1) / batch)
      (fun k -> Array.sub stream (k * batch) (min batch (Array.length stream - (k * batch))))
  in
  let n = Array.length stream in
  let once () =
    let model = Core.Persist.load model_path in
    let run cache () =
      Array.iter
        (fun c -> ignore (Sys.opaque_identity (Core.Predictor.predict_batch ?cache model c)))
        chunks
    in
    let kernel = ns_per (run None) n in
    let memo =
      Core.Memo.create ~capacity:memo_capacity ~space:Core.Paper_space.space ~sample_size:grid ()
    in
    run (Some memo) ();
    (kernel, ns_per (run (Some memo)) n)
  in
  let draws = Array.init 4 (fun _ -> once ()) in
  (Quantile.median (Array.map fst draws), Quantile.median (Array.map snd draws))

(* ---- the workload ---- *)

(* One daemon's share of a timed phase. *)
type segment = {
  probes : float list;  (** host probes before the daemon's start and after its exit *)
  setup_s : float;
      (** CPU seconds of spawn -> model load -> first reply -> warm-up, the
          daemon's and this process's *)
  tl : tally;
  elapsed : float;  (** wall seconds of the timed drive *)
  rss : float;  (** the daemon's VmHWM, MiB *)
  drained : drained;
  daemon_cpu_s : float;  (** the daemon's CPU over its whole life *)
  trace : trace;
}

let builds ~small = if small then 1 else 3

let merge total tl =
  total.sent <- total.sent + tl.sent;
  total.ok <- total.ok + tl.ok;
  total.wrong <- total.wrong + tl.wrong;
  total.other <- total.other + tl.other

let run ~hot:is_hot (o : opts) =
  let w = if is_hot then hot ~small:o.small else cold ~small:o.small in
  let checks = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> checks := s :: !checks) fmt in
  (* The served model: the train workloads' spec at a fixed seed, so every
     run serves the same model and only the request stream follows the
     workload seed. *)
  let reference = Train.reference_model o ~builds:(builds ~small:o.small) in
  if not reference.Train.agree then fail "served model differs between identical builds";
  let model_path = reference.Train.path in
  let model = Core.Persist.load model_path in
  (* Inputs, oracle and encoded frames, all before the first daemon. *)
  let points = pool_points ~seed:o.seed w.pool in
  let oracle = Array.map (Core.Predictor.predict model) points in
  if o.corrupt = Some "oracle" then oracle.(0) <- oracle.(0) +. 1.;
  let frames =
    Array.mapi
      (fun i p ->
        Frame.encode_request w.wire (Frame.Predict { id = i; point = p; natural = false }))
      points
  in
  let orders =
    Array.init w.conns (fun c -> Array.init (w.pool / w.conns) (fun k -> (k * w.conns) + c))
  in
  let total = tally () in
  let drive_into conns ?limit ?seconds () =
    let tl = tally () in
    let elapsed = drive conns ~frames ~oracle ~window:w.window ~burst:w.burst ?limit ?seconds tl in
    merge total tl;
    (tl, elapsed)
  in
  let daemons = ref 0 in
  (* Set-up: daemon spawn -> model load -> first reply -> warm-up. *)
  let start ~traced =
    let d = spawn o ~model:model_path ~name:(Printf.sprintf "d%d" !daemons) ~traced in
    incr daemons;
    let conns = Array.map (fun order -> conn_of (connect d) ~order ~window:w.window) orders in
    ignore (drive_into [| conns.(0) |] ~limit:1 ());
    ignore (drive_into conns ~limit:w.warmup ());
    (d, conns)
  in
  let finish (d, conns) =
    Array.iter (fun c -> Unix.close c.fd) conns;
    let status, s = stop d in
    let sent = Array.fold_left (fun a c -> a + c.tail) 0 conns in
    let distinct =
      Array.fold_left (fun a c -> a + min c.tail (Array.length c.order)) 0 conns
    in
    if status <> Unix.WEXITED 0 then fail "%s: daemon did not exit cleanly" d.sock;
    if s.lost > 0 then fail "%s: %d requests lost" d.sock s.lost;
    if s.requests <> sent || s.answered <> sent then
      fail "%s: %d sent, daemon parsed %d and answered %d" d.sock sent s.requests s.answered;
    (* The memo must do exactly what the stream implies: on serve-hot one
       miss per distinct point, on serve-cold (reuse distance = pool size,
       far beyond the memo) a miss for every request. *)
    let misses = if is_hot then distinct else sent in
    if s.misses <> misses || s.hits <> sent - misses || s.bypasses <> 0 then
      fail "%s: memo %d hits / %d misses / %d bypasses, expected %d / %d / 0"
        d.sock s.hits s.misses s.bypasses (sent - misses) misses;
    total.other <- total.other + s.lost;
    s
  in
  (* The timed phase is split over several daemons, each started (the
     set-up: spawn -> model load -> first reply -> warm-up), driven for its
     share of the phase and drained.  The kernel's speed depends on where
     a daemon's packed model lands in memory, so one daemon is one draw. *)
  let segments = if o.small then 2 else 8 in
  let segment ~traced ~seconds =
    let before = probe_s () in
    let c0 = cpu_s () in
    let dc = start ~traced in
    let setup_s = cpu_s () -. c0 +. task_cpu_s (fst dc).pid in
    let tl, elapsed = drive_into (snd dc) ~seconds () in
    let rss = vmhwm_mb (string_of_int (fst dc).pid) in
    (* The daemon is this process's only unreaped child, so the children's
       CPU time gained while it is drained and reaped is its whole life's. *)
    let c0 = children_cpu_s () in
    let drained = finish dc in
    let daemon_cpu_s = children_cpu_s () -. c0 in
    let trace =
      match (fst dc).metrics with
      | Some m -> trace_of_events (events_of_jsonl m)
      | None -> { spans = []; counters = [] }
    in
    let probes = [ before; probe_s () ] in
    { probes; setup_s; tl; elapsed; rss; drained; daemon_cpu_s; trace }
  in
  let phase ~traced ~seconds n =
    List.init n (fun _ -> segment ~traced ~seconds:(seconds /. float_of_int n))
  in
  let sum f segs = List.fold_left (fun a seg -> a +. f seg) 0. segs in
  let rate segs = sum (fun g -> float_of_int g.tl.ok) segs /. sum (fun g -> g.elapsed) segs in
  (* Daemon CPU nanoseconds per request it answered, over its whole life:
     model load, warm-up and drain included. *)
  let cpu_ns_per_pred segs =
    sum (fun g -> g.daemon_cpu_s) segs *. 1e9
    /. sum (fun g -> float_of_int g.drained.answered) segs
  in
  let lat segs = Array.concat (List.map (fun g -> Array.sub g.tl.lat 0 g.tl.n_lat) segs) in
  let med f segs = Quantile.median (Array.of_list (List.map f segs)) in
  let half = if o.traced then segments / 2 else segments in
  let plain = phase ~traced:false ~seconds:(if o.traced then o.seconds /. 2. else o.seconds) half in
  let e2e =
    [
      ( "train_cpu_s",
        at_reference reference.Train.probes (Quantile.median reference.Train.cpus),
        "s" );
      ( "op_cpu_us",
        at_reference
          (Array.of_list (List.concat_map (fun g -> g.probes) plain))
          (cpu_ns_per_pred plain /. 1e3),
        "us" );
      ( "setup_s",
        at_reference
          (Array.of_list (List.concat_map (fun g -> g.probes) plain))
          (med (fun g -> g.setup_s) plain),
        "s" );
      ("peak_rss_mb", med (fun g -> g.rss) plain, "MiB");
    ]
  in
  let layers =
    if not o.traced then []
    else
      let traced = phase ~traced:true ~seconds:(o.seconds /. 2.) half in
      let c n = sum (fun g -> float_of_int (counter g.trace n)) traced in
      let d f = sum (fun g -> float_of_int (f g.drained)) traced in
      let b_lat = lat traced in
      let busy = 1. -. (sum (fun g -> g.tl.blocked_s) traced /. sum (fun g -> g.elapsed) traced) in
      let mean_batch = ratio (c "served.requests") (c "served.batches") in
      let sample = Array.sub frames 0 (min 16_384 w.pool) in
      let server, client = frame_costs w ~frames:sample ~oracle:(Array.sub oracle 0 (Array.length sample)) in
      let stream = Array.init 65_536 (fun k -> points.(k mod w.pool)) in
      let kernel, memo =
        kernel_costs model_path stream ~batch:(max 1 (int_of_float (Float.round mean_batch)))
      in
      let load_s =
        Quantile.median (Array.init 5 (fun _ -> snd (timed (fun () -> Core.Persist.load model_path))))
      in
      let q p = Quantile.quantile b_lat p /. 1e3 in
      [
        ("model.err_pct", reference.Train.ref_err_pct, "%");
        ("persist.load_s", load_s, "s");
        ("frame.server_ns_per_req", server, "ns");
        ("frame.client_ns_per_req", client, "ns");
        ("kernel.ns_per_pt", kernel, "ns");
        ("memo.ns_per_pt", memo, "ns");
        ("memo.hit_rate", ratio (c "memo.hits") (c "memo.hits" +. c "memo.misses"), "ratio");
        ("memo.evictions", c "memo.evictions", "count");
        ("daemon.mean_batch", mean_batch, "count");
        ("daemon.residual_ns_per_pred", cpu_ns_per_pred traced -. server -. memo, "ns");
        ("daemon.shed", d (fun s -> s.shed), "count");
        ("daemon.timeouts", d (fun s -> s.timeouts), "count");
        ("daemon.lost", d (fun s -> s.lost), "count");
        ("client.busy_share", busy, "ratio");
        ("client.p99_us", q 0.99, "us");
        ("client.p999_us", q 0.999, "us");
        ("client.samples", float_of_int (Array.length b_lat), "count");
        ("train.wall_s", Quantile.median reference.Train.walls, "s");
        ( "host.probe_s",
          Quantile.median (Array.of_list (List.concat_map (fun g -> g.probes) plain)),
          "s" );
        ("serve.pred_per_s", rate plain, "1/s");
        ("serve.p50_us", Quantile.median (lat plain) /. 1e3, "us");
        ( "trace_overhead_pct",
          ((cpu_ns_per_pred traced /. cpu_ns_per_pred plain) -. 1.) *. 100.,
          "%" );
      ]
  in
  let failed = total.wrong + total.other + List.length !checks in
  if total.wrong > 0 then fail "%d replies differ from the scalar oracle" total.wrong;
  {
    attempted = total.sent + Array.length reference.Train.walls;
    failed;
    checks = List.rev !checks;
    metrics = e2e @ layers;
    notes =
      [
        ("served_model_centers", Json.Int (Core.Predictor.n_centers model));
        ( "probe_s",
          Json.Float (Quantile.median (Array.of_list (List.concat_map (fun g -> g.probes) plain)))
        );
        ("daemon_cpu_ns_per_pred", Json.Float (cpu_ns_per_pred plain));
      ];
  }
