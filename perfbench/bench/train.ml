(* The train-sim and train-sharded workloads: one model-construction spec
   built in-process by [Core.Build.build_to_accuracy] and through
   [Shard.Coordinator.run] with two [archpred worker] processes. *)

open Measure
module Core = Archpred_core
module Shard = Archpred_shard
module Stats = Archpred_stats

(* The sharded-search schedule of [bench --shard]: streaming refit over
   sizes 20..90 on an 80k-instruction mcf trace.  Simulation is ~97% of a
   build, so simulator and trace work show here and nowhere in serving. *)
let spec ~small ~seed =
  let sizes = if small then [ 8; 12; 16 ] else [ 20; 30; 40; 50; 60; 70; 80; 90 ] in
  {
    Shard.Spec.benchmark = "mcf";
    metric = Core.Response.Cpi;
    seed;
    trace_length = (if small then 4_000 else 80_000);
    sample_size = List.fold_left max 0 sizes;
    test_n = (if small then 4 else 10);
    lhs_candidates = (if small then 4 else 40);
    criterion = Archpred_rbf.Criteria.Aicc;
    p_min_grid = [ 1; 3 ];
    alpha_grid = [ 7. ];
    shard_unit = (if small then 4 else 8);
    stream_refit = true;
    refit_full_every = 4;
    mode = Shard.Spec.Accuracy { sizes; target_mean_pct = 0. };
  }

let sizes (s : Shard.Spec.t) =
  match s.Shard.Spec.mode with
  | Shard.Spec.Accuracy { sizes; _ } -> sizes
  | Shard.Spec.Train -> invalid_arg "perfbench: accuracy schedule expected"

let nproc = Domain.recommended_domain_count ()

(* Builds cycle over [cycle] seeds derived from the workload seed, so a
   run averages over several inputs and every seed after the first pass
   is a repeat whose model and operation counts must match exactly. *)
let cycle = 5

(* The seed of the reference model: the one serve-* serve. *)
let reference_seed = 11
let build_seed ~seed i = (seed * 1000) + (i mod cycle)

type build = {
  seed : int;
  wall_s : float;
  cpu_s : float;  (** CPU seconds of the build, worker processes included *)
  err_pct : float;
  model : Core.Predictor.t;
  digest : string;
  ops : int;  (** sim points (in-process) or claimed units (sharded) *)
  layers : (string * float) list;  (** per-layer times and counts *)
}

(* One in-process build exactly as `archpred train` runs it: one root
   generator, test points drawn and simulated first, then the schedule.
   The response is fresh per build (it memoises), and its batched
   evaluator is wrapped to time every call into the simulator. *)
let inprocess ?(obs = Obs.null) spec =
  let c0 = cpu_s () in
  let t0 = now_ns () in
  let inner, trace_gen_s = timed (fun () -> Shard.Spec.response ~obs spec) in
  let busy = ref 0. and points = ref 0 in
  let eval_many ?domains ps =
    let v, dt =
      timed (fun () -> Core.Response.evaluate_many ?domains inner ps)
    in
    busy := !busy +. dt;
    points := !points + Array.length ps;
    v
  in
  let response =
    Core.Response.make ~eval_many inner.Core.Response.name
      inner.Core.Response.eval
  in
  let rng = Stats.Rng.create spec.Shard.Spec.seed in
  let test = Core.Paper_space.test_points rng ~n:spec.Shard.Spec.test_n in
  let actual = Core.Response.evaluate_many ~domains:nproc response test in
  let config =
    Shard.Spec.config ~obs spec
    |> Core.Config.with_rng rng
    |> Core.Config.with_domains nproc
  in
  let history =
    Core.Build.build_to_accuracy ~config ~space:Core.Paper_space.space
      ~response ~sizes:(sizes spec) ~test_points:test ~test_responses:actual
      ~target_mean_pct:0. ()
  in
  let wall_s = seconds_since t0 in
  let cpu_s = cpu_s () -. c0 in
  let final = history.Core.Build.final in
  let model = final.Core.Build.trained.Core.Build.predictor in
  {
    seed = spec.Shard.Spec.seed;
    wall_s;
    cpu_s;
    err_pct = final.Core.Build.test_error.Stats.Error_metrics.mean_pct;
    model;
    digest = Core.Persist.to_string model;
    ops = !points;
    layers = [ ("trace_gen_s", trace_gen_s); ("sim_busy_s", !busy) ];
  }

(* The blocking-call timer (bench/blocking.c), built beside this
   executable. *)
let blocking_so () =
  let dir = Filename.dirname Sys.executable_name in
  let dir = if Filename.is_relative dir then Filename.concat (Sys.getcwd ()) dir else dir in
  Filename.concat dir "blocking.so"

(* The argv hook of [Shard.Coordinator.run]: one domain per worker, so two
   workers fill the two cores.  Traced, each worker streams its counters
   with [--metrics], has its poll sleeps and fsyncs timed by the preloaded
   blocking-call timer, and runs under this executable's [--timed-child]
   shim, which records the worker's lifetime and CPU time. *)
let worker_argv ~archpred ~dir ~traced id =
  let file prefix = Filename.concat dir (prefix ^ id) in
  let env =
    if traced then
      [ "LD_PRELOAD=" ^ blocking_so (); "PERFBENCH_BLOCKING_OUT=" ^ file "blocking-" ]
    else []
  in
  let cmd =
    Array.of_list
      (("env" :: "ARCHPRED_DOMAINS=1" :: env)
      @ [ archpred; "worker"; "--dir"; dir; "--id"; id ])
  in
  if not traced then cmd
  else
    Array.concat
      [
        [| Sys.executable_name; "--timed-child"; file "timing-"; "--" |];
        cmd;
        [| "--metrics"; file "metrics-" ^ ".jsonl" |];
      ]

(* [--timed-child OUT -- CMD...]: run CMD, then write its start and end
   (monotonic ns, comparable across processes) and CPU seconds to OUT,
   and exit with its status. *)
let timed_child out cmd =
  let t0 = now_ns () in
  let pid = Unix.create_process cmd.(0) cmd Unix.stdin Unix.stdout Unix.stderr in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> Unix.kill pid Sys.sigterm));
  let rec wait () =
    match Unix.waitpid [] pid with
    | _, st -> st
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  let st = wait () in
  let t1 = now_ns () in
  let tm = Unix.times () in
  Out_channel.with_open_text out (fun oc ->
      Printf.fprintf oc "%d %d %.6f\n" t0 t1 (tm.Unix.tms_cutime +. tm.Unix.tms_cstime));
  match st with Unix.WEXITED c -> c | Unix.WSIGNALED _ | Unix.WSTOPPED _ -> 1

let workers = 2

(* The sharded run's own timeline, from the shim and blocking-call
   records: coordinator start to the first worker start, then the worker
   that exited last: its CPU time, its poll sleeps and its fsyncs (each
   measured, not inferred from the others), and its exit to the
   coordinator's return (merge and reassembly).  What the last worker
   spent otherwise (waiting for a core, blocking elsewhere) is in none of
   them, and so counts as unattributed. *)
let worker_stack ~dir ~t0 ~t1 =
  let read name fmt k =
    In_channel.with_open_text (Filename.concat dir name) (fun ic ->
        Scanf.sscanf (In_channel.input_all ic) fmt k)
  in
  let recs =
    Sys.readdir dir |> Array.to_list
    |> List.filter_map (fun n ->
           match String.split_on_char '-' n with
           | [ "timing"; id ] -> Some (id, read n "%d %d %f" (fun a b c -> (a, b, c)))
           | _ -> None)
  in
  let first = List.fold_left (fun a (_, (s, _, _)) -> min a s) max_int recs in
  let id, (_, le, cpu) =
    List.fold_left (fun ((_, (_, e, _)) as a) ((_, (_, e', _)) as r) -> if e' > e then r else a)
      (List.hd recs) recs
  in
  let sleep_ns, sync_ns =
    read ("blocking-" ^ id) "%d %d %d %d" (fun sl _ sy _ -> (sl, sy))
  in
  let sec ns = float_of_int ns *. 1e-9 in
  [
    ("shard.spawn_s", sec (first - t0));
    ("shard.worker_cpu_s", cpu);
    ("shard.poll_sleep_s", sec sleep_ns);
    ("shard.fsync_s", sec sync_ns);
    ("shard.tail_s", sec (t1 - le));
  ]

let sharded ?(obs = Obs.null) ~archpred ~dir ~traced spec =
  rm_rf dir;
  let argv = worker_argv ~archpred ~dir ~traced in
  let t0 = now_ns () in
  let outcome, cpu_s =
    cpu_timed (fun () -> Shard.Coordinator.run ~obs ~dir ~spec ~workers ~argv ())
  in
  let t1 = now_ns () in
  let model =
    outcome.Shard.Coordinator.result.Shard.Stages.final.Core.Build.predictor
  in
  let err_pct =
    match outcome.Shard.Coordinator.test_error with
    | Some e -> e.Stats.Error_metrics.mean_pct
    | None -> nan
  in
  {
    seed = spec.Shard.Spec.seed;
    wall_s = float_of_int (t1 - t0) *. 1e-9;
    cpu_s;
    err_pct;
    model;
    digest = Core.Persist.to_string model;
    ops = Array.length (Sys.readdir (Filename.concat dir "claims"));
    layers =
      ("respawns", float_of_int outcome.Shard.Coordinator.respawns)
      :: (if traced then worker_stack ~dir ~t0 ~t1 else []);
  }

(* Per-layer costs of a finished sharded run, timed by calling the shard
   layer's public functions on its run directory: the coordinator's tail
   (context, merge scan, reassembly), the stage computations the workers
   ran (replayed in-process on one domain, as each worker runs them), and
   the fixed cost of one worker process (spawned against the finished
   run, where it finds every unit committed and exits). *)
let shard_layers ~archpred ~dir spec =
  let fingerprint = Shard.Spec.fingerprint spec in
  let journals = Filename.concat dir "journals" in
  let journal_bytes =
    Array.fold_left
      (fun a n -> a + file_bytes (Filename.concat journals n))
      0 (Sys.readdir journals)
  in
  let per_worker =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun n -> Filename.check_suffix n ".jsonl")
    |> List.map (fun n -> trace_of_events (events_of_jsonl (Filename.concat dir n)))
  in
  let ctx, create_s = timed (fun () -> Shard.Stages.create spec) in
  let scan, scan_s = timed (fun () -> Shard.Journal.scan_dir ~dir ~fingerprint) in
  let stage_s (st : Shard.Stages.stage) =
    snd (timed (fun () -> st.Shard.Stages.compute scan ~lo:0 ~hi:st.Shard.Stages.count))
  in
  let test_s = Option.fold ~none:0. ~some:stage_s (Shard.Stages.test_stage ctx) in
  let lhs_s = stage_s (Shard.Stages.lhs_stage ctx ~step:0) in
  let sim_s =
    List.fold_left ( +. ) test_s
      (List.init (Shard.Stages.n_steps ctx) (fun step ->
           stage_s (Shard.Stages.sim_stage ctx ~step)))
  in
  let _, assemble_s = timed (fun () -> Shard.Stages.assemble ctx scan) in
  let probe = worker_argv ~archpred ~dir ~traced:false "probe" in
  let start_s =
    snd
      (timed (fun () ->
           let pid =
             Unix.create_process probe.(0) probe Unix.stdin Unix.stdout
               Unix.stderr
           in
           match Unix.waitpid [] pid with
           | _, Unix.WEXITED 0 -> ()
           | _ -> failwith "probe worker failed"))
  in
  let units =
    Array.of_list
      (List.map (fun t -> float_of_int (counter t "shard.units_done")) per_worker)
  in
  let sum name = List.fold_left (fun a t -> a + counter t name) 0 per_worker in
  [
    ("trace_gen_s", create_s);
    ("sim_busy_s", sim_s);
    ("sim.runs", float_of_int (sum "sim.runs"));
    ("sim.instructions", float_of_int (sum "sim.instructions"));
    ("design.best_lhs_s", lhs_s);
    ("shard.scan_s", scan_s);
    ("shard.assemble_s", assemble_s);
    ("shard.worker_start_s", start_s);
    ("shard.journal_bytes", float_of_int journal_bytes);
    ("shard.units_per_worker", mean units);
    ("shard.unit_imbalance",
     ratio (Array.fold_left Float.max 0. units) (mean units));
  ]

(* The reference model, built [builds] times in a child process so that
   this process (the serve workloads' load generator) starts no domains:
   its path, the build walls and CPU seconds, host probes around the
   builds, its test error, and whether the builds agree byte for byte. *)
type reference = {
  path : string;
  walls : float array;
  cpus : float array;
  probes : float array;
  ref_err_pct : float;
  agree : bool;
}

let reference_model (o : opts) ~builds =
  let out = Filename.concat o.workdir "reference" in
  run_self [| "--reference-model"; out; string_of_int builds; string_of_bool o.small |];
  In_channel.with_open_text out (fun ic ->
      let floats l = Array.of_list (List.map float_of_string (String.split_on_char ',' l)) in
      Scanf.sscanf (In_channel.input_all ic) "%B %f %s %s %s@\n"
        (fun agree err walls cpus probes ->
          {
            path = out ^ ".model";
            walls = floats walls;
            cpus = floats cpus;
            probes = floats probes;
            ref_err_pct = err;
            agree;
          }))

(* [--reference-model OUT N SMALL]: the child side of [reference_model]. *)
let reference_main out n small =
  let probes = ref [] in
  let bs =
    List.init n (fun _ ->
        probes := probe_s () :: !probes;
        inprocess (spec ~small ~seed:reference_seed))
  in
  probes := probe_s () :: !probes;
  let first = List.hd bs in
  Core.Persist.save first.model (out ^ ".model");
  Out_channel.with_open_text out (fun oc ->
      let floats f = String.concat "," (List.map (fun b -> Printf.sprintf "%.9f" (f b)) bs) in
      Printf.fprintf oc "%B %.17g %s %s %s\n"
        (List.for_all (fun b -> String.equal b.digest first.digest) bs)
        first.err_pct
        (floats (fun b -> b.wall_s))
        (floats (fun b -> b.cpu_s))
        (String.concat "," (List.map (Printf.sprintf "%.9f") !probes)))

(* [--set-up SEED SMALL OUT]: build the inputs of the spec of [seed] (its
   trace and test points) through the program three times and write the
   CPU seconds each took to OUT, one a line.  A fresh process, because in the
   benchmark process the domains a build starts slow every later
   allocation-heavy step severalfold. *)
let set_up_main seed small out =
  let s = spec ~small ~seed in
  let times =
    List.init 3 (fun _ ->
        snd
          (cpu_timed (fun () ->
               ignore (Shard.Spec.response s);
               ignore
                 (Core.Paper_space.test_points
                    (Stats.Rng.create s.Shard.Spec.seed)
                    ~n:s.Shard.Spec.test_n))))
  in
  Out_channel.with_open_text out (fun oc ->
      List.iter (fun t -> Printf.fprintf oc "%.9f\n" t) times)

(* Run builds back to back for [seconds], cycling seeds, and at least
   until one seed has come round again, so every phase checks a repeat. *)
let phase ~seconds build specs =
  let t0 = now_ns () in
  let rec go i acc =
    if i > Array.length specs && seconds_since t0 >= seconds then List.rev acc
    else go (i + 1) (build specs.(i mod Array.length specs) :: acc)
  in
  go 0 []

(* Every repeat of a seed must reproduce the first build of that seed:
   the same model bytes and the same operation count. *)
let repeat_checks (builds : build list) =
  let first = Hashtbl.create 8 in
  List.concat_map
    (fun b ->
      match Hashtbl.find_opt first b.seed with
      | None ->
          Hashtbl.add first b.seed b;
          []
      | Some f ->
          (if String.equal f.digest b.digest then []
           else [ Printf.sprintf "seed %d: model differs on repeat" b.seed ])
          @
          if f.ops = b.ops then []
          else
            [ Printf.sprintf "seed %d: %d ops on repeat, %d first" b.seed b.ops f.ops ])
    builds

let firsts (builds : build list) =
  List.fold_left
    (fun acc b -> if List.exists (fun a -> a.seed = b.seed) acc then acc else acc @ [ b ])
    [] builds

let layer name (b : build) = Option.value ~default:0. (List.assoc_opt name b.layers)
let walls bs = Array.of_list (List.map (fun b -> b.wall_s) bs)
let cpus bs = Array.of_list (List.map (fun b -> b.cpu_s) bs)
let no_trace () = { spans = []; counters = [] }

let run ~is_sharded (o : opts) =
  let spec_of seed = spec ~small:o.small ~seed in
  let specs = Array.init cycle (fun j -> spec_of (build_seed ~seed:o.seed j)) in
  (* Set-up: ahead of each untraced build, its inputs built three times in
     a fresh process (see [set_up]).  The host's speed drifts over
     seconds, so the samples are spread over the whole run, as the builds
     are. *)
  let setup = ref [] in
  let set_up (s : Shard.Spec.t) =
    let out = Filename.concat o.workdir "set-up" in
    run_self [| "--set-up"; string_of_int s.Shard.Spec.seed; string_of_bool o.small; out |];
    In_channel.with_open_text out (fun ic ->
        List.iter
          (fun l -> if l <> "" then setup := float_of_string l :: !setup)
          (String.split_on_char '\n' (In_channel.input_all ic)))
  in
  let dir = Filename.concat o.workdir "shard" in
  let traced_builds = ref [] in
  (* This process's peak resident set during each untraced build, and a
     host probe on either side of it. *)
  let peaks = ref [] and probes = ref [] in
  let build ~traced s =
    if not traced then (
      set_up s;
      probes := probe_s () :: !probes;
      reset_peak_rss ());
    let obs, finish = if traced then recorder () else (Obs.null, no_trace) in
    let b =
      if is_sharded then sharded ~obs ~archpred:o.archpred ~dir ~traced s
      else inprocess ~obs s
    in
    if traced then traced_builds := (b, finish ()) :: !traced_builds
    else (
      peaks := vmhwm_mb "self" :: !peaks;
      probes := probe_s () :: !probes);
    b
  in
  let plain_s = if o.traced then o.seconds /. 2. else o.seconds in
  let plain = phase ~seconds:plain_s (build ~traced:false) specs in
  let rss = Quantile.median (Array.of_list !peaks) in
  let traced =
    if o.traced then phase ~seconds:(o.seconds /. 2.) (build ~traced:true) specs
    else []
  in
  let builds = plain @ traced in
  (* The run directory still holds the last traced sharded build. *)
  let stack =
    match !traced_builds with
    | (last, _) :: _ when is_sharded ->
        shard_layers ~archpred:o.archpred ~dir (spec_of last.seed)
    | _ -> []
  in
  (* Sharded models must be byte-identical to the in-process model of the
     same spec and seed; those in-process builds are also the base of
     [shard.overhead_ratio]. *)
  let inprocess_builds =
    if is_sharded then List.map (fun b -> inprocess (spec_of b.seed)) (firsts builds)
    else []
  in
  let plant = function
    | b :: rest when o.corrupt = Some "digest" -> { b with digest = b.digest ^ " " } :: rest
    | bs -> bs
  in
  let inprocess_builds = if is_sharded then plant inprocess_builds else inprocess_builds in
  let checks =
    repeat_checks (if is_sharded then builds else plant builds)
    @ List.concat_map
        (fun (r : build) ->
          List.filter_map
            (fun (b : build) ->
              if b.seed = r.seed && not (String.equal b.digest r.digest) then
                Some (Printf.sprintf "seed %d: sharded model differs from in-process" b.seed)
              else None)
            builds)
        inprocess_builds
  in
  let models = firsts builds in
  let err_pct = mean (Array.of_list (List.map (fun b -> b.err_pct) models)) in
  (* Simulated design points per build: counted in-process; a sharded
     build of a seed simulates the points of the in-process build of it. *)
  let points (b : build) =
    if not is_sharded then b.ops
    else (List.find (fun (r : build) -> r.seed = b.seed) inprocess_builds).ops
  in
  let probes = Array.of_list !probes in
  let e2e =
    [
      ("train_cpu_s", at_reference probes (Quantile.median (cpus plain)), "s");
      ( "op_cpu_us",
        at_reference probes
          (Quantile.median
             (Array.of_list (List.map (fun b -> b.cpu_s /. float_of_int (points b) *. 1e6) plain))),
        "us" );
      ("setup_s", at_reference probes (Quantile.median (Array.of_list !setup)), "s");
      ("peak_rss_mb", rss, "MiB");
    ]
  in
  let layers =
    match List.rev !traced_builds with
    | [] -> []
    | tb ->
        let mt f = Quantile.median (Array.of_list (List.map f tb)) in
        let c name t = float_of_int (counter t name) in
        let l name = Option.value ~default:0. (List.assoc_opt name stack) in
        let trace_gen, sim_busy, sim_runs, sim_inst, lhs, explained =
          if is_sharded then
            ( l "trace_gen_s", l "sim_busy_s", l "sim.runs", l "sim.instructions",
              l "design.best_lhs_s",
              mt (fun (b, _) ->
                  (layer "shard.spawn_s" b +. layer "shard.worker_cpu_s" b
                   +. layer "shard.poll_sleep_s" b +. layer "shard.fsync_s" b
                   +. l "trace_gen_s" +. l "shard.scan_s" +. l "shard.assemble_s")
                  /. b.wall_s) )
          else
            ( mt (fun (b, _) -> layer "trace_gen_s" b),
              mt (fun (b, _) -> layer "sim_busy_s" b),
              mt (fun (_, t) -> c "sim.runs" t),
              mt (fun (_, t) -> c "sim.instructions" t),
              mt (fun (_, t) -> span t "design.best_lhs"),
              mt (fun (b, t) ->
                  (layer "trace_gen_s" b +. layer "sim_busy_s" b
                   +. span t "design.best_lhs" +. span t "build.refit")
                  /. b.wall_s) )
        in
        let sharded_s = if is_sharded then Quantile.median (walls plain) else 0. in
        let inprocess_s = if is_sharded then Quantile.median (walls inprocess_builds) else 0. in
        [
          ("model.err_pct", err_pct, "%");
          ("workloads.trace_gen_s", trace_gen, "s");
          ("sim.busy_s", sim_busy, "s");
          ("sim.minst_per_s", ratio sim_inst sim_busy /. 1e6, "Minst/s");
          ("sim.runs", sim_runs, "count");
          ("design.best_lhs_s", lhs, "s");
          ("core.refit_s", mt (fun (_, t) -> span t "build.refit"), "s");
          ( "rbf.centers_kept_ratio",
            mt (fun (_, t) -> ratio (c "rbf.centers_kept" t) (c "rbf.centers_tried" t)),
            "ratio" );
          ( "refit.pushed_share",
            mt (fun (_, t) ->
                let p = c "refit.rows_pushed" t in
                ratio p (p +. c "refit.rows_full" t)),
            "ratio" );
          ("train.unattributed_share", 1. -. explained, "ratio");
          ("shard.units_per_worker", l "shard.units_per_worker", "count");
          ("shard.unit_imbalance", l "shard.unit_imbalance", "ratio");
          ("shard.journal_bytes", l "shard.journal_bytes", "bytes");
          ("shard.scan_s", l "shard.scan_s", "s");
          ("shard.assemble_s", l "shard.assemble_s", "s");
          ("shard.worker_start_s", l "shard.worker_start_s", "s");
          ("shard.spawn_s", mt (fun (b, _) -> layer "shard.spawn_s" b), "s");
          ("shard.worker_cpu_s", mt (fun (b, _) -> layer "shard.worker_cpu_s" b), "s");
          ("shard.poll_sleep_s", mt (fun (b, _) -> layer "shard.poll_sleep_s" b), "s");
          ("shard.fsync_s", mt (fun (b, _) -> layer "shard.fsync_s" b), "s");
          ("shard.tail_s", mt (fun (b, _) -> layer "shard.tail_s" b), "s");
          ("shard.respawns", Array.fold_left ( +. ) 0. (Array.of_list (List.map (layer "respawns") builds)), "count");
          ("shard.sharded_s", sharded_s, "s");
          ("shard.inprocess_s", inprocess_s, "s");
          ("shard.overhead_ratio", ratio sharded_s inprocess_s, "ratio");
          ("train.wall_s", Quantile.median (walls plain), "s");
          ("host.probe_s", Quantile.median probes, "s");
          ( "trace_overhead_pct",
            ((mt (fun (b, _) -> b.cpu_s) /. Quantile.median (cpus plain)) -. 1.) *. 100.,
            "%" );
        ]
  in
  (* Stages must account for at least 90% of the build's wall time.  Not
     at reduced size, where a sharded build takes ~0.1 s and the
     coordinator's 50 ms exit poll alone is half of it. *)
  let checks =
    match List.find_opt (fun (n, _, _) -> n = "train.unattributed_share") layers with
    | Some (_, v, _) when v > 0.10 && not o.small ->
        checks @ [ Printf.sprintf "layer times explain only %.1f%% of train_s" ((1. -. v) *. 100.) ]
    | _ -> checks
  in
  let respawns = List.fold_left (fun a b -> a + int_of_float (layer "respawns" b)) 0 builds in
  {
    attempted = List.length builds + List.length inprocess_builds;
    failed = respawns + List.length checks;
    checks;
    metrics = e2e @ layers;
    notes =
      [
        ("probe_s", Json.Float (Quantile.median probes));
        ( "builds",
          Json.List
            (List.map
               (fun b ->
                 Json.Obj
                   [ ("seed", Json.Int b.seed); ("wall_s", Json.Float b.wall_s);
                     ("cpu_s", Json.Float b.cpu_s);
                     ("err_pct", Json.Float b.err_pct);
                     ("centers", Json.Int (Core.Predictor.n_centers b.model)) ])
               builds) );
      ];
  }
