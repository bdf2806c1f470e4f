(* The workload registry and the result line.  The metric names and units
   here are the ones BENCHMARK.json declares; the benchmark's own test
   checks that the two agree. *)

open Measure

let workloads =
  [
    ("train-sim", Train.run ~is_sharded:false);
    ("train-sharded", Train.run ~is_sharded:true);
    ("serve-hot", Serve.run ~hot:true);
    ("serve-cold", Serve.run ~hot:false);
  ]

let end_to_end =
  [
    ("train_cpu_s", "s");
    ("op_cpu_us", "us");
    ("ok_share", "ratio");
    ("setup_s", "s");
    ("peak_rss_mb", "MiB");
  ]

let per_layer =
  [
    ("model.err_pct", "%");
    ("workloads.trace_gen_s", "s");
    ("sim.busy_s", "s");
    ("sim.minst_per_s", "Minst/s");
    ("sim.runs", "count");
    ("design.best_lhs_s", "s");
    ("core.refit_s", "s");
    ("rbf.centers_kept_ratio", "ratio");
    ("refit.pushed_share", "ratio");
    ("train.unattributed_share", "ratio");
    ("shard.units_per_worker", "count");
    ("shard.unit_imbalance", "ratio");
    ("shard.journal_bytes", "bytes");
    ("shard.scan_s", "s");
    ("shard.assemble_s", "s");
    ("shard.worker_start_s", "s");
    ("shard.spawn_s", "s");
    ("shard.worker_cpu_s", "s");
    ("shard.poll_sleep_s", "s");
    ("shard.fsync_s", "s");
    ("shard.tail_s", "s");
    ("shard.respawns", "count");
    ("shard.sharded_s", "s");
    ("shard.inprocess_s", "s");
    ("shard.overhead_ratio", "ratio");
    ("persist.load_s", "s");
    ("frame.server_ns_per_req", "ns");
    ("frame.client_ns_per_req", "ns");
    ("kernel.ns_per_pt", "ns");
    ("memo.ns_per_pt", "ns");
    ("memo.hit_rate", "ratio");
    ("memo.evictions", "count");
    ("daemon.mean_batch", "count");
    ("daemon.residual_ns_per_pred", "ns");
    ("daemon.shed", "count");
    ("daemon.timeouts", "count");
    ("daemon.lost", "count");
    ("client.busy_share", "ratio");
    ("client.p99_us", "us");
    ("client.p999_us", "us");
    ("client.samples", "count");
    ("train.wall_s", "s");
    ("host.probe_s", "s");
    ("serve.pred_per_s", "1/s");
    ("serve.p50_us", "us");
    ("trace_overhead_pct", "%");
  ]

(* Host and provenance stamp, printed ahead of the result line. *)
let provenance (o : opts) ~workload =
  Json.Obj
    (("provenance", Json.Bool true)
     :: ("workload", Json.String workload)
     :: ("nproc", Json.Int (Domain.recommended_domain_count ()))
     :: Archpred_core.Bench_report.metadata ()
    @ [
        ("ocaml", Json.String Sys.ocaml_version);
        ("seed", Json.Int o.seed);
        ("seconds", Json.Float o.seconds);
        ("trace", Json.Bool o.traced);
      ])

(* The result line: every end-to-end metric (or, traced, every per-layer
   metric), each with its unit.  A per-layer metric of a layer the
   workload does not run reads 0. *)
let result_json (o : opts) (r : result) =
  let ok_share = 1. -. ratio (float_of_int r.failed) (float_of_int r.attempted) in
  let measured = ("ok_share", ok_share, "ratio") :: r.metrics in
  let names = if o.traced then per_layer else end_to_end in
  let metric (name, unit_) =
    let value =
      match List.find_opt (fun (n, _, _) -> n = name) measured with
      | Some (_, v, _) -> v
      | None when o.traced -> 0.
      | None -> failwith ("workload did not measure " ^ name)
    in
    (name, Json.Obj [ ("value", Json.Float value); ("unit", Json.String unit_) ])
  in
  Json.Obj
    [
      ("correct", Json.Bool (r.checks = []));
      ("attempted", Json.Int r.attempted);
      ("failed", Json.Int r.failed);
      ("metrics", Json.Obj (List.map metric names));
    ]

(* Run one workload in a fresh work directory, always removing it. *)
let run (o : opts) ~workload =
  match List.assoc_opt workload workloads with
  | None -> invalid_arg ("unknown workload " ^ workload)
  | Some f ->
      if not (Sys.file_exists o.archpred) then
        invalid_arg ("archpred executable not found: " ^ o.archpred);
      rm_rf o.workdir;
      mkdir_p o.workdir;
      Fun.protect
        ~finally:(fun () ->
          Serve.kill_live ();
          rm_rf o.workdir)
        (fun () -> f o)

(* Run and print: provenance, notes, failed checks, and the result line
   last. *)
let report (o : opts) ~workload =
  (* A daemon that dies mid-write must not kill the client. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  print_endline (Json.to_string (provenance o ~workload));
  let r = run o ~workload in
  if r.notes <> [] then print_endline (Json.to_string (Json.Obj r.notes));
  List.iter (fun c -> print_endline ("check failed: " ^ c)) r.checks;
  print_endline (Json.to_string (result_json o r));
  r

(* The child modes this executable is started in by the workloads: the
   [--timed-child] shim of traced train-sharded workers, the [--set-up]
   timer and the [--reference-model] trainer.  Returns
   when this process is none of them. *)
let child_main () =
  match Array.to_list Sys.argv with
  | _ :: "--timed-child" :: out :: "--" :: cmd ->
      (* archpred-lint: allow exit -- the shim exits with the worker's status *)
      exit (Train.timed_child out (Array.of_list cmd))
  | [ _; "--set-up"; seed; small; out ] ->
      Train.set_up_main (int_of_string seed) (bool_of_string small) out;
      (* archpred-lint: allow exit -- a finished child mode ends the process *)
      exit 0
  | [ _; "--reference-model"; out; n; small ] ->
      Train.reference_main out (int_of_string n) (bool_of_string small);
      (* archpred-lint: allow exit -- a finished child mode ends the process *)
      exit 0
  | _ -> ()
