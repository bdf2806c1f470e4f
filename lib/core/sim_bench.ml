module Sim = Archpred_sim
module Obs = Archpred_obs
module Json = Archpred_obs.Json

type rate = {
  name : string;
  policy : string;
  cpi : float;
  inst_per_sec : float;
}

type speedup = {
  batch : int;
  sequential_s : float;
  batched_s : float;
  speedup : float;
  sequential_range_s : float * float;
  batched_range_s : float * float;
}

type result = {
  trace_length : int;
  n_configs : int;
  reps : int;
  rates : rate list;
  speedups : speedup list;
  bit_identical : bool;
}

(* A deterministic spread of configurations covering every replacement
   policy and a range of pipeline/window/cache shapes — the same spread
   the batch bit-identity tests walk. *)
let configs n =
  Array.init n (fun k ->
      let j = 3 + (7 * k) in
      let rob = 16 + (8 * (j mod 9)) in
      Sim.Config.make
        ~cache_policy:Sim.Cache.Policy.all.(j mod 4)
        ~pipe_depth:(7 + (j mod 12))
        ~rob_size:rob
        ~iq_size:(max 1 (rob / 2))
        ~lsq_size:(max 1 (rob / 2))
        ~l2_size:((1 lsl 17) + (65536 * (j mod 8)))
        ~l2_latency:(8 + (j mod 6))
        ~il1_size:(8192 lsl (j mod 3))
        ~dl1_size:(8192 lsl (j mod 3))
        ~dl1_latency:(1 + (j mod 4))
        ())

let now () = Int64.to_float (Obs.now_ns ())

let results_identical (a : Sim.Processor.result) (b : Sim.Processor.result) =
  let feq x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y) in
  a.Sim.Processor.instructions = b.Sim.Processor.instructions
  && a.Sim.Processor.cycles = b.Sim.Processor.cycles
  && feq a.Sim.Processor.cpi b.Sim.Processor.cpi
  && feq a.Sim.Processor.branch_accuracy b.Sim.Processor.branch_accuracy

let median xs = Archpred_stats.Quantile.median xs

let range xs = (Array.fold_left Float.min infinity xs, Array.fold_left Float.max neg_infinity xs)

(* interleaved timing repetitions behind each figure *)
let reps = 5

let run ?(trace_length = 20_000) ?(n_configs = 16) ?(batches = [ 1; 4; 16 ]) () =
  if trace_length < 1 then
    Obs.Error.invalid_input ~where:"Sim_bench.run" "trace_length < 1";
  if n_configs < 1 then
    Obs.Error.invalid_input ~where:"Sim_bench.run" "n_configs < 1";
  List.iter
    (fun b ->
      if b < 1 || b > n_configs then
        Obs.Error.invalid_input ~where:"Sim_bench.run"
          "batch size outside [1, n_configs]")
    batches;
  let trace =
    Archpred_workloads.Generator.generate ~seed:7
      Archpred_workloads.Spec2000.mcf ~length:trace_length
  in
  let cfgs = configs n_configs in
  let plan = Sim.Batch.plan trace in
  (* Warm-up: touch both paths once so neither pays first-run costs. *)
  ignore (Sim.Processor.run cfgs.(0) trace);
  ignore (Sim.Batch.run_plan plan [| cfgs.(0) |]);
  (* [reps] interleaved repetitions: each times every config through the
     sequential reference [Processor.run], then every batch size through
     [Batch.run_plan], so both engines sample the same stretch of host
     noise.  Every figure below is a median over the repetitions. *)
  let batches = Array.of_list batches in
  let seq_times = Array.make_matrix n_configs reps 0. in
  let batch_times = Array.make_matrix (Array.length batches) reps 0. in
  (* the first repetition's sequential results are the reference every
     later result must match bit for bit *)
  let reference = ref [||] in
  let identical = ref true in
  let check_all got =
    Array.iteri
      (fun i r -> if not (results_identical r !reference.(i)) then identical := false)
      got
  in
  for k = 0 to reps - 1 do
    let sequential =
      Array.mapi
        (fun i cfg ->
          let t0 = now () in
          let r = Sim.Processor.run cfg trace in
          seq_times.(i).(k) <- (now () -. t0) /. 1e9;
          r)
        cfgs
    in
    if k = 0 then reference := sequential else check_all sequential;
    Array.iteri
      (fun j b ->
        let sub = Array.sub cfgs 0 b in
        let t0 = now () in
        let batched = Sim.Batch.run_plan plan sub in
        batch_times.(j).(k) <- (now () -. t0) /. 1e9;
        check_all batched)
      batches
  done;
  let rates =
    List.init n_configs (fun i ->
        {
          name = Printf.sprintf "config_%02d" i;
          policy = Sim.Cache.Policy.to_string cfgs.(i).Sim.Config.cache_policy;
          cpi = !reference.(i).Sim.Processor.cpi;
          inst_per_sec = float_of_int trace_length /. median seq_times.(i);
        })
  in
  let speedups =
    Array.to_list
      (Array.mapi
         (fun j b ->
           (* one repetition's sequential time for a batch is the sum
              of its configs' times in that repetition *)
           let seq =
             Array.init reps (fun k ->
                 let t = ref 0. in
                 for i = 0 to b - 1 do
                   t := !t +. seq_times.(i).(k)
                 done;
                 !t)
           in
           let sequential_s = median seq and batched_s = median batch_times.(j) in
           {
             batch = b;
             sequential_s;
             batched_s;
             speedup = sequential_s /. batched_s;
             sequential_range_s = range seq;
             batched_range_s = range batch_times.(j);
           })
         batches)
  in
  {
    trace_length;
    n_configs;
    reps;
    rates;
    speedups;
    bit_identical = !identical;
  }

let json_of_result r =
  Json.Obj
    [
      ("trace_length", Json.Int r.trace_length);
      ("n_configs", Json.Int r.n_configs);
      ("reps", Json.Int r.reps);
      ( "rates",
        Json.List
          (List.map
             (fun c ->
               Json.Obj
                 [
                   ("name", Json.String c.name);
                   ("policy", Json.String c.policy);
                   ("cpi", Json.Float c.cpi);
                   ("inst_per_sec", Json.Float c.inst_per_sec);
                 ])
             r.rates) );
      ( "speedups",
        Json.List
          (List.map
             (fun s ->
               Json.Obj
                 [
                   ("batch", Json.Int s.batch);
                   ("sequential_s", Json.Float s.sequential_s);
                   ("batched_s", Json.Float s.batched_s);
                   ("speedup", Json.Float s.speedup);
                   ("sequential_min_s", Json.Float (fst s.sequential_range_s));
                   ("sequential_max_s", Json.Float (snd s.sequential_range_s));
                   ("batched_min_s", Json.Float (fst s.batched_range_s));
                   ("batched_max_s", Json.Float (snd s.batched_range_s));
                 ])
             r.speedups) );
      ("bit_identical", Json.Bool r.bit_identical);
    ]

let record ?(path = "BENCH_parallel.json") r =
  (* [preserved] keeps the micro-benchmark section written by the
     Bechamel run; the two writers share BENCH_parallel.json. *)
  Bench_report.write ~path ~schema:"archpred-parallel-v1"
    (Bench_report.preserved ~path [ "results" ]
    @ [ ("sim", json_of_result r) ])
