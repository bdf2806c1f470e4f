(** The batched-simulation throughput record behind [bench --sim].

    Simulates a deterministic spread of processor configurations — every
    cache-replacement policy represented — over one decoded workload
    trace, through the sequential reference ({!Archpred_sim.Processor.run},
    one full decode-and-walk per config) and the batched engine
    ({!Archpred_sim.Batch}), and reports per-config simulation rates and
    the aggregate batching speedup.  Every batched result is checked
    bit-identical against its sequential reference; the [sim] section of
    [BENCH_parallel.json] is the committed record. *)

type rate = {
  name : string;  (** ["config_NN"], the index into the spread *)
  policy : string;  (** replacement policy, {!Archpred_sim.Cache.Policy} *)
  cpi : float;
  inst_per_sec : float;  (** sequential-reference simulation rate *)
}

type speedup = {
  batch : int;  (** configs simulated together *)
  sequential_s : float;
      (** summed [Processor.run] time of those configs, median over the
          repetitions *)
  batched_s : float;  (** one [Batch.run_plan] over them, median *)
  speedup : float;  (** [sequential_s /. batched_s] *)
  sequential_range_s : float * float;  (** min and max over the repetitions *)
  batched_range_s : float * float;  (** min and max over the repetitions *)
}

type result = {
  trace_length : int;
  n_configs : int;
  reps : int;  (** interleaved timing repetitions behind each figure *)
  rates : rate list;
  speedups : speedup list;
  bit_identical : bool;
      (** every batched result matched its sequential reference bitwise *)
}

val configs : int -> Archpred_sim.Config.t array
(** The deterministic configuration spread ([n] entries); cycles through
    all four replacement policies and a range of pipeline, window and
    cache shapes. *)

val run :
  ?trace_length:int ->
  ?n_configs:int ->
  ?batches:int list ->
  unit ->
  result
(** Measure (defaults: 20_000-instruction mcf trace, 16 configs, batch
    sizes [[1; 4; 16]]) over 5 repetitions.  Each repetition times every
    config sequentially and then every batch size, so the two engines
    are interleaved; each time is the median over the repetitions, with
    its range kept beside it.  The simulated values are deterministic;
    only the timings vary run to run.  Raises
    [Archpred (Invalid_input _)] on a degenerate budget or a batch size
    outside [[1, n_configs]]. *)

val json_of_result : result -> Archpred_obs.Json.t
(** The [sim] section payload. *)

val record : ?path:string -> result -> unit
(** Merge the [sim] section into the report at [path] (default
    [BENCH_parallel.json]), preserving the micro-benchmark [results]
    section if one is present. *)
