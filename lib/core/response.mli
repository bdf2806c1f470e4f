(** Response functions: the black box that maps a design point to CPI.

    Model construction only ever sees a function from normalised design
    points to a scalar response.  The production instance runs the
    cycle-level simulator on a fixed benchmark trace (step 3 of the
    paper's procedure); synthetic instances provide cheap, closed-form
    surfaces for tests and ablations. *)

type t = {
  name : string;
  eval : Archpred_design.Space.point -> float;
  eval_many :
    (?domains:int -> Archpred_design.Space.point array -> float array) option;
      (** Batched evaluator, when the response has one.  Must agree
          bit-for-bit with mapping {!field-eval} over the batch; callers
          reach it through {!evaluate_many}, which falls back to a
          pointwise map when absent. *)
}

val make :
  ?eval_many:
    (?domains:int -> Archpred_design.Space.point array -> float array) ->
  string ->
  (Archpred_design.Space.point -> float) ->
  t
(** [make name eval] builds a response; [?eval_many] installs a batched
    evaluator (omitted: {!evaluate_many} maps [eval] pointwise). *)

val simulator :
  ?obs:Archpred_obs.t ->
  ?trace_length:int ->
  ?seed:int ->
  ?to_config:(Archpred_design.Space.point -> Archpred_sim.Config.t) ->
  Archpred_workloads.Profile.t ->
  t
(** CPI of the benchmark's synthetic trace, simulated at the decoded
    configuration of each design point.  The trace is generated once
    (default 100_000 instructions) and reused at every design point, as a
    trace-driven simulator would.  Results are memoised per point; each
    cache miss bumps the ["sim.runs"] and ["sim.instructions"] counters on
    [obs] (domain-safe — evaluation happens on worker domains).

    Every simulation runs on {!Archpred_sim.Batch} over one decoded plan of
    the trace, built on first use: a pointwise [eval] simulates its point as
    a batch of one, and {!evaluate_many} fans un-memoised points out across
    configurations.  Both are bit-identical to
    {!Archpred_sim.Processor.run}.

    [to_config] decodes points into simulator configurations (default
    {!Paper_space.to_config}); pass {!Paper_space.to_config_extended} to
    train over the ten-axis space with the cache-policy dimension. *)

type metric = Cpi | Energy_per_instruction | Energy_delay_product
(** Simulated response metrics.  The paper's conclusion points at power as
    the next metric to model; {!Archpred_sim.Power} supplies the energy
    accounting. *)

val metric_to_string : metric -> string

val simulator_metric :
  ?obs:Archpred_obs.t ->
  ?trace_length:int ->
  ?seed:int ->
  ?to_config:(Archpred_design.Space.point -> Archpred_sim.Config.t) ->
  metric:metric ->
  Archpred_workloads.Profile.t ->
  t
(** Like {!simulator} but for any supported metric ([~metric:Cpi] is
    equivalent to {!simulator}). *)

val evaluate_many :
  ?domains:int -> t -> Archpred_design.Space.point array -> float array
(** Evaluate a batch of points.  Simulator-backed responses route through
    the batched {!Archpred_sim.Batch} engine (trace decoded once, configs
    fanned out over domains); other responses map {!field-eval} in parallel
    across domains.  Memoised points are not re-simulated. *)

val synthetic_smooth : dim:int -> t
(** A smooth non-linear surface with interactions: exercises the whole
    modelling stack in milliseconds.  Positive everywhere. *)

val synthetic_cliff : dim:int -> t
(** A surface with a sharp response change along dimension 0 — the shape
    linear models cannot capture. *)
