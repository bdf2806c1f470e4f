(** Batched multi-config simulation.

    [run configs trace] produces, for every configuration, exactly the
    result of [Processor.run cfg trace] — bit-identical, enforced by
    QCheck replay properties — while decoding the trace once and
    sharing everything that does not depend on the configuration:

    - the instruction streams (opcodes, absolute operand producers,
      addresses, PCs, branch outcomes, the older-store chain) live in
      one flat struct-of-arrays {!plan} read by every config;
    - the branch predictor interacts with the trace in pure program
      order, so its per-branch mispredict outcomes are computed once
      per distinct predictor configuration and shared;
    - an L1's warm-up state depends only on its geometry (size, line,
      associativity, policy — not latency), so each distinct IL1 and DL1
      geometry is warmed once; every config copies the warm L1 states and
      replays only the L1 misses through its own L2 and DRAM.  These
      shared states live for one [run_plan] call;
    - the per-config cycle walk skips provably quiet stretches (cache
      fills, misprediction refills, long dependency chains) in one
      jump instead of cycling through them.

    The natural unit is the LHS candidate batch of a training run: the
    same workload trace evaluated under tens of design points.  Configs
    fan out over the domain pool when [domains > 1]; results are in
    input order and independent of the domain count. *)

type plan
(** A workload trace decoded into shared, immutable simulation streams.
    Safe to reuse across [run_plan] calls and across domains. *)

val plan : Trace.t -> plan
(** Decode [trace] once.  O(length) time and memory. *)

val length : plan -> int
(** Number of instructions in the decoded trace. *)

val run_plan :
  ?max_cycles:int ->
  ?warm:bool ->
  ?domains:int ->
  plan ->
  Config.t array ->
  Processor.result array
(** Simulate every configuration against the decoded trace.
    [warm] (default [true]) pre-heats caches and predictor exactly as
    [Processor.run] does.  Raises [Invalid_argument] if any config
    fails validation, and [Processor.Cycle_limit_exceeded] as the
    reference would.  With [domains > 1] configs are simulated on the
    domain pool; results are bit-identical at every domain count. *)

val run :
  ?max_cycles:int ->
  ?warm:bool ->
  ?domains:int ->
  Config.t array ->
  Trace.t ->
  Processor.result array
(** [run configs trace] is [run_plan (plan trace) configs]. *)

val cpi :
  ?max_cycles:int ->
  ?warm:bool ->
  ?domains:int ->
  Config.t array ->
  Trace.t ->
  float array
(** Cycles per instruction of every config, as [Processor.cpi]. *)
