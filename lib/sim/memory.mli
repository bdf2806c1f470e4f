(** The simulated memory hierarchy: split L1s, unified L2, DRAM.

    Timing composition for a demand access issued at cycle [c]:
    L1 hit completes at [c + l1.latency]; an L1 miss probes the L2 and, on
    an L2 hit, completes at [c + l1.latency + l2.latency]; an L2 miss goes
    to DRAM (with bank/bus queueing) and additionally pays both cache
    latencies on the way.  Caches are modelled as non-blocking: concurrent
    misses overlap freely except where DRAM bank and bus occupancy
    serialise them. *)

type t

val create :
  ?l2_prefetch:bool ->
  il1:Cache.config ->
  dl1:Cache.config ->
  l2:Cache.config ->
  dram:Dram.config ->
  unit ->
  t
(** [l2_prefetch] (default [false]) enables a next-line prefetcher at the
    L2: every demand L2 miss also fetches the following line into the L2.
    The prefetch itself is not waited for, but it occupies a DRAM bank and
    the bus, so useless prefetches steal real bandwidth. *)

val fetch : t -> cycle:int -> addr:int -> int
(** Instruction fetch of the line containing [addr]; returns the completion
    cycle. *)

val load : t -> cycle:int -> addr:int -> int
(** Data load; returns the completion cycle. *)

val store : t -> cycle:int -> addr:int -> unit
(** Data store, performed at commit: updates cache state (write-allocate)
    and occupies DRAM resources on an L2 miss, but does not produce a
    completion time — stores retire without stalling. *)

val l1_miss : t -> cycle:int -> addr:int -> int
(** The rest of a {!fetch} or {!load} whose L1 lookup missed, the lookup
    having finished at [cycle] (the issue cycle plus the L1 latency): the
    L2 access, on an L2 miss the DRAM access and the next-line prefetch.
    Returns the completion cycle.  [fetch] and [load] are an L1 access
    followed by this on a miss, so replaying an L1 miss stream through
    [l1_miss] leaves the L2 and DRAM exactly as the full accesses would. *)

val store_miss : t -> cycle:int -> addr:int -> unit
(** The rest of a {!store} whose DL1 lookup missed: the L2 access and, on
    an L2 miss, the DRAM access at [cycle] (no prefetch). *)

val il1 : t -> Cache.t
val dl1 : t -> Cache.t
val l2 : t -> Cache.t
val dram : t -> Dram.t

val reset_stats : t -> unit
