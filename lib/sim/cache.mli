(** Set-associative caches with pluggable replacement policies.

    Three instances form the simulated hierarchy: split L1 instruction and
    data caches backed by a unified L2 (the L2 size and latency, and the L1
    sizes and data latency, are five of the paper's nine design
    parameters).  The cache is a timing structure only — no data is stored,
    just tags and recency.

    Replacement is selected per cache through {!Policy}: the original
    age-stamp LRU (the default, bit-identical to the pre-policy
    implementation), Tree-PLRU, a QLRU variant, and MRU (bit-PLRU) — the
    deterministic policies reverse-engineered from real Intel parts. *)

module Policy : sig
  type t =
    | Lru  (** true LRU via monotone age stamps *)
    | Tree_plru  (** binary-tree pseudo-LRU; needs power-of-two ways *)
    | Qlru  (** 2-bit quad-age LRU: hit → 0, fill at 1, evict age 3 *)
    | Mru  (** bit-PLRU: MRU bit per line with global flip *)

  val all : t array
  (** Every policy, in the fixed order used by the design-space axis. *)

  val to_string : t -> string
  val of_string : string -> t option
  val pp : Format.formatter -> t -> unit
end

type config = {
  size_bytes : int;  (** total capacity; any multiple of [line * assoc] *)
  line_bytes : int;  (** line size; power of two *)
  associativity : int;  (** ways per set; [size / line / assoc] sets *)
  latency : int;  (** hit latency in cycles *)
  policy : Policy.t;  (** replacement policy *)
}

val config :
  ?policy:Policy.t ->
  size_bytes:int ->
  line_bytes:int ->
  associativity:int ->
  latency:int ->
  unit ->
  config
(** Validated constructor ([policy] defaults to [Lru]). Raises
    [Invalid_argument] on a non-power-of-two line size, zero ways, capacity
    smaller than [line * assoc], a capacity that is not a whole number of
    sets, or a Tree-PLRU cache whose associativity is not a power of two.
    Arbitrary set counts are supported (indexing is modulo), so the design
    space can vary cache capacity continuously rather than in power-of-two
    jumps. *)

val same_geometry : config -> config -> bool
(** Same capacity, line size, associativity and policy.  Latency is not
    compared: it times an access but never changes which line an access
    hits or evicts. *)

type t

val create : config -> t

val copy_state : src:t -> dst:t -> unit
(** [copy_state ~src ~dst] gives [dst] the lookup state of [src]: tags,
    recency (age stamps, tree bits) and the access clock.  From then on the
    two answer every access sequence with the same hits and misses.
    Statistics are not copied.  Raises [Invalid_argument] unless the two
    caches' configs satisfy {!same_geometry}. *)

val latency : t -> int
val sets : t -> int
val ways : t -> int
val policy : t -> Policy.t

val access : t -> int -> bool
(** [access t addr] probes the line containing byte [addr]; returns [true]
    on hit.  On miss the line is filled into an invalid way if one exists,
    otherwise into the victim chosen by the replacement policy. *)

val probe : t -> int -> bool
(** Hit test without any state update. *)

val invalidate_all : t -> unit

type stats = { accesses : int; misses : int }

val stats : t -> stats
val miss_rate : t -> float
val reset_stats : t -> unit
