(** The prediction daemon: a single-threaded [Unix.select] event loop
    that serves {!Frame} requests (JSON lines and binary, auto-detected
    per frame) over a Unix or TCP socket, batching requests across
    connections onto the SIMD kernel behind the quantized LRU memo.

    Robustness properties, each verifiable through the fault sites
    below and the counters in {!stats}:

    - {b isolation} — a malformed frame costs its own connection a
      [bad_request] reply and the read side of that socket, nothing
      more; requests it sent before desyncing are still answered;
    - {b backpressure} — the ingress queue is bounded ([max_pending];
      excess requests answer [overloaded]), queued requests expire
      against [deadline_ns] (answering [timeout]), and a peer that
      stops reading is disconnected once its egress window holds more
      than [max_egress] unsent bytes;
    - {b batched egress} — replies are encoded, in order, onto one
      byte window per connection, and each loop turn makes one write
      per connection for everything buffered; a short write leaves the
      rest for the next turn.  A reply counts as answered once the
      bytes flushed reach its frame's end, tracked on a ring of end
      offsets;
    - {b graceful drain} — {!request_drain} closes the listener,
      answers everything already accepted, flushes every socket and
      returns with [lost = 0];
    - {b hot reload} — {!request_reload} (or the JSON
      [{"cmd":"reload"}] control message) loads a model with
      {!Archpred_core.Persist} (CRC-checked), probes it — the batched
      kernel must agree bitwise with the scalar oracle on a grid
      sample — and swaps predictor and cache only on success; any
      failure keeps the old model serving.

    Fault-injection sites (see {!Archpred_fault.Fault}):
    ["serve.accept"] before each accept, ["serve.read"] before each
    socket read, ["serve.write"] before each socket write,
    ["serve.reload"] at reload entry.  An injected fault is absorbed as
    the corresponding I/O failure (skipped accept round, one dead
    connection, one failed reload) — never a crash.

    {!run} sets [SIGPIPE] to ignored for the whole process: a peer that
    closes with replies still owed then fails that connection's write
    with [EPIPE] (the connection dies and its unflushed replies count
    as [lost]) instead of killing the process. *)

type listener = Unix_socket of string | Tcp of { host : string; port : int }

type config = {
  listener : listener;
  max_pending : int;  (** ingress bound: beyond it requests are shed *)
  max_batch : int;  (** largest batch handed to the kernel *)
  deadline_ns : int64;  (** queue-age budget per request *)
  max_egress : int;  (** per-connection egress byte bound *)
  max_frame : int;  (** per-frame size bound (both framings) *)
  max_connections : int;
  cache_capacity : int;
  grid_sample_size : int;
  domains : int;  (** kernel-evaluation parallelism for big miss sets *)
  model_path : string option;  (** default path for [reload] *)
  tick_s : float;  (** select timeout: control-flag latency bound *)
}

val default : config
(** Unix socket ["archpred.sock"], 4096 pending, batches of 256,
    200 ms deadline, 1 MiB frame and egress bounds, single domain. *)

type stats = {
  connections : int;  (** accepted connections *)
  requests : int;  (** predict requests parsed *)
  answered : int;
      (** replies whose frame was wholly written to the socket (any
          status) *)
  shed : int;  (** answered [overloaded] at the ingress bound *)
  timeouts : int;  (** answered [timeout] after queueing too long *)
  bad_requests : int;  (** answered [bad_request] (invalid point) *)
  protocol_errors : int;  (** connections that desynced mid-stream *)
  reloads_ok : int;
  reloads_failed : int;
  lost : int;  (** parsed requests whose reply never flushed *)
  cache : Archpred_core.Memo.stats;
}

type control
(** Shared handle for driving a running daemon from signal handlers,
    other domains, or tests.  All operations are atomic flags read once
    per loop tick. *)

val control : unit -> control

val request_drain : control -> unit
(** Stop accepting, answer everything accepted, flush, return. *)

val request_reload : ?path:string -> control -> unit
(** Trigger a hot reload from [path] (default: the configured or last
    reloaded model path). *)

val run :
  ?obs:Archpred_obs.t ->
  ?control:control ->
  predictor:Archpred_core.Predictor.t ->
  config ->
  stats
(** Serve until a drain completes.  Blocks the calling thread; drive it
    from another domain (tests) or wire signals to [control] (CLI).
    Raises [Error.Archpred (Invalid_input _)] on a nonsensical config
    and lets listener-setup [Unix.Unix_error]s escape; once the loop is
    entered, per-connection failures never escape.  Ignores [SIGPIPE]
    for the process (see above).

    Counters on [obs]: [served.requests], [served.answered],
    [served.shed], [served.timeout], [served.bad_request],
    [served.protocol_error], [served.connections], [served.batches],
    [served.batch.leN] (power-of-two batch-size histogram),
    [served.reload.ok], [served.reload.failed], [served.lost],
    [served.egress_overflow], [served.fault.*], and gauge
    [served.hit_rate]. *)
