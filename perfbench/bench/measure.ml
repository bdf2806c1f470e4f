(* Clocks, order statistics, process probes and the result record shared
   by every workload. *)

module Obs = Archpred_obs
module Json = Archpred_obs.Json
module Quantile = Archpred_stats.Quantile

let now_ns () = Int64.to_int (Obs.now_ns ())
let seconds_since t0 = float_of_int (now_ns () - t0) *. 1e-9

(* [timed f] is [(f (), seconds)]. *)
let timed f =
  let t0 = now_ns () in
  let v = f () in
  (v, seconds_since t0)

(* CPU seconds (user + system) of this process, all its threads, and of
   its children that were waited for.  The kernel charges a thread only
   for the time it runs, so these exclude time spent waiting for a core
   and the time the hypervisor steals: on a shared host they follow the
   work done, where the wall clock follows the neighbours too. *)
let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let children_cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_cutime +. t.Unix.tms_cstime

(* CPU seconds of the live process [pid] so far, from the scheduler's
   account of each of its threads (/proc/<pid>/task/*/schedstat, whose
   first field is nanoseconds on a CPU). *)
let task_cpu_s pid =
  let dir = Printf.sprintf "/proc/%d/task" pid in
  Array.fold_left
    (fun acc t ->
      let path = Filename.concat (Filename.concat dir t) "schedstat" in
      acc
      +. In_channel.with_open_text path (fun ic ->
             Scanf.sscanf (In_channel.input_all ic) "%d" (fun ns -> float_of_int ns *. 1e-9)))
    0. (Sys.readdir dir)

(* [cpu_timed f] is [(f (), CPU seconds of this process and its reaped
   children during f)]. *)
let cpu_timed f =
  let c0 = cpu_s () +. children_cpu_s () in
  let v = f () in
  (v, cpu_s () +. children_cpu_s () -. c0)

(* The host's speed.  CPU time leaves out waiting and steal, but not the
   host's own drift: on the 2-vCPU host the CPU time of the same build
   moves by 15-20% over minutes as neighbours come and go.  [probe_s]
   times a fixed computation of this benchmark's own (integer and float
   arithmetic and a data-dependent branch over 32 KiB), best of three, in
   CPU seconds.  [at_reference] scales a CPU time measured in a run to the
   speed at which the probe takes [reference_probe_s], using the median of
   the run's probes.  The probe is not archpred code, so a change to
   archpred cannot move it. *)
let probe_data = Array.init 4096 (fun i -> (i * 2654435761) land 0xffff)

let probe_once () =
  let acc = ref 0 and f = ref 1.0 in
  for r = 1 to 2000 do
    for i = 0 to 4095 do
      let v = probe_data.(i) in
      acc := !acc + ((v lxor r) * 3) + if v land 8 = 0 then 1 else 2;
      f := (!f *. 0.9999999) +. (float_of_int v *. 1e-9)
    done
  done;
  ignore (Sys.opaque_identity (!acc, !f))

let probe_s () =
  let best = ref infinity in
  for _ = 1 to 3 do
    let c0 = cpu_s () in
    probe_once ();
    best := Float.min !best (cpu_s () -. c0)
  done;
  !best

let reference_probe_s = 0.028
let at_reference probes x = x *. reference_probe_s /. Quantile.median probes

let mean xs = Array.fold_left ( +. ) 0. xs /. float_of_int (Array.length xs)

(* Peak resident set of a process ([VmHWM] in /proc/<pid>/status), MiB. *)
let vmhwm_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  In_channel.with_open_text path (fun ic ->
      let rec go () =
        match In_channel.input_line ic with
        | None -> failwith ("no VmHWM in " ^ path)
        | Some l -> (
            match Scanf.sscanf_opt l "VmHWM: %d kB" Fun.id with
            | Some kb -> float_of_int kb /. 1024.
            | None -> go ())
      in
      go ())

(* Reset this process's [VmHWM] to its current resident set, so that the
   next reading is the peak since now. *)
let reset_peak_rss () =
  Out_channel.with_open_text "/proc/self/clear_refs" (fun oc -> output_string oc "5")

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then (
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.is_directory dir -> ())

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then (
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      Sys.rmdir path)
    else Sys.remove path

let file_bytes path = (Unix.stat path).Unix.st_size

(* Observability events of one recording, summed by leaf span name and
   counter name. *)
type trace = { spans : (string * float) list; counters : (string * int) list }

let add_assoc k v l =
  match List.assoc_opt k l with
  | Some v0 -> (k, v0 +. v) :: List.remove_assoc k l
  | None -> (k, v) :: l

let trace_of_events events =
  List.fold_left
    (fun t -> function
      | Obs.Sink.Span { path; ns } ->
          let leaf = List.nth path (List.length path - 1) in
          { t with spans = add_assoc leaf (Int64.to_float ns *. 1e-9) t.spans }
      | Obs.Sink.Counter { name; value } ->
          let c = Option.value ~default:0 (List.assoc_opt name t.counters) in
          {
            t with
            counters = (name, c + value) :: List.remove_assoc name t.counters;
          }
      | Obs.Sink.Gauge _ -> t)
    { spans = []; counters = [] }
    events

(* The same summary read back from a [--metrics] JSON-lines file. *)
let events_of_jsonl path =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter_map (fun line ->
         match Json.of_string line with
         | Error _ -> None
         | Ok j -> (
             let str k = Option.bind (Json.member k j) (function
               | Json.String s -> Some s | _ -> None) in
             let int k = Option.bind (Json.member k j) (function
               | Json.Int i -> Some i | _ -> None) in
             match (str "type", str "path", str "name", int "ns", int "value") with
             | Some "span", Some p, _, Some ns, _ ->
                 Some
                   (Obs.Sink.Span
                      { path = String.split_on_char '/' p; ns = Int64.of_int ns })
             | Some "counter", _, Some name, _, Some value ->
                 Some (Obs.Sink.Counter { name; value })
             | _ -> None))

let span t name = Option.value ~default:0. (List.assoc_opt name t.spans)
let counter t name = Option.value ~default:0 (List.assoc_opt name t.counters)

(* A recording handle whose events can be summarised after the run. *)
let recorder () =
  let sink, events = Obs.Sink.memory () in
  let obs = Obs.create ~sink () in
  (obs, fun () -> Obs.close obs; trace_of_events (events ()))

(* What one workload run reports.  [checks] holds every output check that
   failed, by description; any entry makes the run incorrect. *)
type result = {
  attempted : int;
  failed : int;
  checks : string list;
  metrics : (string * float * string) list;  (** name, value, unit *)
  notes : (string * Json.t) list;  (** printed, not gated *)
}

let ratio a b = if Float.equal b 0. then 0. else a /. b

(* Run this executable in one of its child modes and wait for it. *)
let run_self args =
  let argv = Array.append [| Sys.executable_name |] args in
  let pid = Unix.create_process argv.(0) argv Unix.stdin Unix.stdout Unix.stderr in
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _ -> failwith ("child failed: " ^ String.concat " " (Array.to_list args))

(* How one workload run is driven. *)
type opts = {
  seed : int;
  seconds : float;  (** length of the timed phase *)
  traced : bool;  (** per-layer run instead of end-to-end *)
  small : bool;  (** reduced sizes, for the benchmark's own test *)
  archpred : string;  (** the [archpred] executable *)
  workdir : string;  (** run directories, model and socket files *)
  corrupt : string option;  (** ["oracle"] / ["digest"]: plant a wrong value *)
}
