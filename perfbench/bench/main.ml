(* perfbench: one workload run of the archpred benchmark.

     main.exe --workload NAME --seed N --seconds S --trace 0|1
              --archpred PATH

   Prints a provenance line, a notes line, one line per failed output
   check, and last a JSON object {correct, attempted, failed, metrics}.
   Exits 1 when a check failed. *)

open Perfbench

let () =
  Suite.child_main ();
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let archpred = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S length of the timed phase");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--archpred", Arg.Set_string archpred, "PATH the archpred executable");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload NAME --seed N --seconds S --trace 0|1 --archpred PATH";
  let o =
    {
      Measure.seed = !seed;
      seconds = !seconds;
      traced = !trace = 1;
      small = false;
      archpred = !archpred;
      workdir = Filename.concat ".perfbench" (Printf.sprintf "run-%d" (Unix.getpid ()));
      corrupt = None;
    }
  in
  let r = Suite.report o ~workload:!workload in
  (* archpred-lint: allow exit -- the exit status is the benchmark's verdict *)
  if r.Measure.checks <> [] then exit 1
