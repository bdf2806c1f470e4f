(* The benchmark's own test: a reduced-size pass of every workload through
   the same code, end-to-end and traced.  The printed metric names must be
   those BENCHMARK.json declares, every output check must pass, and a
   planted wrong oracle value or model digest must fail the run.

     test_perfbench.exe BENCHMARK.json ARCHPRED *)

open Perfbench
module Json = Measure.Json

let fail fmt = Printf.ksprintf failwith fmt

let names_units key j =
  match Json.member key j with
  | Some (Json.List l) ->
      List.map
        (fun m ->
          match (Json.member "name" m, Json.member "unit" m) with
          | Some (Json.String n), Some (Json.String u) -> (n, u)
          | Some (Json.String n), None -> (n, "")
          | _ -> fail "BENCHMARK.json: %s entry without a name" key)
        l
  | _ -> fail "BENCHMARK.json: no %s list" key

let () =
  Suite.child_main ();
  let bench_json, archpred =
    match Sys.argv with
    | [| _; b; a |] -> (b, a)
    | _ -> fail "usage: test_perfbench BENCHMARK.json ARCHPRED"
  in
  let decl =
    match Json.of_string (In_channel.with_open_text bench_json In_channel.input_all) with
    | Ok j -> j
    | Error e -> fail "BENCHMARK.json: %s" e
  in
  let sorted =
    List.sort (fun (a, b) (c, d) ->
        match String.compare a c with 0 -> String.compare b d | n -> n)
  in
  let check_set what declared ours =
    if sorted declared <> sorted ours then fail "%s in BENCHMARK.json differ from the runner's" what
  in
  check_set "workloads"
    (List.map (fun (n, _) -> (n, "")) (names_units "workloads" decl))
    (List.map (fun (n, _) -> (n, "")) Suite.workloads);
  check_set "end_to_end metrics" (names_units "end_to_end" decl) Suite.end_to_end;
  check_set "per_layer metrics" (names_units "per_layer" decl) Suite.per_layer;
  let opts ?corrupt ~traced () =
    {
      Measure.seed = 3;
      seconds = 0.4;
      traced;
      small = true;
      archpred;
      workdir = Filename.concat ".perfbench" (Printf.sprintf "test-%d" (Unix.getpid ()));
      corrupt;
    }
  in
  let printed o (r : Measure.result) =
    match Suite.result_json o r with
    | Json.Obj fields -> (
        match List.assoc_opt "metrics" fields with
        | Some (Json.Obj ms) ->
            List.map
              (fun (n, v) ->
                match Json.member "unit" v with
                | Some (Json.String u) -> (n, u)
                | _ -> fail "metric %s has no unit" n)
              ms
        | _ -> fail "result line without metrics")
    | _ -> fail "result line is not an object"
  in
  List.iter
    (fun (workload, _) ->
      List.iter
        (fun traced ->
          let o = opts ~traced () in
          let r = Suite.run o ~workload in
          if r.Measure.checks <> [] then
            fail "%s (trace %b): %s" workload traced (String.concat "; " r.Measure.checks);
          check_set
            (Printf.sprintf "%s printed metrics" workload)
            (printed o r)
            (if traced then names_units "per_layer" decl else names_units "end_to_end" decl))
        [ false; true ])
    Suite.workloads;
  List.iter
    (fun (workload, corrupt) ->
      let r = Suite.run (opts ~corrupt ~traced:false ()) ~workload in
      if r.Measure.checks = [] then fail "%s: a planted wrong %s went unnoticed" workload corrupt)
    [ ("serve-hot", "oracle"); ("serve-cold", "oracle"); ("train-sim", "digest"); ("train-sharded", "digest") ];
  print_endline "perfbench: all workloads pass; planted faults are caught"
