(* Smoke validator for the batched-simulation record: a tiny-budget
   Sim_bench.run must produce an archpred-parallel-v1 JSON report whose
   sim section parses, carries every per-config rate and speedup field
   in range, and attests bit-identity between the batched engine and the
   sequential reference.  It also round-trips section sharing: a
   pre-existing micro-benchmark "results" section must survive the sim
   writer.  Run by the dune smoke rule in this directory; `bench --sim`
   uses the same writer for the committed BENCH_parallel.json. *)

module Json = Archpred_obs.Json
module Core = Archpred_core

(* archpred-lint: allow exit -- check harness failure path *)
let fail fmt = Printf.ksprintf (fun m -> prerr_endline m; exit 1) fmt

let expect_int name j =
  match Json.member name j with
  | Some (Json.Int v) -> v
  | _ -> fail "missing int field %S" name

let expect_float name j =
  match Json.member name j with
  | Some (Json.Float v) -> v
  | Some (Json.Int v) -> float_of_int v
  | _ -> fail "missing numeric field %S" name

let () =
  let path = "smoke_sim.json" in
  (* Seed the report with a foreign section: the sim writer must merge,
     not clobber. *)
  Core.Bench_report.write ~path ~schema:"archpred-parallel-v1"
    [ ("results", Json.List [ Json.Obj [ ("name", Json.String "seeded") ] ]) ];
  let result = Core.Sim_bench.run ~trace_length:400 ~n_configs:5 ~batches:[ 1; 5 ] () in
  Core.Sim_bench.record ~path result;
  let ic = open_in path in
  let text = In_channel.input_all ic in
  close_in ic;
  let j =
    match Json.of_string text with
    | Ok j -> j
    | Error m -> fail "%s is not valid JSON: %s" path m
  in
  (match Json.member "schema" j with
  | Some (Json.String "archpred-parallel-v1") -> ()
  | _ -> fail "missing or wrong schema tag (want archpred-parallel-v1)");
  (match Json.member "schema_version" j with
  | Some (Json.Int v) when v >= 1 -> ()
  | _ -> fail "missing envelope field \"schema_version\"");
  (match Json.member "cores" j with
  | Some (Json.Int c) when c >= 1 -> ()
  | _ -> fail "missing metadata field \"cores\"");
  (match Json.member "domains" j with
  | Some (Json.Int d) when d >= 1 -> ()
  | _ -> fail "missing metadata field \"domains\"");
  (match Json.member "git_describe" j with
  | Some (Json.String _) -> ()
  | _ -> fail "missing metadata field \"git_describe\"");
  (match Json.member "simd" j with
  | Some (Json.String ("avx512" | "avx2" | "scalar")) -> ()
  | _ -> fail "metadata field \"simd\" must be avx512, avx2 or scalar");
  (match Json.member "results" j with
  | Some (Json.List [ _ ]) -> ()
  | _ -> fail "pre-existing \"results\" section was not preserved");
  let sim =
    match Json.member "sim" j with
    | Some s -> s
    | None -> fail "missing \"sim\" section"
  in
  if expect_int "trace_length" sim <> 400 then fail "wrong trace_length";
  if expect_int "n_configs" sim <> 5 then fail "wrong n_configs";
  if expect_int "reps" sim <> 5 then fail "wrong reps (want 5)";
  let rates =
    match Json.member "rates" sim with
    | Some (Json.List l) -> l
    | _ -> fail "missing \"rates\" list"
  in
  if List.length rates <> 5 then
    fail "expected 5 rate rows, got %d" (List.length rates);
  List.iter
    (fun r ->
      (match Json.member "name" r with
      | Some (Json.String _) -> ()
      | _ -> fail "rate row missing \"name\"");
      (match Json.member "policy" r with
      | Some (Json.String ("lru" | "tree-plru" | "qlru" | "mru")) -> ()
      | _ -> fail "rate row carries an unknown policy");
      if not (expect_float "cpi" r > 0.) then fail "cpi must be positive";
      if not (expect_float "inst_per_sec" r > 0.) then
        fail "inst_per_sec must be positive")
    rates;
  let speedups =
    match Json.member "speedups" sim with
    | Some (Json.List l) -> l
    | _ -> fail "missing \"speedups\" list"
  in
  if List.length speedups <> 2 then
    fail "expected 2 speedup rows, got %d" (List.length speedups);
  List.iter
    (fun s ->
      if expect_int "batch" s < 1 then fail "batch must be >= 1";
      List.iter
        (fun f ->
          if not (expect_float f s > 0.) then
            fail "field %S must be positive" f)
        [
          "sequential_s"; "batched_s"; "speedup"; "sequential_min_s";
          "sequential_max_s"; "batched_min_s"; "batched_max_s";
        ];
      (* each median lies within its repetitions' range *)
      List.iter
        (fun (lo, mid, hi) ->
          let lo = expect_float lo s and m = expect_float mid s and hi = expect_float hi s in
          if not (lo <= m && m <= hi) then
            fail "median %s %g outside its range [%g, %g]" mid m lo hi)
        [
          ("sequential_min_s", "sequential_s", "sequential_max_s");
          ("batched_min_s", "batched_s", "batched_max_s");
        ])
    speedups;
  (match Json.member "bit_identical" sim with
  | Some (Json.Bool true) -> ()
  | Some (Json.Bool false) ->
      fail "batched engine diverged from the sequential reference"
  | _ -> fail "missing \"bit_identical\"");
  Printf.printf "ok: archpred-parallel-v1 sim section valid (5 configs, 2 batch sizes)\n"
