(* Golden tests for archpred-analyze (tools/analyze): each of the
   three interprocedural passes is exercised against the seeded
   fixture library in test/analyze_fixtures/ — detection of a real
   violation, acceptance of the sanctioned / pragma'd variant — plus
   the registry parsers, the pragma meta-rules, Core.Error exit codes
   and the JSON record shape.  The "real tree analyzes clean" half of
   the contract lives in the root dune file: the @analyze alias is
   attached to runtest.

   The fixtures are compiled as an ordinary dune library; the test
   points the engine directly at its .cmt artifacts inside the build
   tree (tests run with cwd = _build/default/test). *)

module Analyze = Analyze_engine.Analyze
module Error = Archpred_obs.Error
module Json = Archpred_obs.Json

let fixture_cmt_dir = "analyze_fixtures/.analyze_fixtures.objs/byte"

let fixture_cmts =
  Sys.readdir fixture_cmt_dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".cmt")
  |> List.sort String.compare
  |> List.map (Filename.concat fixture_cmt_dir)

(* Hermetic runs: registries are always passed explicitly so the
   repo's own sanctions.sexp/hotpaths.sexp cannot leak in. *)
let run ?(sanctions = []) ?(hotpaths = []) ?scope_of () =
  Analyze.analyze ~sanctions ~hotpaths ?scope_of ~root:".."
    ~cmt_paths:fixture_cmts ()

let by_rule rule findings =
  List.filter (fun f -> f.Analyze.rule = rule) findings

let in_file file findings =
  List.for_all (fun f -> f.Analyze.file = file) findings

let fx file = "test/analyze_fixtures/" ^ file

let test_fixtures_compiled () =
  Alcotest.(check bool)
    "fixture cmts discovered" true
    (List.length fixture_cmts >= 5)

(* --- domain-race --- *)

(* fx_race.ml seeds three races: a direct top-level mutation inside
   the parallel closure, one reached through Fx_state.record (reported
   once per reachable global — counter and table — so two findings at
   that call site), and a captured-local mutation. *)

let races fs = by_rule "domain-race" fs

let test_race_detected () =
  let fs = races (run ()) in
  Alcotest.(check int) "four race findings" 4 (List.length fs);
  Alcotest.(check bool)
    "all at the parallel entry's closures" true
    (in_file (fx "fx_race.ml") fs)

let barrier name reason =
  { Analyze.s_kind = Analyze.Race_barrier; s_name = name; s_reason = reason }

let test_race_sanctioned () =
  (* Blessing the audited helper removes exactly the transitive
     finding; deleting this entry from a registry resurfaces it (the
     3-vs-2 difference is the acceptance criterion for sanction
     hygiene). *)
  let sanctions =
    [ barrier "Analyze_fixtures.Fx_state.record" "fixture: audited helper" ]
  in
  let fs = races (run ~sanctions ()) in
  Alcotest.(check int) "record blessed, two races remain" 2 (List.length fs)

let test_race_global_sanctioned () =
  (* Declaring the state itself concurrency-safe silences both the
     direct mutation and the one through [record]; the captured-local
     race is not nameable state and must survive. *)
  let g name =
    { Analyze.s_kind = Analyze.Race_global;
      s_name = name;
      s_reason = "fixture: per-domain totals";
    }
  in
  let sanctions =
    [ g "Analyze_fixtures.Fx_state.counter";
      g "Analyze_fixtures.Fx_state.table";
    ]
  in
  let fs = races (run ~sanctions ()) in
  Alcotest.(check int) "only the captured-local race is left" 1
    (List.length fs)

(* --- hot-alloc --- *)

let hot name = "Analyze_fixtures.Fx_alloc." ^ name
let allocs fs = by_rule "hot-alloc" fs

let test_alloc_detected () =
  match allocs (run ~hotpaths:[ hot "hot_pair" ] ()) with
  | [ f ] ->
      Alcotest.(check string) "boxing flagged in the fixture"
        (fx "fx_alloc.ml") f.Analyze.file
  | fs -> Alcotest.failf "expected one hot-alloc, got %d" (List.length fs)

let test_alloc_unboxed_ref_ok () =
  Alcotest.(check int) "compiler-unboxable ref accepted" 0
    (List.length (allocs (run ~hotpaths:[ hot "cool_add" ] ())))

let test_alloc_pragma () =
  let fs = run ~hotpaths:[ hot "hot_allowed" ] () in
  Alcotest.(check int) "pragma suppresses the boxing" 0
    (List.length (allocs fs));
  Alcotest.(check int) "and the pragma counts as used" 0
    (List.length (by_rule "unused-pragma" fs))

let check_poly_flagged fn callee =
  match allocs (run ~hotpaths:[ hot fn ] ()) with
  | [ f ] ->
      let m = f.Analyze.message in
      let needle = "polymorphic compare call (" ^ callee ^ ")" in
      let has =
        let n = String.length needle in
        let rec at i =
          i + n <= String.length m && (String.sub m i n = needle || at (i + 1))
        in
        at 0
      in
      Alcotest.(check bool) ("message names " ^ callee) true has
  | fs -> Alcotest.failf "expected one hot-alloc, got %d" (List.length fs)

let test_poly_max_detected () = check_poly_flagged "hot_max" "Stdlib.max"

let test_poly_compare_detected () =
  check_poly_flagged "hot_tuple_compare" "Stdlib.compare"

let test_int_compare_ok () =
  Alcotest.(check int) "compare at int is specialised" 0
    (List.length (allocs (run ~hotpaths:[ hot "cool_int_compare" ] ())))

let test_unknown_hotpath () =
  (* A manifest entry that names nothing is a loud failure — renames
     cannot silently drop coverage. *)
  match run ~hotpaths:[ hot "does_not_exist" ] () with
  | _ -> Alcotest.fail "expected Invalid_input for unknown hot-path"
  | exception Error.Archpred e ->
      Alcotest.(check int) "unknown hot-path maps to exit 2" 2
        (Error.exit_code e)

(* --- impure --- *)

(* Re-scope the seed unit out of banned territory so the single
   finding must be the transitive crossing in the caller. *)
let rescope_clock rel =
  if Filename.basename rel = "fx_clock.ml" then None
  else Analyze.scope_of_rel rel

let impures fs = by_rule "impure" fs

let test_purity_transitive () =
  match impures (run ~scope_of:rescope_clock ()) with
  | [ f ] ->
      Alcotest.(check string) "flagged at the crossing, not the seed"
        (fx "fx_purity.ml") f.Analyze.file
  | fs -> Alcotest.failf "expected one impure finding, got %d"
            (List.length fs)

let test_purity_frontier () =
  (* With the default scoping both units are banned: the seed is
     reported where the clock is read, and the caller is NOT
     double-reported (its callee already carries the finding). *)
  match impures (run ()) with
  | [ f ] ->
      Alcotest.(check string) "one finding, at the seed" (fx "fx_clock.ml")
        f.Analyze.file
  | fs -> Alcotest.failf "expected one impure finding, got %d"
            (List.length fs)

let test_purity_barrier () =
  let sanctions =
    [ { Analyze.s_kind = Analyze.Purity_barrier;
        s_name = "Analyze_fixtures.Fx_clock.now";
        s_reason = "fixture: contained timestamp";
      } ]
  in
  Alcotest.(check int) "barrier stops effect propagation" 0
    (List.length (impures (run ~scope_of:rescope_clock ~sanctions ())))

(* --- pragma meta-rules --- *)

let test_unused_pragma () =
  (* With hot_allowed absent from the manifest its pragma suppresses
     nothing and is itself a finding. *)
  let fs = by_rule "unused-pragma" (run ()) in
  Alcotest.(check bool) "stale pragma flagged" true
    (List.exists (fun f -> f.Analyze.file = fx "fx_alloc.ml") fs)

let test_bad_pragma () =
  let fs = by_rule "bad-pragma" (run ()) in
  Alcotest.(check bool) "reason is mandatory" true
    (List.exists (fun f -> f.Analyze.file = fx "fx_alloc.ml") fs)

(* --- registries --- *)

let test_parse_sanctions () =
  let src =
    "; registry comment\n\
     (race-barrier Obs.count \"per-domain buffers\")\n\
     (race-global Stats.Parallel.retries_total \"atomic totals\")\n\
     (purity-barrier Serve_net.Daemon.run \"socket loop\")\n"
  in
  match Analyze.parse_sanctions ~path:"sanctions.sexp" src with
  | [ a; b; c ] ->
      Alcotest.(check bool) "kinds" true
        (a.Analyze.s_kind = Analyze.Race_barrier
        && b.Analyze.s_kind = Analyze.Race_global
        && c.Analyze.s_kind = Analyze.Purity_barrier);
      Alcotest.(check string) "name" "Stats.Parallel.retries_total"
        b.Analyze.s_name
  | ss -> Alcotest.failf "expected three sanctions, got %d" (List.length ss)

let test_parse_sanctions_rejects () =
  let expect_parse_error what src =
    match Analyze.parse_sanctions ~path:"sanctions.sexp" src with
    | _ -> Alcotest.fail ("expected Parse_error: " ^ what)
    | exception Error.Archpred e ->
        Alcotest.(check int) (what ^ " maps to exit 5") 5 (Error.exit_code e)
  in
  expect_parse_error "empty reason" "(race-barrier Obs.count \"\")";
  expect_parse_error "unknown kind" "(frobnicate Obs.count \"why\")";
  expect_parse_error "missing name" "(race-barrier)"

let test_parse_hotpaths () =
  let paths =
    Analyze.parse_hotpaths ~path:"hotpaths.sexp"
      "; manifest\n(hot-path Rbf.Batch_kernel.eval_into)\n(hot-path Core.Memo.commit)\n"
  in
  Alcotest.(check (list string)) "manifest parses"
    [ "Rbf.Batch_kernel.eval_into"; "Core.Memo.commit" ]
    paths

(* --- rule table, severities, exit codes, JSON --- *)

let test_rule_table () =
  Alcotest.(check int) "five rules" 5 (List.length Analyze.rules);
  List.iter
    (fun rule ->
      Alcotest.(check bool) (rule ^ " is documented") true
        (List.mem_assoc rule Analyze.rules))
    [ "domain-race"; "hot-alloc"; "impure"; "unused-pragma"; "bad-pragma" ]

let test_every_finding_is_an_error () =
  let fs = run ~hotpaths:[ hot "hot_pair" ] () in
  Alcotest.(check int) "errors = findings" (List.length fs)
    (Analyze.errors fs)

let test_violation_exit_code () =
  let e =
    Error.Invalid_input { where = "archpred_analyze"; what = "findings" }
  in
  Alcotest.(check int) "findings map to exit 2" 2 (Error.exit_code e)

let test_scope_classification () =
  let is rel expect = Analyze.scope_of_rel rel = expect in
  Alcotest.(check bool) "paths classify" true
    (is "lib/rbf/network.ml" (Some Analyze.Lib)
    && is "bin/predict.ml" (Some Analyze.Bin)
    && is "tools/analyze/analyze.ml" (Some Analyze.Tools)
    && is "test/analyze_fixtures/fx_race.ml" (Some Analyze.Test)
    && is "README.md" None)

let test_json_shape () =
  match allocs (run ~hotpaths:[ hot "hot_pair" ] ()) with
  | [ f ] ->
      let j = Analyze.to_json f in
      let str k =
        match Json.member k j with Some (Json.String s) -> s | _ -> "?"
      in
      let int k =
        match Json.member k j with Some (Json.Int i) -> i | _ -> -1
      in
      Alcotest.(check string) "event" "finding" (str "event");
      Alcotest.(check string) "rule" "hot-alloc" (str "rule");
      Alcotest.(check string) "severity" "error" (str "severity");
      Alcotest.(check string) "file" (fx "fx_alloc.ml") (str "file");
      Alcotest.(check bool) "line is 1-based" true (int "line" >= 1);
      (match Json.of_string (Json.to_string j) with
      | Ok j' -> Alcotest.(check bool) "round-trips" true (j = j')
      | Result.Error m -> Alcotest.fail ("did not re-parse: " ^ m))
  | fs -> Alcotest.failf "expected exactly one finding, got %d"
            (List.length fs)

let () =
  Alcotest.run "analyze"
    [
      ( "passes",
        [
          Alcotest.test_case "fixtures compiled" `Quick test_fixtures_compiled;
          Alcotest.test_case "race detected" `Quick test_race_detected;
          Alcotest.test_case "race barrier sanction" `Quick
            test_race_sanctioned;
          Alcotest.test_case "race global sanction" `Quick
            test_race_global_sanctioned;
          Alcotest.test_case "alloc detected" `Quick test_alloc_detected;
          Alcotest.test_case "unboxed ref accepted" `Quick
            test_alloc_unboxed_ref_ok;
          Alcotest.test_case "alloc pragma" `Quick test_alloc_pragma;
          Alcotest.test_case "unknown hot-path" `Quick test_unknown_hotpath;
          Alcotest.test_case "purity transitive" `Quick test_purity_transitive;
          Alcotest.test_case "purity frontier" `Quick test_purity_frontier;
          Alcotest.test_case "purity barrier" `Quick test_purity_barrier;
          Alcotest.test_case "poly max flagged" `Quick test_poly_max_detected;
          Alcotest.test_case "poly compare flagged" `Quick
            test_poly_compare_detected;
          Alcotest.test_case "int compare accepted" `Quick test_int_compare_ok;
        ] );
      ( "engine",
        [
          Alcotest.test_case "unused pragma" `Quick test_unused_pragma;
          Alcotest.test_case "bad pragma" `Quick test_bad_pragma;
          Alcotest.test_case "parse sanctions" `Quick test_parse_sanctions;
          Alcotest.test_case "sanctions rejects" `Quick
            test_parse_sanctions_rejects;
          Alcotest.test_case "parse hotpaths" `Quick test_parse_hotpaths;
          Alcotest.test_case "rule table" `Quick test_rule_table;
          Alcotest.test_case "errors severity" `Quick
            test_every_finding_is_an_error;
          Alcotest.test_case "violation exit code" `Quick
            test_violation_exit_code;
          Alcotest.test_case "scope classification" `Quick
            test_scope_classification;
          Alcotest.test_case "json shape" `Quick test_json_shape;
        ] );
    ]
