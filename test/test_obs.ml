(* Tests for the observability layer (Archpred_obs): span nesting, sink
   output shapes, counter-merge determinism across domain counts, the
   guarantee that instrumentation never perturbs training, strict
   ARCHPRED_DOMAINS parsing and the Config/Error satellite APIs. *)

[@@@alert "-deprecated"]

module Obs = Archpred_obs
module Sink = Archpred_obs.Sink
module Json = Archpred_obs.Json
module Error = Archpred_obs.Error
module Core = Archpred_core
module Config = Core.Config
module Build = Core.Build
module Response = Core.Response
module Paper_space = Core.Paper_space
module Rng = Archpred_stats.Rng

(* ---------- spans ---------- *)

let test_span_nesting () =
  let obs = Obs.create () in
  Obs.with_span obs "outer" (fun () ->
      Obs.with_span obs "inner" (fun () -> ());
      Obs.with_span obs "inner" (fun () -> ()));
  Obs.with_span obs "outer" (fun () -> ());
  let spans = Obs.spans obs in
  Alcotest.(check (list (pair (list string) int)))
    "paths and call counts"
    [ ([ "outer"; "inner" ], 2); ([ "outer" ], 2) ]
    spans

let test_span_value_and_exception_safety () =
  let obs = Obs.create () in
  Alcotest.(check int) "returns body value" 7
    (Obs.with_span obs "s" (fun () -> 7));
  (try Obs.with_span obs "s" (fun () -> failwith "boom") with Failure _ -> ());
  Alcotest.(check (list (pair (list string) int)))
    "span recorded despite raise"
    [ ([ "s" ], 2) ]
    (Obs.spans obs)

let test_null_handle_is_noop () =
  Alcotest.(check bool) "null disabled" false (Obs.enabled Obs.null);
  Obs.incr Obs.null "c";
  Obs.gauge Obs.null "g" 1.;
  Alcotest.(check int) "body still runs" 3
    (Obs.with_span Obs.null "s" (fun () -> 3));
  Alcotest.(check (list (pair string int))) "no counters" [] (Obs.counters Obs.null);
  Alcotest.(check (list (pair (list string) int))) "no spans" [] (Obs.spans Obs.null)

(* ---------- sinks ---------- *)

let test_memory_sink_event_shapes () =
  let sink, events = Sink.memory () in
  let obs = Obs.create ~sink () in
  Obs.with_span obs "a" (fun () -> Obs.with_span obs "b" (fun () -> ()));
  Obs.gauge obs "depth" 2.5;
  Obs.count obs "hits" 3;
  Obs.close obs;
  let evs = events () in
  let has p = List.exists p evs in
  Alcotest.(check bool) "nested span path" true
    (has (function Sink.Span { path; _ } -> path = [ "a"; "b" ] | _ -> false));
  Alcotest.(check bool) "root span path" true
    (has (function Sink.Span { path; _ } -> path = [ "a" ] | _ -> false));
  Alcotest.(check bool) "gauge streamed" true
    (has (function Sink.Gauge { name; value } -> name = "depth" && Float.equal value 2.5 | _ -> false));
  Alcotest.(check bool) "counter total at close" true
    (has (function Sink.Counter { name; value } -> name = "hits" && value = 3 | _ -> false))

let test_jsonl_sink_parses () =
  let lines = ref [] in
  let obs = Obs.create ~sink:(Sink.jsonl (fun l -> lines := l :: !lines)) () in
  Obs.with_span obs "train" (fun () -> Obs.incr obs "n");
  Obs.gauge obs "q" 0.;
  Obs.close obs;
  let kinds =
    List.rev_map
      (fun line ->
        match Json.of_string line with
        | Error m -> Alcotest.failf "unparseable line %S: %s" line m
        | Ok j -> (
            match Json.member "type" j with
            | Some (Json.String k) -> k
            | _ -> Alcotest.failf "no type field in %S" line))
      !lines
  in
  Alcotest.(check bool) "span line" true (List.mem "span" kinds);
  Alcotest.(check bool) "counter line" true (List.mem "counter" kinds);
  Alcotest.(check bool) "gauge line" true (List.mem "gauge" kinds)

let test_json_roundtrip () =
  let v =
    Json.Obj
      [
        ("type", Json.String "span");
        ("path", Json.String "a/b \"c\"");
        ("ns", Json.Int 123456789012345);
        ("ok", Json.Bool true);
        ("x", Json.Float 0.125);
        ("xs", Json.List [ Json.Null; Json.Int (-3) ]);
      ]
  in
  match Json.of_string (Json.to_string v) with
  | Ok v' -> Alcotest.(check bool) "roundtrip" true (v = v')
  | Error m -> Alcotest.failf "roundtrip failed: %s" m

(* The float rule that JSON lines, journals and checkpoints rely on:
   [%.17g] when finite, [null] otherwise. *)
let qcheck_json_float_rule =
  let specials =
    [
      0.; -0.; Float.min_float; -.Float.min_float; 4.9e-324; -4.9e-324;
      Float.max_float; -.Float.max_float; Float.nan; Float.infinity;
      Float.neg_infinity; Float.epsilon; 0.1; 1e21; 1e-7; 123456789.;
    ]
  in
  let subnormal =
    QCheck.Gen.(
      map2
        (fun neg k ->
          let f = Int64.float_of_bits (Int64.of_int k) in
          if neg then -.f else f)
        bool
        (int_range 1 ((1 lsl 52) - 1)))
  in
  let gen = QCheck.Gen.(frequency [ (4, float); (1, subnormal); (1, oneofl specials) ]) in
  QCheck.Test.make ~name:"Json float text is %.17g or null" ~count:2000
    (QCheck.make ~print:(Printf.sprintf "%h") gen)
    (fun f ->
      let want = if Float.is_finite f then Printf.sprintf "%.17g" f else "null" in
      let buf = Buffer.create 8 in
      Buffer.add_string buf "x";
      Json.write buf (Json.Float f);
      String.equal (Json.to_string (Json.Float f)) want
      && String.equal (Buffer.contents buf) ("x" ^ want))

let test_json_parse_classes () =
  let parse s =
    match Json.of_string s with
    | Ok v -> v
    | Error e -> Alcotest.failf "%s: %s" s e
  in
  List.iter
    (fun (s, want) -> Alcotest.(check bool) s true (parse s = want))
    [
      ("0", Json.Int 0);
      ("-17", Json.Int (-17));
      ("4611686018427387903", Json.Int max_int);
      (* ints that overflow [int] become floats *)
      ("4611686018427387904", Json.Float 4611686018427387904.);
      ("-99999999999999999999", Json.Float (-1e20));
      ("0.5", Json.Float 0.5);
      ("-2.25", Json.Float (-2.25));
      ("1e3", Json.Float 1000.);
      ("1E3", Json.Float 1000.);
      ("2.5e-3", Json.Float 0.0025);
      ("[1,1.0,1e0]", Json.List [ Json.Int 1; Json.Float 1.; Json.Float 1. ]);
      ("\"plain\"", Json.String "plain");
      ("\"\"", Json.String "");
      ("\"ab\\ncd\"", Json.String "ab\ncd");
      ("\"a\\\"b\\\\c\\/d\\u0001\"", Json.String "a\"b\\c/d\001");
      ( "{\"k\":\"v\",\"esc\\tkey\":[]}",
        Json.Obj [ ("k", Json.String "v"); ("esc\tkey", Json.List []) ] );
    ];
  List.iter
    (fun s ->
      Alcotest.(check bool) ("rejects " ^ s) true (Result.is_error (Json.of_string s)))
    [ "\"open"; "\"ab\\"; "\"a\001b\""; "\"bad \\q\""; "1.2.3"; "-"; "" ]

(* The reader's number path against the function that defines it:
   every fractional token must decode to [float_of_string]'s exact bits,
   through the Clinger path, the fma-checked wide path or the fallback. *)
let qcheck_json_number_exact =
  let fractional s = String.exists (fun c -> c = '.' || c = 'e' || c = 'E') s in
  let edge =
    [
      "9007199254740993.0"; "9007199254740993e0"; "9.007199254740993e15";
      "9007199254740992.5e0"; "9007199254740993.5e0"; "1e22"; "1e23";
      "1e-22"; "1e-23"; "9.999999999999999e22"; "1.0000000000000001e23";
      "123456789012345678e22"; "123456789012345678e-22";
      "123456789012345678e23"; "123456789012345678.0";
      "1234567890123456789.0"; "1234567890123456789e-5";
      "999999999999999999e-22"; "999999999999999999e22";
      "576460752303423552e0"; "576460752303423616e0"; "576460752303423680e0";
      "4.9e-324"; "5e-324"; "2.2250738585072011e-308";
      "2.2250738585072014e-308"; "1.7976931348623157e308"; "1.8e308";
      "-0.0"; "0.0e5"; "-.5"; "+.5"; ".5"; "1."; "1.e3"; "-1E+3"; "1e-0";
      "0.1"; "0.30000000000000004"; "0.33333333333333331";
      "0.000000000000000000000123"; "100000000000000000000000.0";
    ]
  in
  let random_double =
    QCheck.Gen.(
      map
        (fun bits -> Int64.float_of_bits bits)
        (map2 (fun hi lo -> Int64.logor (Int64.shift_left (Int64.of_int hi) 32) (Int64.of_int lo))
           (int_bound 0x7FFFFFFF) (int_bound 0x7FFFFFFF)))
  in
  let rendered =
    QCheck.Gen.(
      map2
        (fun fmt x ->
          match fmt with
          | 15 -> Printf.sprintf "%.15g" x
          | 16 -> Printf.sprintf "%.16g" x
          | _ -> Printf.sprintf "%.17g" x)
        (oneofl [ 15; 16; 17 ])
        (frequency
           [
             (3, random_double);
             (2, map2 (fun k n -> float_of_int k /. float_of_int n) (int_bound 1000) (int_range 1 97));
             (1, map (fun k -> Int64.float_of_bits (Int64.of_int k)) (int_range 1 ((1 lsl 52) - 1)));
             (2, float_range (-1e6) 1e6);
           ]))
  in
  (* 18- and 19-digit mantissas over the whole fast-path exponent range
     and just past it *)
  let wide =
    QCheck.Gen.(
      map3
        (fun m e neg -> Printf.sprintf "%s%de%d" (if neg then "-" else "") m e)
        (int_range 100_000_000_000_000_000 (max_int / 4))
        (int_range (-24) 24) bool)
  in
  (* a long run of fraction zeros offset by the exponent *)
  let zeros =
    QCheck.Gen.(
      map3
        (fun k d e -> Printf.sprintf "0.%s%de%d" (String.make k '0') d (k + e))
        (int_bound 400) (int_range 1 9) (int_range (-25) 25))
  in
  let gen =
    QCheck.Gen.(
      frequency [ (4, rendered); (3, wide); (1, zeros); (1, oneofl edge) ]
      |> map (fun s -> if fractional s then s else s ^ ".0"))
  in
  QCheck.Test.make ~name:"Json number fast path is float_of_string" ~count:5000
    (QCheck.make ~print:Fun.id gen) (fun s ->
      match (Json.of_string s, float_of_string_opt s) with
      | Ok (Json.Float f), Some g -> Int64.equal (Int64.bits_of_float f) (Int64.bits_of_float g)
      | Error _, None -> true
      | _ -> false)

(* Every edge case once, beside the random sample. *)
let test_json_number_edges () =
  List.iter
    (fun (s, want) ->
      match Json.of_string s with
      | Ok (Json.Float f) ->
          Alcotest.(check bool) s true (Int64.equal (Int64.bits_of_float f) (Int64.bits_of_float want))
      | Ok _ -> Alcotest.failf "%s: not a float" s
      | Error e -> Alcotest.failf "%s: %s" s e)
    [
      ("9007199254740993.0", 9007199254740992.);
      ("9007199254740995e0", 9007199254740996.);
      ("1e23", 1e23);
      ("1e-23", 1e-23);
      ("-0.0", -0.);
      ("0.1", 0.1);
      ("4.9e-324", 4.9e-324);
    ];
  (* exponents too long to hold exactly, with enough fraction zeros to
     bring what would be kept of them back into the fast range *)
  let zeros k = "0." ^ String.make k '0' in
  List.iter
    (fun s ->
      match Json.of_string s with
      | Ok (Json.Float f) ->
          Alcotest.(check bool) (String.sub s 0 8 ^ "...") true
            (Int64.equal (Int64.bits_of_float f) (Int64.bits_of_float (float_of_string s)))
      | Ok _ -> Alcotest.failf "long token: not a float"
      | Error e -> Alcotest.failf "long token: %s" e)
    [
      zeros 99_999 ^ "1e1000000";
      zeros 99_999 ^ "1e100005";
      zeros 999_999 ^ "1e1000000";
      "1.5e" ^ String.make 40 '0' ^ "1";
    ];
  (* the int side of the rule is unchanged: -0 is the int 0, so +0.0 *)
  Alcotest.(check bool) "-0 is Int 0" true (Json.of_string "-0" = Ok (Json.Int 0));
  Alcotest.(check bool) "+1 is Int 1" true (Json.of_string "+1" = Ok (Json.Int 1));
  Alcotest.(check bool) "007 is Int 7" true (Json.of_string "007" = Ok (Json.Int 7))

let test_json_unicode_escapes () =
  let parse s = Json.of_string ("\"" ^ s ^ "\"") in
  Alcotest.(check bool) "\\u0041" true (parse "\\u0041" = Ok (Json.String "A"));
  Alcotest.(check bool) "caf\\u00e9 is UTF-8" true
    (parse "caf\\u00e9" = Ok (Json.String "caf\xc3\xa9"));
  Alcotest.(check bool) "\\u20ac" true (parse "\\u20AC" = Ok (Json.String "\xe2\x82\xac"));
  Alcotest.(check bool) "surrogate pair" true
    (parse "\\ud83d\\ude00" = Ok (Json.String "\xf0\x9f\x98\x80"));
  List.iter
    (fun s -> Alcotest.(check bool) ("rejects " ^ s) true (Result.is_error (parse s)))
    [
      "\\u0_41"; "\\u+041"; "\\u004"; "\\u00g1"; "\\ud83d"; "\\ud83dx";
      "\\ud83d\\u0041"; "\\ude00"; "\\ude00\\ud83d";
    ]

(* [of_string (to_string v) = v], up to the number rule: a float whose
   %.17g text has no '.', 'e' or 'E' reads back as that Int. *)
let qcheck_json_roundtrip =
  let open QCheck.Gen in
  let str = string_size ~gen:(char_range '\000' '\255') (int_bound 12) in
  let scalar =
    frequency
      [
        (1, return Json.Null);
        (1, map (fun b -> Json.Bool b) bool);
        (2, map (fun i -> Json.Int i) int);
        (2, map (fun f -> Json.Float f) (float_range (-1e9) 1e9));
        (1, map (fun f -> Json.Float f) (oneofl [ 0.; -0.; 1.; 1e300; 5e-324; 0.1 ]));
        (3, map (fun s -> Json.String s) str);
      ]
  in
  let value =
    sized_size (int_bound 3)
    @@ fix (fun self n ->
           if n = 0 then scalar
           else
             frequency
               [
                 (2, scalar);
                 (1, map (fun l -> Json.List l) (list_size (int_bound 4) (self (n - 1))));
                 ( 1,
                   map (fun l -> Json.Obj l)
                     (list_size (int_bound 4) (pair str (self (n - 1)))) );
               ])
  in
  let rec normal = function
    | Json.Float f as v -> (
        let s = Printf.sprintf "%.17g" f in
        if String.exists (fun c -> c = '.' || c = 'e' || c = 'E') s then v
        else match int_of_string_opt s with Some i -> Json.Int i | None -> v)
    | Json.List l -> Json.List (List.map normal l)
    | Json.Obj l -> Json.Obj (List.map (fun (k, v) -> (k, normal v)) l)
    | v -> v
  in
  let rec same a b =
    match (a, b) with
    | Json.Float x, Json.Float y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
    | Json.List xs, Json.List ys -> List.length xs = List.length ys && List.for_all2 same xs ys
    | Json.Obj xs, Json.Obj ys ->
        List.length xs = List.length ys
        && List.for_all2 (fun (k, x) (l, y) -> String.equal k l && same x y) xs ys
    | a, b -> a = b
  in
  QCheck.Test.make ~name:"Json of_string (to_string v) = v" ~count:1000
    (QCheck.make ~print:Json.to_string value) (fun v ->
      match Json.of_string (Json.to_string v) with
      | Ok v' -> same (normal v) v'
      | Error _ -> false)

(* ---------- counters across domains ---------- *)

let pipeline_counters domains =
  Unix.putenv "ARCHPRED_DOMAINS" (string_of_int domains);
  let obs = Obs.create () in
  let response = Response.synthetic_smooth ~dim:9 in
  let config =
    Config.default |> Config.with_seed 5
    |> Config.with_sample_size 30
    |> Config.with_lhs_candidates 10
    |> Config.with_obs obs
  in
  let trained = Build.train ~config ~space:Paper_space.space ~response () in
  (trained, Obs.counters obs)

let test_counter_merge_deterministic () =
  let _, c1 = pipeline_counters 1 in
  let _, c4 = pipeline_counters 4 in
  Alcotest.(check (list (pair string int))) "counters identical 1 vs 4" c1 c4;
  Alcotest.(check bool) "tree nodes counted" true (List.mem_assoc "tree.nodes" c1);
  Alcotest.(check bool) "centers tried" true
    (List.exists (fun (n, v) -> n = "rbf.centers_tried" && v > 0) c1);
  Alcotest.(check bool) "cholesky pushes" true
    (List.exists (fun (n, v) -> n = "ils.pushes" && v > 0) c1);
  Alcotest.(check bool) "lhs candidates" true
    (List.mem_assoc "lhs.candidates" c1)

let test_instrumentation_preserves_training () =
  (* the regression the tentpole promises: a silent sink (or any sink)
     must leave the trained predictor bit-identical to an uninstrumented
     run, and to a run configured through an explicit generator *)
  Unix.putenv "ARCHPRED_DOMAINS" "2";
  let response = Response.synthetic_smooth ~dim:9 in
  let train obs =
    Build.train
      ~config:
        (Config.default |> Config.with_seed 5
        |> Config.with_sample_size 30
        |> Config.with_lhs_candidates 10
        |> Config.with_obs obs)
      ~space:Paper_space.space ~response ()
  in
  let bare = train Obs.null in
  let silent = train (Obs.create ()) in
  let sink, _ = Sink.memory () in
  let streamed = train (Obs.create ~sink ()) in
  let explicit_rng =
    Build.train
      ~config:
        (Config.default
        |> Config.with_rng (Rng.create 5)
        |> Config.with_sample_size 30
        |> Config.with_lhs_candidates 10)
      ~space:Paper_space.space ~response ()
  in
  let rng = Rng.create 77 in
  for _ = 1 to 20 do
    let p = Array.init 9 (fun _ -> Rng.unit_float rng) in
    let expect = Core.Predictor.predict bare.Build.predictor p in
    List.iter
      (fun (name, t) ->
        Alcotest.(check (float 0.)) name expect
          (Core.Predictor.predict t.Build.predictor p))
      [
        ("silent sink", silent);
        ("memory sink", streamed);
        ("explicit rng", explicit_rng);
      ]
  done

(* ---------- ARCHPRED_DOMAINS parsing ---------- *)

let check_env_rejected value =
  Unix.putenv "ARCHPRED_DOMAINS" value;
  match Archpred_stats.Parallel.env_domains () with
  | _ -> Alcotest.failf "ARCHPRED_DOMAINS=%S accepted" value
  | exception Error.Archpred (Error.Invalid_env { var; _ }) ->
      Alcotest.(check string) "names the variable" "ARCHPRED_DOMAINS" var

let test_env_domains_strict () =
  Unix.putenv "ARCHPRED_DOMAINS" "3";
  Alcotest.(check (option int)) "valid value" (Some 3)
    (Archpred_stats.Parallel.env_domains ());
  check_env_rejected "0";
  check_env_rejected "-2";
  check_env_rejected "four";
  (* leave a sane value behind for any later test in this binary *)
  Unix.putenv "ARCHPRED_DOMAINS" "2"

(* ---------- report ---------- *)

let test_report_contents () =
  let obs = Obs.create () in
  Obs.with_span obs "build.train" (fun () ->
      Obs.with_span obs "build.sample" (fun () -> ());
      Obs.incr obs "sim.runs");
  Obs.gauge obs "pool.queue_depth" 0.;
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  Obs.report obs ppf;
  Format.pp_print_flush ppf ();
  let text = Buffer.contents buf in
  let contains needle =
    let n = String.length needle and h = String.length text in
    let rec go i = i + n <= h && (String.sub text i n = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Printf.sprintf "report mentions %s" needle) true
        (contains needle))
    [
      "observability report"; "build.train"; "build.sample"; "sim.runs";
      "pool.queue_depth";
    ]

(* ---------- Config ---------- *)

let test_config_setters () =
  let c =
    Config.default |> Config.with_seed 9
    |> Config.with_sample_size 55
    |> Config.with_trace_length 1234
    |> Config.with_domains 3
    |> Config.with_p_min_grid [ 4 ]
    |> Config.with_alpha_grid [ 2.5 ]
    |> Config.with_lhs_candidates 17
  in
  Alcotest.(check int) "seed" 9 c.Config.seed;
  Alcotest.(check int) "sample size" 55 c.Config.sample_size;
  Alcotest.(check int) "trace length" 1234 c.Config.trace_length;
  Alcotest.(check (option int)) "domains" (Some 3) c.Config.domains;
  Alcotest.(check (list int)) "p_min grid" [ 4 ] c.Config.p_min_grid;
  Alcotest.(check int) "lhs candidates" 17 c.Config.lhs_candidates;
  Alcotest.(check (list int)) "default p_min grid intact" [ 1; 2; 3 ]
    Config.default.Config.p_min_grid

let test_config_seed_rng_interplay () =
  (* with_seed discards an installed rng so the seed is authoritative *)
  let c =
    Config.default |> Config.with_rng (Rng.create 1) |> Config.with_seed 8
  in
  let a = Rng.unit_float (Config.rng_of c) in
  let b = Rng.unit_float (Rng.create 8) in
  Alcotest.(check (float 0.)) "rng_of follows seed" b a

let check_config_rejected c =
  match Config.validate c with
  | _ -> Alcotest.fail "invalid config accepted"
  | exception Error.Archpred (Error.Invalid_input { where; _ }) ->
      Alcotest.(check string) "where" "Config" where

let test_config_validate () =
  ignore (Config.validate Config.default);
  check_config_rejected (Config.with_sample_size 0 Config.default);
  check_config_rejected (Config.with_trace_length 0 Config.default);
  check_config_rejected (Config.with_lhs_candidates 0 Config.default);
  check_config_rejected (Config.with_p_min_grid [] Config.default);
  check_config_rejected (Config.with_alpha_grid [] Config.default);
  check_config_rejected (Config.with_domains 0 Config.default)

(* ---------- Error ---------- *)

let test_error_exit_codes_distinct () =
  let errors =
    [
      Error.Invalid_input { where = "w"; what = "x" };
      Error.Invalid_env { var = "V"; what = "x" };
      Error.Io_error { path = "p"; what = "x" };
      Error.Parse_error { where = "w"; line = 3; what = "x" };
      Error.Infeasible { where = "w"; what = "x" };
    ]
  in
  let codes = List.map Error.exit_code errors in
  Alcotest.(check (list int)) "stable exit codes" [ 2; 3; 4; 5; 6 ] codes;
  List.iter
    (fun e ->
      Alcotest.(check bool) "message non-empty" true
        (String.length (Error.to_string e) > 0))
    errors;
  Alcotest.(check bool) "core re-export is the same type" true
    (Core.Error.exit_code (Core.Error.Infeasible { where = "w"; what = "x" }) = 6)

let test_error_guard () =
  (match Error.guard (fun () -> 41 + 1) with
  | Ok v -> Alcotest.(check int) "ok" 42 v
  | Error _ -> Alcotest.fail "guard broke success");
  match Error.guard (fun () -> Error.invalid_input ~where:"t" "bad") with
  | Error (Error.Invalid_input { where = "t"; what = "bad" }) -> ()
  | _ -> Alcotest.fail "guard missed error"

let () =
  Alcotest.run "obs"
    [
      ( "spans",
        [
          Alcotest.test_case "nesting" `Quick test_span_nesting;
          Alcotest.test_case "value + exception safety" `Quick
            test_span_value_and_exception_safety;
          Alcotest.test_case "null handle" `Quick test_null_handle_is_noop;
        ] );
      ( "sinks",
        [
          Alcotest.test_case "memory shapes" `Quick test_memory_sink_event_shapes;
          Alcotest.test_case "jsonl parses" `Quick test_jsonl_sink_parses;
          Alcotest.test_case "json roundtrip" `Quick test_json_roundtrip;
          QCheck_alcotest.to_alcotest qcheck_json_float_rule;
          Alcotest.test_case "json parse classes" `Quick test_json_parse_classes;
          QCheck_alcotest.to_alcotest qcheck_json_number_exact;
          Alcotest.test_case "json number edges" `Quick test_json_number_edges;
          Alcotest.test_case "json unicode escapes" `Quick test_json_unicode_escapes;
          QCheck_alcotest.to_alcotest qcheck_json_roundtrip;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "counter merge deterministic" `Quick
            test_counter_merge_deterministic;
          Alcotest.test_case "training unperturbed" `Quick
            test_instrumentation_preserves_training;
          Alcotest.test_case "report contents" `Quick test_report_contents;
        ] );
      ( "env",
        [ Alcotest.test_case "ARCHPRED_DOMAINS strict" `Quick test_env_domains_strict ] );
      ( "config",
        [
          Alcotest.test_case "setters" `Quick test_config_setters;
          Alcotest.test_case "seed/rng interplay" `Quick
            test_config_seed_rng_interplay;
          Alcotest.test_case "validate" `Quick test_config_validate;
        ] );
      ( "error",
        [
          Alcotest.test_case "exit codes" `Quick test_error_exit_codes_distinct;
          Alcotest.test_case "guard" `Quick test_error_guard;
        ] );
    ]
