(* Integration tests: every benchmark program of Section 4 goes through the
   full pipeline and runs its (verified) workload on the backends.  The
   drivers in Dml_programs.Workloads check all results against OCaml
   reference implementations, so a single successful run is an end-to-end
   correctness check of parser, inference, elaboration, solver, and
   evaluator together. *)

open Dml_core
open Dml_eval

let typecheck (b : Dml_programs.Programs.benchmark) =
  match Pipeline.check_valid_s (Session.create ()) b.Dml_programs.Programs.source with
  | Ok r -> r
  | Error msg -> Alcotest.failf "%s: %s" b.Dml_programs.Programs.name msg

let compiled_exec mode ?counters tprog =
  let ce = Compile.initial_fast mode ?counters () in
  let ce = Compile.run_program ce tprog in
  { Dml_programs.Workloads.lookup = Compile.lookup ce }

(* run a benchmark under both disciplines and check the counter algebra:
   every check executed in checked mode is either eliminated or residual in
   unchecked mode *)
let test_benchmark (b : Dml_programs.Programs.benchmark) () =
  let report = typecheck b in
  let tprog = report.Pipeline.rp_tprog in
  let run mode =
    let counters = Prims.new_counters () in
    let ex = compiled_exec mode ~counters tprog in
    (try ignore (b.Dml_programs.Programs.run ex ~scale:1)
     with Dml_programs.Workloads.Verification_failure msg -> Alcotest.fail msg);
    counters
  in
  let checked = run Prims.Checked in
  let unchecked = run Prims.Unchecked in
  Alcotest.(check int)
    (b.Dml_programs.Programs.name ^ ": checks partition")
    checked.Prims.dynamic_checks
    (unchecked.Prims.eliminated_checks + unchecked.Prims.dynamic_checks);
  (* programs that perform checked accesses must see them eliminated;
     reverse and filter are pure pattern matching and have none to count *)
  if checked.Prims.dynamic_checks > 0 then
    Alcotest.(check bool)
      (b.Dml_programs.Programs.name ^ ": something to eliminate")
      true
      (unchecked.Prims.eliminated_checks > 0)

let benchmark_tests =
  List.map
    (fun (b : Dml_programs.Programs.benchmark) ->
      Alcotest.test_case b.Dml_programs.Programs.name `Slow (test_benchmark b))
    Dml_programs.Programs.all

(* the cost model is deterministic: the checked/unchecked cycle difference is
   exactly check_cost per eliminated check *)
let test_cost_model_algebra () =
  List.iter
    (fun name ->
      let b = Option.get (Dml_programs.Programs.find name) in
      let report = typecheck b in
      let tprog = report.Pipeline.rp_tprog in
      let run mode =
        let counters = Prims.new_counters () in
        let ex = compiled_exec mode ~counters tprog in
        (try ignore (b.Dml_programs.Programs.run ex ~scale:1)
         with Dml_programs.Workloads.Verification_failure msg -> Alcotest.fail msg);
        counters
      in
      let checked = run Prims.Checked in
      let unchecked = run Prims.Unchecked in
      Alcotest.(check int)
        (name ^ ": cycle difference = check_cost * eliminated")
        (Prims.check_cost * unchecked.Prims.eliminated_checks)
        (checked.Prims.cycles - unchecked.Prims.cycles))
    [ "queen"; "list access"; "hanoi towers"; "binary search" ]

(* Table 1 regenerates for every row *)
let test_table1 () =
  List.iter
    (fun row ->
      match row with
      | Error msg -> Alcotest.fail msg
      | Ok r ->
          Alcotest.(check bool) (r.Dml_programs.Tables.t1_name ^ ": has constraints") true
            (r.Dml_programs.Tables.t1_constraints > 0);
          Alcotest.(check bool) (r.Dml_programs.Tables.t1_name ^ ": has annotations") true
            (r.Dml_programs.Tables.t1_annotations > 0))
    (Dml_programs.Tables.table1 ())

(* Table 2 (cost model) is deterministic: the gain is positive on every row *)
let test_table2_gains () =
  List.iter
    (fun row ->
      match row with
      | Error msg -> Alcotest.fail msg
      | Ok r ->
          Alcotest.(check bool)
            (r.Dml_programs.Tables.t23_name ^ ": unchecked wins")
            true
            (r.Dml_programs.Tables.t23_gain_pct > 0.))
    (Dml_programs.Tables.table23 Backend.cost_model ~scale:1)

(* Table 2 golden: the cost model is deterministic, so its exact cycle
   counts and check columns at scale 1 are pinned.  A change to the
   evaluator or the cost table that moves any figure shows up here. *)
let table2_golden =
  [
    ("bcopy", 4915340, 3866764, 524288, 0);
    ("binary search", 9043680, 8661682, 190999, 0);
    ("bubble sort", 6711690, 5689762, 510964, 0);
    ("matrix mult", 5549579, 4425131, 562224, 0);
    ("queen", 1911732, 1735004, 88364, 0);
    ("quick sort", 15137430, 13060314, 1038558, 0);
    ("hanoi towers", 6422450, 5767100, 327675, 0);
    ("list access", 3530752, 2416640, 557056, 0);
  ]

let test_table2_golden () =
  let actual =
    List.map
      (function
        | Error msg -> Alcotest.fail msg
        | Ok r ->
            let cycles s = int_of_float (Float.round (s *. 1e6)) in
            ( r.Dml_programs.Tables.t23_name,
              cycles r.Dml_programs.Tables.t23_checked_s,
              cycles r.Dml_programs.Tables.t23_unchecked_s,
              r.Dml_programs.Tables.t23_eliminated,
              r.Dml_programs.Tables.t23_residual ))
      (Dml_programs.Tables.table23 Backend.cost_model ~scale:1)
  in
  let show (n, c, u, e, r) =
    Printf.sprintf "%s: %d -> %d cycles, %d eliminated, %d residual" n c u e r
  in
  Alcotest.(check (list string))
    "table 2 rows" (List.map show table2_golden) (List.map show actual)

(* KMP is the one program with residual checks (the subCK sites of Figure 5) *)
let test_kmp_residual () =
  let b = Option.get (Dml_programs.Programs.find "kmp") in
  let report = typecheck b in
  let counters = Prims.new_counters () in
  let ex = compiled_exec Prims.Unchecked ~counters report.Pipeline.rp_tprog in
  ignore (b.Dml_programs.Programs.run ex ~scale:1);
  Alcotest.(check bool) "kmp keeps some dynamic checks" true (counters.Prims.dynamic_checks > 0);
  Alcotest.(check bool) "kmp eliminates most checks" true
    (counters.Prims.eliminated_checks > counters.Prims.dynamic_checks)

(* all other table programs eliminate every check *)
let test_full_elimination () =
  List.iter
    (fun (b : Dml_programs.Programs.benchmark) ->
      let report = typecheck b in
      let counters = Prims.new_counters () in
      let ex = compiled_exec Prims.Unchecked ~counters report.Pipeline.rp_tprog in
      ignore (b.Dml_programs.Programs.run ex ~scale:1);
      Alcotest.(check int)
        (b.Dml_programs.Programs.name ^ ": no residual checks")
        0 counters.Prims.dynamic_checks)
    Dml_programs.Programs.table_benchmarks

let () =
  Alcotest.run "programs"
    [
      ("benchmarks (both disciplines, verified)", benchmark_tests);
      ( "backends",
        [
          Alcotest.test_case "cost model algebra" `Slow test_cost_model_algebra;
        ] );
      ( "tables",
        [
          Alcotest.test_case "table 1 rows" `Quick test_table1;
          Alcotest.test_case "table 2 gains positive" `Slow test_table2_gains;
          Alcotest.test_case "table 2 golden" `Slow test_table2_golden;
          Alcotest.test_case "kmp residual checks" `Slow test_kmp_residual;
          Alcotest.test_case "full elimination elsewhere" `Slow test_full_elimination;
        ] );
    ]
