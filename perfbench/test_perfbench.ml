(* Unit tests for the benchmark's own statistics and failure
   classification. *)

open Perfbench_core

let failures = ref 0

let check name cond =
  if not cond then begin
    incr failures;
    Printf.printf "FAIL %s\n" name
  end

let close a b = Float.abs (a -. b) < 1e-9

let () =
  (* percentiles interpolate between closest ranks (Python's inclusive
     quantiles, numpy's default) *)
  check "median of even count averages the middle pair" (close (Stats.median [ 4.; 1.; 3.; 2. ]) 2.5);
  check "median of odd count is the middle sample" (close (Stats.median [ 5.; 1.; 3. ]) 3.);
  let hundred = List.init 100 (fun i -> float_of_int (i + 1)) in
  check "p99 of 1..100 interpolates at rank 98.01" (close (Stats.percentile hundred 99.) 99.01);
  check "p0 and p100 are the extremes"
    (close (Stats.percentile hundred 0.) 1. && close (Stats.percentile hundred 100.) 100.);
  check "p99 of a single sample is that sample" (close (Stats.percentile [ 7. ] 99.) 7.);
  check "percentile ignores input order"
    (close (Stats.percentile [ 3.; 1.; 2. ] 25.) (Stats.percentile [ 1.; 2.; 3. ] 25.));
  check "empty sample set is rejected"
    (match Stats.percentile [] 50. with _ -> false | exception Invalid_argument _ -> true);
  (* geometric mean over kernels *)
  check "geomean of 1 and 4 is 2" (close (Stats.geomean [ 1.; 4. ]) 2.);
  check "geomean of 2, 8, 4 is 4" (close (Stats.geomean [ 2.; 8.; 4. ]) 4.);
  check "geomean weighs relative change: doubling any one kernel scales it by 2^(1/n)"
    (close (Stats.geomean [ 2.; 100. ] /. Stats.geomean [ 1.; 100. ]) (sqrt 2.));
  check "geomean rejects a zero time"
    (match Stats.geomean [ 1.; 0. ] with _ -> false | exception Invalid_argument _ -> true);
  (* failure classification *)
  let ok = function Classify.Ok -> true | _ -> false in
  let valid = "constraints: 17 (all valid)\ngeneration: 0.1s\n" in
  let two = "constraints: 24 (2 unproven)\n" in
  check "residual parsed from an all-valid report" (Classify.residual_of_report valid = Some 0);
  check "residual parsed from an unproven report" (Classify.residual_of_report two = Some 2);
  check "valid program exiting 0 is ok"
    (ok (Classify.check_run ~expected_residual:0 ~exit_code:(Some 0) ~stdout:valid));
  check "known residual count with exit 1 is ok"
    (ok (Classify.check_run ~expected_residual:2 ~exit_code:(Some 1) ~stdout:two));
  check "unproven program expected valid is a wrong verdict"
    (match Classify.check_run ~expected_residual:0 ~exit_code:(Some 1) ~stdout:two with
    | Classify.Wrong_verdict _ -> true
    | _ -> false);
  check "usage error without a report is an error response"
    (match Classify.check_run ~expected_residual:0 ~exit_code:(Some 124) ~stdout:"" with
    | Classify.Error_response _ -> true
    | _ -> false);
  let overrun =
    Classify.limited_run ~limit_s:10. ~killed:true ~expected_residual:0 ~exit_code:None ~stdout:""
  in
  check "a killed program is a limit overrun"
    (match overrun with Classify.Limit_overrun _ -> true | _ -> false);
  check "a limit overrun fails the operation but is not a wrong answer"
    (Classify.failed overrun && not (Classify.wrong overrun));
  check "a wrong verdict is a wrong answer" (Classify.wrong (Classify.Wrong_verdict "x"));
  let batch_out =
    "program          status      cons\na.dml            valid         17\n\
     b.dml            residual      3\npass 1: 2 program(s), 1 failed\n"
  in
  check "batch with every row valid is ok"
    (ok (Classify.batch_run ~programs:[ "a.dml" ] ~exit_code:(Some 0) ~stdout:batch_out));
  check "batch row not valid is a wrong verdict"
    (match Classify.batch_run ~programs:[ "a.dml"; "b.dml" ] ~exit_code:(Some 0) ~stdout:batch_out with
    | Classify.Wrong_verdict _ -> true
    | _ -> false);
  check "batch missing a row is an error response"
    (match Classify.batch_run ~programs:[ "c.dml" ] ~exit_code:(Some 0) ~stdout:batch_out with
    | Classify.Error_response _ -> true
    | _ -> false);
  let module J = Dml_obs.Json in
  let env ?(memo = false) ok = J.Obj ([ ("ok", J.Bool ok) ] @ if memo then [ ("memo", J.Bool true) ] else []) in
  check "memo answer where one is expected is ok" (ok (Classify.envelope ~expect_memo:(Some true) (env ~memo:true true)));
  check "missing memo answer is a wrong verdict"
    (match Classify.envelope ~expect_memo:(Some true) (env true) with
    | Classify.Wrong_verdict _ -> true
    | _ -> false);
  check "ok=false is an error response"
    (match Classify.envelope ~expect_memo:None (env false) with
    | Classify.Error_response _ -> true
    | _ -> false);
  let doc d = J.Obj [ ("valid", J.Bool true); ("constraints", J.Int 3); ("dur_s", J.Float d) ] in
  check "documents equal up to scrubbed fields are the same"
    (ok (Classify.same_doc ~scrub_keys:[ "dur_s" ] ~what:"x" (doc 1.) (doc 2.)));
  check "documents differing in a kept field are a patch mismatch"
    (match Classify.same_doc ~scrub_keys:[] ~what:"x" (doc 1.) (doc 2.) with
    | Classify.Patch_mismatch _ -> true
    | _ -> false);
  check "check document with the known answer is ok"
    (ok (Classify.check_doc ~expected_valid:true ~expected_constraints:3 (doc 0.)));
  check "summary differing from the reference is a mismatch"
    (match Classify.summary ~reference:"a=1" ~got:"a=2" ~what:"k" with
    | Classify.Summary_mismatch _ -> true
    | _ -> false);
  (* reading a program's own span trace (dml-trace/1) *)
  let sp ?(attrs = []) name start dur children =
    J.Obj
      [
        ("name", J.String name);
        ("start_s", J.Float start);
        ("dur_s", J.Float dur);
        ("attrs", J.Obj attrs);
        ("children", J.List children);
      ]
  in
  let trace =
    J.Obj
      [
        ("schema", J.String "dml-trace/1");
        ( "spans",
          J.List
            [
              sp "check" 0. 1.
                ~attrs:[ ("constraints", J.Int 3) ]
                [ sp "parse" 0. 0.25 []; sp "solve" 0.5 0.5 ~attrs:[ ("disjuncts", J.Int 2) ] [] ];
            ] );
      ]
  in
  (match Dtrace.of_json trace with
  | Some [ c ] ->
      check "trace attributes are read" (Dtrace.int_attr c "constraints" = 3);
      check "a missing attribute reads as 0" (Dtrace.int_attr c "residual" = 0);
      check "flatten lists parents before children"
        (List.map (fun s -> s.Dtrace.name) (Dtrace.flatten [ c ]) = [ "check"; "parse"; "solve" ]);
      (* imported under an operation span, the program's spans leave the
         operation's self time as the unattributed remainder *)
      Spans.enabled := true;
      Spans.new_op ();
      Spans.record "op" ~start:(-1.) ~stop:1.5 (fun () -> Spans.import ~rename:(fun s -> "x." ^ s.Dtrace.name) c);
      Spans.enabled := false;
      check "operation self time excludes the imported spans"
        (match Spans.self_times "op" with [ s ] -> close s 1.5 | _ -> false);
      check "imported spans keep their nesting"
        (match Spans.self_times "x.check" with [ s ] -> close s 0.25 | _ -> false)
  | _ -> check "a dml-trace/1 document is read" false);
  check "a document of another schema is not a trace"
    (Dtrace.of_json (J.Obj [ ("schema", J.String "dml-check/1") ]) = None);
  if !failures > 0 then exit 1;
  print_endline "perfbench unit tests: ok"
