(* Failure classification.  Every operation the benchmark attempts ends in
   exactly one outcome; anything but [Ok] counts as a failed operation, and
   every outcome except [Limit_overrun] is a wrong answer, after which the
   run reports no speed.  A limit overrun is an answer that came too late,
   not a wrong one: the [infer] phase counts it as failed and charges the
   limit as its time. *)

type outcome =
  | Ok
  | Wrong_verdict of string
  | Error_response of string
  | Patch_mismatch of string
  | Summary_mismatch of string
  | Build_failure of string
  | Limit_overrun of string

let failed = function Ok -> false | _ -> true
let wrong = function Ok | Limit_overrun _ -> false | _ -> true

let describe = function
  | Ok -> "ok"
  | Wrong_verdict m -> "wrong verdict: " ^ m
  | Error_response m -> "error response: " ^ m
  | Patch_mismatch m -> "check_patch document differs from a cold check: " ^ m
  | Summary_mismatch m -> "summary differs from the reference: " ^ m
  | Build_failure m -> "build failure: " ^ m
  | Limit_overrun m -> "limit overrun: " ^ m

(* The residual count a text [dmlc check] report states on its first line:
   "constraints: N (all valid)" or "constraints: N (K unproven...)". *)
let residual_of_report text =
  let first = match String.index_opt text '\n' with Some i -> String.sub text 0 i | None -> text in
  match String.index_opt first '(' with
  | None -> None
  | Some i ->
      let rest = String.sub first (i + 1) (String.length first - i - 1) in
      if String.length rest >= 9 && String.sub rest 0 9 = "all valid" then Some 0
      else Scanf.sscanf_opt rest "%d unproven" (fun k -> k)

(* One [dmlc check] spawn against its known answer.  Strict mode exits 0
   exactly when every obligation is proven and 1 when some are not; any
   other exit, or a report that states no verdict, is an error. *)
let check_run ~expected_residual ~exit_code ~stdout =
  match (exit_code, residual_of_report stdout) with
  | Some code, Some r when r = expected_residual && code = if r = 0 then 0 else 1 -> Ok
  | Some _, Some r ->
      Wrong_verdict (Printf.sprintf "%d residual obligation(s), expected %d" r expected_residual)
  | Some code, None -> Error_response (Printf.sprintf "exit %d without a report" code)
  | None, _ -> Error_response "killed by a signal"

(* One spawn run under a wall-clock limit: overrunning it is the outcome,
   whatever the process would have answered. *)
let limited_run ~limit_s ~killed ~expected_residual ~exit_code ~stdout =
  if killed then Limit_overrun (Printf.sprintf "still running after %.0f s" limit_s)
  else check_run ~expected_residual ~exit_code ~stdout

(* A text [dmlc batch] report: one row per program ("NAME valid ...") and a
   "pass 1: N program(s), F failed" trailer.  Every program named must have
   a row marked valid. *)
let batch_run ~programs ~exit_code ~stdout =
  let lines = String.split_on_char '\n' stdout in
  let row_status name =
    List.find_map
      (fun l ->
        match String.split_on_char ' ' l |> List.filter (( <> ) "") with
        | n :: status :: _ when n = name -> Some status
        | _ -> None)
      lines
  in
  if exit_code <> Some 0 then
    Error_response
      (match exit_code with
      | Some c -> Printf.sprintf "batch exited %d" c
      | None -> "batch killed by a signal")
  else
    match List.find_opt (fun p -> row_status p <> Some "valid") programs with
    | None -> Ok
    | Some p -> (
        match row_status p with
        | None -> Error_response ("no batch row for " ^ p)
        | Some s -> Wrong_verdict (Printf.sprintf "%s reported %s" p s))

(* A [dml-server/1] envelope: [ok] must be true, and the memo flag must be
   what the request kind implies (a repeated unchanged check is answered
   from the memo; a new source never is). *)
let envelope ~expect_memo v =
  let module J = Dml_obs.Json in
  match J.member "ok" v with
  | Some (J.Bool true) -> (
      let memo = J.member "memo" v = Some (J.Bool true) in
      match expect_memo with
      | Some m when m <> memo ->
          Wrong_verdict (if m then "expected a memo answer" else "unexpected memo answer")
      | _ -> Ok)
  | _ ->
      let msg =
        match J.member "error" v with
        | Some e -> J.to_string e
        | None -> "response without ok"
      in
      Error_response msg

(* A check document must state the expected validity and obligation count. *)
let check_doc ~expected_valid ~expected_constraints doc =
  let module J = Dml_obs.Json in
  match (J.member "valid" doc, J.member "constraints" doc) with
  | Some (J.Bool v), Some (J.Int c) when v = expected_valid && c = expected_constraints -> Ok
  | Some (J.Bool v), Some (J.Int c) ->
      Wrong_verdict
        (Printf.sprintf "valid=%b constraints=%d, expected valid=%b constraints=%d" v c
           expected_valid expected_constraints)
  | _ -> Error_response "document without valid/constraints"

(* Two documents that must agree byte for byte after scrubbing the fields
   that legitimately vary between schedules. *)
let same_doc ~scrub_keys ~what a b =
  let module J = Dml_obs.Json in
  if J.to_string (J.scrub ~keys:scrub_keys a) = J.to_string (J.scrub ~keys:scrub_keys b) then Ok
  else Patch_mismatch what

let summary ~reference ~got ~what =
  if got = reference then Ok
  else Summary_mismatch (Printf.sprintf "%s: %S, expected %S" what got reference)
