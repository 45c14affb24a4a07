(* The run phase: generated code and evaluators do all the work here and
   the checker does none.  Each of the 8 Table 2/3 kernels is checked in
   set-up, then built twice by the native backend with the probed
   toolchain -- proven sites unsafe, as DML emits it, and every access
   checked -- and both binaries are timed from outside, one at a time, over
   repeated rounds in a seeded kernel order; the closure backend runs the
   same kernels in-process.  Every result line is compared with the
   reference the Workloads drivers compute on the checked closure backend,
   where each driver verifies every result against plain OCaml. *)

open Perfbench_core
open Fixture
module Pr = Dml_programs.Programs
module Codegen = Dml_eval.Codegen
module Prims = Dml_eval.Prims
module Compile = Dml_eval.Compile

(* Native workload scale per kernel, fixed so that the DML-emitted binary
   runs long enough (tens of milliseconds) to time steadily from outside.
   The closure backend runs at scale 1. *)
let native_scale = function
  | "bcopy" -> 12
  | "binary search" -> 6
  | "bubble sort" -> 60
  | "matrix mult" -> 80
  | "queen" -> 60
  | "quick sort" -> 12
  | "hanoi towers" -> 40
  | "list access" -> 24
  | _ -> 1

type kernel = {
  bench : Pr.benchmark;
  key : string;  (** metric-name form of the kernel name *)
  tprog : Dml_mltype.Tast.tprogram;
  degraded : Dml_lang.Loc.t -> bool;
  driver : string;
  reference : string;  (** the Workloads summary at scale 1 *)
  closure : Dml_eval.Backend.exec;  (** DML discipline: proven sites unchecked *)
}

type binary = { kernel : kernel; checked : bool; exe : string }

type samples = {
  native : (string * bool, float list) Hashtbl.t;  (** (kernel, checked) -> ms *)
  closure : (string, float list) Hashtbl.t;
  remainder : float list ref;  (** outside minus inside time per native run, ms *)
}

type t = {
  kernels : kernel list;
  dir : string;
  mutable binaries : binary list;
  first : (string, string) Hashtbl.t;  (** first timed summary per kernel *)
  mutable round : int;
  plain : samples;
  traced : samples;
}

let new_samples () = { native = Hashtbl.create 16; closure = Hashtbl.create 8; remainder = ref [] }

let exec mode ?counters ?degraded tprog =
  let env = Compile.run_program (Compile.initial_fast mode ?counters ?degraded ()) tprog in
  { Dml_eval.Backend.lookup = Compile.lookup env }

let setup ctx =
  let dir = Filename.concat ctx.work "run" in
  mkdir_p dir;
  let session = Dml_core.Session.create () in
  let kernels =
    List.filter_map
      (fun (b : Pr.benchmark) ->
        match (Dml_core.Pipeline.check_s session b.Pr.source, Dml_programs.Native_drivers.find b.Pr.name) with
        | Ok rp, Some driver ->
            outcome "run/check"
              (if rp.Dml_core.Pipeline.rp_valid then Classify.Ok
               else Classify.Wrong_verdict (b.Pr.name ^ " has unproven obligations"));
            let tprog = rp.Dml_core.Pipeline.rp_tprog in
            let degraded = Dml_core.Pipeline.degraded_pred rp in
            let reference = b.Pr.run (exec Prims.Checked tprog) ~scale:1 in
            Some
              {
                bench = b;
                key = slug b.Pr.name;
                tprog;
                degraded;
                driver;
                reference;
                closure = exec Prims.Unchecked ~degraded tprog;
              }
        | Error f, _ ->
            outcome "run/check" (Classify.Error_response (Dml_core.Pipeline.failure_to_string f));
            None
        | Ok _, None ->
            outcome "run/check" (Classify.Error_response ("no native driver for " ^ b.Pr.name));
            None)
      Pr.table_benchmarks
  in
  {
    kernels;
    dir;
    binaries = [];
    first = Hashtbl.create 8;
    round = 0;
    plain = new_samples ();
    traced = new_samples ();
  }

(* --- native builds --------------------------------------------------------------- *)

let build t =
  match Codegen.find_toolchain () with
  | Error msg -> outcome "run/build" (Classify.Build_failure msg)
  | Ok tc ->
      let start = Proc.now () in
      let sources =
        List.concat_map
          (fun k ->
            List.map
              (fun checked ->
                let base =
                  Filename.concat t.dir (k.key ^ if checked then "_checked" else "_unchecked")
                in
                let text =
                  Spans.with_span "codegen.emit" (fun () ->
                      if checked then
                        Codegen.emit_executable ~name:k.bench.Pr.name ~mode:Prims.Checked ~repeats:1
                          ~instrument:false ~driver:k.driver k.tprog
                      else
                        Codegen.emit_executable ~name:k.bench.Pr.name ~mode:Prims.Unchecked
                          ~degraded:k.degraded ~repeats:1 ~instrument:false ~driver:k.driver k.tprog)
                in
                Proc.write_file (base ^ ".ml") text;
                { kernel = k; checked; exe = base ^ ".exe" })
              [ false; true ])
          t.kernels
      in
      let compiles =
        Proc.run_limited ~slots:1 ~limit_s:300.
          (List.map
             (fun b ->
               let src = Filename.chop_suffix b.exe ".exe" ^ ".ml" in
               let log = Filename.chop_suffix b.exe ".exe" ^ ".log" in
               ( (fun () -> Proc.spawn ~out:log "/bin/sh" [ "-c"; tc.Codegen.tc_compile ~src ~exe:b.exe ^ " 2>&1" ]),
                 log ))
             sources)
      in
      metric "run.build_s" "s" (Proc.now () -. start);
      List.iter (fun r -> Spans.record "codegen.ocamlopt" ~start:r.Proc.start ~stop:r.Proc.stop ignore) compiles;
      t.binaries <-
        List.filter_map
          (fun (b, r) ->
            if r.Proc.code = Some 0 then Some b
            else begin
              outcome "run/build" (Classify.Build_failure (b.exe ^ ": " ^ r.Proc.out));
              None
            end)
          (List.combine sources compiles)

(* --- timing ----------------------------------------------------------------------- *)

let field prefix text =
  List.find_map
    (fun l ->
      let n = String.length prefix in
      if String.length l > n && String.sub l 0 n = prefix then Some (String.sub l n (String.length l - n))
      else None)
    (String.split_on_char '\n' text)

let run_binary t b ~scale =
  let r = Proc.run ~out:(Filename.concat t.dir "bin.out") b.exe [ string_of_int scale ] in
  let summary = if r.Proc.code = Some 0 then field "summary " r.Proc.out else None in
  let inner = Option.bind (field "time_s " r.Proc.out) float_of_string_opt in
  (r, summary, inner)

let what b = b.kernel.bench.Pr.name ^ if b.checked then " (all checked)" else " (DML)"

(* Each binary once at scale 1 against the Workloads reference. *)
let verify t =
  List.iter
    (fun b ->
      let _, summary, _ = run_binary t b ~scale:1 in
      outcome "run/native"
        (match summary with
        | None -> Classify.Error_response (what b ^ ": no summary")
        | Some got -> Classify.summary ~reference:b.kernel.reference ~got ~what:(what b)))
    t.binaries

let push tbl k v = Hashtbl.replace tbl k (v :: Option.value (Hashtbl.find_opt tbl k) ~default:[])

(* One round: every kernel in a seeded order, both binaries (alternating
   which goes first) and then the closure backend. *)
let slice ctx t ~traced =
  let s = if traced then t.traced else t.plain in
  t.round <- t.round + 1;
  List.iter
    (fun k ->
      let pair = List.filter (fun b -> b.kernel == k) t.binaries in
      let pair = if t.round mod 2 = 0 then List.rev pair else pair in
      List.iter
        (fun b ->
          Spans.new_op ();
          let r, summary, inner = run_binary t b ~scale:(native_scale k.bench.Pr.name) in
          let o =
            match (summary, Hashtbl.find_opt t.first k.key) with
            | None, _ -> Classify.Error_response (what b ^ ": no summary")
            | Some got, Some reference -> Classify.summary ~reference ~got ~what:(what b)
            | Some got, None ->
                Hashtbl.replace t.first k.key got;
                Classify.Ok
          in
          outcome "run/native" o;
          let ms = Proc.secs r *. 1e3 in
          push s.native (k.key, b.checked) ms;
          Option.iter (fun i -> s.remainder := (ms -. (i *. 1e3)) :: !(s.remainder)) inner;
          Spans.record
            (Printf.sprintf "eval.native.%s.%s" k.key (if b.checked then "checked" else "unchecked"))
            ~start:r.Proc.start ~stop:r.Proc.stop ignore)
        pair;
      Spans.new_op ();
      Gc.full_major ();
      let t0 = Proc.now () in
      let got = k.bench.Pr.run k.closure ~scale:1 in
      let t1 = Proc.now () in
      outcome "run/closure"
        (Classify.summary ~reference:k.reference ~got ~what:(k.bench.Pr.name ^ " (closure)"));
      push s.closure k.key ((t1 -. t0) *. 1e3);
      Spans.record (Printf.sprintf "eval.closure.%s" k.key) ~start:t0 ~stop:t1 ignore)
    (shuffle ctx.rng t.kernels)

let geo s f = Stats.geomean (List.map f s)

let native_ms s t ~checked =
  geo t.kernels (fun k -> Stats.median (Hashtbl.find s.native (k.key, checked)))

let report_e2e t =
  let s = t.plain in
  metric "run.native_ms" "ms" (native_ms s t ~checked:false);
  metric "run.native_checked_ms" "ms" (native_ms s t ~checked:true);
  metric "run.closure_ms" "ms" (geo t.kernels (fun k -> Stats.median (Hashtbl.find s.closure k.key)))

let report_layers t =
  let traced = t.traced in
  metric "codegen.emit_ms" "ms" (Stats.sum (Spans.durations "codegen.emit") *. 1e3);
  metric "codegen.ocamlopt_s" "s" (Stats.sum (Spans.durations "codegen.ocamlopt"));
  (* per kernel, over every round: timing a binary records a span and no
     more, so traced rounds time the same work *)
  let all tbl key = Hashtbl.find (tbl t.plain) key @ Hashtbl.find (tbl traced) key in
  List.iter
    (fun k ->
      let med checked = Stats.median (all (fun s -> s.native) (k.key, checked)) in
      metric (Printf.sprintf "eval.native.%s.unchecked_ms" k.key) "ms" (med false);
      metric (Printf.sprintf "eval.native.%s.checked_ms" k.key) "ms" (med true);
      metric (Printf.sprintf "eval.native.%s.ratio" k.key) "ratio" (med true /. med false);
      metric (Printf.sprintf "eval.closure.%s_ms" k.key) "ms"
        (Stats.median (all (fun s -> s.closure) k.key)))
    t.kernels;
  (* checks eliminated and still executed by one scale-1 run of every kernel
     under the DML discipline *)
  let counters = Prims.new_counters () in
  List.iter
    (fun k -> ignore (k.bench.Pr.run (exec Prims.Unchecked ~counters ~degraded:k.degraded k.tprog) ~scale:1))
    t.kernels;
  metric "eval.eliminated" "count" (float_of_int counters.Prims.eliminated_checks);
  metric "eval.residual" "count" (float_of_int counters.Prims.dynamic_checks);
  metric "run.unattributed_ms" "ms" (Stats.median !(traced.remainder));
  overhead "run" ~untraced:(native_ms t.plain t ~checked:false) ~traced:(native_ms traced t ~checked:false)

(* Build all binaries and check each once; [false] when the phase cannot
   run. *)
let prepare t =
  build t;
  let ok = List.length t.binaries = 2 * List.length t.kernels in
  if ok then verify t;
  ok

let report ctx t = if ctx.trace then report_layers t else report_e2e t
