(* The infer phase: one pass of [dmlc check --infer FILE] over 11 of the
   12 unannotated twins, in a seeded order, one at a time, each under a
   fixed wall-clock limit.  DNF and Fourier-Motzkin solving do nearly all
   the work, and the front end re-runs every fixpoint round.  A program past
   the limit is killed, counted as failed and charged the limit.  Hanoi is
   not in the pass: its inference needs about a minute (see
   [Fixture.too_slow_to_infer]). *)

open Perfbench_core
open Fixture

let limit_s = 10.
let slots = 1

type t = {
  progs : program list;
  mutable order : program array;  (** the seeded order of the pass *)
  mutable plain : float list;  (** charged seconds per program *)
  mutable traced : float list;  (** the same for the traced pass *)
}

let setup ctx = { progs = unannotated (Filename.concat ctx.work "infer"); order = [||]; plain = []; traced = [] }

let out p = Filename.chop_suffix p.p_file ".dml" ^ ".out"
let trace_file p = Filename.chop_suffix p.p_file ".dml" ^ ".trace.json"

(* What a traced program that finished states about itself. *)
type row = {
  engine_s : float;
  rounds : int;
  quals : int;
  solve_s : float;
  outside_s : float;  (** spawn wall time outside the engine's spans *)
}

let engine_rows = ref []

(* One traced program: its spawn is the operation, the engine's span
   covers the program's own root spans, and those keep their names. *)
let observe p (r : Proc.result) =
  Spans.new_op ();
  let roots = if r.Proc.killed then [] else Option.value (Dtrace.read (trace_file p)) ~default:[] in
  Spans.record "infer.spawn" ~start:r.Proc.start ~stop:r.Proc.stop (fun () ->
      match roots with
      | [] -> ()
      | first :: _ ->
          let last = List.nth roots (List.length roots - 1) in
          let start = first.Dtrace.start and stop = last.Dtrace.start +. last.Dtrace.dur in
          Spans.record "infer.engine" ~start ~stop (fun () ->
              List.iter (Spans.import ~rename:(fun s -> "dmlc." ^ s.Dtrace.name)) roots);
          let all = Dtrace.flatten roots in
          let fixpoint = List.filter (fun s -> s.Dtrace.name = "infer-fixpoint") all in
          let attr k = List.fold_left (fun a s -> a + Dtrace.int_attr s k) 0 fixpoint in
          let solve =
            Stats.sum (List.filter_map (fun s -> if s.Dtrace.name = "solve" then Some s.Dtrace.dur else None) all)
          in
          engine_rows :=
            {
              engine_s = stop -. start;
              rounds = attr "iterations";
              quals = attr "quals_tested";
              solve_s = solve;
              outside_s = Proc.secs r -. (stop -. start);
            }
            :: !engine_rows)

(* Part [part] of [parts] of the pass over the twins in a seeded order,
   [slots] at a time.  The pass is split so that, like the other phases, it
   samples more than one stretch of the run.  A traced part has each [dmlc]
   write its own span trace ([--trace FILE]). *)
let slice ctx t ~part ~parts ~traced =
  if t.order = [||] then t.order <- Array.of_list (shuffle ctx.rng t.progs);
  let n = Array.length t.order in
  let lo = (part - 1) * n / parts and hi = part * n / parts in
  let progs = Array.to_list (Array.sub t.order lo (hi - lo)) in
  let args p =
    if traced then [ "check"; "--infer"; "--trace"; trace_file p; p.p_file ]
    else [ "check"; "--infer"; p.p_file ]
  in
  let results =
    Proc.run_limited ~slots ~limit_s
      (List.map (fun p -> ((fun () -> Proc.spawn ~out:(out p) ctx.dmlc (args p)), out p)) progs)
  in
  List.iter2
    (fun p r ->
      outcome "infer"
        (Classify.limited_run ~limit_s ~killed:r.Proc.killed ~expected_residual:p.p_residual
           ~exit_code:r.Proc.code ~stdout:r.Proc.out);
      if traced then observe p r)
    progs results;
  let charged = List.map (fun r -> Float.min (Proc.secs r) limit_s) results in
  if traced then t.traced <- charged @ t.traced else t.plain <- charged @ t.plain

let report_e2e t =
  metric "infer.program_ms.geomean" "ms" (Stats.geomean t.plain *. 1e3);
  metric "infer.pass_s" "s" (Stats.sum t.plain)

let report_layers t =
  let col f = List.map f !engine_rows in
  metric "infer.engine_ms" "ms" (Stats.mean (col (fun r -> r.engine_s)) *. 1e3);
  metric "infer.rounds" "count" (Stats.mean (col (fun r -> float_of_int r.rounds)));
  metric "infer.quals_tested" "count" (Stats.mean (col (fun r -> float_of_int r.quals)));
  metric "infer.solve_share" "ratio"
    (Stats.sum (col (fun r -> r.solve_s)) /. Stats.sum (col (fun r -> r.engine_s)));
  metric "infer.unattributed_ms" "ms" (Stats.mean (col (fun r -> r.outside_s)) *. 1e3);
  overhead "infer" ~untraced:(Stats.geomean t.plain) ~traced:(Stats.geomean t.traced)

let report ctx t = if ctx.trace then report_layers t else report_e2e t
