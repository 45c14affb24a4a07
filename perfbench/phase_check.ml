(* The check phase: what a user types.  A closed loop of [dmlc check FILE]
   over a seeded order of the 12 annotated corpus programs; every
   [batch_every]-th operation is instead [dmlc batch -j 1] over the whole
   corpus, the only end-to-end measure of the lib/par worker pool.  One
   worker, not two: on a shared two-core machine a two-worker batch swung
   by half its time between runs, twice as much as any serial figure; the
   traced rounds time both widths ([par.batch_seq_ms], [par.batch_j2_ms]).

   In the [warm] workload both commands share a persistent verdict cache
   ([--cache-dir]), filled during set-up, so their goals are cache hits.
   In [cold], [dmlc check] runs as typed (it has no cache by default) and
   [dmlc batch] gets a verdict table of one entry, so no verdict outlives
   the goal that produced it.

   In traced rounds [dmlc check] also writes its own span trace
   ([--trace FILE]); the per-layer figures are read from it. *)

open Perfbench_core
open Fixture

let batch_every = 12

type acc = { mutable cli : float list; mutable batches : float list }

(* What one traced [dmlc check] reported about itself. *)
type row = {
  obligations : int;
  goals : int;
  disjuncts : int;
  eliminations : int;
  solve_s : float;
  parse_s : float;
  bytes : int;  (** basis plus user source *)
}

type t = {
  progs : program list;
  check_args : string list;  (** verdict-cache flags of [dmlc check] *)
  batch_args : string list;  (** and of [dmlc batch] *)
  mutable order : program list;  (** rest of the current seeded pass *)
  mutable n : int;
  plain : acc;  (** latencies in ms, untraced *)
  traced : acc;
  mutable rows : row list;
  batch_j : (int, float list) Hashtbl.t;  (** traced batch latencies per width *)
}

let out ctx = Filename.concat ctx.work "check.out"
let trace_file ctx = Filename.concat ctx.work "check.trace.json"
let check_cmd ?(trace = []) t p = ("check" :: trace) @ t.check_args @ [ p.p_file ]

let batch_cmd t ~jobs =
  ("batch" :: "-j" :: string_of_int jobs :: t.batch_args) @ List.map (fun p -> p.p_file) t.progs

let batch ctx t ~jobs =
  let r = Proc.run ~out:(out ctx) ctx.dmlc (batch_cmd t ~jobs) in
  outcome "check/batch"
    (Classify.batch_run ~programs:(List.map (fun p -> p.p_file) t.progs) ~exit_code:r.Proc.code
       ~stdout:r.Proc.out);
  r

let setup ctx =
  let dir = Filename.concat ctx.work "check" in
  let persistent = [ "--cache-dir"; Filename.concat dir "vcache" ] in
  let t =
    {
      progs = annotated dir;
      check_args = (if ctx.warm then persistent else []);
      batch_args = (if ctx.warm then persistent else [ "--cache-entries"; "1" ]);
      order = [];
      n = 0;
      plain = { cli = []; batches = [] };
      traced = { cli = []; batches = [] };
      rows = [];
      batch_j = Hashtbl.create 2;
    }
  in
  if ctx.warm then ignore (batch ctx t ~jobs:1);
  t

(* The stage spans of one [dmlc check --trace], renamed to the layers they
   time.  The pipeline parses the user source before the basis. *)
let layer_names () =
  let parses = ref 0 in
  fun (s : Dtrace.span) ->
    match s.Dtrace.name with
    | "check" -> "core.check"
    | "parse" ->
        incr parses;
        if !parses = 1 then "lang.parse_user" else "lang.parse_basis"
    | "infer" -> "mltype.infer"
    | "elaborate" -> "core.elab"
    | "obligation" -> "core.obligation"
    | "solve" -> "solver.solve"
    | n -> "dmlc." ^ n

(* The lexer alone, in-process: no program reports it as a stage of its
   own, since parsing lexes as it goes. *)
let lex p =
  Spans.with_span "lang.lex" (fun () ->
      ignore (Dml_lang.Lexer.tokenize Dml_core.Basis.source);
      ignore (Dml_lang.Lexer.tokenize p.p_source))

let traced_check ctx t p =
  let tf = trace_file ctx in
  (try Sys.remove tf with Sys_error _ -> ());
  let r = Proc.run ~out:(out ctx) ctx.dmlc (check_cmd ~trace:[ "--trace"; tf ] t p) in
  let spans = Option.value (Dtrace.read tf) ~default:[] in
  Spans.record "check.spawn" ~start:r.Proc.start ~stop:r.Proc.stop (fun () ->
      List.iter (Spans.import ~rename:(layer_names ())) spans);
  (match List.find_opt (fun (s : Dtrace.span) -> s.Dtrace.name = "check") spans with
  | None -> ()
  | Some c ->
      let all = Dtrace.flatten [ c ] in
      let named n = List.filter (fun (s : Dtrace.span) -> s.Dtrace.name = n) all in
      let solves = named "solve" in
      let sum f xs = List.fold_left (fun a s -> a + f s) 0 xs in
      t.rows <-
        {
          obligations = Dtrace.int_attr c "constraints";
          goals = List.length solves;
          disjuncts = sum (fun s -> Dtrace.int_attr s "disjuncts") solves;
          eliminations = sum (fun s -> Dtrace.int_attr s "fm_eliminations") solves;
          solve_s = Stats.sum (List.map (fun (s : Dtrace.span) -> s.Dtrace.dur) solves);
          parse_s = Stats.sum (List.map (fun (s : Dtrace.span) -> s.Dtrace.dur) (named "parse"));
          bytes = String.length Dml_core.Basis.source + String.length p.p_source;
        }
        :: t.rows);
  r

(* One slice of the closed loop, [duration] seconds long.  Traced batches
   alternate between one and two workers. *)
let slice ctx t ~duration ~traced =
  let acc = if traced then t.traced else t.plain in
  let stop = Proc.now () +. duration in
  while Proc.now () < stop do
    t.n <- t.n + 1;
    Spans.new_op ();
    if t.n mod batch_every = 0 then begin
      let jobs = if traced && t.n / batch_every mod 2 = 0 then 2 else 1 in
      let r = batch ctx t ~jobs in
      let ms = Proc.secs r *. 1e3 in
      if traced then begin
        Hashtbl.replace t.batch_j jobs (ms :: Option.value (Hashtbl.find_opt t.batch_j jobs) ~default:[]);
        Spans.record (Printf.sprintf "check.batch_j%d" jobs) ~start:r.Proc.start ~stop:r.Proc.stop ignore
      end
      else acc.batches <- ms :: acc.batches
    end
    else begin
      if t.order = [] then t.order <- shuffle ctx.rng t.progs;
      let p = List.hd t.order in
      t.order <- List.tl t.order;
      let r =
        if traced then begin
          lex p;
          Spans.new_op ();
          traced_check ctx t p
        end
        else Proc.run ~out:(out ctx) ctx.dmlc (check_cmd t p)
      in
      outcome "check"
        (Classify.check_run ~expected_residual:p.p_residual ~exit_code:r.Proc.code
           ~stdout:r.Proc.out);
      acc.cli <- (Proc.secs r *. 1e3) :: acc.cli
    end
  done

(* [dmlc --version]: the cost of process start and command-line parsing
   alone. *)
let startup_probes ctx =
  for _ = 1 to 20 do
    Spans.new_op ();
    let r = Proc.run ~out:(out ctx) ctx.dmlc [ "--version" ] in
    Spans.record "cli.startup" ~start:r.Proc.start ~stop:r.Proc.stop ignore
  done

let report_e2e { cli; batches } =
  metric "check.cli_ms.p50" "ms" (Stats.median cli);
  metric "check.batch_ms.p50" "ms" (Stats.median batches)

let report_layers t =
  (* the tail, from the untraced rounds: ungated, see README.md *)
  metric "check.cli_ms.p95" "ms" (Stats.percentile t.plain.cli 95.);
  List.iter
    (fun (name, span) -> metric name "ms" (mean_span_ms span))
    [
      ("lang.lex_ms", "lang.lex");
      ("lang.parse_basis_ms", "lang.parse_basis");
      ("lang.parse_user_ms", "lang.parse_user");
      ("mltype.infer_ms", "mltype.infer");
      ("core.elab_ms", "core.elab");
    ];
  metric "core.report_ms" "ms" (Stats.mean (Spans.self_times "core.check") *. 1e3);
  let per_program f = Stats.mean (List.map (fun r -> float_of_int (f r)) t.rows) in
  let total f = Stats.sum (List.map f t.rows) in
  metric "lang.parse_ns_per_byte" "ns/byte"
    (total (fun r -> r.parse_s) *. 1e9 /. total (fun r -> float_of_int r.bytes));
  metric "solver.solve_ms" "ms" (Stats.mean (List.map (fun r -> r.solve_s) t.rows) *. 1e3);
  metric "core.obligations" "count" (per_program (fun r -> r.obligations));
  metric "solver.goals" "count" (per_program (fun r -> r.goals));
  metric "solver.disjuncts" "count" (per_program (fun r -> r.disjuncts));
  metric "solver.fm_eliminations" "count" (per_program (fun r -> r.eliminations));
  metric "cli.startup_ms" "ms" (Stats.median (Spans.durations "cli.startup") *. 1e3);
  let batch jobs = Stats.median (Option.value (Hashtbl.find_opt t.batch_j jobs) ~default:[ nan ]) in
  metric "par.batch_seq_ms" "ms" (batch 1);
  metric "par.batch_j2_ms" "ms" (batch 2);
  metric "check.unattributed_ms" "ms" (Stats.mean (Spans.self_times "check.spawn") *. 1e3);
  overhead "check" ~untraced:(Stats.median t.plain.cli) ~traced:(Stats.median t.traced.cli)

let report ctx t = if ctx.trace then report_layers t else report_e2e t.plain
