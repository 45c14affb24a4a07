(* The benchmark's inputs, generated from the seed.  The programs under
   test see only these: source files written to the work directory, request
   documents on the dmld socket, generated kernels. *)

open Perfbench_core
module Pr = Dml_programs.Programs
module Tw = Dml_programs.Sources_unannotated

type program = {
  p_file : string;  (** where its source was written *)
  p_source : string;
  p_residual : int;  (** the known answer: unproven obligations *)
}

let slug name = String.map (fun c -> if c = ' ' then '_' else c) name

let mkdir_p path =
  let rec go p =
    if p <> "" && p <> "." && p <> "/" && not (Sys.file_exists p) then begin
      go (Filename.dirname p);
      Sys.mkdir p 0o755
    end
  in
  go path

(* Fisher-Yates over the seeded generator: the program order of a pass. *)
let shuffle rng xs =
  let a = Array.of_list xs in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let write_programs dir progs =
  mkdir_p dir;
  List.map
    (fun (name, source, residual) ->
      let file = Filename.concat dir (slug name ^ ".dml") in
      Proc.write_file file source;
      { p_file = file; p_source = source; p_residual = residual })
    progs

(* The 12 annotated corpus programs (8 table programs, 4 listings): every
   one is valid. *)
let annotated dir =
  write_programs dir (List.map (fun (b : Pr.benchmark) -> (b.Pr.name, b.Pr.source, 0)) Pr.all)

(* Their unannotated twins, with the residual counts inference leaves:
   matrix mult keeps 2 unproven sites and kmp 1; every other twin is
   proven.  Hanoi is left out: its inference needs about a minute, which no
   run of the benchmark can hold, and a run must not fail an operation
   (README.md, "Why hanoi is not in infer"). *)
let twin_residual = function "matrix mult" -> 2 | "kmp" -> 1 | _ -> 0
let too_slow_to_infer = [ "hanoi towers" ]

let unannotated dir =
  write_programs dir
    (List.filter_map
       (fun (t : Tw.twin) ->
         if List.mem t.Tw.u_name too_slow_to_infer then None
         else Some (t.Tw.u_name, t.Tw.u_source, twin_residual t.Tw.u_name))
       Tw.all)

(* --- the editor buffer of the edit phase ---------------------------------------- *)

(* The Table 1 corpus as one buffer, then [n_probes] probe declarations.  A
   probe is a guarded array access -- one proof obligation -- whose goal
   constant [k] is what an edit changes, so an edited probe is a goal the
   verdict cache has not seen.  [rev] changes only the declaration's text. *)
let corpus_src = String.concat "\n" (List.map (fun (b : Pr.benchmark) -> b.Pr.source) Pr.table_benchmarks)
let n_probes = 10

let probe i (k, rev) =
  Printf.sprintf
    "fun dmlprobe%d(a) = sub(a, %d) + %d\nwhere dmlprobe%d <| {n:nat | n > %d} int array(n) -> int\n"
    i k rev i k

let buffer probes = corpus_src ^ "\n" ^ String.concat "\n" (List.mapi probe (Array.to_list probes))
let base_probes () = Array.init n_probes (fun i -> (i, 0))

(* A fresh goal constant: drawn from a range wide enough that a seeded run
   practically never repeats one. *)
let fresh_k rng = 16 + Random.State.int rng 1_000_000

(* --- run context and results ------------------------------------------------------ *)

type ctx = {
  rng : Random.State.t;
  trace : bool;
  work : string;  (** scratch directory inside the checkout *)
  dmlc : string;
  dmld : string;
  warm : bool;  (** the [warm] workload: repeated sources and goals *)
}

let metrics : (string * (float * string)) list ref = ref []
let attempted = ref 0
let failed = ref 0
let wrong = ref 0
let by_phase : (string, int * int) Hashtbl.t = Hashtbl.create 4  (** attempted, failed *)

(* A value that could not be measured (no samples) is left out, so the run
   names it as missing instead of printing a non-number. *)
let metric name unit v =
  if Float.is_finite v then metrics := (name, (v, unit)) :: List.remove_assoc name !metrics

(* Count one operation; report every failure on stderr with its phase. *)
let outcome phase o =
  incr attempted;
  let key = List.hd (String.split_on_char '/' phase) in
  let a, f = Option.value (Hashtbl.find_opt by_phase key) ~default:(0, 0) in
  Hashtbl.replace by_phase key (a + 1, if Classify.failed o then f + 1 else f);
  if Classify.failed o then begin
    incr failed;
    if Classify.wrong o then incr wrong;
    prerr_endline (Printf.sprintf "perfbench: %s: %s" phase (Classify.describe o))
  end

let mean_span_ms name =
  match Spans.durations name with [] -> nan | ds -> Stats.mean ds *. 1e3

(* Tracing overhead of a phase: its headline latency in the traced half of
   the run against the untraced half, in percent. *)
let overhead phase ~untraced ~traced =
  metric ("obs.trace_overhead_pct." ^ phase) "%" ((traced -. untraced) /. untraced *. 100.)
