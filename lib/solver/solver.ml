open Dml_numeric
open Dml_index
open Dml_constr
module Metrics = Dml_obs.Metrics
module Trace = Dml_obs.Trace

type method_ = Fm_tightened | Fm_plain | Simplex_rational

type verdict = Valid | Not_valid of string | Unsupported of string | Timeout of string

type stats = {
  mutable checked_goals : int;
  mutable disjuncts : int;
  mutable fm : Fourier.stats;
  mutable solve_time : float;
  mutable timeouts : int;
  mutable escalations : int;
  mutable cache_hits : int;
  mutable cache_misses : int;
}

(* Registry instruments: the process-wide spine the per-run [stats] records
   mirror into.  [stats] stays the per-check view; the registry accumulates
   across every solve in the process (dumped by [dmlc --profile]/[--json]). *)
let m_goals = Metrics.counter "solver.goals"
let m_disjuncts = Metrics.counter "solver.disjuncts"
let m_timeouts = Metrics.counter "solver.timeouts"
let m_escalations = Metrics.counter "solver.escalations"
let m_cache_hits = Metrics.counter "solver.cache_hits"
let m_cache_misses = Metrics.counter "solver.cache_misses"
let m_solves = Metrics.counter "solver.uncached_solves"
let h_solve_ms = Metrics.histogram "solver.solve_ms"

let h_dnf_disjuncts =
  Metrics.histogram ~bounds:[| 1.; 2.; 4.; 8.; 16.; 32.; 64.; 128. |] "solver.dnf_disjuncts"

let new_stats () =
  {
    checked_goals = 0;
    disjuncts = 0;
    fm = Fourier.new_stats ();
    solve_time = 0.;
    timeouts = 0;
    escalations = 0;
    cache_hits = 0;
    cache_misses = 0;
  }

let merge_stats ~into (s : stats) =
  into.checked_goals <- into.checked_goals + s.checked_goals;
  into.disjuncts <- into.disjuncts + s.disjuncts;
  into.solve_time <- into.solve_time +. s.solve_time;
  into.timeouts <- into.timeouts + s.timeouts;
  into.escalations <- into.escalations + s.escalations;
  into.cache_hits <- into.cache_hits + s.cache_hits;
  into.cache_misses <- into.cache_misses + s.cache_misses;
  let fm = into.fm and fm' = s.fm in
  fm.Fourier.eliminations <- fm.Fourier.eliminations + fm'.Fourier.eliminations;
  fm.Fourier.combinations <- fm.Fourier.combinations + fm'.Fourier.combinations;
  fm.Fourier.max_constraints <- max fm.Fourier.max_constraints fm'.Fourier.max_constraints;
  if Bigint.compare fm'.Fourier.max_coeff fm.Fourier.max_coeff > 0 then
    fm.Fourier.max_coeff <- fm'.Fourier.max_coeff

let negation_formula (g : Constr.goal) =
  Idx.band (Idx.conj g.goal_hyps) (Idx.bnot g.goal_concl)

(* A normal-form literal over linear forms.  Literals are translated once,
   before the search, so every system the search refutes shares them. *)
type atom = Cstr of Linear.cstr | Bool of bool * Ivar.t

let atom_of_literal =
  let form_of e =
    match Linear.of_iexp e with
    | Some f -> f
    | None -> raise (Purify.Nonlinear (Idx.iexp_to_string e))
  in
  function
  | Dnf.Lle (a, b) -> Cstr (Linear.cstr_le (Linear.sub (form_of a) (form_of b)))
  | Dnf.Leq (a, b) -> Cstr (Linear.cstr_eq (Linear.sub (form_of a) (form_of b)))
  | Dnf.Lbool (p, v) -> Bool (p, v)

(* The linear system of a conjunction of atoms; [None] when the conjunction
   is unsatisfiable by its boolean literals alone. *)
let system_of_atoms atoms =
  let pos = Hashtbl.create 4 and neg = Hashtbl.create 4 in
  let exception Bool_contradiction in
  match
    List.filter_map
      (function
        | Cstr c -> Some c
        | Bool (p, v) ->
            let mine, other = if p then (pos, neg) else (neg, pos) in
            if Hashtbl.mem other v.Ivar.id then raise Bool_contradiction;
            Hashtbl.replace mine v.Ivar.id ();
            None)
      atoms
  with
  | cs -> Some cs
  | exception Bool_contradiction -> None

let refutes ?stats ?budget method_ system =
  let fm_stats = Option.map (fun s -> s.fm) stats in
  match method_ with
  | Fm_tightened -> Fourier.check ?stats:fm_stats ?budget ~tighten:true system = Fourier.Unsat
  | Fm_plain -> Fourier.check ?stats:fm_stats ?budget ~tighten:false system = Fourier.Unsat
  | Simplex_rational -> Simplex.check ?budget system = Simplex.Unsat

let model_to_string model =
  let parts =
    Ivar.Map.fold
      (fun v k acc -> Format.asprintf "%a = %a" Ivar.pp v Bigint.pp k :: acc)
      model []
  in
  String.concat ", " (List.rev parts)

(* Rational counterexamples print identically to the old integer ones when
   every value is integral ([Rat.pp] omits the denominator 1), so hints only
   change on goals that previously had no counterexample at all. *)
let rat_model_to_string model =
  let parts =
    Ivar.Map.fold
      (fun v k acc -> Format.asprintf "%a = %a" Ivar.pp v Rat.pp k :: acc)
      model []
  in
  String.concat ", " (List.rev parts)

let check_goal_uncached ?(method_ = Fm_tightened) ?stats ?budget goal =
  let t0 = Budget.now () in
  Option.iter (fun s -> s.checked_goals <- s.checked_goals + 1) stats;
  Metrics.incr m_goals;
  Metrics.incr m_solves;
  let result =
    (* Isolation barrier: a single obligation must not be able to kill the
       whole pipeline.  Budget exhaustion becomes [Timeout]; resource
       exhaustion of the runtime itself and any unexpected solver exception
       become [Unsupported] with a diagnostic, exactly as a failure to decide
       (both are conservative: the caller keeps the dynamic check). *)
    match
      match Dnf.map atom_of_literal (Dnf.nnf (Purify.purify (negation_formula goal))) with
      | exception Purify.Nonlinear msg -> Unsupported ("non-linear constraint: " ^ msg)
      | nf -> (
          let refuted atoms =
            match system_of_atoms atoms with
            | None -> true
            | Some system -> refutes ?stats ?budget method_ system
          in
          match Dnf.refute ?budget ~refuted nf with
          | exception Dnf.Too_large -> Unsupported "constraint normal form too large"
          | first_open, decided -> (
              Option.iter (fun s -> s.disjuncts <- s.disjuncts + decided) stats;
              Metrics.incr ~by:decided m_disjuncts;
              Metrics.observe h_dnf_disjuncts (float_of_int decided);
              (* an open disjunct is boolean-consistent, or it was refuted *)
              match Option.bind first_open system_of_atoms with
              | None -> Valid
              | Some system ->
                  let hint =
                    match Fourier.rational_model ?budget system with
                    | Some model -> "counterexample: " ^ rat_model_to_string model
                    | None -> "could not refute a disjunct of the negation"
                  in
                  Not_valid hint))
    with
    | verdict -> verdict
    | exception Budget.Exhausted msg ->
        Option.iter (fun s -> s.timeouts <- s.timeouts + 1) stats;
        Metrics.incr m_timeouts;
        Timeout msg
    | exception Stack_overflow -> Unsupported "solver stack overflow"
    | exception Out_of_memory -> Unsupported "solver out of memory"
    | exception e -> Unsupported ("internal solver error: " ^ Printexc.to_string e)
  in
  let dt = Budget.now () -. t0 in
  Option.iter (fun s -> s.solve_time <- s.solve_time +. dt) stats;
  Metrics.observe h_solve_ms (dt *. 1000.);
  result

(* --- the verdict cache --------------------------------------------------- *)

let method_slug = function
  | Fm_tightened -> "fm"
  | Fm_plain -> "fm-plain"
  | Simplex_rational -> "simplex"

let verdict_of_cached = function
  | Dml_cache.Cache.Valid -> Valid
  | Dml_cache.Cache.Not_valid m -> Not_valid m
  | Dml_cache.Cache.Unsupported m -> Unsupported m
  | Dml_cache.Cache.Timeout m -> Timeout m

let cached_of_verdict = function
  | Valid -> Dml_cache.Cache.Valid
  | Not_valid m -> Dml_cache.Cache.Not_valid m
  | Unsupported m -> Dml_cache.Cache.Unsupported m
  | Timeout m -> Dml_cache.Cache.Timeout m

let verdict_slug = function
  | Valid -> "valid"
  | Not_valid _ -> "not-valid"
  | Unsupported _ -> "unsupported"
  | Timeout _ -> "timeout"

(* The front door with the cache and the trace span around it.  The second
   component reports where the verdict came from, so the escalation ladder
   can count only uncached solves and the span can carry the cache status. *)
let check_goal_status ~method_ ?stats ?budget ?cache goal =
  let sp = Trace.start "solve" in
  let fm0, disj0 =
    if Trace.real sp then
      match stats with
      | Some s -> (s.fm.Fourier.eliminations, s.disjuncts)
      | None -> (0, 0)
    else (0, 0)
  in
  let tier = match budget with None -> max_int | Some b -> Budget.tier b in
  let digest =
    (* canonicalization runs outside the solver's isolation barrier, so it
       must not be able to kill the caller either: on resource exhaustion
       the goal is simply solved uncached *)
    match cache with
    | None -> None
    | Some _ -> (
        match Dml_cache.Canon.digest goal with
        | d -> Some d
        | exception (Stack_overflow | Out_of_memory) -> None)
  in
  let verdict, status =
    match (cache, digest) with
    | None, _ | _, None -> (check_goal_uncached ~method_ ?stats ?budget goal, `Uncached)
    | Some cache, Some digest -> (
        let m = method_slug method_ in
        match Dml_cache.Cache.find cache ~digest ~method_:m ~tier with
        | Some v ->
            Option.iter
              (fun s ->
                s.checked_goals <- s.checked_goals + 1;
                s.cache_hits <- s.cache_hits + 1;
                match v with Dml_cache.Cache.Timeout _ -> s.timeouts <- s.timeouts + 1 | _ -> ())
              stats;
            Metrics.incr m_goals;
            Metrics.incr m_cache_hits;
            (match v with Dml_cache.Cache.Timeout _ -> Metrics.incr m_timeouts | _ -> ());
            (verdict_of_cached v, `Hit)
        | None ->
            Option.iter (fun s -> s.cache_misses <- s.cache_misses + 1) stats;
            Metrics.incr m_cache_misses;
            let v = check_goal_uncached ~method_ ?stats ?budget goal in
            Dml_cache.Cache.add cache ~digest ~method_:m ~tier (cached_of_verdict v);
            (v, `Miss))
  in
  if Trace.real sp then begin
    Trace.set_str sp "method" (method_slug method_);
    (if tier = max_int then Trace.set_str sp "tier" "unlimited" else Trace.set_int sp "tier" tier);
    Trace.set_str sp "cache"
      (match status with `Hit -> "hit" | `Miss -> "miss" | `Uncached -> "off");
    Trace.set_str sp "verdict" (verdict_slug verdict);
    match stats with
    | Some s ->
        Trace.set_int sp "disjuncts" (s.disjuncts - disj0);
        Trace.set_int sp "fm_eliminations" (s.fm.Fourier.eliminations - fm0)
    | None -> ()
  end;
  Trace.finish sp;
  (verdict, status)

let check_goal ?(method_ = Fm_tightened) ?stats ?budget ?cache goal =
  fst (check_goal_status ~method_ ?stats ?budget ?cache goal)

let default_ladder = [ Fm_plain; Fm_tightened; Simplex_rational ]

(* Prefer the verdict carrying the most information when nothing proves the
   goal: a concrete refutation beats a timeout beats "unsupported". *)
let verdict_rank = function
  | Valid -> 3
  | Not_valid _ -> 2
  | Timeout _ -> 1
  | Unsupported _ -> 0

let check_goal_escalating ?(ladder = default_ladder) ?stats ?budget ?cache goal =
  let rec go best = function
    | [] -> best
    | method_ :: rest -> (
        match check_goal_status ~method_ ?stats ?budget ?cache goal with
        | Valid, _ -> Valid
        | v, status ->
            (* an escalation is a real extra solve: a rung answered by the
               cache replays the ladder without doing solver work, and must
               not inflate the escalation count *)
            if rest <> [] && status <> `Hit then begin
              Option.iter (fun s -> s.escalations <- s.escalations + 1) stats;
              Metrics.incr m_escalations
            end;
            go (if verdict_rank v > verdict_rank best then v else best) rest)
  in
  go (Unsupported "empty escalation ladder") ladder

let check_constraint ?method_ ?(escalate = false) ?stats ?budget ?cache phi =
  match
    let phi = Constr.eliminate_existentials phi in
    Constr.goals phi
  with
  | Error msg -> Unsupported msg
  | exception Stack_overflow -> Unsupported "solver stack overflow"
  | exception Out_of_memory -> Unsupported "solver out of memory"
  | exception e -> Unsupported ("internal solver error: " ^ Printexc.to_string e)
  | Ok goals ->
      let check g =
        if escalate then
          let ladder =
            match method_ with
            | None -> default_ladder
            | Some m -> m :: List.filter (fun m' -> m' <> m) default_ladder
          in
          check_goal_escalating ~ladder ?stats ?budget ?cache g
        else check_goal ?method_ ?stats ?budget ?cache g
      in
      let rec go = function
        | [] -> Valid
        | g :: rest -> ( match check g with Valid -> go rest | other -> other)
      in
      go goals

let pp_verdict fmt = function
  | Valid -> Format.pp_print_string fmt "valid"
  | Not_valid hint -> Format.fprintf fmt "NOT valid (%s)" hint
  | Unsupported msg -> Format.fprintf fmt "unsupported (%s)" msg
  | Timeout msg -> Format.fprintf fmt "timeout (%s)" msg
