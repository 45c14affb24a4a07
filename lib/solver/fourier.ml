open Dml_numeric
open Dml_index
module B = Bigint
module L = Dml_constr.Linear

type verdict = Unsat | Sat

type stats = {
  mutable eliminations : int;
  mutable combinations : int;
  mutable max_constraints : int;
  mutable max_coeff : Bigint.t;
}

let new_stats () =
  { eliminations = 0; combinations = 0; max_constraints = 0; max_coeff = B.zero }

let note_coeff stats f =
  Ivar.Map.iter
    (fun _ k ->
      let a = B.abs k in
      if B.gt a stats.max_coeff then stats.max_coeff <- a)
    f.L.coeffs

exception Contradiction

(* Normalise a constraint; raise on contradiction, drop when trivial. *)
let norm ~tighten c =
  match L.normalize ~tighten c with
  | None -> None
  | Some c -> if L.is_trivially_false c then raise Contradiction else Some c

let norm_all ~tighten cs = List.filter_map (norm ~tighten) cs

(* An equality's first unit-coefficient variable, with its image. *)
let unit_solution c =
  if c.L.kind <> L.Eq then None
  else
    Ivar.Map.to_seq c.L.form.L.coeffs
    |> Seq.find_map (fun (v, _) -> Option.map (fun image -> (v, image)) (L.solve_for v c.L.form))

(* Gaussian elimination of equalities that contain a unit-coefficient
   variable: substitute and drop, shrinking the system before the
   exponential phase. *)
let rec gauss ~tighten cs =
  match List.partition (fun c -> Option.is_some (unit_solution c)) cs with
  | [], rest -> rest
  | eq :: other_eqs, rest ->
      let v, image = Option.get (unit_solution eq) in
      let substitute c =
        let k = L.coeff v c.L.form in
        if B.is_zero k then c
        else { c with L.form = L.add (L.remove v c.L.form) (L.scale k image) }
      in
      let cs' = List.map substitute (other_eqs @ rest) in
      gauss ~tighten (norm_all ~tighten cs')

(* Split remaining equalities into two inequalities. *)
let split_eqs cs =
  List.concat_map
    (fun c ->
      match c.L.kind with
      | L.Le -> [ c ]
      | L.Eq -> [ L.cstr_le c.L.form; L.cstr_le (L.neg c.L.form) ])
    cs

let all_vars cs =
  List.fold_left (fun acc c -> Ivar.Set.union acc (L.cstr_vars c)) Ivar.Set.empty cs

(* Choose the variable whose elimination produces the fewest combinations. *)
let pick_var cs vars =
  let cost v =
    let upper = ref 0 and lower = ref 0 in
    List.iter
      (fun c ->
        let k = L.coeff v c.L.form in
        if B.gt k B.zero then incr upper else if B.lt k B.zero then incr lower)
      cs;
    (!upper * !lower) - (!upper + !lower)
  in
  let best, _ =
    Ivar.Set.fold
      (fun v (bv, bc) ->
        let c = cost v in
        match bv with Some _ when bc <= c -> (bv, bc) | _ -> (Some v, c))
      vars (None, 0)
  in
  Option.get best

type trace_entry = { tvar : Ivar.t; tuppers : L.cstr list; tlowers : L.cstr list }

let eliminate ?stats ?budget ~tighten cs =
  let stats = match stats with Some s -> s | None -> new_stats () in
  let charge, note_elim =
    match budget with
    | Some bu when Budget.is_limited bu ->
        ((fun n -> Budget.spend bu n), fun () -> Budget.eliminate bu)
    | _ -> ((fun _ -> ()), fun () -> ())
  in
  let trace = ref [] in
  let cs = norm_all ~tighten cs in
  let cs = gauss ~tighten cs in
  let cs = split_eqs cs in
  let rec loop cs =
    stats.max_constraints <- Stdlib.max stats.max_constraints (List.length cs);
    List.iter (fun c -> note_coeff stats c.L.form) cs;
    let vars = all_vars cs in
    if Ivar.Set.is_empty vars then trace
    else begin
      let v = pick_var cs vars in
      stats.eliminations <- stats.eliminations + 1;
      note_elim ();
      let uppers, lowers, rest =
        List.fold_left
          (fun (u, l, r) c ->
            let k = L.coeff v c.L.form in
            if B.gt k B.zero then (c :: u, l, r)
            else if B.lt k B.zero then (u, c :: l, r)
            else (u, l, c :: r))
          ([], [], []) cs
      in
      trace := { tvar = v; tuppers = uppers; tlowers = lowers } :: !trace;
      let combined =
        List.concat_map
          (fun u ->
            let a = L.coeff v u.L.form in
            List.filter_map
              (fun l ->
                let b = L.coeff v l.L.form in
                stats.combinations <- stats.combinations + 1;
                charge 1;
                (* (-b)*u + a*l has a zero coefficient on v; both multipliers
                   are positive so the inequality direction is preserved. *)
                norm ~tighten
                  (L.cstr_le (L.add (L.scale (B.neg b) u.L.form) (L.scale a l.L.form))))
              lowers)
          uppers
      in
      loop (combined @ rest)
    end
  in
  loop cs

let check ?stats ?budget ~tighten cs =
  match eliminate ?stats ?budget ~tighten cs with
  | _trace -> Sat
  | exception Contradiction -> Unsat

(* Reconstruct a model by walking the elimination trace backwards.  Each
   entry gives the upper and lower bound constraints that mentioned the
   variable at elimination time; with all later variables assigned, those
   bounds are concrete numbers.

   Two walks.  The integer walk runs the tightened elimination and picks
   integer bound endpoints — when it verifies, the counterexample is a
   genuine integer assignment, the strongest witness we can report.  But
   it is blind to fractional-only witnesses twice over: tightening can
   refute a rationally-satisfiable system outright (2x = 1 tightens to a
   contradiction), and the floor-divided bound endpoints can miss a
   witness that only exists between two integers.  So when the integer
   walk comes up empty, a second walk runs the untightened elimination
   with exact rational bound arithmetic, rounding nothing. *)

let integer_model ?budget cs =
  match eliminate ?budget ~tighten:true cs with
  | exception Contradiction -> None
  | trace ->
      let env = ref Ivar.Map.empty in
      (* Variables that vanished through one-sided elimination may be unbound
         when we evaluate a bound; they are unconstrained here, so zero. *)
      let eval_default f =
        Ivar.Set.iter
          (fun v -> if not (Ivar.Map.mem v !env) then env := Ivar.Map.add v B.zero !env)
          (L.vars f);
        L.eval !env f
      in
      let bound_of sign c v =
        (* c : k*v + rest <= 0.  For k>0: v <= floor(-rest/k);
           for k<0: v >= rest/(-k) rounded up, computed with floor division. *)
        let k = L.coeff v c.L.form in
        let rest = eval_default (L.remove v c.L.form) in
        if sign > 0 then B.fdiv (B.neg rest) k
        else
          (* k < 0: v >= rest / (-k), rounded up: ceil(a/b) = -floor(-a/b) *)
          B.neg (B.fdiv (B.neg rest) (B.neg k))
      in
      let assign { tvar; tuppers; tlowers } =
        let upper =
          List.fold_left
            (fun acc c ->
              let b = bound_of 1 c tvar in
              match acc with None -> Some b | Some x -> Some (B.min x b))
            None tuppers
        in
        let lower =
          List.fold_left
            (fun acc c ->
              let b = bound_of (-1) c tvar in
              match acc with None -> Some b | Some x -> Some (B.max x b))
            None tlowers
        in
        let value =
          match (lower, upper) with
          | Some l, _ -> l
          | None, Some u -> u
          | None, None -> B.zero
        in
        env := Ivar.Map.add tvar value !env
      in
      List.iter assign !trace;
      (* FM is not exact over the integers, so verify before answering. *)
      let holds c =
        let value = eval_default c.L.form in
        match c.L.kind with L.Le -> B.le value B.zero | L.Eq -> B.is_zero value
      in
      if List.for_all holds cs then Some !env else None

(* The exact-rational fallback walk: untightened elimination (FM is exact
   over the rationals, so the back-substitution always verifies when the
   system is rationally satisfiable) and bounds computed in [Rat]. *)
let rational_walk ?budget cs =
  match eliminate ?budget ~tighten:false cs with
  | exception Contradiction -> None
  | trace ->
      let env = ref Ivar.Map.empty in
      let eval_rat f =
        Ivar.Map.fold
          (fun v k acc ->
            let x =
              match Ivar.Map.find_opt v !env with
              | Some x -> x
              | None ->
                  env := Ivar.Map.add v Rat.zero !env;
                  Rat.zero
            in
            Rat.add acc (Rat.mul (Rat.of_bigint k) x))
          f.L.coeffs
          (Rat.of_bigint f.L.const)
      in
      let bound_of c v =
        (* c : k*v + rest <= 0, so v <= -rest/k when k>0 and
           v >= -rest/k when k<0 — exactly, no rounding. *)
        let k = Rat.of_bigint (L.coeff v c.L.form) in
        let rest = eval_rat (L.remove v c.L.form) in
        Rat.div (Rat.neg rest) k
      in
      let assign { tvar; tuppers; tlowers } =
        let fold_bound pick cs =
          List.fold_left
            (fun acc c ->
              let b = bound_of c tvar in
              match acc with None -> Some b | Some x -> Some (pick x b))
            None cs
        in
        let upper = fold_bound Rat.min tuppers in
        let lower = fold_bound Rat.max tlowers in
        let value =
          match (lower, upper) with
          | Some l, _ -> l
          | None, Some u -> u
          | None, None -> Rat.zero
        in
        env := Ivar.Map.add tvar value !env
      in
      List.iter assign !trace;
      let holds c =
        let value = eval_rat c.L.form in
        match c.L.kind with L.Le -> Rat.le value Rat.zero | L.Eq -> Rat.is_zero value
      in
      if List.for_all holds cs then Some !env else None

let rational_model ?budget cs =
  (* Budget.Exhausted deliberately propagates: a caller that could not afford
     the model reconstruction must report a timeout, not "no counterexample". *)
  match integer_model ?budget cs with
  | Some m -> Some (Ivar.Map.map Rat.of_bigint m)
  | None -> rational_walk ?budget cs
