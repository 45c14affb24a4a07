(* The eager decision procedure the solver's lazy case-splitting search
   replaced, kept as a test oracle: expand the whole disjunctive normal form,
   then refute its disjuncts in order and report the first one left open.
   Same literals, same cap, same hint; no budget. *)

open Dml_index
open Dml_constr
open Dml_solver

let dnf f =
  let capped d =
    if List.length d > Dnf.max_disjuncts then raise Dnf.Too_large;
    d
  in
  let rec go = function
    | Dnf.Const true -> [ [] ]
    | Dnf.Const false -> []
    | Dnf.Lit l -> [ [ l ] ]
    | Dnf.Or (x, y) ->
        let dx = go x and dy = go y in
        capped (dx @ dy)
    | Dnf.And (x, y) ->
        let dx = go x and dy = go y in
        capped (List.concat_map (fun cx -> List.map (fun cy -> cx @ cy) dy) dx)
  in
  go f

exception Bool_contradiction

(* one disjunct's linear system; [None] when its boolean literals clash *)
let system literals =
  let form e =
    match Linear.of_iexp e with
    | Some f -> f
    | None -> raise (Purify.Nonlinear (Idx.iexp_to_string e))
  in
  let bools = Hashtbl.create 4 in
  match
    List.filter_map
      (function
        | Dnf.Lle (a, b) -> Some (Linear.cstr_le (Linear.sub (form a) (form b)))
        | Dnf.Leq (a, b) -> Some (Linear.cstr_eq (Linear.sub (form a) (form b)))
        | Dnf.Lbool (p, v) ->
            if Hashtbl.find_opt bools v.Ivar.id = Some (not p) then raise Bool_contradiction;
            Hashtbl.replace bools v.Ivar.id p;
            None)
      literals
  with
  | cs -> Some cs
  | exception Bool_contradiction -> None

let refuted method_ cs =
  match (method_ : Solver.method_) with
  | Fm_tightened -> Fourier.check ~tighten:true cs = Fourier.Unsat
  | Fm_plain -> Fourier.check ~tighten:false cs = Fourier.Unsat
  | Simplex_rational -> Simplex.check cs = Simplex.Unsat

let check ?(method_ = Solver.Fm_tightened) goal =
  match List.filter_map system (dnf (Dnf.nnf (Purify.purify (Solver.negation_formula goal)))) with
  | exception Purify.Nonlinear msg -> Solver.Unsupported ("non-linear constraint: " ^ msg)
  | exception Dnf.Too_large -> Solver.Unsupported "constraint normal form too large"
  | systems -> (
      match List.find_opt (fun cs -> not (refuted method_ cs)) systems with
      | None -> Solver.Valid
      | Some cs ->
          Solver.Not_valid
            (match Fourier.rational_model cs with
            | Some model -> "counterexample: " ^ Solver.rat_model_to_string model
            | None -> "could not refute a disjunct of the negation"))
