open Dml_numeric
open Dml_index
module L = Dml_constr.Linear

type verdict = Unsat | Sat

module IMap = Map.Make (Int)

(* Dictionary simplex.  Variables are integers: 0 is the phase-1 artificial
   variable; each free structural variable x is split into x = pos - neg
   with pos, neg >= 0; slack variables close the inequalities.  A dictionary
   maps each basic variable to an affine row over the nonbasic variables. *)

type row = { rconst : Rat.t; rcoeffs : Rat.t IMap.t }

let rcoeff j r = Option.value (IMap.find_opt j r.rcoeffs) ~default:Rat.zero

let radd a b =
  {
    rconst = Rat.add a.rconst b.rconst;
    rcoeffs =
      IMap.merge
        (fun _ x y ->
          let v = Rat.add (Option.value x ~default:Rat.zero) (Option.value y ~default:Rat.zero) in
          if Rat.is_zero v then None else Some v)
        a.rcoeffs b.rcoeffs;
  }

let rscale k r =
  if Rat.is_zero k then { rconst = Rat.zero; rcoeffs = IMap.empty }
  else { rconst = Rat.mul k r.rconst; rcoeffs = IMap.map (Rat.mul k) r.rcoeffs }

type dict = { mutable rows : row IMap.t (* basic var -> row *); mutable objective : row }

(* Express nonbasic variable [enter] from the row of basic variable [leave],
   then substitute everywhere. *)
let pivot d leave enter =
  let row = IMap.find leave d.rows in
  let a = rcoeff enter row in
  (* leave = rconst + ... + a*enter + ...  =>
     enter = (leave - rconst - rest)/a, with [leave] appearing as a fresh
     nonbasic variable of coefficient 1. *)
  let rest = { row with rcoeffs = IMap.remove enter row.rcoeffs } in
  let inv_a = Rat.inv a in
  let enter_row =
    radd
      (rscale (Rat.neg inv_a) rest)
      { rconst = Rat.zero; rcoeffs = IMap.singleton leave inv_a }
  in
  let substitute r =
    let k = rcoeff enter r in
    if Rat.is_zero k then r
    else radd { r with rcoeffs = IMap.remove enter r.rcoeffs } (rscale k enter_row)
  in
  d.rows <- IMap.add enter enter_row (IMap.map substitute (IMap.remove leave d.rows));
  d.objective <- substitute d.objective

(* Bland's rule: entering variable is the smallest-index nonbasic variable
   with a positive objective coefficient; leaving variable is the
   smallest-index basic variable achieving the tightest ratio.  Bland's rule
   terminates, but a pivot touches every row, so each one charges the budget
   proportionally to the dictionary size. *)
let rec optimise ?budget d =
  (match budget with
  | Some bu when Budget.is_limited bu -> Budget.spend bu (2 + IMap.cardinal d.rows)
  | _ -> ());
  let enter =
    IMap.fold
      (fun j k acc ->
        if Rat.gt k Rat.zero then match acc with Some j' when j' <= j -> acc | _ -> Some j
        else acc)
      d.objective.rcoeffs None
  in
  match enter with
  | None -> `Optimal
  | Some enter -> (
      let leave =
        IMap.fold
          (fun i r acc ->
            let k = rcoeff enter r in
            if Rat.lt k Rat.zero then begin
              let ratio = Rat.div r.rconst (Rat.neg k) in
              match acc with
              | Some (_, best) when Rat.lt best ratio -> acc
              | Some (i', best) when Rat.equal best ratio && i' < i -> acc
              | _ -> Some (i, ratio)
            end
            else acc)
          d.rows None
      in
      match leave with
      | None -> `Unbounded
      | Some (leave, _) ->
          pivot d leave enter;
          optimise ?budget d)

(* Build the dictionary for phase 1 and solve. *)
let solve ?budget cs =
  (* Collect the structural variables and assign pos/neg indices. *)
  let vars =
    List.fold_left (fun acc c -> Ivar.Set.union acc (L.cstr_vars c)) Ivar.Set.empty cs
  in
  let var_ids, next_id =
    Ivar.Set.fold
      (fun v (m, i) -> (Ivar.Map.add v (i, i + 1) m, i + 2))
      vars (Ivar.Map.empty, 1)
  in
  let ineqs =
    List.concat_map
      (fun c ->
        match c.L.kind with
        | L.Le -> [ c.L.form ]
        | L.Eq -> [ c.L.form; L.neg c.L.form ])
      cs
  in
  (* form + const' <= 0, i.e. sum coeffs <= b with b = -const. *)
  let to_row slack_id form =
    let b = Rat.of_bigint (Bigint.neg form.L.const) in
    let coeffs =
      Ivar.Map.fold
        (fun v k acc ->
          let pos, neg = Ivar.Map.find v var_ids in
          let k = Rat.of_bigint k in
          acc
          |> IMap.add pos (Rat.neg k)
          |> IMap.add neg k)
        form.L.coeffs IMap.empty
    in
    (* slack = b - sum a_j x_j + x0 *)
    (slack_id, { rconst = b; rcoeffs = IMap.add 0 Rat.one coeffs })
  in
  let rows, _ =
    List.fold_left
      (fun (rows, id) form ->
        let slack, row = to_row id form in
        (IMap.add slack row rows, id + 1))
      (IMap.empty, next_id)
      ineqs
  in
  let d = { rows; objective = { rconst = Rat.zero; rcoeffs = IMap.singleton 0 Rat.minus_one } } in
  (* If every slack is already nonnegative the origin is feasible. *)
  let worst =
    IMap.fold
      (fun i r acc ->
        match acc with
        | Some (_, b) when Rat.le b r.rconst -> acc
        | _ -> if Rat.lt r.rconst Rat.zero then Some (i, r.rconst) else acc)
      d.rows None
  in
  match worst with
  | None -> Some d (* feasible with all structural variables zero *)
  | Some (leave, _) -> (
      (* Make the dictionary feasible by pivoting in the artificial x0. *)
      pivot d leave 0;
      match optimise ?budget d with
      | `Unbounded -> Some d (* -x0 unbounded above cannot happen; treat as feasible *)
      | `Optimal ->
          let x0_value =
            match IMap.find_opt 0 d.rows with Some r -> r.rconst | None -> Rat.zero
          in
          if Rat.is_zero x0_value then Some d else None)

let check ?budget cs = match solve ?budget cs with Some _ -> Sat | None -> Unsat

let model cs =
  match solve cs with
  | None -> None
  | Some d ->
      let vars =
        List.fold_left (fun acc c -> Ivar.Set.union acc (L.cstr_vars c)) Ivar.Set.empty cs
      in
      let var_ids, _ =
        Ivar.Set.fold
          (fun v (m, i) -> (Ivar.Map.add v (i, i + 1) m, i + 2))
          vars (Ivar.Map.empty, 1)
      in
      let value_of id =
        match IMap.find_opt id d.rows with Some r -> r.rconst | None -> Rat.zero
      in
      Some
        (Ivar.Map.map (fun (pos, neg) -> Rat.sub (value_of pos) (value_of neg)) var_ids)
