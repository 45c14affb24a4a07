open Dml_numeric
open Dml_index
module B = Bigint

type form = { const : B.t; coeffs : B.t Ivar.Map.t }

let zero = { const = B.zero; coeffs = Ivar.Map.empty }
let const c = { const = c; coeffs = Ivar.Map.empty }
let of_int n = const (B.of_int n)
let var v = { const = B.zero; coeffs = Ivar.Map.singleton v B.one }

let merge op a b =
  Ivar.Map.merge
    (fun _ x y ->
      let v = op (Option.value x ~default:B.zero) (Option.value y ~default:B.zero) in
      if B.is_zero v then None else Some v)
    a b

let add a b = { const = B.add a.const b.const; coeffs = merge B.add a.coeffs b.coeffs }
let sub a b = { const = B.sub a.const b.const; coeffs = merge B.sub a.coeffs b.coeffs }
let neg a = { const = B.neg a.const; coeffs = Ivar.Map.map B.neg a.coeffs }

let scale k a =
  if B.is_zero k then zero
  else { const = B.mul k a.const; coeffs = Ivar.Map.map (B.mul k) a.coeffs }

let coeff v a = Option.value (Ivar.Map.find_opt v a.coeffs) ~default:B.zero
let remove v a = { a with coeffs = Ivar.Map.remove v a.coeffs }
let is_const a = if Ivar.Map.is_empty a.coeffs then Some a.const else None
let vars a = Ivar.Map.fold (fun v _ s -> Ivar.Set.add v s) a.coeffs Ivar.Set.empty

let equal a b =
  B.equal a.const b.const && Ivar.Map.equal B.equal a.coeffs b.coeffs

let of_iexp e =
  let open Idx in
  let rec go = function
    | Ivar v -> Some (var v)
    | Iconst n -> Some (of_int n)
    | Iadd (a, b) -> map2 add a b
    | Isub (a, b) -> map2 sub a b
    | Ineg a -> Option.map neg (go a)
    | Imul (a, b) -> (
        match (go a, go b) with
        | Some fa, Some fb -> (
            match (is_const fa, is_const fb) with
            | Some k, _ -> Some (scale k fb)
            | _, Some k -> Some (scale k fa)
            | None, None -> None)
        | _ -> None)
    | Idiv _ | Imod _ | Imin _ | Imax _ | Iabs _ | Isgn _ -> None
  and map2 op a b =
    match (go a, go b) with Some fa, Some fb -> Some (op fa fb) | _ -> None
  in
  go e

let to_iexp a =
  let open Idx in
  let exception Too_large in
  let int k = match B.to_int k with Some n -> n | None -> raise Too_large in
  let term v k = match int k with 1 -> Ivar v | k -> imul (Iconst k) (Ivar v) in
  let add_term v k acc =
    let t = term v k in
    Some (match acc with None -> t | Some e -> iadd e t)
  in
  match (Ivar.Map.fold add_term a.coeffs None, int a.const) with
  | None, c -> Some (Iconst c)
  | Some e, c -> Some (iadd e (Iconst c))
  | exception Too_large -> None

let solve_for v a =
  let k = coeff v a in
  (* k.v + rest = 0 with k = +-1 gives v = -k.rest *)
  if B.equal (B.abs k) B.one then Some (scale (B.neg k) (remove v a)) else None

let eval env a =
  Ivar.Map.fold (fun v k acc -> B.add acc (B.mul k (Ivar.Map.find v env))) a.coeffs a.const

type kind = Le | Eq

type cstr = { kind : kind; form : form }

let cstr_le form = { kind = Le; form }
let cstr_eq form = { kind = Eq; form }
let cstr_vars c = vars c.form

let is_trivially_false c =
  match is_const c.form with
  | Some k -> ( match c.kind with Le -> B.gt k B.zero | Eq -> not (B.is_zero k))
  | None -> false

let is_trivially_true c =
  match is_const c.form with
  | Some k -> ( match c.kind with Le -> B.le k B.zero | Eq -> B.is_zero k)
  | None -> false

let coeff_gcd f = Ivar.Map.fold (fun _ k g -> B.gcd k g) f.coeffs B.zero

let normalize ~tighten c =
  if is_trivially_true c then None
  else if is_trivially_false c then Some c
  else begin
    let g = coeff_gcd c.form in
    if B.equal g B.one then Some c
    else
      match c.kind with
      | Le ->
          (* k.x + c <= 0, i.e. (k/g).x <= -c/g.  Over the integers the right
             hand side may be rounded down: (k/g).x <= floor(-c/g), which is
             the paper's tightening rule.  Without tightening we only divide
             when g exactly divides the constant. *)
          let coeffs = Ivar.Map.map (fun k -> fst (B.divmod k g)) c.form.coeffs in
          if tighten then begin
            let bound = B.fdiv (B.neg c.form.const) g in
            Some { kind = Le; form = { const = B.neg bound; coeffs } }
          end
          else if B.is_zero (B.fmod c.form.const g) then
            Some { kind = Le; form = { const = fst (B.divmod c.form.const g); coeffs } }
          else Some c
      | Eq ->
          (* k.x + c = 0 has no integer solution unless g divides c. *)
          if B.is_zero (B.fmod c.form.const g) then begin
            let coeffs = Ivar.Map.map (fun k -> fst (B.divmod k g)) c.form.coeffs in
            Some { kind = Eq; form = { const = fst (B.divmod c.form.const g); coeffs } }
          end
          else if tighten then
            (* Contradictory: report as a trivially false constant constraint. *)
            Some { kind = Eq; form = const B.one }
          else Some c
  end

let pp_form fmt f =
  let open Format in
  let first = ref true in
  Ivar.Map.iter
    (fun v k ->
      if !first then begin
        first := false;
        if B.equal k B.one then fprintf fmt "%a" Ivar.pp v
        else if B.equal k B.minus_one then fprintf fmt "-%a" Ivar.pp v
        else fprintf fmt "%a*%a" B.pp k Ivar.pp v
      end
      else if B.sign k >= 0 then
        if B.equal k B.one then fprintf fmt " + %a" Ivar.pp v
        else fprintf fmt " + %a*%a" B.pp k Ivar.pp v
      else if B.equal k B.minus_one then fprintf fmt " - %a" Ivar.pp v
      else fprintf fmt " - %a*%a" B.pp (B.abs k) Ivar.pp v)
    f.coeffs;
  if !first then fprintf fmt "%a" B.pp f.const
  else if B.sign f.const > 0 then fprintf fmt " + %a" B.pp f.const
  else if B.sign f.const < 0 then fprintf fmt " - %a" B.pp (B.abs f.const)

let pp_cstr fmt c =
  Format.fprintf fmt "%a %s 0" pp_form c.form (match c.kind with Le -> "<=" | Eq -> "=")
