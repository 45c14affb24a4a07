open Dml_index
open Idx

exception Nonlinear of string

type state = { mutable defs : bexp list; mutable memo : (iexp * iexp) list }

let find_memo st key =
  List.find_map (fun (k, v) -> if equal_iexp k key then Some v else None) st.memo

let define st key name def_of_var =
  match find_memo st key with
  | Some v -> v
  | None ->
      let v = Ivar (Ivar.fresh name) in
      st.memo <- (key, v) :: st.memo;
      st.defs <- def_of_var v :: st.defs;
      v

let eq a b = Bcmp (Req, a, b)
let le a b = Bcmp (Rle, a, b)
let ge a b = Bcmp (Rge, a, b)

let rec rw_iexp st e =
  match e with
  | Ivar _ | Iconst _ -> e
  | Iadd (a, b) -> iadd (rw_iexp st a) (rw_iexp st b)
  | Isub (a, b) -> isub (rw_iexp st a) (rw_iexp st b)
  | Ineg a -> Ineg (rw_iexp st a)
  | Imul (a, b) -> begin
      let a = rw_iexp st a and b = rw_iexp st b in
      match (a, b) with
      | Iconst _, _ | _, Iconst _ -> imul a b
      | _ -> raise (Nonlinear (Format.asprintf "non-linear product %a" pp_iexp e))
    end
  | Idiv (a, b) -> begin
      let a = rw_iexp st a in
      match rw_iexp st b with
      (* [k - 1] and [k + 1] stay in the [int] range under their guards,
         and [imul]/[iadd] fold constants exactly *)
      | Iconst k when k > 0 ->
          (* q = floor(a/k): k*q <= a /\ a <= k*q + (k-1) *)
          define st (Idiv (a, Iconst k)) "q" (fun q ->
              band
                (le (imul (Iconst k) q) a)
                (le a (iadd (imul (Iconst k) q) (Iconst (k - 1)))))
      | Iconst k when k < 0 ->
          (* q = floor(a/k), k < 0: a <= k*q /\ k*q + (k+1) <= a *)
          define st (Idiv (a, Iconst k)) "q" (fun q ->
              band (le a (imul (Iconst k) q)) (le (iadd (imul (Iconst k) q) (Iconst (k + 1))) a))
      | Iconst 0 -> raise (Nonlinear "division by the constant zero")
      | b -> raise (Nonlinear (Format.asprintf "division by non-constant %a" pp_iexp b))
    end
  | Imod (a, b) -> begin
      (* mod(a,k) = a - k * div(a,k); reuse the div encoding. *)
      let a = rw_iexp st a in
      match rw_iexp st b with
      | Iconst k when k <> 0 ->
          let q = rw_iexp st (Idiv (a, Iconst k)) in
          isub a (imul (Iconst k) q)
      | Iconst 0 -> raise (Nonlinear "modulo by the constant zero")
      | b -> raise (Nonlinear (Format.asprintf "modulo by non-constant %a" pp_iexp b))
    end
  | Imin (a, b) ->
      let a = rw_iexp st a and b = rw_iexp st b in
      define st (Imin (a, b)) "mn" (fun m ->
          band (band (le m a) (le m b)) (bor (eq m a) (eq m b)))
  | Imax (a, b) ->
      let a = rw_iexp st a and b = rw_iexp st b in
      define st (Imax (a, b)) "mx" (fun m ->
          band (band (ge m a) (ge m b)) (bor (eq m a) (eq m b)))
  | Iabs a ->
      let a = rw_iexp st a in
      define st (Iabs a) "ab" (fun v ->
          band (band (ge v a) (ge v (Ineg a))) (bor (eq v a) (eq v (Ineg a))))
  | Isgn a ->
      let a = rw_iexp st a in
      define st (Isgn a) "sg" (fun s ->
          bor
            (band (ge a (Iconst 1)) (eq s (Iconst 1)))
            (bor
               (band (eq a (Iconst 0)) (eq s (Iconst 0)))
               (band (le a (Iconst (-1))) (eq s (Iconst (-1))))))

let rec rw_bexp st = function
  | (Bvar _ | Bconst _) as b -> b
  | Bcmp (r, a, b) -> Bcmp (r, rw_iexp st a, rw_iexp st b)
  | Bnot b -> bnot (rw_bexp st b)
  | Band (a, b) -> band (rw_bexp st a) (rw_bexp st b)
  | Bor (a, b) -> bor (rw_bexp st a) (rw_bexp st b)

let purify b =
  let st = { defs = []; memo = [] } in
  let b = rw_bexp st b in
  List.fold_left band b st.defs
