open Dml_index
open Idx

type literal =
  | Lle of iexp * iexp
  | Leq of iexp * iexp
  | Lbool of bool * Ivar.t

type 'a nf = Lit of 'a | Const of bool | And of 'a nf * 'a nf | Or of 'a nf * 'a nf

exception Too_large

let max_disjuncts = 20_000

let lt a b = Lit (Lle (iadd a (Iconst 1), b))
let le a b = Lit (Lle (a, b))
let eq a b = Lit (Leq (a, b))

(* NNF with atom canonicalisation.  [pos] is the current polarity. *)
let rec nnf_at pos b =
  match b with
  | Bconst c -> Const (if pos then c else not c)
  | Bvar v -> Lit (Lbool (pos, v))
  | Bnot b -> nnf_at (not pos) b
  | Band (x, y) ->
      if pos then And (nnf_at pos x, nnf_at pos y) else Or (nnf_at pos x, nnf_at pos y)
  | Bor (x, y) ->
      if pos then Or (nnf_at pos x, nnf_at pos y) else And (nnf_at pos x, nnf_at pos y)
  | Bcmp (r, a, b) -> (
      let r = if pos then r else ( match r with
        | Rlt -> Rge | Rle -> Rgt | Req -> Rne | Rne -> Req | Rge -> Rlt | Rgt -> Rle)
      in
      match r with
      | Rlt -> lt a b
      | Rle -> le a b
      | Req -> eq a b
      | Rge -> le b a
      | Rgt -> lt b a
      | Rne -> Or (lt a b, lt b a))

let nnf b = nnf_at true b

let rec map f = function
  | Lit l -> Lit (f l)
  | Const c -> Const c
  | And (x, y) ->
      let x = map f x in
      And (x, map f y)
  | Or (x, y) ->
      let x = map f x in
      Or (x, map f y)

(* The literals and the case splits of [pending] that lie under no
   disjunction, each in formula order; [None] when the constant false lies
   under no disjunction (no disjunct of [pending] survives). *)
let top pending =
  let rec go lits splits = function
    | [] -> Some (List.rev lits, List.rev splits)
    | Lit l :: rest -> go (l :: lits) splits rest
    | And (x, y) :: rest -> go lits splits (x :: y :: rest)
    | Or (x, y) :: rest -> go lits ((x, y) :: splits) rest
    | Const true :: rest -> go lits splits rest
    | Const false :: _ -> None
  in
  go [] [] pending

type 'a step = Empty | Leaf of 'a list | Split of 'a list * 'a nf * 'a nf * 'a nf list

(* Gather literals up to the next case split.  [lits] is reversed. *)
let rec advance lits = function
  | [] -> Leaf lits
  | Lit l :: rest -> advance (l :: lits) rest
  | And (x, y) :: rest -> advance lits (x :: y :: rest)
  | Const true :: rest -> advance lits rest
  | Const false :: _ -> Empty
  | Or (x, y) :: rest -> Split (lits, x, y, rest)

let refute ?budget ~refuted f =
  let charge =
    match budget with
    | Some bu when Budget.is_limited bu -> fun () -> Budget.spend bu 1
    | _ -> fun () -> ()
  in
  let decided = ref 0 in
  let decide () =
    incr decided;
    if !decided > max_disjuncts then raise Too_large
  in
  (* Once the conjunctive core is open, try to close the whole search on
     one case split: some disjunction both of whose sides contradict the
     core. *)
  let closed_by_one_split core splits =
    let side s =
      match top [ s ] with
      | None -> true
      | Some ([], _) -> false
      | Some (more, _) -> refuted (core @ more)
    in
    List.exists (fun (x, y) -> side x && side y) splits
  in
  (* [lits]: the path's literals, reversed.  [pending]: the formula still
     ahead.  [fresh]: literals joined the path's system since it was last
     found open, so it is worth another refutation attempt. *)
  let rec node ~root lits pending ~fresh =
    charge ();
    match advance lits pending with
    | Empty -> None
    | Leaf lits ->
        decide ();
        let d = List.rev lits in
        if fresh && refuted d then None else Some d
    | Split (lits, x, y, rest) -> (
        match top (Or (x, y) :: rest) with
        | None -> None
        | Some (ahead, splits) ->
            let known = List.rev_append lits ahead in
            if (fresh && refuted known) || (root && closed_by_one_split known splits) then begin
              decide ();
              None
            end
            else
              let branch s =
                let fresh = match top [ s ] with Some ([], _) -> false | _ -> true in
                node ~root:false lits (s :: rest) ~fresh
              in
              match branch x with Some d -> Some d | None -> branch y)
  in
  let first_open = node ~root:true [] [ f ] ~fresh:true in
  (first_open, !decided)

let pp_literal fmt = function
  | Lle (a, b) -> Format.fprintf fmt "%a <= %a" pp_iexp a pp_iexp b
  | Leq (a, b) -> Format.fprintf fmt "%a = %a" pp_iexp a pp_iexp b
  | Lbool (true, v) -> Ivar.pp fmt v
  | Lbool (false, v) -> Format.fprintf fmt "~%a" Ivar.pp v
