(* Direct tests of the solver's normalisation passes: purification of the
   non-affine index operators, NNF conversion and the lazy case-splitting
   search over it. *)

open Dml_index
open Dml_constr
open Dml_solver
open Idx

let x = Ivar.fresh "x"
let y = Ivar.fresh "y"

(* satisfiability of a purified formula must match the original on a small
   box: evaluate the original directly; for the purified version ask the
   lazy case-splitting search (Fourier on each conjunction it tries) *)
let formula_sat b =
  let to_cstr = function
    | Dnf.Lle (a, b) -> (
        match (Linear.of_iexp a, Linear.of_iexp b) with
        | Some fa, Some fb -> Some (Linear.cstr_le (Linear.sub fa fb))
        | _ -> None)
    | Dnf.Leq (a, b) -> (
        match (Linear.of_iexp a, Linear.of_iexp b) with
        | Some fa, Some fb -> Some (Linear.cstr_eq (Linear.sub fa fb))
        | _ -> None)
    | Dnf.Lbool _ -> None
  in
  let refuted literals =
    let cs = List.map to_cstr literals in
    List.exists (fun c -> c = None) cs
    || Fourier.check ~tighten:true (List.filter_map Fun.id cs) = Fourier.Unsat
  in
  fst (Dnf.refute ~refuted (Dnf.nnf (Purify.purify b))) <> None

let brute_sat b =
  let found = ref false in
  for xi = -10 to 10 do
    for yi = -10 to 10 do
      let env =
        Ivar.Map.add x (Vint (Dml_numeric.Bigint.of_int xi))
          (Ivar.Map.singleton y (Vint (Dml_numeric.Bigint.of_int yi)))
      in
      if eval_bexp env b then found := true
    done
  done;
  !found

let check_sat_agrees name b =
  (* Fourier is conservative towards Sat, so: brute-forced satisfiable
     formulas must be Sat, and solver-Unsat formulas must have no point *)
  let solver = formula_sat b in
  let brute = brute_sat b in
  if brute && not solver then Alcotest.failf "%s: satisfiable but solver refuted" name;
  if (not solver) && brute then Alcotest.failf "%s: solver refuted a satisfiable formula" name

let test_purify_affine_untouched () =
  let b = Bcmp (Rle, Iadd (Ivar x, Iconst 2), Ivar y) in
  Alcotest.(check bool) "unchanged" true (equal_bexp (Purify.purify b) b)

let test_purify_div_memoised () =
  (* two occurrences of div(x, 2) share one fresh variable: the purified
     formula mentions exactly one new variable *)
  let d = Idiv (Ivar x, Iconst 2) in
  let b = Band (Bcmp (Rle, d, Ivar y), Bcmp (Rge, d, Iconst 0)) in
  let purified = Purify.purify b in
  let fresh = Ivar.Set.diff (fv_bexp purified) (fv_bexp b) in
  Alcotest.(check int) "one fresh variable" 1 (Ivar.Set.cardinal fresh)

let test_purify_nonlinear_rejected () =
  List.iter
    (fun e ->
      match Purify.purify (Bcmp (Rle, e, Iconst 0)) with
      | _ -> Alcotest.fail "expected Nonlinear"
      | exception Purify.Nonlinear _ -> ())
    [
      Imul (Ivar x, Ivar y);
      Idiv (Ivar x, Ivar y);
      Imod (Ivar x, Ivar y);
      Idiv (Ivar x, Iconst 0);
    ]

let test_purified_semantics () =
  (* formulas with each encoded operator: sat agreement on the box *)
  check_sat_agrees "div" (Bcmp (Req, Idiv (Ivar x, Iconst 3), Iconst 2));
  check_sat_agrees "div negative divisor" (Bcmp (Req, Idiv (Ivar x, Iconst (-2)), Iconst 3));
  check_sat_agrees "mod" (Bcmp (Req, Imod (Ivar x, Iconst 4), Iconst 3));
  check_sat_agrees "min" (Bcmp (Req, Imin (Ivar x, Ivar y), Iconst 5));
  check_sat_agrees "max" (Bcmp (Req, Imax (Ivar x, Ivar y), Ivar x));
  check_sat_agrees "abs" (Bcmp (Req, Iabs (Ivar x), Iconst 4));
  check_sat_agrees "sgn" (Bcmp (Req, Isgn (Ivar x), Iconst (-1)));
  check_sat_agrees "abs unsat" (Bcmp (Req, Iabs (Ivar x), Iconst (-1)));
  check_sat_agrees "composed"
    (Band
       ( Bcmp (Req, Imod (Ivar x, Iconst 4), Iconst 0),
         Bcmp (Rlt, Ivar x, Idiv (Ivar y, Iconst 2)) ))

(* --- DNF ------------------------------------------------------------------ *)

(* Every disjunct of [b], in expansion order, listed through the lazy
   search: each run refutes exactly the disjuncts already listed, so it
   stops at the next one.  (Such a refuter is not monotone, so the listing
   is exact only while no listed disjunct is also the conjunction tried at
   a later case split; that holds for the formulas below.) *)
let disjuncts b =
  let rec more found =
    match Dnf.refute ~refuted:(fun lits -> List.mem lits found) (Dnf.nnf b) with
    | None, _ -> List.rev found
    | Some d, _ -> more (d :: found)
  in
  more []

let test_dnf_shapes () =
  let a = Bcmp (Rle, Ivar x, Iconst 0) in
  let b = Bcmp (Rge, Ivar x, Iconst 5) in
  Alcotest.(check int) "atom" 1 (List.length (disjuncts a));
  Alcotest.(check int) "or" 2 (List.length (disjuncts (Bor (a, b))));
  Alcotest.(check int) "and" 1 (List.length (disjuncts (Band (a, b))));
  Alcotest.(check int) "distribution" 4
    (List.length (disjuncts (Band (Bor (a, b), Bor (a, b)))));
  Alcotest.(check int) "true" 1 (List.length (disjuncts (Bconst true)));
  Alcotest.(check int) "false" 0 (List.length (disjuncts (Bconst false)));
  (* ne expands to a disjunction *)
  Alcotest.(check int) "ne" 2 (List.length (disjuncts (Bcmp (Rne, Ivar x, Iconst 0))));
  (* negated equality likewise *)
  Alcotest.(check int) "not eq" 2 (List.length (disjuncts (Bnot (Bcmp (Req, Ivar x, Iconst 0)))));
  (* the same disjuncts, literal for literal, as the eager expansion *)
  let c = Bcmp (Req, Ivar y, Iconst 1) in
  List.iter
    (fun f ->
      Alcotest.(check bool) "eager order" true (disjuncts f = Eager_dnf.dnf (Dnf.nnf f)))
    [ Band (Bor (a, b), Bor (b, c)); Bor (Band (a, Bor (b, c)), Band (Bor (c, a), Bnot b));
      Band (Bnot (Band (a, c)), Bor (b, Bconst true)) ]

let test_dnf_negation_is_integer_aware () =
  (* ~(x <= y) must become y + 1 <= x *)
  match disjuncts (Bnot (Bcmp (Rle, Ivar x, Ivar y))) with
  | [ [ Dnf.Lle (Iadd (Ivar y', Iconst 1), Ivar x') ] ] ->
      Alcotest.(check bool) "vars" true (Ivar.equal x' x && Ivar.equal y' y)
  | other ->
      Alcotest.failf "unexpected DNF (%d disjuncts)" (List.length other)

let test_dnf_cap () =
  (* 2^16 disjuncts, each refuted only once complete: past the cap *)
  let a = Bor (Bcmp (Rle, Ivar x, Iconst 0), Bcmp (Rge, Ivar x, Iconst 1)) in
  let rec build n = if n = 0 then a else Band (a, build (n - 1)) in
  match Dnf.refute ~refuted:(fun lits -> List.length lits = 16) (Dnf.nnf (build 15)) with
  | _ -> Alcotest.fail "expected Too_large"
  | exception Dnf.Too_large -> ()

let () =
  Alcotest.run "purify"
    [
      ( "purify",
        [
          Alcotest.test_case "affine untouched" `Quick test_purify_affine_untouched;
          Alcotest.test_case "div memoised" `Quick test_purify_div_memoised;
          Alcotest.test_case "nonlinear rejected" `Quick test_purify_nonlinear_rejected;
          Alcotest.test_case "encoded semantics" `Quick test_purified_semantics;
        ] );
      ( "dnf",
        [
          Alcotest.test_case "shapes" `Quick test_dnf_shapes;
          Alcotest.test_case "integer-aware negation" `Quick test_dnf_negation_is_integer_aware;
          Alcotest.test_case "size cap" `Quick test_dnf_cap;
        ] );
    ]
