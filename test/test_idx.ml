open Dml_index
open Idx
module Bigint = Dml_numeric.Bigint

let n = Ivar.fresh "n"
let m = Ivar.fresh "m"

let env bindings =
  List.fold_left
    (fun acc (v, x) -> Ivar.Map.add v (Vint (Bigint.of_int x)) acc)
    Ivar.Map.empty bindings

(* exact evaluation, read back as an [int] for the small values checked here *)
let eval_int env e = Bigint.to_int_exn (eval_iexp env e)

let test_eval_arith () =
  let e = iadd (imul (Iconst 3) (Ivar n)) (Iconst 1) in
  Alcotest.(check int) "3n+1 at n=4" 13 (eval_int (env [ (n, 4) ]) e);
  Alcotest.(check int) "min" 2 (eval_int (env [ (n, 2); (m, 5) ]) (Imin (Ivar n, Ivar m)));
  Alcotest.(check int) "max" 5 (eval_int (env [ (n, 2); (m, 5) ]) (Imax (Ivar n, Ivar m)));
  Alcotest.(check int) "abs" 7 (eval_int (env [ (n, -7) ]) (Iabs (Ivar n)));
  Alcotest.(check int) "sgn neg" (-1) (eval_int (env [ (n, -7) ]) (Isgn (Ivar n)));
  Alcotest.(check int) "sgn zero" 0 (eval_int (env [ (n, 0) ]) (Isgn (Ivar n)))

let test_eval_floor_div () =
  (* the constraint reading of div/mod is floor division *)
  Alcotest.(check int) "div -7 2" (-4) (eval_int (env [ (n, -7) ]) (Idiv (Ivar n, Iconst 2)));
  Alcotest.(check int) "mod -7 2" 1 (eval_int (env [ (n, -7) ]) (Imod (Ivar n, Iconst 2)));
  Alcotest.check_raises "div by zero" Division_by_zero (fun () ->
      ignore (eval_iexp (env [ (n, 1) ]) (Idiv (Ivar n, Iconst 0))))

(* Evaluation is exact: 2^61 * 4 = 2^63 is positive, where native
   arithmetic wraps it to 0. *)
let test_eval_exact () =
  let big = Imul (Iconst (1 lsl 61), Iconst 4) in
  Alcotest.(check bool) "2^61 * 4 > 0" true (eval_bexp (env []) (Bcmp (Rgt, big, Iconst 0)));
  Alcotest.(check string) "2^61 * 4" "9223372036854775808"
    (Bigint.to_string (eval_iexp (env []) big));
  Alcotest.(check bool) "max_int + 1 > max_int" true
    (eval_bexp (env []) (Bcmp (Rgt, Iadd (Iconst max_int, Iconst 1), Iconst max_int)))

let test_eval_bexp () =
  let e = env [ (n, 3); (m, 5) ] in
  Alcotest.(check bool) "n < m" true (eval_bexp e (Bcmp (Rlt, Ivar n, Ivar m)));
  Alcotest.(check bool) "n >= m" false (eval_bexp e (Bcmp (Rge, Ivar n, Ivar m)));
  Alcotest.(check bool) "and" true
    (eval_bexp e (Band (Bcmp (Rle, Ivar n, Ivar m), Bcmp (Rne, Ivar n, Ivar m))));
  Alcotest.(check bool) "not" true (eval_bexp e (Bnot (Bcmp (Req, Ivar n, Ivar m))))

let test_smart_constructors () =
  Alcotest.(check bool) "fold add" true (equal_iexp (Iconst 5) (iadd (Iconst 2) (Iconst 3)));
  Alcotest.(check bool) "x+0" true (equal_iexp (Ivar n) (iadd (Ivar n) (Iconst 0)));
  Alcotest.(check bool) "1*x" true (equal_iexp (Ivar n) (imul (Iconst 1) (Ivar n)));
  Alcotest.(check bool) "0*x" true (equal_iexp (Iconst 0) (imul (Iconst 0) (Ivar n)));
  Alcotest.(check bool) "true /\\ b" true
    (equal_bexp (Bvar n) (band (Bconst true) (Bvar n)));
  Alcotest.(check bool) "false \\/ b" true (equal_bexp (Bvar n) (bor (Bconst false) (Bvar n)));
  Alcotest.(check bool) "double negation" true (equal_bexp (Bvar n) (bnot (bnot (Bvar n))))

(* Constants fold only when the exact result is an [int]; otherwise the node
   stays, for the solver's exact translation. *)
let test_exact_folding () =
  let big = 1 lsl 40 in
  Alcotest.(check bool) "max_int + 2 unfolded" true
    (equal_iexp (Iadd (Iconst max_int, Iconst 2)) (iadd (Iconst max_int) (Iconst 2)));
  Alcotest.(check bool) "-max_int - 2 unfolded" true
    (equal_iexp (Isub (Iconst (-max_int), Iconst 2)) (isub (Iconst (-max_int)) (Iconst 2)));
  Alcotest.(check bool) "2^40 * 2^40 unfolded" true
    (equal_iexp (Imul (Iconst big, Iconst big)) (imul (Iconst big) (Iconst big)));
  Alcotest.(check bool) "max_int - 1 + 1 folds" true
    (equal_iexp (Iconst max_int) (iadd (Iconst (max_int - 1)) (Iconst 1)));
  Alcotest.(check bool) "2^31 * 2^30 folds" true
    (equal_iexp (Iconst (1 lsl 61)) (imul (Iconst (1 lsl 31)) (Iconst (1 lsl 30))));
  Alcotest.(check bool) "2^31 * 2^31 = 2^62 unfolded" true
    (equal_iexp (Imul (Iconst (1 lsl 31), Iconst (1 lsl 31)))
       (imul (Iconst (1 lsl 31)) (Iconst (1 lsl 31))))

let test_subst () =
  let s = Ivar.Map.singleton n (iadd (Ivar m) (Iconst 1)) in
  let e = subst_iexp s (iadd (Ivar n) (Ivar n)) in
  Alcotest.(check int) "subst eval" 8 (eval_int (env [ (m, 3) ]) e);
  let b = subst_bexp s (Bcmp (Rlt, Ivar n, Iconst 10)) in
  Alcotest.(check bool) "subst bexp" true (eval_bexp (env [ (m, 3) ]) b)

let test_fv () =
  let e = iadd (Ivar n) (Imul (Iconst 2, Ivar m)) in
  Alcotest.(check int) "two vars" 2 (Ivar.Set.cardinal (fv_iexp e));
  Alcotest.(check bool) "mem n" true (Ivar.Set.mem n (fv_iexp e));
  let b = Band (Bvar n, Bcmp (Rlt, Ivar m, Iconst 0)) in
  Alcotest.(check int) "bexp fv" 2 (Ivar.Set.cardinal (fv_bexp b))

let test_sorts () =
  Alcotest.(check bool) "base of nat" true (base_sort nat = Sint);
  let refinement = sort_refinement n nat in
  Alcotest.(check bool) "nat refinement at 3" true (eval_bexp (env [ (n, 3) ]) refinement);
  Alcotest.(check bool) "nat refinement at -1" false (eval_bexp (env [ (n, -1) ]) refinement);
  (* nested subset sort: {a : nat | a < 10} *)
  let a = Ivar.fresh "a" in
  let s = Ssubset (a, nat, Bcmp (Rlt, Ivar a, Iconst 10)) in
  let r = sort_refinement n s in
  Alcotest.(check bool) "nested at 5" true (eval_bexp (env [ (n, 5) ]) r);
  Alcotest.(check bool) "nested at 11" false (eval_bexp (env [ (n, 11) ]) r);
  Alcotest.(check bool) "nested at -2" false (eval_bexp (env [ (n, -2) ]) r)

let test_printing () =
  Alcotest.(check string) "iexp" "n + 2 * m" (iexp_to_string (Iadd (Ivar n, Imul (Iconst 2, Ivar m))));
  Alcotest.(check string) "parens" "(n + 1) * m"
    (iexp_to_string (Imul (Iadd (Ivar n, Iconst 1), Ivar m)));
  Alcotest.(check string) "bexp" "n < m /\\ 0 <= n"
    (bexp_to_string (Band (Bcmp (Rlt, Ivar n, Ivar m), Bcmp (Rle, Iconst 0, Ivar n))));
  Alcotest.(check string) "sub prec" "n - (m + 1)"
    (iexp_to_string (Isub (Ivar n, Iadd (Ivar m, Iconst 1))))

(* property: substitution commutes with evaluation *)
let prop_subst_eval =
  let gen =
    QCheck.make
      ~print:(fun (e, x, y) -> Printf.sprintf "(%s, %d, %d)" (iexp_to_string e) x y)
      QCheck.Gen.(
        let rec gen_iexp depth =
          if depth = 0 then oneof [ map (fun c -> Iconst c) (int_range (-20) 20); return (Ivar n) ]
          else
            frequency
              [
                (2, map (fun c -> Iconst c) (int_range (-20) 20));
                (2, return (Ivar n));
                (3, map2 (fun a b -> Iadd (a, b)) (gen_iexp (depth - 1)) (gen_iexp (depth - 1)));
                (2, map2 (fun a b -> Isub (a, b)) (gen_iexp (depth - 1)) (gen_iexp (depth - 1)));
                (1, map (fun a -> Imul (Iconst 3, a)) (gen_iexp (depth - 1)));
                (1, map (fun a -> Imin (a, Iconst 5)) (gen_iexp (depth - 1)));
                (1, map (fun a -> Iabs a) (gen_iexp (depth - 1)));
              ]
        in
        triple (gen_iexp 4) (int_range (-50) 50) (int_range (-50) 50))
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:300 ~name:"subst commutes with eval" gen (fun (e, x, y) ->
         (* e[n := m+x] evaluated at m=y  equals  e evaluated at n=y+x *)
         let s = Ivar.Map.singleton n (iadd (Ivar m) (Iconst x)) in
         Bigint.equal
           (eval_iexp (env [ (m, y) ]) (subst_iexp s e))
           (eval_iexp (env [ (n, y + x) ]) e)))

let () =
  Alcotest.run "idx"
    [
      ( "eval",
        [
          Alcotest.test_case "arithmetic" `Quick test_eval_arith;
          Alcotest.test_case "floor div" `Quick test_eval_floor_div;
          Alcotest.test_case "bexp" `Quick test_eval_bexp;
          Alcotest.test_case "exact past max_int" `Quick test_eval_exact;
        ] );
      ( "structure",
        [
          Alcotest.test_case "smart constructors" `Quick test_smart_constructors;
          Alcotest.test_case "exact constant folding" `Quick test_exact_folding;
          Alcotest.test_case "substitution" `Quick test_subst;
          Alcotest.test_case "free variables" `Quick test_fv;
          Alcotest.test_case "sorts" `Quick test_sorts;
          Alcotest.test_case "printing" `Quick test_printing;
        ] );
      ("properties", [ prop_subst_eval ]);
    ]
