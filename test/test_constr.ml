open Dml_index
open Dml_constr
open Idx

let v = Ivar.fresh

let eq a b = Bcmp (Req, a, b)
let le a b = Bcmp (Rle, a, b)

(* --- smart constructors ------------------------------------------------ *)

let test_smart () =
  Alcotest.(check bool) "conj top" true (Constr.is_top (Constr.conj Constr.top Constr.top));
  Alcotest.(check bool) "pred true" true (Constr.is_top (Constr.pred (Bconst true)));
  Alcotest.(check bool) "impl false" true
    (Constr.is_top (Constr.impl (Bconst false) (Constr.pred (Bconst false))));
  let n = v "n" in
  Alcotest.(check bool) "vacuous forall dropped" true
    (match Constr.forall n Sint (Constr.pred (le (Iconst 0) (Iconst 1))) with
    | Constr.Forall _ -> false
    | _ -> true)

let test_fv_subst () =
  let n = v "n" and m = v "m" in
  let phi = Constr.forall n Sint (Constr.pred (le (Ivar n) (Ivar m))) in
  Alcotest.(check bool) "m free" true (Ivar.Set.mem m (Constr.fv phi));
  Alcotest.(check bool) "n bound" false (Ivar.Set.mem n (Constr.fv phi));
  (* capture-avoiding: substituting m := n must not capture under forall n *)
  let phi' = Constr.subst (Ivar.Map.singleton m (Ivar n)) phi in
  match phi' with
  | Constr.Forall (n', _, Constr.Pred (Bcmp (Rle, Ivar a, Ivar b))) ->
      Alcotest.(check bool) "binder renamed" true (Ivar.equal a n');
      Alcotest.(check bool) "image is old n" true (Ivar.equal b n)
  | _ -> Alcotest.fail "unexpected shape after substitution"

(* --- equation solving --------------------------------------------------- *)

let test_solve_equation () =
  let a = v "a" and n = v "n" in
  (* a = 0 *)
  (match Constr.solve_equation_for a (eq (Ivar a) (Iconst 0)) with
  | Some e -> Alcotest.(check bool) "a = 0" true (equal_iexp e (Iconst 0))
  | None -> Alcotest.fail "no solution for a = 0");
  (* a + 1 = n  =>  a = n - 1 *)
  (match Constr.solve_equation_for a (eq (Iadd (Ivar a, Iconst 1)) (Ivar n)) with
  | Some e ->
      Alcotest.(check string) "a = n-1 at n=5" "4"
        (Dml_numeric.Bigint.to_string
           (eval_iexp (Ivar.Map.singleton n (Vint (Dml_numeric.Bigint.of_int 5))) e))
  | None -> Alcotest.fail "no solution for a+1 = n");
  (* n = 2*a has coefficient 2: not solvable with unit coefficient *)
  Alcotest.(check bool) "2a unsolvable" true
    (Constr.solve_equation_for a (eq (Ivar n) (Imul (Iconst 2, Ivar a))) = None);
  (* a = a + 1 is not a definition of a *)
  Alcotest.(check bool) "self-referential a" true
    (Constr.solve_equation_for a (eq (Ivar a) (Iadd (Ivar a, Iconst 1))) = None);
  (* a solution whose coefficient or constant does not fit in an [int] has
     no index expression *)
  Alcotest.(check bool) "overflowing coefficient" true
    (Constr.solve_equation_for a
       (eq (Ivar a) (Imul (Iconst (1 lsl 40), Imul (Iconst (1 lsl 40), Ivar n))))
    = None);
  Alcotest.(check bool) "overflowing constant" true
    (Constr.solve_equation_for a (eq (Ivar a) (Iadd (Iconst max_int, Iconst 2))) = None);
  (* the equation is solved exactly: an intermediate sum past max_int is no
     obstacle when the solution fits *)
  (match
     Constr.solve_equation_for a
       (eq (Ivar a) (Isub (Iadd (Iconst max_int, Iconst 2), Iconst 3)))
   with
  | Some e -> Alcotest.(check bool) "a = max_int - 1" true (equal_iexp e (Iconst (max_int - 1)))
  | None -> Alcotest.fail "no solution for a = max_int + 2 - 3");
  (* non-affine contexts are rejected *)
  Alcotest.(check bool) "div blocks solving" true
    (Constr.solve_equation_for a (eq (Ivar a) (Idiv (Ivar n, Iconst 2))) = None)

(* --- the exact affine layer ----------------------------------------------- *)

module B = Dml_numeric.Bigint

let pool = Array.init 4 (fun i -> v (Printf.sprintf "x%d" i))

(* forms over a small variable pool whose coefficients and constant are
   drawn from the whole [int] range, with a bias towards unit coefficients *)
let gen_form =
  let open QCheck.Gen in
  let num = frequency [ (2, return 1); (2, return (-1)); (3, int_range (-9) 9); (3, int) ] in
  let add_term coeffs (i, k) =
    if k = 0 then Ivar.Map.remove pool.(i) coeffs else Ivar.Map.add pool.(i) (B.of_int k) coeffs
  in
  map2
    (fun terms c ->
      { Linear.const = B.of_int c; coeffs = List.fold_left add_term Ivar.Map.empty terms })
    (list_size (int_range 0 4) (pair (int_bound 3) num))
    num

let arb_form = QCheck.make ~print:(Format.asprintf "%a" Linear.pp_form) gen_form

let prop_to_iexp_roundtrip =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:500 ~name:"of_iexp (to_iexp f) = f" arb_form (fun f ->
         match Linear.to_iexp f with
         | Some e -> Option.equal Linear.equal (Linear.of_iexp e) (Some f)
         | None -> false))

let prop_solve_for =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:500 ~name:"solve_for image satisfies the equation"
       QCheck.(pair (int_bound 3) arb_form)
       (fun (i, f) ->
         let x = pool.(i) in
         match Linear.solve_for x f with
         | None -> not (B.equal (B.abs (Linear.coeff x f)) B.one)
         | Some e ->
             (not (Ivar.Set.mem x (Linear.vars e)))
             && Linear.equal Linear.zero
                  (Linear.add (Linear.remove x f) (Linear.scale (Linear.coeff x f) e))))

(* --- existential elimination (Section 3.1, reverse example) ------------- *)

let test_exelim_reverse_clause1 () =
  (* forall n:nat. exists M:nat. exists N:nat. (M = 0 /\ N = n) => M + N = n *)
  let n = v "n" and mm = v "M" and nn = v "N" in
  let hyp = Band (eq (Ivar mm) (Iconst 0), eq (Ivar nn) (Ivar n)) in
  let concl = Constr.pred (eq (Iadd (Ivar mm, Ivar nn)) (Ivar n)) in
  let phi =
    Constr.forall n nat (Constr.exists mm nat (Constr.exists nn nat (Constr.impl hyp concl)))
  in
  let phi' = Constr.eliminate_existentials phi in
  (* all existentials must be gone *)
  match Constr.goals phi' with
  | Error msg -> Alcotest.fail msg
  | Ok goals ->
      Alcotest.(check bool) "some goals" true (List.length goals >= 1);
      (* every goal should now be valid: 0 + n = n under n >= 0 *)
      List.iter
        (fun g ->
          match Dml_solver.Solver.check_goal g with
          | Dml_solver.Solver.Valid -> ()
          | other ->
              Alcotest.failf "goal not valid: %a / %a" Constr.pp_goal g
                Dml_solver.Solver.pp_verdict other)
        goals

let test_exelim_unsolvable () =
  (* exists a. 2*a = n  has no unit-coefficient defining equation *)
  let n = v "n" and a = v "a" in
  let phi =
    Constr.forall n nat
      (Constr.exists a Sint (Constr.pred (eq (Imul (Iconst 2, Ivar a)) (Ivar n))))
  in
  let phi' = Constr.eliminate_existentials phi in
  match Constr.goals phi' with
  | Error _ -> () (* expected: residual existential reported *)
  | Ok _ -> Alcotest.fail "expected residual existential"

let test_exelim_sort_obligation () =
  (* exists a:nat. a = n - 5 /\ a <= n : witness n-5 must be proved >= 0,
     which fails without a hypothesis n >= 5. *)
  let n = v "n" and a = v "a" in
  let body =
    Constr.conj
      (Constr.pred (eq (Ivar a) (Isub (Ivar n, Iconst 5))))
      (Constr.pred (le (Ivar a) (Ivar n)))
  in
  let phi = Constr.forall n nat (Constr.exists a nat body) in
  let phi' = Constr.eliminate_existentials phi in
  match Constr.goals phi' with
  | Error msg -> Alcotest.fail msg
  | Ok goals ->
      let verdicts = List.map (fun g -> Dml_solver.Solver.check_goal g) goals in
      (* the n - 5 >= 0 obligation must be among the goals and must fail *)
      Alcotest.(check bool) "an obligation fails" true
        (List.exists (function Dml_solver.Solver.Valid -> false | _ -> true) verdicts)

let test_goals_structure () =
  let n = v "n" and i = v "i" in
  let phi =
    Constr.forall n nat
      (Constr.forall i nat
         (Constr.impl (le (Ivar i) (Ivar n))
            (Constr.conj
               (Constr.pred (le (Iconst 0) (Ivar i)))
               (Constr.pred (le (Ivar i) (Iadd (Ivar n, Iconst 1)))))))
  in
  match Constr.goals phi with
  | Error msg -> Alcotest.fail msg
  | Ok goals ->
      Alcotest.(check int) "two goals" 2 (List.length goals);
      List.iter
        (fun g ->
          Alcotest.(check int) "two quantified vars" 2 (List.length g.Constr.goal_vars);
          (* hyps: two sort refinements + the implication antecedent *)
          Alcotest.(check int) "three hyps" 3 (List.length g.Constr.goal_hyps))
        goals

let test_size () =
  let n = v "n" in
  let phi =
    Constr.conj
      (Constr.pred (le (Ivar n) (Iconst 3)))
      (Constr.impl (le (Iconst 0) (Ivar n)) (Constr.pred (eq (Ivar n) (Ivar n))))
  in
  Alcotest.(check int) "size" 3 (Constr.size phi)

let () =
  Alcotest.run "constr"
    [
      ( "structure",
        [
          Alcotest.test_case "smart constructors" `Quick test_smart;
          Alcotest.test_case "fv and capture-avoiding subst" `Quick test_fv_subst;
          Alcotest.test_case "size" `Quick test_size;
          Alcotest.test_case "goal extraction" `Quick test_goals_structure;
        ] );
      ( "existentials",
        [
          Alcotest.test_case "solve linear equation" `Quick test_solve_equation;
          Alcotest.test_case "reverse clause 1 (paper 3.1)" `Quick test_exelim_reverse_clause1;
          Alcotest.test_case "unsolvable existential" `Quick test_exelim_unsolvable;
          Alcotest.test_case "witness sort obligation" `Quick test_exelim_sort_obligation;
        ] );
      ("linear", [ prop_to_iexp_roundtrip; prop_solve_for ]);
    ]
