(* Unit and property tests for the bignum substrate.  Properties compare
   against native int arithmetic on ranges where the latter cannot
   overflow, and check algebraic laws on genuinely large values. *)

module B = Dml_numeric.Bigint

let bi = Alcotest.testable B.pp B.equal

(* --- unit tests -------------------------------------------------------- *)

let test_of_to_int () =
  List.iter
    (fun n -> Alcotest.(check (option int)) (string_of_int n) (Some n) (B.to_int (B.of_int n)))
    [ 0; 1; -1; 42; -42; max_int; min_int; 1 lsl 30; (1 lsl 30) - 1; -(1 lsl 30) ]

let test_string_roundtrip () =
  List.iter
    (fun s -> Alcotest.(check string) s s (B.to_string (B.of_string s)))
    [
      "0";
      "1";
      "-1";
      "123456789012345678901234567890";
      "-999999999999999999999999999999999999";
      "4611686018427387904" (* 2^62, one past max_int *);
    ];
  (* [of_string] also accepts a leading [+] *)
  Alcotest.check bi "+7" (B.of_int 7) (B.of_string "+7")

let test_of_string_invalid () =
  List.iter
    (fun s ->
      Alcotest.check_raises s (Invalid_argument "Bigint.of_string: bad digit") (fun () ->
          ignore (B.of_string s)))
    [ "12x"; "1.5" ];
  Alcotest.check_raises "empty" (Invalid_argument "Bigint.of_string: empty string") (fun () ->
      ignore (B.of_string ""))

let test_large_arithmetic () =
  let a = B.of_string "123456789123456789123456789" in
  let b = B.of_string "987654321987654321" in
  Alcotest.check bi "sum" (B.of_string "123456790111111111111111110") (B.add a b);
  Alcotest.check bi "product"
    (B.of_string "121932631356500531469135800347203169112635269")
    (B.mul a b);
  let q, r = B.divmod a b in
  Alcotest.check bi "reassemble" a (B.add (B.mul q b) r);
  Alcotest.check bi "quotient" (B.of_string "124999998") q

let test_divmod_signs () =
  (* truncated division: remainder has the sign of the dividend *)
  let check (a, b, q, r) =
    let q', r' = B.divmod (B.of_int a) (B.of_int b) in
    Alcotest.check bi (Printf.sprintf "%d/%d q" a b) (B.of_int q) q';
    Alcotest.check bi (Printf.sprintf "%d/%d r" a b) (B.of_int r) r'
  in
  List.iter check [ (7, 2, 3, 1); (-7, 2, -3, -1); (7, -2, -3, 1); (-7, -2, 3, -1) ]

let test_fdiv_fmod () =
  let check (a, b, q, r) =
    Alcotest.check bi
      (Printf.sprintf "fdiv %d %d" a b)
      (B.of_int q)
      (B.fdiv (B.of_int a) (B.of_int b));
    Alcotest.check bi
      (Printf.sprintf "fmod %d %d" a b)
      (B.of_int r)
      (B.fmod (B.of_int a) (B.of_int b))
  in
  List.iter check [ (7, 2, 3, 1); (-7, 2, -4, 1); (7, -2, -4, -1); (-7, -2, 3, -1) ]

let test_division_by_zero () =
  Alcotest.check_raises "divmod" Division_by_zero (fun () ->
      ignore (B.divmod B.one B.zero))

let test_gcd () =
  let g a b = B.to_int_exn (B.gcd (B.of_int a) (B.of_int b)) in
  Alcotest.(check int) "gcd 12 18" 6 (g 12 18);
  Alcotest.(check int) "gcd -12 18" 6 (g (-12) 18);
  Alcotest.(check int) "gcd 0 5" 5 (g 0 5);
  Alcotest.(check int) "gcd 7 0" 7 (g 7 0);
  Alcotest.(check int) "gcd 0 0" 0 (g 0 0)

let test_compare () =
  let lt a b = B.lt (B.of_string a) (B.of_string b) in
  Alcotest.(check bool) "-big < small" true (lt "-99999999999999999999" "3");
  Alcotest.(check bool) "big > small" false (lt "99999999999999999999" "3");
  Alcotest.(check bool) "same magnitude" true (lt "-5" "5")

let test_to_int_overflow () =
  let big = B.of_string "9999999999999999999999" in
  Alcotest.(check (option int)) "overflow" None (B.to_int big);
  Alcotest.check_raises "exn" (Failure "Bigint.to_int_exn: out of native int range") (fun () ->
      ignore (B.to_int_exn big))

(* --- properties -------------------------------------------------------- *)

let in_range = QCheck.int_range (-1_000_000_000) 1_000_000_000
let nonzero = QCheck.map (fun n -> if n = 0 then 1 else n) in_range

let prop name gen f = QCheck_alcotest.to_alcotest (QCheck.Test.make ~count:500 ~name gen f)

let agrees_binop name op bop =
  prop name
    QCheck.(pair in_range in_range)
    (fun (a, b) -> B.equal (B.of_int (op a b)) (bop (B.of_int a) (B.of_int b)))

let properties =
  [
    agrees_binop "add agrees with int" ( + ) B.add;
    agrees_binop "sub agrees with int" ( - ) B.sub;
    agrees_binop "mul agrees with int" ( * ) B.mul;
    agrees_binop "min agrees with int" Stdlib.min B.min;
    agrees_binop "max agrees with int" Stdlib.max B.max;
    prop "divmod agrees with int"
      QCheck.(pair in_range nonzero)
      (fun (a, b) ->
        let q, r = B.divmod (B.of_int a) (B.of_int b) in
        B.equal q (B.of_int (a / b)) && B.equal r (B.of_int (a mod b)));
    prop "compare agrees with int"
      QCheck.(pair in_range in_range)
      (fun (a, b) -> B.compare (B.of_int a) (B.of_int b) = Int.compare a b);
    prop "string roundtrip" in_range (fun a ->
        B.equal (B.of_int a) (B.of_string (B.to_string (B.of_int a))));
    prop "mul distributes over add (large)"
      QCheck.(triple in_range in_range in_range)
      (fun (a, b, c) ->
        (* stretch to >63-bit magnitudes by squaring *)
        let big x = B.mul (B.of_int x) (B.of_int x) in
        let a = big a and b = big b and c = big c in
        B.equal (B.mul a (B.add b c)) (B.add (B.mul a b) (B.mul a c)));
    prop "divmod reconstructs (large)"
      QCheck.(pair in_range nonzero)
      (fun (a, b) ->
        let a = B.mul (B.of_int a) (B.of_int 1_000_003) in
        let b = B.of_int b in
        let q, r = B.divmod a b in
        B.equal a (B.add (B.mul q b) r) && B.lt (B.abs r) (B.abs b));
    prop "gcd divides both"
      QCheck.(pair nonzero nonzero)
      (fun (a, b) ->
        let g = B.gcd (B.of_int a) (B.of_int b) in
        B.is_zero (B.fmod (B.of_int a) g) && B.is_zero (B.fmod (B.of_int b) g));
    prop "fdiv/fmod law" QCheck.(pair in_range nonzero) (fun (a, b) ->
        let a' = B.of_int a and b' = B.of_int b in
        let q = B.fdiv a' b' and r = B.fmod a' b' in
        B.equal a' (B.add (B.mul q b') r)
        && (B.is_zero r || B.sign r = B.sign b'));
  ]

(* --- differential against the limb-only implementation -------------------- *)

(* Operands cluster where the machine-int fast path meets the limb path:
   near 0, +-1, +-2^30, +-2^31, +-2^62, +-max_int and min_int, plus random
   multi-limb decimals.  Each operand is a decimal string, read by both
   implementations. *)
module L = Bigint_limbs

let anchors =
  let rec pow2 k = if k = 0 then L.one else L.mul_int (pow2 (k - 1)) 2 in
  let pos = [ L.zero; L.one; pow2 30; pow2 31; pow2 62; L.of_int max_int ] in
  (L.of_int min_int :: pos) @ List.map L.neg pos

let gen_operand =
  let open QCheck.Gen in
  let near =
    map2 (fun a d -> L.to_string (L.add a (L.of_int d))) (oneofl anchors) (int_range (-2) 2)
  in
  let multi_limb =
    map3
      (fun neg first rest ->
        (if neg then "-" else "")
        ^ string_of_int first
        ^ String.concat "" (List.map string_of_int rest))
      bool (int_range 1 9) (list_size (int_range 0 40) (int_bound 9))
  in
  frequency [ (3, near); (1, multi_limb) ]

let arb_operand = QCheck.make ~print:Fun.id gen_operand

(* a native int operand for [mul_int] *)
let gen_small =
  QCheck.Gen.(
    map (fun s -> match L.to_int (L.of_string s) with Some n -> n | None -> 7) gen_operand)

(* [x] is the canonical representation of [expected]: it prints the same,
   and is structurally equal to the value [of_string] and [of_int] build. *)
let canonical x expected =
  let s = L.to_string expected in
  B.to_string x = s
  && x = B.of_string s
  && match B.to_int x with Some n -> x = B.of_int n | None -> L.to_int expected = None

let same name ok = if ok then true else QCheck.Test.fail_reportf "%s differs" name

let differential (a, b) =
  let x = B.of_string a and y = B.of_string b in
  let x' = L.of_string a and y' = L.of_string b in
  let binop name op op' = same name (canonical (op x y) (op' x' y')) in
  let divop name op op' =
    if L.is_zero y' then
      same name
        (match op x y with _ -> false | exception Division_by_zero -> true)
    else binop name op op'
  in
  same "of_string" (canonical x x')
  && binop "add" B.add L.add
  && binop "sub" B.sub L.sub
  && binop "mul" B.mul L.mul
  && same "neg" (canonical (B.neg x) (L.neg x'))
  && same "abs" (canonical (B.abs x) (L.abs x'))
  && divop "divmod q" (fun x y -> fst (B.divmod x y)) (fun x y -> fst (L.divmod x y))
  && divop "divmod r" (fun x y -> snd (B.divmod x y)) (fun x y -> snd (L.divmod x y))
  && divop "fdiv" B.fdiv L.fdiv
  && divop "fmod" B.fmod L.fmod
  && binop "gcd" B.gcd L.gcd
  && same "compare" (B.compare x y = L.compare x' y')
  && same "equal" (B.equal x y = L.equal x' y')
  && same "structural equality" (x = y = L.equal x' y')
  && same "to_int" (B.to_int x = L.to_int x')
  && same "to_string" (B.to_string x = L.to_string x')
  && same "sub undoes add" (B.sub (B.add x y) y = x)

let differential_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:3000 ~name:"agrees with the limb implementation"
         (QCheck.pair arb_operand arb_operand) differential);
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:1000 ~name:"mul_int agrees with the limb implementation"
         (QCheck.pair arb_operand (QCheck.make ~print:string_of_int gen_small))
         (fun (a, n) ->
           same "mul_int" (canonical (B.mul_int (B.of_string a) n) (L.mul_int (L.of_string a) n))));
  ]

let () =
  Alcotest.run "bigint"
    [
      ( "unit",
        [
          Alcotest.test_case "of_int/to_int" `Quick test_of_to_int;
          Alcotest.test_case "string roundtrip" `Quick test_string_roundtrip;
          Alcotest.test_case "of_string invalid" `Quick test_of_string_invalid;
          Alcotest.test_case "large arithmetic" `Quick test_large_arithmetic;
          Alcotest.test_case "divmod signs" `Quick test_divmod_signs;
          Alcotest.test_case "fdiv/fmod" `Quick test_fdiv_fmod;
          Alcotest.test_case "division by zero" `Quick test_division_by_zero;
          Alcotest.test_case "gcd" `Quick test_gcd;
          Alcotest.test_case "compare" `Quick test_compare;
          Alcotest.test_case "to_int overflow" `Quick test_to_int_overflow;
        ] );
      ("properties", properties);
      ("limb differential", differential_tests);
    ]
