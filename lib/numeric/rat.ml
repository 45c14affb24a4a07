(* Normalised rationals: positive denominator, gcd(num, den) = 1.  Most
   values the simplex meets are integers, so the operations first try
   shortcuts that need no gcd: a denominator of 1, and the normal forms that
   an operation with an integer operand, or an inversion, keeps. *)

module B = Bigint

type t = { num : B.t; den : B.t }

let normalise num den =
  if B.is_zero den then raise Division_by_zero
  else if B.equal den B.one then { num; den = B.one }
  else if B.is_zero num then { num = B.zero; den = B.one }
  else begin
    let g = B.gcd num den in
    let num, den = if B.equal g B.one then (num, den) else (B.fdiv num g, B.fdiv den g) in
    if B.sign den < 0 then { num = B.neg num; den = B.neg den } else { num; den }
  end

let make num den = normalise num den
let of_bigint n = { num = n; den = B.one }
let of_int n = of_bigint (B.of_int n)

let zero = of_int 0
let one = of_int 1
let minus_one = of_int (-1)

let num x = x.num
let den x = x.den

let sign x = B.sign x.num
let is_zero x = B.is_zero x.num

let is_integer x = B.equal x.den B.one

let compare x y =
  if is_integer x && is_integer y then B.compare x.num y.num
  else B.compare (B.mul x.num y.den) (B.mul y.num x.den)

let equal x y = compare x y = 0

let neg x = { x with num = B.neg x.num }
let abs x = { x with num = B.abs x.num }

(* gcd(a + k*b, b) = gcd(a, b) = 1: adding an integer keeps the normal form *)
let add x y =
  if is_integer y then
    if is_integer x then { num = B.add x.num y.num; den = B.one }
    else { x with num = B.add x.num (B.mul y.num x.den) }
  else if is_integer x then { y with num = B.add y.num (B.mul x.num y.den) }
  else normalise (B.add (B.mul x.num y.den) (B.mul y.num x.den)) (B.mul x.den y.den)

let sub x y = add x (neg y)

let mul x y =
  if is_integer x && is_integer y then { num = B.mul x.num y.num; den = B.one }
  else normalise (B.mul x.num y.num) (B.mul x.den y.den)

let inv x =
  if B.is_zero x.num then raise Division_by_zero
  else if B.sign x.num < 0 then { num = B.neg x.den; den = B.neg x.num }
  else { num = x.den; den = x.num }

let div x y = mul x (inv y)

let lt x y = compare x y < 0
let le x y = compare x y <= 0
let gt x y = compare x y > 0
let ge x y = compare x y >= 0
let min x y = if le x y then x else y
let max x y = if ge x y then x else y

let floor x = B.fdiv x.num x.den
let ceil x = B.neg (B.fdiv (B.neg x.num) x.den)

let to_string x =
  if is_integer x then B.to_string x.num
  else B.to_string x.num ^ "/" ^ B.to_string x.den

let pp fmt x = Format.pp_print_string fmt (to_string x)
