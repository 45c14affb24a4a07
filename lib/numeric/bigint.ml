(* Arbitrary-precision signed integers.  A value in the native [int] range,
   [min_int] excepted, is an immediate [S n] and is computed on with
   overflow-checked native arithmetic; every other value is a sign and a
   little-endian array of base-2^30 limbs, [B].  An operation whose native
   result would leave [S]'s range falls back to the limb path, and every
   limb result goes back through [make], so each value has exactly one
   representation and structural equality is numeric equality. *)

let base_bits = 30
let base = 1 lsl base_bits
let base_mask = base - 1

type t = S of int | B of { sign : int; mag : int array }
(* [S n] has [n <> min_int].  [B] holds exactly the values of magnitude at
   least 2^62 (those outside [S]'s range, [min_int] included): [sign] is -1
   or 1, the limbs satisfy [0 <= limb < base] and the top limb is non-zero. *)

let zero = S 0
let one = S 1
let minus_one = S (-1)

(* 2^62 = 4 * 2^60: the magnitude of [min_int]. *)
let big_min_int = B { sign = -1; mag = [| 0; 0; 4 |] }

let of_int n = if n = min_int then big_min_int else S n

let sign = function S n -> Int.compare n 0 | B b -> b.sign
let is_zero = function S 0 -> true | _ -> false

(* --- the limb path ------------------------------------------------------- *)

let trim mag =
  let n = ref (Array.length mag) in
  while !n > 0 && mag.(!n - 1) = 0 do
    decr n
  done;
  if !n = Array.length mag then mag else Array.sub mag 0 !n

(* Bit width of a trimmed magnitude. *)
let nbits_mag a =
  let l = Array.length a in
  if l = 0 then 0
  else begin
    let top = a.(l - 1) in
    let rec width n acc = if n = 0 then acc else width (n lsr 1) (acc + 1) in
    ((l - 1) * base_bits) + width top 0
  end

(* The canonical value of a sign and a (possibly untrimmed) magnitude: [S]
   when the magnitude is below 2^62, [B] otherwise. *)
let make sign mag =
  let mag = trim mag in
  if nbits_mag mag <= 62 then
    S (sign * Array.fold_right (fun limb acc -> (acc lsl base_bits) lor limb) mag 0)
  else B { sign; mag }

(* Limbs of a non-negative native int. *)
let mag_of_nat n =
  let rec limbs n = if n = 0 then [] else (n land base_mask) :: limbs (n lsr base_bits) in
  Array.of_list (limbs n)

let mag = function S n -> mag_of_nat (Stdlib.abs n) | B b -> b.mag

(* Compare trimmed magnitudes. *)
let cmp_mag a b =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then compare la lb
  else begin
    let rec go i = if i < 0 then 0 else if a.(i) <> b.(i) then compare a.(i) b.(i) else go (i - 1) in
    go (la - 1)
  end

let add_mag a b =
  let la = Array.length a and lb = Array.length b in
  let l = Stdlib.max la lb in
  let r = Array.make (l + 1) 0 in
  let carry = ref 0 in
  for i = 0 to l - 1 do
    let s = (if i < la then a.(i) else 0) + (if i < lb then b.(i) else 0) + !carry in
    r.(i) <- s land base_mask;
    carry := s lsr base_bits
  done;
  r.(l) <- !carry;
  r

(* Precondition: mag a >= mag b. *)
let sub_mag a b =
  let la = Array.length a and lb = Array.length b in
  let r = Array.make la 0 in
  let borrow = ref 0 in
  for i = 0 to la - 1 do
    let d = a.(i) - (if i < lb then b.(i) else 0) - !borrow in
    if d < 0 then begin
      r.(i) <- d + base;
      borrow := 1
    end
    else begin
      r.(i) <- d;
      borrow := 0
    end
  done;
  r

let mul_mag a b =
  let la = Array.length a and lb = Array.length b in
  let r = Array.make (la + lb) 0 in
  for i = 0 to la - 1 do
    let carry = ref 0 in
    let ai = a.(i) in
    for j = 0 to lb - 1 do
      (* ai*bj <= (2^30-1)^2 < 2^60; with carries it stays below 2^62,
         safe on 63-bit native ints. *)
      let t = (ai * b.(j)) + r.(i + j) + !carry in
      r.(i + j) <- t land base_mask;
      carry := t lsr base_bits
    done;
    let k = ref (i + lb) in
    while !carry <> 0 do
      let t = r.(!k) + !carry in
      r.(!k) <- t land base_mask;
      carry := t lsr base_bits;
      incr k
    done
  done;
  r

let testbit_mag a i =
  let limb = i / base_bits and off = i mod base_bits in
  limb < Array.length a && (a.(limb) lsr off) land 1 = 1

(* Binary long division on trimmed magnitudes: O(bits * limbs), plenty fast
   for the rare values that leave the native range. *)
let divmod_mag a b =
  let q = Array.make (Array.length a) 0 in
  let r = ref [||] in
  for i = nbits_mag a - 1 downto 0 do
    (* r := 2r + bit i of a *)
    let d = trim (add_mag !r !r) in
    let d = if testbit_mag a i then trim (add_mag d [| 1 |]) else d in
    if cmp_mag d b >= 0 then begin
      r := trim (sub_mag d b);
      q.(i / base_bits) <- q.(i / base_bits) lor (1 lsl (i mod base_bits))
    end
    else r := d
  done;
  (q, !r)

let add_big x y =
  let sx = sign x and sy = sign y in
  if sx = 0 then y
  else if sy = 0 then x
  else begin
    let mx = mag x and my = mag y in
    if sx = sy then make sx (add_mag mx my)
    else
      match cmp_mag mx my with
      | 0 -> zero
      | c when c > 0 -> make sx (sub_mag mx my)
      | _ -> make sy (sub_mag my mx)
  end

let divmod_big x y =
  let mx = mag x and my = mag y in
  if cmp_mag mx my < 0 then (zero, x)
  else begin
    let qm, rm = divmod_mag mx my in
    (make (sign x * sign y) qm, make (sign x) rm)
  end

(* --- arithmetic ---------------------------------------------------------- *)

let compare x y =
  match (x, y) with
  | S a, S b -> Int.compare a b
  (* a [B] is larger in magnitude than every [S] *)
  | S _, B b -> -b.sign
  | B a, S _ -> a.sign
  | B a, B b ->
      if a.sign <> b.sign then Int.compare a.sign b.sign
      else if a.sign > 0 then cmp_mag a.mag b.mag
      else cmp_mag b.mag a.mag

let equal x y = match (x, y) with S a, S b -> a = b | _ -> compare x y = 0

let neg = function S n -> S (-n) | B b -> B { b with sign = -b.sign }
let abs x = if sign x < 0 then neg x else x

(* Native sums and differences overflow iff the result's sign differs from
   the sign of both operands (of [a] and [-b] for a difference); [min_int]
   is a [B], so it takes the limb path too. *)
let add x y =
  match (x, y) with
  | S a, S b ->
      let s = a + b in
      if (a lxor s) land (b lxor s) < 0 || s = min_int then add_big x y else S s
  | _ -> add_big x y

let sub x y =
  match (x, y) with
  | S a, S b ->
      let d = a - b in
      if (a lxor b) land (a lxor d) < 0 || d = min_int then add_big x (neg y) else S d
  | _ -> add_big x (neg y)

let succ x = add x one
let pred x = sub x one

let mul_big x y = make (sign x * sign y) (mul_mag (mag x) (mag y))

let mul x y =
  match (x, y) with
  | S a, S b ->
      let p = a * b in
      (* factors below 2^31 keep the product below 2^62; otherwise the
         division test catches a wrapped product *)
      if Stdlib.abs a lor Stdlib.abs b < 1 lsl 31 || a = 0 || (p / a = b && p <> min_int) then S p
      else mul_big x y
  | _ -> mul_big x y

let mul_int x n = mul x (of_int n)

let divmod x y =
  match (x, y) with
  | _, S 0 -> raise Division_by_zero
  (* [a <> min_int], so [a / b] cannot overflow *)
  | S a, S b -> (S (a / b), S (a mod b))
  | S _, B _ -> (zero, x)
  | B _, _ -> divmod_big x y

let fdiv x y =
  match (x, y) with
  | S a, S b when b <> 0 ->
      let q = a / b in
      if a mod b <> 0 && (a < 0) <> (b < 0) then S (q - 1) else S q
  | _ ->
      let q, r = divmod x y in
      if sign r * sign y < 0 then pred q else q

let fmod x y =
  match (x, y) with
  | S a, S b when b <> 0 ->
      let r = a mod b in
      if r <> 0 && (r < 0) <> (b < 0) then S (r + b) else S r
  | _ ->
      let _, r = divmod x y in
      if sign r * sign y < 0 then add r y else r

let rec gcd x y =
  match (x, y) with
  | S a, S b ->
      let rec go a b = if b = 0 then a else go b (a mod b) in
      S (go (Stdlib.abs a) (Stdlib.abs b))
  | _ -> if is_zero y then abs x else gcd y (snd (divmod x y))

let lt x y = compare x y < 0
let le x y = compare x y <= 0
let gt x y = compare x y > 0
let ge x y = compare x y >= 0

let min x y = if le x y then x else y
let max x y = if ge x y then x else y

let to_int = function S n -> Some n | B _ as x -> if equal x big_min_int then Some min_int else None

let to_int_exn x =
  match to_int x with
  | Some n -> n
  | None -> failwith "Bigint.to_int_exn: out of native int range"

let to_string = function
  | S n -> string_of_int n
  | B b as x ->
      (* peel off 18 decimal digits per division until the quotient is an [S] *)
      let chunk = S 1_000_000_000_000_000_000 in
      let rec digits v acc =
        match v with
        | S n -> string_of_int n :: acc
        | B _ ->
            let q, r = divmod v chunk in
            digits q (Printf.sprintf "%018d" (to_int_exn r) :: acc)
      in
      let s = String.concat "" (digits (abs x) []) in
      if b.sign < 0 then "-" ^ s else s

let ten = S 10

let of_string s =
  let len = String.length s in
  if len = 0 then invalid_arg "Bigint.of_string: empty string";
  let negative = s.[0] = '-' in
  let start = if negative || s.[0] = '+' then 1 else 0 in
  if start >= len then invalid_arg "Bigint.of_string: no digits";
  let v = ref zero in
  for i = start to len - 1 do
    let c = s.[i] in
    if c < '0' || c > '9' then invalid_arg "Bigint.of_string: bad digit";
    v := add (mul !v ten) (S (Char.code c - Char.code '0'))
  done;
  if negative then neg !v else !v

let pp fmt x = Format.pp_print_string fmt (to_string x)
