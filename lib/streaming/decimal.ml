(* Exact decimal-to-double conversion, after D. Lemire, "Number Parsing at
   a Gigabyte per Second", Software: Practice and Experience 51(8), 2021:
   Clinger's fast path, then the Eisel–Lemire algorithm on a table of
   128-bit truncated powers of five.  The reader decides a number only
   where the algorithm proves its double is the nearest one (ties to
   even), which is what [float_of_string] returns; everything else is
   left to the standard library.  Nothing here is mutable once built, so
   any number of domains may read at once. *)

(* ---- 5^q to 128 bits, for q in [q_min, q_max] ---- *)

let q_min = -342
let q_max = 308

(* Non-negative integers as little-endian arrays of 30-bit limbs, only
   for building the table. *)
let limb = 30
let limb_mask = (1 lsl limb) - 1

(* [a] * c, in place when it fits *)
let mul_small a c =
  let carry = ref 0 in
  for i = 0 to Array.length a - 1 do
    let v = (a.(i) * c) + !carry in
    a.(i) <- v land limb_mask;
    carry := v lsr limb
  done;
  if !carry = 0 then a else Array.append a [| !carry |]

(* [a] / c, in place *)
let div_small a c =
  let rem = ref 0 in
  for i = Array.length a - 1 downto 0 do
    let v = (!rem lsl limb) lor a.(i) in
    a.(i) <- v / c;
    rem := v mod c
  done

let bit_length_big a =
  let top = ref (Array.length a - 1) in
  while !top >= 0 && a.(!top) = 0 do
    decr top
  done;
  if !top < 0 then 0
  else
    let n = ref 0 in
    while a.(!top) lsr !n <> 0 do
      incr n
    done;
    (!top * limb) + !n

let limb_at a i = if i < Array.length a then a.(i) else 0

(* bits [pos, pos + 32) of [a], zero below bit 0 *)
let rec bits32 a pos =
  if pos <= -32 then 0
  else if pos < 0 then (bits32 a 0 lsl -pos) land 0xFFFF_FFFF
  else
    let i = pos / limb and off = pos mod limb in
    (limb_at a i lsr off)
    lor (limb_at a (i + 1) lsl (limb - off))
    lor (limb_at a (i + 2) lsl ((2 * limb) - off))
    land 0xFFFF_FFFF

(* [a] + 2^i *)
let add_bit a i =
  let a = Array.append a [| 0 |] in
  let k = ref (i / limb) in
  a.(!k) <- a.(!k) + (1 lsl (i mod limb));
  while a.(!k) lsr limb <> 0 do
    a.(!k) <- a.(!k) land ((1 lsl limb) - 1);
    incr k;
    a.(!k) <- a.(!k) + 1
  done;
  a

(* Entry q holds 5^q scaled into [2^127, 2^128), as the paper builds it:
   for q >= 0 the top 128 bits of 5^q; for q < 0, with 5^-q < 2^z <
   2 * 5^-q, the top 128 bits of floor(2^b / 5^-q) + 1, where b = z + 127
   for q >= -27 (so the entry is 2^b / 5^-q rounded up) and b = 2z + 128
   below (so it is, all but surely, truncated).  floor(2^b / 5^j) is
   floor(2^n / 5^j) shifted right by n - b, so the +1 goes in at bit n - b
   of the one quotient, which is divided by 5 once per step. *)
let table =
  let n = 1720 (* the largest b: 5^342 < 2^795, b = 2 * 795 + 128 *) in
  let entries = Bytes.create (16 * (q_max - q_min + 1)) in
  let store q a =
    let len = bit_length_big a in
    let c = Array.init 4 (fun k -> bits32 a (len - 128 + (32 * k))) in
    let join hi lo = Int64.logor (Int64.shift_left (Int64.of_int hi) 32) (Int64.of_int lo) in
    Bytes.set_int64_ne entries (16 * (q - q_min)) (join c.(3) c.(2));
    Bytes.set_int64_ne entries ((16 * (q - q_min)) + 8) (join c.(1) c.(0))
  in
  let p = ref [| 1 |] in
  for q = 0 to q_max do
    store q !p;
    p := mul_small !p 5
  done;
  let v = add_bit (Array.make ((n / limb) + 1) 0) n in
  for j = 1 to -q_min do
    div_small v 5;
    let z = n - bit_length_big v + 1 in
    let b = if j <= 27 then z + 127 else (2 * z) + 128 in
    store (-j) (add_bit v (n - b))
  done;
  Bytes.unsafe_to_string entries

let power_of_five q =
  if q < q_min || q > q_max then invalid_arg "Decimal.power_of_five";
  (String.get_int64_ne table (16 * (q - q_min)), String.get_int64_ne table ((16 * (q - q_min)) + 8))

(* ---- the reader ---- *)

(* 10^0 .. 10^22, every one an exact double *)
let exact_powers =
  [| 1e0; 1e1; 1e2; 1e3; 1e4; 1e5; 1e6; 1e7; 1e8; 1e9; 1e10; 1e11; 1e12; 1e13; 1e14; 1e15;
     1e16; 1e17; 1e18; 1e19; 1e20; 1e21; 1e22 |]

(* bits of a non-negative int below 2^62 *)
let bit_length x =
  let n = ref 0 and x = ref x in
  if !x lsr 32 <> 0 then (n := 32; x := !x lsr 32);
  if !x lsr 16 <> 0 then (n := !n + 16; x := !x lsr 16);
  if !x lsr 8 <> 0 then (n := !n + 8; x := !x lsr 8);
  if !x lsr 4 <> 0 then (n := !n + 4; x := !x lsr 4);
  if !x lsr 2 <> 0 then (n := !n + 2; x := !x lsr 2);
  if !x lsr 1 <> 0 then (n := !n + 1; x := !x lsr 1);
  !n + !x

(* the high 64 bits of the unsigned 128-bit product a * b *)
let[@inline] mul_high a b =
  let open Int64 in
  let lo32 = 0xFFFF_FFFFL in
  let a0 = logand a lo32 and a1 = shift_right_logical a 32 in
  let b0 = logand b lo32 and b1 = shift_right_logical b 32 in
  let p00 = mul a0 b0 and p01 = mul a0 b1 and p10 = mul a1 b0 and p11 = mul a1 b1 in
  let mid = add (add (shift_right_logical p00 32) (logand p01 lo32)) (logand p10 lo32) in
  add (add p11 (shift_right_logical p01 32)) (add (shift_right_logical p10 32) (shift_right_logical mid 32))

let[@inline] unsigned_lt a b = Int64.logxor a Int64.min_int < Int64.logxor b Int64.min_int

let[@inline] is_digit c = c >= '0' && c <= '9'

(* a point counts only when a digit follows it *)
let[@inline] point_at s n p = p + 1 < n && String.unsafe_get s p = '.' && is_digit (String.unsafe_get s (p + 1))

(* the table's words, in native byte order as [table] stores them *)
external word : string -> int -> int64 = "%caml_string_get64"

(* Eisel–Lemire: store the double nearest to w * 10^q, negated when
   [negative], in [dst.(k)], w < 2^64 read unsigned and [lz] its leading
   zeros; or answer false when the truncated product cannot decide it.
   Needs w <> 0 and q in [q_min, q_max].  Inlined into its one caller, so
   its 64-bit words stay unboxed. *)
let[@inline] eisel_lemire negative w lz q dst k =
  let open Int64 in
  let w = shift_left w lz in
  let at = 16 * (q - q_min) in
  let t_hi = word table at in
  (* the 128-bit (w * T) / 2^64; the high word of w times the low word of
     T is needed only when the low 9 bits of the high word are all ones,
     where its carry can reach the 55 bits kept *)
  let hi0 = mul_high w t_hi and lo0 = mul w t_hi in
  let low = if logand hi0 0x1FFL = 0x1FFL then mul_high w (word table (at + 8)) else 0L in
  let lo = add lo0 low in
  let hi = if unsigned_lt lo lo0 then add hi0 1L else hi0 in
  (* still nine ones, then 64: the table's rounding error may yet carry
     into the kept bits, unless 5^q is exact (q in [0, 55]).  The paper
     also proves q in [-27, -1] safe; deferring there as well costs
     nothing. *)
  if logand hi 0x1FFL = 0x1FFL && lo = -1L && (q < 0 || q > 55) then false
  else begin
    let upper = Stdlib.Int64.to_int (shift_right_logical hi 63) in
    let shift = upper + 9 in
    (* 54 bits: the double's 53 and one to round with *)
    let m = Stdlib.Int64.to_int (shift_right_logical hi shift) in
    (* the biased exponent; 217706 / 2^16 is close enough to log2 10
       that the floor is exact over the whole table *)
    let e = ((217706 * q) asr 16) + 63 + upper - lz + 1023 in
    let bits =
      if e <= 0 then begin
        (* subnormal: one rounding, at the subnormal precision (no tie
           lands this low) *)
        let s = 1 - e in
        let m = if s >= 54 then 0 else m lsr s in
        of_int ((m + (m land 1)) lsr 1)
      end
      else begin
        (* an exact tie, possible only for q in [-4, 23], rounds to even *)
        let m =
          if (lo = 0L || lo = 1L) && q >= -4 && q <= 23 && m land 3 = 1
             && shift_left (of_int m) shift = hi
          then m - 1
          else m
        in
        let m = (m + (m land 1)) lsr 1 in
        (* rounding up to 2^53 moves to the next binade *)
        let e = e + (m lsr 53) in
        if e >= 2047 then 0x7FF0_0000_0000_0000L
        else logor (shift_left (of_int e) 52) (of_int (m land ((1 lsl 52) - 1)))
      end
    in
    dst.(k) <- Stdlib.Int64.float_of_bits (if negative then logor bits min_int else bits);
    true
  end

(* 19 digits, which need all 64 bits (read unsigned), skipping the point *)
let digits64 s first stop point =
  let w = ref 0L in
  for p = first to stop - 1 do
    if p <> point then w := Int64.(add (mul !w 10L) (of_int (Char.code (String.unsafe_get s p) - 48)))
  done;
  !w

let read s i dst k =
  let n = String.length s in
  if i < 0 || i > n then invalid_arg "Decimal.read";
  let neg = i < n && String.unsafe_get s i = '-' in
  let j = ref (if neg then i + 1 else i) in
  if not (!j < n && is_digit (String.unsafe_get s !j)) then -1
  else begin
    (* zeros that lead the number are no significant digits *)
    let point = ref (-1) in
    while !j < n && String.unsafe_get s !j = '0' do
      incr j
    done;
    if point_at s n !j then begin
      point := !j;
      incr j;
      while !j < n && String.unsafe_get s !j = '0' do
        incr j
      done
    end;
    (* the significand from its first significant digit; past 18 digits
       [w] wraps, and is read again below *)
    let first = !j and w = ref 0 and more = ref true in
    while !more && !j < n do
      let d = Char.code (String.unsafe_get s !j) - 48 in
      if d lor (9 - d) >= 0 then begin
        w := (!w * 10) + d;
        incr j
      end
      else if !point < 0 && point_at s n !j then begin
        point := !j;
        incr j
      end
      else more := false
    done;
    let stop = !j in
    let nd = stop - first - if !point >= first then 1 else 0 in
    let frac = if !point < 0 then 0 else stop - !point - 1 in
    (* the exponent, taken only when complete; it saturates far past where
       every value is 0 or infinity *)
    let e = ref 0 in
    if !j < n && (String.unsafe_get s !j = 'e' || String.unsafe_get s !j = 'E') then begin
      let p = !j + 1 in
      let sign = if p < n then String.unsafe_get s p else ' ' in
      let p = if sign = '-' || sign = '+' then p + 1 else p in
      if p < n && is_digit (String.unsafe_get s p) then begin
        let p = ref p and v = ref 0 in
        while !p < n && is_digit (String.unsafe_get s !p) do
          if !v < 100_000 then v := (!v * 10) + Char.code (String.unsafe_get s !p) - 48;
          incr p
        done;
        e := if sign = '-' then - !v else !v;
        j := !p
      end
    end;
    let q = !e - frac in
    if nd > 19 then -1
    else if nd = 0 then begin
      dst.(k) <- (if neg then -0.0 else 0.0);
      !j
    end
    else if nd <= 18 && !w <= 1 lsl 53 && q >= -22 && q <= 22 then begin
      (* Clinger: both operands are exact, so the one operation rounds once *)
      let v =
        if q >= 0 then float_of_int !w *. exact_powers.(q) else float_of_int !w /. exact_powers.(-q)
      in
      dst.(k) <- (if neg then -.v else v);
      !j
    end
    else if q < q_min || q > q_max then begin
      (* below 10^-324 or above 10^308 whatever the 19 digits *)
      let v = if q < q_min then 0.0 else infinity in
      dst.(k) <- (if neg then -.v else v);
      !j
    end
    else
      let w = if nd <= 18 then Int64.of_int !w else digits64 s first stop !point in
      let top = Int64.to_int (Int64.shift_right_logical w 32) in
      let lz = if top = 0 then 64 - bit_length (Int64.to_int w) else 32 - bit_length top in
      if eisel_lemire neg w lz q dst k then !j else -1
  end

let exact_float v =
  let short = Printf.sprintf "%.12g" v in
  if float_of_string short = v then short else Printf.sprintf "%.17g" v
