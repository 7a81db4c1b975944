(* Byte-level edits for the wire-parser fuzz properties: one to four
   random edits of a generated string, each deleting, inserting or
   replacing one byte or truncating the string.  Inserted bytes come twice
   as often from [specials], the syntax the parser under test keys on, as
   from all 256 byte values. *)
let gen ~specials base =
  let open QCheck.Gen in
  let byte = frequency [ (1, char); (2, oneofl specials) ] in
  let edit s (op, i, c) =
    let n = String.length s in
    let i = i mod (n + 1) in
    let cut a b = String.sub s a (b - a) in
    match op with
    | 0 when i < n -> cut 0 i ^ cut (i + 1) n
    | 1 -> cut 0 i ^ String.make 1 c ^ cut i n
    | 2 when i < n -> cut 0 i ^ String.make 1 c ^ cut (i + 1) n
    | 3 -> cut 0 i
    | _ -> s
  in
  map2 (List.fold_left edit) base (list_size (int_range 1 4) (triple (int_range 0 3) nat byte))
