(* NDJSON framing: byte stream in, frame events out.

   One instance per connection.  A frame growing past [max_frame] fires
   [`Oversized] exactly once (at the crossing, so the peer hears about
   it immediately) and the rest of the line is discarded; the newline
   ends the skip and the connection keeps working.  Shared by the
   daemon's connection loop and the cluster router so both ends of a
   forwarded connection frame identically. *)

type t = {
  max_frame : int;
  acc : Buffer.t;
  mutable skipping : bool;
}

type event = Line of string | Oversized

let create ~max_frame =
  if max_frame < 1 then invalid_arg "Frames.create: max_frame must be positive";
  { max_frame; acc = Buffer.create 512; skipping = false }

(* bytes [i, stop) hold no newline: buffer them whole, or cross the limit
   and start skipping *)
let add_run t bytes i stop emit =
  if not t.skipping then
    if Buffer.length t.acc + (stop - i) > t.max_frame then begin
      Buffer.clear t.acc;
      t.skipping <- true;
      emit Oversized
    end
    else Buffer.add_subbytes t.acc bytes i (stop - i)

(* the first newline in bytes [i, n), or [n] *)
let newline bytes i n =
  let j = ref i in
  while !j < n && Bytes.unsafe_get bytes !j <> '\n' do
    incr j
  done;
  !j

let feed t bytes n emit =
  if n < 0 || n > Bytes.length bytes then invalid_arg "Frames.feed: n outside the buffer";
  let i = ref 0 in
  while !i <= n do
    let stop = newline bytes !i n in
    add_run t bytes !i stop emit;
    (if stop < n then
       if t.skipping then t.skipping <- false
       else begin
         let line = Buffer.contents t.acc in
         Buffer.clear t.acc;
         emit (Line line)
       end);
    i := stop + 1
  done

let pending t = (not t.skipping) && Buffer.length t.acc > 0
