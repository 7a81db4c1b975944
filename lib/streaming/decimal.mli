(** Decimal numbers to doubles and back.

    The reader converts a number where it lies in a string, with no copy:
    Clinger's fast path, then the Eisel–Lemire algorithm on a table of
    128-bit truncated powers of five (D. Lemire, "Number Parsing at a
    Gigabyte per Second", Software: Practice and Experience 51(8), 2021).
    It decides a number only when the algorithm proves that its double is
    the nearest one, ties to even — the value [float_of_string] gives —
    and otherwise leaves the number to the standard library.  The table is
    built once, from exact integer arithmetic, when the module is
    initialised; nothing is mutable afterwards, so any number of domains
    may read at once. *)

val read : string -> int -> float array -> int -> int
(** [read s i dst k] reads the number that starts at [s.[i]], in the
    plain form [-?D+(.D+)?([eE][+-]?D+)?] ([D] a decimal digit), up to the
    first byte that does not continue it: a point or an exponent is taken
    only when digits follow it.  It stores the number's double in
    [dst.(k)] and returns the index of that first byte, or returns [-1]
    and stores nothing when the text at [i] does not start that way, when
    the number has more than 19 significant digits, or when the truncated
    product cannot decide the rounding.  Whenever it returns [j >= 0],
    what it stored is bit for bit [float_of_string (String.sub s i (j - i))].
    It allocates nothing below 19 significant digits.  Raises
    [Invalid_argument] when [i] is outside [[0, String.length s]] or [k]
    outside [dst]. *)

val exact_float : float -> string
(** The shortest of [%.12g] and [%.17g] that parses back to the same
    float, so printed values round-trip exactly.  Every rendered instance
    and every JSON float goes through it. *)

val power_of_five : int -> int64 * int64
(** [power_of_five q], for q in [[-342, 308]]: the table's entry, the high
    and low 64-bit words of 5^q scaled into [[2^127, 2^128)] as the paper
    builds it — the top 128 bits of 5^q for q >= 0; for q < 0, 2^s / 5^-q
    rounded up when q >= -27 and truncated below.  Exposed for tests. *)
