(** Markings of a timed event graph and reachability exploration.

    A marking assigns a token count to every place.  This is the state
    space on which §5.1's general method builds its Markov chain: under
    exponential firing times the marking process is a CTMC. *)

type t = int array
(** Token count per place, indexed like [Teg.place]. *)

val initial : Teg.t -> t

val enabled : Teg.t -> t -> int list
(** Transitions whose every input place holds at least one token, in
    increasing index order. *)

val is_enabled : Teg.t -> t -> int -> bool

val fire : Teg.t -> t -> int -> t
(** [fire teg m v] consumes one token from each input place of [v] and
    produces one in each output place.  Raises [Invalid_argument] if [v] is
    not enabled. *)

(** {1 Packed codes}

    Explored markings are stored packed: a codec gives each place a bit
    field and packs the fields into 62-bit words, never splitting a field
    across two words, so a marking's code is {!words} non-negative ints.
    The codes of a graph's states sit back to back in one flat array. *)

type codec

val codec_of_widths : int array -> codec
(** The codec with the given field width, in bits, for each place (in
    place order).  Raises [Invalid_argument] unless every width is in
    1..62. *)

val words : codec -> int
(** Ints per code. *)

val encode : codec -> t -> int array -> int -> unit
(** [encode c m codes off] writes the code of [m] into
    [codes.(off) .. codes.(off + words c - 1)].  Raises [Invalid_argument]
    if a token count does not fit its field. *)

val permute : codec -> place_perm:int array -> int array -> int -> into:int array -> bool
(** [permute c ~place_perm codes off ~into] writes into [into] (from index
    0) the code of the marking in which place [place_perm.(p)] holds the
    tokens place [p] holds in the code at [codes.(off)].  Returns [false]
    if some count does not fit its new field: that marking then has no
    code under [c], so it is none of the states of a graph explored with
    [c]. *)

type graph = {
  codec : codec;
  codes : int array;
      (** [words codec] ints per state, in BFS discovery order; state 0 is
          the initial marking *)
  row_ptr : int array;  (** length [n_states + 1] *)
  succ : int array;  (** successor state id of each edge, rows concatenated *)
  via : int array;  (** transition fired along each edge *)
}
(** The reachable marking graph in compressed-sparse-row form: the edges
    out of state [i] are [succ.(k), via.(k)] for
    [k] in [row_ptr.(i) .. row_ptr.(i+1) - 1], listed in increasing
    transition order. *)

val n_states : graph -> int

val marking : graph -> int -> t
(** [marking g i] decodes state [i]. *)

type index
(** A code table over the states of a graph. *)

val index : graph -> index

val find : index -> int array -> int
(** [find ix code] is the id of the state whose code is
    [code.(0) .. code.(words - 1)], or [-1]. *)

type store
(** The serial walk's set of visited codes of [words] ints, numbered 0, 1,
    … in first-insertion order; also walked by [Markov.Tpn_markov_ph]. *)

val store : words:int -> store
val stored : store -> int

val intern : store -> cap:int -> ?budget:Supervise.Budget.t -> int array -> int
(** The id of the code [key.(0 .. words-1)], added if new: past [cap]
    codes [State_space_exceeded], and the budget polled as {!explore}. *)

val load : store -> int -> int array -> unit
(** [load s id into] copies the code of [id] into [into]. *)

(** {1 Exploration} *)

val budget_poll_stride : int
(** Registered-state interval (a power of two) at which exploration polls
    the budget's wall deadline.  Shared by the serial and the sharded BFS
    so both abort at the same registration counts. *)

val default_cap : int
(** The explorers' state cap when none is given: 200_000. *)

val effective_cap : ?cap:int -> ?budget:Supervise.Budget.t -> unit -> int
(** The cap an exploration runs under: [cap] (default {!default_cap}),
    tightened by the [budget]'s state ceiling.  A walk that finishes has
    registered at most this many states, and a net with more reachable
    markings raises [State_space_exceeded] with it. *)

val explore : ?cap:int -> ?budget:Supervise.Budget.t -> Teg.t -> t array
(** Breadth-first enumeration of the reachable markings, starting from the
    initial one (index 0 of the result).  [cap] (default {!default_cap})
    bounds the exploration; exceeding it raises
    [Supervise.Error.Solver_error (State_space_exceeded _)] — which is
    the signature of a token-unbounded net such as the full Overlap TPN.
    A [budget] tightens the cap with its state ceiling, and its wall
    deadline is polled every {!budget_poll_stride} registered states
    ([Budget_exhausted]). *)

val explore_graph : ?cap:int -> ?budget:Supervise.Budget.t -> ?pool:Parallel.Pool.t -> Teg.t -> graph
(** Like {!explore} but records the marking graph (one edge per enabled
    firing) and keeps the states packed.  Firing a transition adds a
    constant per-word delta to the parent's code.  Field widths climb a
    ladder: each place's initial count, then the net's total token count,
    then one 62-bit field per place; a firing that would outgrow a field
    restarts the walk on the next rung, so the graph's [codec] is the
    narrowest rung that holds every reachable marking.

    With a [pool] of size >= 2 the BFS runs sharded over the pool in
    level-synchronous rounds: parent chunks are scanned in parallel,
    unknown successors are deduplicated in 64 exclusively-owned hash
    shards, and a serial merge assigns state ids in the exact (parent id,
    transition) discovery order of the serial BFS.  The resulting graph —
    codec, codes, row_ptr, succ, via — is byte-identical to the serial
    result at every pool size, and the budget is additionally polled before
    each frontier block so a spent wall clock cannot overshoot by a level. *)
