(** Textual format for standalone timed event graphs, so the generic net
    tool ([streaming_cli teg]) can analyse nets that do not come from a
    pipeline mapping — the role of the ERS toolbox's net files.

    {v
    # ring of three transitions
    transitions 3
    t 0 produce 1.5        # id label duration
    t 1 filter  2.0
    t 2 consume 0.5
    place 0 1 0            # src dst tokens
    place 1 2 0
    place 2 0 1
    v}

    Labels must not contain whitespace. *)

val parse : string -> (Teg.t, string) result
val parse_file : string -> (Teg.t, string) result
val print : Format.formatter -> Teg.t -> unit
