(** A small textual format for problem instances, so that the command-line
    tool can analyse user-provided mappings.

    Example:
    {v
    # four stages on seven processors
    stages    4
    work      52 48 72 32
    files     24 36 28
    processors 7
    speeds    2 0.8 1.1 0.9 1.3 0.7 1.6
    bandwidth default 0.5
    bandwidth 0 1 0.35        # src dst value, overrides the default
    team 0                    # one line per stage, processor ids
    team 1 2
    team 3 4 5
    team 6
    v}

    Lines starting with [#] (or trailing [#] comments) are ignored.
    Tokens are separated by spaces and tabs.  Numbers are accepted
    exactly as [float_of_string] and [int_of_string] accept them, with
    the same values: plain decimals are read in place by {!Decimal.read},
    and any other spelling ([1_0], [0x1F], [nan], [.5], ...) is left to
    the standard library. *)

val parse : string -> (Mapping.t, string) result
(** Parse the contents of an instance description.  Numeric values are
    vetted where they are read: work sizes, speeds and bandwidths must be
    finite and positive, file sizes finite and non-negative, and a
    bandwidth override must name processors that exist — violations are
    reported with the offending line number.  The processor count must be
    positive, match the number of speeds and stay within
    {!max_processors}; all three are checked before the bandwidth matrix
    is allocated.  The text is read in one pass, with no copy of a token
    that reads as a plain number, and no state outside the call: any
    number of domains may parse at once.  Never raises. *)

val max_processors : int
(** The largest processor count {!parse} and {!parse_multi} accept
    (1024).  It bounds the m × m bandwidth matrix a text can make them
    allocate at 8 MiB. *)

val parse_file : string -> (Mapping.t, string) result

val print : Format.formatter -> Mapping.t -> unit
(** Write a mapping back in the same format. *)

val to_string : Mapping.t -> string
(** The canonical rendering of a mapping: {!print} into a string.  Two
    instance texts that parse to the same mapping render identically
    (whatever their spacing, comments, line order or float spellings), and
    the rendering parses back to the same mapping — [parse ∘ to_string =
    id].  The experiment journals key on this rendering; the query
    service keys on {!key}, which groups mappings the same way. *)

val key : header:string -> Mapping.t -> string
(** [header] followed by the mapping's cache-key encoding, written once
    into a string of its final length: the values {!print} writes
    (stage count, work, file sizes, processor count, speeds, the printed
    default bandwidth, every off-diagonal bandwidth, the teams) as
    length-prefixed 8-byte little-endian integers and raw IEEE-754 bits.
    For mappings with finite values — everything {!parse} returns — two
    mappings get the same encoding exactly when {!to_string} renders them
    identically: the diagonal is skipped as the printer skips it, and
    [-0.0] and [0.0] differ as their renderings do.  The encoding is
    binary and prefix-free; it is a key, not a format. *)

(** {1 Multi-tenant instances}

    Version 1 of the multi-tenant block: one shared platform, then [K]
    tenant declarations, each a pipeline mapped onto the shared
    processors.  Declaration order is significant — it is the admission
    order of the tenancy tier.

    {v
    tenancy 1
    processors 4
    speeds    2 1 1 1.5
    bandwidth default 0.5
    bandwidth 0 1 0.35
    tenant a weight 2 floor 0.05
    stages 2
    work   3 4
    files  2
    team 0
    team 1 2
    tenant b weight 1 floor 0.01
    stages 1
    work   5
    team 3
    v}

    Different tenants may (and, for contention to matter, should) map
    teams onto the same processors; within one tenant the usual
    one-team-per-processor rule of {!Mapping.create} holds. *)

type tenant_decl = {
  tenant_id : string;  (** non-empty, no whitespace, unique in a block *)
  weight : float;  (** relative share weight; finite and positive *)
  floor : float;
      (** declared throughput floor for admission; finite, non-negative *)
  tenant_mapping : Mapping.t;  (** the tenant's pipeline on the shared platform *)
}

val parse_multi : string -> (tenant_decl list, string) result
(** Parse a versioned [tenancy] block.  The shared platform lines must
    precede the first [tenant] line; every tenant's mapping is built on
    the one shared {!Platform.t} (physically shared, so downstream code
    may compare platforms with [==]).  Validations mirror {!parse} and
    add: a leading [tenancy 1] version line, unique tenant ids, finite
    positive weights, finite non-negative floors, at least one tenant.
    Never raises. *)

val parse_multi_file : string -> (tenant_decl list, string) result

val multi_to_string : tenant_decl list -> string
(** Canonical rendering of a tenant block; [parse_multi ∘ multi_to_string
    = id].  Raises [Invalid_argument] if the declarations do not share one
    platform. *)

val multi_key : header:string -> tenant_decl list -> string
(** {!key} for a tenant block: the shared platform, then each
    tenant's id, weight, floor, stages and teams in declaration order.
    Two blocks get the same encoding exactly when {!multi_to_string}
    renders them identically; the tenancy service tier keys its cache on
    it.  Raises [Invalid_argument] where {!multi_to_string} does. *)
