(** Vector timestamps for lazy release consistency.

    Component [i] of a node's clock is the sequence number of the most
    recent interval of processor [i] whose modifications the node has seen.
    The happened-before-1 partial order of the paper is exactly the
    componentwise order on these vectors. *)

type t

val zero : nprocs:int -> t

val copy : t -> t

val nprocs : t -> int

val get : t -> int -> int

val set : t -> int -> int -> unit

(** Increment component [proc] (a new interval of that processor). *)
val tick : t -> proc:int -> unit

(** Componentwise maximum, into the first argument. *)
val merge_into : t -> t -> unit

(** Overwrite [dst] with [src]'s components (no allocation; the clocks
    must have the same width). *)
val blit_into : src:t -> dst:t -> unit

(** {!blit_into} restricted to the components [changed.(0 .. len-1)]:
    O(len) instead of O(nprocs).  PRECONDITION: [src] and [dst] agree on
    every component not listed (the barrier's snapshot refresh, where
    the node's journal lists every processor whose component moved). *)
val blit_changed : src:t -> dst:t -> changed:int array -> len:int -> unit

(** Overwrite [dst] with [src] the way {!copy} would build it — the
    delta base, dirty set and monotonicity come along, so the delta,
    merge and minimum fast paths keep working on the result — but
    without allocating.  [dst] must not be anyone's {!rebase} base. *)
val copy_into : src:t -> dst:t -> unit

(** Componentwise minimum, into the first argument.  The minimum over a
    set of clocks covers interval [(p, s)] iff every clock in the set
    does — it is exactly the knowledge shared by a whole barrier subtree,
    which is what the combining tree sends upward.  When both clocks
    are based on the same current epoch stamp and the second has only
    grown since its rebase, only the first one's dirty components are
    visited. *)
val min_into : t -> t -> unit

(** Record [base] as the clock's delta base and clear its
    dirty-component set: from here on, {!delta_size_bytes} against
    exactly [base] (same clock, unchanged) counts only components
    touched since this call.  PRECONDITION: the clock's components must
    equal [base]'s at the time of the call (true at every call site —
    the base is a just-taken snapshot of the clock).  Copies inherit the
    base, so interval snapshots taken from a rebased clock keep the fast
    path against the origin's last-barrier knowledge.

    [epoch >= 0] additionally stamps [base] as the epoch-[epoch]
    snapshot.  PRECONDITION: all clocks stamped with the same epoch
    number (across all nodes of the cluster) have identical components —
    true for barrier-completion snapshots, which all equal the global
    supremum of the epoch.  The stamp extends the delta/merge/leq fast
    paths across nodes: a clock based on THIS node's epoch-[e] snapshot
    is delta-comparable against ANOTHER node's epoch-[e] snapshot. *)
val rebase : ?epoch:int -> t -> base:t -> unit

(** [leq a b] — every component of [a] is at or below [b]:
    "[a] happened before or is [b]". *)
val leq : t -> t -> bool

(** Neither [leq a b] nor [leq b a]: concurrent intervals. *)
val concurrent : t -> t -> bool

(** [dominates_snapshot t ~snapshot] — a conservative O(1) test that
    [t] is componentwise at or above [snapshot]: [snapshot] carries a
    current epoch stamp [e], and [t] has only grown (or taken same-epoch
    minimums) since its rebase onto a stamp of some epoch [e' >= e].
    [false] means "not provable", not "not dominated". *)
val dominates_snapshot : t -> snapshot:t -> bool

(** Total order extending happened-before-1, for applying diffs "in
    timestamp order": componentwise-dominated first, concurrent vectors
    tie-broken by (sum, lexicographic). *)
val order : t -> t -> int

(** Cached component sum (maintained incrementally by every mutator). *)
val sum : t -> int

(** Wire size in bytes (4 per component). *)
val size_bytes : t -> int

(** Wire size under delta encoding against [since], a clock the receiver
    is known to share: 8-byte header + 8 bytes per differing component.
    Used by the [sparse_vc] cost model with the sender's last-barrier
    clock as the base. *)
val delta_size_bytes : since:t -> t -> int

val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit
