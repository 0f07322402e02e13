(** One cell of an experiment grid — an (application x protocol x
    processor-count x fabric) configuration — run and measured, plus the
    helpers every driver shares: pooled grid runs, host-cost timing and
    the JSON row writer. *)

type fabric =
  | Flat_central  (** the paper's fabric: flat network, manager barrier *)
  | Tree_combining
      (** large-cluster configuration: 2-level switched tree, combining
          tree barrier (fanout 4), lock homes sharded one per switch,
          sparse vector-clock cost accounting *)

val fabric_name : fabric -> string

(** Configuration tweak selecting a fabric: [Flat_central] is the
    identity, [Tree_combining] switches on the 2-level tree topology,
    the combining barrier, sharded lock homes and sparse vector-clock
    accounting. *)
val tweak_of_fabric : fabric -> Adsm_dsm.Config.t -> Adsm_dsm.Config.t

type cell = {
  app : Adsm_apps.Registry.entry;
  protocol : Adsm_dsm.Config.protocol;
  nprocs : int;
  scale : Adsm_apps.Registry.scale;
  fabric : fabric;
  tweak : Adsm_dsm.Config.t -> Adsm_dsm.Config.t;
      (** configuration post-processing, applied after [fabric] (e.g. a
          smaller GC threshold for the Figure 3 runs, or the CLI's
          network and topology) *)
  faults : Adsm_net.Fault.schedule option;
      (** fault schedule, applied after [tweak] (see FAULTS.md) *)
}

(** [cell ~protocol ~nprocs name] resolves the application [name] (any
    case) once.  Defaults: [Default] scale, [Flat_central], no tweak, no
    faults.
    @raise Invalid_argument naming [name] if no application has it. *)
val cell :
  ?scale:Adsm_apps.Registry.scale ->
  ?fabric:fabric ->
  ?tweak:(Adsm_dsm.Config.t -> Adsm_dsm.Config.t) ->
  ?faults:Adsm_net.Fault.schedule ->
  protocol:Adsm_dsm.Config.protocol ->
  nprocs:int ->
  string ->
  cell

(** [grid ~protocols ~nprocs apps] is one {!cell} per application x
    protocol x node count x fabric (default [[Flat_central]]), nested in
    that order. *)
val grid :
  ?scale:Adsm_apps.Registry.scale ->
  ?fabrics:fabric list ->
  ?tweak:(Adsm_dsm.Config.t -> Adsm_dsm.Config.t) ->
  protocols:Adsm_dsm.Config.protocol list ->
  nprocs:int list ->
  string list ->
  cell list

type measurement = {
  app : string;
  protocol : Adsm_dsm.Config.protocol;
  nprocs : int;
  scale : Adsm_apps.Registry.scale;
  time_ns : int;
  messages : int;
  data_bytes : int;  (** payload bytes, the paper's "Data" column *)
  wire_bytes : int;  (** payload plus per-message headers on the wire *)
  own_requests : int;
  own_refusals : int;
  twins_created : int;
  twin_bytes : int;  (** cumulative twin bytes (paper Table 3) *)
  diffs_created : int;
  diff_bytes : int;  (** cumulative diff bytes (paper Table 3) *)
  gc_runs : int;
  mode_switches : int;
  shared_pages : int;
  pages_written : int;
  pages_false_shared : int;
  mean_diff_bytes : float;
  read_faults : int;
  write_faults : int;
  checksum : float;
  by_kind : (string * (int * int)) list;
      (** traffic class -> (messages, bytes); e.g. ["barrier"] for the
          scaling study's barrier message-count bound *)
  live_diff_series : (int * float) list;
      (** (time_ns, live diff count) samples — the paper's Figure 3 *)
  events : int;
  compute_ns : int;  (** execution-time breakdown, summed over nodes: *)
  fault_time_ns : int;  (** time inside page-fault service *)
  lock_time_ns : int;  (** time acquiring locks *)
  barrier_time_ns : int;  (** time in barriers (including GC) *)
}

(** Run one cell.  [tracer] receives the structured event stream (the
    caller closes it); [recorder] captures the consistency oracle's
    observation stream (validate with {!Adsm_check.Oracle.check}
    afterwards). *)
val run :
  ?seed:int64 ->
  ?tracer:Adsm_trace.Tracer.t ->
  ?recorder:Adsm_check.Recorder.t ->
  cell ->
  measurement

(** [run_cells ~jobs ~weight cells] is [List.map run cells], evaluated on
    up to [jobs] worker domains (default 1) and dispatched heaviest
    [weight] first; see {!Pool.map}.  Results are in input order. *)
val run_cells :
  ?jobs:int -> ?weight:(cell -> int) -> cell list -> measurement list

(** Host cost of a computation: wall clock plus the GC counters' deltas
    over it ([top_heap_words] is the process high-water mark after it). *)
type timing = {
  wall_ns : int;
  minor_words : float;
  major_words : float;
  minor_collections : int;
  major_collections : int;
  top_heap_words : int;
}

val timed : (unit -> 'a) -> 'a * timing

(** One measurement row: the cell ([app], [protocol], [fabric],
    [nprocs]), its host cost ([wall_ns], [events_per_sec],
    [ns_per_event] and the GC fields of {!timing}), the simulated outputs
    ([sim_time_ns], [events], [messages], [wire_bytes], [checksum]), then
    [extra]. *)
val to_json :
  ?extra:(string * Adsm_trace.Json.t) list ->
  cell ->
  measurement ->
  timing ->
  Adsm_trace.Json.t

(** Sequential baseline: one processor under SW (no twins, no diffs, no
    messages), as the paper obtains its Table 1 baselines by stripping
    synchronization. *)
val sequential_time_ns :
  app:Adsm_apps.Registry.entry -> scale:Adsm_apps.Registry.scale -> int

(** Speedup of a measurement against the matching sequential baseline. *)
val speedup : measurement -> float
