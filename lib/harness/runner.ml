module Config = Adsm_dsm.Config
module Dsm = Adsm_dsm.Dsm
module Stats = Adsm_dsm.Stats
module Registry = Adsm_apps.Registry
module Series = Adsm_sim.Series
module Topology = Adsm_net.Topology
module Json = Adsm_trace.Json

type fabric = Flat_central | Tree_combining

let fabric_name = function
  | Flat_central -> "flat"
  | Tree_combining -> "tree"

(* The large-cluster configuration: a 2-level switched tree (32 nodes
   per leaf switch), the combining barrier, lock homes sharded across one
   manager per switch, and delta-encoded vector-clock costs. *)
let tweak_of_fabric fabric cfg =
  match fabric with
  | Flat_central -> cfg
  | Tree_combining ->
    let shards = max 1 (cfg.Config.nprocs / 32) in
    {
      cfg with
      Config.topology = Topology.shape (Topology.tree cfg.Config.net);
      barrier = Config.Tree { fanout = 4 };
      lock_homes = Config.Sharded shards;
      sparse_vc = true;
    }

type cell = {
  app : Registry.entry;
  protocol : Config.protocol;
  nprocs : int;
  scale : Registry.scale;
  fabric : fabric;
  tweak : Config.t -> Config.t;
  faults : Adsm_net.Fault.schedule option;
}

let cell ?(scale = Registry.Default) ?(fabric = Flat_central)
    ?(tweak = Fun.id) ?faults ~protocol ~nprocs name =
  match Registry.find name with
  | Some app -> { app; protocol; nprocs; scale; fabric; tweak; faults }
  | None ->
    invalid_arg
      (Printf.sprintf "unknown application %S (valid: %s)" name
         (String.concat ", " Registry.names))

let grid ?scale ?(fabrics = [ Flat_central ]) ?tweak ~protocols ~nprocs apps =
  List.concat_map
    (fun app ->
      List.concat_map
        (fun protocol ->
          List.concat_map
            (fun n ->
              List.map
                (fun fabric ->
                  cell ?scale ~fabric ?tweak ~protocol ~nprocs:n app)
                fabrics)
            nprocs)
        protocols)
    apps

type measurement = {
  app : string;
  protocol : Config.protocol;
  nprocs : int;
  scale : Registry.scale;
  time_ns : int;
  messages : int;
  data_bytes : int;
  wire_bytes : int;
  own_requests : int;
  own_refusals : int;
  twins_created : int;
  twin_bytes : int;
  diffs_created : int;
  diff_bytes : int;
  gc_runs : int;
  mode_switches : int;
  shared_pages : int;
  pages_written : int;
  pages_false_shared : int;
  mean_diff_bytes : float;
  read_faults : int;
  write_faults : int;
  checksum : float;
  by_kind : (string * (int * int)) list;  (* kind -> (messages, bytes) *)
  live_diff_series : (int * float) list;
  events : int;
  compute_ns : int;
  fault_time_ns : int;
  lock_time_ns : int;
  barrier_time_ns : int;
}

let run ?(seed = 0x5EEDL) ?tracer ?recorder (c : cell) =
  let cfg =
    c.tweak
      (tweak_of_fabric c.fabric
         (Config.make ~seed ~protocol:c.protocol ~nprocs:c.nprocs ()))
  in
  let cfg =
    match c.faults with
    | None -> cfg
    | Some s -> { cfg with Config.faults = Some s }
  in
  let t = Dsm.create cfg in
  let program, result = c.app.Registry.instantiate c.scale t in
  let report = Dsm.run ?tracer ?recorder t program in
  let stats = report.Dsm.stats in
  {
    app = c.app.Registry.name;
    protocol = c.protocol;
    nprocs = c.nprocs;
    scale = c.scale;
    time_ns = report.Dsm.time_ns;
    messages = report.Dsm.messages;
    data_bytes = report.Dsm.payload_bytes;
    wire_bytes = report.Dsm.wire_bytes;
    own_requests = Stats.ownership_requests stats;
    own_refusals = Stats.ownership_refusals stats;
    twins_created = Stats.twins_created_total stats;
    twin_bytes = Stats.twin_bytes_total stats;
    diffs_created = Stats.diffs_created_total stats;
    diff_bytes = Stats.diff_bytes_total stats;
    gc_runs = Stats.gc_count stats;
    mode_switches = Stats.mode_switches stats;
    shared_pages = report.Dsm.shared_pages;
    pages_written = Stats.pages_written stats;
    pages_false_shared = Stats.pages_false_shared stats;
    mean_diff_bytes = Stats.mean_diff_size stats;
    read_faults = Stats.read_faults stats;
    write_faults = Stats.write_faults stats;
    checksum = result ();
    by_kind = report.Dsm.by_kind;
    live_diff_series = Series.to_list (Stats.live_diff_series stats);
    events = report.Dsm.events;
    compute_ns = Stats.total_time stats ~category:Stats.Compute;
    fault_time_ns = Stats.total_time stats ~category:Stats.Fault;
    lock_time_ns = Stats.total_time stats ~category:Stats.Lock;
    barrier_time_ns = Stats.total_time stats ~category:Stats.Barrier;
  }

let run_cells ?jobs ?weight cells = Pool.map ?jobs ?weight run cells

type timing = {
  wall_ns : int;
  minor_words : float;
  major_words : float;
  minor_collections : int;
  major_collections : int;
  top_heap_words : int;
}

let timed f =
  let g0 = Gc.quick_stat () in
  let t0 = Unix.gettimeofday () in
  let v = f () in
  let wall_ns = int_of_float ((Unix.gettimeofday () -. t0) *. 1e9) in
  let g1 = Gc.quick_stat () in
  ( v,
    {
      wall_ns;
      minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
      major_words = g1.Gc.major_words -. g0.Gc.major_words;
      minor_collections = g1.Gc.minor_collections - g0.Gc.minor_collections;
      major_collections = g1.Gc.major_collections - g0.Gc.major_collections;
      top_heap_words = g1.Gc.top_heap_words;
    } )

let to_json ?(extra = []) (c : cell) (m : measurement) t =
  let secs = float_of_int (max 1 t.wall_ns) /. 1e9 in
  Json.Obj
    ([
       ("app", Json.String m.app);
       ("protocol", Json.String (Config.protocol_name m.protocol));
       ("fabric", Json.String (fabric_name c.fabric));
       ("nprocs", Json.Int m.nprocs);
       ("wall_ns", Json.Int t.wall_ns);
       ("events_per_sec", Json.Float (float_of_int m.events /. secs));
       ( "ns_per_event",
         Json.Float (float_of_int t.wall_ns /. float_of_int (max 1 m.events)) );
       ("minor_words", Json.Float t.minor_words);
       ("major_words", Json.Float t.major_words);
       ("minor_collections", Json.Int t.minor_collections);
       ("major_collections", Json.Int t.major_collections);
       ("top_heap_words", Json.Int t.top_heap_words);
       ("sim_time_ns", Json.Int m.time_ns);
       ("events", Json.Int m.events);
       ("messages", Json.Int m.messages);
       ("wire_bytes", Json.Int m.wire_bytes);
       ("checksum", Json.Float m.checksum);
     ]
    @ extra)

(* The sequential-baseline cache is the one cross-run mutable global in
   the harness; [Pool] workers reach it through [speedup], so every
   access goes through a mutex.  The simulation itself runs outside the
   lock: two domains may race to fill the same key, but the run is
   deterministic, so both write the identical value. *)
let seq_cache : (string * Registry.scale, int) Hashtbl.t = Hashtbl.create 16

let seq_cache_mutex = Mutex.create ()

let sequential_time_ns ~(app : Registry.entry) ~scale =
  let key = (app.Registry.name, scale) in
  let cached =
    Mutex.protect seq_cache_mutex (fun () -> Hashtbl.find_opt seq_cache key)
  in
  match cached with
  | Some t -> t
  | None ->
    let m = run (cell ~scale ~protocol:Config.Sw ~nprocs:1 app.Registry.name) in
    Mutex.protect seq_cache_mutex (fun () ->
        Hashtbl.replace seq_cache key m.time_ns);
    m.time_ns

let speedup (m : measurement) =
  match Registry.find m.app with
  | None -> invalid_arg ("Runner.speedup: unknown app " ^ m.app)
  | Some app ->
    let seq = sequential_time_ns ~app ~scale:m.scale in
    float_of_int seq /. float_of_int m.time_ns
