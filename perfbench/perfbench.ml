(* The repository benchmark: host cost of the simulator on three fixed
   workloads, end to end and split by layer.  See perfbench/README.md for
   the metric glossary, the workloads and the tag->layer table; run it
   through perfbench/run.py, which builds this executable first.

   Everything here uses the libraries' public interfaces only: cells are
   set up with [Config]/[Dsm.create]/[instantiate] and run with [Dsm.run]
   exactly as [Adsm_harness.Runner.run] does, the layer split comes from a
   trace sink timing the gaps between emissions, and the unit costs call
   the layers' functions directly. *)

module Config = Adsm_dsm.Config
module Dsm = Adsm_dsm.Dsm
module Stats = Adsm_dsm.Stats
module Vc = Adsm_dsm.Vc
module Interval = Adsm_dsm.Interval
module Diff = Adsm_dsm.Diff
module Page = Adsm_mem.Page
module Registry = Adsm_apps.Registry
module Scaling = Adsm_harness.Scaling
module Engine = Adsm_sim.Engine
module Eheap = Adsm_sim.Eheap
module Rng = Adsm_sim.Rng
module Network = Adsm_net.Network
module Topology = Adsm_net.Topology
module Kind = Adsm_net.Kind
module Event = Adsm_trace.Event
module Tracer = Adsm_trace.Tracer
module Json = Adsm_trace.Json

let clock_ns () = Int64.to_int (Monotonic_clock.now ())

let secs ns = float_of_int ns *. 1e-9

let median = function
  | [] -> nan
  | l ->
    let a = Array.of_list l in
    Array.sort compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* [batch_size f]: how many calls of [f] take at least 20 ms (doubling). *)
let time_batch iters f =
  let t0 = clock_ns () in
  for _ = 1 to iters do
    f ()
  done;
  clock_ns () - t0

let batch_size f =
  let rec grow iters =
    if time_batch iters f >= 20_000_000 || iters >= 1 lsl 30 then iters
    else grow (2 * iters)
  in
  grow 1

(* Nanoseconds per operation of [f] (which performs [ops] operations):
   the median of five 20 ms batches. *)
let ns_per_op ?(ops = 1) f =
  let iters = batch_size f in
  median (List.init 5 (fun _ -> float_of_int (time_batch iters f)))
  /. float_of_int (iters * ops)

(* ------------------------------------------------------------------ *)
(* Cells and workloads                                                *)
(* ------------------------------------------------------------------ *)

type cell = {
  app : Registry.entry;
  protocol : Config.protocol;
  nprocs : int;
  scale : Registry.scale;
  fabric : Scaling.fabric;
}

let scale_name = function Registry.Default -> "default" | Registry.Tiny -> "tiny"

let cell_name c =
  Printf.sprintf "%s/%s/%d/%s/%s" c.app.Registry.name
    (Config.protocol_name c.protocol)
    c.nprocs (scale_name c.scale)
    (Scaling.fabric_name c.fabric)

let app name =
  match Registry.find name with
  | Some e -> e
  | None -> failwith ("perfbench: unknown application " ^ name)

let tiny ?(fabric = Scaling.Tree_combining) name protocol nprocs =
  { app = app name; protocol; nprocs; scale = Registry.Tiny; fabric }

let workloads =
  [
    ( "paper8",
      List.concat_map
        (fun app ->
          List.map
            (fun protocol ->
              {
                app;
                protocol;
                nprocs = 8;
                scale = Registry.Default;
                fabric = Scaling.Flat_central;
              })
            Config.extended_protocols)
        Registry.all );
    ( "largen",
      [
        tiny "IS" Config.Sw 512;
        tiny "IS" Config.Mw 256;
        tiny "Water" Config.Mw 256;
        tiny "Water" Config.Wfs 256;
      ] );
    ( "fanin1024",
      List.concat_map
        (fun protocol ->
          List.map
            (fun fabric -> tiny ~fabric "SOR" protocol 1024)
            [ Scaling.Flat_central; Scaling.Tree_combining ])
        [ Config.Mw; Config.Wfs ] );
  ]

let cells_digest cells =
  Digest.to_hex (Digest.string (String.concat "\n" (List.map cell_name cells)))

let configure ~seed c =
  Scaling.tweak_of_fabric c.fabric
    (Config.make ~seed ~protocol:c.protocol ~nprocs:c.nprocs ())

(* ------------------------------------------------------------------ *)
(* Running one cell                                                    *)
(* ------------------------------------------------------------------ *)

(* The simulated outputs of a cell: deterministic, compared against the
   recorded reference and across protocols. *)
type sim = {
  time_ns : int;
  events : int;
  messages : int;
  wire_bytes : int;
  by_kind : (string * (int * int)) list;
  checksum : float;
  read_faults : int;
  write_faults : int;
  twins : int;
  diffs : int;
  diff_bytes : int;
  own_requests : int;
  own_refusals : int;
  mode_switches : int;
  gc_runs : int;
  compute_ns : int;
  lock_ns : int;
  barrier_ns : int;
}

(* Host costs of one cell run: the run ([Dsm.run] plus the checksum
   read-back) timed without its set-up; allocation and GC work over the
   whole cell. *)
type sample = {
  run_ns : int;
  minor_words : float;
  major_words : float;
  major_collections : int;
  sim : sim;
}

let sim_of_report (report : Dsm.report) checksum =
  let stats = report.Dsm.stats in
  {
    time_ns = report.Dsm.time_ns;
    events = report.Dsm.events;
    messages = report.Dsm.messages;
    wire_bytes = report.Dsm.wire_bytes;
    by_kind = report.Dsm.by_kind;
    checksum;
    read_faults = Stats.read_faults stats;
    write_faults = Stats.write_faults stats;
    twins = Stats.twins_created_total stats;
    diffs = Stats.diffs_created_total stats;
    diff_bytes = Stats.diff_bytes_total stats;
    own_requests = Stats.ownership_requests stats;
    own_refusals = Stats.ownership_refusals stats;
    mode_switches = Stats.mode_switches stats;
    gc_runs = Stats.gc_count stats;
    compute_ns = Stats.total_time stats ~category:Stats.Compute;
    lock_ns = Stats.total_time stats ~category:Stats.Lock;
    barrier_ns = Stats.total_time stats ~category:Stats.Barrier;
  }

let set_up ~seed c =
  let t = Dsm.create (configure ~seed c) in
  let program, result = c.app.Registry.instantiate c.scale t in
  (t, program, result)

(* [around] brackets the timed [Dsm.run] (the traced run uses it to mark
   the cell's start and end on its sink). *)
let run_cell ?tracer ?(around = fun f -> f ()) ~seed c =
  (* Start every cell from a collected heap so one cell's garbage is not
     swept on the next cell's clock. *)
  Gc.full_major ();
  let q0 = Gc.quick_stat () in
  let w0 = Gc.minor_words () in
  let t, program, result = set_up ~seed c in
  let t1 = clock_ns () in
  let report, checksum =
    around (fun () ->
        let report = Dsm.run ?tracer t program in
        (report, result ()))
  in
  let t2 = clock_ns () in
  let w1 = Gc.minor_words () in
  let q1 = Gc.quick_stat () in
  {
    run_ns = t2 - t1;
    minor_words = w1 -. w0;
    major_words = q1.Gc.major_words -. q0.Gc.major_words;
    major_collections = q1.Gc.major_collections - q0.Gc.major_collections;
    sim = sim_of_report report checksum;
  }

(* ------------------------------------------------------------------ *)
(* Correctness: reference outputs and cross-protocol checksums         *)
(* ------------------------------------------------------------------ *)

(* The reference records, per cell, the simulated outputs the north star
   pins: completion time, events, messages, wire bytes, per-kind traffic
   and the checksum (as a hex float, so it round-trips exactly). *)
let sim_to_json name s =
  Json.Obj
    [
      ("cell", Json.String name);
      ("time_ns", Json.Int s.time_ns);
      ("events", Json.Int s.events);
      ("messages", Json.Int s.messages);
      ("wire_bytes", Json.Int s.wire_bytes);
      ( "by_kind",
        Json.List
          (List.map
             (fun (k, (m, b)) -> Json.List [ Json.String k; Json.Int m; Json.Int b ])
             s.by_kind) );
      ("checksum", Json.String (Printf.sprintf "%h" s.checksum));
    ]

(* A cell's pinned outputs as a comparable string, the same whether built
   from a run or read back from the reference file. *)
let fingerprint ~time_ns ~events ~messages ~wire_bytes ~by_kind ~checksum =
  Printf.sprintf "time_ns=%d events=%d messages=%d wire_bytes=%d checksum=%s by_kind=%s"
    time_ns events messages wire_bytes checksum
    (String.concat ","
       (List.map (fun (k, m, b) -> Printf.sprintf "%s:%d:%d" k m b) by_kind))

let fingerprint_of_sim s =
  fingerprint ~time_ns:s.time_ns ~events:s.events ~messages:s.messages
    ~wire_bytes:s.wire_bytes
    ~by_kind:(List.map (fun (k, (m, b)) -> (k, m, b)) s.by_kind)
    ~checksum:(Printf.sprintf "%h" s.checksum)

let load_reference path =
  let json = Json.parse_exn (In_channel.with_open_text path In_channel.input_all) in
  let field name j =
    match Json.member name j with
    | Some v -> v
    | None -> failwith ("perfbench: reference entry lacks " ^ name)
  in
  let int name j =
    match Json.to_int (field name j) with
    | Some i -> i
    | None -> failwith ("perfbench: reference field is not an int: " ^ name)
  in
  let cells = Option.value ~default:[] (Json.to_list (field "cells" json)) in
  let table = Hashtbl.create 64 in
  List.iter
    (fun j ->
      let str name =
        match Json.to_str (field name j) with
        | Some s -> s
        | None -> failwith ("perfbench: reference field is not a string: " ^ name)
      in
      let by_kind =
        List.map
          (fun k ->
            match Json.to_list k with
            | Some [ name; m; b ] ->
              ( Option.get (Json.to_str name),
                Option.get (Json.to_int m),
                Option.get (Json.to_int b) )
            | _ -> failwith "perfbench: malformed by_kind entry")
          (Option.value ~default:[] (Json.to_list (field "by_kind" j)))
      in
      Hashtbl.replace table (str "cell")
        (fingerprint ~time_ns:(int "time_ns" j) ~events:(int "events" j)
           ~messages:(int "messages" j) ~wire_bytes:(int "wire_bytes" j)
           ~by_kind ~checksum:(str "checksum")))
    cells;
  table

(* Judge one pass: [results] holds each cell with its sample or the
   exception it raised.  Returns every (cell name, reason) found; a cell
   may fail for several reasons. *)
let check_pass ~reference results =
  let failures = ref [] in
  let fail c why = failures := (cell_name c, why) :: !failures in
  List.iter
    (fun (c, r) ->
      match r with
      | Error why -> fail c why
      | Ok s -> (
        match Hashtbl.find_opt reference (cell_name c) with
        | None -> fail c "no reference outputs recorded"
        | Some expected ->
          let got = fingerprint_of_sim s.sim in
          if got <> expected then
            fail c (Printf.sprintf "simulated outputs drifted: got %s, expected %s" got expected)))
    results;
  (* Cells of one application at one size must agree on the checksum
     whatever the protocol or fabric: a cell fails when its checksum is
     not the group's unique most common value. *)
  let groups = Hashtbl.create 16 in
  List.iter
    (fun (c, r) ->
      match r with
      | Ok s ->
        let key = (c.app.Registry.name, c.nprocs, c.scale) in
        let prev = Option.value ~default:[] (Hashtbl.find_opt groups key) in
        Hashtbl.replace groups key ((c, Int64.bits_of_float s.sim.checksum) :: prev)
      | Error _ -> ())
    results;
  Hashtbl.iter
    (fun _ members ->
      let votes =
        List.map
          (fun (_, v) -> (v, List.length (List.filter (fun (_, w) -> w = v) members)))
          members
      in
      let best = List.fold_left (fun acc (_, n) -> max acc n) 0 votes in
      let winners = List.sort_uniq compare (List.filter_map (fun (v, n) -> if n = best then Some v else None) votes) in
      List.iter
        (fun (c, v) ->
          if winners <> [ v ] then fail c "checksum disagrees with the other protocols/fabrics")
        members)
    groups;
  List.rev !failures

(* ------------------------------------------------------------------ *)
(* Layer split: a sink that times the gaps between emissions           *)
(* ------------------------------------------------------------------ *)

let layer_names =
  [| "cluster"; "apps"; "access"; "diff"; "proto"; "lrc"; "net" |]

let cluster = 0 and apps = 1 and access = 2 and diff = 3 and proto = 4
and lrc = 5 and net = 6

let none = -1

let kind_layer = function
  | Kind.Lock | Kind.Barrier | Kind.Gc | Kind.Recover -> lrc
  | Kind.Page | Kind.Own -> proto
  | Kind.Diff -> diff

(* The tag->layer table (README.md, "Layer split").  Each tag may claim
   the gap that ends at it ([before]), the gap that starts at it
   ([after]), or the gap ending at it only when the previous tag does not
   claim it ([weak]).  A gap goes to the ending tag's [before], else the
   starting tag's [after], else the ending tag's [weak]. *)
let claims (ev : Event.t) =
  match ev with
  | Event.Compute _ -> (apps, none, none)
  | Event.Read_fault _ | Event.Write_fault _ -> (access, proto, none)
  | Event.Twin_create _ | Event.Twin_free _ | Event.Diff_create _
  | Event.Diff_apply _ ->
    (diff, none, none)
  | Event.Mode_change _ | Event.Own_request _ | Event.Own_grant _
  | Event.Own_refuse _ ->
    (proto, none, none)
  | Event.Lock_acquire _ | Event.Barrier_leave _ | Event.Diff_gc _
  | Event.Gc_drop _ ->
    (lrc, none, none)
  | Event.Lock_release _ | Event.Barrier_enter _ -> (apps, lrc, none)
  | Event.Msg_send { kind; _ } -> (none, net, kind_layer kind)
  | Event.Msg_deliver { kind; _ } -> (net, kind_layer kind, none)
  | Event.Sim_events _ -> (none, none, none)

let tag_names =
  [|
    "read-fault"; "write-fault"; "twin-create"; "twin-free"; "diff-create";
    "diff-apply"; "diff-gc"; "gc-drop"; "mode-change"; "own-request";
    "own-grant"; "own-refuse"; "lock-acquire"; "lock-release";
    "barrier-enter"; "barrier-leave"; "msg-send"; "msg-deliver"; "compute";
    "sim-events";
  |]

(* Index into [tag_names]: a direct match, as the sink calls it at every
   emission. *)
let tag_index (ev : Event.t) =
  match ev with
  | Event.Read_fault _ -> 0
  | Event.Write_fault _ -> 1
  | Event.Twin_create _ -> 2
  | Event.Twin_free _ -> 3
  | Event.Diff_create _ -> 4
  | Event.Diff_apply _ -> 5
  | Event.Diff_gc _ -> 6
  | Event.Gc_drop _ -> 7
  | Event.Mode_change _ -> 8
  | Event.Own_request _ -> 9
  | Event.Own_grant _ -> 10
  | Event.Own_refuse _ -> 11
  | Event.Lock_acquire _ -> 12
  | Event.Lock_release _ -> 13
  | Event.Barrier_enter _ -> 14
  | Event.Barrier_leave _ -> 15
  | Event.Msg_send _ -> 16
  | Event.Msg_deliver _ -> 17
  | Event.Compute _ -> 18
  | Event.Sim_events _ -> 19

let sim_events_tag = tag_index (Event.Sim_events { executed = 0 })

(* The msg-send stream of one traced cell, kept for the network replay. *)
type sends = {
  mutable len : int;
  mutable time : int array;
  mutable src : int array;
  mutable dst : int array;
  mutable bytes : int array;
  mutable kind : Kind.t array;
}

let sends () =
  let mk () = Array.make 1024 0 in
  {
    len = 0;
    time = mk ();
    src = mk ();
    dst = mk ();
    bytes = mk ();
    kind = Array.make 1024 Kind.Lock;
  }

let record_send r ~time ~src ~dst ~bytes ~kind =
  if r.len = Array.length r.time then begin
    let grow a fill =
      let b = Array.make (2 * Array.length a) fill in
      Array.blit a 0 b 0 r.len;
      b
    in
    r.time <- grow r.time 0;
    r.src <- grow r.src 0;
    r.dst <- grow r.dst 0;
    r.bytes <- grow r.bytes 0;
    r.kind <- grow r.kind Kind.Lock
  end;
  let i = r.len in
  r.time.(i) <- time;
  r.src.(i) <- src;
  r.dst.(i) <- dst;
  r.bytes.(i) <- bytes;
  r.kind.(i) <- kind;
  r.len <- i + 1

(* One traced cell's split, or the sum over a round's cells. *)
type split = {
  host_ns : int array;  (** per layer *)
  mutable unattributed_ns : int;
  mutable traced_ns : int;
  counts : int array;  (** emissions per tag *)
}

let new_split () =
  {
    host_ns = Array.make (Array.length layer_names) 0;
    unattributed_ns = 0;
    traced_ns = 0;
    counts = Array.make (Array.length tag_names) 0;
  }

let add_split ~into s =
  Array.iteri (fun l ns -> into.host_ns.(l) <- into.host_ns.(l) + ns) s.host_ns;
  Array.iteri (fun k n -> into.counts.(k) <- into.counts.(k) + n) s.counts;
  into.unattributed_ns <- into.unattributed_ns + s.unattributed_ns;
  into.traced_ns <- into.traced_ns + s.traced_ns

let print_split ?empty_run name s =
  Printf.printf "  %-28s traced %8.4f s |" name (secs s.traced_ns);
  Option.iter (fun ns -> Printf.printf " empty run %.4f |" (secs ns)) empty_run;
  Array.iteri
    (fun l ns -> Printf.printf " %s %.4f" layer_names.(l) (secs ns))
    s.host_ns;
  Printf.printf " | unattributed %.4f\n%!" (secs s.unattributed_ns)

(* The sink reads the clock at every emission (sim-events excepted: it is
   the engine's sampling probe between events, so its gap runs on into
   the next emission) and charges the gap since the previous one.  The
   gap before a cell's first emission is [Dsm.run]'s cluster
   construction and start; the gap after its last is tear-down,
   unattributed. *)
let layer_sink split sends =
  let last = ref 0 and last_after = ref none and started = ref false in
  let emit (s : Event.stamped) =
    let k = tag_index s.Event.event in
    split.counts.(k) <- split.counts.(k) + 1;
    if k <> sim_events_tag then begin
      let now = clock_ns () in
      let before, after, weak = claims s.Event.event in
      let layer =
        if not !started then cluster
        else if before <> none then before
        else if !last_after <> none then !last_after
        else weak
      in
      let gap = now - !last in
      if layer = none then split.unattributed_ns <- split.unattributed_ns + gap
      else split.host_ns.(layer) <- split.host_ns.(layer) + gap;
      started := true;
      last := now;
      last_after := after;
      match s.Event.event with
      | Event.Msg_send { dst; kind; bytes } ->
        record_send sends ~time:s.Event.time ~src:s.Event.node ~dst ~bytes ~kind
      | _ -> ()
    end
  in
  let around f =
    started := false;
    last_after := none;
    let t0 = clock_ns () in
    last := t0;
    let r = f () in
    let t1 = clock_ns () in
    split.unattributed_ns <- split.unattributed_ns + (t1 - !last);
    split.traced_ns <- split.traced_ns + (t1 - t0);
    r
  in
  ({ Adsm_trace.Sink.emit; close = ignore }, around)

(* ------------------------------------------------------------------ *)
(* Network replay: the traced msg-send stream through a bare engine    *)
(* and network, no DSM                                                 *)
(* ------------------------------------------------------------------ *)

(* Returns (host ns, messages delivered, wire bytes). *)
let replay ~topo ~nodes r =
  if r.len = 0 then (0, 0, 0)
  else begin
    let engine = Engine.create ~lanes:nodes () in
    let network : unit Network.t = Network.create_topo engine topo ~nodes in
    let delivered = ref 0 in
    for node = 0 to nodes - 1 do
      Network.set_handler network ~node (fun ~src:_ () -> incr delivered)
    done;
    (* One send per event, each scheduling the next at its recorded time
       on its sender's lane: the heap holds the deliveries in flight, not
       the whole stream. *)
    let rec feed i () =
      Network.send network ~src:r.src.(i) ~dst:r.dst.(i) ~bytes:r.bytes.(i)
        ~kind:r.kind.(i) ();
      let j = i + 1 in
      if j < r.len then
        Engine.schedule_at ~lane:r.src.(j) engine ~time:r.time.(j) (feed j)
    in
    let t0 = clock_ns () in
    Engine.schedule_at ~lane:r.src.(0) engine ~time:r.time.(0) (feed 0);
    ignore (Engine.run engine);
    let t1 = clock_ns () in
    (t1 - t0, !delivered, Network.total_wire_bytes network)
  end

(* ------------------------------------------------------------------ *)
(* Unit costs: direct calls into the layers                            *)
(* ------------------------------------------------------------------ *)

let page_pair ~modified =
  let twin = Page.create () in
  let rng = Rng.create 7L in
  for i = 0 to (Page.size / 8) - 1 do
    Page.set_f64 twin (8 * i) (Rng.float rng)
  done;
  let current = Page.copy twin in
  let slots = Page.size / 8 in
  let step = max 1 (slots / modified) in
  let k = ref 0 in
  while !k < slots do
    Page.set_f64 current (8 * !k) (float_of_int !k +. 0.5);
    k := !k + step
  done;
  (twin, current)

(* Accessor costs come from whole 1-processor [Dsm.run]s with the empty
   run's cost subtracted, as the access path only exists inside a run. *)
let access_units () =
  let pages = 64 in
  let t = Dsm.create (Config.make ~protocol:Config.Mw ~nprocs:1 ()) in
  let a = Dsm.alloc_f64 t ~name:"perfbench-access" ~len:(pages * 512) in
  let accesses = 8192 in
  let run program () = ignore (Sys.opaque_identity (Dsm.run t program)) in
  let empty = ns_per_op (run (fun _ -> ())) in
  let get =
    ns_per_op
      (run (fun ctx ->
           let s = ref 0. in
           for i = 0 to accesses - 1 do
             s := !s +. Dsm.f64_get ctx a (i land 511)
           done;
           ignore (Sys.opaque_identity !s)))
  in
  let set =
    ns_per_op
      (run (fun ctx ->
           for i = 0 to accesses - 1 do
             Dsm.f64_set ctx a (i land 511) 1.0
           done))
  in
  let fault =
    ns_per_op
      (run (fun ctx ->
           let s = ref 0. in
           for p = 0 to pages - 1 do
             s := !s +. Dsm.f64_get ctx a (p * 512)
           done;
           ignore (Sys.opaque_identity !s)))
  in
  [
    ("unit.f64_get_ns", (get -. empty) /. float_of_int accesses);
    ("unit.f64_set_ns", (set -. empty) /. float_of_int accesses);
    ("unit.fault_ns", (fault -. empty) /. float_of_int pages);
  ]

let diff_units () =
  let twin_full, current_full = page_pair ~modified:512 in
  let twin_sparse, current_sparse = page_pair ~modified:8 in
  let full = Diff.create ~twin:twin_full ~current:current_full () in
  let target = Page.create () in
  [
    ("unit.twin_copy_ns", ns_per_op (fun () -> ignore (Sys.opaque_identity (Page.copy twin_full))));
    ( "unit.diff_create_full_ns",
      ns_per_op (fun () ->
          ignore (Sys.opaque_identity (Diff.create ~twin:twin_full ~current:current_full ()))) );
    ( "unit.diff_create_sparse_ns",
      ns_per_op (fun () ->
          ignore
            (Sys.opaque_identity (Diff.create ~twin:twin_sparse ~current:current_sparse ()))) );
    ("unit.diff_apply_full_ns", ns_per_op (fun () -> Diff.apply full target));
  ]

(* Clocks, logs and heaps at the workload's widest node count [n]. *)
let lrc_engine_units ~n =
  let lo = Vc.zero ~nprocs:n and hi = Vc.zero ~nprocs:n in
  for i = 0 to n - 1 do
    Vc.set lo i i;
    Vc.set hi i (i + 1)
  done;
  let other = Vc.zero ~nprocs:n in
  for i = 0 to n - 1 do
    Vc.set other i (if i mod 2 = 0 then i + 2 else 0)
  done;
  let scratch = Vc.copy lo in
  (* A log of [n] intervals by processor 0, each stamped with an n-wide
     clock, probed in the middle. *)
  let log = Interval.Log.create () in
  let vc = Vc.zero ~nprocs:n in
  for i = 1 to n do
    Vc.set vc 0 i;
    Interval.Log.append log (Interval.make ~proc:0 ~vc ~notices:[])
  done;
  let probe = n / 2 in
  let heap_ops = 64 in
  [
    ( "unit.vc_merge_ns",
      ns_per_op (fun () ->
          Vc.blit_into ~src:lo ~dst:scratch;
          Vc.merge_into scratch other) );
    ("unit.vc_leq_ns", ns_per_op (fun () -> ignore (Sys.opaque_identity (Vc.leq lo hi))));
    ( "unit.log_first_after_ns",
      ns_per_op (fun () -> ignore (Sys.opaque_identity (Interval.Log.first_after log probe))) );
    ( "unit.eheap_push_pop_ns",
      let h = Eheap.create ~lanes:n () in
      ns_per_op ~ops:heap_ops (fun () ->
          for i = 0 to heap_ops - 1 do
            Eheap.push ~lane:(i * 7 mod n) h ~time:(i * 37 mod 101) ~seq:i i
          done;
          while not (Eheap.is_empty h) do
            ignore (Sys.opaque_identity (Eheap.pop_min_exn h))
          done) );
  ]

(* ------------------------------------------------------------------ *)
(* Passes                                                              *)
(* ------------------------------------------------------------------ *)

let attempt f = try Ok (f ()) with e -> Error (Printexc.to_string e)

let sum f l = List.fold_left (fun acc x -> acc + f x) 0 l

let sumf f l = List.fold_left (fun acc x -> acc +. f x) 0. l

let oks results = List.filter_map (fun (_, r) -> Result.to_option r) results

let vm_hwm_mb () =
  let line =
    In_channel.with_open_text "/proc/self/status" (fun ic ->
        let rec find () =
          match In_channel.input_line ic with
          | None -> failwith "perfbench: no VmHWM in /proc/self/status"
          | Some l when String.starts_with ~prefix:"VmHWM:" l -> l
          | Some _ -> find ()
        in
        find ())
  in
  Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)

type tally = { mutable attempted : int; mutable failed : int }

let judge tally ~reference results =
  let failures = check_pass ~reference results in
  tally.attempted <- tally.attempted + List.length results;
  tally.failed <-
    tally.failed + List.length (List.sort_uniq compare (List.map fst failures));
  List.iter
    (fun (cell, why) -> prerr_endline ("perfbench: FAILED " ^ cell ^ ": " ^ why))
    failures

(* The first cell a process runs is slower (code and heap warm-up); run a
   small one before anything is timed. *)
let warm_up ~seed =
  ignore (run_cell ~seed (tiny ~fabric:Scaling.Flat_central "SOR" Config.Mw 8))

let untraced_pass ~seed cells =
  List.map (fun c -> (c, attempt (fun () -> run_cell ~seed c))) cells

(* Trace off: the end-to-end metrics. *)
let end_to_end ~seed ~seconds ~reference ~tally cells =
  warm_up ~seed;
  let t_start = clock_ns () in
  let pass () =
    let results = untraced_pass ~seed cells in
    judge tally ~reference results;
    Printf.printf "pass: run %.4f s\n%!"
      (secs (sum (fun s -> s.run_ns) (oks results)));
    List.map snd results
  in
  let passes = ref [ pass () ] in
  (* The process has now run exactly one workload: its high-water mark is
     the workload's peak RSS. *)
  let peak_rss_mb = vm_hwm_mb () in
  (* Set-up is microseconds per cell (regions are laid out, not filled),
     so it is timed in 20 ms batches of whole cell lists, three after
     every pass: the batches sample the host at many moments of the run,
     as the passes do. *)
  let set_up_all () =
    List.iter (fun c -> ignore (Sys.opaque_identity (set_up ~seed c))) cells
  in
  let setup_iters = batch_size set_up_all in
  let setups = ref [] in
  let time_setups () =
    (* Set-up allocates fast enough to pay for the last pass's major-GC
       work; collect first, as before every cell. *)
    Gc.full_major ();
    for _ = 1 to 3 do
      setups := float_of_int (time_batch setup_iters set_up_all) :: !setups
    done
  in
  time_setups ();
  while secs (clock_ns () - t_start) < seconds || List.length !passes < 3 do
    passes := pass () :: !passes;
    time_setups ()
  done;
  let setup_s = median !setups *. 1e-9 /. float_of_int setup_iters in
  Printf.printf "passes: %d\n" (List.length !passes);
  (* Per-cell medians over the passes, summed: a burst of contention that
     slows a few cells of one pass does not move the total. *)
  let per_cell f =
    List.fold_left ( +. ) 0.
      (List.mapi
         (fun i _ ->
           match
             List.filter_map
               (fun pass -> Result.to_option (Result.map f (List.nth pass i)))
               !passes
           with
           | [] -> 0. (* failed in every pass: counted in [failed] *)
           | samples -> median samples)
         cells)
  in
  let wall_s = per_cell (fun s -> secs s.run_ns) in
  let sim_sum f = per_cell (fun s -> float_of_int (f s.sim)) in
  [
    ("wall_s", "s", wall_s);
    ("events_per_s", "1/s", sim_sum (fun s -> s.events) /. wall_s);
    ("setup_s", "s", setup_s);
    ("peak_rss_mb", "MB", peak_rss_mb);
    ("alloc_gb", "GB", per_cell (fun s -> s.minor_words) *. 8e-9);
    ("sim_time_s", "sim_s", sim_sum (fun s -> s.time_ns) *. 1e-9);
    ("wire_mb", "MB", sim_sum (fun s -> s.wire_bytes) *. 1e-6);
  ]

(* Trace on: rounds over the cells, repeated for the run's duration; the
   layer split, counts and unit costs. *)
let per_layer ~seed ~seconds ~reference ~tally ~width cells =
  warm_up ~seed;
  let t_start = clock_ns () in
  let rounds = ref [] in
  (* Each cell runs three times back to back: a priming run, then
     untraced, then traced.  A cell's run is faster once the heap has
     grown to its size (the major GC runs less often), so priming puts
     the timed pair in the same state; back to back, the pair also sees
     the same host conditions. *)
  let round () =
    let split = new_split () in
    let replay_ns = ref 0 and replay_msgs = ref 0 in
    let triples =
      List.map
        (fun c ->
          let prime = attempt (fun () -> run_cell ~seed c) in
          let plain = attempt (fun () -> run_cell ~seed c) in
          let r = sends () in
          let cell_split = new_split () in
          let sink, around = layer_sink cell_split r in
          let tracer = Tracer.create [ sink ] in
          let traced = attempt (fun () -> run_cell ~tracer ~around ~seed c) in
          Tracer.close tracer;
          (* The cost of building the cluster alone, to compare with the
             gap charged to the cluster layer. *)
          let empty_run =
            let t = Dsm.create (configure ~seed c) in
            let t0 = clock_ns () in
            ignore (Dsm.run t (fun _ -> ()));
            clock_ns () - t0
          in
          print_split (cell_name c) cell_split ~empty_run;
          add_split ~into:split cell_split;
          let traced =
            Result.bind traced (fun s ->
                let cfg = configure ~seed c in
                let topo = Topology.make cfg.Config.net cfg.Config.topology in
                let ns, delivered, wire = replay ~topo ~nodes:c.nprocs r in
                replay_ns := !replay_ns + ns;
                replay_msgs := !replay_msgs + delivered;
                if delivered <> s.sim.messages || wire <> s.sim.wire_bytes then
                  Error
                    (Printf.sprintf
                       "network replay disagrees: %d messages / %d wire bytes, run had %d / %d"
                       delivered wire s.sim.messages s.sim.wire_bytes)
                else Ok s)
          in
          ((c, prime), (c, plain), (c, traced)))
        cells
    in
    let runs f = List.map f triples in
    let plain = runs (fun (_, p, _) -> p) in
    judge tally ~reference (runs (fun (p, _, _) -> p));
    judge tally ~reference plain;
    judge tally ~reference (runs (fun (_, _, t) -> t));
    Printf.printf "round: untraced %.4f s\n" (secs (sum (fun s -> s.run_ns) (oks plain)));
    print_split "total" split;
    rounds := (oks plain, split, !replay_ns, !replay_msgs) :: !rounds
  in
  round ();
  while secs (clock_ns () - t_start) < seconds do
    round ()
  done;
  let med f = median (List.map f !rounds) in
  let plain_of (p, _, _, _) = p and split_of (_, s, _, _) = s in
  let wall (p, _, _, _) = secs (sum (fun s -> s.run_ns) p) in
  let host l r = secs (split_of r).host_ns.(l) in
  let count tag r =
    let rec find i = if tag_names.(i) = tag then i else find (i + 1) in
    (split_of r).counts.(find 0)
  in
  let simsum f r = sum (fun s -> f s.sim) (plain_of r) in
  let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b in
  let units = access_units () @ diff_units () @ lrc_engine_units ~n:width in
  let by_kind_msgs kind r =
    simsum
      (fun s -> match List.assoc_opt kind s.by_kind with Some (m, _) -> m | None -> 0)
      r
  in
  let host_metrics =
    Array.to_list
      (Array.mapi (fun l name -> ("host." ^ name ^ "_s", "s", med (host l))) layer_names)
  in
  let gauge name unit f = (name, unit, med f) in
  let counter name f = (name, "count", med (fun r -> float_of_int (f r))) in
  host_metrics
  @ [
      gauge "sim.compute_s" "sim_s" (fun r -> secs (simsum (fun s -> s.compute_ns) r));
      counter "access.read_faults" (simsum (fun s -> s.read_faults));
      counter "access.write_faults" (simsum (fun s -> s.write_faults));
      counter "diff.twins" (simsum (fun s -> s.twins));
      counter "diff.diffs" (simsum (fun s -> s.diffs));
      gauge "diff.diff_bytes" "bytes" (fun r -> float_of_int (simsum (fun s -> s.diff_bytes) r));
      counter "diff.applies" (count "diff-apply");
      gauge "diff.ns_per_diff" "ns" (fun r ->
          host diff r *. 1e9
          /. float_of_int
               (max 1 (count "twin-create" r + count "diff-create" r + count "diff-apply" r)));
      counter "proto.own_requests" (simsum (fun s -> s.own_requests));
      counter "proto.own_refusals" (simsum (fun s -> s.own_refusals));
      counter "proto.mode_switches" (simsum (fun s -> s.mode_switches));
      gauge "proto.refusal_ratio" "ratio" (fun r ->
          ratio (simsum (fun s -> s.own_refusals) r) (simsum (fun s -> s.own_requests) r));
      counter "lrc.lock_acquires" (count "lock-acquire");
      counter "lrc.barriers" (count "barrier-leave");
      counter "lrc.gc_runs" (simsum (fun s -> s.gc_runs));
      gauge "lrc.ns_per_sync" "ns" (fun r ->
          host lrc r *. 1e9
          /. float_of_int (max 1 (count "lock-acquire" r + count "barrier-leave" r)));
      gauge "sim.lock_s" "sim_s" (fun r -> secs (simsum (fun s -> s.lock_ns) r));
      gauge "sim.barrier_s" "sim_s" (fun r -> secs (simsum (fun s -> s.barrier_ns) r));
      counter "net.messages" (simsum (fun s -> s.messages));
      counter "net.barrier_msgs" (by_kind_msgs "barrier");
      gauge "net.ns_per_msg" "ns" (fun r ->
          host net r *. 1e9 /. float_of_int (max 1 (simsum (fun s -> s.messages) r)));
      gauge "net.replay_ns_per_msg" "ns" (fun (_, _, ns, msgs) ->
          float_of_int ns /. float_of_int (max 1 msgs));
      counter "engine.events" (simsum (fun s -> s.events));
      gauge "host.ns_per_event" "ns" (fun r ->
          wall r *. 1e9 /. float_of_int (max 1 (simsum (fun s -> s.events) r)));
      gauge "gc.minor_words" "words" (fun r -> sumf (fun s -> s.minor_words) (plain_of r));
      gauge "gc.major_words" "words" (fun r -> sumf (fun s -> s.major_words) (plain_of r));
      counter "gc.major_collections" (fun r -> sum (fun s -> s.major_collections) (plain_of r));
      ("gc.top_heap_mb", "MB", float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * 8) /. 1e6);
      gauge "host.attributed_pct" "%" (fun r ->
          let s = split_of r in
          100. *. float_of_int (Array.fold_left ( + ) 0 s.host_ns) /. float_of_int (max 1 s.traced_ns));
      gauge "trace.overhead_pct" "%" (fun r ->
          100. *. ((secs (split_of r).traced_ns /. wall r) -. 1.));
    ]
  @ List.map (fun (name, v) -> (name, "ns", v)) units

(* ------------------------------------------------------------------ *)
(* Recording the reference                                             *)
(* ------------------------------------------------------------------ *)

let record ~seed path =
  let entries =
    List.concat_map
      (fun (_, cells) ->
        List.map
          (fun c ->
            let s = run_cell ~seed c in
            sim_to_json (cell_name c) s.sim)
          cells)
      workloads
  in
  let json =
    Json.Obj
      [
        ("seed", Json.Int (Int64.to_int seed));
        ("cells", Json.List entries);
      ]
  in
  Out_channel.with_open_text path (fun oc ->
      output_string oc (Json.to_string json);
      output_char oc '\n')

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)
(* ------------------------------------------------------------------ *)

(* Recorded simulated outputs, relative to the repository root. *)
let reference_file = "perfbench/reference.json"

(* JSON has no NaN or infinity; a rate over zero time only arises when
   every cell failed, which the result already reports as incorrect. *)
let json_number v =
  if not (Float.is_finite v) then "0"
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let () =
  let workload = ref "" and seed = ref 0x5EED and run_seconds = ref 30
  and trace = ref 0 and record_to = ref "" and provenance = ref [] in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME paper8 | largen | fanin1024");
      ("--seed", Arg.Set_int seed, "N root seed of every cell (default 0x5EED)");
      ("--seconds", Arg.Set_int run_seconds, "S minimum measuring time");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--record", Arg.Set_string record_to, "FILE record the reference and exit");
      ( "--provenance",
        Arg.String (fun kv -> provenance := kv :: !provenance),
        "KEY=VALUE add a provenance field (repeatable)" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]";
  let seed = Int64.of_int !seed in
  if !record_to <> "" then record ~seed !record_to
  else begin
    let cells =
      match List.assoc_opt !workload workloads with
      | Some cells -> cells
      | None ->
        prerr_endline ("perfbench: unknown workload " ^ !workload);
        exit 2
    in
    let reference = load_reference reference_file in
    let prov =
      List.rev !provenance
      @ [
          Printf.sprintf "ocaml=%s" Sys.ocaml_version;
          Printf.sprintf "seed=%Ld" seed;
          Printf.sprintf "workload=%s" !workload;
          Printf.sprintf "cells=%d" (List.length cells);
          Printf.sprintf "cells_digest=%s" (cells_digest cells);
          Printf.sprintf "trace=%d" !trace;
          Printf.sprintf "seconds=%d" !run_seconds;
        ]
    in
    List.iter (fun kv -> print_endline ("provenance " ^ kv)) prov;
    let tally = { attempted = 0; failed = 0 } in
    let width = List.fold_left (fun acc c -> max acc c.nprocs) 0 cells in
    let metrics =
      if !trace = 0 then
        end_to_end ~seed ~seconds:(float_of_int !run_seconds) ~reference ~tally cells
      else
        per_layer ~seed ~seconds:(float_of_int !run_seconds) ~reference ~tally ~width cells
    in
    List.iter
      (fun (name, unit, v) -> Printf.printf "%-28s %20s %s\n" name (json_number v) unit)
      metrics;
    Printf.printf "cells attempted %d, failed %d\n" tally.attempted tally.failed;
    Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
      (tally.failed = 0) tally.attempted tally.failed
      (String.concat ", "
         (List.map
            (fun (name, unit, v) ->
              Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit)
            metrics))
  end
