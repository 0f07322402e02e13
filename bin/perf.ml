(* Host-cost artifact, BENCH_suite.json: what the simulator itself costs
   to run.  Three sets of cells, each timed one by one on the calling
   domain:

   - the paper suite (8 apps x 4 protocols, 8 processors), run once
     sequentially and again over [jobs] worker domains — the parallel
     pass must reproduce every measurement field for field, and on a
     multicore host it must be faster;
   - SOR scaling rows, MW and WFS at 8 -> 1024 nodes on both fabrics
     (the flat fabric's barrier is an O(n) fan-in through node 0, every
     message of it a simulator event);
   - with [grid], every app x protocol x fabric at 1024 nodes (3D-FFT at
     its structural 64-plane cap).  Minutes of host wall, dominated by IS
     and Water, so only on request; the committed artifact carries them. *)

module Config = Adsm_dsm.Config
module Registry = Adsm_apps.Registry
module Runner = Adsm_harness.Runner
module Tables = Adsm_harness.Tables
module Json = Adsm_trace.Json

let out = "BENCH_suite.json"

let fabrics = [ Runner.Flat_central; Runner.Tree_combining ]

let scaling_cells =
  Runner.grid ~scale:Registry.Tiny ~fabrics ~protocols:[ Config.Mw; Config.Wfs ]
    ~nprocs:[ 8; 64; 256; 1024 ] [ "SOR" ]

let grid_nodes = 1024

let grid_cells =
  List.map
    (fun (c : Runner.cell) ->
      if c.app.Registry.name = "3D-FFT" then { c with nprocs = 64 } else c)
    (Runner.grid ~scale:Registry.Tiny ~fabrics ~protocols:Config.all_protocols
       ~nprocs:[ grid_nodes ] Registry.names)

let time_each cells =
  List.map
    (fun c ->
      let m, t = Runner.timed (fun () -> Runner.run c) in
      (c, m, t))
    cells

(* The trimmed stdout of a shell command, or [None] if it fails (no git,
   or not inside a work tree). *)
let command_output cmd =
  let ic = Unix.open_process_in (cmd ^ " 2>/dev/null") in
  let s = In_channel.input_all ic in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> Some (String.trim s)
  | _ -> None

let provenance () =
  let rev = command_output "git rev-parse HEAD" in
  [
    ("git_rev", Json.String (Option.value rev ~default:"unknown"));
    ( "dirty",
      match (rev, command_output "git status --porcelain") with
      | Some _, Some status -> Json.Bool (status <> "")
      | _ -> Json.String "unknown" );
    ("cores", Json.Int (Domain.recommended_domain_count ()));
    ("ocaml_version", Json.String Sys.ocaml_version);
  ]

let table title rows =
  Tables.render ~title
    ~header:
      [ "Program"; "Protocol"; "Fabric"; "Nodes"; "Wall ms"; "Events";
        "ns/event"; "Minor MW"; "Sim ms"; "Messages" ]
    (List.map
       (fun ((c : Runner.cell), (m : Runner.measurement), (t : Runner.timing))
       ->
         [
           m.app;
           Config.protocol_name m.protocol;
           Runner.fabric_name c.fabric;
           string_of_int m.nprocs;
           Printf.sprintf "%.2f" (float_of_int t.wall_ns /. 1e6);
           string_of_int m.events;
           Printf.sprintf "%.1f"
             (float_of_int t.wall_ns /. float_of_int (max 1 m.events));
           Printf.sprintf "%.1f" (t.minor_words /. 1e6);
           Printf.sprintf "%.1f" (float_of_int m.time_ns /. 1e6);
           string_of_int m.messages;
         ])
       rows)

let run ~tiny ~jobs ~grid =
  let scale = if tiny then Registry.Tiny else Registry.Default in
  let scale_name = if tiny then "tiny" else "default" in
  let cells =
    Runner.grid ~scale ~protocols:Config.all_protocols ~nprocs:[ 8 ]
      Registry.names
  in
  let seq, seq_t = Runner.timed (fun () -> time_each cells) in
  (* The sequential pass doubles as the weight oracle: the parallel pass
     dispatches longest-first, so the heaviest cell cannot start last
     and run alone past the rest of the suite. *)
  let walls =
    List.map (fun (c, _, (t : Runner.timing)) -> (c, t.wall_ns)) seq
  in
  let par, par_t =
    Runner.timed (fun () ->
        Runner.run_cells ~jobs ~weight:(fun c -> List.assq c walls) cells)
  in
  let identical = List.map2 (fun (_, m, _) m' -> m = m') seq par in
  let diverged = List.length (List.filter not identical) in
  let speedup =
    float_of_int seq_t.wall_ns /. float_of_int (max 1 par_t.wall_ns)
  in
  let scaling = time_each scaling_cells in
  let grid_rows = if grid then time_each grid_cells else [] in
  let rows timed =
    Json.List
      (List.map (fun (c, m, timing) -> Runner.to_json c m timing) timed)
  in
  let doc =
    Json.Obj
      ([
         ( "run_id",
           Json.String (Printf.sprintf "suite-%d" (int_of_float (Unix.time ())))
         );
       ]
      @ provenance ()
      @ [
          ("scale", Json.String scale_name);
          ("nprocs", Json.Int 8);
          ("jobs", Json.Int jobs);
          ("suite_seq_wall_ns", Json.Int seq_t.wall_ns);
          ("suite_par_wall_ns", Json.Int par_t.wall_ns);
          ("suite_speedup", Json.Float speedup);
          ("suite_seq_minor_collections", Json.Int seq_t.minor_collections);
          ("suite_seq_major_collections", Json.Int seq_t.major_collections);
          ("suite_par_minor_collections", Json.Int par_t.minor_collections);
          ("suite_par_major_collections", Json.Int par_t.major_collections);
          ("parallel_identical", Json.Bool (diverged = 0));
          ( "cells",
            Json.List
              (List.map2
                 (fun (c, m, timing) same ->
                   Runner.to_json
                     ~extra:[ ("parallel_identical", Json.Bool same) ]
                     c m timing)
                 seq identical) );
          ("scaling", rows scaling);
        ]
      @
      if grid then
        [ ("grid_nodes", Json.Int grid_nodes); ("grid", rows grid_rows) ]
      else [])
  in
  Out_channel.with_open_text out (fun oc ->
      Out_channel.output_string oc (Json.to_string doc);
      Out_channel.output_char oc '\n');
  print_string
    (table
       (Printf.sprintf "Suite wall-clock (host): %d cells, %s scale"
          (List.length cells) scale_name)
       seq);
  Printf.printf
    "suite: sequential %.1f ms (%d minor / %d major GCs), --jobs %d %.1f ms \
     (%d minor / %d major GCs), speedup %.2fx\n\n"
    (float_of_int seq_t.wall_ns /. 1e6)
    seq_t.minor_collections seq_t.major_collections jobs
    (float_of_int par_t.wall_ns /. 1e6)
    par_t.minor_collections par_t.major_collections speedup;
  print_string
    (table "Node-count scaling (SOR, tiny scale; host cost per run)" scaling);
  if grid then
    print_string
      (table
         (Printf.sprintf
            "Full %d-node grid (tiny scale; 3D-FFT at its structural 64 cap)"
            grid_nodes)
         grid_rows);
  Printf.printf "wrote %s\n" out;
  if diverged > 0 then begin
    Printf.eprintf
      "perf: parallel suite diverged from sequential in %d cell(s)\n" diverged;
    1
  end
  (* On a multicore host a parallel pass that is not faster than the
     sequential one is a pool regression; single-core hosts and
     [jobs = 1] have no parallelism to claim. *)
  else if jobs >= 2 && Domain.recommended_domain_count () >= 2 && speedup <= 1.0
  then begin
    Printf.eprintf
      "perf: parallel suite speedup %.2fx <= 1.0 on a multicore host\n" speedup;
    1
  end
  else 0
