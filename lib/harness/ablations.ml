module Config = Adsm_dsm.Config
module Netcfg = Adsm_net.Netcfg

let fmt2 = Printf.sprintf "%.2f"

let speedup m = fmt2 (Runner.speedup m)

(* Each study is a rows x columns grid of independent runs: [grid] runs
   [cell row col] for every pair in one pool pass (input order kept) and
   returns each row with its columns' measurements. *)
let grid ~jobs rows cols cell =
  let width = List.length cols in
  let ms =
    Runner.run_cells ~jobs
      (List.concat_map (fun r -> List.map (cell r) cols) rows)
  in
  List.mapi (fun i r -> (r, List.filteri (fun j _ -> j / width = i) ms)) rows

(* Table rows of each app's speedup per column. *)
let speedups ~jobs apps cols cell =
  List.map
    (fun (name, ms) -> name :: List.map speedup ms)
    (grid ~jobs apps cols cell)

(* An off/on study of one configuration flag: speedup with the flag off
   and on, then [count] off and on. *)
let toggle ~jobs ~protocol ~set ~count apps =
  List.map
    (fun (name, ms) ->
      (name :: List.map speedup ms)
      @ List.map (fun m -> string_of_int (count m)) ms)
    (grid ~jobs apps [ false; true ] (fun name on ->
         Runner.cell ~protocol ~nprocs:8 ~tweak:(fun c -> set c on) name))

(* --- ownership quantum ------------------------------------------- *)

let quantum ?(jobs = 1) () =
  let rows =
    speedups ~jobs
      [ "Shallow"; "Barnes"; "IS" ]
      [ 50_000; 250_000; 1_000_000; 4_000_000 ]
      (fun name q ->
        Runner.cell ~protocol:Config.Sw ~nprocs:8
          ~tweak:(fun c -> { c with Config.ownership_quantum_ns = q })
          name)
  in
  Tables.render
    ~title:
      "Ablation: SW ownership quantum (speedup on 8 processors).\n\
       The paper fixes 1 ms and reports insensitivity, which holds here\n\
       too; with NO quantum at all, heavily falsely-shared pages (Barnes)\n\
       ping-pong per write and the run diverges — the quantum is the SW\n\
       protocol's only brake on that."
    ~header:[ "Program (SW)"; "0.05 ms"; "0.25 ms"; "1 ms (paper)"; "4 ms" ]
    rows

(* --- WFS+WG threshold --------------------------------------------- *)

let threshold ?(jobs = 1) () =
  let rows =
    speedups ~jobs
      [ "TSP"; "Water"; "3D-FFT"; "IS" ]
      [ 1_024; 3_072; 8_192 ]
      (fun name w ->
        Runner.cell ~protocol:Config.Wfs_wg ~nprocs:8
          ~tweak:(fun c -> { c with Config.wg_threshold_bytes = w })
          name)
  in
  Tables.render
    ~title:
      "Ablation: WFS+WG write-granularity threshold (speedup on 8\n\
       processors).  The paper derives 3 KB from the twin+diff vs page\n\
       transfer break-even and reports low sensitivity."
    ~header:[ "Program (WFS+WG)"; "1 KB"; "3 KB (paper)"; "8 KB" ]
    rows

(* --- network model ------------------------------------------------ *)

let network ?(jobs = 1) () =
  let protocols = [ Config.Mw; Config.Sw; Config.Wfs ] in
  let rows =
    List.map
      (fun ((name, protocol), ms) ->
        (if protocol = List.hd protocols then name else "")
        :: Config.protocol_name protocol
        :: List.map speedup ms)
      (grid ~jobs
         (List.concat_map
            (fun name -> List.map (fun p -> (name, p)) protocols)
            [ "IS"; "Barnes" ])
         [ Netcfg.atm_155; Netcfg.fast_ethernet ]
         (fun (name, protocol) net ->
           Runner.cell ~protocol ~nprocs:8
             ~tweak:(fun c -> { c with Config.net })
             name))
  in
  Tables.render
    ~title:
      "Ablation: network cost model (speedup on 8 processors).  The\n\
       paper's protocol tradeoffs are calibrated to a 155 Mbps ATM\n\
       cluster with ~1 ms round trips; on a low-latency gigabit-class\n\
       model communication stops dominating and the protocols converge."
    ~header:[ "Program"; "Protocol"; "ATM'97"; "fast" ]
    rows

(* --- migratory-detection extension -------------------------------- *)

let migratory ?(jobs = 1) () =
  let rows =
    toggle ~jobs ~protocol:Config.Wfs
      ~set:(fun c migratory_detection -> { c with Config.migratory_detection })
      ~count:(fun m -> m.Runner.messages)
      [ "IS"; "TSP"; "Water" ]
  in
  Tables.render
    ~title:
      "Extension: migratory-data detection (paper Section 7) under WFS.\n\
       Read misses on read-then-write pages are upgraded to ownership\n\
       migrations, saving the write fault's exchange."
    ~header:
      [ "Program"; "speedup off"; "speedup on"; "msgs off"; "msgs on" ]
    rows

(* --- lazy diffing --------------------------------------------------- *)

let lazydiff ?(jobs = 1) () =
  let rows =
    toggle ~jobs ~protocol:Config.Mw
      ~set:(fun c lazy_diffing -> { c with Config.lazy_diffing })
      ~count:(fun m -> m.Runner.diffs_created)
      [ "SOR"; "3D-FFT"; "Shallow"; "Barnes" ]
  in
  Tables.render
    ~title:
      "Ablation: eager vs lazy diff creation under MW.  The baseline\n\
       reproduction diffs eagerly at release (a documented TreadMarks\n\
       simplification); with lazy diffing the diff is created on first\n\
       request, and diffs garbage-collected before anyone asks are never\n\
       created at all."
    ~header:
      [ "Program (MW)"; "spd eager"; "spd lazy"; "diffs eager"; "diffs lazy" ]
    rows

(* --- software write detection --------------------------------------- *)

let writeranges ?(jobs = 1) () =
  let rows =
    toggle ~jobs ~protocol:Config.Mw
      ~set:(fun c write_ranges -> { c with Config.write_ranges })
      ~count:(fun m -> m.Runner.twins_created)
      [ "TSP"; "Barnes"; "Water"; "SOR"; "IS" ]
  in
  Tables.render
    ~title:
      "Ablation: twin/diff vs software write detection (write ranges /\n\
       Midway-style, cited in the paper's related work) under MW.  Logging\n\
       every shared write replaces the twin (104 us) and the release-time\n\
       page scan (179 us); at these write densities the logging cost\n\
       (250 ns/write) never catches up, so it wins or ties everywhere --\n\
       consistent with the paper's view of such techniques as orthogonal\n\
       optimizations."
    ~header:
      [ "Program (MW)"; "spd twin"; "spd ranges"; "twins"; "twins(ranges)" ]
    rows

(* --- HLRC extension ------------------------------------------------ *)

let hlrc ?(jobs = 1) () =
  let rows =
    List.map
      (fun (name, ms) ->
        name
        :: List.concat_map
             (fun m -> [ speedup m; Tables.thousands m.Runner.messages ])
             ms)
      (grid ~jobs
         [ "IS"; "SOR"; "Shallow"; "Barnes"; "ILINK" ]
         [ Config.Mw; Config.Wfs; Config.Hlrc ]
         (fun name protocol -> Runner.cell ~protocol ~nprocs:8 name))
  in
  Tables.render
    ~title:
      "Extension: home-based LRC (HLRC, Zhou et al., cited in the paper's\n\
       related work) against MW and WFS.  HLRC flushes diffs eagerly to\n\
       each page's static home and fetches whole pages from it: no diff\n\
       store, no garbage collection, fewer message types — but traffic\n\
       concentrates at homes and whole pages move on every miss."
    ~header:
      [
        "Program";
        "MW spd"; "MW msg(k)";
        "WFS spd"; "WFS msg(k)";
        "HLRC spd"; "HLRC msg(k)";
      ]
    rows

(* --- processor scaling -------------------------------------------- *)

let scaling ?(jobs = 1) () =
  let rows =
    speedups ~jobs
      [ "SOR"; "ILINK"; "Barnes"; "3D-FFT" ]
      [ 1; 2; 4; 8 ]
      (fun name nprocs -> Runner.cell ~protocol:Config.Wfs ~nprocs name)
  in
  Tables.render
    ~title:
      "Sensitivity: processor-count scaling under WFS (the paper reports\n\
       8 processors only)."
    ~header:[ "Program (WFS)"; "1"; "2"; "4"; "8" ]
    rows

(* ------------------------------------------------------------------ *)

let studies =
  [
    ("quantum", quantum);
    ("threshold", threshold);
    ("network", network);
    ("migratory", migratory);
    ("lazydiff", lazydiff);
    ("writeranges", writeranges);
    ("hlrc", hlrc);
    ("scaling", scaling);
  ]

let names = List.map fst studies

let run ?jobs name =
  match List.assoc_opt name studies with
  | Some f -> f ?jobs ()
  | None -> invalid_arg ("Ablations.run: unknown study " ^ name)

let run_all ?jobs () =
  String.concat "\n" (List.map (fun (_, f) -> f ?jobs ()) studies)
