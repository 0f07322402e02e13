(* Red-Black SOR — one of the paper's workloads — under all four
   protocols: speedups, memory and message counts side by side, plus the
   WFS+WG granularity adaptation at work (diff sizes grow with the
   spreading wavefront until the 3 KB threshold flips pages to SW mode).

     dune exec examples/adaptive_sor.exe
*)

module Config = Adsm_dsm.Config
module Registry = Adsm_apps.Registry
module Runner = Adsm_harness.Runner
module Stats = Adsm_dsm.Stats

let () =
  let app = Option.get (Registry.find "SOR") in
  let nprocs = 8 in
  let seq = Runner.sequential_time_ns ~app ~scale:Registry.Default in
  Printf.printf "Red-Black SOR (%s), %d processors, sequential %.2f s\n\n"
    (app.Registry.data_desc Registry.Default)
    nprocs
    (float_of_int seq /. 1e9);
  Printf.printf "%-8s %8s %9s %9s %10s %8s\n" "protocol" "speedup" "msgs"
    "data(MB)" "twin+diff" "switches";
  List.iter
    (fun protocol ->
      let m = Runner.run (Runner.cell ~protocol ~nprocs "SOR") in
      Printf.printf "%-8s %8.2f %9d %9.2f %8.2fMB %8d\n"
        (Config.protocol_name protocol)
        (Runner.speedup m) m.Runner.messages
        (float_of_int m.Runner.data_bytes /. 1_048_576.)
        (float_of_int (m.Runner.twin_bytes + m.Runner.diff_bytes)
        /. 1_048_576.)
        m.Runner.mode_switches)
    Config.all_protocols;
  print_newline ();
  (* Show the WG adaptation: mean diff size under WFS+WG vs plain MW. *)
  let mw = Runner.run (Runner.cell ~protocol:Config.Mw ~nprocs "SOR") in
  let wg = Runner.run (Runner.cell ~protocol:Config.Wfs_wg ~nprocs "SOR") in
  Printf.printf
    "MW created %d diffs (mean %.0f B); WFS+WG created %d — its pages flip\n\
     to single-writer mode once their diffs cross the 3 KB threshold.\n"
    mw.Runner.diffs_created mw.Runner.mean_diff_bytes wg.Runner.diffs_created
