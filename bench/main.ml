(* Bechamel microbenchmarks of the protocol primitives that the cost
   model charges for (twin creation, diff creation/application, vector
   timestamps, the event heap) and of the accessor hot path, reported in
   nanoseconds per operation.  The paper's tables and figures come from
   `adsm_run experiments`, the host-cost artifact from `adsm_run perf`. *)

module Config = Adsm_dsm.Config
module Dsm = Adsm_dsm.Dsm
module Vc = Adsm_dsm.Vc
module Interval = Adsm_dsm.Interval
module Diff = Adsm_dsm.Diff
module Page = Adsm_mem.Page
module Eheap = Adsm_sim.Eheap
module Rng = Adsm_sim.Rng

(* ------------------------------------------------------------------ *)
(* Bechamel microbenchmarks                                           *)
(* ------------------------------------------------------------------ *)

let page_pair ~modified =
  let twin = Page.create () in
  let rng = Rng.create 7L in
  for i = 0 to (Page.size / 8) - 1 do
    Page.set_f64 twin (8 * i) (Rng.float rng)
  done;
  let current = Page.copy twin in
  if modified > 0 then begin
    let slots = Page.size / 8 in
    let step = max 1 (slots / modified) in
    let k = ref 0 in
    while !k < slots do
      Page.set_f64 current (8 * !k) (float_of_int !k +. 0.5);
      k := !k + step
    done
  end;
  (twin, current)

let micro_tests () =
  let open Bechamel in
  let twin_full, current_full = page_pair ~modified:512 in
  let twin_sparse, current_sparse = page_pair ~modified:8 in
  let full_diff = Diff.create ~twin:twin_full ~current:current_full () in
  let sparse_diff = Diff.create ~twin:twin_sparse ~current:current_sparse () in
  let target = Page.create () in
  let ranges =
    List.init 16 (fun i -> ((i * 256) + (if i mod 3 = 0 then 64 else 0), 40))
  in
  let vc_a = Vc.zero ~nprocs:8 and vc_b = Vc.zero ~nprocs:8 in
  for i = 0 to 7 do
    Vc.set vc_a i (i * 3);
    Vc.set vc_b i (23 - i)
  done;
  (* 1024-wide clocks with distinct sums (the sum cut decides), an
     epoch-stamped base with a rebased clock two components ahead, and a
     4096-interval indexed log probed near its tail. *)
  let vc_big_lo = Vc.zero ~nprocs:1024 and vc_big_hi = Vc.zero ~nprocs:1024 in
  for i = 0 to 1023 do
    Vc.set vc_big_lo i i;
    Vc.set vc_big_hi i (i + 1)
  done;
  let epoch_base = Vc.copy vc_big_lo in
  let vc_rebased = Vc.copy vc_big_lo in
  Vc.rebase ~epoch:1 vc_rebased ~base:epoch_base;
  Vc.set vc_rebased 3 2000;
  Vc.set vc_rebased 700 2000;
  let big_log = Interval.Log.create () in
  for i = 1 to 4096 do
    let vc = Vc.zero ~nprocs:4 in
    Vc.set vc 0 i;
    Interval.Log.append big_log (Interval.make ~proc:0 ~vc ~notices:[])
  done;
  let log_probe = Vc.zero ~nprocs:4 in
  Vc.set log_probe 0 4090;
  [
    Test.make ~name:"twin (page copy, 4KB)"
      (Staged.stage (fun () -> ignore (Page.copy twin_full)));
    Test.make ~name:"diff create (full page)"
      (Staged.stage (fun () ->
           ignore (Diff.create ~twin:twin_full ~current:current_full ())));
    Test.make ~name:"diff create (sparse)"
      (Staged.stage (fun () ->
           ignore (Diff.create ~twin:twin_sparse ~current:current_sparse ())));
    Test.make ~name:"diff create (clean page)"
      (Staged.stage (fun () ->
           (* all-equal pages: pure scan cost, the word-skip fast path *)
           ignore (Diff.create ~twin:twin_full ~current:twin_full ())));
    Test.make ~name:"diff of_ranges (16 ranges)"
      (Staged.stage (fun () -> ignore (Diff.of_ranges ranges current_full)));
    Test.make ~name:"diff apply (full page)"
      (Staged.stage (fun () -> Diff.apply full_diff target));
    Test.make ~name:"diff apply (sparse)"
      (Staged.stage (fun () -> Diff.apply sparse_diff target));
    Test.make ~name:"vc merge+compare (8p)"
      (Staged.stage (fun () ->
           let c = Vc.copy vc_a in
           Vc.merge_into c vc_b;
           ignore (Vc.leq vc_a c && Vc.concurrent vc_a vc_b)));
    Test.make ~name:"vc merge_into (in-place, 8p)"
      (Staged.stage (fun () -> Vc.merge_into vc_a vc_b));
    (* Large-n summary ops: [leq]/[order] on 1024-wide clocks with
       distinct cached sums decide without touching the components, and
       [delta_size_bytes] against a current epoch base counts only the
       dirty components.  These are the hot comparisons of the 1024-node
       grid; see DESIGN.md "Large-n data structures". *)
    Test.make ~name:"vc leq (1024p, sum cut)"
      (Staged.stage (fun () -> ignore (Vc.leq vc_big_lo vc_big_hi)));
    Test.make ~name:"vc order (1024p, sum cut)"
      (Staged.stage (fun () -> ignore (Vc.order vc_big_hi vc_big_lo)));
    Test.make ~name:"vc delta_size (1024p, epoch)"
      (Staged.stage (fun () ->
           ignore (Vc.delta_size_bytes ~since:epoch_base vc_rebased)));
    Test.make ~name:"log first_after (4k intervals)"
      (Staged.stage (fun () -> ignore (Interval.Log.first_after big_log 2048)));
    Test.make ~name:"log unseen_by tail (4k)"
      (Staged.stage (fun () ->
           ignore (Interval.Log.unseen_by log_probe ~proc:0 big_log [])));
    Test.make ~name:"event heap push+pop x64"
      (Staged.stage (fun () ->
           let h = Eheap.create () in
           for i = 0 to 63 do
             Eheap.push h ~time:((i * 37) mod 101) ~seq:i i
           done;
           let rec drain () =
             match Eheap.pop_min h with Some _ -> drain () | None -> ()
           in
           drain ()));
  ]

(* Accessor hot-path rows: each run is a full 1-processor [Dsm.run] (its
   engine/node setup is a few microseconds, small against the 8k
   accesses), so a regression anywhere on the access path — TLB hit,
   permission check, or the outlined fault path — moves these numbers.
   The x-counts are in the row names; divide to get per-access cost. *)
let accessor_tests () =
  let open Bechamel in
  let pages = 64 in
  let cfg = Config.make ~protocol:Config.Mw ~nprocs:1 () in
  let t = Dsm.create cfg in
  let a = Dsm.alloc_f64 t ~name:"bench-accessors" ~len:(pages * 512) in
  let buf = Array.make 512 0. in
  [
    Test.make ~name:"f64_get x8192 (scalar, warm)"
      (Staged.stage (fun () ->
           ignore
             (Dsm.run t (fun ctx ->
                  let s = ref 0. in
                  for i = 0 to 8191 do
                    s := !s +. Dsm.f64_get ctx a (i land 511)
                  done;
                  ignore !s))));
    Test.make ~name:"f64_set x8192 (scalar, warm)"
      (Staged.stage (fun () ->
           ignore
             (Dsm.run t (fun ctx ->
                  for i = 0 to 8191 do
                    Dsm.f64_set ctx a (i land 511) 1.0
                  done))));
    Test.make ~name:"f64_get_run x8192 (512/run)"
      (Staged.stage (fun () ->
           ignore
             (Dsm.run t (fun ctx ->
                  for _ = 1 to 16 do
                    Dsm.f64_get_run ctx a 0 buf 0 512
                  done))));
    Test.make ~name:"f64_set_run x8192 (512/run)"
      (Staged.stage (fun () ->
           ignore
             (Dsm.run t (fun ctx ->
                  for _ = 1 to 16 do
                    Dsm.f64_set_run ctx a 0 buf 0 512
                  done))));
    Test.make ~name:"page fault x64 (read, cold)"
      (Staged.stage (fun () ->
           ignore
             (Dsm.run t (fun ctx ->
                  let s = ref 0. in
                  for p = 0 to pages - 1 do
                    s := !s +. Dsm.f64_get ctx a (p * 512)
                  done;
                  ignore !s))));
  ]

let run_micro () =
  let open Bechamel in
  print_endline "Microbenchmarks: protocol primitives (wall-clock, host CPU)";
  print_endline
    "(the simulation charges these at 1997 SPARC-20 prices instead: twin\n\
     104 us, full-page diff 179 us)\n";
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:500 ~quota:(Time.second 0.2) ~kde:None ()
  in
  let tests =
    Test.make_grouped ~name:"primitives"
      (micro_tests () @ accessor_tests ())
  in
  let raw = Benchmark.all cfg [ instance ] tests in
  let results =
    Analyze.all (Analyze.ols ~bootstrap:0 ~r_square:false
                   ~predictors:[| Measure.run |])
      instance raw
  in
  Hashtbl.iter
    (fun name result ->
      match Analyze.OLS.estimates result with
      | Some [ est ] ->
        Printf.printf "  %-28s %12.1f ns/op\n"
          (match String.index_opt name '/' with
          | Some i -> String.sub name (i + 1) (String.length name - i - 1)
          | None -> name)
          est
      | _ -> ())
    results;
  print_newline ()

let () =
  match Sys.argv with
  | [| _ |] | [| _; "micro" |] -> run_micro ()
  | _ ->
    prerr_endline
      "usage: main.exe [micro]\n\
       (paper tables and figures: adsm_run experiments; host-cost \
       artifact: adsm_run perf)";
    exit 2
