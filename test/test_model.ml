(* Randomized model tests for the large-n data structures.

   The summarized vector clock (cached sum, dirty-component tracking,
   epoch-stamped bases, per-epoch delta caches) and the array-backed
   interval log both exist to skip dense rescans; correctness means
   every observable agrees with the naive implementation they replaced.
   Seeded op sequences drive the real structure and a naive reference
   through the same mutations — honoring the documented preconditions
   (rebase on a just-taken snapshot, equal components per epoch stamp,
   strictly ascending log appends) — and compare every query. *)

module Vc = Adsm_dsm.Vc
module Interval = Adsm_dsm.Interval

(* ------------------------------------------------------------------ *)
(* Naive vector-clock reference: a plain int array, rescanned fully    *)
(* ------------------------------------------------------------------ *)

let width = 16

let nnodes = 5

let nsum = Array.fold_left ( + ) 0

let nleq a b =
  let ok = ref true in
  Array.iteri (fun i av -> if av > b.(i) then ok := false) a;
  !ok

(* Historical total order: dominated-first, concurrent clocks broken by
   (sum, lexicographic) — which collapses to (sum, lexicographic). *)
let norder a b =
  let c = Int.compare (nsum a) (nsum b) in
  if c <> 0 then c
  else
    let rec go i =
      if i = Array.length a then 0
      else
        let c = Int.compare a.(i) b.(i) in
        if c <> 0 then c else go (i + 1)
    in
    go 0

let ndelta ~since a =
  let changed = ref 0 in
  Array.iteri (fun i av -> if av <> since.(i) then incr changed) a;
  8 + (8 * !changed)

let sign c = compare c 0

let check_pair step i j vc nv vc' nv' =
  let name fmt = Printf.sprintf "step %d, clocks (%d,%d): %s" step i j fmt in
  if Vc.leq vc vc' <> nleq nv nv' then Alcotest.fail (name "leq");
  if Vc.leq vc' vc <> nleq nv' nv then Alcotest.fail (name "leq (flipped)");
  if Vc.equal vc vc' <> (nv = nv') then Alcotest.fail (name "equal");
  if Vc.concurrent vc vc' <> ((not (nleq nv nv')) && not (nleq nv' nv)) then
    Alcotest.fail (name "concurrent");
  if sign (Vc.order vc vc') <> sign (norder nv nv') then
    Alcotest.fail (name "order sign");
  if Vc.order vc vc' = 0 && nv <> nv' then Alcotest.fail (name "order zero")

let check_node step i vc nv =
  let name fmt = Printf.sprintf "step %d, clock %d: %s" step i fmt in
  for p = 0 to width - 1 do
    if Vc.get vc p <> nv.(p) then
      Alcotest.failf "%s" (name (Printf.sprintf "component %d" p))
  done;
  if Vc.sum vc <> nsum nv then Alcotest.fail (name "sum");
  if Vc.size_bytes vc <> 4 * width then Alcotest.fail (name "size_bytes")

let test_vc_model () =
  for seed = 0 to 9 do
    let rs = Random.State.make [| 0xADC0; seed |] in
    let vcs = Array.init nnodes (fun _ -> Vc.zero ~nprocs:width) in
    let nvs = Array.init nnodes (fun _ -> Array.make width 0) in
    (* Pool of rebase snapshots, each frozen at creation; delta queries
       pick arbitrary (clock, base) pairs to exercise the same-base,
       same-epoch and cold paths alike. *)
    let bases = ref [ (Vc.zero ~nprocs:width, Array.make width 0) ] in
    let push_base b nb =
      bases :=
        (b, nb)
        :: (if List.length !bases > 8 then List.filteri (fun k _ -> k < 7) !bases
            else !bases)
    in
    let epoch = ref 0 in
    for step = 1 to 300 do
      let i = Random.State.int rs nnodes in
      let j = Random.State.int rs nnodes in
      (match Random.State.int rs 14 with
      | 0 | 1 ->
        (* set: usually a bump, occasionally a decrease (the API is
           generic even though the protocol only ever moves forward) *)
        let p = Random.State.int rs width in
        let cur = nvs.(i).(p) in
        let v =
          if Random.State.int rs 10 = 0 then max 0 (cur - Random.State.int rs 3)
          else cur + 1 + Random.State.int rs 4
        in
        Vc.set vcs.(i) p v;
        nvs.(i).(p) <- v
      | 2 | 3 | 4 ->
        let p = Random.State.int rs width in
        Vc.tick vcs.(i) ~proc:p;
        nvs.(i).(p) <- nvs.(i).(p) + 1
      | 5 | 6 ->
        Vc.merge_into vcs.(i) vcs.(j);
        Array.iteri (fun p v -> nvs.(i).(p) <- max nvs.(i).(p) v) nvs.(j)
      | 7 ->
        Vc.min_into vcs.(i) vcs.(j);
        Array.iteri (fun p v -> nvs.(i).(p) <- min nvs.(i).(p) v) nvs.(j)
      | 8 ->
        Vc.blit_into ~src:vcs.(j) ~dst:vcs.(i);
        Array.blit nvs.(j) 0 nvs.(i) 0 width
      | 9 ->
        vcs.(i) <- Vc.copy vcs.(j);
        nvs.(i) <- Array.copy nvs.(j)
      | 12 ->
        (* sparse overwrite, honoring its precondition: the listed
           components cover every one where the clocks differ (plus a
           few that do not), in random order *)
        let diff =
          List.filter
            (fun p -> nvs.(i).(p) <> nvs.(j).(p) || Random.State.int rs 4 = 0)
            (List.init width Fun.id)
        in
        let changed =
          Array.of_list (List.sort (fun _ _ -> Random.State.int rs 3 - 1) diff)
        in
        Vc.blit_changed ~src:vcs.(j) ~dst:vcs.(i) ~changed
          ~len:(Array.length changed);
        Array.blit nvs.(j) 0 nvs.(i) 0 width
      | 11 ->
        (* in-place copy: keeps [j]'s base, dirty set and monotonicity *)
        Vc.copy_into ~src:vcs.(j) ~dst:vcs.(i);
        Array.blit nvs.(j) 0 nvs.(i) 0 width
      | 10 ->
        (* plain rebase: snapshot then rebase, per the precondition *)
        let b = Vc.copy vcs.(i) in
        Vc.rebase vcs.(i) ~base:b;
        push_base b (Array.copy nvs.(i))
      | _ ->
        (* barrier: every clock becomes the global supremum, then takes
           an epoch-stamped snapshot — the one legitimate way to stamp
           the same epoch on every node *)
        let sup = Vc.copy vcs.(0) in
        Array.iter (fun vc -> Vc.merge_into sup vc) vcs;
        let nsup = Array.make width 0 in
        Array.iter
          (fun nv -> Array.iteri (fun p v -> nsup.(p) <- max nsup.(p) v) nv)
          nvs;
        Array.iteri
          (fun k vc ->
            Vc.blit_into ~src:sup ~dst:vc;
            Array.blit nsup 0 nvs.(k) 0 width;
            let b = Vc.copy vc in
            Vc.rebase ~epoch:!epoch vc ~base:b;
            push_base b (Array.copy nsup))
          vcs;
        incr epoch);
      for a = 0 to nnodes - 1 do
        check_node step a vcs.(a) nvs.(a);
        for b = 0 to nnodes - 1 do
          check_pair step a b vcs.(a) nvs.(a) vcs.(b) nvs.(b)
        done;
        (* delta against another live clock (cold path) *)
        let d = Vc.delta_size_bytes ~since:vcs.(j) vcs.(a) in
        if d <> ndelta ~since:nvs.(j) nvs.(a) then
          Alcotest.failf "step %d: delta clock %d since clock %d" step a j;
        (* delta against pooled snapshots (same-base / same-epoch /
           cross-node-epoch fast paths, depending on provenance) *)
        List.iteri
          (fun k (bvc, bnv) ->
            let d = Vc.delta_size_bytes ~since:bvc vcs.(a) in
            if d <> ndelta ~since:bnv nvs.(a) then
              Alcotest.failf "step %d: delta clock %d since base %d" step a k;
            if
              Vc.dominates_snapshot vcs.(a) ~snapshot:bvc
              && not (nleq bnv nvs.(a))
            then
              Alcotest.failf "step %d: clock %d claims to dominate base %d"
                step a k)
          !bases
      done
    done
  done

(* ------------------------------------------------------------------ *)
(* Barrier clocks: base-preserving copies and same-epoch minimums       *)
(* ------------------------------------------------------------------ *)

(* The barrier's clock traffic, shaped like the protocol's: every node
   rebases on an epoch-stamped snapshot of the common supremum, grows
   its clock (ticks, merges from peers of the same epoch, rarely a
   decrease that forfeits monotonicity, rarely a clock rebuilt without
   any base), refreshes its snapshot by copying the clock into its own
   base, and then a combining step folds a subtree: [copy_into]
   the first member into a reused scratch clock and [min_into] the rest.
   Every query on the folded clock — components, sum, [leq] both ways,
   [merge_into] into a copy of each node's clock, delta bytes against
   every snapshot, the [dominates_snapshot] claim — is checked against a
   plain int-array reference.  [hits] counts folds whose every step was
   eligible for the same-epoch path, so the test fails if the shortcut
   is never exercised. *)
let test_barrier_clocks () =
  let hits = ref 0 in
  for seed = 0 to 9 do
    let rs = Random.State.make [| 0xB1C; seed |] in
    let vcs = Array.init nnodes (fun _ -> Vc.zero ~nprocs:width) in
    let nvs = Array.init nnodes (fun _ -> Array.make width 0) in
    let snaps = Array.init nnodes (fun _ -> Vc.zero ~nprocs:width) in
    let nsnap = ref (Array.make width 0) in
    let mono = Array.make nnodes false in
    (* Older snapshots stay around as delta bases and domination claims. *)
    let old_snaps = ref [] in
    let scratch = Vc.zero ~nprocs:width in
    for epoch = 0 to 39 do
      let nsup = Array.make width 0 in
      Array.iter (Array.iteri (fun p v -> nsup.(p) <- max nsup.(p) v)) nvs;
      let sup = Vc.zero ~nprocs:width in
      Array.iter (fun vc -> Vc.merge_into sup vc) vcs;
      if List.length !old_snaps < 6 then
        old_snaps := (Vc.copy snaps.(0), Array.copy !nsnap) :: !old_snaps;
      Array.iteri
        (fun k vc ->
          (* the barrier's snapshot refresh: the clock catches up to the
             supremum and is copied into its own base *)
          Vc.merge_into vc sup;
          Array.blit nsup 0 nvs.(k) 0 width;
          Vc.blit_into ~src:vc ~dst:snaps.(k);
          for p = 0 to width - 1 do
            if Vc.get snaps.(k) p <> nsup.(p) then
              Alcotest.failf "seed %d, epoch %d: snapshot %d component %d" seed
                epoch k p
          done;
          if Vc.sum snaps.(k) <> nsum nsup then
            Alcotest.failf "seed %d, epoch %d: snapshot %d sum" seed epoch k;
          Vc.rebase ~epoch:(epoch + 1) vc ~base:snaps.(k);
          mono.(k) <- true)
        vcs;
      nsnap := nsup;
      for _ = 1 to 1 + Random.State.int rs 12 do
        let i = Random.State.int rs nnodes in
        match Random.State.int rs 10 with
        | 0 | 1 | 2 | 3 ->
          let p = Random.State.int rs width in
          Vc.tick vcs.(i) ~proc:p;
          nvs.(i).(p) <- nvs.(i).(p) + 1
        | 4 | 5 | 6 ->
          let j = Random.State.int rs nnodes in
          Vc.merge_into vcs.(i) vcs.(j);
          Array.iteri (fun p v -> nvs.(i).(p) <- max nvs.(i).(p) v) nvs.(j)
        | 7 ->
          let p = Random.State.int rs width in
          if nvs.(i).(p) > 0 then begin
            Vc.set vcs.(i) p (nvs.(i).(p) - 1);
            nvs.(i).(p) <- nvs.(i).(p) - 1;
            mono.(i) <- false
          end
        | 8 ->
          (* rebuilt from scratch: same components, no base at all *)
          let fresh = Vc.zero ~nprocs:width in
          Array.iteri (fun p v -> Vc.set fresh p v) nvs.(i);
          vcs.(i) <- fresh;
          mono.(i) <- false
        | _ -> ()
      done;
      (* Fold a random subtree (in random order) into [scratch]. *)
      let members =
        List.filter (fun _ -> Random.State.int rs 3 > 0) (List.init nnodes Fun.id)
      in
      let members = if members = [] then [ 0 ] else members in
      let nmin = Array.copy nvs.(List.hd members) in
      Vc.copy_into ~src:vcs.(List.hd members) ~dst:scratch;
      List.iter
        (fun k ->
          Vc.min_into scratch vcs.(k);
          Array.iteri (fun p v -> nmin.(p) <- min nmin.(p) v) nvs.(k))
        (List.tl members);
      if List.for_all (fun k -> mono.(k)) members then incr hits;
      let name what = Printf.sprintf "seed %d, epoch %d: %s" seed epoch what in
      for p = 0 to width - 1 do
        if Vc.get scratch p <> nmin.(p) then
          Alcotest.fail (name (Printf.sprintf "component %d" p))
      done;
      if Vc.sum scratch <> nsum nmin then Alcotest.fail (name "sum");
      Array.iteri
        (fun k vc ->
          if Vc.leq scratch vc <> nleq nmin nvs.(k) then
            Alcotest.fail (name (Printf.sprintf "leq min <= %d" k));
          if Vc.leq vc scratch <> nleq nvs.(k) nmin then
            Alcotest.fail (name (Printf.sprintf "leq %d <= min" k));
          let m = Vc.copy vc in
          Vc.merge_into m scratch;
          for p = 0 to width - 1 do
            if Vc.get m p <> max nvs.(k).(p) nmin.(p) then
              Alcotest.fail (name (Printf.sprintf "merge into %d" k))
          done;
          let d = Vc.delta_size_bytes ~since:snaps.(k) scratch in
          if d <> ndelta ~since:!nsnap nmin then
            Alcotest.fail (name (Printf.sprintf "delta since snapshot %d" k));
          if Vc.dominates_snapshot scratch ~snapshot:snaps.(k) then begin
            if not (nleq !nsnap nmin) then
              Alcotest.fail (name "false domination claim")
          end
          else if List.for_all (fun k -> mono.(k)) members then
            Alcotest.fail (name "a same-epoch minimum lost its monotonicity"))
        vcs;
      List.iter
        (fun (svc, snv) ->
          if Vc.delta_size_bytes ~since:svc scratch <> ndelta ~since:snv nmin then
            Alcotest.fail (name "delta since an older snapshot");
          if Vc.dominates_snapshot scratch ~snapshot:svc && not (nleq snv nmin)
          then Alcotest.fail (name "false domination of an older snapshot"))
        !old_snaps
    done
  done;
  if !hits < 50 then
    Alcotest.failf "same-epoch folds exercised only %d times" !hits

(* ------------------------------------------------------------------ *)
(* Naive interval-log reference: a plain list, filtered fully          *)
(* ------------------------------------------------------------------ *)

let owner = 1

let make_iv seq =
  let vc = Vc.zero ~nprocs:4 in
  Vc.set vc owner seq;
  Interval.make ~proc:owner ~vc ~notices:[]

let seqs = List.map (fun (iv : Interval.t) -> iv.Interval.seq)

let test_log_model () =
  for seed = 0 to 9 do
    let rs = Random.State.make [| 0x106; seed |] in
    let log = Interval.Log.create () in
    let naive = ref [] (* oldest first, like the log's index order *) in
    let last_seq = ref 0 in
    for step = 1 to 400 do
      (match Random.State.int rs 8 with
      | 0 ->
        (* GC/crash truncation: drop everything, keep appending above
           the old seqs (the protocol never reuses a sequence number) *)
        Interval.Log.clear log;
        naive := []
      | 1 | 2 | 3 | 4 | 5 ->
        (* strictly ascending appends, with gaps *)
        let seq = !last_seq + 1 + Random.State.int rs 3 in
        last_seq := seq;
        let iv = make_iv seq in
        Interval.Log.append log iv;
        naive := !naive @ [ iv ]
      | _ -> ());
      let name fmt = Printf.sprintf "seed %d, step %d: %s" seed step fmt in
      let n = List.length !naive in
      if Interval.Log.length log <> n then Alcotest.fail (name "length");
      if n > 0 then begin
        let k = Random.State.int rs n in
        if (Interval.Log.get log k).Interval.seq
           <> (List.nth !naive k).Interval.seq
        then Alcotest.fail (name "get")
      end;
      (* coverage queries across the whole seq range, including exact
         hits, gap values, 0 and past-the-end *)
      let s = Random.State.int rs (!last_seq + 2) in
      let expected_idx =
        let rec go k = function
          | [] -> n
          | (iv : Interval.t) :: tl -> if iv.Interval.seq > s then k else go (k + 1) tl
        in
        go 0 !naive
      in
      if Interval.Log.first_after log s <> expected_idx then
        Alcotest.fail (name (Printf.sprintf "first_after %d" s));
      let vc = Vc.zero ~nprocs:4 in
      Vc.set vc owner s;
      let expected =
        (* prepended onto the accumulator walking oldest-first, so the
           result comes out newest-first — the orientation the old list
           representation produced *)
        List.rev
          (List.filter (fun (iv : Interval.t) -> iv.Interval.seq > s) !naive)
      in
      if seqs (Interval.Log.unseen_by vc ~proc:owner log []) <> seqs expected
      then Alcotest.fail (name (Printf.sprintf "unseen_by %d" s));
      let acc = [ make_iv (!last_seq + 100) ] in
      if seqs (Interval.Log.unseen_by vc ~proc:owner log acc)
         <> seqs (expected @ acc)
      then Alcotest.fail (name (Printf.sprintf "unseen_by %d with acc" s))
    done
  done

(* ------------------------------------------------------------------ *)
(* Dominating-writer summary vs the dense concurrent-writer scan       *)
(* ------------------------------------------------------------------ *)

(* One page's writer map at node 0 of a small cluster, driven through
   the real acquire path ([Lrc_core.apply_intervals]) and the real
   release path ([Lrc_core.end_interval]).  The other processors are
   modelled as plain int-array clocks built only by ticking and merging
   whole clocks, so every notice timestamp obeys the transitive-clock
   invariant the summary rests on.  A naive reference keeps each
   writer's latest timestamp densely and re-runs the paper's
   concurrency test against every writer for every notice; the
   summarized path must produce exactly its false-sharing effects. *)

module Config = Adsm_dsm.Config
module State = Adsm_dsm.State
module Stats = Adsm_dsm.Stats
module Lrc_core = Adsm_dsm.Lrc_core
module Notice = Adsm_dsm.Notice

let writers = 6

let page = 1 (* homed away from the observing node 0 *)

let make_cluster protocol =
  let cfg = Config.make ~protocol ~nprocs:writers () in
  let engine = Adsm_sim.Engine.create ~lanes:writers () in
  {
    State.cfg;
    engine;
    rpc = Adsm_net.Rpc.create engine cfg.Config.net ~nodes:writers;
    layout = Adsm_mem.Layout.create ();
    nodes =
      Array.init writers (fun id -> State.make_node ~cfg ~id ~total_pages:4);
    stats = Stats.create ~nprocs:writers ();
    barrier_mgr =
      {
        State.epoch = 0;
        arrived = 0;
        arrivals = [];
        gc_requested = false;
        gc_done_count = 0;
      };
    next_lock = 0;
    running = 0;
    tracer = Adsm_trace.Tracer.disabled;
    recorder = Adsm_check.Recorder.disabled;
    diff_scratch = Adsm_dsm.Diff.make_scratch ();
  }

let vc_of_array a =
  let vc = Vc.zero ~nprocs:(Array.length a) in
  Array.iteri (fun i v -> if v <> 0 then Vc.set vc i v) a;
  vc

let array_of_vc vc = Array.init (Vc.nprocs vc) (Vc.get vc)

type world = {
  cl : State.cluster;
  obs : State.node;  (* node 0, whose entry for [page] is under test *)
  clocks : int array array;  (* processors 1..: modelled clocks *)
  ivals : Interval.t list array;  (* per processor, newest first *)
  latest : int array option array;  (* reference writer map *)
  mutable fs_shared : bool;  (* reference [Stats.page_false_shared] *)
  mutable fs_active : bool;  (* reference [entry.fs_active] *)
  mutable switches : int;  (* reference [Stats.mode_switches] *)
  mutable detections : int;
  mutable fast : int;  (* notices that met a dominating slot *)
}

let make_world protocol =
  let cl = make_cluster protocol in
  {
    cl;
    obs = cl.State.nodes.(0);
    clocks = Array.init writers (fun _ -> Array.make writers 0);
    ivals = Array.make writers [];
    latest = Array.make writers None;
    fs_shared = false;
    fs_active = false;
    switches = 0;
    detections = 0;
    fast = 0;
  }

let entry w = State.entry_of w.obs page

(* The dense scan the summary replaces, on the reference map, followed
   by the same skip rule and idempotent effects. *)
let reference_apply w (n : Notice.t) =
  let adaptive = w.cl.State.cfg.Config.protocol = Config.Wfs in
  if (not w.fs_shared) || (adaptive && not w.fs_active) then begin
    let nv = array_of_vc n.Notice.vc in
    let found = ref false in
    Array.iteri
      (fun q -> function
        | Some m when q <> n.Notice.proc ->
          if nv.(q) < m.(q) && m.(n.Notice.proc) < n.Notice.seq then
            found := true
        | Some _ | None -> ())
      w.latest;
    if !found then begin
      w.detections <- w.detections + 1;
      w.fs_shared <- true;
      if adaptive && not w.fs_active then begin
        w.switches <- w.switches + 1;
        w.fs_active <- true
      end
    end
  end;
  w.latest.(n.Notice.proc) <- Some (array_of_vc n.Notice.vc)

(* The summary's invariant, checked densely: a dominating slot's clock
   is componentwise at or above every recorded clock. *)
let check_summary name w =
  let e = entry w in
  if e.State.nw_dom >= 0 then begin
    let d = e.State.nw_vcs.(e.State.nw_dom) in
    for i = 0 to e.State.nw_len - 1 do
      if not (Vc.leq e.State.nw_vcs.(i) d) then
        Alcotest.fail (name "dominating slot does not cover a writer")
    done
  end

let check_effects name w =
  let e = entry w in
  let stats = w.cl.State.stats in
  if Stats.page_false_shared stats ~page <> w.fs_shared then
    Alcotest.fail (name "page_false_shared differs from the dense scan");
  if e.State.fs_active <> w.fs_active then
    Alcotest.fail (name "fs_active differs from the dense scan");
  if Stats.mode_switches stats <> w.switches then
    Alcotest.fail (name "mode switches differ from the dense scan");
  check_summary name w

(* Processor [p] closes an interval that wrote [page]. *)
let remote_close w p =
  let c = w.clocks.(p) in
  c.(p) <- c.(p) + 1;
  let vc = vc_of_array c in
  let n = { Notice.page; proc = p; seq = c.(p); vc; version = None } in
  w.ivals.(p) <- Interval.make_owned ~proc:p ~vc ~notices:[ n ] :: w.ivals.(p)

let merge_into dst src = Array.iteri (fun i v -> if v > dst.(i) then dst.(i) <- v) src

let obs_clock w = array_of_vc w.obs.State.vc

(* Node 0 acquires from [p]: every interval [p] has seen and node 0 has
   not goes through the real acquire path, one interval at a time in
   [apply_intervals]' order, so the effects are compared per notice.
   [rearm] (WFS only) clears the fs mode before each interval: with the
   mode already active the check is skipped, which would hide every
   later detection. *)
let acquire_from ?(rearm = false) name w p =
  let known = w.clocks.(p) in
  let fresh =
    List.concat
      (List.init writers (fun q ->
           if q = 0 then []
           else
             List.filter
               (fun (iv : Interval.t) ->
                 iv.Interval.seq > Vc.get w.obs.State.vc q
                 && iv.Interval.seq <= known.(q))
               w.ivals.(q)))
  in
  List.iter
    (fun (iv : Interval.t) ->
      if rearm && w.cl.State.cfg.Config.protocol = Config.Wfs then begin
        (entry w).State.fs_active <- false;
        w.fs_active <- false
      end;
      List.iter
        (fun (n : Notice.t) ->
          if State.covers_dominator (entry w) n.Notice.vc then
            w.fast <- w.fast + 1;
          reference_apply w n)
        iv.Interval.notices;
      Lrc_core.apply_intervals w.cl w.obs [ iv ];
      check_effects name w)
    (List.sort
       (fun (a : Interval.t) b -> Vc.order a.Interval.vc b.Interval.vc)
       fresh)

(* Node 0 closes an interval that wrote [page], through [end_interval]. *)
let own_close name w =
  let e = entry w in
  e.State.dirty <- true;
  w.obs.State.dirty_pages <- [ page ];
  Lrc_core.end_interval w.cl (module Adsm_dsm.Proto_sw) w.obs ~charge:ignore;
  w.latest.(0) <- Some (obs_clock w);
  check_effects name w

let test_summary_model () =
  List.iter
    (fun protocol ->
      for seed = 0 to 9 do
        let rs = Random.State.make [| 0x5d0; seed |] in
        let w = make_world protocol in
        for step = 1 to 300 do
          let name what =
            Printf.sprintf "%s seed %d, step %d: %s"
              (Config.protocol_name protocol) seed step what
          in
          let p = 1 + Random.State.int rs (writers - 1) in
          (match Random.State.int rs 20 with
          | 0 | 1 | 2 | 3 | 4 | 5 | 6 | 7 ->
            (* lock-ordered (migratory) write: [p] acquires from node 0,
               writes, releases back to node 0 *)
            merge_into w.clocks.(p) (obs_clock w);
            remote_close w p;
            acquire_from ~rearm:(Random.State.bool rs) name w p
          | 8 | 9 ->
            (* concurrent write: [p] writes without acquiring first *)
            remote_close w p;
            acquire_from ~rearm:(Random.State.bool rs) name w p
          | 10 | 11 ->
            (* [p] writes now, node 0 learns of it later *)
            remote_close w p
          | 12 | 13 ->
            (* knowledge moves between two other processors *)
            let q = 1 + Random.State.int rs (writers - 1) in
            merge_into w.clocks.(p) w.clocks.(q)
          | 14 | 15 | 16 | 17 -> own_close name w
          | 18 -> acquire_from ~rearm:(Random.State.bool rs) name w p
          | _ ->
            (* GC / crash wipe of the page's metadata *)
            State.clear_last_notices w.obs (entry w);
            Array.fill w.latest 0 writers None;
            check_effects name w)
        done;
        let name what =
          Printf.sprintf "%s seed %d: %s" (Config.protocol_name protocol) seed what
        in
        if w.detections = 0 then Alcotest.fail (name "no concurrent writer ever found");
        if w.fast = 0 then Alcotest.fail (name "the summary never held")
      done)
    [ Config.Wfs; Config.Mw ]

(* A long lock-ordered run keeps a dominating slot (every check is the
   O(1) fast path); one concurrent writer then drops the summary and is
   still detected, and the next ordered write's full scan re-derives
   the summary. *)
let test_summary_drops () =
  let w = make_world Config.Wfs in
  let name what = "dominating run: " ^ what in
  let ordered_write ?rearm p =
    merge_into w.clocks.(p) (obs_clock w);
    remote_close w p;
    acquire_from ?rearm name w p
  in
  (* Writers 1..5 in turn, node 0 closing every third step. *)
  for i = 1 to 60 do
    ordered_write (1 + (i mod (writers - 1)));
    if (entry w).State.nw_dom < 0 then Alcotest.fail (name "summary lost");
    if i mod 3 = 0 then own_close name w;
    if (entry w).State.nw_dom < 0 then
      Alcotest.fail (name "summary lost at own close")
  done;
  Alcotest.(check int) "every ordered notice took the fast path" 59 w.fast;
  Alcotest.(check bool) "ordered writes are not false sharing" false
    (Stats.page_false_shared w.cl.State.stats ~page);
  (* Writer 2 last acquired at step 56: four writers and an own close
     have happened since, none of which it has seen. *)
  remote_close w 2;
  acquire_from name w 2;
  Alcotest.(check bool) "concurrent writer detected" true
    (Stats.page_false_shared w.cl.State.stats ~page);
  Alcotest.(check bool) "fs mode switched to MW" true (entry w).State.fs_active;
  Alcotest.(check int) "summary dropped" (-1) (entry w).State.nw_dom;
  ordered_write 3 ~rearm:true;
  if (entry w).State.nw_dom < 0 then
    Alcotest.fail "the full scan did not re-derive the summary"

(* ------------------------------------------------------------------ *)
(* Epoch journal: collect_unseen vs the dense walk over every log       *)
(* ------------------------------------------------------------------ *)

(* A whole cluster's interval traffic through the real State/Lrc_core
   paths: own closes ([end_interval]), lock grants ([collect_unseen] at
   the holder, [apply_intervals] at the acquirer), central and combining
   tree barriers (arrival clocks in the reused [barrier_vc], subtree
   minimums, the children's releases computed BEFORE the parent's
   [barrier_rebase]), GC purges, crash rollbacks with a zero-clock
   recovery round, and bursts of more distinct writers than the journal
   holds.  After every step each sampled node answers [collect_unseen]
   for clocks above its last-barrier snapshot (its own and its peers'
   clocks, arrival clocks, merged clocks) and below it (stale copies
   from older epochs, a decreased copy, a baseless rebuild, zero); the
   answer must be exactly the naive walk over all logs. *)

let jprocs = 70 (* above the journal's capacity, so bursts overflow it *)

let jpage = 0

let make_jcluster () =
  let cfg = Config.make ~protocol:Config.Mw ~nprocs:jprocs () in
  let engine = Adsm_sim.Engine.create ~lanes:jprocs () in
  {
    State.cfg;
    engine;
    rpc = Adsm_net.Rpc.create engine cfg.Config.net ~nodes:jprocs;
    layout = Adsm_mem.Layout.create ();
    nodes =
      Array.init jprocs (fun id -> State.make_node ~cfg ~id ~total_pages:1);
    stats = Stats.create ~nprocs:jprocs ();
    barrier_mgr =
      {
        State.epoch = 0;
        arrived = 0;
        arrivals = [];
        gc_requested = false;
        gc_done_count = 0;
      };
    next_lock = 0;
    running = 0;
    tracer = Adsm_trace.Tracer.disabled;
    recorder = Adsm_check.Recorder.disabled;
    diff_scratch = Adsm_dsm.Diff.make_scratch ();
  }

(* The reference: every retained interval [vc] does not cover, grouped by
   ascending processor, each log newest-first. *)
let naive_unseen (node : State.node) vc =
  List.concat
    (List.init jprocs (fun p ->
         let l = node.State.intervals.(p) in
         let got = ref [] in
         for k = 0 to Interval.Log.length l - 1 do
           let iv = Interval.Log.get l k in
           if iv.Interval.seq > Vc.get vc p then got := iv :: !got
         done;
         !got))

let keys =
  List.map (fun (iv : Interval.t) -> (iv.Interval.proc, iv.Interval.seq))

type jworld = {
  jcl : State.cluster;
  mutable jepoch : int;
  ckpts : Vc.t array;  (* each node's clock at its last barrier leave *)
  mutable stale : Vc.t list;  (* copies of clocks from older epochs *)
  mutable fast : int;  (* checked queries eligible for the journal walk *)
  mutable dense : int;  (* checked queries that had to walk every log *)
  mutable overflows : int;
}

let jnode w k = w.jcl.State.nodes.(k)

let check_collect name w (node : State.node) vc =
  if State.journal_valid node
     && Vc.dominates_snapshot vc ~snapshot:node.State.last_barrier_vc
  then w.fast <- w.fast + 1
  else w.dense <- w.dense + 1;
  let got = Lrc_core.collect_unseen w.jcl node vc in
  if keys got <> keys (naive_unseen node vc) then
    Alcotest.failf "%s: collect_unseen at node %d differs from the dense walk"
      name node.State.id;
  got

let jown_close w k =
  let node = jnode w k in
  (State.entry_of node jpage).State.dirty <- true;
  node.State.dirty_pages <- [ jpage ];
  Lrc_core.end_interval w.jcl (module Adsm_dsm.Proto_sw) node ~charge:ignore

(* [i] acquires a lock last held by [j]. *)
let jgrant name w i j =
  jown_close w j;
  let ivs = check_collect name w (jnode w j) (Vc.copy (jnode w i).State.vc) in
  Lrc_core.apply_intervals w.jcl (jnode w i) ivs

let own_since_barrier (node : State.node) =
  Interval.Log.unseen_by node.State.last_barrier_vc ~proc:node.State.id
    node.State.intervals.(node.State.id) []

let leave w k =
  let node = jnode w k in
  State.barrier_rebase node ~epoch:(w.jepoch + 1);
  w.ckpts.(k) <- Vc.copy node.State.vc

let jbarrier_central name w =
  let nodes = w.jcl.State.nodes in
  let arrivals =
    Array.map
      (fun (node : State.node) ->
        Vc.copy_into ~src:node.State.vc ~dst:node.State.barrier_vc;
        own_since_barrier node)
      nodes
  in
  let manager = nodes.(0) in
  Lrc_core.apply_intervals w.jcl manager (List.concat (Array.to_list arrivals));
  let releases =
    Array.map
      (fun (node : State.node) ->
        check_collect name w manager node.State.barrier_vc)
      nodes
  in
  Array.iteri
    (fun k ivs ->
      Lrc_core.apply_intervals w.jcl nodes.(k) ivs;
      leave w k)
    releases

(* Fanout-3 combining tree rooted at node 0, like [Sync]'s. *)
let jfanout = 3

let jchildren k =
  List.filter
    (fun c -> c < jprocs)
    (List.init jfanout (fun i -> (k * jfanout) + 1 + i))

let jbarrier_tree name w =
  let nodes = w.jcl.State.nodes in
  let up = Array.make jprocs [] in
  for k = jprocs - 1 downto 0 do
    let node = nodes.(k) in
    Vc.copy_into ~src:node.State.vc ~dst:node.State.barrier_vc;
    up.(k) <- own_since_barrier node;
    List.iter
      (fun c ->
        Vc.min_into node.State.barrier_vc nodes.(c).State.barrier_vc;
        up.(k) <- up.(c) @ up.(k))
      (jchildren k)
  done;
  let release = Array.make jprocs [] in
  release.(0) <- up.(0);
  for k = 0 to jprocs - 1 do
    Lrc_core.apply_intervals w.jcl nodes.(k) release.(k);
    (* Children's releases against the ending epoch's journal, then the
       rebase — the order [Sync.barrier] must keep. *)
    List.iter
      (fun c ->
        release.(c) <- check_collect name w nodes.(k) nodes.(c).State.barrier_vc)
      (jchildren k);
    leave w k
  done

let jbarrier name w rs =
  w.stale <-
    Vc.copy (jnode w (Random.State.int rs jprocs)).State.vc
    :: List.filteri (fun k _ -> k < 8) w.stale;
  if Random.State.bool rs then jbarrier_central name w else jbarrier_tree name w;
  w.jepoch <- w.jepoch + 1;
  let sup = (jnode w 0).State.vc in
  Array.iter
    (fun (node : State.node) ->
      if not (Vc.equal node.State.vc sup) then
        Alcotest.failf "%s: node %d left the barrier without the supremum" name
          node.State.id;
      if not (Vc.equal node.State.last_barrier_vc sup) then
        Alcotest.failf "%s: node %d's last-barrier snapshot is not the supremum"
          name node.State.id)
    w.jcl.State.nodes;
  (* A clock on a private snapshot of this epoch keeps a current stamp
     forever: in later epochs it is the "based on an older barrier" case
     the journal must refuse. *)
  let snap = Vc.copy sup in
  let q = Vc.copy sup in
  Vc.rebase ~epoch:w.jepoch q ~base:snap;
  Vc.tick q ~proc:(Random.State.int rs jprocs);
  w.stale <- q :: w.stale

(* Fail-stop of node [k]: the volatile logs and the clock roll back to
   the last barrier, then a recovery round asks every peer for its whole
   retained log (a zero clock) — [Sync.crash_pause]'s state changes. *)
let jcrash name w k =
  let node = jnode w k in
  jown_close w k;
  let own_seq = Vc.get node.State.vc k in
  for p = 0 to jprocs - 1 do
    if p <> k then Interval.Log.clear node.State.intervals.(p)
  done;
  State.journal_invalidate node;
  Vc.blit_into ~src:w.ckpts.(k) ~dst:node.State.vc;
  Vc.blit_into ~src:w.ckpts.(k) ~dst:node.State.last_barrier_vc;
  Vc.set node.State.vc k own_seq;
  let seen = Hashtbl.create 64 in
  let all = ref [] in
  Array.iter
    (fun (peer : State.node) ->
      if peer.State.id <> k then
        List.iter
          (fun (iv : Interval.t) ->
            let key = (iv.Interval.proc, iv.Interval.seq) in
            if iv.Interval.proc <> k && not (Hashtbl.mem seen key) then begin
              Hashtbl.add seen key ();
              all := iv :: !all
            end)
          (check_collect name w peer (Vc.zero ~nprocs:jprocs)))
    w.jcl.State.nodes;
  let covered, uncovered =
    List.partition
      (fun (iv : Interval.t) ->
        iv.Interval.seq <= Vc.get node.State.vc iv.Interval.proc)
      !all
  in
  List.iter
    (fun (iv : Interval.t) ->
      State.log_append node iv;
      List.iter (Lrc_core.apply_notice ~replay:true w.jcl node) iv.Interval.notices)
    (List.sort
       (fun (a : Interval.t) b -> Vc.order a.Interval.vc b.Interval.vc)
       covered);
  Lrc_core.apply_intervals ~replay:true w.jcl node uncovered

let check_world name w rs =
  let probes =
    List.init 6 (fun _ -> Random.State.int rs jprocs)
  in
  List.iter
    (fun k ->
      let node = jnode w k in
      let other = jnode w (Random.State.int rs jprocs) in
      let merged = Vc.copy node.State.vc in
      Vc.merge_into merged other.State.vc;
      let lowered = Vc.copy node.State.vc in
      let p = Random.State.int rs jprocs in
      if Vc.get lowered p > 0 then Vc.set lowered p (Vc.get lowered p - 1);
      let rebuilt = Vc.zero ~nprocs:jprocs in
      for q = 0 to jprocs - 1 do
        Vc.set rebuilt q (Vc.get other.State.vc q)
      done;
      List.iter
        (fun vc -> ignore (check_collect name w node vc))
        ([
           Vc.copy node.State.vc;
           Vc.copy other.State.vc;
           other.State.barrier_vc;
           merged;
           lowered;
           rebuilt;
           Vc.zero ~nprocs:jprocs;
         ]
        @ w.stale))
    probes

let test_journal_model () =
  let totals = ref (0, 0, 0) in
  for seed = 0 to 5 do
    let rs = Random.State.make [| 0x10C; seed |] in
    let w =
      {
        jcl = make_jcluster ();
        jepoch = 0;
        ckpts = Array.init jprocs (fun _ -> Vc.zero ~nprocs:jprocs);
        stale = [];
        fast = 0;
        dense = 0;
        overflows = 0;
      }
    in
    for step = 1 to 150 do
      let name = Printf.sprintf "seed %d, step %d" seed step in
      let i = Random.State.int rs jprocs and j = Random.State.int rs jprocs in
      (match Random.State.int rs 20 with
      | 0 | 1 | 2 | 3 | 4 | 5 -> jown_close w i
      | 6 | 7 | 8 | 9 | 10 | 11 -> if i <> j then jgrant name w i j
      | 12 | 13 | 14 -> jbarrier name w rs
      | 15 ->
        (* GC: right after a barrier every node knows everything, and the
           purge drops every log *)
        jbarrier name w rs;
        Array.iter
          (fun (node : State.node) ->
            Array.iter Interval.Log.clear node.State.intervals)
          w.jcl.State.nodes
      | 16 -> jcrash name w i
      | 17 ->
        (* a burst: more distinct writers than journal slots, all learned
           by one node before the next barrier *)
        for k = 0 to jprocs - 1 do
          jgrant name w i k
        done;
        if not (State.journal_valid (jnode w i)) then
          w.overflows <- w.overflows + 1
      | _ -> ());
      check_world name w rs
    done;
    let f, d, o = !totals in
    totals := (f + w.fast, d + w.dense, o + w.overflows)
  done;
  let fast, dense, overflows = !totals in
  if fast < 1000 then Alcotest.failf "journal walk exercised only %d times" fast;
  if dense < 1000 then Alcotest.failf "dense walk exercised only %d times" dense;
  if overflows = 0 then Alcotest.fail "the journal never overflowed";
  Alcotest.(check int) "the shared empty log stays empty" 0
    (Interval.Log.length Interval.Log.empty)

let () =
  Alcotest.run "model"
    [
      ( "vc",
        [
          Alcotest.test_case "summarized vs naive (seeded)" `Quick test_vc_model;
          Alcotest.test_case "barrier copies and minimums (seeded)" `Quick
            test_barrier_clocks;
        ] );
      ( "interval-log",
        [ Alcotest.test_case "indexed vs naive (seeded)" `Quick test_log_model ]
      );
      ( "epoch-journal",
        [
          Alcotest.test_case "journal walk vs dense walk (seeded)" `Quick
            test_journal_model;
        ] );
      ( "writer-summary",
        [
          Alcotest.test_case "summarized vs dense scan (seeded)" `Quick
            test_summary_model;
          Alcotest.test_case "concurrent writer after a dominating run" `Quick
            test_summary_drops;
        ] );
    ]
