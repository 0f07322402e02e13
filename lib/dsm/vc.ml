(* Vector timestamps with cached summaries and delta tracking.

   A clock is a dense [int array] plus three kinds of bookkeeping that
   make the large-n hot paths cheap without changing any observable
   result:

   - [sum], the cached component sum, maintained incrementally by every
     mutator.  [order] on concurrent clocks tie-breaks by (sum, lex), and
     the domination cases are themselves sum-ordered (if [a <= b]
     componentwise with any strict component then [sum a < sum b]), so
     the whole total order collapses to "compare sums, then lex" — O(1)
     whenever the sums differ, which is the common case on the
     diff-apply and interval-sort paths.

   - [ver], a last-modified epoch: bumped on every content change, it
     gives a cheap identity for "has this clock changed since I looked".

   - a dirty-component set relative to a [base] clock (the owner's
     last-barrier knowledge, recorded by [rebase]): [delta_size_bytes]
     against that exact base counts only the components touched since
     the barrier instead of scanning all [nprocs].  The fast path is
     taken only when the [since] argument IS the recorded base (same
     physical clock, unchanged [ver]), so the counted bytes are exactly
     what the dense scan would produce; any other pairing falls back to
     the scan. *)

type t = {
  c : int array;
  mutable sum : int;
  mutable ver : int;
  mutable base : t option;
  mutable base_ver : int;
  mutable dirty : int array;  (* distinct component indices, [ndirty] live *)
  mutable ndirty : int;  (* -1 = overflowed: fall back to dense scans *)
  mutable epoch : int;  (* >= 0 iff this clock is a stamped epoch base *)
  mutable epoch_ver : int;  (* [ver] at the moment of stamping *)
  mutable mono : bool;
      (* every component is at or above the base's: set by the rebase,
         kept by growth and by a same-epoch [min_into] *)
  mutable dcache_epoch : int;  (* epoch of the cached delta count, -1 none *)
  mutable dcache_ver : int;  (* [ver] when the count was cached *)
  mutable dcache : int;  (* differing components vs that epoch's content *)
}

(* Epoch bases.  At the completion of barrier [e], EVERY node's clock
   equals the same global supremum, and each node records it as its
   last-barrier snapshot: all clocks stamped with epoch [e] therefore
   have identical components.  That turns the base identity from a
   physical one (same clock object) into a logical one — a clock whose
   recorded base carries the same epoch stamp as [since] (both stamps
   current, guarded by the [*_ver] fields) is delta-comparable against
   [since] through its dirty set alone, even on another node.  A clock
   that merely matches epoch NUMBERS from different stampings of the
   same object (the tree barrier blits one object per node forever)
   fails the [base_ver = epoch_ver] guard and falls back to the scan. *)
let same_epoch_base t other_base =
  t.ndirty >= 0
  &&
  match t.base with
  | Some b ->
    (b == other_base && t.base_ver = other_base.ver)
    || (b.epoch >= 0 && b.epoch = other_base.epoch
       && t.base_ver = b.epoch_ver)
  | None -> false

(* Enough slots for a node's own writes plus a few lock-carried merges
   between barriers; overflowing just reverts to the dense behavior. *)
let dirty_cap = 12

let zero ~nprocs =
  if nprocs <= 0 then invalid_arg "Vc.zero: nprocs must be positive";
  {
    c = Array.make nprocs 0;
    sum = 0;
    ver = 0;
    base = None;
    base_ver = 0;
    dirty = [||];
    ndirty = 0;
    epoch = -1;
    epoch_ver = 0;
    mono = false;
    dcache_epoch = -1;
    dcache_ver = 0;
    dcache = 0;
  }

let copy t =
  {
    c = Array.copy t.c;
    sum = t.sum;
    ver = 0;
    base = t.base;
    base_ver = t.base_ver;
    (* an empty or overflowed dirty set has no slots worth copying *)
    dirty = (if t.ndirty <= 0 then [||] else Array.copy t.dirty);
    ndirty = t.ndirty;
    epoch = -1;  (* being an epoch base is not inherited *)
    epoch_ver = 0;
    mono = t.mono;
    dcache_epoch = -1;  (* keyed to [ver], which restarts at 0 *)
    dcache_ver = 0;
    dcache = 0;
  }

let nprocs t = Array.length t.c

let get t i = t.c.(i)

let touched t =
  t.ver <- t.ver + 1

let mark_dirty t i =
  if t.ndirty >= 0 then begin
    if Array.length t.dirty = 0 then t.dirty <- Array.make dirty_cap 0;
    let rec known j = j < t.ndirty && (t.dirty.(j) = i || known (j + 1)) in
    if not (known 0) then
      if t.ndirty = Array.length t.dirty then t.ndirty <- -1
      else begin
        t.dirty.(t.ndirty) <- i;
        t.ndirty <- t.ndirty + 1
      end
  end

let set t i v =
  if t.c.(i) <> v then begin
    if v < t.c.(i) then t.mono <- false;
    t.sum <- t.sum + v - t.c.(i);
    t.c.(i) <- v;
    touched t;
    mark_dirty t i
  end

let tick t ~proc =
  t.c.(proc) <- t.c.(proc) + 1;
  t.sum <- t.sum + 1;
  touched t;
  mark_dirty t proc

(* [a]'s recorded base is an epoch stamp that was current when [a] was
   rebased onto it: [a]'s non-dirty components equal that epoch's
   snapshot, whatever the base object holds now. *)
let stamped_base a =
  match a.base with
  | Some b when b.epoch >= 0 && a.base_ver = b.epoch_ver -> b.epoch
  | _ -> -1

let merge_into t other =
  if t != other then begin
    if Array.length t.c <> Array.length other.c then
      invalid_arg "Vc.merge_into: size mismatch";
    let changed = ref false in
    let bump i v =
      t.sum <- t.sum + v - t.c.(i);
      t.c.(i) <- v;
      mark_dirty t i;
      changed := true
    in
    (* Same-epoch shortcut: [other]'s non-dirty components equal the
       shared epoch base, and [t] has only grown past that base since
       its own rebase — only [other]'s dirty components can exceed
       [t]'s.  This is the O(active components) merge on the interval
       apply path; anything unprovable takes the dense loop. *)
    let fast =
      t.mono && other.ndirty >= 0
      &&
      let e = stamped_base t in
      e >= 0 && stamped_base other = e
    in
    if fast then
      for j = 0 to other.ndirty - 1 do
        let i = other.dirty.(j) in
        if other.c.(i) > t.c.(i) then bump i other.c.(i)
      done
    else
      for i = 0 to Array.length t.c - 1 do
        if other.c.(i) > t.c.(i) then bump i other.c.(i)
      done;
    if !changed then touched t
  end

let check_width what a b =
  if Array.length a.c <> Array.length b.c then
    invalid_arg ("Vc." ^ what ^ ": size mismatch")

(* Bookkeeping once [dst]'s components are [src]'s: any epoch stamp
   [dst] carried no longer describes its content. *)
let overwritten ~src ~dst =
  dst.sum <- src.sum;
  touched dst;
  dst.epoch <- -1

(* The new content bears no relation to [dst]'s old base. *)
let drop_base t =
  t.base <- None;
  t.ndirty <- 0;
  t.mono <- false

let blit_into ~src ~dst =
  check_width "blit_into" src dst;
  Array.blit src.c 0 dst.c 0 (Array.length src.c);
  overwritten ~src ~dst;
  drop_base dst

let blit_changed ~src ~dst ~changed ~len =
  check_width "blit_changed" src dst;
  for k = 0 to len - 1 do
    let i = changed.(k) in
    dst.c.(i) <- src.c.(i)
  done;
  overwritten ~src ~dst;
  drop_base dst

let copy_into ~src ~dst =
  if src != dst then begin
    check_width "copy_into" src dst;
    Array.blit src.c 0 dst.c 0 (Array.length src.c);
    overwritten ~src ~dst;
    dst.base <- src.base;
    dst.base_ver <- src.base_ver;
    if src.ndirty > 0 then begin
      if Array.length dst.dirty = 0 then dst.dirty <- Array.make dirty_cap 0;
      Array.blit src.dirty 0 dst.dirty 0 src.ndirty
    end;
    dst.ndirty <- src.ndirty;
    dst.mono <- src.mono
  end

let min_into t other =
  if t != other then begin
    if Array.length t.c <> Array.length other.c then
      invalid_arg "Vc.min_into: size mismatch";
    let changed = ref false in
    (* Same-epoch shortcut: outside its dirty set [t] equals the shared
       epoch snapshot, which [other] (mono) is at or above — only [t]'s
       dirty components can shrink.  The minimum of two clocks at or
       above the snapshot is still at or above it, so [mono] survives;
       the dense path cannot tell and clears it. *)
    let e = stamped_base t in
    if e >= 0 && t.ndirty >= 0 && other.mono && stamped_base other = e then
      for j = 0 to t.ndirty - 1 do
        let i = t.dirty.(j) in
        if other.c.(i) < t.c.(i) then begin
          t.sum <- t.sum + other.c.(i) - t.c.(i);
          t.c.(i) <- other.c.(i);
          changed := true
        end
      done
    else
      for i = 0 to Array.length t.c - 1 do
        if other.c.(i) < t.c.(i) then begin
          t.sum <- t.sum + other.c.(i) - t.c.(i);
          t.c.(i) <- other.c.(i);
          mark_dirty t i;
          changed := true;
          t.mono <- false
        end
      done;
    if !changed then touched t
  end

let rebase ?(epoch = -1) t ~base =
  if epoch >= 0 then begin
    base.epoch <- epoch;
    base.epoch_ver <- base.ver
  end;
  t.base <- Some base;
  t.base_ver <- base.ver;
  t.ndirty <- 0;
  t.mono <- true

let same_components a b =
  let n = Array.length a.c in
  let rec go i = i = n || (a.c.(i) = b.c.(i) && go (i + 1)) in
  go 0

let equal a b =
  a == b
  || (Array.length a.c = Array.length b.c
     && a.sum = b.sum
     && same_components a b)

let leq a b =
  a == b
  ||
  (if Array.length a.c <> Array.length b.c then
     invalid_arg "Vc.leq: size mismatch";
   if a.sum > b.sum then false
   else if a.sum = b.sum then
     (* Equal sums: domination with any strict component is impossible,
        so [a <= b] iff the clocks are equal. *)
     same_components a b
   else
     (* Same-epoch shortcut: [a]'s non-dirty components equal the
        shared epoch base, which [b] has only grown past — only [a]'s
        dirty components can decide. *)
     let fast =
       a.ndirty >= 0 && b.mono
       &&
       let e = stamped_base a in
       e >= 0 && stamped_base b = e
     in
     if fast then begin
       let rec go j =
         j >= a.ndirty
         ||
         let i = a.dirty.(j) in
         a.c.(i) <= b.c.(i) && go (j + 1)
       in
       go 0
     end
     else
       let n = Array.length a.c in
       let rec go i = i = n || (a.c.(i) <= b.c.(i) && go (i + 1)) in
       go 0)

let concurrent a b = (not (leq a b)) && not (leq b a)

(* Epoch supremums only grow (E_e' >= E_e for e' >= e), so a mono clock
   based on a stamp of epoch [e'] is at or above every epoch-[e]
   snapshot with [e <= e'] — no component read needed. *)
let dominates_snapshot t ~snapshot =
  t.mono && snapshot.epoch >= 0
  && snapshot.epoch_ver = snapshot.ver
  && stamped_base t >= snapshot.epoch

let sum t = t.sum

(* Lexicographic comparison on the components, avoiding the polymorphic
   [compare] (the clock sort on every diff-apply path goes through
   [order]). *)
let lex a b =
  let n = Array.length a.c in
  let rec go i =
    if i = n then 0
    else
      let c = Int.compare a.c.(i) b.c.(i) in
      if c <> 0 then c else go (i + 1)
  in
  go 0

(* The historical order was: dominated-first, concurrent clocks broken by
   (sum, lex).  Domination implies a strictly smaller sum, concurrency
   with distinct sums is already decided by the sum, and equal sums rule
   out domination entirely — so the whole thing IS "(sum, lex)", with the
   sums cached this is O(1) unless the sums collide. *)
let order a b =
  if a == b then 0
  else
    let c = Int.compare a.sum b.sum in
    if c <> 0 then c else lex a b

let size_bytes t = 4 * Array.length t.c

(* Delta encoding against a clock the receiver is known to share (the
   sender's last-barrier knowledge): an 8-byte header plus an
   (index, value) pair per differing component.  When [since] is exactly
   the clock's recorded [rebase] base and has not changed since, only the
   components touched since the rebase can differ — count those instead
   of scanning all of them. *)
let delta_size_bytes ~since t =
  if Array.length since.c <> Array.length t.c then
    invalid_arg "Vc.delta_size_bytes: size mismatch";
  let changed = ref 0 in
  let fast =
    same_epoch_base t since
    && (since.epoch < 0 || since.epoch_ver = since.ver)
  in
  if fast then
    for j = 0 to t.ndirty - 1 do
      let i = t.dirty.(j) in
      if t.c.(i) <> since.c.(i) then incr changed
    done
  else if since.epoch >= 0 && since.epoch_ver = since.ver then begin
    (* [since] is a current epoch snapshot, so the count against it is a
       pure function of ([t]'s content, the epoch): cache it on [t].
       Interval timestamps are immutable and get sized once per receiver
       they are relayed to — the dense scan runs once instead of
       O(receivers) times. *)
    if t.dcache_epoch = since.epoch && t.dcache_ver = t.ver then
      changed := t.dcache
    else begin
      for i = 0 to Array.length t.c - 1 do
        if t.c.(i) <> since.c.(i) then incr changed
      done;
      t.dcache_epoch <- since.epoch;
      t.dcache_ver <- t.ver;
      t.dcache <- !changed
    end
  end
  else
    for i = 0 to Array.length t.c - 1 do
      if t.c.(i) <> since.c.(i) then incr changed
    done;
  8 + (8 * !changed)

let pp ppf t =
  Format.fprintf ppf "<%a>"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_char ppf ',')
       Format.pp_print_int)
    (Array.to_list t.c)
