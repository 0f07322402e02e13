(* Exact expected outputs of fixed simulation cells.

   A pin records what one deterministic run produced: simulated time,
   events executed, message and wire-byte totals, the application
   checksum, per-kind traffic, and (when the cell is traced) the MD5 of
   its JSONL trace bytes.  The tables were recorded from the simulator
   and must only change together with a deliberate change in simulated
   behaviour. *)

module Runner = Adsm_harness.Runner
module Registry = Adsm_apps.Registry
module Trace = Adsm_trace

type t = {
  cell : string;
  time_ns : int;
  events : int;
  messages : int;
  wire_bytes : int;
  checksum : float;
  trace_md5 : string option;  (* [None]: the cell runs untraced *)
  by_kind : (string * (int * int)) list;
}

let find table cell =
  match List.find_opt (fun p -> p.cell = cell) table with
  | Some p -> p
  | None -> Alcotest.fail ("no pin for cell " ^ cell)

let app name =
  match Registry.find name with
  | Some a -> a
  | None -> Alcotest.fail ("unknown app " ^ name)

(* Run [pin]'s cell at tiny scale, tracing to JSONL when the pin carries
   a trace digest, and compare every pinned field. *)
let check ?(tweak = Fun.id) ?faults ~app ~protocol ~nprocs pin =
  let buf = Buffer.create 4096 in
  let tracer =
    Option.map
      (fun _ -> Trace.Tracer.create [ Trace.Sink.jsonl (Buffer.add_string buf) ])
      pin.trace_md5
  in
  let m =
    Runner.run ?tracer
      (Runner.cell ~scale:Registry.Tiny ~tweak ?faults ~protocol ~nprocs
         app.Registry.name)
  in
  Option.iter Trace.Tracer.close tracer;
  let name field = pin.cell ^ " " ^ field in
  Alcotest.(check int) (name "time_ns") pin.time_ns m.Runner.time_ns;
  Alcotest.(check int) (name "events") pin.events m.Runner.events;
  Alcotest.(check int) (name "messages") pin.messages m.Runner.messages;
  Alcotest.(check int) (name "wire_bytes") pin.wire_bytes m.Runner.wire_bytes;
  Alcotest.(check (float 0.)) (name "checksum") pin.checksum m.Runner.checksum;
  Alcotest.(check (list (pair string (pair int int))))
    (name "by_kind") pin.by_kind m.Runner.by_kind;
  Option.iter
    (fun md5 ->
      Alcotest.(check string) (name "trace md5") md5
        (Digest.to_hex (Digest.string (Buffer.contents buf))))
    pin.trace_md5;
  m
