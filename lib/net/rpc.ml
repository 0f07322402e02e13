module Engine = Adsm_sim.Engine
module Proc = Adsm_sim.Proc

type 'msg respond = bytes:int -> kind:Kind.t -> 'msg -> unit

type 'msg handler = src:int -> 'msg -> 'msg respond option -> unit

(* Request ids and the pending-reply tables are sharded per caller node:
   ids are never observable (they ride inside the envelope and cost no
   wire bytes beyond the fixed header), and a reply is always delivered
   back to the node that issued the call, so each node can match replies
   out of its own table. *)
type 'msg t = {
  engine : Engine.t;
  net : 'msg Envelope.t Network.t;
  next_ids : int array;
  pendings : (int, 'msg Proc.Ivar.t) Hashtbl.t array;
  handlers : 'msg handler option array;
  pool : 'msg Envelope.pool;  (* envelope free pool *)
}

let create_topo engine topo ~nodes =
  let t =
    {
      engine;
      net = Network.create_topo engine topo ~nodes;
      next_ids = Array.make nodes 0;
      pendings = Array.init nodes (fun _ -> Hashtbl.create 16);
      handlers = Array.make nodes None;
      pool = Envelope.create_pool ();
    }
  in
  for node = 0 to nodes - 1 do
    Network.set_handler t.net ~node (fun ~src env ->
        (* Extract everything, then release: a recycled envelope may be
           overwritten by any send the handler makes. *)
        let tag = env.Envelope.tag in
        let id = env.Envelope.id in
        let msg = env.Envelope.payload in
        Envelope.release t.pool env;
        match tag with
        | Envelope.Reply -> (
          let pending = t.pendings.(node) in
          match Hashtbl.find_opt pending id with
          | Some ivar ->
            Hashtbl.remove pending id;
            Proc.Ivar.fill t.engine ivar msg
          | None ->
            failwith (Printf.sprintf "Rpc: unexpected reply id %d" id))
        | Envelope.Request -> (
          match t.handlers.(node) with
          | None -> failwith (Printf.sprintf "Rpc: node %d has no handler" node)
          | Some h ->
            let respond ~bytes ~kind reply =
              Network.send t.net ~src:node ~dst:src ~bytes ~kind
                (Envelope.make t.pool Envelope.Reply ~id reply)
            in
            h ~src msg (Some respond))
        | Envelope.Oneway -> (
          match t.handlers.(node) with
          | None -> failwith (Printf.sprintf "Rpc: node %d has no handler" node)
          | Some h -> h ~src msg None))
  done;
  t

let create engine cfg ~nodes = create_topo engine (Topology.flat cfg) ~nodes

let nodes t = Network.nodes t.net

let network t = t.net

let set_monitor t monitor = Network.set_monitor t.net monitor

let set_handler t ~node h = t.handlers.(node) <- Some h

let call_async t ~src ~dst ~bytes ~kind msg =
  let id = t.next_ids.(src) in
  t.next_ids.(src) <- id + 1;
  let ivar = Proc.Ivar.create () in
  Hashtbl.replace t.pendings.(src) id ivar;
  Network.send t.net ~src ~dst ~bytes ~kind
    (Envelope.make t.pool Envelope.Request ~id msg);
  ivar

let call t ~src ~dst ~bytes ~kind msg =
  Proc.Ivar.await (call_async t ~src ~dst ~bytes ~kind msg)

let cast t ~src ~dst ~bytes ~kind msg =
  Network.send t.net ~src ~dst ~bytes ~kind
    (Envelope.make t.pool Envelope.Oneway ~id:0 msg)
