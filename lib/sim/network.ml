type latency_model =
  | Fixed of float
  | Uniform of float * float
  | Lognormal of { mu : float; sigma : float; floor : float }

type config = {
  latency : latency_model;
  drop_probability : float;
  seed : int;
  node_capacity : float option;
}

let datacenter_config ~seed =
  { latency = Uniform (0.0005, 0.002); drop_probability = 0.0; seed; node_capacity = None }

let wan_config ~seed =
  (* Median ~ exp(mu) = 80 ms; sigma gives occasional multi-second
     stragglers, matching Fig 8's Async tail. *)
  {
    latency = Lognormal { mu = log 0.08; sigma = 0.6; floor = 0.02 };
    drop_probability = 0.001;
    seed;
    node_capacity = None;
  }

(* Per-node state lives in flat arrays indexed by the dense node id
   (see Atum_util.Arena): handler dispatch, partition tags, the
   crashed set and the per-node service-queue tail are all O(1) array
   reads with no hashing.  Arrays grow on registration; ids beyond
   the high-water mark behave like unregistered nodes. *)
type 'msg t = {
  engine : Engine.t;
  config : config;
  rng : Atum_util.Rng.t;
  mutable handlers : (src:int -> 'msg -> unit) option array;
  mutable partitions : int array; (* 0 = default partition *)
  mutable crashed : bool array;
  mutable ready : float array; (* per-node processing queue tail; 0 = idle *)
  mutable cap : int; (* length of the arrays above *)
  mutable crashed_count : int;
  mutable tagged_count : int; (* nodes with a nonzero partition tag *)
  metrics : Metrics.t;
  trace : Trace.t option;
  mutable sent : int;
  mutable delivered : int;
  mutable dropped : int;
  mutable bytes : int;
  (* Fault-injection overrides (see Fault).  All identity by default,
     so an undisturbed run is bit-identical to one without the fields. *)
  mutable loss_boost : float; (* added to config.drop_probability *)
  mutable latency_factor : float; (* multiplies each sampled transit latency *)
  mutable capacity_factor : float; (* multiplies node_capacity (degrade < 1.0) *)
  mutable post_heal : bool; (* a heal/recover happened; label deliveries *)
}

let create ?metrics ?trace engine config =
  {
    engine;
    config;
    rng = Atum_util.Rng.create config.seed;
    handlers = Array.make 256 None;
    partitions = Array.make 256 0;
    crashed = Array.make 256 false;
    ready = Array.make 256 0.0;
    cap = 256;
    crashed_count = 0;
    tagged_count = 0;
    metrics = (match metrics with Some m -> m | None -> Metrics.create ());
    trace;
    sent = 0;
    delivered = 0;
    dropped = 0;
    bytes = 0;
    loss_boost = 0.0;
    latency_factor = 1.0;
    capacity_factor = 1.0;
    post_heal = false;
  }

let engine t = t.engine
let metrics t = t.metrics
let trace t = t.trace

let ensure t node =
  if node >= t.cap then begin
    let cap = max (node + 1) (2 * t.cap) in
    let handlers = Array.make cap None in
    Array.blit t.handlers 0 handlers 0 t.cap;
    let partitions = Array.make cap 0 in
    Array.blit t.partitions 0 partitions 0 t.cap;
    let crashed = Array.make cap false in
    Array.blit t.crashed 0 crashed 0 t.cap;
    let ready = Array.make cap 0.0 in
    Array.blit t.ready 0 ready 0 t.cap;
    t.handlers <- handlers;
    t.partitions <- partitions;
    t.crashed <- crashed;
    t.ready <- ready;
    t.cap <- cap
  end

let register t node handler =
  ensure t node;
  t.handlers.(node) <- Some handler

let unregister t node = if node < t.cap then t.handlers.(node) <- None

let handler_of t node = if node < t.cap then t.handlers.(node) else None

let sample_latency t =
  match t.config.latency with
  | Fixed d -> d
  | Uniform (lo, hi) -> lo +. Atum_util.Rng.float t.rng (hi -. lo)
  | Lognormal { mu; sigma; floor } ->
    Float.max floor (Atum_util.Rng.lognormal t.rng ~mu ~sigma)

let partition_of t node = if node < t.cap then t.partitions.(node) else 0

let set_partition t node tag =
  ensure t node;
  let old = t.partitions.(node) in
  if old = 0 && tag <> 0 then t.tagged_count <- t.tagged_count + 1
  else if old <> 0 && tag = 0 then t.tagged_count <- t.tagged_count - 1;
  t.partitions.(node) <- tag

let heal t =
  Array.fill t.partitions 0 t.cap 0;
  t.tagged_count <- 0;
  t.post_heal <- true

let crash t node =
  ensure t node;
  if not t.crashed.(node) then begin
    t.crashed.(node) <- true;
    t.crashed_count <- t.crashed_count + 1
  end

let recover t node =
  if node < t.cap && t.crashed.(node) then begin
    t.crashed.(node) <- false;
    t.crashed_count <- t.crashed_count - 1
  end;
  t.post_heal <- true

let is_crashed t node = node < t.cap && t.crashed.(node)

(* Faulted-node views, ascending id order — the incremental monitor
   rebuilds its candidate set from these instead of scanning every
   vgroup. *)
let crashed_nodes t =
  if t.crashed_count = 0 then []
  else begin
    let acc = ref [] in
    for i = t.cap - 1 downto 0 do
      if t.crashed.(i) then acc := i :: !acc
    done;
    !acc
  end

let partitioned_nodes t =
  if t.tagged_count = 0 then []
  else begin
    let acc = ref [] in
    for i = t.cap - 1 downto 0 do
      if t.partitions.(i) <> 0 then acc := i :: !acc
    done;
    !acc
  end

let faulted_count t = t.crashed_count + t.tagged_count

let set_loss_boost t p =
  if p < 0.0 || p > 1.0 then invalid_arg "Network.set_loss_boost: p outside [0, 1]";
  t.loss_boost <- p

let loss_boost t = t.loss_boost

let set_latency_factor t f =
  if f <= 0.0 then invalid_arg "Network.set_latency_factor: factor must be positive";
  t.latency_factor <- f

let latency_factor t = t.latency_factor

let set_capacity_factor t f =
  if f <= 0.0 then invalid_arg "Network.set_capacity_factor: factor must be positive";
  t.capacity_factor <- f

let capacity_factor t = t.capacity_factor

(* Optional arguments box at the call site on this compiler (no
   flambda), so a disabled [trace_emit] would still allocate a [Some]
   per argument.  Per-message paths therefore test [tracing] first. *)
let tracing t = match t.trace with Some tr -> Trace.enabled tr | None -> false

let trace_emit t ~kind ?node ?peer ?size () =
  match t.trace with
  | Some tr -> Trace.emit tr ~time:(Engine.now t.engine) ~kind ?node ?peer ?size ()
  | None -> ()

type reason = Crash | Partition | Loss | No_handler

(* The drop's metric key, which is also its trace kind. *)
let drop_key = function
  | Crash -> "net.drop.crash"
  | Partition -> "net.drop.partition"
  | Loss -> "net.drop.loss"
  | No_handler -> "net.drop.no_handler"

(* Every drop is counted once in the aggregate [dropped] and once
   under a reason-specific metric, so accounting bugs show up as a
   mismatch between the two. *)
let drop t reason ~src ~dst =
  t.dropped <- t.dropped + 1;
  Metrics.incr t.metrics (drop_key reason);
  if tracing t then trace_emit t ~kind:(drop_key reason) ~node:src ~peer:dst ()

(* A crashed endpoint silences the link regardless of partition tags;
   the tags themselves are left untouched so a later [recover] drops
   the node back into whichever partition it was in. *)
let severed t ~src ~dst =
  if t.crashed_count = 0 && t.tagged_count = 0 then None
  else if is_crashed t src || is_crashed t dst then Some Crash
  else if partition_of t src <> partition_of t dst then Some Partition
  else None

(* The handler a message from [src] reaches at [dst] now, or [None]
   once the drop is counted. *)
let reachable t ~src ~dst =
  match severed t ~src ~dst with
  | Some reason ->
    drop t reason ~src ~dst;
    None
  | None -> (
    match handler_of t dst with
    | None ->
      drop t No_handler ~src ~dst;
      None
    | handler -> handler)

let deliver t ~size ~src ~dst msg handler =
  t.delivered <- t.delivered + 1;
  if t.post_heal then Metrics.incr t.metrics "net.deliver.post_heal";
  if tracing t then trace_emit t ~kind:"net.deliver" ~node:dst ~peer:src ~size ();
  handler ~src msg

(* Deliver one message that survived transit.  Receiver service time
   (node_capacity) is charged here, and only for messages that are
   reachable on arrival: traffic dropped on arrival must not advance
   the receiver's queue tail, or it would permanently consume receiver
   capacity.  A queued message is checked again when its service time
   comes: the receiver may have crashed or been partitioned away, or
   its handler replaced or removed, while the message waited. *)
let arrive t ~size ~src ~dst msg =
  match reachable t ~src ~dst with
  | None -> ()
  | Some handler -> (
    match t.config.node_capacity with
    | None -> deliver t ~size ~src ~dst msg handler
    | Some capacity ->
      (* The receiver serves messages in arrival order at a bounded
         rate; a hot node's queue tail pushes delivery out. *)
      let capacity = capacity *. t.capacity_factor in
      let arrival = Engine.now t.engine in
      let tail = Float.max arrival t.ready.(dst) in
      let finish = tail +. (1.0 /. capacity) in
      t.ready.(dst) <- finish;
      Engine.schedule ~label:"net.service" t.engine ~delay:(finish -. arrival) (fun () ->
          match reachable t ~src ~dst with
          | None -> ()
          | Some handler -> deliver t ~size ~src ~dst msg handler))

let loss_probability t = Float.min 1.0 (t.config.drop_probability +. t.loss_boost)

(* Account one (src, dst) message and decide whether it enters
   transit.  The order is part of the RNG stream contract: counters,
   trace, the cut check, then the loss draw, which is made even for a
   cut pair so that faults never shift later draws. *)
let admit t ~traced ~p_loss ~size ~src ~dst =
  t.sent <- t.sent + 1;
  t.bytes <- t.bytes + size;
  if traced then trace_emit t ~kind:"net.send" ~node:src ~peer:dst ~size ();
  let cut = severed t ~src ~dst in
  let lost = Atum_util.Rng.bernoulli t.rng p_loss in
  match cut with
  | Some reason ->
    drop t reason ~src ~dst;
    false
  | None ->
    if lost then begin
      drop t Loss ~src ~dst;
      false
    end
    else true

let transit_delay t = sample_latency t *. t.latency_factor

let send ?(size = 64) t ~src ~dst msg =
  if admit t ~traced:(tracing t) ~p_loss:(loss_probability t) ~size ~src ~dst then
    Engine.schedule ~label:"net.transit" t.engine ~delay:(transit_delay t) (fun () ->
        arrive t ~size ~src ~dst msg)

(* Admission for one sender's row of a batch: survivors go to [batch]
   as (src, size, dst) triples from slot [n]; returns the next free
   slot. *)
let rec admit_row t ~traced ~p_loss batch n ~src ~size = function
  | [] -> n
  | dst :: rest ->
    let n =
      if admit t ~traced ~p_loss ~size ~src ~dst then begin
        batch.(n) <- src;
        batch.(n + 1) <- size;
        batch.(n + 2) <- dst;
        n + 3
      end
      else n
    in
    admit_row t ~traced ~p_loss batch n ~src ~size rest

let rec admit_rows t ~traced ~p_loss batch n dsts = function
  | [] -> n
  | (src, size) :: rest ->
    let n = admit_row t ~traced ~p_loss batch n ~src ~size dsts in
    admit_rows t ~traced ~p_loss batch n dsts rest

(* Vgroup-round batching: all of a vgroup's same-instant senders fan
   out to a neighbor round in one engine event.  Each (src, dst) pair
   gets the same accounting, cut check and loss draw as [send]; the
   survivors share a single latency sample and travel as one flat
   array of (src, size, dst) triples, so the event count per gossip
   round drops from senders * destinations to 1 and nothing is
   allocated per message. *)
let send_group t ~srcs ~dsts msg =
  let batch = Array.make (3 * List.length srcs * List.length dsts) 0 in
  let n = admit_rows t ~traced:(tracing t) ~p_loss:(loss_probability t) batch 0 dsts srcs in
  if n > 0 then
    Engine.schedule ~label:"net.transit.batch" t.engine ~delay:(transit_delay t) (fun () ->
        for k = 0 to (n / 3) - 1 do
          let i = 3 * k in
          arrive t ~size:batch.(i + 1) ~src:batch.(i) ~dst:batch.(i + 2) msg
        done)

(* One sender's fan-out is a batch with a single row. *)
let send_multi ?(size = 64) t ~src ~dsts msg = send_group t ~srcs:[ (src, size) ] ~dsts msg

let messages_sent t = t.sent
let messages_delivered t = t.delivered
let messages_dropped t = t.dropped
let bytes_sent t = t.bytes

let reset_counters t =
  t.sent <- 0;
  t.delivered <- 0;
  t.dropped <- 0;
  t.bytes <- 0
