(* The three benchmark workloads, and the code that runs one of them.

   All three are open loop in simulated time: the input plan (broadcast
   times, origins, bodies, churn events) is generated from the seed
   before the run starts, and each input fires at its planned simulated
   time whether or not earlier ones have finished.  Latencies are
   measured from the planned issue time.

   The program is measured from outside: this module times its own
   calls into public functions, wraps the store backend record and the gossip
   forward policy, and reads counters through public accessors. *)

module System = Atum_core.System
module Params = Atum_core.Params
module Monitor = Atum_core.Monitor
module Engine = Atum_sim.Engine
module Network = Atum_sim.Network
module Metrics = Atum_sim.Metrics
module Trace = Atum_sim.Trace
module Fault = Atum_sim.Fault
module Backend = Atum_store.Backend
module Replica = Atum_store.Replica
module Rng = Atum_util.Rng
module Bitset = Atum_util.Bitset

type kind = Bcast_sync | Churn_sync | Bcast_async_byz

let all = [ Bcast_sync; Churn_sync; Bcast_async_byz ]

let name = function
  | Bcast_sync -> "bcast_sync"
  | Churn_sync -> "churn_sync"
  | Bcast_async_byz -> "bcast_async_byz"

let of_name s = List.find_opt (fun k -> String.equal (name k) s) all

type size = Full | Smoke

type spec = {
  kind : kind;
  protocol : Params.protocol;
  nodes : int;
  broadcasts : int;
  bcast_every : float;  (** simulated seconds between broadcasts *)
  churn_for : float;  (** simulated seconds of churn; 0 for none *)
  churn_per_min : float;  (** churn events per simulated minute, as a share of [nodes] *)
  drain : float;  (** simulated seconds allowed after the last input *)
  slice : float;  (** run_for slice while draining *)
  byz_share : float;  (** share of nodes made Byzantine ([Equivocate]) *)
  restart_share : float;  (** share of correct nodes cold-restarted *)
  restart_at : float;
  restart_down : float;
  store : bool;  (** attach an in-sim Vfs store (WAL per delivery) *)
}

let base kind =
  {
    kind;
    protocol = Params.Sync;
    nodes = 0;
    broadcasts = 0;
    bcast_every = 2.0;
    churn_for = 0.0;
    churn_per_min = 0.0;
    drain = 60.0;
    slice = 1.0;
    byz_share = 0.0;
    restart_share = 0.0;
    restart_at = 0.0;
    restart_down = 0.0;
    store = false;
  }

let spec ?(size = Full) kind =
  let smoke = match size with Smoke -> true | Full -> false in
  match kind with
  | Bcast_sync ->
    { (base kind) with nodes = (if smoke then 24 else 20_000); broadcasts = (if smoke then 4 else 12) }
  | Churn_sync ->
    {
      (base kind) with
      nodes = (if smoke then 24 else 400);
      broadcasts = (if smoke then 24 else 120);
      bcast_every = 5.0;
      churn_for = (if smoke then 120.0 else 600.0);
      churn_per_min = (if smoke then 0.25 else 0.05);
      drain = (if smoke then 60.0 else 300.0);
      slice = 5.0;
    }
  | Bcast_async_byz ->
    {
      (base kind) with
      protocol = Params.Async;
      nodes = (if smoke then 24 else 4_000);
      broadcasts = (if smoke then 8 else 24);
      drain = 120.0;
      byz_share = 0.05;
      restart_share = 0.005;
      restart_at = 20.0;
      restart_down = 30.0;
      store = true;
    }

(* --- the input plan ----------------------------------------------------- *)

(* Picks index into whatever candidate set exists when the input fires,
   so the plan is pure data drawn from the seed. *)
type action =
  | Broadcast of { pick : int; body : string }
  | Churn of { leave_pick : int; contact_pick : int }

type input = { at : float; action : action }

let body rng =
  String.init (10 + Rng.int rng 91) (fun _ -> Char.chr (Char.code 'a' + Rng.int rng 26))

let plan spec ~seed =
  let rng = Rng.create (seed * 7919 + 17) in
  let bcasts =
    List.init spec.broadcasts (fun i ->
        let pick = Rng.int rng 1_000_000_007 in
        { at = float_of_int i *. spec.bcast_every; action = Broadcast { pick; body = body rng } })
  in
  let churn =
    if spec.churn_for <= 0.0 then []
    else begin
      let per_min = spec.churn_per_min *. float_of_int spec.nodes in
      let gap = 60.0 /. per_min in
      let count = int_of_float (spec.churn_for /. gap) in
      List.init count (fun i ->
          let leave_pick = Rng.int rng 1_000_000_007 in
          let contact_pick = Rng.int rng 1_000_000_007 in
          { at = (float_of_int i +. 0.5) *. gap; action = Churn { leave_pick; contact_pick } })
    end
  in
  List.stable_sort (fun a b -> Float.compare a.at b.at) (bcasts @ churn)

(* --- per-run state ------------------------------------------------------ *)

(* A growable unboxed float buffer, so recording a latency sample does
   not allocate on the minor heap the benchmark measures. *)
module Samples = struct
  type t = { mutable a : Float.Array.t; mutable n : int }

  let create cap = { a = Float.Array.create (max 16 cap); n = 0 }

  let add t v =
    if t.n = Float.Array.length t.a then begin
      let b = Float.Array.create (2 * t.n) in
      Float.Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    Float.Array.set t.a t.n v;
    t.n <- t.n + 1

  let to_sorted t =
    let a = Array.init t.n (Float.Array.get t.a) in
    Array.sort Float.compare a;
    a
end

type bcast = {
  issued : float;
  text : string;
  corr : string;  (** span correlation id *)
  mutable delivered : int;  (** body-matching deliveries so far *)
  ok : Bitset.t;  (** correct nodes that delivered exactly [text] *)
  bad : Bitset.t;  (** correct nodes that delivered another body *)
}

(* A dense set of node ids with O(1) add, remove and indexed pick. *)
module Members = struct
  type t = { mutable ids : int array; mutable n : int; pos : (int, int) Hashtbl.t }

  let create () = { ids = Array.make 64 0; n = 0; pos = Hashtbl.create 64 }

  let add t id =
    if not (Hashtbl.mem t.pos id) then begin
      if t.n = Array.length t.ids then begin
        let b = Array.make (2 * t.n) 0 in
        Array.blit t.ids 0 b 0 t.n;
        t.ids <- b
      end;
      t.ids.(t.n) <- id;
      Hashtbl.replace t.pos id t.n;
      t.n <- t.n + 1
    end

  let remove t id =
    match Hashtbl.find_opt t.pos id with
    | None -> ()
    | Some i ->
      let last = t.ids.(t.n - 1) in
      t.ids.(i) <- last;
      Hashtbl.replace t.pos last i;
      Hashtbl.remove t.pos id;
      t.n <- t.n - 1

  (* The [pick]-th candidate, probing forward past ids [usable] rejects. *)
  let pick t pick ~usable =
    let rec go k = if k = t.n then None else
        let id = t.ids.((pick + k) mod t.n) in
        if usable id then Some id else go (k + 1)
    in
    if t.n = 0 then None else go 0
end

(* Counters the wrapped store backend keeps. *)
type store_io = {
  mutable written : int;  (** bytes handed to save/append *)
  mutable busy : float;  (** wall seconds inside backend calls (traced runs) *)
}

(* Everything one run reports. *)
type result = {
  setup_s : float;  (** CPU seconds of set-up *)
  timed_s : float;  (** wall seconds of the timed phase *)
  cpu_s : float;  (** CPU seconds of the timed phase, probes left out *)
  scale : float;  (** [Refspeed.scale] over the timed phase *)
  delivered_ok : int;  (** correct, body-matching deliveries *)
  mismatched : int;  (** deliveries whose body is not the broadcast body *)
  expected : int;  (** (node, broadcast) pairs that must deliver *)
  expected_hit : int;
  bad_outside : int;  (** wrong-body deliveries at pairs that were not owed *)
  latencies : float array;  (** sorted, simulated seconds *)
  joins_started : int;
  joins_installed : int;
  join_latencies : float array;  (** sorted *)
  catchups : float array;  (** sorted restart-to-caught-up, simulated seconds *)
  peak_heap_words : int;
  live_heap_words : int;
      (** retained after the timed phase and a full major GC, beyond what
          was live just before set-up and the benchmark's own state *)
  counts : (string * int) list;  (** per-layer deltas over the timed phase *)
  self_s : (string * float) list;  (** engine self time of every label (profiled runs) *)
  store_busy_s : float;
  trace_admitted : int;
  trace_dropped : int;
  monitor_violations : int;
  span_self : (string * int * float) list;
  signature : string;  (** every simulated outcome, for same-seed comparison *)
}

let profile_labels =
  [ "net.transit.batch"; "net.transit"; "system.fanout"; "system.defer"; "rounds.tick"; "smr.timer";
    "saga.watchdog" ]

let metric_counters =
  [ "gm.sent"; "join.requested"; "join.completed"; "saga.timeout"; "exchange.completed";
    "exchange.suppressed"; "vgroup.split"; "vgroup.merge"; "walk.started"; "walk.completed";
    "walk.lost"; "recovery.restart"; "recovery.fallback"; "recovery.catchup.delivered" ]

(* Raw cumulative counters read through public accessors. *)
let read_counters sys ~fwd_calls ~fwd_taken ~io =
  let eng = System.engine sys and net = System.network sys and m = System.metrics sys in
  let prof = Engine.profile eng in
  let label_events l =
    match List.find_opt (fun (p : Engine.label_profile) -> String.equal p.label l) prof with
    | Some p -> p.events
    | None -> 0
  in
  let store =
    match System.store sys with
    | None -> [ ("store.appends", 0); ("store.snapshots", 0); ("store.fsyncs", 0) ]
    | Some r ->
      [ ("store.appends", Replica.appends r); ("store.snapshots", Replica.snapshots r);
        ("store.fsyncs", Replica.fsyncs r) ]
  in
  [ ("engine.events", Engine.events_processed eng) ]
  @ List.map (fun l -> ("engine.events." ^ l, label_events l)) profile_labels
  @ [ ("network.messages", Network.messages_sent net); ("network.bytes", Network.bytes_sent net);
      ("network.drops", Network.messages_dropped net); ("gossip.forward_calls", fwd_calls);
      ("gossip.forward_taken", fwd_taken); ("store.written", io.written);
      ("gc.minor_words", int_of_float (Gc.minor_words ())) ]
  @ List.map (fun c -> ("metric." ^ c, Metrics.counter m c)) metric_counters
  @ store

let delta before after =
  List.map2
    (fun (k, a) (k', b) ->
      assert (String.equal k k');
      (k, b - a))
    before after

(* Engine self time of every label, not only [profile_labels], so the
   listed labels' share of the whole can be read. *)
let self_times sys =
  List.map (fun (p : Engine.label_profile) -> (p.label, p.wall_self_s)) (Engine.profile (System.engine sys))

(* Pick the Byzantine nodes: a seeded share of all nodes, skipping any
   whose vgroup would stop having fewer than a third Byzantine members
   (PBFT's bound), so the deployment stays inside the paper's model. *)
let choose_byzantine sys rng ids ~share =
  let want = int_of_float (Float.round (share *. float_of_int (Array.length ids))) in
  let order = Array.copy ids in
  Rng.shuffle rng order;
  let per_vg = Hashtbl.create 64 in
  let chosen = ref [] and n = ref 0 in
  Array.iter
    (fun id ->
      if !n < want then
        match (System.node sys id).System.vg with
        | None -> ()
        | Some vid ->
          let size = List.length (System.vgroup sys vid).System.members in
          let have = Option.value ~default:0 (Hashtbl.find_opt per_vg vid) in
          if 3 * (have + 1) < size then begin
            Hashtbl.replace per_vg vid (have + 1);
            incr n;
            chosen := id :: !chosen
          end)
    order;
  List.sort Int.compare !chosen

exception Inconsistent of string

let settle_cap = 300.0

let wall = Unix.gettimeofday

let cpu = Refspeed.cpu

(* State shared between set-up and the timed phase. *)
type ctx = {
  spans : Spans.t;
  sys : System.t;
  setup_s : float;
  io : store_io;
  fwd_calls : int ref;
  fwd_taken : int ref;
  members : Members.t;  (** correct nodes usable as origin, contact or leaver *)
  bcasts : (int, bcast) Hashtbl.t;
  latencies : Samples.t;
  delivered_ok : int ref;
  mismatched : int ref;
  member_since : (int, float) Hashtbl.t;
      (** simulated time from which each node has been continuously in
          the system; absent = never, or no longer *)
  victims : int list;
  monitor : Monitor.t option;
}

(* Set-up: everything from [System.create] to the first input — build
   the nodes, mark the Byzantine ones, attach the store, install the
   fault schedule.  [traced] turns on the trace ring, telemetry, an
   online Monitor, the benchmark's own spans and the store-call timer;
   engine self time additionally needs [ATUM_PROF_WALL=1] in the
   environment at program start. *)
let setup ?(traced = false) spec ~seed =
  let spans = Spans.create ~enabled:traced in
  let rng = Rng.create (seed * 31 + 5) in
  let io = { written = 0; busy = 0.0 } in
  let fwd_calls = ref 0 and fwd_taken = ref 0 in
  let members = Members.create () in
  let bcasts = Hashtbl.create 64 in
  let latencies = Samples.create 1024 in
  let delivered_ok = ref 0 and mismatched = ref 0 in
  let member_since = Hashtbl.create (2 * spec.nodes) in
  let byz = Hashtbl.create 64 in
  let victims = ref [] in
  let mon = ref None in
  let t_setup = cpu () in
  let sys =
    Spans.with_span spans ~name:"setup" ~sim_t:0.0 (fun () ->
        let params = Params.for_system_size ~protocol:spec.protocol ~seed spec.nodes in
        let trace_capacity =
          if traced then Some (Trace.capacity_for_scale ~nodes:spec.nodes) else None
        in
        let sys =
          Spans.with_span spans ~name:"System.create" ~sim_t:0.0 (fun () ->
              System.create ?trace_capacity params)
        in
        let ids =
          Array.of_list
            (Spans.with_span spans ~name:"System.build_direct" ~sim_t:0.0 (fun () ->
                 System.build_direct sys ~nodes:spec.nodes ()))
        in
        if spec.byz_share > 0.0 then
          List.iter
            (fun id ->
              Hashtbl.replace byz id ();
              System.make_byzantine sys ~strategy:System.Equivocate id)
            (choose_byzantine sys rng ids ~share:spec.byz_share);
        Array.iter
          (fun id ->
            if not (Hashtbl.mem byz id) then begin
              Members.add members id;
              Hashtbl.replace member_since id 0.0
            end)
          ids;
        if spec.store then begin
          let vfs = Atum_store.Vfs.create ~now:(fun () -> System.now sys) () in
          let b = Atum_store.Vfs.backend vfs in
          let call name f =
            if not traced then f ()
            else
              Spans.with_span spans ~name ~sim_t:(System.now sys) (fun () ->
                  let t0 = wall () in
                  Fun.protect ~finally:(fun () -> io.busy <- io.busy +. (wall () -. t0)) f)
          in
          let wrapped =
            {
              Backend.load = (fun ~node ~name -> call "store.load" (fun () -> b.Backend.load ~node ~name));
              save =
                (fun ~node ~name data ->
                  io.written <- io.written + String.length data;
                  call "store.save" (fun () -> b.Backend.save ~node ~name data));
              append =
                (fun ~node ~name data ->
                  io.written <- io.written + String.length data;
                  call "store.append" (fun () -> b.Backend.append ~node ~name data));
              remove = (fun ~node ~name -> call "store.remove" (fun () -> b.Backend.remove ~node ~name));
              sync_count = b.Backend.sync_count;
            }
          in
          ignore (System.attach_store sys wrapped)
        end;
        if spec.restart_share > 0.0 then begin
          let correct = Array.of_list (List.filter (fun id -> not (Hashtbl.mem byz id)) (Array.to_list ids)) in
          Rng.shuffle rng correct;
          let k = max 1 (int_of_float (Float.round (spec.restart_share *. float_of_int (Array.length correct)))) in
          victims := List.sort Int.compare (Array.to_list (Array.sub correct 0 k));
          List.iter (fun v -> Hashtbl.remove member_since v) !victims;
          Spans.with_span spans ~name:"Fault.install" ~sim_t:0.0 (fun () ->
              ignore
                (Fault.install ~on_crash:(System.crash sys) ~on_recover:(System.recover sys)
                   ~on_restart:(fun nid ->
                     Spans.with_span spans ~name:"System.restart" ~corr:(Printf.sprintf "restart-%d" nid)
                       ~sim_t:(System.now sys) (fun () -> System.restart sys nid))
                   (System.network sys)
                   [ { Fault.after = spec.restart_at;
                       step = Fault.Restart { nodes = !victims; down = spec.restart_down } } ]))
        end;
        System.set_forward_policy sys (fun ~bid ~from_vg ~cycle ~neighbor ->
            incr fwd_calls;
            let take = System.random_forward ~bid ~from_vg ~cycle ~neighbor in
            if take then incr fwd_taken;
            take);
        System.set_deliver sys (fun nid ~bid ~origin:_ text ->
            match Hashtbl.find_opt bcasts bid with
            | None -> incr mismatched
            | Some b ->
              if String.equal text b.text then begin
                incr delivered_ok;
                b.delivered <- b.delivered + 1;
                if b.delivered = 1 then
                  Spans.instant spans ~name:"bcast.first_delivery" ~corr:b.corr ~sim_t:(System.now sys) ();
                Bitset.set b.ok nid;
                Samples.add latencies (System.now sys -. b.issued)
              end
              else begin
                incr mismatched;
                Bitset.set b.bad nid
              end);
        if traced then begin
          Trace.set_enabled (System.trace sys) true;
          ignore (System.attach_telemetry sys);
          mon := Some (Monitor.attach sys)
        end;
        sys)
  in
  let setup_s = cpu () -. t_setup in
  {
    spans;
    sys;
    setup_s;
    io;
    fwd_calls;
    fwd_taken;
    members;
    bcasts;
    latencies;
    delivered_ok;
    mismatched;
    member_since;
    victims = !victims;
    monitor = !mon;
  }

(* One run of [spec] with [seed]: set-up, then the timed phase, then
   the correctness checks. *)
let run ?(traced = false) spec ~seed =
  let inputs = plan spec ~seed in
  Gc.compact ();
  (* The live count is only current after a full cycle of its own. *)
  Gc.full_major ();
  let live0 = (Gc.quick_stat ()).Gc.live_words in
  let { spans; sys; setup_s; io; fwd_calls; fwd_taken; members; bcasts; latencies; delivered_ok;
        mismatched; member_since; victims; monitor } =
    setup ~traced spec ~seed
  in
  let gc0 = Gc.quick_stat () in
  let before = read_counters sys ~fwd_calls:!fwd_calls ~fwd_taken:!fwd_taken ~io in
  let sim0 = System.now sys in
  let pace = Refspeed.create () in
  let t_timed = wall () and c_timed = cpu () in
  Refspeed.probe pace;
  let joins_started = ref 0 in
  let join_lat = Samples.create 256 in
  let pending_joins = ref 0 in
  let usable id =
    match System.node_opt sys id with
    | Some n -> n.System.alive && Option.is_some n.System.vg && not n.System.byzantine
    | None -> false
  in
  let advance_to time =
    let dt = time -. System.now sys in
    if dt > 0.0 then
      Spans.with_span spans ~name:"System.run_for" ~sim_t:(System.now sys) (fun () ->
          System.run_for sys dt);
    Refspeed.tick pace
  in
  let fire = function
    | Broadcast { pick; body = text } -> (
      match Members.pick members pick ~usable with
      | None -> ()
      | Some from ->
        let issued = System.now sys in
        let corr = Printf.sprintf "bcast-%d" (Hashtbl.length bcasts) in
        Spans.with_span spans ~name:"System.broadcast" ~corr ~sim_t:issued (fun () ->
            let bid = System.broadcast sys ~from text in
            Hashtbl.replace bcasts bid
              { issued; text; corr; delivered = 0; ok = Bitset.create (); bad = Bitset.create () }))
    | Churn { leave_pick; contact_pick } -> (
      (match Members.pick members leave_pick ~usable with
      | None -> ()
      | Some target ->
        Members.remove members target;
        Hashtbl.remove member_since target;
        Spans.with_span spans ~name:"System.leave" ~corr:(Printf.sprintf "leave-%d" target)
          ~sim_t:(System.now sys) (fun () -> System.leave sys ~target ()));
      match Members.pick members contact_pick ~usable with
      | None -> ()
      | Some contact ->
        let started = System.now sys in
        let corr = Printf.sprintf "join-%d" !joins_started in
        incr joins_started;
        incr pending_joins;
        Spans.with_span spans ~name:"System.join" ~corr ~sim_t:started (fun () ->
            let joiner = System.spawn_node sys () in
            System.join sys ~joiner ~contact
              ~k:(fun _ ->
                decr pending_joins;
                let now = System.now sys in
                Samples.add join_lat (now -. started);
                Members.add members joiner;
                Hashtbl.replace member_since joiner now;
                Spans.instant spans ~name:"join.installed" ~corr ~sim_t:now ())
              ()))
  in
  List.iter
    (fun inp ->
      advance_to (sim0 +. inp.at);
      fire inp.action)
    inputs;
  (* Victims count from the moment they are back in a vgroup. *)
  let refresh_victims () =
    List.iter
      (fun (r : System.restart_report) ->
        match r.System.r_rejoined_at with
        | Some at when not (Hashtbl.mem member_since r.System.r_node) ->
          Hashtbl.replace member_since r.System.r_node at
        | _ -> ())
      (System.restart_reports sys)
  in
  (* (node, broadcast) pairs owed a delivery: correct nodes continuously
     in the system from the broadcast's issue until now.  Returns the
     owed pairs, those delivered with the right body, and the
     wrong-body deliveries at pairs that were not owed. *)
  let owed () =
    refresh_victims ();
    let survivors =
      Hashtbl.fold (fun id since acc -> if usable id then (id, since) :: acc else acc) member_since []
    in
    let is_owed id b =
      usable id
      && match Hashtbl.find_opt member_since id with Some since -> since <= b.issued | None -> false
    in
    Hashtbl.fold
      (fun _ b (exp, hit, bad) ->
        let exp, hit =
          List.fold_left
            (fun (exp, hit) (id, since) ->
              if since <= b.issued then (exp + 1, if Bitset.mem b.ok id then hit + 1 else hit)
              else (exp, hit))
            (exp, hit) survivors
        in
        let bad = ref bad in
        Bitset.iter (fun id -> if not (is_owed id b) then incr bad) b.bad;
        (exp, hit, !bad))
      bcasts (0, 0, 0)
  in
  let last_input = match List.rev inputs with [] -> 0.0 | i :: _ -> i.at in
  let deadline = sim0 +. last_input +. spec.drain in
  let victims_back () =
    List.length (System.restart_reports sys) = List.length victims
  in
  let rec drain () =
    let exp, hit, _ = owed () in
    let settled = exp = hit && !pending_joins = 0 && victims_back () in
    if (not settled) && System.now sys < deadline then begin
      advance_to (Float.min deadline (System.now sys +. spec.slice));
      drain ()
    end
  in
  drain ();
  Refspeed.probe pace;
  let timed_s = wall () -. t_timed and cpu_s = cpu () -. c_timed -. Refspeed.spent pace in
  let gc1 = Gc.quick_stat () in
  let after = read_counters sys ~fwd_calls:!fwd_calls ~fwd_taken:!fwd_taken ~io in
  (* Retained heap: what the deployment still holds once garbage is
     gone — steadier across seeds than the GC-paced peak.  Neither what
     was live before set-up (earlier runs' results, the input plan) nor
     the benchmark's own bookkeeping of this run is counted. *)
  Gc.full_major ();
  let own = Obj.reachable_words (Obj.repr (latencies, join_lat, members, member_since, bcasts)) in
  let live_heap_words = (Gc.quick_stat ()).Gc.live_words - live0 - own in
  let expected, expected_hit, bad_outside = owed () in
  let reports = System.restart_reports sys in
  let catchups =
    Samples.to_sorted
      (let s = Samples.create 16 in
       List.iter
         (fun (r : System.restart_report) ->
           match r.System.r_caught_up_at with
           | Some c -> Samples.add s (c -. r.System.r_restarted_at)
           | None -> ())
         reports;
       s)
  in
  let counts =
    delta before after
    @ [ ("gc.major_collections", gc1.Gc.major_collections - gc0.Gc.major_collections);
        ("store.log_bytes", match System.store sys with Some r -> Replica.log_bytes r | None -> 0);
        ("recovery.replayed", List.fold_left (fun a (r : System.restart_report) -> a + r.System.r_replayed) 0 reports) ]
  in
  let lat = Samples.to_sorted latencies in
  let jl = Samples.to_sorted join_lat in
  let sim_s = System.now sys -. sim0 in
  let signature =
    let b = Buffer.create (16 * (Array.length lat + 64)) in
    let f x = Buffer.add_int64_le b (Int64.bits_of_float x) in
    Array.iter f lat;
    Array.iter f jl;
    Array.iter f catchups;
    f sim_s;
    List.iter (Buffer.add_int64_le b)
      (List.map Int64.of_int
         [ !delivered_ok; !mismatched; expected; expected_hit; bad_outside; !joins_started; Array.length jl;
           List.length reports ]);
    Digest.to_hex (Digest.string (Buffer.contents b))
  in
  let r =
    {
      setup_s;
      timed_s;
      cpu_s;
      scale = Refspeed.scale pace;
      delivered_ok = !delivered_ok;
      mismatched = !mismatched;
      expected;
      expected_hit;
      bad_outside;
      latencies = lat;
      joins_started = !joins_started;
      joins_installed = Array.length jl;
      join_latencies = jl;
      catchups;
      peak_heap_words = gc1.Gc.top_heap_words;
      live_heap_words;
      counts;
      self_s = (if traced then self_times sys else []);
      store_busy_s = io.busy;
      trace_admitted = (if traced then Trace.total (System.trace sys) else 0);
      trace_dropped = (if traced then Trace.dropped (System.trace sys) else 0);
      monitor_violations = (match monitor with Some m -> Monitor.total m | None -> 0);
      span_self = Spans.self_times spans;
      signature;
    }
  in
  (* Registry consistency, checked at quiescence: a split's new vgroup
     enters the overlay only when its placement walks return, so wait
     (outside the timed phase, after every figure above is taken) until
     no active vgroup is held by a saga, for at most [settle_cap]
     simulated seconds. *)
  let held () =
    List.exists
      (fun vid ->
        match System.vgroup_opt sys vid with
        | Some vg -> vg.System.busy && not vg.System.retired
        | None -> false)
      (System.vgroup_ids sys)
  in
  let settle_until = System.now sys +. settle_cap in
  while held () && System.now sys < settle_until do
    System.run_for sys 5.0
  done;
  match System.check_consistency sys with
  | Ok () -> (r, spans)
  | Error e -> raise (Inconsistent (Printf.sprintf "%s seed %d: %s" (name spec.kind) seed e))

(* One batch of set-ups: from a compacted heap, as in [run], set up
   the deployment of [seed] again and again until [min_s] CPU seconds
   have passed, so a set-up of a millisecond is not timed alone.
   Returns the CPU seconds (probes left out), the number of set-ups and
   the batch's [Refspeed.scale]. *)
let setup_batch spec ~seed ~min_s =
  Gc.compact ();
  let pace = Refspeed.create () in
  let t0 = cpu () in
  Refspeed.probe pace;
  let rec go n =
    ignore (setup spec ~seed);
    Refspeed.tick pace;
    if cpu () -. t0 -. Refspeed.spent pace >= min_s then n + 1 else go (n + 1)
  in
  let n = go 0 in
  Refspeed.probe pace;
  (cpu () -. t0 -. Refspeed.spent pace, n, Refspeed.scale pace)

(* [r] without its samples and spans, for a repeat run that only the
   determinism check and the rates read. *)
let lean r = { r with latencies = [||]; join_latencies = [||]; catchups = [||]; span_self = [] }

(* Operations attempted and failed: every owed (node, broadcast) pair,
   every delivery at a pair that was not owed, and every join started;
   a failure is an owed pair without the broadcast body, a wrong-body
   delivery at a pair that was not owed, or a join never installed. *)
let attempted (r : result) = r.expected + (r.delivered_ok - r.expected_hit) + r.bad_outside + r.joins_started

let failed (r : result) =
  r.expected - r.expected_hit + r.bad_outside + (r.joins_started - r.joins_installed)

(* Sub-deployment [k] of a workload seed: a run covers several
   deployments with their own generated inputs, so one seed's figures
   average over more than one draw of origins, churn and Byzantine
   placement. *)
let sub_seed seed k = (seed * 16) + k

(* Deployments per workload seed.  A run cycles through them, so its
   figures average over several draws of origins, churn and Byzantine
   placement; the Sync broadcast workload, which delivers every
   broadcast everywhere, varies least between draws. *)
let deployments = function Bcast_sync -> 2 | Churn_sync -> 2 | Bcast_async_byz -> 4

(* Several deployments' runs as a single result: sums, pooled samples,
   peak of peaks, mean retained heap. *)
let pool (rs : result list) =
  match rs with
  | [] -> invalid_arg "Workload.pool: no runs"
  | [ r ] -> r
  | first :: _ as rs ->
    let sum f = List.fold_left (fun a (r : result) -> a + f r) 0 rs in
    let fsum f = List.fold_left (fun a (r : result) -> a +. f r) 0.0 rs in
    let merged f =
      let a = Array.concat (List.map f rs) in
      Array.sort Float.compare a;
      a
    in
    let sum_assoc add f =
      List.fold_left
        (fun acc r -> List.map2 (fun (k, a) (k', b) -> assert (String.equal k k'); (k, add a b)) acc (f r))
        (f first) (List.tl rs)
    in
    {
      setup_s = fsum (fun r -> r.setup_s);
      timed_s = fsum (fun r -> r.timed_s);
      cpu_s = fsum (fun r -> r.cpu_s);
      scale = fsum (fun r -> r.scale) /. float_of_int (List.length rs);
      delivered_ok = sum (fun r -> r.delivered_ok);
      mismatched = sum (fun r -> r.mismatched);
      expected = sum (fun r -> r.expected);
      expected_hit = sum (fun r -> r.expected_hit);
      bad_outside = sum (fun r -> r.bad_outside);
      latencies = merged (fun r -> r.latencies);
      joins_started = sum (fun r -> r.joins_started);
      joins_installed = sum (fun r -> r.joins_installed);
      join_latencies = merged (fun r -> r.join_latencies);
      catchups = merged (fun r -> r.catchups);
      peak_heap_words = List.fold_left (fun a r -> max a r.peak_heap_words) 0 rs;
      live_heap_words = sum (fun r -> r.live_heap_words) / List.length rs;
      counts = sum_assoc ( + ) (fun r -> r.counts);
      self_s = sum_assoc ( +. ) (fun r -> r.self_s);
      store_busy_s = fsum (fun r -> r.store_busy_s);
      trace_admitted = sum (fun r -> r.trace_admitted);
      trace_dropped = sum (fun r -> r.trace_dropped);
      monitor_violations = sum (fun r -> r.monitor_violations);
      span_self = List.concat_map (fun r -> r.span_self) rs;
      signature = String.concat "+" (List.map (fun r -> r.signature) rs);
    }
