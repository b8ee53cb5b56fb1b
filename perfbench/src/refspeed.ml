(* How fast the machine is running, read from a small fixed probe.

   The benchmark runs on a shared host whose speed moves under it: the
   same run of the same deployment takes anywhere from 1x to 2x the CPU
   time, sometimes from one run to the next, sometimes in stretches of
   minutes.  The moves are in the memory system the host's tenants
   share: a probe that stays in a core's own caches hardly moves with
   them, one that reads from the shared cache moves more than the
   simulator does.  So while a phase is timed, the benchmark runs a
   fixed probe every [every_s] CPU seconds, between two calls into the
   program: it chases a ring of cache lines after pushing them out of
   the core's caches into the shared one, and times the chase.  The
   probe uses none of the simulator and allocates nothing, and its
   buffers are bytes, which the GC does not scan, so it changes neither
   the program's heap nor any count the benchmark compares between
   runs.  The phase's CPU seconds, less the probes' own, are then
   scaled by [scale], so the gated times read roughly as they would on
   this machine at its typical speed. *)

(* Processor time of this process, user + system (getrusage).  Time
   the process spends waiting for a CPU is left out.  Allocates
   nothing. *)
let cpu = Sys.time

(* The probe's typical CPU time on the 2-core x86-64 VM the benchmark
   was tuned on.  Only a unit: the gates compare ratios. *)
let nominal_s = 0.00065

(* How much of the probe's slow-down the simulator shares (see [scale]):
   over runs of one deployment repeated for minutes on that VM, the
   simulator's CPU time moved as the probe's to about this power. *)
let elasticity = 0.6

let every_s = 0.1

let line = 64

(* Ring slots, one per cache line. *)
let slots = 4096

(* One cycle through all slots (Sattolo's shuffle, fixed seed): the
   first two bytes of a slot's line hold the next slot, so every step
   is a load that depends on the last.  Built when the program starts,
   so that no run's heap figures count it. *)
let ring =
  let next = Array.init slots Fun.id in
  let rng = Random.State.make [| 7 |] in
  for i = slots - 1 downto 1 do
    let j = Random.State.int rng i in
    let t = next.(i) in
    next.(i) <- next.(j);
    next.(j) <- t
  done;
  let b = Bytes.make (slots * line) '\000' in
  Array.iteri (fun i n -> Bytes.set_uint16_le b (i * line) n) next;
  b

(* More than a core's own caches hold (2 MB of L2 on that VM). *)
let sweep = Bytes.make (8 lsl 20) '\001'

let chase () =
  let j = ref 0 in
  for _ = 1 to slots do
    j := Bytes.get_uint16_le ring (!j * line)
  done;
  !j

(* Reads one byte of every line of [sweep], which pushes the ring out
   of the core's caches into the shared one. *)
let evict () =
  let s = ref 0 and i = ref 0 in
  while !i < Bytes.length sweep do
    s := !s + Bytes.get_uint8 sweep !i;
    i := !i + line
  done;
  !s

let rounds = 3

(* Probe readings of one timed phase.  All fields are floats, so the
   record is stored flat and updating it allocates nothing. *)
type t = {
  mutable next : float;  (** CPU time of the next due probe *)
  mutable inv : float;  (** sum over probes of nominal_s / probe seconds *)
  mutable probes : float;
  mutable spent : float;  (** CPU seconds inside probes *)
}

let create () = { next = 0.0; inv = 0.0; probes = 0.0; spent = 0.0 }

(* A probe: one chase brings the ring in from wherever the program
   left it; then [rounds] times, evict it to the shared cache and time
   a chase.  The reading does not depend on what the program left in
   the caches. *)
let probe t =
  let start = cpu () in
  ignore (Sys.opaque_identity (chase ()));
  let d = ref 0.0 in
  for _ = 1 to rounds do
    ignore (Sys.opaque_identity (evict ()));
    let t0 = cpu () in
    ignore (Sys.opaque_identity (chase ()));
    d := !d +. (cpu () -. t0)
  done;
  let t1 = cpu () in
  t.inv <- t.inv +. (nominal_s /. Float.max !d 1e-6);
  t.probes <- t.probes +. 1.0;
  t.spent <- t.spent +. (t1 -. start);
  t.next <- t1 +. every_s

(* A probe if one is due. *)
let tick t = if cpu () >= t.next then probe t

(* CPU seconds spent in probes, to leave out of the phase's time. *)
let spent t = t.spent

(* The factor that takes the phase's CPU seconds to the machine's
   typical speed: below 1 while the machine runs slower.  The mean over
   the probes of [nominal_s] over the probe's time, to the power
   [elasticity]. *)
let scale t = if Float.equal t.probes 0.0 then 1.0 else (t.inv /. t.probes) ** elasticity
