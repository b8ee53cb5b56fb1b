(** Global round driver for the synchronous deployment.

    Sync Atum (Dolev-Strong inside vgroups, lock-step gossip) assumes
    a synchronous network: every protocol step happens on a round
    boundary.  The driver ticks a shared round counter on the engine
    clock and invokes subscribers in subscription order. *)

type t

val create : Engine.t -> round_duration:float -> t

val round_duration : t -> float

val current_round : t -> int

val next_boundary : t -> float -> float
(** [next_boundary t time] is the first round boundary strictly after
    [time]: boundaries are the multiples of the round duration. *)

val subscribe : t -> (int -> unit) -> int
(** [subscribe t f] calls [f round] at every round boundary; returns a
    subscription id. *)

val unsubscribe : t -> int -> unit

val start : t -> unit
(** Tick at every round boundary from {!next_boundary} of the current
    engine time on.  Idempotent while running. *)

val stop : t -> unit
(** Stop ticking after the current round.  A later {!start} begins a
    fresh tick chain; the stopped one never ticks again. *)
