type t = {
  engine : Engine.t;
  duration : float;
  mutable round : int;
  mutable running : bool;
  (* Bumped by every [start]: a tick chain left pending by [stop]
     finds a newer token and ends instead of ticking alongside its
     successor. *)
  mutable chain : int;
  mutable next_id : int;
  mutable subscribers : (int * (int -> unit)) list; (* in subscription order *)
}

let create engine ~round_duration =
  if round_duration <= 0.0 then invalid_arg "Rounds.create: duration must be positive";
  {
    engine;
    duration = round_duration;
    round = 0;
    running = false;
    chain = 0;
    next_id = 0;
    subscribers = [];
  }

let round_duration t = t.duration

let current_round t = t.round

let next_boundary t time = (Float.floor (time /. t.duration) +. 1.0) *. t.duration

let subscribe t f =
  let id = t.next_id in
  t.next_id <- id + 1;
  t.subscribers <- t.subscribers @ [ (id, f) ];
  id

let unsubscribe t id = t.subscribers <- List.filter (fun (i, _) -> i <> id) t.subscribers

let start t =
  if not t.running then begin
    t.running <- true;
    t.chain <- t.chain + 1;
    let chain = t.chain in
    Engine.every ~label:"rounds.tick" t.engine
      ~start:(next_boundary t (Engine.now t.engine))
      ~period:t.duration
      (fun () ->
        if t.running && t.chain = chain then begin
          t.round <- t.round + 1;
          List.iter (fun (_, f) -> f t.round) t.subscribers;
          true
        end
        else false)
  end

let stop t = t.running <- false
