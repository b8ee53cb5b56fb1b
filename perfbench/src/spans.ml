(* Wall-clock spans around the benchmark's own calls into the program.

   The program itself is not instrumented here: every span brackets a
   call the benchmark makes (System.create, broadcast, join, run_for,
   a wrapped store-backend call, ...).  A span records its parent (the
   span open when it started) and a correlation id, so the spans and
   instants of one broadcast or one join share an id.  Spans stay in
   memory and are written once, as Chrome trace_event JSON that
   Perfetto and chrome://tracing load. *)

type span = {
  id : int;
  name : string;
  parent : int;  (** 0 at the root *)
  corr : string;  (** correlation id, e.g. ["bcast-3"]; "" for none *)
  sim_t : float;  (** simulated time when the span opened *)
  start : float;  (** wall seconds since the recorder was created *)
  mutable dur : float;
}

type t = {
  enabled : bool;
  origin : float;
  mutable stack : int list;
  mutable next : int;
  mutable spans : span list;  (** newest first; instants have [dur = -1] *)
}

let create ~enabled = { enabled; origin = Unix.gettimeofday (); stack = []; next = 1; spans = [] }

let open_span t ~name ~corr ~sim_t =
  let id = t.next in
  t.next <- id + 1;
  let parent = match t.stack with p :: _ -> p | [] -> 0 in
  { id; name; parent; corr; sim_t; start = Unix.gettimeofday () -. t.origin; dur = 0.0 }

let with_span t ?(corr = "") ~name ~sim_t f =
  if not t.enabled then f ()
  else begin
    let s = open_span t ~name ~corr ~sim_t in
    t.stack <- s.id :: t.stack;
    Fun.protect
      ~finally:(fun () ->
        s.dur <- Unix.gettimeofday () -. t.origin -. s.start;
        t.stack <- List.tl t.stack;
        t.spans <- s :: t.spans)
      f
  end

let instant t ?(corr = "") ~name ~sim_t () =
  if t.enabled then begin
    let s = open_span t ~name ~corr ~sim_t in
    s.dur <- -1.0;
    t.spans <- s :: t.spans
  end

let spans t = List.rev t.spans

(* Self time per span name: each span's duration minus the part of it
   its direct children cover, summed by name, sorted by name. *)
let self_times t =
  let child_cover = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.dur >= 0.0 && s.parent <> 0 then
        Hashtbl.replace child_cover s.parent
          (s.dur +. Option.value ~default:0.0 (Hashtbl.find_opt child_cover s.parent)))
    t.spans;
  let by_name = Hashtbl.create 16 in
  List.iter
    (fun s ->
      if s.dur >= 0.0 then begin
        let self = s.dur -. Option.value ~default:0.0 (Hashtbl.find_opt child_cover s.id) in
        let n, sum = Option.value ~default:(0, 0.0) (Hashtbl.find_opt by_name s.name) in
        Hashtbl.replace by_name s.name (n + 1, sum +. self)
      end)
    t.spans;
  Hashtbl.fold (fun name (n, sum) acc -> (name, n, sum) :: acc) by_name []
  |> List.sort (fun (a, _, _) (b, _, _) -> String.compare a b)

let us seconds = Printf.sprintf "%.3f" (seconds *. 1e6)

let write_chrome t ~path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
      output_string oc
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,\"args\":{\"name\":\"perfbench\"}}";
      List.iter
        (fun s ->
          let phase =
            if s.dur < 0.0 then "\"ph\":\"i\",\"s\":\"t\""
            else Printf.sprintf "\"ph\":\"X\",\"dur\":%s" (us s.dur)
          in
          Printf.fprintf oc
            ",\n{\"name\":%s,\"cat\":\"perfbench\",%s,\"ts\":%s,\"pid\":1,\"tid\":1,\"args\":{\"span\":%d,\"parent\":%d,\"id\":%s,\"sim_t\":%s}}"
            (Atum_util.Json.to_string (Atum_util.Json.String s.name))
            phase (us s.start) s.id s.parent
            (Atum_util.Json.to_string (Atum_util.Json.String s.corr))
            (Atum_util.Json.float_to_string s.sim_t))
        (spans t);
      output_string oc "\n]}\n")
