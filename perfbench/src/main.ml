(* perfbench: the repository benchmark.

     main.exe --workload W --seed N --seconds S --trace 0|1

   --trace 0 runs the workload's deployments (each with inputs drawn
   from N) in turn, cycling, until S wall seconds have passed; every
   deployment runs at least once and the first runs twice.  The very
   first run warms the process up and is left out of the rates.
   Each repeat must reproduce its first run's simulated outcome and
   counts exactly, or the command fails.  It prints every end-to-end metric by
   name and unit, and as its last line one JSON object with the gated
   metrics.

   --trace 1 measures the first deployment alone: untraced runs for S/2
   seconds, then a traced child process (ATUM_PROF_WALL=1, trace ring,
   telemetry, Monitor, the benchmark's own spans) for S/2 seconds.  It
   writes the per-layer report and a Chrome trace_event span file
   under _artifacts/perfbench and prints the per-layer metrics.

   Exit status: 0 on success; 1 when a correctness or determinism check
   fails (no result line is printed); 2 on bad arguments. *)

open Perfbench
module Json = Atum_util.Json

type opts = {
  workload : Workload.kind;
  seed : int;
  seconds : float;
  trace : bool;
  child : bool;
}

let usage msg =
  prerr_endline ("perfbench: " ^ msg);
  prerr_endline
    "usage: main.exe --workload bcast_sync|churn_sync|bcast_async_byz --seed N --seconds S --trace 0|1";
  exit 2

let parse argv =
  let workload = ref None and seed = ref None and seconds = ref None and trace = ref false in
  let child = ref false in
  let int_arg name v = match int_of_string_opt v with Some i -> i | None -> usage ("bad " ^ name) in
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: rest ->
      (match Workload.of_name v with Some k -> workload := Some k | None -> usage ("unknown workload " ^ v));
      go rest
    | "--seed" :: v :: rest -> seed := Some (int_arg "--seed" v); go rest
    | "--seconds" :: v :: rest ->
      (match float_of_string_opt v with
      | Some s when s > 0.0 -> seconds := Some s
      | _ -> usage "bad --seconds");
      go rest
    | "--trace" :: "0" :: rest -> trace := false; go rest
    | "--trace" :: "1" :: rest -> trace := true; go rest
    | "--child" :: rest -> child := true; go rest
    | a :: _ -> usage ("unexpected argument " ^ a)
  in
  go (List.tl (Array.to_list argv));
  match (!workload, !seed, !seconds) with
  | Some workload, Some seed, Some seconds ->
    { workload; seed; seconds; trace = !trace; child = !child }
  | _ -> usage "--workload, --seed and --seconds are required"

let fail fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("perfbench: FAILED: " ^ s);
      exit 1)
    fmt

let wall = Unix.gettimeofday

(* Set-up batches (see [Workload.setup_batch]) timed after each run
   but the first, so that they are spread over the whole run and see
   the machine in the same states as the timed phases. *)
let setup_batches_per_run = 4

let setup_batch_s = 0.1

(* Deployments cycle through sub-seeds [0 .. k-1]: at least [min_runs]
   of them, then more while the next, as long as the last, would end
   within [seconds].  With [setups], set-up batches follow each run but
   the first, which warms the process up (its heap grows to size).
   Runs after the first cycle keep only what the determinism check and
   the rates read, and only the first run keeps its spans.
   Returns [(result, spans)] in run order and the set-up batches. *)
let run_cycle ~traced o ~k ~seconds ~min_runs ~setups =
  let spec = Workload.spec o.workload in
  let seed i = Workload.sub_seed o.seed (i mod k) in
  let t0 = wall () in
  let rec go acc batches n last =
    if n >= min_runs && (wall () -. t0 +. last > seconds || n >= 500) then (List.rev acc, batches)
    else begin
      let start = wall () in
      let r, spans =
        try Workload.run ~traced spec ~seed:(seed n)
        with Workload.Inconsistent e -> fail "check_consistency: %s" e
      in
      let run = ((if n < k then r else Workload.lean r), if n = 0 then spans else Spans.create ~enabled:false) in
      let batches =
        if (not setups) || n = 0 then batches
        else
          List.init setup_batches_per_run (fun i ->
              Workload.setup_batch spec ~seed:(seed ((n * setup_batches_per_run) + i)) ~min_s:setup_batch_s)
          @ batches
      in
      go (run :: acc) batches (n + 1) (wall () -. start)
    end
  in
  go [] [] 0 0.0

let results runs = List.map fst runs

(* The first cycle, one run per sub-seed, as one result. *)
let first_cycle ~k runs = Workload.pool (List.filteri (fun i _ -> i < k) (results runs))

(* Counts that legitimately differ between same-seed runs in one
   process: major collections depend on the heap earlier runs left. *)
let comparable counts = List.filter (fun (k, _) -> not (String.equal k "gc.major_collections")) counts

let check_same what (a : Workload.result) (b : Workload.result) =
  if not (String.equal a.signature b.signature) then
    fail "%s: simulated outcome differs from the first run of the same seed" what;
  List.iter2
    (fun (k, x) (_, y) -> if x <> y then fail "%s: count %s = %d, first run had %d" what k y x)
    (comparable a.counts) (comparable b.counts)

(* Determinism self-check: every repeated deployment must reproduce its
   first run exactly. *)
let check_determinism ~k runs =
  let rs = Array.of_list (results runs) in
  Array.iteri
    (fun i r ->
      if i >= k then check_same (Printf.sprintf "run %d (repeat of run %d)" (i + 1) ((i mod k) + 1)) rs.(i mod k) r)
    rs

let header o ~k ~runs =
  Printf.printf "perfbench %s seed=%d trace=%d deployments=%d runs=%d\n" (Workload.name o.workload)
    o.seed (if o.trace then 1 else 0) k runs

let result_line (r : Workload.result) metrics =
  print_endline
    (Json.to_string ~pretty:false
       (Json.Obj
          [ ("correct", Json.Bool true); ("attempted", Json.Int (Workload.attempted r));
            ("failed", Json.Int (Workload.failed r)); ("metrics", Report.metrics_json metrics) ]))

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
  end

(* Where --trace 1 writes its report and span file, relative to the
   repository root. *)
let out_dir = Filename.concat "_artifacts" "perfbench"

let stem o = Printf.sprintf "%s-seed%d" (Workload.name o.workload) o.seed

(* --- traced child: prints one JSON line for the parent --------------- *)

let child_main o =
  let runs, _ = run_cycle ~traced:true o ~k:1 ~seconds:o.seconds ~min_runs:1 ~setups:false in
  let first = first_cycle ~k:1 runs in
  mkdir_p out_dir;
  let trace_file = Filename.concat out_dir (stem o ^ ".trace.json") in
  Spans.write_chrome (snd (List.hd runs)) ~path:trace_file;
  let fl l = Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) l) in
  print_endline
    (Json.to_string ~pretty:false
       (Json.Obj
          [ ("signature", Json.String first.signature);
            ( "cpu_s",
              Json.Float (Stats.median (List.map (fun (r : Workload.result) -> r.cpu_s) (results runs))) );
            ("self_s", fl first.self_s); ("store_busy_s", Json.Float first.store_busy_s);
            ("trace_admitted", Json.Int first.trace_admitted);
            ("trace_dropped", Json.Int first.trace_dropped);
            ("monitor_violations", Json.Int first.monitor_violations);
            ( "span_self_s",
              Json.Obj
                (List.map
                   (fun (name, n, s) -> (name, Json.Obj [ ("spans", Json.Int n); ("self_s", Json.Float s) ]))
                   first.span_self) ); ("trace_file", Json.String trace_file) ]))

let spawn_child o =
  let exe = Sys.executable_name in
  let args =
    [| exe; "--workload"; Workload.name o.workload; "--seed"; string_of_int o.seed; "--seconds";
       Printf.sprintf "%g" (o.seconds /. 2.0); "--child" |]
  in
  let env = Array.append [| "ATUM_PROF_WALL=1" |] (Unix.environment ()) in
  let rd, wr = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process_env exe args env Unix.stdin wr Unix.stderr in
  Unix.close wr;
  let ic = Unix.in_channel_of_descr rd in
  let rec last acc = match input_line ic with l -> last (Some l) | exception End_of_file -> acc in
  let line = last None in
  close_in ic;
  let _, status = Unix.waitpid [] pid in
  match (status, line) with
  | Unix.WEXITED 0, Some l -> (
    match Json.of_string l with Ok j -> j | Error e -> fail "traced run printed bad JSON: %s" e)
  | Unix.WEXITED 1, _ -> fail "traced run failed a check"
  | _ -> fail "traced run did not finish"

let member_exn k j = match Json.member k j with Some v -> v | None -> fail "traced run: no %s" k

let num = function Json.Float f -> f | Json.Int i -> float_of_int i | _ -> fail "traced run: not a number"

(* Per-layer figures for the first deployment: counts from untraced
   runs, times from the traced child; both sides repeat the deployment
   for half of the budget each. *)
let traced_main o =
  let runs, _ = run_cycle ~traced:false o ~k:1 ~seconds:(o.seconds /. 2.0) ~min_runs:1 ~setups:false in
  let r = first_cycle ~k:1 runs in
  let _, informative =
    Report.end_to_end r ~by_deployment:[ results runs ] ~setup:[ (r.setup_s, 1, r.scale) ]
  in
  let child = spawn_child o in
  let sig_traced = match member_exn "signature" child with Json.String s -> s | _ -> "" in
  if not (String.equal sig_traced r.signature) then
    fail "the traced run's simulated outcome differs from the untraced run's";
  let untraced_timed = Stats.median (List.map (fun (r : Workload.result) -> r.cpu_s) (results runs)) in
  let overhead = Stats.fratio (num (member_exn "cpu_s" child)) untraced_timed in
  let obj k = match member_exn k child with Json.Obj l -> l | _ -> [] in
  let traced : Workload.result =
    {
      r with
      self_s = List.map (fun (k, v) -> (k, num v)) (obj "self_s");
      store_busy_s = num (member_exn "store_busy_s" child);
      trace_admitted = int_of_float (num (member_exn "trace_admitted" child));
      trace_dropped = int_of_float (num (member_exn "trace_dropped" child));
      monitor_violations = int_of_float (num (member_exn "monitor_violations" child));
    }
  in
  let layers = Report.per_layer r traced ~overhead in
  header o ~k:1 ~runs:(List.length runs);
  print_endline " per-layer (counts: untraced run; times: traced run):";
  List.iter (fun m -> Report.print_metric m) layers;
  (* Each label's share of the engine's self time over all labels: shows
     which layers the workload loads. *)
  let self_total = List.fold_left (fun a (_, t) -> a +. t) 0.0 traced.self_s in
  let shares =
    List.sort (fun (_, a) (_, b) -> Float.compare b a)
      (List.map (fun (l, t) -> (l, Stats.fratio t self_total)) traced.self_s)
  in
  Printf.printf " engine self time by label, share of %.3f s over all labels:\n" self_total;
  List.iteri (fun i (l, x) -> if i < 8 then Printf.printf "  %-34s %6.1f %%\n" l (100.0 *. x)) shares;
  mkdir_p out_dir;
  let report_file = Filename.concat out_dir (stem o ^ ".layers.json") in
  Json.write_file ~path:report_file
    (Json.Obj
       [ ("workload", Json.String (Workload.name o.workload)); ("seed", Json.Int o.seed);
         ("deployment_seed", Json.Int (Workload.sub_seed o.seed 0));
         ("end_to_end", Report.metrics_json (List.map fst informative));
         ("per_layer", Report.metrics_json layers);
         ("engine_self_s_total", Json.Float self_total);
         ("engine_self_s_share", Json.Obj (List.map (fun (l, x) -> (l, Json.Float x)) shares));
         ("span_self_s", member_exn "span_self_s" child);
         ("trace_file", member_exn "trace_file" child) ]);
  Printf.printf "  report: %s\n  spans: %s\n" report_file
    (match member_exn "trace_file" child with Json.String s -> s | _ -> "");
  result_line r layers

let untraced_main o =
  let k = Workload.deployments o.workload in
  let runs, setup = run_cycle ~traced:false o ~k ~seconds:o.seconds ~min_runs:(k + 1) ~setups:true in
  check_determinism ~k runs;
  let r = first_cycle ~k runs in
  (* The first run warms the process up; rates leave it out. *)
  let timed d = List.filteri (fun i _ -> i > 0 && i mod k = d) (results runs) in
  let gated, informative = Report.end_to_end r ~by_deployment:(List.init k timed) ~setup in
  header o ~k ~runs:(List.length runs);
  List.iteri
    (fun i (x : Workload.result) ->
      Printf.printf "  run %d: deployment %d, timed %.3f s wall, %.3f s CPU, speed scale %.4f, %d deliveries\n"
        (i + 1) ((i mod k) + 1) x.timed_s x.cpu_s x.scale x.delivered_ok)
    (results runs);
  Printf.printf "  set-ups timed: %d in %d batches\n" (List.fold_left (fun a (_, n, _) -> a + n) 0 setup)
    (List.length setup);
  print_endline " end-to-end (untraced):";
  List.iter (fun (m, n) -> Report.print_metric ?n m) informative;
  Printf.printf "  operations attempted=%d failed=%d\n" (Workload.attempted r) (Workload.failed r);
  result_line r gated

let () =
  let o = parse Sys.argv in
  if o.child then child_main o else if o.trace then traced_main o else untraced_main o
