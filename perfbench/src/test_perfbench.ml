(* Tests of the benchmark's own helpers, and a smoke size of each
   workload that must emit every metric BENCHMARK.json names. *)

open Perfbench
module Json = Atum_util.Json

let feq = Alcotest.float 1e-12

let test_percentile () =
  let sorted = Array.init 100 (fun i -> float_of_int (i + 1)) in
  let q = Stats.quantile_of_sorted sorted ~permille:500 in
  Alcotest.(check feq) "p50 of 1..100" 50.0 q.value;
  Alcotest.(check int) "sample count carried" 100 q.n;
  Alcotest.(check feq) "p99 of 1..100" 99.0 (Stats.quantile_of_sorted sorted ~permille:990).value;
  Alcotest.(check feq) "p100 is the max" 100.0 (Stats.quantile_of_sorted sorted ~permille:1000).value;
  Alcotest.(check feq) "p0 is the min" 1.0 (Stats.quantile_of_sorted sorted ~permille:0).value;
  Alcotest.(check feq) "single sample" 7.0 (Stats.quantile_of_sorted [| 7.0 |] ~permille:990).value;
  Alcotest.check_raises "empty sample" (Invalid_argument "Stats.quantile: empty sample") (fun () ->
      ignore (Stats.quantile_of_sorted [||] ~permille:500));
  Alcotest.(check feq) "median of even list" 2.5 (Stats.median [ 4.0; 1.0; 3.0; 2.0 ]);
  Alcotest.(check string) "level names" "p99.9 p95 p50"
    (String.concat " " (List.map Stats.level_name [ 999; 950; 500 ]))

let test_highest_supported () =
  let check n want =
    Alcotest.(check (option int)) (Printf.sprintf "n=%d" n) want (Stats.highest_supported n)
  in
  (* ≈200 join samples: p95 leaves exactly ten beyond it, p99 two. *)
  check 200 (Some 950);
  check 199 (Some 900);
  check 1000 (Some 990);
  check 999 (Some 950);
  check 10_000 (Some 999);
  check 20 (Some 500);
  check 19 None;
  check 0 None;
  Alcotest.(check int) "beyond p95 of 200" 10 (Stats.beyond ~permille:950 200)

let result ?(delivered_ok = 0) ?(mismatched = 0) ?(expected = 0) ?(expected_hit = 0)
    ?(bad_outside = 0) ?(joins_started = 0) ?(joins_installed = 0) () : Workload.result =
  {
    setup_s = 0.5;
    timed_s = 2.0;
    cpu_s = 2.0;
    scale = 1.0;
    delivered_ok;
    mismatched;
    expected;
    expected_hit;
    bad_outside;
    latencies = [| 1.0; 2.0 |];
    joins_started;
    joins_installed;
    join_latencies = Array.make joins_installed 3.0;
    catchups = [||];
    peak_heap_words = 2_000_000;
    live_heap_words = 1_000_000;
    counts = [];
    self_s = [];
    store_busy_s = 0.0;
    trace_admitted = 0;
    trace_dropped = 0;
    monitor_violations = 0;
    span_self = [];
    signature = "";
  }

let value name ms =
  match List.find_opt (fun (m : Stats.metric) -> String.equal m.name name) ms with
  | Some m -> m.value
  | None -> Alcotest.failf "metric %s missing" name

let test_ratio_bases () =
  Alcotest.(check feq) "empty base reads 0" 0.0 (Stats.ratio 3 0);
  Alcotest.(check feq) "ratio" 0.25 (Stats.ratio 1 4);
  (* 10 owed pairs, 8 hit; 2 wrong bodies among 11 deliveries (one of
     them at a pair that was not owed); 4 joins, 3 installed. *)
  let r =
    result ~delivered_ok:9 ~mismatched:2 ~expected:10 ~expected_hit:8 ~bad_outside:1
      ~joins_started:4 ~joins_installed:3 ()
  in
  let _, info =
    Report.end_to_end r ~by_deployment:[ [ r ] ] ~setup:[ (0.1, 1, 1.0); (0.3, 2, 1.0); (0.2, 1, 1.0) ]
  in
  let ms = List.map fst info in
  Alcotest.(check feq) "delivery_ratio: hits over owed pairs" 0.8 (value "delivery_ratio" ms);
  Alcotest.(check feq) "integrity_fail_ratio: wrong bodies over all deliveries" (2.0 /. 11.0)
    (value "integrity_fail_ratio" ms);
  Alcotest.(check feq) "join_success_ratio: installed over started" 0.75 (value "join_success_ratio" ms);
  Alcotest.(check feq) "deliveries_per_s: body-matching deliveries over timed CPU" 4.5
    (value "deliveries_per_s" ms);
  let rate by_deployment =
    value "deliveries_per_s" (fst (Report.end_to_end r ~by_deployment ~setup:[ (0.1, 1, 1.0) ]))
  in
  let faster = { r with cpu_s = 1.0 } and stalled = { r with cpu_s = 10.0 } in
  Alcotest.(check feq) "a deployment is timed by the median of its repeats" 4.5
    (rate [ [ r; faster; stalled ] ]);
  let other = { r with delivered_ok = 3; cpu_s = 1.0 } in
  Alcotest.(check feq) "deployments sum" 4.0 (rate [ [ r ]; [ other ] ]);
  Alcotest.(check feq) "setup_s: median of the batches' seconds per set-up" 0.15 (value "setup_s" ms);
  (* Measured while the probes read the machine slow (scale 0.5): the
     gated times halve, the raw CPU figures do not. *)
  let _, slow =
    Report.end_to_end r ~by_deployment:[ [ { r with scale = 0.5 } ] ] ~setup:[ (0.2, 1, 0.5) ]
  in
  let slow = List.map fst slow in
  Alcotest.(check feq) "scaled rate" 9.0 (value "deliveries_per_s" slow);
  Alcotest.(check feq) "raw rate" 4.5 (value "deliveries_per_cpu_s" slow);
  Alcotest.(check feq) "scaled set-up" 0.1 (value "setup_s" slow);
  Alcotest.(check feq) "raw set-up" 0.2 (value "setup_cpu_s" slow);
  Alcotest.(check feq) "peak heap in Mwords" 2.0 (value "peak_heap_mwords" ms);
  Alcotest.(check feq) "retained heap in Mwords" 1.0 (value "live_heap_mwords" ms);
  (* attempted = owed 10 + unowed good 1 + unowed bad 1 + joins 4. *)
  Alcotest.(check int) "attempted" 16 (Workload.attempted r);
  (* failed = missed owed 2 + unowed bad 1 + joins never installed 1. *)
  Alcotest.(check int) "failed" 4 (Workload.failed r)

let test_pool () =
  let a = result ~delivered_ok:3 ~expected:4 ~expected_hit:3 () in
  let b = { (result ~delivered_ok:5 ~expected:5 ~expected_hit:5 ()) with peak_heap_words = 7 } in
  let p = Workload.pool [ a; b ] in
  Alcotest.(check int) "summed deliveries" 8 p.delivered_ok;
  Alcotest.(check feq) "summed wall" 4.0 p.timed_s;
  Alcotest.(check int) "pooled samples" 4 (Array.length p.latencies);
  Alcotest.(check int) "peak of peaks" 2_000_000 p.peak_heap_words

(* Probes run between calls into the program and must leave its heap
   and every compared count alone. *)
let test_probe_allocates_nothing () =
  let t = Refspeed.create () in
  Refspeed.probe t;
  let w0 = Gc.minor_words () in
  for _ = 1 to 50 do
    Refspeed.probe t;
    Refspeed.tick t
  done;
  let w1 = Gc.minor_words () in
  Alcotest.(check feq) "minor words allocated by probes" 0.0 (w1 -. w0);
  Alcotest.(check bool) "a positive scale" true (Refspeed.scale t > 0.0)

let benchmark_json () =
  let path = "../BENCHMARK.json" in
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Json.of_string_exn s

(* [(name, unit)] of every metric a BENCHMARK.json section lists. *)
let listed section =
  let str k m = match Json.member k m with Some (Json.String v) -> v | _ -> Alcotest.failf "no %s" k in
  match Json.member section (benchmark_json ()) with
  | Some (Json.List l) -> List.map (fun m -> (str "name" m, str "unit" m)) l
  | _ -> Alcotest.failf "BENCHMARK.json: no %s" section

let check_emitted ~what ~want (ms : Stats.metric list) =
  List.iter
    (fun (m : Stats.metric) ->
      if not (Stats.valid_name m.name) then Alcotest.failf "%s: bad metric name %S" what m.name;
      if not (Stats.valid_unit m.unit_) then Alcotest.failf "%s: bad unit %S for %s" what m.unit_ m.name;
      if not (Float.is_finite m.value) then Alcotest.failf "%s: %s is not finite" what m.name)
    ms;
  Alcotest.(check (list (pair string string)))
    (what ^ " names and units") want
    (List.map (fun (m : Stats.metric) -> (m.name, m.unit_)) ms)

let smoke kind () =
  let spec = Workload.spec ~size:Workload.Smoke kind in
  let run traced = Workload.run ~traced spec ~seed:3 in
  let r1, _ = run false and r2, _ = run false in
  Alcotest.(check string) "same seed, same outcome" r1.signature r2.signature;
  Alcotest.(check bool) "something delivered" true (r1.delivered_ok > 0);
  let rt, spans = run true in
  Alcotest.(check string) "tracing does not perturb the simulation" r1.signature rt.signature;
  let gated, info =
    Report.end_to_end r1 ~by_deployment:[ [ r1; r2 ] ]
      ~setup:[ (r1.setup_s, 1, r1.scale); (r2.setup_s, 1, r2.scale) ]
  in
  check_emitted ~what:"end_to_end" ~want:(listed "end_to_end") gated;
  let info = List.map fst info in
  check_emitted ~what:"informative" ~want:(List.map (fun (m : Stats.metric) -> (m.name, m.unit_)) info) info;
  check_emitted ~what:"per_layer" ~want:(listed "per_layer") (Report.per_layer r1 rt ~overhead:1.0);
  (* The span file is Chrome trace_event JSON: every event names its
     parent span. *)
  let path = Workload.name kind ^ ".smoke.trace.json" in
  Spans.write_chrome spans ~path;
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove path;
  match Json.member "traceEvents" (Json.of_string_exn s) with
  | Some (Json.List (_ :: (_ :: _ as evs))) ->
    List.iter
      (fun e ->
        match Option.bind (Json.member "args" e) (Json.member "parent") with
        | Some (Json.Int _) -> ()
        | _ -> Alcotest.fail "span without a parent")
      evs;
    Alcotest.(check bool) "setup span recorded" true
      (List.exists (fun e -> Json.member "name" e = Some (Json.String "setup")) evs)
  | _ -> Alcotest.fail "no spans written"

let () =
  Alcotest.run "perfbench"
    [ ( "helpers",
        [ Alcotest.test_case "percentile with sample count" `Quick test_percentile;
          Alcotest.test_case "highest supported percentile" `Quick test_highest_supported;
          Alcotest.test_case "ratio bases" `Quick test_ratio_bases;
          Alcotest.test_case "pooling deployments" `Quick test_pool;
          Alcotest.test_case "probes allocate nothing" `Quick test_probe_allocates_nothing ] );
      ( "smoke",
        List.map
          (fun k -> Alcotest.test_case (Workload.name k) `Quick (smoke k))
          Workload.all ) ]
