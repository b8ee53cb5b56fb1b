(* From runs to named metrics.

   End-to-end metrics come from untraced runs.  Times are CPU seconds
   (see [Refspeed.cpu]) scaled to the machine's typical speed by
   the probes taken while they were measured (see [Refspeed]).  A rate
   times each deployment by the median of its repeats, so a run the
   machine slows for a while moves the figure by less than its share;
   set-up time is the median over the set-up batches; simulated figures
   pool the first run of each deployment (the determinism check has
   shown repeats agree).
   Per-layer metrics combine the counts of an untraced run with the
   timings of a traced one. *)

open Stats

(* [num] summed over deployments, per second, where each deployment
   takes the median CPU seconds of its runs in [by_deployment] (one
   list per deployment; repeats of one deployment count the same),
   scaled to the machine's typical speed when [scaled]. *)
let rate ~scaled (by_deployment : Workload.result list list) num =
  let timed = List.filter (fun l -> l <> []) by_deployment in
  let seconds l =
    median (List.map (fun (r : Workload.result) -> r.cpu_s *. if scaled then r.scale else 1.0) l)
  in
  fratio
    (float_of_int (List.fold_left (fun a l -> a + num (List.hd l)) 0 timed))
    (List.fold_left (fun a l -> a +. seconds l) 0.0 timed)

(* [first] pools one run of each deployment and gives the simulated
   figures; [by_deployment] holds the runs each deployment's rate is
   timed over; [setup] holds the set-up batches as (CPU seconds,
   set-ups, speed scale).  Returns the metrics gated in BENCHMARK.json,
   and every end-to-end metric this workload defines, the latter with
   their sample counts where they have one. *)
let end_to_end (first : Workload.result) ~by_deployment ~setup =
  let setup_s ~scaled =
    median (List.map (fun (s, n, k) -> s /. float_of_int n *. if scaled then k else 1.0) setup)
  in
  let rate_s = rate ~scaled:true by_deployment in
  let gated =
    [ metric "setup_s" "s" (setup_s ~scaled:true);
      metric "deliveries_per_s" "1/s" (rate_s (fun r -> r.delivered_ok));
      metric "live_heap_mwords" "Mwords" (float_of_int first.live_heap_words /. 1e6) ]
  in
  let lat = first.latencies in
  let with_n name unit_ sorted ~permille =
    if Array.length sorted = 0 then []
    else
      let q = quantile_of_sorted sorted ~permille in
      [ (metric name unit_ q.value, Some q.n) ]
  in
  let informative =
    List.map (fun m -> (m, None)) gated
    @ [ (metric "setup_cpu_s" "s" (setup_s ~scaled:false), None);
        ( metric "deliveries_per_cpu_s" "1/s" (rate ~scaled:false by_deployment (fun r -> r.delivered_ok)),
          None );
        ( metric "speed_scale" "ratio"
            (median (List.map (fun (r : Workload.result) -> r.scale) (List.concat by_deployment))),
          Some (List.length (List.concat by_deployment)) );
        (metric "peak_heap_mwords" "Mwords" (float_of_int first.peak_heap_words /. 1e6), None);
        (metric "timed_s" "s" first.timed_s, None) ]
    @ (if first.joins_started > 0 then
         [ (metric "joins_per_s" "1/s" (rate_s (fun r -> r.joins_installed)), None) ]
       else [])
    @ with_n "bcast_latency_p50_s" "s" lat ~permille:500
    @ with_n "bcast_latency_p99_s" "s" lat ~permille:990
    @ [ (metric "delivery_ratio" "ratio" (ratio first.expected_hit first.expected), Some first.expected);
        ( metric "integrity_fail_ratio" "ratio"
            (ratio first.mismatched (first.delivered_ok + first.mismatched)),
          Some (first.delivered_ok + first.mismatched) ) ]
    @ with_n "join_latency_p50_s" "s" first.join_latencies ~permille:500
    @ (match highest_supported (Array.length first.join_latencies) with
      | Some permille when permille >= 500 ->
        with_n
          (Printf.sprintf "join_latency_%s_s" (level_name permille))
          "s" first.join_latencies ~permille
      | _ -> [])
    @ (if first.joins_started > 0 then
         [ ( metric "join_success_ratio" "ratio" (ratio first.joins_installed first.joins_started),
             Some first.joins_started ) ]
       else [])
    @ with_n "restart_catchup_p50_s" "s" first.catchups ~permille:500
  in
  (gated, informative)

let count (r : Workload.result) k =
  match List.assoc_opt k r.counts with Some v -> v | None -> invalid_arg ("Report.count: " ^ k)

(* Per-layer metrics: counts from an untraced run [r], timings and
   observability figures from a traced run [tr]; [overhead] is the
   traced run's timed wall over the untraced one's. *)
let per_layer (r : Workload.result) (tr : Workload.result) ~overhead =
  let c = count r in
  let per_delivery k = ratio (c k) r.delivered_ok in
  let self l = Option.value ~default:0.0 (List.assoc_opt l tr.self_s) in
  let exch = c "metric.exchange.completed" in
  List.concat
    [ [ metric "engine.events" "count" (float_of_int (c "engine.events"));
        metric "engine.events_per_delivery" "events/delivery" (per_delivery "engine.events") ];
      List.map
        (fun l -> metric ("engine.events." ^ l) "count" (float_of_int (c ("engine.events." ^ l))))
        Workload.profile_labels;
      List.map (fun l -> metric ("engine.self_s." ^ l) "s" (self l)) Workload.profile_labels;
      [ metric "network.messages" "count" (float_of_int (c "network.messages"));
        metric "network.bytes" "bytes" (float_of_int (c "network.bytes"));
        metric "network.drops" "count" (float_of_int (c "network.drops"));
        metric "network.messages_per_delivery" "msgs/delivery" (per_delivery "network.messages");
        metric "network.bytes_per_delivery" "bytes/delivery" (per_delivery "network.bytes");
        metric "gossip.forward_calls" "count" (float_of_int (c "gossip.forward_calls"));
        metric "gossip.forward_taken_ratio" "ratio"
          (ratio (c "gossip.forward_taken") (c "gossip.forward_calls"));
        metric "gm.sent" "count" (float_of_int (c "metric.gm.sent"));
        metric "smr.round_ticks" "count" (float_of_int (c "engine.events.rounds.tick"));
        metric "smr.timer_events" "count" (float_of_int (c "engine.events.smr.timer"));
        metric "saga.join_requested" "count" (float_of_int (c "metric.join.requested"));
        metric "saga.join_completed" "count" (float_of_int (c "metric.join.completed"));
        metric "saga.timeouts" "count" (float_of_int (c "metric.saga.timeout"));
        metric "saga.exchange_completion_ratio" "ratio"
          (ratio exch (exch + c "metric.exchange.suppressed"));
        metric "saga.splits" "count" (float_of_int (c "metric.vgroup.split"));
        metric "saga.merges" "count" (float_of_int (c "metric.vgroup.merge"));
        metric "overlay.walks_started" "count" (float_of_int (c "metric.walk.started"));
        metric "overlay.walk_success_ratio" "ratio"
          (ratio (c "metric.walk.completed") (c "metric.walk.started"));
        metric "overlay.walks_lost" "count" (float_of_int (c "metric.walk.lost"));
        metric "store.appends" "count" (float_of_int (c "store.appends"));
        metric "store.log_bytes" "bytes" (float_of_int (c "store.log_bytes"));
        metric "store.bytes_per_delivery" "bytes/delivery" (per_delivery "store.written");
        metric "store.snapshots" "count" (float_of_int (c "store.snapshots"));
        metric "store.fsyncs" "count" (float_of_int (c "store.fsyncs"));
        metric "store.busy_s" "s" tr.store_busy_s;
        metric "recovery.restarts" "count" (float_of_int (c "metric.recovery.restart"));
        metric "recovery.fallbacks" "count" (float_of_int (c "metric.recovery.fallback"));
        metric "recovery.replayed" "count" (float_of_int (c "recovery.replayed"));
        metric "recovery.catchup_delivered" "count"
          (float_of_int (c "metric.recovery.catchup.delivered"));
        metric "gc.minor_words_per_message" "words/msg"
          (ratio (c "gc.minor_words") (c "network.messages"));
        metric "gc.minor_words_per_delivery" "words/delivery" (per_delivery "gc.minor_words");
        metric "gc.major_collections" "count" (float_of_int (c "gc.major_collections"));
        metric "obs.overhead_ratio" "ratio" overhead;
        metric "trace.admitted" "count" (float_of_int tr.trace_admitted);
        metric "trace.dropped" "count" (float_of_int tr.trace_dropped);
        metric "monitor.violations" "count" (float_of_int tr.monitor_violations) ] ]

let metrics_json ms =
  Atum_util.Json.Obj
    (List.map
       (fun m ->
         ( m.name,
           Atum_util.Json.Obj
             [ ("value", Atum_util.Json.Float m.value); ("unit", Atum_util.Json.String m.unit_) ] ))
       ms)

let print_metric ?n m =
  match n with
  | Some n -> Printf.printf "  %-34s %16.6f %-15s (n=%d)\n" m.name m.value m.unit_ n
  | None -> Printf.printf "  %-34s %16.6f %s\n" m.name m.value m.unit_
