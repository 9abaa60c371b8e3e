(* Host-time benchmark driver: one workload, one process.

     iris_perf.exe --workload NAME --seed N --seconds S --trace 0|1
                   [--commit REV] [--spans-out PATH]

   Set-up runs [setup_reps] times (once when traced), [setup_s] is the
   median; the first set-up is timed from process start.  The last
   set-up's session then runs timed operations until [--seconds]
   have passed.  Every host time is divided by the box-speed factor
   measured around it ([Boxref]); the raw figures go to the report
   and the meta line.  With [--trace 0] the last stdout line carries the
   end-to-end metrics; with [--trace 1] operations alternate plain and
   traced, a census fills in the layers the workload does not reach,
   and the last line carries the per-layer metrics.  Output checks
   run in both modes and feed "attempted"/"failed". *)

module T = Tracer
module C = Counters
module Check = Passes.Check

let t_start = T.now_ns ()

let usage () =
  prerr_endline
    "usage: iris_perf.exe --workload NAME --seed N --seconds S --trace 0|1 \
     [--commit REV] [--spans-out PATH]";
  exit 2

type args = {
  workload : Workloads.t;
  seed : int;
  seconds : float;
  traced : bool;
  commit : string;
  spans_out : string option;
}

let parse () =
  let get = Hashtbl.create 8 in
  let rec go = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        Hashtbl.replace get (String.sub k 2 (String.length k - 2)) v;
        go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  let find k = match Hashtbl.find_opt get k with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (find k) with Some n -> n | None -> usage () in
  let name = find "workload" in
  let workload =
    match List.find_opt (fun w -> w.Workloads.name = name) Workloads.all with
    | Some w -> w
    | None ->
        Printf.eprintf "unknown workload %S; one of: %s\n" name
          (String.concat ", "
             (List.map (fun w -> w.Workloads.name) Workloads.all));
        exit 2
  in
  { workload;
    seed = int "seed";
    seconds = float_of_int (int "seconds");
    traced = int "trace" <> 0;
    commit = Option.value ~default:"unknown" (Hashtbl.find_opt get "commit");
    spans_out = Hashtbl.find_opt get "spans-out" }

(* VmHWM of this process, in MB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" Fun.id
    | _ -> scan ()
    | exception End_of_file -> 0
  in
  let kb = scan () in
  close_in ic;
  float_of_int kb /. 1024.0

let median = Passes.median

(* --- metrics and the result line --- *)

type metric = { m_name : string; m_value : float; m_unit : string }

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

(* A metric that could not be measured fails the run instead of
   printing a non-number. *)
let checked ms =
  List.map
    (fun m ->
      if Float.is_finite m.m_value then m
      else begin
        Check.op false (lazy (m.m_name ^ " was not measured"));
        { m with m_value = 0.0 }
      end)
    ms

let result_line ms =
  let metrics =
    List.map
      (fun m ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.m_name
          (json_number m.m_value) m.m_unit)
      ms
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (!Check.failed = 0) (max 1 !Check.attempted) !Check.failed
    (String.concat ", " metrics)

(* --- per-layer metrics from the tracer and counters --- *)

let m name unit value = { m_name = name; m_value = value; m_unit = unit }

let quantiles ?(p99 = true) base span unit scale =
  [ m (base ^ ".p50") unit (T.pct_us span 50.0 *. scale) ]
  @ (if p99 then [ m (base ^ ".p99") unit (T.pct_us span 99.0 *. scale) ]
     else [])
  @ [ m (base ^ ".n") "count" (float_of_int (T.count span)) ]

let per_us_of span counter = T.total_s span *. 1e6 /. C.get counter

let layers =
  [ "bench"; "core"; "vtx"; "hv"; "coverage"; "fuzzer"; "orchestrator";
    "service"; "differential" ]

let per_layer ~shares ~gc_words_per_op ~gc_majors ~overhead_pct =
  let ms = 1e-3 in
  let direct_case_us =
    C.get "service.direct_seconds" *. 1e6 /. C.get "service.direct_cases"
  in
  let service_case_us = T.pct_us "service.case" 50.0 in
  List.concat
    [ [ m "core.record.us_per_exit" "us" (per_us_of "core.record" "core.record.exits");
        m "core.record.words_per_exit" "words"
          (C.ratio "core.record.words" "core.record.exits");
        m "core.trace.encode_us_per_seed" "us"
          (per_us_of "core.trace.encode" "core.record.exits");
        m "core.trace.decode_us_per_seed" "us"
          (per_us_of "core.trace.decode" "core.trace.decoded");
        m "core.trace.bytes_per_seed" "B"
          (C.ratio "core.trace.bytes" "core.record.exits") ];
      quantiles "core.replay.submit_us" "core.replay.submit" "us" 1.0;
      [ m "core.replay.words_per_seed" "words"
          (C.ratio "core.replay.words" "core.replay.seeds");
        m "core.analysis.accuracy_ms" "ms"
          (T.pct_us "core.analysis.accuracy" 50.0 *. ms) ];
      quantiles "vtx.engine.run_until_exit_us" "vtx.engine.run_until_exit" "us" 1.0;
      [ m "vtx.engine.run_until_exit.words" "words"
          (C.get "vtx.engine.run_until_exit.words") ];
      quantiles "hv.exitpath.handle_us" "hv.exitpath.handle" "us" 1.0;
      [ m "hv.exitpath.handle.words" "words" (C.get "hv.exitpath.handle.words") ];
      quantiles "hv.xen.enter_us" "hv.xen.enter" "us" 1.0;
      [ m "hv.xen.enter.words" "words" (C.get "hv.xen.enter.words") ];
      quantiles "hv.checkpoint.rewind_us" "hv.checkpoint.rewind" "us" 1.0;
      [ m "hv.domain.pages_restored_per_case" "count"
          (C.ratio "hv.domain.pages" "hv.domain.cases");
        m "hv.domain.ept_restored_per_case" "count"
          (C.ratio "hv.domain.ept" "hv.domain.cases");
        m "hv.domain.vmcs_fields_restored_per_case" "count"
          (C.ratio "hv.domain.vmcs_fields" "hv.domain.cases");
        m "hv.domain.rewind_bytes_modeled_per_case" "B"
          (C.ratio "hv.domain.rewind_bytes" "hv.domain.cases") ];
      quantiles "fuzzer.case_us" "fuzzer.case" "us" 1.0;
      [ m "fuzzer.case_words" "words" (C.ratio "fuzzer.words" "fuzzer.plain_cases") ];
      quantiles "fuzzer.submit_us" "fuzzer.submit" "us" 1.0;
      quantiles "coverage.span_us" "coverage.span" "us" 1.0;
      [ m "fuzzer.plan_ms" "ms" (T.pct_us "fuzzer.plan" 50.0 *. ms);
        m "fuzzer.anchor_ms" "ms" (T.pct_us "fuzzer.anchor" 50.0 *. ms);
        m "fuzzer.finalize_ms" "ms" (T.pct_us "fuzzer.finalize" 50.0 *. ms);
        m "fuzzer.vm_crash_share" "ratio"
          (C.ratio "fuzzer.vm_crashes" "fuzzer.executed");
        m "fuzzer.hv_crash_share" "ratio"
          (C.ratio "fuzzer.hv_crashes" "fuzzer.executed");
        m "orchestrator.boot_universe_ms" "ms"
          (T.pct_us "orchestrator.boot_universe" 50.0 *. ms) ];
      quantiles "service.wire.request_us" "service.wire.request" "us" 1.0;
      quantiles ~p99:false "service.round_ms" "service.round" "ms" ms;
      quantiles ~p99:false "service.finish_round_ms" "service.finish_round" "ms" ms;
      [ m "service.verify_ms" "ms" (T.pct_us "service.verify" 50.0 *. ms);
        m "service.distill_ms" "ms" (T.pct_us "service.distill" 50.0 *. ms);
        m "service.report_ms" "ms" (T.pct_us "service.report" 50.0 *. ms);
        m "service.case_us" "us" service_case_us;
        m "service.case_cost_ratio" "ratio" (service_case_us /. direct_case_us);
        m "service.rounds" "count"
          (float_of_int (T.count "service.round" + T.count "service.finish_round")
          /. C.get "service.drains");
        m "service.buckets" "count" (C.get "service.buckets");
        m "service.corpus_entries" "count" (C.get "service.corpus_entries");
        m "service.crashes" "count" (C.get "service.crashes");
        m "service.drain_s.host" "s" (T.pct_us "service.drain" 50.0 *. 1e-6) ];
      [ m "differential.seed_us.p50" "us"
          (T.pct_us "differential.seed" 50.0);
        m "differential.seed_us.n" "count"
          (float_of_int (T.count "differential.seed"));
        m "differential.finalize_ms" "ms"
          (T.pct_us "differential.finalize" 50.0 *. ms);
        m "differential.comparable" "count" (C.get "differential.comparable");
        m "differential.lossy" "count" (C.get "differential.lossy");
        m "differential.findings" "count" (C.get "differential.findings") ];
      [ m "model.replay_exits_per_s" "1/s"
          (C.ratio "model.replay_exits_per_s" "model.replays");
        m "gc.minor_words_per_op" "words" gc_words_per_op;
        m "gc.major_collections" "count" gc_majors;
        m "gc.top_heap_mb" "MB"
          (float_of_int (Gc.quick_stat ()).Gc.top_heap_words *. 8.0 /. 1048576.0);
        m "trace.overhead_pct" "%" overhead_pct ];
      List.map (fun l -> m ("self." ^ l ^ ".share_pct") "%" (shares l)) layers ]

(* --- the run --- *)

let setup_reps = 3

let s_op = T.stat "bench.op"
let s_census = T.stat "bench.census"

let () =
  let a = parse () in
  let wl = a.workload in
  C.enabled := a.traced;
  (* set-up, repeated; the first rep is timed from process start *)
  let reps = if a.traced then 1 else setup_reps in
  (* Every host time below is divided by the box-speed factor
     measured around it (see [Boxref]); the raw figures are reported
     beside the scaled ones. *)
  let setup_times = ref [] and setup_raw = ref [] and session = ref None in
  let factors = ref [] in
  let box () =
    let f = Boxref.factor () in
    factors := f :: !factors;
    f
  in
  T.on := a.traced;
  let f_prev = ref nan in
  for rep = 1 to reps do
    (* collect the previous rep's state, outside the next rep's time,
       so the peak RSS is one session's *)
    session := None;
    if rep > 1 then Gc.full_major ();
    let t0 = if rep = 1 then t_start else T.now_ns () in
    let s = wl.Workloads.setup ~seed:a.seed in
    let raw = T.seconds_since t0 in
    let f = box () in
    let f_rep = if rep = 1 then f else Boxref.between !f_prev f in
    f_prev := f;
    setup_raw := raw :: !setup_raw;
    setup_times := (raw /. f_rep) :: !setup_times;
    session := Some s
  done;
  T.on := false;
  let session = Option.get !session in
  (* Timed operations; a traced run alternates plain and traced.
     Every operation starts from a collected heap, and the GC work it
     causes stays inside its time. *)
  let plain = ref [] and plain_raw = ref [] and traced = ref [] in
  let record_rates = ref [] in
  let words = ref 0.0 and units = ref 0 and majors = ref 0 in
  Gc.full_major ();
  f_prev := box ();
  let deadline = T.now_ns () + int_of_float (a.seconds *. 1e9) in
  let k = ref 0 in
  while T.now_ns () < deadline || !k < 4 do
    let tr = a.traced && !k land 1 = 1 in
    let n_recorded = List.length !(session.Workloads.record_rates) in
    T.on := tr;
    T.op_id := !k;
    let w0 = Gc.minor_words () in
    let m0 = if a.traced then (Gc.quick_stat ()).Gc.major_collections else 0 in
    let op = T.span s_op (fun () -> session.Workloads.run_op !k) in
    let w = Gc.minor_words () -. w0 in
    T.on := false;
    let m1 = if a.traced then (Gc.quick_stat ()).Gc.major_collections else 0 in
    Gc.full_major ();
    let f_after = box () in
    let f = Boxref.between !f_prev f_after in
    f_prev := f_after;
    (* the record-rate samples this operation added, newest first *)
    let all = !(session.Workloads.record_rates) in
    let fresh = List.length all - n_recorded in
    List.iteri
      (fun i r -> if i < fresh then record_rates := (r *. f) :: !record_rates)
      all;
    let per_unit = op.Workloads.seconds /. float_of_int op.Workloads.units in
    if tr then traced := (per_unit /. f) :: !traced
    else begin
      plain := (per_unit /. f) :: !plain;
      plain_raw := per_unit :: !plain_raw;
      words := !words +. w;
      units := !units + op.Workloads.units;
      if a.traced then
        majors := !majors + m1 - m0
    end;
    incr k
  done;
  let throughput = 1.0 /. median !plain in
  let raw_throughput = 1.0 /. median !plain_raw in
  T.on := a.traced;
  session.Workloads.finish ();
  let shares_windows = T.layer_self_shares () in
  if a.traced then
    T.span s_census (fun () ->
        T.op_id := -1;
        Passes.exit_loop ~exits:20_000;
        session.Workloads.census ());
  T.on := false;
  let rss = peak_rss_mb () in
  (* human-readable report *)
  Printf.printf "workload %s, seed %d, %s: %d timed ops (%d plain), %s\n"
    wl.Workloads.name a.seed
    (if a.traced then "traced" else "untraced")
    !k (List.length !plain) wl.Workloads.unit_label;
  let q p =
    Iris_util.Stats.percentile
      (Array.of_list (List.map (fun x -> 1.0 /. x) !plain))
      p
  in
  Printf.printf
    "  host, scaled to box factor 1: %.1f %s/s (median of %d plain ops; p25 \
     %.1f, p75 %.1f, min %.1f, max %.1f); set-up %.3f s (median of %d: %s)\n"
    throughput wl.Workloads.unit_label (List.length !plain) (q 25.0) (q 75.0)
    (q 0.0) (q 100.0) (median !setup_times) reps
    (String.concat " " (List.rev_map (Printf.sprintf "%.3f") !setup_times));
  Printf.printf
    "  host, raw: %.1f %s/s; set-up %.3f s; box factor median %.3f (%d \
     measurements, min %.3f, max %.3f)\n"
    raw_throughput wl.Workloads.unit_label (median !setup_raw)
    (median !factors) (List.length !factors)
    (List.fold_left min infinity !factors)
    (List.fold_left max neg_infinity !factors);
  List.iter
    (fun (ml, mv, hl, hv) ->
      Printf.printf "  modeled %s = %.6g   beside   %s = %.6g\n" ml mv hl hv)
    (session.Workloads.modeled ~throughput);
  if a.traced then begin
    let shares_all = T.layer_self_shares () in
    Printf.printf "  self time by layer (%% of traced time): windows | whole run\n";
    List.iter
      (fun l ->
        Printf.printf "    %-13s %6.2f | %6.2f\n" l (shares_windows l) (shares_all l))
      layers;
    Printf.printf "  hv.checkpoint.rewind p50 %.3f us beside modeled %.0f B/case\n"
      (T.pct_us "hv.checkpoint.rewind" 50.0)
      (C.ratio "hv.domain.rewind_bytes" "hv.domain.cases")
  end;
  Option.iter
    (fun path ->
      T.write_chrome ~path;
      Printf.printf "  spans written to %s (%d kept, %d over the cap)\n" path
        !T.n_spans !T.dropped)
    (if a.traced then a.spans_out else None);
  Printf.printf
    "{\"meta\": {\"workload\": %S, \"seed\": %d, \"traced\": %b, \
     \"recommended_domain_count\": %d, \"ocaml_version\": %S, \"commit\": %S, \
     \"seconds\": %.0f, \"ops\": %d, \"raw_throughput_per_s\": %.17g, \
     \"raw_setup_s\": %.17g, \"box_factor\": %.17g}}\n"
    wl.Workloads.name a.seed a.traced
    (Domain.recommended_domain_count ())
    Sys.ocaml_version a.commit a.seconds !k raw_throughput (median !setup_raw)
    (median !factors);
  let metrics =
    if a.traced then
      let overhead_pct = 100.0 *. ((median !traced /. median !plain) -. 1.0) in
      per_layer ~shares:(T.layer_self_shares ())
        ~gc_words_per_op:(!words /. float_of_int (max 1 !units))
        ~gc_majors:(float_of_int !majors) ~overhead_pct
      @ [ m "bench.box_factor" "ratio" (median !factors);
          m "bench.raw_throughput_per_s" "1/s" raw_throughput ]
    else
      [ m "throughput_per_s" "1/s" throughput;
        m "record_exits_per_s" "1/s" (median !record_rates);
        m "setup_s" "s" (median !setup_times);
        m "peak_rss_mb" "MB" rss ]
  in
  print_endline (result_line (checked metrics))
