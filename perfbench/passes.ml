(* The benchmark's passes over IRIS's public library functions.

   Each pass comes in the two shapes the benchmark needs: the plain
   library call (what the CLI runs, timed with tracing off) and, where
   a per-layer split is wanted, the same steps re-driven one public
   call at a time inside tracer spans.  Every split path is checked
   against the plain path's output. *)

module Manager = Iris_core.Manager
module Trace = Iris_core.Trace
module Seed = Iris_core.Seed
module Replayer = Iris_core.Replayer
module Recorder = Iris_core.Recorder
module Analysis = Iris_core.Analysis
module Campaign = Iris_fuzzer.Campaign
module Mutation = Iris_fuzzer.Mutation
module Checkpoint = Iris_hv.Checkpoint
module Domain = Iris_hv.Domain
module Ctx = Iris_hv.Ctx
module Cov = Iris_coverage.Cov
module Clock = Iris_vtx.Clock
module Orch = Iris_orchestrator.Orchestrator
module Dc = Iris_differential.Diffcampaign
module Svc = Iris_service
module W = Iris_guest.Workload
module R = Iris_vtx.Exit_reason
module T = Tracer

(* --- failure accounting --- *)

module Check = struct
  let attempted = ref 0
  let failed = ref 0

  (* One checked operation; a false [ok] is a failed one. *)
  let op ok what =
    incr attempted;
    if not ok then begin
      incr failed;
      Printf.eprintf "check failed: %s\n%!" (Lazy.force what)
    end
end

(* Deterministic per-operation seeds derived from the workload seed. *)
let derive seed k = Hashtbl.hash (seed, k) land 0x3FFF_FFFF

(* --- host-time samples; a reported figure is their median --- *)

let median xs = Iris_util.Stats.median (Array.of_list xs)

let add_rate samples ~units ~seconds =
  samples := (float_of_int units /. seconds) :: !samples

(* [Manager.record] then [Trace.encode] — what [iris record -o] costs —
   returning the seconds both took. *)
let record_encoded ?store_metrics mgr workload ~exits =
  let t0 = T.now_ns () in
  let w0 = Gc.minor_words () in
  let recording =
    T.span (T.stat "core.record") (fun () ->
        Manager.record ?store_metrics mgr workload ~exits)
  in
  let words = Gc.minor_words () -. w0 in
  let bytes =
    T.span (T.stat "core.trace.encode") (fun () ->
        Trace.encode recording.Manager.trace)
  in
  let seconds = T.seconds_since t0 in
  if !T.on then begin
    Counters.add "core.record.exits" (Trace.length recording.Manager.trace);
    Counters.addf "core.record.words" words;
    Counters.add "core.trace.bytes" (Bytes.length bytes)
  end;
  (recording, bytes, seconds)

let decode bytes =
  match
    T.span (T.stat "core.trace.decode") (fun () ->
        Trace.of_string (Bytes.unsafe_to_string bytes))
  with
  | Ok t ->
      if !T.on then Counters.add "core.trace.decoded" (Trace.length t);
      t
  | Error e -> failwith ("trace decode: " ^ e)

(* --- replay --- *)

let s_replay = T.stat "core.replay"
let s_submit = T.stat "core.replay.submit"

(* [Manager.replay_seeds] (record mode on), one [Replayer.submit] per
   span: a dummy reverted to the snapshot, a recorder in replay +
   record mode, every seed in order. *)
let replay_split mgr ~snapshot seeds =
  T.span s_replay (fun () ->
      let replayer = Manager.make_dummy mgr ~revert_to:snapshot () in
      let ctx = Replayer.ctx replayer in
      let recorder = Recorder.start ~store_seeds:true ~store_metrics:true ctx in
      let n = Array.length seeds in
      let rec go i =
        if i = n then (i, Replayer.Replayed)
        else begin
          T.enter s_submit;
          let o = Replayer.submit replayer seeds.(i) in
          T.leave ();
          match o with
          | Replayer.Replayed -> go (i + 1)
          | Replayer.Vm_crashed _ -> (i, o)
        end
      in
      let submitted, outcome = go 0 in
      let trace =
        Recorder.stop recorder ~workload:"replay"
          ~prng_seed:(Manager.prng_seed mgr)
      in
      (trace, submitted, outcome))

let accuracy ~recorded ~replayed =
  T.span (T.stat "core.analysis.accuracy") (fun () ->
      Analysis.accuracy ~recorded ~replayed)

(* The core chain on one recording, split into layers: decode and
   per-seed replay (returning the seconds both took), then accuracy —
   checked against plain [Manager.replay_seeds] on the same trace. *)
let core_split mgr (recording : Manager.recording) bytes =
  let t0 = T.now_ns () in
  let decoded = decode bytes in
  let w0 = Gc.minor_words () in
  let replayed, submitted, outcome =
    replay_split mgr ~snapshot:recording.Manager.snapshot decoded.Trace.seeds
  in
  let words = Gc.minor_words () -. w0 in
  let seconds = T.seconds_since t0 in
  Counters.addf "core.replay.words" words;
  Counters.add "core.replay.seeds" submitted;
  let n = Trace.length decoded in
  Check.op
    (outcome = Replayer.Replayed && submitted = n
    && Trace.digest decoded = Trace.digest recording.Manager.trace)
    (lazy
      (Printf.sprintf "split replay stopped at %d/%d, or decode digest differs"
         submitted n));
  let plain =
    Manager.replay_seeds mgr ~revert_to:recording.Manager.snapshot
      decoded.Trace.seeds
  in
  Check.op
    (Trace.digest plain.Manager.replay_trace = Trace.digest replayed)
    (lazy "split replay trace differs from Manager.replay_seeds");
  let eff =
    Analysis.efficiency ~recorded:recording.Manager.trace
      ~replay_cycles:plain.Manager.replay_cycles
      ~submitted:plain.Manager.submitted
  in
  Counters.addf "model.replay_exits_per_s" eff.Analysis.replay_exits_per_sec;
  Counters.add "model.replays" 1;
  let acc = accuracy ~recorded:recording.Manager.trace ~replayed in
  Check.op
    (acc.Analysis.vmwrite_fit_pct = 100.0)
    (lazy
      (Printf.sprintf "VMWRITE fit %.2f%% on split replay"
         acc.Analysis.vmwrite_fit_pct));
  seconds

(* --- fuzz cases --- *)

let s_case = T.stat "fuzzer.case"
let s_fsubmit = T.stat "fuzzer.submit"
let s_span = T.stat "coverage.span"
let s_rewind = T.stat "hv.checkpoint.rewind"
let s_finalize = T.stat "fuzzer.finalize"

let cow_parts = function
  | Campaign.Anchor_cow (cps, mark, _) -> (cps, mark)
  | Campaign.Anchor_full _ -> invalid_arg "perfbench: COW anchor expected"

(* [Campaign.execute_case]'s own steps, each a span: coverage span
   open, [Replayer.submit] (hypervisor panics triaged as crashes),
   coverage span close, COW rewind to the S_R mark. *)
let case_split ~replayer ~anchor seed =
  let cps, mark = cow_parts anchor in
  let ctx = Replayer.ctx replayer in
  T.enter s_case;
  let c0 = Clock.now (Ctx.clock ctx) in
  let b0 = T.now_ns () in
  Cov.span_begin ctx.Ctx.cov;
  let b1 = T.now_ns () in
  T.enter s_fsubmit;
  let raw_failure, raw_detail =
    match Replayer.submit replayer seed with
    | Replayer.Replayed -> (Campaign.No_failure, "")
    | Replayer.Vm_crashed msg -> (Campaign.Vm_crash, msg)
    | exception Ctx.Hypervisor_panic msg -> (Campaign.Hypervisor_crash, msg)
  in
  T.leave ();
  let e0 = T.now_ns () in
  let raw_span = Cov.span_end ctx.Ctx.cov in
  T.record s_span (b1 - b0 + (T.now_ns () - e0));
  let raw_cycles = Int64.sub (Clock.now (Ctx.clock ctx)) c0 in
  T.enter s_rewind;
  let rs = Checkpoint.rewind cps mark in
  T.leave ();
  T.leave ();
  Counters.add "hv.domain.pages" rs.Domain.rs_pages;
  Counters.add "hv.domain.ept" rs.Domain.rs_ept_entries;
  Counters.add "hv.domain.vmcs_fields" rs.Domain.rs_vmcs_fields;
  Counters.add "hv.domain.rewind_bytes" (Domain.rewind_bytes rs);
  Counters.add "hv.domain.cases" 1;
  { Campaign.raw_failure; raw_detail; raw_span; raw_cycles }

(* One campaign through [execute_case], finalize included. *)
let campaign_plain ~replayer ~anchor plan =
  let raws =
    Array.init (Campaign.case_count plan) (fun i ->
        Campaign.execute_case ~replayer ~anchor (Campaign.case plan i))
  in
  (raws, Campaign.finalize ~plan ~raws)

(* The same campaign on the split path; each case's [raw_digest] must
   equal the one [execute_case] produced for it in [reference]. *)
let campaign_split ~replayer ~anchor ~reference plan =
  let n = Campaign.case_count plan in
  let raws =
    Array.init n (fun i -> case_split ~replayer ~anchor (Campaign.case plan i))
  in
  let mismatches = ref 0 in
  Array.iteri
    (fun i r ->
      if Campaign.raw_digest r <> Campaign.raw_digest reference.(i) then
        incr mismatches)
    raws;
  Check.op (!mismatches = 0)
    (lazy
      (Printf.sprintf "split-path raw_digest differs on %d/%d cases"
         !mismatches n));
  let result = T.span s_finalize (fun () -> Campaign.finalize ~plan ~raws) in
  let total = float_of_int (max 1 result.Campaign.executed) in
  Counters.addf "fuzzer.vm_crashes" (float_of_int result.Campaign.vm_crashes);
  Counters.addf "fuzzer.hv_crashes" (float_of_int result.Campaign.hv_crashes);
  Counters.addf "fuzzer.executed" total;
  result

let boot_universe ~recording ~seed_index =
  T.span (T.stat "orchestrator.boot_universe") (fun () ->
      let replayer, anchor, _ =
        Orch.boot_universe ~recording ~seed_index ~name:"perfbench" ()
      in
      (replayer, anchor))

let plan ~config ~trace ~reason ~area =
  match
    T.span (T.stat "fuzzer.plan") (fun () ->
        Campaign.plan ~config ~trace ~reason ~area)
  with
  | Some p -> p
  | None ->
      failwith
        (Printf.sprintf "perfbench: no %s seed in the %s trace" (R.name reason)
           trace.Trace.workload)

let anchor ~replayer ~trace ~seed_index =
  T.span (T.stat "fuzzer.anchor") (fun () ->
      Campaign.anchor ~replayer ~trace ~seed_index ())

(* Plain then split execution of one campaign on a fresh dummy VM —
   the fuzzer layer's census for workloads that do not fuzz
   themselves.  The plain pass also yields words per case. *)
let campaign_census ~recording ~reason ~area ~mutations ~prng_seed =
  let trace = recording.Manager.trace in
  let p =
    plan ~config:{ Campaign.mutations; prng_seed } ~trace ~reason ~area
  in
  let replayer =
    Manager.make_dummy (Manager.create ~prng_seed ())
      ~revert_to:recording.Manager.snapshot ()
  in
  let anchor =
    anchor ~replayer ~trace ~seed_index:p.Campaign.plan_target.Seed.index
  in
  let w0 = Gc.minor_words () in
  let reference, _ = campaign_plain ~replayer ~anchor p in
  Counters.addf "fuzzer.words" (Gc.minor_words () -. w0);
  Counters.add "fuzzer.plain_cases" (Array.length reference);
  ignore (campaign_split ~replayer ~anchor ~reference p : Campaign.result)

(* The trace's most frequent exit reason: the census target. *)
let main_reason trace =
  match Trace.exit_mix trace with
  | (r, _) :: _ -> r
  | [] -> failwith "perfbench: empty trace"

(* --- service --- *)

let s_wire = T.stat "service.wire.request"
let s_round = T.stat "service.round"
let s_finish_round = T.stat "service.finish_round"

(* Submit every spec over the wire, then step the server until the
   queue drains.  Each round is timed, split by whether a job finished
   in it (finalize, corpus admission and triage run then), and costed
   in the model: the server runs up to [jobs] jobs per round side by
   side, so a round costs its slowest job's modeled cycles — the
   service analogue of the orchestrator's [r_model_wall_cycles].
   Returns the server, the cases executed, the report digest and the
   modeled wall seconds. *)
let drain ~jobs ~quantum ~cache specs =
  let server = Svc.Server.create ~jobs ~quantum ~recordings:cache () in
  List.iter
    (fun spec ->
      let line = Svc.Wire.request_to_line (Svc.Wire.Submit spec) in
      let resp, _ = T.span s_wire (fun () -> Svc.Wire.handle_line server line) in
      Check.op (Svc.Wire.response_ok resp)
        (lazy ("wire submit refused: " ^ resp)))
    specs;
  let finished =
    List.fold_left
      (fun n j ->
        match j.Svc.Server.ji_status with
        | Svc.Server.Queued | Svc.Server.Running -> n
        | _ -> n + 1)
      0
  in
  let model = ref 0L in
  let rec loop before =
    let t0 = T.now_ns () in
    let more = Svc.Server.step server in
    let dt = T.now_ns () - t0 in
    if more then begin
      let after = Svc.Server.job_infos server in
      T.record
        (if finished after > finished before then s_finish_round else s_round)
        dt;
      model :=
        Int64.add !model
          (List.fold_left2
             (fun m a b ->
               max m (Int64.sub b.Svc.Server.ji_cycles a.Svc.Server.ji_cycles))
             0L before after);
      loop after
    end
  in
  loop (Svc.Server.job_infos server);
  let infos = Svc.Server.job_infos server in
  List.iter
    (fun j ->
      Check.op
        (j.Svc.Server.ji_status = Svc.Server.Completed)
        (lazy
          (Printf.sprintf "job %s ended %s" j.Svc.Server.ji_label
             (Svc.Server.status_string j.Svc.Server.ji_status))))
    infos;
  let cases = List.fold_left (fun a j -> a + j.Svc.Server.ji_done) 0 infos in
  ( server,
    cases,
    Svc.Server.report_digest server,
    Orch.cycles_to_seconds !model )

(* --- differential --- *)

let same_diff (a : Dc.report) (b : Dc.report) =
  a.Dc.total = b.Dc.total && a.Dc.comparable = b.Dc.comparable
  && a.Dc.lossy = b.Dc.lossy && a.Dc.agreements = b.Dc.agreements
  && List.length a.Dc.findings = List.length b.Dc.findings
  && a.Dc.lossy_reasons = b.Dc.lossy_reasons

(* [Orchestrator.diff_sweep ~jobs:1] re-driven through its public
   steps: boot a universe anchored at S_0, execute the one segment,
   finalize. *)
let diff_split ~recording =
  let trace = recording.Manager.trace in
  let total = Dc.case_count trace in
  let replayer, anchor = boot_universe ~recording ~seed_index:0 in
  let t0 = T.now_ns () in
  let verdicts =
    T.span (T.stat "differential.segment") (fun () ->
        Dc.execute_segment ~replayer ~anchor ~trace (0, total))
  in
  T.sample (T.stat "differential.seed")
    (float_of_int (T.now_ns () - t0) /. float_of_int (max 1 total));
  T.span (T.stat "differential.finalize") (fun () ->
      Dc.finalize ~verdicts ())

let note_diff (r : Dc.report) =
  Counters.set "differential.comparable" r.Dc.comparable;
  Counters.set "differential.lossy" r.Dc.lossy;
  Counters.set "differential.findings" (List.length r.Dc.findings)

(* --- the dummy VM's preemption-timer exit loop --- *)

let no_fetch () = None

(* Engine exit, exit dispatch and VM entry, each timed per call, then
   a second pass for minor words per call. *)
let exit_loop ~exits =
  let mgr = Manager.create ~prng_seed:1 () in
  let ctx = Replayer.ctx (Manager.make_dummy mgr ()) in
  let engine = ctx.Ctx.dom.Domain.engine in
  let run () =
    match Iris_vtx.Engine.run_until_exit engine ~fetch:no_fetch with
    | Iris_vtx.Engine.Exit _ -> ()
    | Iris_vtx.Engine.Program_done -> failwith "preemption timer not armed"
  in
  let enter () =
    match Iris_hv.Xen.enter ctx with Ok () -> () | Error m -> failwith m
  in
  let handle () = Iris_hv.Exitpath.handle ctx in
  let calls =
    [| (T.stat "vtx.engine.run_until_exit", run);
       (T.stat "hv.exitpath.handle", handle);
       (T.stat "hv.xen.enter", enter) |]
  in
  for _ = 1 to 2_000 do Array.iter (fun (_, f) -> f ()) calls done;
  for _ = 1 to exits do
    Array.iter
      (fun (s, f) ->
        let t0 = T.now_ns () in
        f ();
        T.record s (T.now_ns () - t0))
      calls
  done;
  let overhead =
    let a = Gc.minor_words () in
    Gc.minor_words () -. a
  in
  let words = Array.make (Array.length calls) 0.0 in
  for _ = 1 to exits do
    Array.iteri
      (fun i (_, f) ->
        let a = Gc.minor_words () in
        f ();
        words.(i) <- words.(i) +. (Gc.minor_words () -. a -. overhead))
      calls
  done;
  Array.iteri
    (fun i (s, _) ->
      Counters.setf (s.T.name ^ ".words") (words.(i) /. float_of_int exits))
    calls
