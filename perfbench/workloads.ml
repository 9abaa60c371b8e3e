(* The four workloads.  Each [setup] builds everything a run needs —
   recordings, universes booted to S_R, a warm-up operation — and
   returns a session whose [run_op] is one timed operation. *)

open Passes

type op = {
  units : int;      (* units of work (seeds, cases, ...) *)
  seconds : float;  (* host time those units took *)
}

type session = {
  run_op : int -> op;
      (* the [k]-th timed operation; the tracer is on when the run
         alternates it into a traced window *)
  record_rates : float list ref;
      (* exits recorded per second, encode included, per operation *)
  finish : unit -> unit;  (* output checks after the timed windows *)
  census : unit -> unit;
      (* traced run only: layers the workload itself does not reach *)
  modeled : throughput:float -> (string * float * string * float) list;
      (* (modeled label, value, host label, value) pairs, given the
         run's throughput *)
}

type t = {
  name : string;
  unit_label : string;
  setup : seed:int -> session;
}

(* Run [f] with the tracer off (warm-ups that must take the plain
   path even during a traced set-up). *)
let plainly f =
  let on = !Tracer.on in
  Tracer.on := false;
  Fun.protect ~finally:(fun () -> Tracer.on := on) f

let timed f =
  let t0 = Tracer.now_ns () in
  let v = f () in
  (v, Tracer.seconds_since t0)

(* Record the workload's own recording again inside a timed operation:
   one sample of the record rate (plain operations only), and a
   determinism check against the set-up recording. *)
let rerecord rate ~digest make =
  let recording, _, seconds = make () in
  let trace = recording.Manager.trace in
  if not !Tracer.on then add_rate rate ~units:(Trace.length trace) ~seconds;
  Check.op
    (Trace.digest trace = digest)
    (lazy "re-recording differs from the set-up recording")

(* --- census pieces shared by several workloads --- *)

(* The core chain (record, encode, decode, per-seed replay, accuracy)
   on a recording of [workload] with metrics. *)
let core_census ~boot_scale ~prng_seed workload ~exits =
  let mgr = Manager.create ~boot_scale ~prng_seed () in
  let recording, bytes, _ = record_encoded mgr workload ~exits in
  ignore (core_split mgr recording bytes : float);
  recording

(* Plain [Campaign.execute_case] cost per case over a spec set: the
   base of [service.case_cost_ratio]. *)
let direct_cases specs =
  List.iter
    (fun (s : Svc.Jobspec.t) ->
      let mgr =
        Manager.create ~boot_scale:s.Svc.Jobspec.boot_scale
          ~prng_seed:s.Svc.Jobspec.prng_seed ()
      in
      let recording =
        Manager.record ~store_metrics:false mgr s.Svc.Jobspec.workload
          ~exits:s.Svc.Jobspec.exits
      in
      let p =
        plan
          ~config:
            { Campaign.mutations = s.Svc.Jobspec.mutations;
              prng_seed = s.Svc.Jobspec.prng_seed }
          ~trace:recording.Manager.trace ~reason:s.Svc.Jobspec.reason
          ~area:s.Svc.Jobspec.area
      in
      let replayer, anchor =
        boot_universe ~recording ~seed_index:p.Campaign.plan_target.Seed.index
      in
      let (raws, _), dt = timed (fun () -> campaign_plain ~replayer ~anchor p) in
      Counters.addf "service.direct_seconds" dt;
      Counters.add "service.direct_cases" (Array.length raws))
    specs

let s_drain = Tracer.stat "service.drain"
let s_case_service = Tracer.stat "service.case"

(* One traced drain plus the service's other entry points; per-drain
   per-case cost goes into [service.case]. *)
let traced_drain ~jobs ~quantum ~cache specs =
  let (server, cases, digest, _), dt =
    timed (fun () ->
        Tracer.span s_drain (fun () -> drain ~jobs ~quantum ~cache specs))
  in
  Tracer.sample s_case_service (dt *. 1e9 /. float_of_int (max 1 cases));
  let v =
    Tracer.span (Tracer.stat "service.verify") (fun () ->
        Svc.Server.verify server)
  in
  Check.op (Svc.Server.verify_ok v) (lazy "Server.verify after a drain");
  ignore
    (Tracer.span (Tracer.stat "service.distill") (fun () ->
         Svc.Server.distill server)
      : int * int);
  ignore
    (Tracer.span (Tracer.stat "service.report") (fun () ->
         Svc.Server.report server)
      : Iris_telemetry.Json.t);
  let summary = Svc.Server.drain server in
  Counters.add "service.drains" 1;
  Counters.set "service.buckets" summary.Svc.Server.d_buckets;
  Counters.set "service.corpus_entries" summary.Svc.Server.d_corpus;
  Counters.set "service.crashes" summary.Svc.Server.d_crashes;
  (server, cases, digest, dt)

let serve_jobs = 2
let serve_quantum = 64
let serve_mutations = 200

let census_specs seed =
  let prng_seed = derive seed 7 in
  List.map
    (fun (tenant, priority, area) ->
      Svc.Jobspec.make ~tenant ~priority ~workload:W.Cpu_bound ~exits:1_200
        ~reason:R.Rdtsc ~area ~mutations:serve_mutations ~prng_seed ())
    [ ("alice", 2, Mutation.Area_vmcs); ("bob", 1, Mutation.Area_gpr) ]

let service_census seed =
  let specs = census_specs seed in
  let cache = Svc.Server.recordings () in
  (* a plain drain first, so the traced one finds its recordings cached *)
  ignore
    (plainly (fun () ->
         drain ~jobs:serve_jobs ~quantum:serve_quantum ~cache specs));
  ignore (traced_drain ~jobs:serve_jobs ~quantum:serve_quantum ~cache specs);
  direct_cases specs

let diff_census recording =
  let r = diff_split ~recording in
  note_diff r;
  Check.op (r.Dc.findings = [])
    (lazy
      (Printf.sprintf "%d differential findings on an unperturbed trace"
         (List.length r.Dc.findings)))

(* ------------------------------------------------------------------ *)
(* replay-boot                                                        *)
(* ------------------------------------------------------------------ *)

let boot_exits = 12_000

let replay_boot =
  let setup ~seed =
    let record_rates = ref [] in
    let model = ref [] in
    (* One record -> encode -> decode -> replay -> accuracy iteration
       on a fresh post-BIOS OS BOOT trace.  Returns the decode + replay
       op, the record + encode seconds, and (plain path only) the
       fitting and digests the re-run check compares. *)
    let iteration k =
      let mgr = Manager.create ~prng_seed:(derive seed k) () in
      let recording, bytes, rec_s =
        record_encoded mgr W.Os_boot ~exits:boot_exits
      in
      let trace = recording.Manager.trace in
      let n = Trace.length trace in
      if !Tracer.on then
        ({ units = n; seconds = core_split mgr recording bytes }, rec_s, None)
      else begin
        let (decoded, replay), seconds =
          timed (fun () ->
              let decoded = decode bytes in
              ( decoded,
                Manager.replay_seeds mgr ~revert_to:recording.Manager.snapshot
                  decoded.Trace.seeds ))
        in
        let acc =
          accuracy ~recorded:trace ~replayed:replay.Manager.replay_trace
        in
        let same_decode = Trace.digest decoded = Trace.digest trace in
        Check.op
          (replay.Manager.outcome = Replayer.Replayed
          && replay.Manager.submitted = n && same_decode
          && acc.Analysis.vmwrite_fit_pct = 100.0)
          (lazy
            (Printf.sprintf
               "replay %d: %d/%d submitted, VMWRITE fit %.2f%%, decode \
                digest equal: %b"
               k replay.Manager.submitted n acc.Analysis.vmwrite_fit_pct
               same_decode));
        let eff =
          Analysis.efficiency ~recorded:trace
            ~replay_cycles:replay.Manager.replay_cycles
            ~submitted:replay.Manager.submitted
        in
        model := eff.Analysis.replay_exits_per_sec :: !model;
        ( { units = n; seconds },
          rec_s,
          Some
            ( acc.Analysis.fitting_pct,
              Trace.digest trace,
              Trace.digest replay.Manager.replay_trace ) )
      end
    in
    ignore (iteration (-1));  (* warm-up *)
    let first = ref None in
    let run_op k =
      let op, rec_s, fp = iteration k in
      if not !Tracer.on then add_rate record_rates ~units:op.units ~seconds:rec_s;
      (match (!first, fp) with
      | None, Some f -> first := Some (k, f)
      | _ -> ());
      op
    in
    let finish () =
      match !first with
      | None -> Check.op false (lazy "no plain replay iteration ran")
      | Some (k, f) ->
          let _, _, again = plainly (fun () -> iteration k) in
          Check.op (again = Some f)
            (lazy
              (Printf.sprintf
                 "replay iteration %d re-run gives another fitting or digest" k))
    in
    let census () =
      let recording =
        core_census ~boot_scale:0.05 ~prng_seed:(derive seed 5) W.Os_boot
          ~exits:3_000
      in
      campaign_census ~recording
        ~reason:(main_reason recording.Manager.trace)
        ~area:Mutation.Area_vmcs ~mutations:1_000 ~prng_seed:(derive seed 6);
      service_census seed;
      diff_census recording
    in
    let modeled ~throughput =
      [ ( "replay exits/s, Analysis.efficiency (virtual cycles)",
          median !model,
          "seeds replayed/s, host",
          throughput ) ]
    in
    { run_op; record_rates; finish; census; modeled }
  in
  { name = "replay-boot"; unit_label = "seeds replayed"; setup }

(* ------------------------------------------------------------------ *)
(* fuzz-postboot                                                      *)
(* ------------------------------------------------------------------ *)

(* The paper harness's post-boot recording: 5,000 CPU-bound exits
   after an unrecorded boot at scale 0.3. *)
let postboot_exits = 5_000
let postboot_scale = 0.3
let fuzz_targets = 8
let fuzz_mutations = 500

let postboot_recording ~seed =
  let mgr =
    Manager.create ~boot_scale:postboot_scale ~prng_seed:(derive seed 0) ()
  in
  let recording, bytes, _ =
    record_encoded mgr W.Cpu_bound ~exits:postboot_exits
  in
  (mgr, recording, bytes)

let rerecord_postboot rate ~seed ~digest =
  rerecord rate ~digest (fun () ->
      record_encoded
        (Manager.create ~boot_scale:postboot_scale ~prng_seed:(derive seed 0) ())
        W.Cpu_bound ~exits:postboot_exits)

let fuzz_postboot =
  let setup ~seed =
    let record_rates = ref [] in
    let mgr, recording, bytes = postboot_recording ~seed in
    let trace = recording.Manager.trace in
    let digest = Trace.digest trace in
    (* Sixteen campaigns: eight PRNG seeds (so eight RDTSC targets,
       mostly) times both seed areas.  A case's cost follows its
       target's crash mix, so one op averages over many targets. *)
    let campaigns =
      Array.map
        (fun (k, area) ->
          let config =
            { Campaign.mutations = fuzz_mutations; prng_seed = derive seed k }
          in
          let p = plan ~config ~trace ~reason:R.Rdtsc ~area in
          let replayer =
            Manager.make_dummy mgr ~revert_to:recording.Manager.snapshot ()
          in
          let a =
            anchor ~replayer ~trace ~seed_index:p.Campaign.plan_target.Seed.index
          in
          (p, replayer, a))
        (Array.init (2 * fuzz_targets) (fun i ->
             ( 1 + (i / 2),
               if i land 1 = 0 then Mutation.Area_vmcs else Mutation.Area_gpr )))
    in
    let last_raws = Array.make (Array.length campaigns) [||] in
    let reference = Array.make (Array.length campaigns) None in
    let summary (r : Campaign.result) =
      ( r.Campaign.executed, r.Campaign.baseline_lines, r.Campaign.fuzz_lines,
        r.Campaign.vm_crashes, r.Campaign.hv_crashes )
    in
    (* One op runs every campaign in turn.  Plain: through
       [execute_case], checked against the first result of the same
       campaign.  Traced: on the split path, checked case by case
       against the preceding plain op's raws. *)
    let run_op _ =
      rerecord_postboot record_rates ~seed ~digest;
      let traced = !Tracer.on in
      let w0 = Gc.minor_words () in
      let units = ref 0 in
      let (), seconds =
        timed (fun () ->
            Array.iteri
              (fun p (plan, replayer, anchor) ->
                units := !units + Campaign.case_count plan;
                if traced then
                  ignore
                    (campaign_split ~replayer ~anchor ~reference:last_raws.(p)
                       plan
                      : Campaign.result)
                else begin
                  let raws, result = campaign_plain ~replayer ~anchor plan in
                  last_raws.(p) <- raws;
                  match reference.(p) with
                  | None -> reference.(p) <- Some (summary result)
                  | Some s ->
                      Check.op (s = summary result)
                        (lazy
                          (Printf.sprintf
                             "campaign %d result changed between runs" p))
                end)
              campaigns)
      in
      if not traced then begin
        Counters.addf "fuzzer.words" (Gc.minor_words () -. w0);
        Counters.add "fuzzer.plain_cases" !units
      end;
      { units = !units; seconds }
    in
    ignore (plainly (fun () -> run_op 0) : op);  (* warm-up *)
    let finish () =
      (* Spot-check: a sample of cases re-executed on a freshly booted
         universe must reproduce its raw_digest. *)
      Array.iteri
        (fun p (plan, _, _) ->
          let replayer, anchor =
            boot_universe ~recording
              ~seed_index:plan.Campaign.plan_target.Seed.index
          in
          let n = Campaign.case_count plan in
          for j = 0 to 63 do
            let i = j * (n - 1) / 63 in
            let raw =
              Campaign.execute_case ~replayer ~anchor (Campaign.case plan i)
            in
            Check.op
              (Campaign.raw_digest raw = Campaign.raw_digest last_raws.(p).(i))
              (lazy (Printf.sprintf "campaign %d case %d not reproduced" p i))
          done)
        campaigns
    in
    let census () =
      ignore (core_split mgr recording bytes : float);
      service_census seed;
      diff_census recording
    in
    let modeled ~throughput =
      (* Modeled restore footprint per case, as the revert bench
         computes it: fixed part plus the mean journaled part. *)
      let _, replayer, _ = campaigns.(0) in
      let st = Domain.snapshot_stats (Replayer.ctx replayer).Ctx.dom in
      let fixed =
        Domain.rewind_bytes
          { Domain.rs_pages = 0; rs_ept_entries = 0; rs_vmcs_fields = 0 }
      in
      let total =
        Domain.rewind_bytes
          { Domain.rs_pages = st.Domain.pages_restored;
            rs_ept_entries = st.Domain.ept_restored;
            rs_vmcs_fields = st.Domain.vmcs_fields_restored }
      in
      [ ( "rewind bytes/case, Domain.rewind_bytes model",
          float_of_int (fixed + ((total - fixed) / max 1 st.Domain.cow_reverts)),
          "us/case (execute_case incl. rewind), host",
          1e6 /. throughput ) ]
    in
    { run_op; record_rates; finish; census; modeled }
  in
  { name = "fuzz-postboot"; unit_label = "campaign cases"; setup }

(* ------------------------------------------------------------------ *)
(* serve-tenants                                                      *)
(* ------------------------------------------------------------------ *)

(* Three tenants at priorities 4/2/1, twenty-four specs: two blocks of
   the same twelve-spec template, each on its own six PRNG seeds.
   CPU-bound and IDLE recordings, five exit reasons, both areas.
   Triage cost follows each seed's crash mix, so a drain averages over
   twelve seeds.  Within a block several specs share a recording, and
   one is submitted twice. *)
let serve_specs seed =
  let s = Array.init 12 (fun i -> derive seed (10 + i)) in
  let vmcs = Mutation.Area_vmcs and gpr = Mutation.Area_gpr in
  let block b =
    let spec tenant priority workload reason area k =
      Svc.Jobspec.make ~tenant ~priority ~workload ~exits:1_200 ~reason ~area
        ~mutations:serve_mutations ~prng_seed:s.((6 * b) + k) ()
    in
    let repeat = spec "carol" 1 W.Cpu_bound R.Rdtsc gpr 5 in
    [ spec "alice" 4 W.Cpu_bound R.Rdtsc vmcs 0;
      spec "alice" 4 W.Cpu_bound R.Cpuid gpr 0;
      spec "alice" 4 W.Idle R.Hlt vmcs 1;
      spec "alice" 4 W.Cpu_bound R.Cr_access vmcs 2;
      spec "bob" 2 W.Idle R.External_interrupt gpr 1;
      spec "bob" 2 W.Cpu_bound R.Rdtsc gpr 3;
      spec "bob" 2 W.Idle R.Rdtsc vmcs 4;
      spec "bob" 2 W.Cpu_bound R.Cpuid vmcs 5;
      spec "carol" 1 W.Idle R.Hlt gpr 4;
      spec "carol" 1 W.Cpu_bound R.Rdtsc vmcs 2;
      repeat;
      repeat ]
  in
  block 0 @ block 1

let serve_tenants =
  let setup ~seed =
    let record_rates = ref [] in
    let specs = serve_specs seed in
    (* Each operation records two of the specs' recordings again (the
       first CPU-bound and the first IDLE one), the way the server
       records them: one record-rate sample per operation, every digest
       checked against set-up's. *)
    let recordings =
      List.sort_uniq compare
        (List.filteri
           (fun i _ -> i < 3)
           (List.map
              (fun (s : Svc.Jobspec.t) ->
                ( s.Svc.Jobspec.workload, s.Svc.Jobspec.prng_seed,
                  s.Svc.Jobspec.boot_scale, s.Svc.Jobspec.exits ))
              specs))
    in
    let record_all () =
      List.map
        (fun (w, prng_seed, boot_scale, exits) ->
          let r, _, sec =
            record_encoded ~store_metrics:false
              (Manager.create ~boot_scale ~prng_seed ())
              w ~exits
          in
          (Trace.digest r.Manager.trace, Trace.length r.Manager.trace, sec))
        recordings
    in
    let digests = List.map (fun (d, _, _) -> d) (record_all ()) in
    let rerecord_all () =
      let rs = record_all () in
      if not !Tracer.on then
        add_rate record_rates
          ~units:(List.fold_left (fun a (_, n, _) -> a + n) 0 rs)
          ~seconds:(List.fold_left (fun a (_, _, t) -> a +. t) 0.0 rs);
      Check.op
        (List.map (fun (d, _, _) -> d) rs = digests)
        (lazy "re-recording differs from the set-up recording")
    in
    let cache = Svc.Server.recordings () in
    (* warm-up drain: the server records into the cache here *)
    let warm, _, digest, model_wall =
      drain ~jobs:serve_jobs ~quantum:serve_quantum ~cache specs
    in
    let last = ref warm in
    let walls = ref [] in
    let run_op _ =
      rerecord_all ();
      let (server, cases, d), seconds =
        if !Tracer.on then
          let s, c, d, dt =
            traced_drain ~jobs:serve_jobs ~quantum:serve_quantum ~cache specs
          in
          ((s, c, d), dt)
        else
          let (s, c, d, _), dt =
            timed (fun () ->
                drain ~jobs:serve_jobs ~quantum:serve_quantum ~cache specs)
          in
          ((s, c, d), dt)
      in
      if not !Tracer.on then walls := seconds :: !walls;
      Check.op (d = digest) (lazy "drained report differs from the warm-up drain");
      last := server;
      { units = cases; seconds }
    in
    let finish () =
      Check.op
        (Svc.Server.verify_ok (Svc.Server.verify !last))
        (lazy "Server.verify failed on the last drain")
    in
    let census () =
      let recording =
        core_census ~boot_scale:0.05 ~prng_seed:(derive seed 1) W.Cpu_bound
          ~exits:1_200
      in
      List.iteri
        (fun i (s : Svc.Jobspec.t) ->
          if i < 2 then begin
            let mgr =
              Manager.create ~boot_scale:s.Svc.Jobspec.boot_scale
                ~prng_seed:s.Svc.Jobspec.prng_seed ()
            in
            let recording =
              Manager.record ~store_metrics:false mgr s.Svc.Jobspec.workload
                ~exits:s.Svc.Jobspec.exits
            in
            campaign_census ~recording ~reason:s.Svc.Jobspec.reason
              ~area:s.Svc.Jobspec.area ~mutations:s.Svc.Jobspec.mutations
              ~prng_seed:s.Svc.Jobspec.prng_seed
          end)
        specs;
      direct_cases specs;
      diff_census recording
    in
    let modeled ~throughput:_ =
      [ ( "drain wall s at --jobs 2, model (max cycles per round)",
          model_wall,
          "drain wall s, host median",
          median !walls ) ]
    in
    { run_op; record_rates; finish; census; modeled }
  in
  { name = "serve-tenants"; unit_label = "cases completed"; setup }

(* ------------------------------------------------------------------ *)
(* diff-sweep                                                         *)
(* ------------------------------------------------------------------ *)

let sweeps_per_op = 8

let diff_sweep =
  let setup ~seed =
    let record_rates = ref [] in
    let mgr, recording, bytes = postboot_recording ~seed in
    let digest = Trace.digest recording.Manager.trace in
    let sweep () =
      (Orch.diff_sweep ~jobs:1 ~recording ()).Orch.diff_report
    in
    let reference = sweep () in
    Check.op (reference.Dc.findings = [])
      (lazy "differential findings on the unperturbed trace");
    let run_op _ =
      rerecord_postboot record_rates ~seed ~digest;
      let traced = !Tracer.on in
      let reports, seconds =
        timed (fun () ->
            List.init sweeps_per_op (fun _ ->
                if traced then diff_split ~recording else sweep ()))
      in
      List.iter
        (fun r ->
          Check.op
            (r.Dc.findings = [] && same_diff r reference)
            (lazy "differential sweep differs from the reference sweep"))
        reports;
      if traced then note_diff reference;
      { units = sweeps_per_op * reference.Dc.total; seconds }
    in
    let census () =
      ignore (core_split mgr recording bytes : float);
      campaign_census ~recording ~reason:R.Rdtsc ~area:Mutation.Area_vmcs
        ~mutations:2_000 ~prng_seed:(derive seed 1);
      service_census seed
    in
    let modeled ~throughput:_ = [] in
    { run_op; record_rates; finish = (fun () -> ()); census; modeled }
  in
  { name = "diff-sweep"; unit_label = "seeds classified"; setup }

let all = [ replay_boot; fuzz_postboot; serve_tenants; diff_sweep ]
