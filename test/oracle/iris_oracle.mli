(** Sequential drivers kept as test oracles.

    Each runs on one dummy VM made by the caller's manager, executes
    every case in order, and releases its anchor.  The library's own
    driver is [Iris_orchestrator.Orchestrator]; these exist so that
    its sharded results can be compared against the plainest possible
    schedule. *)

val campaign :
  ?mode:Iris_fuzzer.Campaign.snapshot_mode ->
  config:Iris_fuzzer.Campaign.config ->
  manager:Iris_core.Manager.t ->
  recording:Iris_core.Manager.recording ->
  reason:Iris_vtx.Exit_reason.t ->
  area:Iris_fuzzer.Mutation.area ->
  unit ->
  Iris_fuzzer.Campaign.result option
(** Plan, pin S_R in [mode] (default [Cow]), execute every case in
    order, finalize.  [None] when the trace has no seed with
    [reason]. *)

val diff :
  ?plant:Iris_svm.Machine.asymmetry ->
  manager:Iris_core.Manager.t ->
  recording:Iris_core.Manager.recording ->
  unit ->
  Iris_differential.Diffcampaign.report
(** Anchor at S_0 and walk the whole trace as one segment through the
    VT-x vs SVM oracle. *)
