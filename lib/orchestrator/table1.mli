(** Drive the full Table I experiment grid: (exit reason × workload ×
    mutated area) test cases over recorded traces. *)

type cell =
  | Absent
      (** the workload never produced that exit reason ("-") *)
  | Cell of Iris_fuzzer.Campaign.result

type row = {
  reason : Iris_vtx.Exit_reason.t;
  cells : (Iris_guest.Workload.t * Iris_fuzzer.Mutation.area * cell) list;
}

val reasons : Iris_vtx.Exit_reason.t list
(** The rows of Table I: external interrupt, interrupt window, CPUID,
    HLT, RDTSC, VMCALL, CR access, I/O instruction, EPT violation. *)

val workloads : Iris_guest.Workload.t list
(** OS BOOT, CPU-bound, IDLE. *)

val run :
  ?mutations:int ->
  recordings:(Iris_guest.Workload.t * Iris_core.Manager.recording) list ->
  unit -> row list
(** One {!Orchestrator.fuzz} campaign per cell, at [jobs = 1];
    [mutations] defaults to the paper's 10,000. *)

type crash_stats = {
  vmcs_tests : int;
  vmcs_vm_crash_pct : float;
  vmcs_hv_crash_pct : float;
  gpr_tests : int;
  gpr_vm_crash_pct : float;
  gpr_hv_crash_pct : float;
}

val crash_stats : row list -> crash_stats
(** The §VII-4 failure rates: VM / hypervisor crash percentages when
    mutating the VMCS vs the GPR area. *)
