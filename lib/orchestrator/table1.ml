module R = Iris_vtx.Exit_reason
module W = Iris_guest.Workload
module Campaign = Iris_fuzzer.Campaign
module Mutation = Iris_fuzzer.Mutation

type cell =
  | Absent
  | Cell of Campaign.result

type row = {
  reason : R.t;
  cells : (W.t * Mutation.area * cell) list;
}

let reasons =
  [ R.External_interrupt; R.Interrupt_window; R.Cpuid; R.Hlt; R.Rdtsc;
    R.Vmcall; R.Cr_access; R.Io_instruction; R.Ept_violation ]

let workloads = [ W.Os_boot; W.Cpu_bound; W.Idle ]

let run ?mutations ~recordings () =
  let config =
    match mutations with
    | Some m -> { Campaign.default_config with Campaign.mutations = m }
    | None -> Campaign.default_config
  in
  List.map
    (fun reason ->
      let cells =
        List.concat_map
          (fun (w, recording) ->
            List.map
              (fun area ->
                let cell =
                  match
                    Orchestrator.fuzz ~jobs:1 ~config ~recording ~reason
                      ~area ()
                  with
                  | Some o -> Cell o.Orchestrator.fuzz_result
                  | None -> Absent
                in
                (w, area, cell))
              [ Mutation.Area_vmcs; Mutation.Area_gpr ])
          recordings
      in
      { reason; cells })
    reasons

type crash_stats = {
  vmcs_tests : int;
  vmcs_vm_crash_pct : float;
  vmcs_hv_crash_pct : float;
  gpr_tests : int;
  gpr_vm_crash_pct : float;
  gpr_hv_crash_pct : float;
}

let crash_stats rows =
  let acc area =
    let executed = ref 0 and vm = ref 0 and hv = ref 0 in
    List.iter
      (fun row ->
        List.iter
          (fun (_, a, cell) ->
            match cell with
            | Cell r when a = area ->
                executed := !executed + r.Campaign.executed;
                vm := !vm + r.Campaign.vm_crashes;
                hv := !hv + r.Campaign.hv_crashes
            | Cell _ | Absent -> ())
          row.cells)
      rows;
    let pct n =
      if !executed = 0 then 0.0
      else 100.0 *. float_of_int n /. float_of_int !executed
    in
    (!executed, pct !vm, pct !hv)
  in
  let vmcs_tests, vmcs_vm_crash_pct, vmcs_hv_crash_pct =
    acc Mutation.Area_vmcs
  in
  let gpr_tests, gpr_vm_crash_pct, gpr_hv_crash_pct = acc Mutation.Area_gpr in
  { vmcs_tests; vmcs_vm_crash_pct; vmcs_hv_crash_pct; gpr_tests;
    gpr_vm_crash_pct; gpr_hv_crash_pct }
