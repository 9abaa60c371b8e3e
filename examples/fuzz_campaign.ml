(* The IRIS-based fuzzer (§VII) on one test case: replay a recorded
   prefix into the valid state S_R, then hammer the target seed with
   single-bit-flip mutations, triaging crashes.

     dune exec examples/fuzz_campaign.exe *)

module Manager = Iris_core.Manager
module Orch = Iris_orchestrator.Orchestrator
module Campaign = Iris_fuzzer.Campaign
module Mutation = Iris_fuzzer.Mutation
module W = Iris_guest.Workload
module R = Iris_vtx.Exit_reason

let () =
  let manager = Manager.create ~boot_scale:0.05 ~prng_seed:17 () in
  Printf.printf "recording the CPU-bound behavior W...\n";
  let recording = Manager.record manager W.Cpu_bound ~exits:2000 in

  let config = { Campaign.mutations = 2000; prng_seed = 99 } in
  List.iter
    (fun (reason, area) ->
      Printf.printf "\n== test case: W=CPU-bound, reason=%s, area=%s ==\n"
        (R.short_name reason)
        (Mutation.area_name area);
      match Orch.fuzz ~jobs:1 ~config ~recording ~reason ~area () with
      | None -> Printf.printf "no seed with that exit reason in W\n"
      | Some { Orch.fuzz_result = r; _ } ->
          Printf.printf
            "VMseed_R = seed #%d; %d mutated versions submitted\n"
            r.Campaign.seed_index r.Campaign.executed;
          Printf.printf
            "coverage: baseline %d LOC -> fuzzing sequence %d LOC (%s)\n"
            r.Campaign.baseline_lines r.Campaign.fuzz_lines
            (Campaign.pct_string r);
          Printf.printf "failures: %d VM crashes, %d hypervisor crashes\n"
            r.Campaign.vm_crashes r.Campaign.hv_crashes;
          (* Show the first few crashing mutations, like the PoC's
             saved test cases for later crash analysis. *)
          List.iteri
            (fun i v ->
              if i < 5 then
                Printf.printf "  [%s] %-28s -> %s\n"
                  (Campaign.failure_name v.Campaign.failure)
                  (Mutation.describe v.Campaign.mutation)
                  v.Campaign.detail)
            r.Campaign.crashing)
    [ (R.Rdtsc, Mutation.Area_vmcs);
      (R.Rdtsc, Mutation.Area_gpr);
      (R.Cr_access, Mutation.Area_gpr);
      (R.Ept_violation, Mutation.Area_vmcs) ]
