(* Sequential campaign and differential drivers, rebuilt from the
   public plan / anchor / execute / finalize pieces.  They run every
   case in order on one caller-owned dummy VM, so they make a simple
   equivalence oracle for the sharded drivers in
   [Iris_orchestrator.Orchestrator]. *)

module Campaign = Iris_fuzzer.Campaign
module Diffcampaign = Iris_differential.Diffcampaign
module Checkpoint = Iris_hv.Checkpoint
module Manager = Iris_core.Manager

(* Release a COW anchor's mark, rewinding first so the journal folds
   from a clean S_R. *)
let release = function
  | Campaign.Anchor_full _ -> ()
  | Campaign.Anchor_cow (cps, mark, _) ->
      ignore (Checkpoint.rewind cps mark : Iris_hv.Domain.revert_stats);
      Checkpoint.pop cps mark

let campaign ?(mode = Campaign.Cow) ~config ~manager ~recording ~reason
    ~area () =
  let trace = recording.Manager.trace in
  match Campaign.plan ~config ~trace ~reason ~area with
  | None -> None
  | Some plan ->
      let replayer =
        Manager.make_dummy manager ~revert_to:recording.Manager.snapshot ()
      in
      let anchor =
        Campaign.anchor ~mode ~replayer ~trace
          ~seed_index:plan.Campaign.plan_target.Iris_core.Seed.index ()
      in
      let raws =
        Array.init (Campaign.case_count plan) (fun i ->
            Campaign.execute_case ~replayer ~anchor (Campaign.case plan i))
      in
      release anchor;
      Some (Campaign.finalize ~plan ~raws)

let diff ?plant ~manager ~recording () =
  let trace = recording.Manager.trace in
  let replayer =
    Manager.make_dummy manager ~revert_to:recording.Manager.snapshot ()
  in
  let anchor = Campaign.anchor ~replayer ~trace ~seed_index:0 () in
  let verdicts =
    Diffcampaign.execute_segment ?plant ~replayer ~anchor ~trace
      (0, Diffcampaign.case_count trace)
  in
  release anchor;
  Diffcampaign.finalize ?plant ~verdicts ()
