exception Hypervisor_panic of string

type coverage_backend =
  | Gcov
  | Ipt of Iris_coverage.Ipt.t

type t = {
  dom : Domain.t;
  cov : Iris_coverage.Cov.t;
  hooks : Hooks.t;
  mutable backend : coverage_backend;
  charge : int -> unit;
}

let gcov_probe_cycles = 60

let create ~dom ~cov ~hooks =
  (* [charge] is built once here: the exit path passes it to every
     [Hooks.fire_*] call, and a fresh closure per exit would be an
     allocation on the hottest path in the model. *)
  let clock = dom.Domain.vcpu.Iris_vtx.Vcpu.clock in
  { dom; cov; hooks; backend = Gcov;
    charge = (fun n -> Iris_vtx.Clock.advance clock n) }

let log t line = t.dom.Domain.log <- line :: t.dom.Domain.log

let logf t fmt = Printf.ksprintf (log t) fmt

let log_lines t = List.rev t.dom.Domain.log

let domain_crash t reason =
  if not (Domain.crashed t.dom) then begin
    logf t "(XEN) domain_crash called from d%d: %s" t.dom.Domain.id reason;
    Domain.crash t.dom reason
  end

let panic t reason =
  logf t "(XEN) Xen BUG / panic: %s" reason;
  raise (Hypervisor_panic reason)

(* Probes are always accounted into the ground-truth store (the
   analyses are backend-agnostic); the backend decides the runtime
   cost the instrumented hypervisor pays per probe. *)
let hit t comp line =
  Iris_coverage.Cov.hit t.cov comp line;
  let clock = t.dom.Domain.vcpu.Iris_vtx.Vcpu.clock in
  match t.backend with
  | Gcov -> Iris_vtx.Clock.advance clock gcov_probe_cycles
  | Ipt trace ->
      Iris_coverage.Ipt.emit trace comp line;
      Iris_vtx.Clock.advance clock Iris_coverage.Ipt.emit_cost_cycles

let clock t = t.dom.Domain.vcpu.Iris_vtx.Vcpu.clock

let vcpu t = t.dom.Domain.vcpu

let regs t = t.dom.Domain.vcpu.Iris_vtx.Vcpu.regs
