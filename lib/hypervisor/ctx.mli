(** Hypervisor execution context.

    One value of this type is "the hypervisor" for one domain: the
    domain itself, the coverage store (the gcov build), the IRIS hook
    set (the patch points).  The console log, which failure triage
    greps as the paper does with Xen's, lives in the domain
    ({!Domain.t.log}). *)

exception Hypervisor_panic of string
(** A BUG()/panic path was reached: the whole hypervisor (and every
    VM on it) is gone.  The fuzzer triages this as a hypervisor
    crash. *)

type coverage_backend =
  | Gcov
      (** compile-time instrumentation: every probe increments a
          counter in the coverage bitmap (the paper's baseline) *)
  | Ipt of Iris_coverage.Ipt.t
      (** processor-trace-style backend (§IX): probes stream cheap
          packets; coverage is decoded offline *)

type t = {
  dom : Domain.t;
  cov : Iris_coverage.Cov.t;
  hooks : Hooks.t;
  mutable backend : coverage_backend;
  charge : int -> unit;
      (** advance this domain's virtual clock by [n] cycles; built
          once at {!create} so the per-exit hook calls share a single
          closure instead of allocating one each *)
}

val create : dom:Domain.t -> cov:Iris_coverage.Cov.t -> hooks:Hooks.t -> t

val gcov_probe_cycles : int
(** Cost of one gcov counter update in the instrumented build. *)

val log : t -> string -> unit
(** Append to the domain's console log ({!Domain.t.log}), which
    {!Domain.revert} and {!Domain.rewind} restore with the rest of the
    domain state. *)

val logf : t -> ('a, unit, string, unit) format4 -> 'a
val log_lines : t -> string list
(** Oldest first. *)

val domain_crash : t -> string -> unit
(** Kill the domain (logged; idempotent). *)

val panic : t -> string -> 'a
(** Log and raise {!Hypervisor_panic}. *)

val hit : t -> Iris_coverage.Component.t -> int -> unit
(** Coverage probe; handlers call this with [__LINE__]. *)

val clock : t -> Iris_vtx.Clock.t
val vcpu : t -> Iris_vtx.Vcpu.t
val regs : t -> Iris_x86.Gpr.file
