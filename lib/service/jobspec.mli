(** A campaign job specification — what a tenant submits to the
    service.

    A spec is everything needed to reproduce the job from nothing:
    the workload to record, the recording length, the campaign target
    (exit reason, mutation area, mutation budget) and the PRNG seed.
    Two equal specs denote the same deterministic computation, which
    is why the {!key} is content-derived: the merged report of a
    drained queue is keyed by it, never by submission order. *)

type t = {
  tenant : string;       (** owner; the fair scheduler's flow id *)
  priority : int;        (** DRR weight, >= 1 *)
  workload : Iris_guest.Workload.t;
  exits : int;           (** VM exits to record *)
  reason : Iris_vtx.Exit_reason.t;
  area : Iris_fuzzer.Mutation.area;
  mutations : int;       (** campaign budget N *)
  prng_seed : int;       (** manager + campaign PRNG seed *)
  boot_scale : float;
  timeout_cycles : int64 option;
      (** modeled-cycle budget; checked against the job's cumulative
          case cycles in case order, so a timeout truncates at the
          same case regardless of scheduling *)
}

val make :
  ?tenant:string -> ?priority:int -> ?boot_scale:float ->
  ?timeout_cycles:int64 ->
  workload:Iris_guest.Workload.t -> exits:int ->
  reason:Iris_vtx.Exit_reason.t -> area:Iris_fuzzer.Mutation.area ->
  mutations:int -> prng_seed:int -> unit -> t
(** Defaults: tenant ["default"], priority [1], boot_scale [0.05],
    no timeout.  Priorities below 1 clamp to 1. *)

val key : t -> string
(** Content-derived FNV-64 hex key: equal specs, equal keys. *)

val label : t -> string
(** Human-readable one-liner, e.g. ["alice/CPU-bound/RDTSC/GPR m=400"]. *)

val area_string : Iris_fuzzer.Mutation.area -> string
val area_of_string : string -> Iris_fuzzer.Mutation.area option
val reason_of_string : string -> Iris_vtx.Exit_reason.t option
(** Case-insensitive match on the long or short reason name, or a
    decimal basic exit-reason code. *)

val to_json : t -> Iris_telemetry.Json.t
val of_json : Iris_telemetry.Json.t -> (t, string) result
(** Wire encoding.  [reason] serialises as the basic exit-reason code
    but parses from a name too; missing optional fields take the
    {!make} defaults.  A spec whose [exits], [mutations], [priority]
    or [timeout_cycles] is not positive, whose [boot_scale] is not a
    positive finite number, or whose optional field has the wrong
    type, is an [Error] naming the field. *)
