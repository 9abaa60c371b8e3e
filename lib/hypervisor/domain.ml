module Gmem = Iris_memory.Gmem
module Ept = Iris_memory.Ept

type t = {
  id : int;
  name : string;
  dummy : bool;
  vcpu : Iris_vtx.Vcpu.t;
  mem : Gmem.t;
  ept : Ept.t;
  bus : Iris_devices.Port_bus.t;
  pic : Iris_devices.Pic.t;
  pit : Iris_devices.Pit.t;
  uart : Iris_devices.Uart.t;
  rtc : Iris_devices.Rtc.t;
  pci : Iris_devices.Pci.t;
  vlapic : Vlapic.t;
  vpt : Vpt.t;
  engine : Iris_vtx.Engine.t;
  mutable crashed : string option;
  mutable guest_mode : Iris_x86.Cpu_mode.t;
  mutable pending_insn : Iris_x86.Insn.t option;
  mutable blocked : bool;
  bar_regs : int64 array;
  mutable log : string list;
  stats : stats;
}

and stats = {
  mutable full_reverts : int;
  mutable cow_reverts : int;
  mutable checkpoints : int;
  mutable pages_restored : int;
  mutable ept_restored : int;
  mutable vmcs_fields_restored : int;
}

let mmio_bar_base = 0xFEB00000L

let mmio_bar_size = 0x10000L

let create ?(dummy = false) ~cov ~id ~name ~mem_mib () =
  let vcpu = Iris_vtx.Vcpu.create () in
  let mem = Gmem.create ~size_mib:mem_mib in
  let ept = Ept.create () in
  (* Populate RAM mappings; leave the APIC page and the device BAR as
     holes so accesses fault for emulation. *)
  Ept.map ept ~gpa:0L ~len:(Gmem.size_bytes mem) Ept.perm_rwx;
  Ept.unmap ept ~gpa:Vlapic.mmio_base ~len:Vlapic.mmio_size;
  Ept.unmap ept ~gpa:mmio_bar_base ~len:mmio_bar_size;
  let bus = Iris_devices.Port_bus.create () in
  let pic = Iris_devices.Pic.create () in
  let pit = Iris_devices.Pit.create () in
  let uart = Iris_devices.Uart.create () in
  let rtc = Iris_devices.Rtc.create () in
  let pci = Iris_devices.Pci.create () in
  Iris_devices.Pic.attach pic bus;
  Iris_devices.Pit.attach pit bus;
  Iris_devices.Uart.attach uart bus;
  Iris_devices.Rtc.attach rtc bus;
  Iris_devices.Pci.attach pci bus;
  let vlapic = Vlapic.create ~cov in
  let vpt = Vpt.create ~cov in
  let engine = Iris_vtx.Engine.create ~vcpu ~mem ~ept in
  { id;
    name;
    dummy;
    vcpu;
    mem;
    ept;
    bus;
    pic;
    pit;
    uart;
    rtc;
    pci;
    vlapic;
    vpt;
    engine;
    crashed = None;
    guest_mode = Iris_x86.Cpu_mode.Mode1;
    pending_insn = None;
    blocked = false;
    bar_regs = Array.make 16 0L;
    log = [];
    stats =
      { full_reverts = 0;
        cow_reverts = 0;
        checkpoints = 0;
        pages_restored = 0;
        ept_restored = 0;
        vmcs_fields_restored = 0 } }

let snapshot_stats t =
  { t.stats with full_reverts = t.stats.full_reverts }

let crash t reason =
  match t.crashed with
  | Some _ -> ()
  | None -> t.crashed <- Some reason

let crashed t = t.crashed <> None

(* Everything outside the journaled stores (memory, EPT, VMCS): the
   platform devices, the vLAPIC and vPT, the domain flags, the BAR
   registers and the log head.  A few hundred fixed bytes (plus the
   UART transmit log), captured eagerly by both [snapshot] and
   [checkpoint]. *)
type platform = {
  p_pic : Iris_devices.Pic.t;
  p_pit : Iris_devices.Pit.t;
  p_uart : Iris_devices.Uart.t;
  p_rtc : Iris_devices.Rtc.t;
  p_pci : Iris_devices.Pci.t;
  p_vlapic : Vlapic.t;
  p_vpt : Vpt.t;
  p_crashed : string option;
  p_guest_mode : Iris_x86.Cpu_mode.t;
  p_blocked : bool;
  p_bar_regs : int64 array;
  p_log : string list;
}

let capture t =
  { p_pic = Iris_devices.Pic.copy t.pic;
    p_pit = Iris_devices.Pit.copy t.pit;
    p_uart = Iris_devices.Uart.copy t.uart;
    p_rtc = Iris_devices.Rtc.copy t.rtc;
    p_pci = Iris_devices.Pci.copy t.pci;
    p_vlapic = Vlapic.copy t.vlapic;
    p_vpt = Vpt.copy t.vpt;
    p_crashed = t.crashed;
    p_guest_mode = t.guest_mode;
    p_blocked = t.blocked;
    p_bar_regs = Array.copy t.bar_regs;
    p_log = t.log }

(* The bus handlers and the engine close over the device/memory
   records, so restoring mutates the existing records in place
   (transplant) rather than swapping them. *)
let restore t p =
  Iris_devices.Pic.transplant ~into:t.pic ~from:p.p_pic;
  Iris_devices.Pit.transplant ~into:t.pit ~from:p.p_pit;
  Iris_devices.Uart.transplant ~into:t.uart ~from:p.p_uart;
  Iris_devices.Rtc.transplant ~into:t.rtc ~from:p.p_rtc;
  Iris_devices.Pci.transplant ~into:t.pci ~from:p.p_pci;
  Vlapic.restore t.vlapic ~from:p.p_vlapic;
  Vpt.restore t.vpt ~from:p.p_vpt;
  t.crashed <- p.p_crashed;
  t.guest_mode <- p.p_guest_mode;
  t.pending_insn <- None;
  t.blocked <- p.p_blocked;
  Array.blit p.p_bar_regs 0 t.bar_regs 0 (Array.length t.bar_regs);
  t.log <- p.p_log

type snapshot = {
  s_vcpu : Iris_vtx.Vcpu.t;
  s_mem : Gmem.t;
  s_ept : Ept.t;
  s_platform : platform;
}

let snapshot t =
  { s_vcpu = Iris_vtx.Vcpu.snapshot t.vcpu;
    s_mem = Gmem.copy t.mem;
    s_ept = Ept.copy t.ept;
    s_platform = capture t }

let revert t s =
  t.stats.full_reverts <- t.stats.full_reverts + 1;
  Iris_vtx.Vcpu.restore t.vcpu ~from:s.s_vcpu;
  Gmem.transplant ~into:t.mem ~from:s.s_mem;
  Ept.transplant ~into:t.ept ~from:s.s_ept;
  restore t s.s_platform

(* --- incremental (copy-on-write) checkpoints ---

   Guest memory, the EPT and the VMCS — the bulk of a snapshot — are
   checkpointed through their write journals, so a rewind touches only
   what the epoch dirtied.  The vCPU scalars and the platform are
   captured eagerly, exactly as the full snapshot does. *)

type checkpoint = {
  k_vcpu : Iris_vtx.Vcpu.checkpoint;
  k_mem : Gmem.checkpoint;
  k_ept : Ept.checkpoint;
  k_platform : platform;
}

let checkpoint t =
  t.stats.checkpoints <- t.stats.checkpoints + 1;
  { k_vcpu = Iris_vtx.Vcpu.checkpoint t.vcpu;
    k_mem = Gmem.checkpoint t.mem;
    k_ept = Ept.checkpoint t.ept;
    k_platform = capture t }

type revert_stats = {
  rs_pages : int;
  rs_ept_entries : int;
  rs_vmcs_fields : int;
}

let rewind t k =
  let rs_vmcs_fields = Iris_vtx.Vcpu.rewind t.vcpu k.k_vcpu in
  let rs_pages = Gmem.rewind t.mem k.k_mem in
  let rs_ept_entries = Ept.rewind t.ept k.k_ept in
  restore t k.k_platform;
  t.stats.cow_reverts <- t.stats.cow_reverts + 1;
  t.stats.pages_restored <- t.stats.pages_restored + rs_pages;
  t.stats.ept_restored <- t.stats.ept_restored + rs_ept_entries;
  t.stats.vmcs_fields_restored <-
    t.stats.vmcs_fields_restored + rs_vmcs_fields;
  { rs_pages; rs_ept_entries; rs_vmcs_fields }

let release t k =
  Iris_vtx.Vcpu.commit t.vcpu k.k_vcpu;
  Gmem.commit t.mem k.k_mem;
  Ept.commit t.ept k.k_ept

(* --- modeled restore footprint ---

   Deterministic cost model for the bench's revert-throughput gate:
   bytes a restore path must touch.  The fixed part (vCPU scalars,
   MSRs, segments, devices) is common to both paths; the variable part
   is the whole snapshot for a full restore versus only the journaled
   state for a COW rewind. *)

let fixed_restore_bytes = 2048

let snapshot_bytes s =
  fixed_restore_bytes
  + (Gmem.allocated_pages s.s_mem * Gmem.page_size)
  + (Ept.override_count s.s_ept * 16)
  + (Iris_vmcs.Field.count * 8)

let rewind_bytes rs =
  fixed_restore_bytes
  + (rs.rs_pages * Gmem.page_size)
  + (rs.rs_ept_entries * 16)
  + (rs.rs_vmcs_fields * 8)
