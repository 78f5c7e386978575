type t =
  | APIAKeyLo_EL1
  | APIAKeyHi_EL1
  | APIBKeyLo_EL1
  | APIBKeyHi_EL1
  | APDAKeyLo_EL1
  | APDAKeyHi_EL1
  | APDBKeyLo_EL1
  | APDBKeyHi_EL1
  | APGAKeyLo_EL1
  | APGAKeyHi_EL1
  | SCTLR_EL1
  | CONTEXTIDR_EL1
  | TTBR0_EL1
  | TTBR1_EL1
  | VBAR_EL1
  | ELR_EL1
  | SPSR_EL1
  | ESR_EL1
  | FAR_EL1
  | TPIDR_EL1
  | CNTVCT_EL0
  (* PMU counter registers (PR 4 telemetry): appended at the end so
     existing encodings keep their ids. *)
  | PMCCNTR_EL0
  | PMICNTR_EL0
  | PMEVCNTR0_EL0
  | PMEVCNTR1_EL0
  | PMEVCNTR2_EL0

type pauth_key = IA | IB | DA | DB | GA

let key_halves = function
  | IA -> (APIAKeyHi_EL1, APIAKeyLo_EL1)
  | IB -> (APIBKeyHi_EL1, APIBKeyLo_EL1)
  | DA -> (APDAKeyHi_EL1, APDAKeyLo_EL1)
  | DB -> (APDBKeyHi_EL1, APDBKeyLo_EL1)
  | GA -> (APGAKeyHi_EL1, APGAKeyLo_EL1)

let is_pauth_key = function
  | APIAKeyLo_EL1 | APIAKeyHi_EL1 | APIBKeyLo_EL1 | APIBKeyHi_EL1 | APDAKeyLo_EL1
  | APDAKeyHi_EL1 | APDBKeyLo_EL1 | APDBKeyHi_EL1 | APGAKeyLo_EL1 | APGAKeyHi_EL1 ->
      true
  | SCTLR_EL1 | CONTEXTIDR_EL1 | TTBR0_EL1 | TTBR1_EL1 | VBAR_EL1 | ELR_EL1 | SPSR_EL1
  | ESR_EL1 | FAR_EL1 | TPIDR_EL1 | CNTVCT_EL0 | PMCCNTR_EL0 | PMICNTR_EL0
  | PMEVCNTR0_EL0 | PMEVCNTR1_EL0 | PMEVCNTR2_EL0 ->
      false

let is_mmu_control = function
  | SCTLR_EL1 | TTBR0_EL1 | TTBR1_EL1 -> true
  | APIAKeyLo_EL1 | APIAKeyHi_EL1 | APIBKeyLo_EL1 | APIBKeyHi_EL1 | APDAKeyLo_EL1
  | APDAKeyHi_EL1 | APDBKeyLo_EL1 | APDBKeyHi_EL1 | APGAKeyLo_EL1 | APGAKeyHi_EL1
  | CONTEXTIDR_EL1 | VBAR_EL1 | ELR_EL1 | SPSR_EL1 | ESR_EL1 | FAR_EL1 | TPIDR_EL1
  | CNTVCT_EL0 | PMCCNTR_EL0 | PMICNTR_EL0 | PMEVCNTR0_EL0 | PMEVCNTR1_EL0
  | PMEVCNTR2_EL0 ->
      false

let is_pmu = function
  | PMCCNTR_EL0 | PMICNTR_EL0 | PMEVCNTR0_EL0 | PMEVCNTR1_EL0 | PMEVCNTR2_EL0 ->
      true
  | APIAKeyLo_EL1 | APIAKeyHi_EL1 | APIBKeyLo_EL1 | APIBKeyHi_EL1 | APDAKeyLo_EL1
  | APDAKeyHi_EL1 | APDBKeyLo_EL1 | APDBKeyHi_EL1 | APGAKeyLo_EL1 | APGAKeyHi_EL1
  | SCTLR_EL1 | CONTEXTIDR_EL1 | TTBR0_EL1 | TTBR1_EL1 | VBAR_EL1 | ELR_EL1 | SPSR_EL1
  | ESR_EL1 | FAR_EL1 | TPIDR_EL1 | CNTVCT_EL0 ->
      false

let el0_readable r = r = CNTVCT_EL0 || is_pmu r

(* Architectural SCTLR_EL1 bit positions (ARM DDI 0487). *)
let sctlr_enia_bit = 31
let sctlr_enib_bit = 30
let sctlr_enda_bit = 27
let sctlr_endb_bit = 13

let sctlr_enable_bit = function
  | IA -> sctlr_enia_bit
  | IB -> sctlr_enib_bit
  | DA -> sctlr_enda_bit
  | DB -> sctlr_endb_bit
  | GA -> invalid_arg "Sysreg.sctlr_enable_bit: GA has no enable bit"

let all =
  [
    APIAKeyLo_EL1; APIAKeyHi_EL1; APIBKeyLo_EL1; APIBKeyHi_EL1; APDAKeyLo_EL1;
    APDAKeyHi_EL1; APDBKeyLo_EL1; APDBKeyHi_EL1; APGAKeyLo_EL1; APGAKeyHi_EL1;
    SCTLR_EL1; CONTEXTIDR_EL1; TTBR0_EL1; TTBR1_EL1; VBAR_EL1; ELR_EL1; SPSR_EL1;
    ESR_EL1; FAR_EL1; TPIDR_EL1; CNTVCT_EL0; PMCCNTR_EL0; PMICNTR_EL0;
    PMEVCNTR0_EL0; PMEVCNTR1_EL0; PMEVCNTR2_EL0;
  ]

let to_id = function
  | APIAKeyLo_EL1 -> 0
  | APIAKeyHi_EL1 -> 1
  | APIBKeyLo_EL1 -> 2
  | APIBKeyHi_EL1 -> 3
  | APDAKeyLo_EL1 -> 4
  | APDAKeyHi_EL1 -> 5
  | APDBKeyLo_EL1 -> 6
  | APDBKeyHi_EL1 -> 7
  | APGAKeyLo_EL1 -> 8
  | APGAKeyHi_EL1 -> 9
  | SCTLR_EL1 -> 10
  | CONTEXTIDR_EL1 -> 11
  | TTBR0_EL1 -> 12
  | TTBR1_EL1 -> 13
  | VBAR_EL1 -> 14
  | ELR_EL1 -> 15
  | SPSR_EL1 -> 16
  | ESR_EL1 -> 17
  | FAR_EL1 -> 18
  | TPIDR_EL1 -> 19
  | CNTVCT_EL0 -> 20
  | PMCCNTR_EL0 -> 21
  | PMICNTR_EL0 -> 22
  | PMEVCNTR0_EL0 -> 23
  | PMEVCNTR1_EL0 -> 24
  | PMEVCNTR2_EL0 -> 25

let by_id = Array.of_list all
let of_id i = if i >= 0 && i < Array.length by_id then Some by_id.(i) else None

let name = function
  | APIAKeyLo_EL1 -> "APIAKeyLo_EL1"
  | APIAKeyHi_EL1 -> "APIAKeyHi_EL1"
  | APIBKeyLo_EL1 -> "APIBKeyLo_EL1"
  | APIBKeyHi_EL1 -> "APIBKeyHi_EL1"
  | APDAKeyLo_EL1 -> "APDAKeyLo_EL1"
  | APDAKeyHi_EL1 -> "APDAKeyHi_EL1"
  | APDBKeyLo_EL1 -> "APDBKeyLo_EL1"
  | APDBKeyHi_EL1 -> "APDBKeyHi_EL1"
  | APGAKeyLo_EL1 -> "APGAKeyLo_EL1"
  | APGAKeyHi_EL1 -> "APGAKeyHi_EL1"
  | SCTLR_EL1 -> "SCTLR_EL1"
  | CONTEXTIDR_EL1 -> "CONTEXTIDR_EL1"
  | TTBR0_EL1 -> "TTBR0_EL1"
  | TTBR1_EL1 -> "TTBR1_EL1"
  | VBAR_EL1 -> "VBAR_EL1"
  | ELR_EL1 -> "ELR_EL1"
  | SPSR_EL1 -> "SPSR_EL1"
  | ESR_EL1 -> "ESR_EL1"
  | FAR_EL1 -> "FAR_EL1"
  | TPIDR_EL1 -> "TPIDR_EL1"
  | CNTVCT_EL0 -> "CNTVCT_EL0"
  | PMCCNTR_EL0 -> "PMCCNTR_EL0"
  | PMICNTR_EL0 -> "PMICNTR_EL0"
  | PMEVCNTR0_EL0 -> "PMEVCNTR0_EL0"
  | PMEVCNTR1_EL0 -> "PMEVCNTR1_EL0"
  | PMEVCNTR2_EL0 -> "PMEVCNTR2_EL0"
