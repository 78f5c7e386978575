(** Instruction cycle-cost model.

    The paper could not run on PAuth silicon; its performance numbers
    come from a "PA-analogue" — an instruction sequence exhibiting the
    estimated 4-cycles-per-instruction computational overhead of PAuth —
    executed on a Raspberry Pi 3 (Cortex-A53-class, 1.4 GHz). We
    reproduce that methodology directly: a per-class cycle cost applied
    by the interpreter, with PAuth operations costing [pauth_cycles]. *)

type profile = {
  name : string;
  alu : int;  (** data-processing: MOV/ADD/AND/BFI/... *)
  load : int;
  store : int;
  branch : int;  (** direct and indirect branches, returns *)
  pauth : int;  (** PAC*/AUT*/XPAC computation cost *)
  msr : int;  (** system register write *)
  mrs : int;  (** system register read *)
  exception_entry : int;  (** SVC/fault pipeline flush + vector fetch *)
  eret : int;
  isb : int;
  clock_hz : float;  (** for cycle -> nanosecond conversion *)
}

(** Cortex-A53-class in-order core at 1.4 GHz, PA-analogue PAuth cost of
    4 cycles: the paper's evaluation platform. *)
val cortex_a53 : profile
