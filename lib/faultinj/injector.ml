open Aarch64

type trigger =
  | Always
  | At_cycle_window of { lo : int64; hi : int64 }
  | In_pc_range of { lo : int64; hi : int64 }
  | After_steps of int

type model =
  | Mem_flip of { va : int64; bits : int list }
  | Gpr_flip of { reg : int; bits : int list }
  | Pac_field_flip of { va : int64; rank : int }
  | Key_flip of { key : Sysreg.pauth_key; high_half : bool; bit : int }
  | Skip_insn

type persistence = Transient | Stuck

type spec = { trigger : trigger; model : model; persistence : persistence }

type t = {
  spec : spec;
  mutable steps_seen : int;
  mutable has_fired : bool;
  mutable injection_count : int;
  mutable first : (int * int64) option;
  (* for [Stuck] faults: re-force the flipped bits on every subsequent
     hooked instruction (a stuck-at defect outlives any rewrite) *)
  mutable force : (Cpu.t -> unit) option;
  (* the cores this injector is armed on, newest first *)
  mutable cores : Cpu.t list;
}

let create spec =
  {
    spec;
    steps_seen = 0;
    has_fired = false;
    injection_count = 0;
    first = None;
    force = None;
    cores = [];
  }

let fired t = t.has_fired
let injections t = t.injection_count
let first_strike t = t.first

let trigger_due t cpu ~pc =
  match t.spec.trigger with
  | Always -> true
  | At_cycle_window { lo; hi } ->
      let c = Cpu.cycles cpu in
      Int64.unsigned_compare c lo >= 0 && Int64.unsigned_compare c hi <= 0
  | In_pc_range { lo; hi } ->
      Int64.unsigned_compare pc lo >= 0 && Int64.unsigned_compare pc hi <= 0
  | After_steps n -> t.steps_seen > n

let mask_of_bits bits =
  List.fold_left (fun acc b -> Int64.logor acc (Int64.shift_left 1L (b land 63))) 0L bits

(* Locate the physical word behind [va], trying the kernel view first.
   The write side goes straight to physical memory: a particle strike is
   not subject to stage-2 write protection. *)
let mem_word cpu va =
  let mmu = Cpu.mmu cpu and mem = Cpu.mem cpu in
  let try_el el = Mmu.translate mmu ~el ~access:Mmu.Read va in
  match (match try_el El.El1 with Result.Ok pa -> Result.Ok pa | Result.Error _ -> try_el El.El0) with
  | Result.Ok pa ->
      Some ((fun () -> Mem.read64 mem pa), fun v -> Mem.write64 mem pa v)
  | Result.Error _ -> None

let force_bits ~mask ~target current =
  Int64.logor (Int64.logand current (Int64.lognot mask)) (Int64.logand target mask)

(* Apply the fault model once on [cpu]; returns the hook verdict plus an
   optional re-force closure for [Stuck] persistence. *)
let strike t cpu =
  match t.spec.model with
  | Skip_insn -> (Cpu.Skip, None)
  | Mem_flip { va; bits } -> (
      let mask = mask_of_bits bits in
      match mem_word cpu va with
      | None -> (Cpu.Exec, None) (* unmapped: the flip lands in the void *)
      | Some (read, write) ->
          let target = Int64.logxor (read ()) mask in
          write target;
          ( Cpu.Exec,
            Some
              (fun cpu' ->
                match mem_word cpu' va with
                | Some (read', write') -> write' (force_bits ~mask ~target (read' ()))
                | None -> ()) ))
  | Pac_field_flip { va; rank } -> (
      match mem_word cpu va with
      | None -> (Cpu.Exec, None)
      | Some (read, write) ->
          let value = read () in
          let cfg = Cpu.pointer_cfg cpu value in
          let positions =
            List.concat_map
              (fun (lo, width) -> List.init width (fun i -> lo + i))
              (Vaddr.pac_field cfg)
          in
          if positions = [] then (Cpu.Exec, None)
          else begin
            let bit = List.nth positions (abs rank mod List.length positions) in
            let mask = Int64.shift_left 1L bit in
            let target = Int64.logxor value mask in
            write target;
            ( Cpu.Exec,
              Some
                (fun cpu' ->
                  match mem_word cpu' va with
                  | Some (read', write') ->
                      write' (force_bits ~mask ~target (read' ()))
                  | None -> ()) )
          end)
  | Gpr_flip { reg; bits } ->
      let reg = reg mod 31 in
      let mask = mask_of_bits bits in
      let target = Int64.logxor (Cpu.reg cpu (Insn.R reg)) mask in
      Cpu.set_reg cpu (Insn.R reg) target;
      ( Cpu.Exec,
        Some
          (fun cpu' ->
            Cpu.set_reg cpu' (Insn.R reg)
              (force_bits ~mask ~target (Cpu.reg cpu' (Insn.R reg)))) )
  | Key_flip { key; high_half; bit } ->
      let hi, lo = Sysreg.key_halves key in
      let sr = if high_half then hi else lo in
      let mask = Int64.shift_left 1L (bit land 63) in
      let target = Int64.logxor (Cpu.sysreg cpu sr) mask in
      Cpu.set_sysreg cpu sr target;
      ( Cpu.Exec,
        Some
          (fun cpu' ->
            Cpu.set_sysreg cpu' sr (force_bits ~mask ~target (Cpu.sysreg cpu' sr))) )

let trigger_to_string = function
  | Always -> "always"
  | At_cycle_window { lo; hi } -> Printf.sprintf "cycles[%Ld,%Ld]" lo hi
  | In_pc_range { lo; hi } -> Printf.sprintf "pc[0x%Lx,0x%Lx]" lo hi
  | After_steps n -> Printf.sprintf "after %d steps" n

let key_name = function
  | Sysreg.IA -> "IA"
  | Sysreg.IB -> "IB"
  | Sysreg.DA -> "DA"
  | Sysreg.DB -> "DB"
  | Sysreg.GA -> "GA"

let model_to_string = function
  | Mem_flip { va; bits } ->
      Printf.sprintf "mem-flip@0x%Lx bits [%s]" va
        (String.concat ";" (List.map string_of_int bits))
  | Gpr_flip { reg; bits } ->
      Printf.sprintf "gpr-flip x%d bits [%s]" reg
        (String.concat ";" (List.map string_of_int bits))
  | Pac_field_flip { va; rank } -> Printf.sprintf "pac-field-flip@0x%Lx rank %d" va rank
  | Key_flip { key; high_half; bit } ->
      Printf.sprintf "key-flip %s.%s bit %d" (key_name key)
        (if high_half then "hi" else "lo")
        bit
  | Skip_insn -> "skip-insn"

let spec_to_string s =
  Printf.sprintf "%s %s (%s)"
    (trigger_to_string s.trigger)
    (model_to_string s.model)
    (match s.persistence with Transient -> "transient" | Stuck -> "stuck")

(* After the first strike a [Transient] fault is spent, so its hook
   leaves every core it is armed on; a [Stuck] fault re-forces on
   whichever core runs next, so every core hooks every instruction. *)
let after_strike t =
  match t.spec.persistence with
  | Transient -> List.iter (fun c -> Cpu.set_step_hook c None) t.cores
  | Stuck -> List.iter (fun c -> Cpu.set_step_horizon c 0L) t.cores

let hook t cpu ~pc =
  t.steps_seen <- t.steps_seen + 1;
  if not t.has_fired then begin
    if trigger_due t cpu ~pc then begin
      t.has_fired <- true;
      t.first <- Some (Cpu.id cpu, pc);
      t.injection_count <- 1;
      (match Cpu.telemetry cpu with
      | Some s ->
          Telemetry.Sink.emit s ~ts:(Cpu.cycles cpu)
            (Telemetry.Event.Injected_fault { desc = spec_to_string t.spec })
      | None -> ());
      let verdict, force = strike t cpu in
      if t.spec.persistence = Stuck then t.force <- force;
      after_strike t;
      verdict
    end
    else Cpu.Exec
  end
  else
    match t.spec.persistence with
    | Transient -> Cpu.Exec
    | Stuck -> (
        match t.spec.model with
        | Skip_insn ->
            if trigger_due t cpu ~pc then begin
              t.injection_count <- t.injection_count + 1;
              Cpu.Skip
            end
            else Cpu.Exec
        | _ -> (
            match t.force with
            | Some f ->
                f cpu;
                t.injection_count <- t.injection_count + 1;
                Cpu.Exec
            | None -> Cpu.Exec))

(* A cycle window's trigger cannot be due below [lo], so until the
   fault strikes the hook acts on no instruction that starts below it. *)
let arm t cpu =
  Cpu.set_step_hook cpu (Some (fun cpu ~pc _ -> hook t cpu ~pc));
  t.cores <- cpu :: t.cores;
  match t.spec.trigger with
  | At_cycle_window { lo; _ } when not t.has_fired -> Cpu.set_step_horizon cpu lo
  | _ -> ()

let arm_all t machine = List.iter (arm t) (Machine.cores machine)
