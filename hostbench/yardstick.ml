(* The host-speed yardstick: a fixed run of a small register machine
   over 1 MB of memory, with a jump-table dispatch, data-dependent
   branches, loads and stores — the profile of the simulator's own hot
   loops. Of the candidates README.md compares, it tracked the host's
   slow phases most closely.

   It is an executable of its own that links none of the simulator's
   code, because the speed of a loop this tight depends on where the
   linker places it: padding the code in front of it moved its time by
   up to 28%. In its own binary its placement never changes. main.exe
   runs it as a child process and asks for one timing per request line
   on stdin; the answer is the run's wall seconds on stdout. It exits at
   end of input. *)

open Bigarray

let words = 1 lsl 17
let pristine = Array1.init int c_layout words (fun i -> i * 2654435761)
let mem = Array1.create int c_layout words
let code = Array.init 64 (fun i -> ((i * 37) + 11) mod 8)
let r = Array.make 8 1
let steps = 600_000

(* [run ()] — the machine's wall seconds, from the same initial state
   every time. *)
let run () =
  Array1.blit pristine mem;
  Array.fill r 0 8 1;
  let t0 = Unix.gettimeofday () in
  let pc = ref 0 in
  for _ = 1 to steps do
    (match Array.unsafe_get code !pc with
    | 0 -> r.(1) <- r.(1) + r.(2)
    | 1 -> r.(2) <- r.(2) lxor (r.(1) lsl 3)
    | 2 -> r.(3) <- Array1.unsafe_get mem (r.(1) land (words - 1))
    | 3 -> Array1.unsafe_set mem (r.(3) land (words - 1)) r.(2)
    | 4 -> r.(4) <- (r.(4) * 0x5bd1e995) + r.(3)
    | 5 -> if r.(4) land 1 = 0 then pc := (!pc + 5) land 63
    | 6 -> r.(1) <- r.(1) lxor (r.(4) lsr 7)
    | _ -> r.(2) <- r.(2) + Array1.unsafe_get mem (r.(4) land (words - 1)));
    pc := (!pc + 1) land 63
  done;
  Unix.gettimeofday () -. t0

let () =
  ignore (run ());
  try
    while true do
      ignore (input_line stdin);
      Printf.printf "%.9f\n%!" (run ())
    done
  with End_of_file -> ()
