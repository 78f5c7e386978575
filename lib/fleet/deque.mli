(** A mutex-guarded work-stealing deque (PR 6 tentpole, layer 1).

    One deque per pool worker. The owner pushes and pops at the {e hot}
    end (LIFO — freshest work, best cache locality); thieves steal from
    the {e cold} end (FIFO — oldest work, which for the pool's block
    partition means a thief walks off with the far end of the victim's
    index range, minimising further contention).

    Contention is one uncontended mutex acquisition per operation: with
    job granularities of whole machine boots (milliseconds), a lock-free
    Chase–Lev structure would buy nothing measurable, and the mutex keeps
    every interleaving trivially linearizable. *)

type 'a t

val create : unit -> 'a t

(** [push t x] — owner adds [x] at the hot end. *)
val push : 'a t -> 'a -> unit

(** [pop t] — owner removes the most recently pushed element. *)
val pop : 'a t -> 'a option

(** [steal t] — a thief removes the oldest element. *)
val steal : 'a t -> 'a option
