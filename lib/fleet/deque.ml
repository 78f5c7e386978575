(* Two-stack deque under one mutex. Invariant: the logical queue, oldest
   first, is [front @ List.rev back]. The owner's end is the back (push
   conses, pop takes the head — LIFO); thieves take the head of front
   (FIFO). When one side runs dry it flips the other, preserving order. *)

type 'a t = {
  m : Mutex.t;
  mutable front : 'a list;  (* oldest first *)
  mutable back : 'a list;  (* newest first *)
}

let create () = { m = Mutex.create (); front = []; back = [] }

let locked t f =
  Mutex.lock t.m;
  let r =
    try f ()
    with e ->
      Mutex.unlock t.m;
      raise e
  in
  Mutex.unlock t.m;
  r

let push t x = locked t (fun () -> t.back <- x :: t.back)

let pop t =
  locked t (fun () ->
      match t.back with
      | x :: rest ->
          t.back <- rest;
          Some x
      | [] -> (
          match List.rev t.front with
          | [] -> None
          | x :: rest ->
              (* flipped: newest first, so the head is the owner's pick *)
              t.front <- [];
              t.back <- rest;
                  Some x))

let steal t =
  locked t (fun () ->
      match t.front with
      | x :: rest ->
          t.front <- rest;
          Some x
      | [] -> (
          match List.rev t.back with
          | [] -> None
          | x :: rest ->
              (* flipped: oldest first, so the head is the thief's pick *)
              t.back <- [];
              t.front <- rest;
                  Some x))
