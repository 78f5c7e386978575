type t = {
  cpu : int;
  counters : Counters.t;
  ring : Ring.t;
  profile : Profile.t;
  mutable origin_override : Profile.origin option;
}

let ring_depth = 4096

let create ~cpu () =
  {
    cpu;
    counters = Counters.create ();
    ring = Ring.create ~depth:ring_depth;
    profile = Profile.create ();
    origin_override = None;
  }

let counters t = t.counters
let ring t = t.ring
let profile t = t.profile

let emit t ~ts payload = Ring.push t.ring { Event.ts; cpu = t.cpu; payload }

let retire t ~pc ~cls ~origin ~cycles =
  Counters.retire t.counters ~cls ~cycles;
  let origin =
    match t.origin_override with Some o -> o | None -> origin
  in
  Profile.record t.profile ~pc ~origin ~cycles

let with_origin t o f =
  let saved = t.origin_override in
  t.origin_override <- Some o;
  Fun.protect ~finally:(fun () -> t.origin_override <- saved) f

type captured = {
  c_counters : Counters.snapshot;
  c_ring : Ring.captured;
  c_profile : Profile.captured;
  c_origin_override : Profile.origin option;
}

let capture t =
  {
    c_counters = Counters.snapshot t.counters;
    c_ring = Ring.capture t.ring;
    c_profile = Profile.capture t.profile;
    c_origin_override = t.origin_override;
  }

let restore t c =
  Counters.restore t.counters c.c_counters;
  Ring.restore t.ring c.c_ring;
  Profile.restore t.profile c.c_profile;
  t.origin_override <- c.c_origin_override
