type profile = {
  name : string;
  alu : int;
  load : int;
  store : int;
  branch : int;
  pauth : int;
  msr : int;
  mrs : int;
  exception_entry : int;
  eret : int;
  isb : int;
  clock_hz : float;
}

let cortex_a53 =
  {
    name = "cortex-a53 + PA-analogue";
    alu = 1;
    load = 2;
    store = 1;
    branch = 1;
    pauth = 4;
    msr = 1;
    mrs = 1;
    exception_entry = 24;
    eret = 24;
    isb = 4;
    clock_hz = 1.4e9;
  }
