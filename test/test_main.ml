let () =
  Alcotest.run "camouflage"
    [
      ("util", Test_util.suite);
      ("json", Test_json.suite);
      ("qarma", Test_qarma.suite);
      ("mem-mmu", Test_mem_mmu.suite);
      ("asm", Test_asm.suite);
      ("vaddr", Test_vaddr.suite);
      ("encode", Test_encode.suite);
      ("insn", Test_insn.suite);
      ("paclint", Test_paclint.suite);
      ("cpu", Test_cpu.suite);
      ("icache", Test_icache.suite);
      ("traces", Test_traces.suite);
      ("camouflage", Test_camouflage.suite);
      ("kernel", Test_kernel.suite);
      ("sched", Test_sched.suite);
      ("smp", Test_smp.suite);
      ("xom", Test_xom.suite);
      ("loader", Test_loader.suite);
      ("attacks", Test_attacks.suite);
      ("workloads", Test_workloads.suite);
      ("sempatch", Test_sempatch.suite);
      ("properties", Test_properties.suite);
      ("fuzz", Test_fuzz.suite);
      ("faultinj", Test_faultinj.suite);
      ("telemetry", Test_telemetry.suite);
      ("fleet", Test_fleet.suite);
      ("snapshot", Test_snapshot.suite);
      ("misc", Test_misc.suite);
    ]
