(* The measurement program behind perfbench/run.py.

     rxvbench e2e   --workload W --seed N --seconds S --cli PATH --work DIR
                    --setups K --out FILE
     rxvbench trace --workload W --seed N --seconds S --work DIR --out FILE

   [e2e] measures the real server end to end; [trace] replays the same
   operations in-process with spans. Both write raw measurements as JSON
   to FILE; run.py turns them into metrics. Exit status 1 means the run
   could not complete (the reason is on stderr). *)

let () =
  let mode = ref "" and workload = ref "" and seed = ref 1 and seconds = ref 10 in
  let cli = ref "" and work = ref ".perfbench_work" and setups = ref 1 and out = ref "" in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_int seconds, "S measured window");
      ("--cli", Arg.Set_string cli, "PATH rxv_cli executable (e2e)");
      ("--work", Arg.Set_string work, "DIR scratch directory");
      ("--setups", Arg.Set_int setups, "K server set-ups to time (e2e)");
      ("--out", Arg.Set_string out, "FILE result JSON");
    ]
  in
  let usage = "rxvbench (e2e|trace) [options]" in
  Arg.parse spec (fun a -> if !mode = "" then mode := a else raise (Arg.Bad a)) usage;
  let die msg =
    prerr_endline ("rxvbench: " ^ msg);
    exit 1
  in
  let wl =
    match Workload.find_spec !workload with
    | Some w -> w
    | None -> die ("unknown workload " ^ !workload)
  in
  if !out = "" || !seconds < 1 || !setups < 1 then die usage;
  let pl = Workload.create wl ~seed:!seed in
  let result =
    try
      match !mode with
      | "e2e" when !cli <> "" -> E2e.run ~cli:!cli ~work:!work ~setups:!setups ~seconds:!seconds pl
      | "trace" -> Traced.run ~work:!work ~seconds:!seconds pl
      | _ -> die usage
    with e -> die (Printexc.to_string e)
  in
  Jsonw.to_file !out result
