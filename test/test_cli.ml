(* Error-path coverage for the adsm_run executable: bad names, bad
   paths and conflicting flags must fail fast with a non-zero exit code
   and a diagnostic on stderr, never start a simulation.

   The binary is a declared dune dependency, so it is always freshly
   built; resolving it relative to this test executable keeps the suite
   independent of the working directory it is launched from. *)

let exe =
  Filename.concat (Filename.dirname Sys.executable_name) "../bin/adsm_run.exe"

let slurp path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove path;
  s

(* Run through /bin/sh to get exit code, stdout and stderr separately. *)
let run_capture args =
  let out = Filename.temp_file "adsm_cli" ".out" in
  let err = Filename.temp_file "adsm_cli" ".err" in
  let cmd =
    Printf.sprintf "%s %s >%s 2>%s" (Filename.quote exe) args
      (Filename.quote out) (Filename.quote err)
  in
  let code = Sys.command cmd in
  (code, slurp out, slurp err)

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec at i = i + nl <= hl && (String.sub haystack i nl = needle || at (i + 1)) in
  at 0

let check_failure name args ~code ~stderr_has =
  let got_code, _out, err = run_capture args in
  Alcotest.(check int) (name ^ ": exit code") code got_code;
  Alcotest.(check bool)
    (Printf.sprintf "%s: stderr mentions %S (got %S)" name stderr_has err)
    true
    (contains ~needle:stderr_has err)

(* Name-valued options and arguments are usage errors (exit 124) that
   name the option and list the valid values, before anything runs. *)
let check_unknown_name name args ~flag ~valid =
  let code, out, err = run_capture args in
  Alcotest.(check int) (name ^ ": exit code") 124 code;
  Alcotest.(check string) (name ^ ": nothing ran") "" out;
  List.iter
    (fun needle ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: stderr mentions %S (got %S)" name needle err)
        true (contains ~needle err))
    [ flag; valid ]

let test_unknown_app () =
  check_unknown_name "unknown app" "run --app NOPE --tiny --procs 2"
    ~flag:"--app" ~valid:"ILINK"

let test_unknown_protocol () =
  check_unknown_name "unknown protocol" "run --protocol BOGUS --tiny --procs 2"
    ~flag:"--protocol" ~valid:"HLRC"

let test_unknown_verify_app () =
  check_unknown_name "verify unknown app" "verify --app NOPE --tiny"
    ~flag:"--app" ~valid:"ILINK"

let test_bad_trace_path () =
  check_failure "bad trace path"
    "run --app TSP --tiny --procs 2 --trace /nonexistent-dir/sub/t.jsonl"
    ~code:1 ~stderr_has:"cannot open trace file"

let test_trace_format_without_trace () =
  check_failure "conflicting flags" "run --tiny --procs 2 --trace-format chrome"
    ~code:1 ~stderr_has:"--trace-format requires --trace"

let test_bad_trace_format_value () =
  (* Rejected by the cmdliner enum converter: cli-error exit code 124. *)
  check_failure "bad trace format" "run --tiny --trace x.out --trace-format xml"
    ~code:124 ~stderr_has:"trace-format"

let test_unknown_mutation () =
  check_unknown_name "unknown mutation" "fuzz --seeds 1 --mutation bogus"
    ~flag:"--mutation" ~valid:"stale-vc-after-restart"

(* The bad name comes first and a valid study follows: the valid one
   must not run before the error. *)
let test_unknown_ablation () =
  check_unknown_name "unknown ablation" "ablations nosuchstudy quantum"
    ~flag:"STUDY" ~valid:"writeranges"

let test_unknown_artifact () =
  check_unknown_name "unknown artifact" "experiments tabel3" ~flag:"ARTIFACT"
    ~valid:"simcost"

(* [--procs] is shared by every subcommand that builds a cluster: a
   non-positive count is a usage error naming the option, on all of
   them, never an uncaught exception from deep inside the run. *)
let test_nonpositive_procs () =
  List.iter
    (fun args ->
      check_failure args args ~code:124 ~stderr_has:"--procs")
    [
      "run --tiny --procs 0"; "experiments --tiny --procs 0";
      "fuzz --seeds 1 --procs=-2"; "survive --tiny --procs 0";
      "verify --tiny --procs zero";
    ];
  check_failure "run -n 0" "run --tiny -n 0" ~code:124 ~stderr_has:"--procs"

(* [--jobs] sizes the worker pool on every subcommand that has one. *)
let test_nonpositive_jobs () =
  List.iter
    (fun args -> check_failure args args ~code:124 ~stderr_has:"--jobs")
    [
      "experiments --tiny --jobs 0"; "scaling --tiny --jobs 0";
      "fuzz --seeds 1 --jobs 0"; "survive --tiny --jobs 0";
      "verify --tiny --jobs=-1"; "ablations --jobs 0";
      "experiments --tiny -j 0"; "perf --tiny --jobs 0";
    ]

(* Unknown application names in list options are usage errors that name
   the option and list the valid applications. *)
let test_unknown_app_lists () =
  List.iter
    (fun (args, flag) ->
      check_failure args args ~code:124 ~stderr_has:flag;
      check_failure args args ~code:124 ~stderr_has:"ILINK")
    [
      ("scaling --apps NOPE", "--apps"); ("scaling --apps SOR,NOPE", "--apps");
      ("experiments --tiny --app NOPE", "--app");
      ("survive --tiny --app NOPE", "--app");
    ];
  check_failure "scaling --apps ," "scaling --apps ," ~code:124
    ~stderr_has:"--apps"

(* The node grid starts at 8; a smaller cap would print an empty study. *)
let test_max_nodes_floor () =
  List.iter
    (fun args -> check_failure args args ~code:124 ~stderr_has:"--max-nodes")
    [ "scaling --max-nodes 0"; "scaling --tiny --max-nodes 7" ]

let test_list_ok () =
  let code, out, _err = run_capture "list" in
  Alcotest.(check int) "list: exit code" 0 code;
  Alcotest.(check bool) "list: mentions SOR" true (contains ~needle:"SOR" out)

(* Every subcommand's manual must render: a malformed doc string makes
   cmdliner print "cmdliner error: ..." on stderr while still exiting 0,
   so the exit code alone would not catch it. *)
let subcommands =
  [ "run"; "fuzz"; "experiments"; "list"; "scaling"; "ablations"; "survive";
    "verify"; "perf" ]

let test_help_renders () =
  List.iter
    (fun sub ->
      let code, out, err = run_capture (sub ^ " --help=plain") in
      Alcotest.(check int) (sub ^ " --help: exit code") 0 code;
      Alcotest.(check bool)
        (Printf.sprintf "%s --help: no cmdliner error (stderr %S)" sub err)
        false
        (contains ~needle:"cmdliner error" err);
      Alcotest.(check bool)
        (sub ^ " --help: prints a manual") true
        (contains ~needle:"NAME" out))
    subcommands;
  (* The --protocol doc names every protocol the parser accepts. *)
  List.iter
    (fun sub ->
      let _, out, _ = run_capture (sub ^ " --help=plain") in
      List.iter
        (fun name ->
          Alcotest.(check bool)
            (Printf.sprintf "%s --help lists protocol %s" sub name)
            true (contains ~needle:name out))
        [ "MW"; "SW"; "WFS"; "WFS+WG"; "HLRC" ])
    [ "run"; "fuzz" ]

let () =
  Alcotest.run "cli"
    [
      ( "errors",
        [
          Alcotest.test_case "unknown application" `Quick test_unknown_app;
          Alcotest.test_case "unknown protocol" `Quick test_unknown_protocol;
          Alcotest.test_case "verify: unknown application" `Quick
            test_unknown_verify_app;
          Alcotest.test_case "unwritable trace path" `Quick test_bad_trace_path;
          Alcotest.test_case "--trace-format without --trace" `Quick
            test_trace_format_without_trace;
          Alcotest.test_case "invalid --trace-format value" `Quick
            test_bad_trace_format_value;
          Alcotest.test_case "unknown fuzz mutation" `Quick
            test_unknown_mutation;
          Alcotest.test_case "unknown ablation study" `Quick
            test_unknown_ablation;
          Alcotest.test_case "unknown experiments artifact" `Quick
            test_unknown_artifact;
          Alcotest.test_case "non-positive --procs" `Quick
            test_nonpositive_procs;
          Alcotest.test_case "non-positive --jobs" `Quick
            test_nonpositive_jobs;
          Alcotest.test_case "unknown application in --app/--apps" `Quick
            test_unknown_app_lists;
          Alcotest.test_case "--max-nodes below the grid" `Quick
            test_max_nodes_floor;
        ] );
      ( "smoke",
        [
          Alcotest.test_case "list exits zero" `Quick test_list_ok;
          Alcotest.test_case "every subcommand's --help renders" `Quick
            test_help_renders;
        ] );
    ]
