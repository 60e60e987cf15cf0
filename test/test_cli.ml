(* The CLI binary driven as a subprocess: out-of-range sizes must fail
   as command-line usage errors (cmdliner's exit 124, message on
   stderr), never as an uncaught exception (exit 125). *)

(* Resolved relative to this test binary, as in the kill-matrix test. *)
let cli =
  Filename.concat (Filename.dirname Sys.executable_name) "../bin/svgic_cli.exe"

(* The parent's environment minus the fault-injection switches, so a
   chaos run of the suite cannot crash the child for its own reasons. *)
let disarmed_env () =
  Unix.environment () |> Array.to_list
  |> List.filter (fun kv -> not (String.starts_with ~prefix:"SVGIC_FAULT_" kv))
  |> Array.of_list

(* Run to completion with stdin/stdout on /dev/null; return (exit code,
   stderr). *)
let run_cli args =
  let null_in = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let null_out = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let err_r, err_w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process_env cli
      (Array.of_list (cli :: args))
      (disarmed_env ()) null_in null_out err_w
  in
  List.iter Unix.close [ null_in; null_out; err_w ];
  let ic = Unix.in_channel_of_descr err_r in
  let err = In_channel.input_all ic in
  close_in ic;
  match snd (Unix.waitpid [] pid) with
  | Unix.WEXITED c -> (c, err)
  | Unix.WSIGNALED _ | Unix.WSTOPPED _ -> (-1, err)

let contains s sub =
  let n = String.length s and k = String.length sub in
  let rec go i = i + k <= n && (String.sub s i k = sub || go (i + 1)) in
  go 0

let test_bad_sizes_are_usage_errors () =
  List.iter
    (fun (cmd, args, flag) ->
      let argv = cmd :: args in
      let code, err = run_cli argv in
      let shown = String.concat " " argv in
      Alcotest.(check int) (shown ^ ": usage-error exit") 124 code;
      Alcotest.(check bool) (shown ^ ": names " ^ flag) true (contains err flag);
      Alcotest.(check bool)
        (shown ^ ": no uncaught exception")
        false
        (contains err "uncaught exception"))
    [
      ("solve", [ "--cap"; "0" ], "--cap");
      ("solve", [ "-k"; "0" ], "-k");
      ("solve", [ "-k"; "9"; "-m"; "6" ], "-k");
      ("compare", [ "--cap"; "0" ], "--cap");
      ("compare", [ "-k"; "0" ], "-k");
      ("compare", [ "-k"; "9"; "-m"; "6" ], "-k");
      ("generate", [ "-k"; "0"; "-o"; Filename.null ], "-k");
      ("serve", [ "-k"; "9"; "-m"; "6"; "--events"; Filename.null ], "-k");
    ]

(* The boundary values themselves are accepted. *)
let test_edge_sizes_accepted () =
  let code, err =
    run_cli [ "solve"; "-n"; "6"; "-m"; "3"; "-k"; "3"; "--cap"; "1" ]
  in
  Alcotest.(check int) ("k = m, cap = 1 solves: " ^ err) 0 code

let suite =
  [
    Alcotest.test_case "bad sizes are usage errors (exit 124)" `Quick
      test_bad_sizes_are_usage_errors;
    Alcotest.test_case "edge sizes accepted" `Quick test_edge_sizes_accepted;
  ]
