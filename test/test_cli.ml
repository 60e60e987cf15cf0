(* The CLI binary driven as a subprocess: out-of-range sizes and
   unknown method names must fail as command-line usage errors
   (cmdliner's exit 124, message on stderr), never as an uncaught
   exception (exit 125) or after output has started. *)

(* Resolved relative to this test binary, as in the kill-matrix test. *)
let cli =
  Filename.concat (Filename.dirname Sys.executable_name) "../bin/svgic_cli.exe"

(* The parent's environment minus the fault-injection switches, so a
   chaos run of the suite cannot crash the child for its own reasons. *)
let disarmed_env () =
  Unix.environment () |> Array.to_list
  |> List.filter (fun kv -> not (String.starts_with ~prefix:"SVGIC_FAULT_" kv))
  |> Array.of_list

(* Run to completion with stdin on /dev/null and stdout in a temporary
   file; return (exit code, stdout, stderr). *)
let run_cli args =
  let null_in = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let out_path = Filename.temp_file "svgic_cli" ".out" in
  let out_fd = Unix.openfile out_path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let err_r, err_w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process_env cli
      (Array.of_list (cli :: args))
      (disarmed_env ()) null_in out_fd err_w
  in
  List.iter Unix.close [ null_in; out_fd; err_w ];
  let ic = Unix.in_channel_of_descr err_r in
  let err = In_channel.input_all ic in
  close_in ic;
  let status = snd (Unix.waitpid [] pid) in
  let out = In_channel.with_open_bin out_path In_channel.input_all in
  Sys.remove out_path;
  match status with
  | Unix.WEXITED c -> (c, out, err)
  | Unix.WSIGNALED _ | Unix.WSTOPPED _ -> (-1, out, err)

let contains s sub =
  let n = String.length s and k = String.length sub in
  let rec go i = i + k <= n && (String.sub s i k = sub || go (i + 1)) in
  go 0

let test_bad_sizes_are_usage_errors () =
  List.iter
    (fun (cmd, args, flag) ->
      let argv = cmd :: args in
      let code, _, err = run_cli argv in
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
  let code, _, err =
    run_cli [ "solve"; "-n"; "6"; "-m"; "3"; "-k"; "3"; "--cap"; "1" ]
  in
  Alcotest.(check int) ("k = m, cap = 1 solves: " ^ err) 0 code

(* An unknown method is rejected by the argument parser, before the
   instance header reaches stdout. *)
let test_unknown_method_is_usage_error () =
  let code, out, err =
    run_cli [ "solve"; "--method"; "bogus"; "-n"; "3"; "-m"; "4"; "-k"; "2" ]
  in
  Alcotest.(check int) "usage-error exit" 124 code;
  Alcotest.(check string) "nothing on stdout" "" out;
  Alcotest.(check bool) ("stderr names --method: " ^ err) true (contains err "--method");
  let code, _, err = run_cli [ "solve"; "--method"; "per"; "-n"; "3"; "-m"; "4"; "-k"; "2" ] in
  Alcotest.(check int) ("a known method still solves: " ^ err) 0 code

let suite =
  [
    Alcotest.test_case "bad sizes are usage errors (exit 124)" `Quick
      test_bad_sizes_are_usage_errors;
    Alcotest.test_case "edge sizes accepted" `Quick test_edge_sizes_accepted;
    Alcotest.test_case "unknown --method is a usage error" `Quick
      test_unknown_method_is_usage_error;
  ]
