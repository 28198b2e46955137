type t = { command : string; via_ocamlfind : bool }

let path_sep = if Sys.win32 then ';' else ':'

let executable_at dir name =
  let file = Filename.concat dir name in
  if Sys.file_exists file && not (Sys.is_directory file) then Some file
  else None

let search_path path name =
  List.find_map
    (fun dir -> if dir = "" then None else executable_at dir name)
    (String.split_on_char path_sep path)

let probe ?path () =
  match Sys.getenv_opt "UJC_NATIVE_COMPILER" with
  | Some cmd when cmd <> "" && path = None ->
      (* explicit override: trust the given command verbatim *)
      let via_ocamlfind =
        Filename.basename cmd |> String.lowercase_ascii
        |> String.starts_with ~prefix:"ocamlfind"
      in
      Ok { command = cmd; via_ocamlfind }
  | _ -> (
      let path =
        match path with
        | Some p -> p
        | None -> Option.value (Sys.getenv_opt "PATH") ~default:""
      in
      match search_path path "ocamlfind" with
      | Some cmd -> Ok { command = cmd; via_ocamlfind = true }
      | None -> (
          match search_path path "ocamlopt" with
          | Some cmd -> Ok { command = cmd; via_ocamlfind = false }
          | None ->
              Error
                "no OCaml native toolchain: neither ocamlfind nor ocamlopt \
                 found on PATH (set UJC_NATIVE_COMPILER to override)"))

let cached : (t, string) result option ref = ref None

let find () =
  match !cached with
  | Some r -> r
  | None ->
      let r = probe () in
      cached := Some r;
      r

let read_file file =
  try
    let ic = open_in_bin file in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with Sys_error _ -> ""

let tail ?(n = 2000) s =
  let s = String.trim s in
  if String.length s <= n then s
  else "..." ^ String.sub s (String.length s - n) n

(* All compiler warnings are disabled: the input is generated code and
   deliberately ignores style (unused bindings from the CSE cache,
   shadowing between units). *)
let compile t ~src ~exe =
  let dir = Filename.dirname src in
  let log = Filename.concat dir "compile.log" in
  let cmd =
    Printf.sprintf "cd %s && %s %s -w -a -o %s %s > %s 2>&1"
      (Filename.quote dir) (Filename.quote t.command)
      (if t.via_ocamlfind then "ocamlopt" else "")
      (Filename.quote exe)
      (Filename.quote (Filename.basename src))
      (Filename.quote log)
  in
  match Sys.command cmd with
  | 0 -> Ok ()
  | code ->
      Error
        (Printf.sprintf "native compile failed (exit %d): %s" code
           (tail (read_file log)))
  | exception Sys_error msg -> Error ("native compile failed: " ^ msg)

let run_exe exe =
  let out = exe ^ ".out" in
  let cmd =
    Printf.sprintf "%s > %s 2>&1" (Filename.quote exe) (Filename.quote out)
  in
  match Sys.command cmd with
  | 0 -> Ok (read_file out)
  | code ->
      Error
        (Printf.sprintf "native run failed (exit %d): %s" code
           (tail (read_file out)))
  | exception Sys_error msg -> Error ("native run failed: " ^ msg)
