module Diagnostic = Vqc_diag.Diagnostic

let roots = [ "lib"; "bin"; "examples"; "test"; "bench" ]

let rec ml_files directory =
  match Sys.readdir directory with
  | entries ->
    Array.sort compare entries;
    Array.fold_left
      (fun acc entry ->
        if entry = "_build" || (entry <> "" && entry.[0] = '.') then acc
        else begin
          let path = Filename.concat directory entry in
          if Sys.is_directory path then acc @ ml_files path
          else if Filename.check_suffix entry ".ml" then acc @ [ path ]
          else acc
        end)
      [] entries
  | exception Sys_error _ -> []

let scan_tree ~root =
  List.concat_map
    (fun top ->
      let directory = Filename.concat root top in
      if Sys.file_exists directory && Sys.is_directory directory then
        List.concat_map
          (fun path ->
            match In_channel.with_open_text path In_channel.input_all with
            | text ->
              (* report paths relative to the root, '/'-separated *)
              let file =
                if root = "." || root = "" then path
                else if String.length path > String.length root
                        && String.sub path 0 (String.length root) = root then
                  String.sub path
                    (String.length root + 1)
                    (String.length path - String.length root - 1)
                else path
              in
              Rules.scan_source ~file text
            | exception Sys_error message ->
              [
                Diagnostic.errorf
                  ~location:(Diagnostic.File_line { file = path; line = 1 })
                  Diagnostic.code_determinism "unreadable source file: %s"
                  message;
              ])
          (ml_files directory)
      else [])
    roots
  |> List.sort Diagnostic.compare
