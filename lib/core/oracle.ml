type t = {
  trees : Vfs.Walker.tree array;
  digests : int array;  (* [Vfs.Walker.digest] of each boundary tree *)
  targets : string option array;
  rets : int array;
}

let n_calls t = Array.length t.targets
let pre t i = t.trees.(i)
let post t i = t.trees.(i + 1)
let final t = t.trees.(Array.length t.trees - 1)
let target t i = t.targets.(i)
let ret t i = t.rets.(i)
let pre_digest t i = t.digests.(i)
let post_digest t i = t.digests.(i + 1)

let run calls =
  let h = Memfs.handle () in
  let n = List.length calls in
  let trees = Array.make (n + 1) [] in
  let targets = Array.make n None in
  let rets = Array.make n 0 in
  let var_paths : (int, string) Hashtbl.t = Hashtbl.create 8 in
  trees.(0) <- Vfs.Walker.capture h;
  let before idx call =
    let target_of var = Hashtbl.find_opt var_paths var in
    targets.(idx) <-
      (match call with
      | Vfs.Syscall.Write { fd_var; _ }
      | Vfs.Syscall.Pwrite { fd_var; _ }
      | Vfs.Syscall.Fallocate { fd_var; _ }
      | Vfs.Syscall.Fsync { fd_var }
      | Vfs.Syscall.Fdatasync { fd_var } ->
        target_of fd_var
      | Vfs.Syscall.Truncate { path; _ }
      | Vfs.Syscall.Setxattr { path; _ }
      | Vfs.Syscall.Removexattr { path; _ } ->
        Some path
      | _ -> None)
  in
  let after idx call ret =
    rets.(idx) <- ret;
    (if ret >= 0 then
       match call with
       | Vfs.Syscall.Creat { path; fd_var } | Vfs.Syscall.Open { path; fd_var; _ } ->
         Hashtbl.replace var_paths fd_var path
       | Vfs.Syscall.Close { fd_var } -> Hashtbl.remove var_paths fd_var
       | Vfs.Syscall.Rename { src; dst } ->
         (* Keep descriptor paths in step with namespace changes so fsync
            targets stay resolvable. *)
         Hashtbl.iter
           (fun var p -> if p = src then Hashtbl.replace var_paths var dst)
           (Hashtbl.copy var_paths)
       | Vfs.Syscall.Unlink { path } | Vfs.Syscall.Remove { path } ->
         Hashtbl.iter
           (fun var p -> if p = path then Hashtbl.remove var_paths var)
           (Hashtbl.copy var_paths)
       | _ -> ());
    trees.(idx + 1) <- Vfs.Walker.capture h
  in
  let _ = Vfs.Workload.run ~before ~after h calls in
  { trees; digests = Array.map Vfs.Walker.digest trees; targets; rets }
