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

let make ~trees ~digests ~targets ~rets = { trees; digests; targets; rets }

(* Run [calls] on Memfs. Boundaries [0 .. n_calls known] come from [known];
   only later ones are captured and digested. Memfs still runs every call,
   since it holds the state the later boundaries are captured from. *)
let run_memfs ?known calls =
  let h = Memfs.handle () in
  let n = List.length calls in
  let trees = Array.make (n + 1) [] in
  let digests = Array.make (n + 1) 0 in
  let targets = Array.make n None in
  let rets = Array.make n 0 in
  let have =
    match known with
    | None -> -1
    | Some o ->
      let k = n_calls o in
      Array.blit o.trees 0 trees 0 (k + 1);
      Array.blit o.digests 0 digests 0 (k + 1);
      k
  in
  let capture b =
    if b > have then begin
      let tree = Vfs.Walker.capture h in
      trees.(b) <- tree;
      digests.(b) <- Vfs.Walker.digest tree
    end
  in
  let var_paths : (int, string) Hashtbl.t = Hashtbl.create 8 in
  capture 0;
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
    capture (idx + 1)
  in
  let _ = Vfs.Workload.run ~before ~after h calls in
  { trees; digests; targets; rets }

let run ?known calls =
  match known with
  | Some o when n_calls o = List.length calls -> o
  | _ -> run_memfs ?known calls
