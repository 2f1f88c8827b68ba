type boundary = {
  tree : Vfs.Walker.tree;
  digest : int;  (* [Vfs.Walker.digest tree] *)
  target : string option;  (* of the call that led here; [None] at boundary 0 *)
  ret : int;
}

(* Boundary [b] is the state after [b] calls, so call [i] runs between
   boundaries [i] and [i + 1]. *)
type t = boundary array

let n_calls t = Array.length t - 1
let boundary t b = t.(b)
let pre t i = t.(i).tree
let post t i = t.(i + 1).tree
let final t = t.(Array.length t - 1).tree
let target t i = t.(i + 1).target
let ret t i = t.(i + 1).ret
let pre_digest t i = t.(i).digest
let post_digest t i = t.(i + 1).digest

let make ~trees ~digests ~targets ~rets =
  Array.init (Array.length trees) (fun b ->
      let target, ret = if b = 0 then (None, 0) else (targets.(b - 1), rets.(b - 1)) in
      { tree = trees.(b); digest = digests.(b); target; ret })

(* Run [calls] on Memfs, capturing and digesting only the boundaries
   after [known]'s, which are appended to [known]. Memfs still runs every
   call, since it holds the state the later boundaries are captured
   from. *)
let run_memfs ~known calls =
  let h = Memfs.handle () in
  let have = Array.length known in
  let fresh = ref [] (* boundaries [have ..], newest first *) in
  let capture b target ret =
    if b >= have then begin
      let tree = Vfs.Walker.capture h in
      fresh := { tree; digest = Vfs.Walker.digest tree; target; ret } :: !fresh
    end
  in
  let var_paths : (int, string) Hashtbl.t = Hashtbl.create 8 in
  capture 0 None 0;
  let target = ref None in
  let before _idx call =
    let target_of var = Hashtbl.find_opt var_paths var in
    target :=
      match call with
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
      | _ -> None
  in
  let after idx call ret =
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
    capture (idx + 1) !target ret
  in
  let _ = Vfs.Workload.run ~before ~after h calls in
  Array.append known (Array.of_list (List.rev !fresh))

let run ?(known = [||]) calls =
  if Array.length known = List.length calls + 1 then known else run_memfs ~known calls
